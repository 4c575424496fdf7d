"""The line collector and tracer of ``tests/linetrace.py``."""

import sys

import linetrace

SOURCE = '''\
import math


class Box:
    side = 2

    def area(self):
        return self.side ** 2


def scaled(xs):
    """Each x times pi."""
    def by_pi(x):
        return x * math.pi

    return [by_pi(x)
            for x in xs]


UNIT = scaled([1])
'''


def test_only_lines_inside_functions_count():
    # the def lines, bodies, the nested function and the comprehension; not the
    # import, the class body, the docstring or the module-level call
    assert linetrace.function_lines(SOURCE) == {7, 8, 11, 13, 14, 16, 17}


def test_tracer_records_the_function_lines_that_ran():
    namespace: dict = {}
    exec(compile(SOURCE, "box.py", "exec"), namespace)  # import-time lines, untraced
    tracer = linetrace.Tracer({"box.py"})
    previous = sys.gettrace()
    tracer.arm()
    try:
        namespace["scaled"]([1, 2])
    finally:
        sys.settrace(previous)
    assert tracer.hits == {("box.py", line) for line in (11, 13, 14, 16, 17)}  # not Box.area
