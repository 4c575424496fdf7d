"""Line trace: which lines of ``src/roughmetric`` does tier-1 never run?

The script runs pytest in this process under ``sys.settrace`` and records
every line executed inside a function of ``src/roughmetric/*.py``. Only code
objects flagged ``CO_OPTIMIZED`` (functions, methods, lambdas and
comprehensions, nested ones included) are counted: class bodies and
module-level lines run at import, so they are left out. Subprocesses are not
traced. Hypothesis draws with ``--hypothesis-seed=0``, so two runs print the
same list. There is no allow-list: a line that must stay and that no test
reaches needs a test.

Run from the repository root (pytest does not collect this file)::

    python tests/linetrace.py                      # tier-1 without criteria 4, 5 and 7
    python tests/linetrace.py tests/test_cli.py    # these pytest arguments instead

Criteria 4, 5 and 7 reach no line that the rest of tier-1 misses, and they
take most of its time: traced with them, tier-1 takes about nine minutes
instead of one (2 vCPUs). The script prints each
untraced line as ``file:line: source`` and exits 1 when there is one or when
pytest fails.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "roughmetric"
SLOW = ("tests/test_acceptance.py::test_criterion_4_definitional_oracle_agreement",
        "tests/test_acceptance.py::test_criterion_5_theorem_fuzz_clean",
        "tests/test_acceptance.py::test_criterion_7_diameter_ratio_logged")


def function_lines(source: str, filename: str = "<source>") -> set[int]:
    """The lines of ``source`` that run only when one of its functions runs."""
    lines: set[int] = set()
    todo = [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


class Tracer:
    """Records ``(filename, line)`` for every line run in ``files``."""

    def __init__(self, files):
        self.files = frozenset(files)
        self.hits: set[tuple[str, int]] = set()

    def _line(self, frame, event, arg):
        self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename not in self.files or not code.co_flags & inspect.CO_OPTIMIZED:
            return None  # a class body's def line counts only when the function runs
        self.hits.add((code.co_filename, frame.f_lineno))  # the def line
        return self._line

    def arm(self):
        sys.settrace(self._call)


class Rearm:
    """A pytest plugin that re-installs the tracer before each test's setup,
    call and teardown: pytest and hypothesis may replace it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_setup(self, item):
        self.tracer.arm()
        return (yield)

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_call(self, item):
        self.tracer.arm()
        return (yield)

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_teardown(self, item):
        self.tracer.arm()
        return (yield)


def main(args: list[str]) -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    tracer = Tracer(files)
    if not args:
        args = [arg for test in SLOW for arg in ("--deselect", test)]
    sys.path.insert(0, str(ROOT / "src"))
    tracer.arm()
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *args],
                           plugins=[Rearm(tracer)])
    finally:
        sys.settrace(None)
    untraced = 0
    for name, path in files.items():
        source = path.read_text()
        text = source.splitlines()
        for line in sorted(function_lines(source, name)):
            if (name, line) not in tracer.hits:
                untraced += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{untraced} untraced line(s) in {PACKAGE.relative_to(ROOT)}; pytest exit code {int(code)}")
    return 1 if untraced or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
