"""The exit-code contract of the command line, as a property.

Whatever the document and the arguments, ``validate``, ``analyze``,
``limset``, ``theorems`` and ``emit`` exit 0, 1 or 2, and nothing but
``SystemExit`` leaves them. Documents are ``dump_space`` output of up to 12
points with hostile edits, read on each parser path of ``load_space`` (the
``yaml_parser`` fixture). A document with an integer entry past the float
range exits 2 on every command, in process and as a real process.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

import roughmetric
from roughmetric import EpSequence, SpaceSpec, dump_space, sequence_literal
from roughmetric.cli import main
from roughmetric.theorems import random_space

# an integer past the float range: YAML reads it as an int, not a float
_HUGE_INT = "1" + "0" * 400
# non-finite and undefined numbers, YAML syntax and a NUL
_EDITS = ["1e400", _HUGE_INT, "nan", ".inf", "1/0", "\t", "#", '"', "'", "\x00", ",", ": ",
          "\n- "]
# past the pure-Python parser's recursion limit (about 500 levels); its scanner
# takes time in the depth times the tokens that follow, so one opener run at most
_NESTING = "[" * 600
_SEQS = ["", "|", "1,,2"]
_DEGREES = ["-1", "nan", "1e400", "1e308", "0", "0.5", "1/sqrt(2)", "3"]
_DOC = "DOC"  # stands for the document's path in an argument list


@st.composite
def cases(draw):
    """(document bytes, argument list)."""
    space = random_space(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                         draw(st.integers(1, 12)))
    points = space.points if draw(st.booleans()) else tuple(f"p{p}" for p in space.points)
    text = dump_space(SpaceSpec(points, space.dist, space.alpha))
    edits = st.tuples(st.floats(0, 1, exclude_max=True), st.sampled_from(_EDITS), st.booleans())
    for where, token, replace in draw(st.lists(edits, max_size=4)):
        i = int(where * len(text))
        text = text[:i] + token + text[i + replace:]
    if draw(st.integers(0, 3)) == 0:
        i = int(draw(st.floats(0, 1)) * len(text))
        text = text[:i] + _NESTING + text[i:]
    data = text.encode()
    if draw(st.booleans()):  # bytes that are not UTF-8
        i = int(draw(st.floats(0, 1)) * len(data))
        data = data[:i] + b"\xff\xfe" + data[i:]

    terms = st.lists(st.sampled_from(points), max_size=3)
    literal = sequence_literal(EpSequence(prefix=draw(terms), cycle=[points[0], *draw(terms)]))
    seq = ["--seq", draw(st.sampled_from([literal, *_SEQS]))]
    degree = draw(st.sampled_from(_DEGREES))
    fmt = ["--format", "structured"] if draw(st.booleans()) else []
    argv = draw(st.sampled_from([
        ["validate", _DOC, *fmt],
        ["analyze", _DOC, *seq, *fmt],
        ["analyze", _DOC, *seq, "--r", degree, *fmt],
        ["limset", _DOC, *seq, "--r", degree, *fmt],
        ["theorems", _DOC, *seq, *fmt],
        ["theorems", _DOC, *seq, "--r-grid", f"0,{degree}", *fmt],
        ["emit", _DOC],
    ]))
    return data, argv


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cases())
def test_every_command_exits_0_1_or_2(yaml_parser, tmp_path, case):
    data, argv = case
    doc = tmp_path / "doc.space"
    doc.write_bytes(data)
    result = CliRunner().invoke(main, [str(doc) if a == _DOC else a for a in argv])
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        f"{argv} raised {result.exception!r}"
    assert result.exit_code in (0, 1, 2)


_COMMANDS = [
    ["validate"], ["validate", "--format", "structured"], ["analyze", "--seq", "1,2"],
    ["limset", "--seq", "1,2", "--r", "1"], ["theorems", "--seq", "1,2"], ["emit"],
]


def huge_int_doc(tmp_path, digits: int) -> str:
    big = "1" + "0" * (digits - 1)
    doc = tmp_path / "huge.space"
    doc.write_text(f"points: [1, 2]\ndist:\n- [0, {big}]\n- [{big}, 0]\n"
                   "alpha:\n- [1, 1]\n- [1, 1]\n")
    return str(doc)


@pytest.mark.parametrize("digits, message", [
    (400, "dist[0][1]: integer too large for a real number"),
    # past int's digit limit the YAML parser itself cannot read the entry
    (5000, "invalid document syntax: Exceeds the limit (4300 digits) for integer string "
           "conversion"),
])
@pytest.mark.parametrize("command", _COMMANDS, ids=lambda c: " ".join(c))
def test_integer_entry_past_the_float_range_is_usage_error(yaml_parser, tmp_path, digits,
                                                            message, command):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default, which PYTHONINTMAXSTRDIGITS can change
    try:
        doc = huge_int_doc(tmp_path, digits)
        result = CliRunner().invoke(main, [command[0], doc, *command[1:]])
    finally:
        sys.set_int_max_str_digits(limit)
    assert isinstance(result.exception, SystemExit)  # no traceback escaped
    assert result.exit_code == 2
    assert f"Error: {doc}: {message}" in result.output


def test_integer_entry_past_the_float_range_exits_2_as_a_process(tmp_path):
    src = str(Path(roughmetric.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "roughmetric.cli", "validate",
                           huge_int_doc(tmp_path, 400)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith("dist[0][1]: integer too large for a real number\n")
    assert "Traceback" not in proc.stderr
