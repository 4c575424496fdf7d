"""The exit-code contract of the command line, as a property.

Whatever the document and the arguments, ``validate``, ``analyze``,
``limset``, ``theorems`` and ``emit`` exit 0, 1 or 2, and nothing but
``SystemExit`` leaves them. Documents are ``dump_space`` output of up to 12
points with hostile edits, read on each parser path of ``load_space`` (the
``yaml_parser`` fixture).
"""

import numpy as np
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from roughmetric import EpSequence, SpaceSpec, dump_space, sequence_literal
from roughmetric.cli import main
from roughmetric.theorems import random_space

# non-finite and undefined numbers, YAML syntax and a NUL
_EDITS = ["1e400", "nan", ".inf", "1/0", "\t", "#", '"', "'", "\x00", ",", ": ", "\n- "]
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
