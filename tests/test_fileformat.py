import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import roughmetric
from roughmetric import (
    EpSequence,
    InvalidSpaceError,
    LoadError,
    ShapeError,
    SpaceSpec,
    build_space,
    dump_space,
    load_space,
    paper_example_spec,
    parse_real,
    parse_sequence_literal,
    sequence_literal,
    validate_axioms,
)
from roughmetric.theorems import random_space

TWO_POINT_DOC = """\
points: [a, b]
dist:
- [0, "1/sqrt(2)"]
- ["1/sqrt(2)", 0]
alpha:
- [1, "sqrt(2)"]
- ["sqrt(2)", 1]
"""


# --- entry expressions ---

def test_parse_real_values():
    assert parse_real(3) == 3.0
    assert parse_real(0.25) == 0.25
    assert parse_real("2") == 2.0
    assert parse_real("sqrt(4)") == 2.0
    assert parse_real("1/sqrt(2)") == 1 / math.sqrt(2)
    assert parse_real("sqrt(2)/2") == math.sqrt(2) / 2
    assert parse_real("3/4") == 0.75
    assert parse_real("-1/sqrt(4)") == -0.5
    assert parse_real("1.5e2") == 150.0


def test_parse_real_rejects_junk():
    for bad in ("", "banana", "sqrt(-1)", "1/2/3", "2**3", True, [1], None,
                "1/0", "1/sqrt(0)", "0/0"):
        with pytest.raises(LoadError):
            parse_real(bad)


# --- loading ---

def test_load_space_with_expressions():
    spec = load_space(TWO_POINT_DOC)
    assert spec.points == ("a", "b")
    assert spec.dist[0, 1] == 1 / math.sqrt(2)
    assert spec.alpha[1, 0] == math.sqrt(2)
    assert validate_axioms(spec).valid


@pytest.mark.parametrize("entry", ["1/0", "1/sqrt(0)", "0/0"])
def test_load_division_by_zero_names_the_entry(entry):
    doc = f'points: [a, b]\ndist:\n- [0, 1]\n- ["{entry}", 0]\nalpha:\n- [1, 1]\n- [1, 1]\n'
    with pytest.raises(LoadError, match=r"dist\[1\]\[0\]: division by zero"):
        load_space(doc)


def test_load_asymmetric_then_build_reports_d2():
    doc = "points: [a, b]\ndist:\n- [0, 1]\n- [2, 0]\nalpha:\n- [1, 1]\n- [1, 1]\n"
    spec = load_space(doc)  # loads fine; shape is the loader's only concern
    with pytest.raises(InvalidSpaceError) as err:
        build_space(spec)
    assert any(v.axiom == "d2" for v in err.value.result.violations)


def test_load_errors():
    with pytest.raises(LoadError):
        load_space("just a string")
    with pytest.raises(LoadError):
        load_space("points: []\ndist: []\nalpha: []")
    with pytest.raises(LoadError):
        load_space("dist: [[0]]\nalpha: [[1]]")  # no points
    with pytest.raises(LoadError):
        load_space("points: [a]\ndist: [[0]]\nalpha: [[1]]\nbogus: 1")
    with pytest.raises(LoadError):
        load_space("points: [[1]]\ndist: [[0]]\nalpha: [[1]]")  # list point id
    with pytest.raises(LoadError):
        load_space("points: [a]\ndist: [[oops]]\nalpha: [[1]]")
    with pytest.raises(LoadError, match="line"):
        load_space("points: [a, b\ndist: [")  # unclosed flow sequence


def test_load_rejects_point_ids_sharing_a_text_form():
    tables = "dist:\n- [0, 1]\n- [1, 0]\nalpha:\n- [1, 1]\n- [1, 1]\n"
    with pytest.raises(LoadError, match="share the text form '1'"):
        load_space('points: [1, "1"]\n' + tables)
    with pytest.raises(ShapeError, match="distinct"):  # equal ids are a shape error
        load_space("points: [1, 1]\n" + tables)


@pytest.mark.parametrize("point", ["a,b", "a|b", "", " a", "a ", "\ta"])
def test_load_rejects_point_ids_no_literal_can_name(point):
    # parse_sequence_literal splits on ',' and '|' and strips whitespace
    tables = "dist:\n- [0, 1]\n- [1, 0]\nalpha:\n- [1, 1]\n- [1, 1]\n"
    with pytest.raises(LoadError, match=f"point id {re.escape(repr(point))} cannot be named"):
        load_space(f"points: [{json.dumps(point)}, c]\n" + tables)


def test_missing_or_misshapen_tables_are_shape_errors():
    with pytest.raises(ShapeError):
        load_space("points: [a, b]\ndist:\n- [0, 1]\n- [1, 0]\n")  # no alpha
    with pytest.raises(ShapeError):
        load_space("points: [a, b]\ndist:\n- [0, 1]\nalpha:\n- [1, 1]\n- [1, 1]\n")
    with pytest.raises(ShapeError):
        load_space("points: [a, b]\ndist:\n- [0, 1, 2]\n- [1, 0, 2]\nalpha:\n- [1, 1]\n- [1, 1]\n")


# --- the two parser paths ---

needs_libyaml = pytest.mark.skipif(getattr(yaml, "CSafeLoader", None) is None,
                                   reason="this PyYAML is built without libyaml")


def _recording_loader(calls, fail=None):
    class Loader(yaml.CSafeLoader):
        def __init__(self, stream):
            calls.append(stream)
            if fail is not None:
                raise fail
            super().__init__(stream)
    return Loader


@needs_libyaml
def test_libyaml_reads_dumped_documents(monkeypatch):
    calls = []
    monkeypatch.setattr(yaml, "CSafeLoader", _recording_loader(calls))
    text = dump_space(random_space(np.random.default_rng(5), 6).spec)
    load_space(text)
    assert calls == [text]
    load_space(text.replace("\n", "\r\n"))  # outside the character subset
    assert calls == [text]


@needs_libyaml
@pytest.mark.parametrize("error", [IndexError("libyaml"), yaml.YAMLError("libyaml")])
def test_libyaml_failure_falls_back_to_the_pure_parser(monkeypatch, error):
    calls = []
    monkeypatch.setattr(yaml, "CSafeLoader", _recording_loader(calls, fail=error))
    spec = load_space(TWO_POINT_DOC)
    assert calls == [TWO_POINT_DOC]
    assert spec.points == ("a", "b") and spec.alpha[0, 1] == math.sqrt(2)
    with pytest.raises(LoadError, match="at line 2: while parsing a flow sequence"):
        load_space("points: [a, b\n")


@needs_libyaml
@pytest.mark.parametrize("doc", ["'[' * 30000 + ']' * 30000", "'- ' * 30000 + 'x'",
                                 "'[a: ' * 20000 + ']' * 20000"])
def test_nesting_that_would_overflow_libyaml_takes_the_pure_parser(doc):
    # Each of these overflows libyaml's C stack and kills the interpreter, so
    # it runs in a child process.
    code = ("from roughmetric import LoadError, load_space\n"
            f"try:\n    load_space({doc})\n"
            "except LoadError as exc:\n    print(exc)\n")
    src = str(Path(roughmetric.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "document is nested too deeply\n")


_DIFF_BASES = [
    TWO_POINT_DOC,
    dump_space(paper_example_spec(3)),
    dump_space(random_space(np.random.default_rng(3), 4).spec),
    'points: ["on", "x y", "true", c_1]\ndist:\n- [0, 1, 1, 1]\n- [1, 0, 1, 1]\n'
    '- [1, 1, 0, 1]\n- [1, 1, 1, 0]\nalpha: []\n',
]
# characters of the libyaml subset, then characters outside it
_DIFF_CHARS = list('azAZ09 ,.[]"/()+\n:_-') + list("{}\t\r!&*?@%#'|>\\`~=;$^\x00\x85é€😀")


def _mutate(text, edits):
    """Apply (kind, where in [0, 1), char) edits in turn."""
    for kind, where, char in edits:
        i = int(where * (len(text) + (kind == "insert")))
        text = text[:i] + ("" if kind == "delete" else char) + text[i + (kind != "insert"):]
    return text


def _outcome(text):
    try:
        spec = load_space(text)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return repr((spec.points, spec.dist.tolist(), spec.alpha.tolist()))


@needs_libyaml
@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from(_DIFF_BASES),
       edits=st.lists(st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                                st.floats(0, 1, exclude_max=True),
                                st.sampled_from(_DIFF_CHARS)), min_size=1, max_size=12))
def test_both_parser_paths_give_the_same_outcome(base, edits):
    text = _mutate(base, edits)
    with pytest.MonkeyPatch.context() as mp:
        libyaml = _outcome(text)
        mp.setattr(yaml, "CSafeLoader", None)
        pure = _outcome(text)
    if pure != ("LoadError", "document is nested too deeply"):
        assert libyaml == pure


# --- emitting and round trips ---

def _tables_close(a, b, rel=1e-11):
    return np.allclose(a.dist, b.dist, rtol=rel, atol=0) and \
        np.allclose(a.alpha, b.alpha, rtol=rel, atol=0)


def test_round_trip_paper_example():
    spec = paper_example_spec(10)
    again = load_space(dump_space(spec))
    assert again.points == spec.points
    assert _tables_close(again, spec)


def test_round_trip_random_space():
    spec = random_space(np.random.default_rng(77), 9).spec
    again = load_space(dump_space(spec))
    assert again.points == spec.points
    assert _tables_close(again, spec)


def test_round_trip_is_stable():
    text = dump_space(paper_example_spec(7))
    assert dump_space(load_space(text)) == text


def test_dump_quotes_awkward_strings():
    doc = 'points: ["true", "x y"]\ndist:\n- [0, 1]\n- [1, 0]\nalpha:\n- [1, 1]\n- [1, 1]\n'
    spec = load_space(doc)
    assert spec.points == ("true", "x y")
    again = load_space(dump_space(spec))
    assert again.points == ("true", "x y")


@pytest.mark.parametrize("ids", [
    ["on", "On", "ON", "off", "Off", "OFF"],
    ["true", "False", "yes", "No", "null", "NULL", "y", "tRUE", "plain"],
])
def test_dump_round_trips_ids_yaml_would_resolve(ids):
    n = len(ids)
    spec = SpaceSpec(tuple(ids), np.ones((n, n)) - np.eye(n), np.ones((n, n)))
    again = load_space(dump_space(spec))
    assert again.points == spec.points
    assert load_space(dump_space(again)).points == spec.points


def test_dump_uses_12_significant_digits():
    text = dump_space(paper_example_spec(3))
    assert "0.707106781187" in text


# --- sequence literals ---

def test_sequence_literal_parse(paper10):
    seq = parse_sequence_literal("2,3", paper10)
    assert seq.prefix == () and seq.cycle == (2, 3)
    seq = parse_sequence_literal("7|2,3", paper10)
    assert seq.prefix == (7,) and seq.cycle == (2, 3)
    seq = parse_sequence_literal(" 1 , 2 | 3 ", paper10)
    assert seq.prefix == (1, 2) and seq.cycle == (3,)
    seq = parse_sequence_literal("|4", paper10)
    assert seq.prefix == () and seq.cycle == (4,)


def test_sequence_literal_string_points():
    space = build_space(load_space(TWO_POINT_DOC))
    seq = parse_sequence_literal("a|b", space)
    assert seq.prefix == ("a",) and seq.cycle == ("b",)


def test_sequence_literal_errors(paper10):
    with pytest.raises(ValueError):
        parse_sequence_literal("2,99", paper10)
    with pytest.raises(ValueError):
        parse_sequence_literal("2|", paper10)
    with pytest.raises(ValueError):
        parse_sequence_literal("", paper10)


def test_sequence_literal_refuses_names_that_do_not_parse_back():
    for point in ("a,b", "a|b", "", " a"):
        with pytest.raises(ValueError, match="cannot be named"):
            sequence_literal(EpSequence(prefix=(), cycle=(point,)))
    with pytest.raises(ValueError, match="cannot be named"):
        sequence_literal(EpSequence(prefix=("a,b",), cycle=("c",)))


def test_sequence_literal_round_trip_with_inner_spaces():
    space = build_space(load_space(TWO_POINT_DOC.replace("[a, b]", '["x y", b]')))
    seq = EpSequence(prefix=("x y",), cycle=("b", "x y"))
    assert sequence_literal(seq) == "x y|b,x y"
    assert parse_sequence_literal(sequence_literal(seq), space) == seq


def test_sequence_literal_round_trip(paper10):
    for text in ("2,3", "7|2,3", "1,2|3,4"):
        seq = parse_sequence_literal(text, paper10)
        assert parse_sequence_literal(sequence_literal(seq), paper10) == seq
