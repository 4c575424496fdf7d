import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

import roughmetric
from roughmetric import load_space, paper_example_spec, spaces
from roughmetric.cli import main

BROKEN_DOC = """\
points: [a, b]
dist:
- [0.5, 1]
- [1, 0]
alpha:
- [1, 1]
- [1, 1]
"""


def run(*args):
    return CliRunner().invoke(main, args)


# --- validate ---

def test_validate_paper_example_ok():
    result = run("validate", "paper-example:10")
    assert result.exit_code == 0
    assert "valid" in result.output


def test_validate_accepts_spaced_builtin():
    assert run("validate", "paper-example 6").exit_code == 0


def test_validate_rejects_builtin_below_two():
    assert run("validate", "paper-example:1").exit_code == 2


@pytest.mark.parametrize("n", ["5001", "99999999999"])
def test_validate_rejects_builtin_too_large_to_hold(n):
    result = run("validate", f"paper-example:{n}")
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback escaped
    assert f"paper-example:N takes N <= 5000, got {n}" in result.output


def test_validate_reports_violations(tmp_path):
    doc = tmp_path / "broken.space"
    doc.write_text(BROKEN_DOC)
    result = run("validate", str(doc))
    assert result.exit_code == 1
    assert "INVALID" in result.output
    assert "axiom d1 fails at (a, a): 0.5 != 0" in result.output


# fails d1 on and off the diagonal (the "-0" entry), d2, alpha and (d3)
EVERY_AXIOM_DOC = """\
points: [1, 2, 3]
dist:
- [0.5, "-0", 9]
- [0, 0, 1]
- [9, 2, 0]
alpha:
- [1, 1, 1]
- [1, 1, 1]
- [1, 1, 0.5]
"""


def test_witnesses_come_in_axiom_order_with_both_sides():
    violations = spaces.validate_axioms(load_space(EVERY_AXIOM_DOC)).violations
    assert [(v.axiom, v.points, repr(v.lhs), repr(v.rhs)) for v in violations] == [
        ("d1", (1, 1), "0.5", "0.0"),
        ("d1", (1, 2), "0.0", "0.0"),  # the -0 entry's side is the literal 0.0
        ("d1", (2, 1), "0.0", "0.0"),
        ("d2", (2, 3), "1.0", "2.0"),  # upper triangle only
        ("alpha", (3, 3), "0.5", "1.0"),
        ("d3", (1, 1, 2), "0.5", "0.0"),
        ("d3", (1, 3, 2), "9.0", "1.0"),
        ("d3", (3, 1, 2), "9.0", "2.0"),
    ]


def test_validate_prints_every_axiom_in_order(tmp_path):
    doc = tmp_path / "every.space"
    doc.write_text(EVERY_AXIOM_DOC)
    result = run("validate", str(doc))
    assert result.exit_code == 1
    assert result.output == (
        "INVALID: 8 violation(s)\n"
        "  axiom d1 fails at (1, 1): 0.5 != 0\n"
        "  axiom d1 fails at (1, 2): 0 != 0\n"
        "  axiom d1 fails at (2, 1): 0 != 0\n"
        "  axiom d2 fails at (2, 3): 1 != 2\n"
        "  axiom alpha fails at (3, 3): 0.5 < 1\n"
        "  axiom d3 fails at (1, 1, 2): 0.5 > 0\n"
        "  axiom d3 fails at (1, 3, 2): 9 > 1\n"
        "  axiom d3 fails at (3, 1, 2): 9 > 2\n"
    )


def test_validate_structured_output():
    result = run("validate", "paper-example:4", "--format", "structured")
    doc = yaml.safe_load(result.output)
    assert doc == {"points": 4, "valid": True, "violations": []}


def test_validate_structured_lists_every_violation(tmp_path):
    doc = tmp_path / "every.space"
    doc.write_text(EVERY_AXIOM_DOC)
    result = run("validate", str(doc), "--format", "structured")
    assert result.exit_code == 1
    assert yaml.safe_load(result.output) == {"points": 3, "valid": False, "violations": [
        {"axiom": axiom, "points": list(points), "lhs": lhs, "rhs": rhs}
        for axiom, points, lhs, rhs in [
            ("d1", "11", 0.5, 0.0), ("d1", "12", 0.0, 0.0), ("d1", "21", 0.0, 0.0),
            ("d2", "23", 1.0, 2.0), ("alpha", "33", 0.5, 1.0), ("d3", "112", 0.5, 0.0),
            ("d3", "132", 9.0, 1.0), ("d3", "312", 9.0, 2.0)]]}


# 8 points at distance 1 under alpha = 0.5: 64 alpha witnesses, then the 112
# (d3) witnesses (x, y, x) and (x, y, y) with x != y, whose sum is 0.5
MANY_VIOLATIONS_DOC = "".join([
    "points: [1, 2, 3, 4, 5, 6, 7, 8]\ndist:\n",
    *(f"- {[int(i != j) for j in range(8)]}\n" for i in range(8)),
    "alpha:\n", *(f"- {[0.5] * 8}\n" for _ in range(8)),
])


def test_validate_text_lists_the_first_50_violations(tmp_path):
    doc = tmp_path / "many.space"
    doc.write_text(MANY_VIOLATIONS_DOC)
    result = run("validate", str(doc))
    assert result.exit_code == 1
    alpha = [f"  axiom alpha fails at ({x}, {y}): 0.5 < 1"
             for x in range(1, 9) for y in range(1, 9)]
    assert result.output.splitlines() == [
        "INVALID: 176 violation(s)", *alpha[:50], "  ... and 126 more"]
    structured = yaml.safe_load(run("validate", str(doc), "--format", "structured").output)
    assert len(structured["violations"]) == 176  # the structured form is not cut


def test_validate_missing_file_is_usage_error():
    assert run("validate", "no/such/file.space").exit_code == 2


def test_validate_undecodable_document_is_usage_error(tmp_path):
    doc = tmp_path / "latin.space"
    doc.write_bytes(b"points: [1, 2]\n\xff\xfe\n")
    result = run("validate", str(doc))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback escaped
    assert "cannot read: 'utf-8' codec can't decode byte 0xff" in result.output


def test_validate_shape_error_is_usage_error(tmp_path):
    doc = tmp_path / "bad.space"
    doc.write_text("points: [a, b]\ndist:\n- [0, 1]\n- [1, 0]\n")
    result = run("validate", str(doc))
    assert result.exit_code == 2
    assert "alpha" in result.output


def write_doc(tmp_path, entry):
    doc = tmp_path / "p0.space"
    doc.write_text(f"points: [1, 2]\ndist:\n- [0, {entry}]\n- [{entry}, 0]\n"
                   "alpha:\n- [1, 1]\n- [1, 1]\n")
    return str(doc)


def test_validate_division_by_zero_is_usage_error(tmp_path):
    for entry in ('"1/0"', '"1/sqrt(0)"', '"0/0"'):
        result = run("validate", write_doc(tmp_path, entry))
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback escaped
        assert "dist[0][1]: division by zero" in result.output


def test_theorems_rejects_overflowing_distance(tmp_path):
    result = run("theorems", write_doc(tmp_path, "1e400"), "--seq", "1,2")
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback escaped
    assert "non-negative reals" in result.output
    assert "[FAIL]" not in result.output


def test_validate_overflowing_control_product_prints_no_warning(tmp_path):
    # alpha * d = 1e310 overflows to inf inside the (d3) scan; the space is
    # still valid and nothing may reach stderr. Run as a real process so the
    # interpreter's default warning filters apply.
    doc = tmp_path / "huge.space"
    doc.write_text("points: [1, 2]\ndist:\n- [0, 1e300]\n- [1e300, 0]\n"
                   "alpha:\n- [1, 1e10]\n- [1e10, 1]\n")
    src = str(Path(roughmetric.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "roughmetric.cli", "validate", str(doc)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == "valid controlled metric type space (2 points)\n"
    assert proc.stderr == ""


@pytest.mark.parametrize("args", [
    ("analyze", "paper-example:4", "--seq", "1,2", "--r", "1e400"),
    ("limset", "paper-example:4", "--seq", "1,2", "--r", "1e400"),
    ("theorems", "paper-example:4", "--seq", "1,2", "--r-grid", "0,1e400"),
    ("fuzz", "--trials", "2", "--r-grid", "1e400"),
])
def test_non_finite_degree_is_usage_error(args):
    result = run(*args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback escaped
    assert "r must be finite, got 1e400" in result.output


@pytest.mark.parametrize("degrees, code, tail", [
    (",", 2, "Error: no r values given\n"),
    ("1,abc", 2, "Error: r: cannot parse 'abc' "
                 "(expected a number, sqrt(x), or a single division of those)\n"),
    ("0,,1", 0, "rough limit set (r = 0): {}\nrough limit set (r = 1): {1, 2, 3, 4}\n"),
    ("", 2, "Error: no r values given\n"),
])
def test_degree_list_errors_and_empty_tokens(degrees, code, tail):
    result = run("analyze", "paper-example:4", "--seq", "1,2", "--r", degrees)
    assert result.exit_code == code
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.output.endswith(tail)
    if code == 2:  # the grids of theorems and fuzz are read the same way
        for args in (("theorems", "paper-example:4", "--seq", "1,2", "--r-grid", degrees),
                     ("fuzz", "--trials", "2", "--r-grid", degrees)):
            result = run(*args)
            assert (result.exit_code, result.output[-len(tail):]) == (2, tail)
            assert isinstance(result.exception, SystemExit)


def test_degree_whose_product_with_k_overflows_is_accepted():
    # r * sup_alpha is +inf for the ball and derived-set checks: inf is a valid degree there
    result = run("theorems", "paper-example:4", "--seq", "2", "--r-grid", "1e308")
    assert result.exit_code == 0
    assert "0 failure(s)" in result.output


@pytest.mark.parametrize("cmd", ["analyze", "limset"])
def test_negative_zero_degree_is_zero(cmd):
    result = run(cmd, "paper-example:4", "--seq", "1,2", "--r", "-0")
    assert result.exit_code == 0
    assert "rough limit set (r = 0): {}" in result.output
    assert "r = -0" not in result.output


# --- analyze ---

def test_analyze_golden_text():
    result = run("analyze", "paper-example:10", "--seq", "2,3", "--r", "1/sqrt(2),1")
    assert result.exit_code == 0
    out = result.output
    assert "sup alpha: 3.16227766017" in out
    assert "convergent: no" in out
    assert "cauchy: no" in out
    assert "cluster points: {2, 3}" in out
    assert "critical roughness: 0.707106781187" in out
    assert "rough limit set (r = 0.707106781187): {2, 3}" in out
    assert "rough limit set (r = 1): {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}" in out


def test_analyze_structured():
    result = run("analyze", "paper-example:4", "--seq", "1|2,3",
                 "--r", "1", "--format", "structured")
    doc = yaml.safe_load(result.output)
    assert doc["convergent"] is False
    assert doc["cluster_points"] == ["2", "3"]
    assert doc["critical_roughness"] == 1 / math.sqrt(2)
    assert doc["sequence"] == "1|2,3"
    assert doc["rough_limit_sets"]["1"] == ["1", "2", "3", "4"]


def test_analyze_invalid_space_exits_one(tmp_path):
    doc = tmp_path / "broken.space"
    doc.write_text(BROKEN_DOC)
    result = run("analyze", str(doc), "--seq", "a,b")
    assert result.exit_code == 1
    assert "not a controlled metric type space" in result.output


def test_analyze_unknown_sequence_point_is_usage_error():
    assert run("analyze", "paper-example:4", "--seq", "2,9").exit_code == 2


def test_point_ids_sharing_a_text_form_are_usage_error(tmp_path):
    doc = tmp_path / "dup.space"
    doc.write_text('points: [1, "1"]\ndist:\n- [0, 1]\n- [1, 0]\n'
                   'alpha:\n- [1, 1]\n- [1, 1]\n')
    result = run("analyze", str(doc), "--seq", "1", "--r", "0")
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback escaped
    assert "share the text form '1'" in result.output
    assert "limsup distances" not in result.output


def test_point_id_no_literal_can_name_is_usage_error(tmp_path):
    doc = tmp_path / "comma.space"
    doc.write_text('points: ["a,b", c]\ndist:\n- [0, 1]\n- [1, 0]\n'
                   'alpha:\n- [1, 1]\n- [1, 1]\n')
    result = run("analyze", str(doc), "--seq", "a,b")
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback escaped
    assert "point id 'a,b' cannot be named in a sequence literal" in result.output


def test_analyze_negative_r_is_usage_error():
    assert run("analyze", "paper-example:4", "--seq", "2,3", "--r", "-1").exit_code == 2


# --- limset ---

def test_limset_golden():
    result = run("limset", "paper-example:10", "--seq", "2,3", "--r", "1/sqrt(2)")
    assert result.exit_code == 0
    assert result.output.strip() == "rough limit set (r = 0.707106781187): {2, 3}"


def test_limset_rejects_more_than_one_degree():
    result = run("limset", "paper-example:4", "--seq", "2,3", "--r", "1,2")
    assert result.exit_code == 2
    assert "--r takes one degree, got 1,2" in result.output


def test_limset_structured():
    result = run("limset", "paper-example:6", "--seq", "2,3", "--r", "1",
                 "--format", "structured")
    doc = yaml.safe_load(result.output)
    assert doc["members"] == ["1", "2", "3", "4", "5", "6"]


# --- theorems ---

def test_theorems_all_pass():
    result = run("theorems", "paper-example:10", "--seq", "2,3")
    assert result.exit_code == 0
    assert "0 failure(s)" in result.output
    assert "[PASS] T_DIAM" in result.output
    assert "[n/a ] T_BALL_SANDWICH" in result.output


def test_theorems_explicit_grid_structured():
    result = run("theorems", "paper-example:6", "--seq", "4|2,3",
                 "--r-grid", "0,1/sqrt(2),2", "--format", "structured")
    assert result.exit_code == 0
    doc = yaml.safe_load(result.output)
    assert doc["failures"] == 0
    assert len(doc["checks"]) == 8 * 3 + 1
    assert doc["r_grid"][1] == 1 / math.sqrt(2)


def test_theorems_bad_stride_is_usage_error():
    assert run("theorems", "paper-example:4", "--seq", "2,3", "--stride", "0").exit_code == 2


# --- fuzz ---

def test_fuzz_summary_reproducible():
    args = ("fuzz", "--trials", "40", "--seed", "11", "--max-points", "6")
    first, second = run(*args), run(*args)
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.output == second.output
    doc = yaml.safe_load(first.output)
    assert doc["config"]["seed"] == 11
    assert doc["results"]["failures"] == 0


def test_fuzz_rejects_bad_config():
    assert run("fuzz", "--trials", "0").exit_code == 2


def test_fuzz_negative_seed_is_usage_error():
    result = run("fuzz", "--trials", "2", "--seed", "-1")
    assert result.exit_code == 2
    assert "seed must be >= 0" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("flag, bound", [
    ("--max-points", 200), ("--max-cycle", 10_000), ("--max-prefix", 10_000),
])
def test_fuzz_size_above_bound_is_usage_error(flag, bound):
    for value in (bound + 1, 10**12):
        result = run("fuzz", "--trials", "1", flag, str(value))
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback escaped
        assert "Traceback" not in result.output
        assert f"<= {bound}" in result.output


# --- emit ---

def test_emit_round_trips(tmp_path):
    result = run("emit", "paper-example:5")
    assert result.exit_code == 0
    spec = load_space(result.output)
    reference = paper_example_spec(5)
    assert spec.points == reference.points
    assert abs(spec.dist[1, 2] - reference.dist[1, 2]) < 1e-12


def test_emitted_file_loads_through_cli(tmp_path):
    doc = tmp_path / "emitted.space"
    doc.write_text(run("emit", "paper-example:8").output)
    assert run("validate", str(doc)).exit_code == 0


def test_emitted_boolean_like_ids_validate(tmp_path):
    doc = tmp_path / "switches.space"
    doc.write_text('points: ["on", "off", c]\n'
                   "dist:\n- [0, 1, 1]\n- [1, 0, 1]\n- [1, 1, 0]\n"
                   "alpha:\n- [1, 1, 1]\n- [1, 1, 1]\n- [1, 1, 1]\n")
    assert run("validate", str(doc)).exit_code == 0
    emitted = tmp_path / "emitted.space"
    emitted.write_text(run("emit", str(doc)).output)
    result = run("validate", str(emitted))
    assert result.exit_code == 0, result.output
    assert load_space(emitted.read_text()).points == ("on", "off", "c")


def test_string_point_space_end_to_end(tmp_path):
    doc = tmp_path / "named.space"
    doc.write_text(
        "points: [hub, east, west]\n"
        "dist:\n- [0, 1, 1]\n- [1, 0, 2]\n- [1, 2, 0]\n"
        "alpha:\n- [1, 1, 1]\n- [1, 1, 1]\n- [1, 1, 1]\n"
    )
    assert run("validate", str(doc)).exit_code == 0
    result = run("analyze", str(doc), "--seq", "hub|east,west", "--r", "2")
    assert result.exit_code == 0
    # Cycle (east, west): limsup d(x_n, x) is the max of d(east, x), d(west, x),
    # so hub 1, east 2, west 2; the critical degree is their minimum, at hub.
    assert "limsup distances:\n  hub: 1\n  east: 2\n  west: 2\n" in result.output
    assert "critical roughness: 1 (minimizers {hub})" in result.output
    assert "rough limit set (r = 2): {hub, east, west}" in result.output
    assert run("theorems", str(doc), "--seq", "east,west").exit_code == 0


# --- ROUGHMETRIC_TOL ---

D3_OVER_BY_5E7 = """\
points: [a, b, c]
dist:
- [0, 2.0000005, 1]
- [2.0000005, 0, 1]
- [1, 1, 0]
alpha:
- [1, 1, 1]
- [1, 1, 1]
- [1, 1, 1]
"""


@pytest.mark.parametrize("raw, message", [
    ("abc", "ROUGHMETRIC_TOL must be a float, got 'abc'"),
    ("", "ROUGHMETRIC_TOL must be a float, got ''"),
    ("-1", "ROUGHMETRIC_TOL must be finite and >= 0, got -1.0"),
    ("inf", "ROUGHMETRIC_TOL must be finite and >= 0, got inf"),
    ("nan", "ROUGHMETRIC_TOL must be finite and >= 0, got nan"),
])
def test_bad_tolerance_is_usage_error(raw, message, tolerance_env):
    tolerance_env(raw)
    result = run("validate", "paper-example:3")
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output.endswith(f"Error: {message}\n")
    assert spaces.TOLERANCE == 1e-9
    # A real process too: the variable used to be read while the library was imported.
    src = str(Path(roughmetric.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "ROUGHMETRIC_TOL": raw}
    proc = subprocess.run([sys.executable, "-m", "roughmetric.cli", "validate", "paper-example:3"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


@pytest.fixture
def tolerance_env(monkeypatch):
    """Set ROUGHMETRIC_TOL for in-process runs; spaces.TOLERANCE is restored after."""
    monkeypatch.setattr(spaces, "TOLERANCE", spaces.TOLERANCE)
    monkeypatch.delenv("ROUGHMETRIC_TOL", raising=False)
    return lambda raw: monkeypatch.setenv("ROUGHMETRIC_TOL", raw)


def test_tolerance_flips_validate(tmp_path, tolerance_env):
    doc = tmp_path / "over.space"
    doc.write_text(D3_OVER_BY_5E7)
    result = run("validate", str(doc))
    assert result.exit_code == 1
    assert "axiom d3 fails at (a, b, c)" in result.output
    assert spaces.TOLERANCE == 1e-9  # unset: the default is kept
    tolerance_env("1e-6")
    result = run("validate", str(doc))
    assert (result.exit_code, result.output) == (0, "valid controlled metric type space (3 points)\n")
    assert spaces.TOLERANCE == 1e-6


def test_tolerance_flips_rough_limit_set(tolerance_env):
    # Both limsups of 2,3 are 1/sqrt(2), 6.8e-6 above r.
    args = ("limset", "paper-example:4", "--seq", "2,3", "--r", "0.7071")
    assert run(*args).output == "rough limit set (r = 0.7071): {}\n"
    tolerance_env("1e-5")
    assert run(*args).output == "rough limit set (r = 0.7071): {2, 3}\n"
