import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

import roughmetric
from roughmetric import load_space, paper_example_spec
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


def test_validate_reports_violations(tmp_path):
    doc = tmp_path / "broken.space"
    doc.write_text(BROKEN_DOC)
    result = run("validate", str(doc))
    assert result.exit_code == 1
    assert "INVALID" in result.output
    assert "axiom d1 fails at (a, a): 0.5 != 0" in result.output


def test_validate_structured_output():
    result = run("validate", "paper-example:4", "--format", "structured")
    doc = yaml.safe_load(result.output)
    assert doc == {"points": 4, "valid": True, "violations": []}


def test_validate_missing_file_is_usage_error():
    assert run("validate", "no/such/file.space").exit_code == 2


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


def test_analyze_negative_r_is_usage_error():
    assert run("analyze", "paper-example:4", "--seq", "2,3", "--r", "-1").exit_code == 2


# --- limset ---

def test_limset_golden():
    result = run("limset", "paper-example:10", "--seq", "2,3", "--r", "1/sqrt(2)")
    assert result.exit_code == 0
    assert result.output.strip() == "rough limit set (r = 0.707106781187): {2, 3}"


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
