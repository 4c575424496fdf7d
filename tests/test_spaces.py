import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from roughmetric import (
    InvalidSpaceError,
    ShapeError,
    SpaceSpec,
    ball,
    build_space,
    diameter,
    paper_example_spec,
    restrict,
    validate_axioms,
)
from roughmetric import spaces
from roughmetric.spaces import TOLERANCE_ENV_VAR, _read_tolerance

from oracles import axiom_violations_bruteforce, d3_witnesses_bruteforce

SQRT2 = math.sqrt(2)

PAPER6 = build_space(paper_example_spec(6))


def unit_triangle():
    return SpaceSpec(points=("a", "b", "c"),
                     dist=[[0, 1, 1], [1, 0, 1], [1, 1, 0]],
                     alpha=np.ones((3, 3)))


# --- paper example construction ---

def test_paper_example_table_values():
    spec = paper_example_spec(5)
    idx = {p: i for i, p in enumerate(spec.points)}

    def d(x, y):
        return spec.dist[idx[x], idx[y]]

    def a(x, y):
        return spec.alpha[idx[x], idx[y]]

    assert d(2, 3) == 1 / SQRT2
    assert d(3, 2) == 1 / SQRT2
    assert d(2, 4) == 1.0  # both even, unequal
    assert d(1, 3) == 1.0  # both odd, unequal
    assert d(4, 3) == 0.5
    assert a(4, 3) == 2.0
    assert a(3, 4) == 2.0
    assert a(2, 2) == 1.0
    assert all(d(x, x) == 0 for x in spec.points)


def test_paper_example_rejects_small_n():
    with pytest.raises(ValueError):
        paper_example_spec(1)


@pytest.mark.parametrize("n", [2, 3, 7, 10])
def test_paper_example_is_valid(n):
    assert validate_axioms(paper_example_spec(n)).valid


# --- axiom validation ---

def test_single_point_space_is_valid():
    assert validate_axioms(SpaceSpec(("a",), [[0.0]], [[1.0]])).valid


def test_nonzero_diagonal_is_d1_violation():
    spec = SpaceSpec(("a", "b"), [[0.5, 1], [1, 0]], [[1, 1], [1, 1]])
    result = validate_axioms(spec)
    assert not result.valid
    v = [v for v in result.violations if v.axiom == "d1"][0]
    assert v.points == ("a", "a")
    assert v.lhs == 0.5 and v.rhs == 0.0


def test_offdiagonal_zero_is_d1_violation():
    spec = SpaceSpec(("a", "b"), [[0, 0], [0, 0]], np.ones((2, 2)))
    result = validate_axioms(spec)
    assert any(v.axiom == "d1" and v.points == ("a", "b") for v in result.violations)


def test_asymmetry_is_d2_violation():
    spec = SpaceSpec(("a", "b"), [[0, 1], [2, 0]], np.ones((2, 2)))
    result = validate_axioms(spec)
    v = [v for v in result.violations if v.axiom == "d2"][0]
    assert (v.lhs, v.rhs) == (1.0, 2.0)


def test_alpha_below_one_is_violation():
    spec = SpaceSpec(("a", "b"), [[0, 1], [1, 0]], [[1, 0.5], [1, 1]])
    result = validate_axioms(spec)
    alpha = [v for v in result.violations if v.axiom == "alpha"]
    assert len(alpha) == 1
    assert alpha[0].points == ("a", "b")
    assert (alpha[0].lhs, alpha[0].rhs) == (0.5, 1.0)
    # the low control value also breaks the triangle axiom through z = b
    assert any(v.axiom == "d3" for v in result.violations)


def test_triangle_violation_witness():
    # d(a,b)=10 cannot be reached through c when every control value is 1
    spec = SpaceSpec(("a", "b", "c"),
                     [[0, 10, 1], [10, 0, 1], [1, 1, 0]],
                     np.ones((3, 3)))
    result = validate_axioms(spec)
    d3 = [v for v in result.violations if v.axiom == "d3"]
    assert {v.points for v in d3} == {("a", "b", "c"), ("b", "a", "c")}
    assert all(v.lhs == 10.0 and v.rhs == 2.0 for v in d3)


@pytest.mark.parametrize("seed", range(6))
def test_validator_agrees_with_bruteforce_on_garbage(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    spec = SpaceSpec(
        points=tuple(range(n)),
        dist=rng.uniform(0, 2, (n, n)) * (rng.random((n, n)) < 0.8),
        alpha=rng.uniform(0.5, 3, (n, n)),
    )
    got = {(v.axiom, *v.points) for v in validate_axioms(spec).violations}
    assert got == axiom_violations_bruteforce(spec)


def adversarial_garbage(rng, n):
    """Random tables with zeros, huge distances and zero or huge negative controls.

    The controls make alpha*dist overflow to +-inf, so some (d3) sums are NaN.
    """
    dist = rng.uniform(0, 2, (n, n)) * (rng.random((n, n)) < 0.8)
    dist[rng.random((n, n)) < 0.05] = 1e300
    alpha = rng.uniform(0.5, 3, (n, n))
    alpha[rng.random((n, n)) < 0.05] = 0.0
    alpha[rng.random((n, n)) < 0.05] = -1e300
    return SpaceSpec(points=tuple(range(n)), dist=dist, alpha=alpha)


@pytest.mark.parametrize("block", [1, 7, 500, spaces._D3_BLOCK])
def test_d3_blocked_scan_matches_bruteforce_witnesses(monkeypatch, block):
    # n = 47 leaves a partial last block at the default size (7 rows of 47^2)
    monkeypatch.setattr(spaces, "_D3_BLOCK", block)
    rng = np.random.default_rng(2024)
    specs = [adversarial_garbage(rng, n) for n in range(1, 13) for _ in range(3)]
    specs.append(adversarial_garbage(rng, 47))
    # d(0, 1) against 2 = d(0, 2) + d(2, 1): inside, on and outside the tolerance
    for over in (5e-10, spaces.TOLERANCE, 2e-9):
        dist = [[0, 2 + over, 1], [2 + over, 0, 1], [1, 1, 0]]
        specs.append(SpaceSpec((0, 1, 2), dist, np.ones((3, 3))))
    for spec in specs:
        with np.errstate(over="ignore", invalid="ignore"):
            violations = validate_axioms(spec).violations
        got = [(v.points, v.lhs, v.rhs) for v in violations if v.axiom == "d3"]
        assert got == d3_witnesses_bruteforce(spec)


def test_d3_scan_memory_is_quadratic():
    spec = paper_example_spec(200)
    tracemalloc.start()
    try:
        assert validate_axioms(spec).valid
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # a full n^3 float tensor alone is 61 MB


def test_validator_agrees_with_bruteforce_on_paper_example():
    spec = paper_example_spec(8)
    assert axiom_violations_bruteforce(spec) == set()
    assert validate_axioms(spec).valid


# --- spec structure ---

def test_spec_rejects_bad_structure():
    with pytest.raises(ShapeError):
        SpaceSpec((), np.zeros((0, 0)), np.zeros((0, 0)))
    with pytest.raises(ShapeError):
        SpaceSpec(("a", "a"), np.zeros((2, 2)), np.ones((2, 2)))
    with pytest.raises(ShapeError):
        SpaceSpec(("a", "b"), np.zeros((2, 3)), np.ones((2, 2)))
    with pytest.raises(ShapeError):
        SpaceSpec(("a", "b"), [[0, 1], [1]], np.ones((2, 2)))
    with pytest.raises(ShapeError):
        SpaceSpec(("a", "b"), [[0, -1], [-1, 0]], np.ones((2, 2)))
    with pytest.raises(ShapeError, match="non-negative reals"):
        SpaceSpec(("a", "b"), [[0, math.inf], [math.inf, 0]], np.ones((2, 2)))
    with pytest.raises(ShapeError):
        SpaceSpec(("a", "b"), np.zeros((2, 2)), [[1, math.inf], [1, 1]])


def test_tables_are_immutable():
    space = build_space(unit_triangle())
    with pytest.raises(ValueError):
        space.dist[0, 1] = 5.0


# --- build_space ---

def test_build_space_caches_constants():
    assert build_space(paper_example_spec(4)).sup_alpha == 2.0
    assert build_space(paper_example_spec(9)).sup_alpha == math.sqrt(8)
    assert build_space(unit_triangle()).sup_alpha == 1.0
    assert PAPER6.min_positive_dist == 1 / math.sqrt(6)


def test_build_space_single_point():
    space = build_space(SpaceSpec(("a",), [[0.0]], [[1.0]]))
    assert space.min_positive_dist == math.inf


def test_build_space_rejects_invalid():
    spec = SpaceSpec(("a", "b"), [[0.5, 1], [1, 0]], np.ones((2, 2)))
    with pytest.raises(InvalidSpaceError) as err:
        build_space(spec)
    assert not err.value.result.valid
    assert err.value.result.violations[0].axiom == "d1"


def test_revalidation_is_idempotent():
    assert validate_axioms(PAPER6.spec).valid


# --- balls ---

def test_closed_ball_golden():
    assert ball(PAPER6, 2, 0.8, "closed").members == {1, 2, 3, 5}


def test_ball_radius_zero():
    assert ball(PAPER6, 3, 0.0, "open").members == set()
    assert ball(PAPER6, 3, 0.0, "closed").members == {3}


def test_ball_errors():
    with pytest.raises(ValueError):
        ball(PAPER6, 99, 1.0, "open")
    with pytest.raises(ValueError):
        ball(PAPER6, 2, -0.1, "open")
    with pytest.raises(ValueError):
        ball(PAPER6, 2, 1.0, "halfopen")


@given(r1=st.floats(0, 3), r2=st.floats(0, 3), center=st.sampled_from(PAPER6.points))
def test_ball_monotonicity(r1, r2, center):
    lo, hi = min(r1, r2), max(r1, r2)
    assert ball(PAPER6, center, lo, "open").members <= ball(PAPER6, center, hi, "open").members
    assert ball(PAPER6, center, lo, "closed").members <= ball(PAPER6, center, hi, "closed").members
    assert ball(PAPER6, center, hi, "open").members <= ball(PAPER6, center, hi, "closed").members


# --- diameter ---

def test_diameter_golden(paper4):
    assert diameter(paper4, {2, 3}) == 1 / SQRT2
    assert diameter(PAPER6, {2, 4, 6}) == 1.0
    assert diameter(paper4, {3}) == 0.0
    assert diameter(paper4, set()) == 0.0
    assert diameter(paper4, [3, 2]) == diameter(paper4, [2, 3])


def test_diameter_unknown_point(paper4):
    with pytest.raises(ValueError):
        diameter(paper4, {2, 77})


@given(sub=st.sets(st.sampled_from(PAPER6.points)),
       extra=st.sampled_from(PAPER6.points))
def test_diameter_monotone_under_inclusion(sub, extra):
    assert diameter(PAPER6, sub) <= diameter(PAPER6, sub | {extra})


def test_diameter_zero_iff_small(paper4):
    for sub in ({1}, {2}, set()):
        assert diameter(paper4, sub) == 0.0
    assert diameter(paper4, {1, 2}) > 0.0


# --- restrict ---

def test_restrict_matches_fresh_build(paper10):
    assert restrict(paper10, {1, 2, 3, 4, 5}).spec == paper_example_spec(5)


def test_restrict_singleton(paper10):
    space = restrict(paper10, {7})
    assert space.points == (7,)
    assert space.sup_alpha == 1.0  # control diagonal
    assert space.min_positive_dist == math.inf


def test_restrict_recomputes_sup_alpha(paper10):
    odds = restrict(paper10, {1, 3, 5})
    assert odds.sup_alpha == 1.0


def test_restrict_errors(paper10):
    with pytest.raises(ValueError):
        restrict(paper10, set())
    with pytest.raises(ValueError):
        restrict(paper10, {1, 42})


@given(sub=st.sets(st.sampled_from(PAPER6.points), min_size=1))
def test_restrict_always_validates(sub):
    space = restrict(PAPER6, sub)
    assert validate_axioms(space.spec).valid
    assert set(space.points) == sub


# --- tolerance configuration ---

def test_tolerance_env_parsing(monkeypatch):
    monkeypatch.delenv(TOLERANCE_ENV_VAR, raising=False)
    assert _read_tolerance() == 1e-9
    monkeypatch.setenv(TOLERANCE_ENV_VAR, "1e-6")
    assert _read_tolerance() == 1e-6
    monkeypatch.setenv(TOLERANCE_ENV_VAR, "banana")
    with pytest.raises(ValueError):
        _read_tolerance()
    monkeypatch.setenv(TOLERANCE_ENV_VAR, "-1")
    with pytest.raises(ValueError):
        _read_tolerance()
