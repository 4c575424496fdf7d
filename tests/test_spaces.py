import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roughmetric import (
    ControlledSpace,
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

import oracles
from oracles import (
    axiom_violations_bruteforce,
    d3_live_rows_floor,
    d3_live_rows_rule,
    d3_witnesses_bruteforce,
    d3_witnesses_tensor,
    paper_example_bruteforce,
)

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


@pytest.mark.parametrize("n", [*range(2, 65), 101, 200, 1000])
def test_paper_example_matches_its_definition_bit_for_bit(n):
    spec = paper_example_spec(n)
    dist, alpha = paper_example_bruteforce(n)
    assert spec.points == tuple(range(1, n + 1))
    assert spec.dist.tobytes() == dist.tobytes()
    assert spec.alpha.tobytes() == alpha.tobytes()


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


def min_plus_tensor(m):
    """The min-plus product through the n^3 table of sums s[x, y, z] = m[x, z] + m[z, y],
    reduced over z along the same contiguous axis as the kernel's blocks."""
    with np.errstate(invalid="ignore"):
        return np.fmin.reduce(m[:, None, :] + m.T[None, :, :], axis=2)


def same_bits(a, b):
    """Entrywise bit equality, up to the sign of a zero: fmin of -0.0 and +0.0
    returns either, so a zero's sign depends on the order of the reduction."""
    return (a + 0.0).view(np.int64) == (b + 0.0).view(np.int64)


@pytest.mark.parametrize("block", ["1", "n", "n^2", "3n^2", "default"])
def test_min_plus_matches_the_n3_form_bit_for_bit(monkeypatch, block):
    rng = np.random.default_rng(26)
    for n in (1, 2, 5, 13, 30):
        size = {"1": 1, "n": n, "n^2": n * n, "3n^2": 3 * n * n, "default": spaces._D3_BLOCK}
        monkeypatch.setattr(spaces, "_D3_BLOCK", size[block])
        garbage = adversarial_garbage(rng, n)  # +-inf products, so some sums are nan
        upper = np.triu(rng.uniform(0.1, 10.0, (n, n)), 1)  # random_space's table
        tables = [(garbage, False), (symmetrized(garbage), True),
                  (SpaceSpec(garbage.points, upper + upper.T, np.ones((n, n))), True)]
        strict = [rows for rows in (np.array([0]), np.array([n - 1]),
                                    np.flatnonzero(rng.random(n) < 0.5)) if 0 < rows.size < n]
        for spec, symmetric in tables:
            with np.errstate(over="ignore", invalid="ignore"):
                m = spec.alpha * spec.dist
            ref = min_plus_tensor(m)
            mt = np.ascontiguousarray(m.T)
            for rows in (np.arange(n), *strict):
                for half in (False, True) if symmetric else (False,):
                    with np.errstate(over="ignore", invalid="ignore"):
                        got = spaces._min_plus(m, mt, rows, half)
                    assert got.shape == (rows.size, n)
                    exact = same_bits(got, ref[rows])
                    if half:  # (x, y) with y < x outside rows may be left at +inf
                        cols = np.arange(n)
                        kept = (cols >= rows[:, None]) | np.isin(cols, rows)
                        assert (exact | np.isposinf(got))[~kept].all()
                        exact = exact[kept]
                    assert exact.all(), (n, block, rows.tolist(), half)


def test_d3_scan_memory_is_quadratic():
    spec = paper_example_spec(200)
    tracemalloc.start()
    try:
        assert validate_axioms(spec).valid
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # a full n^3 float tensor alone is 61 MB


def validate_peak_mb(spec) -> tuple:
    """``validate_axioms(spec)`` and its tracemalloc peak in MB."""
    tracemalloc.start()
    try:
        result = validate_axioms(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


def test_d3_screen_without_live_rows_builds_no_floor():
    # no live row: the screen copies no n x n table and the scan builds no buffers;
    # alpha * d (0.31 MB) is then the one n x n float table validate_axioms holds
    result, peak = validate_peak_mb(paper_example_spec(200))
    assert result.valid and peak < 0.5
    spec = with_entries(paper_example_spec(200), dist=[((0, 2), 1.5)])  # d(1, 3) x 1.5 one way
    result, peak = validate_peak_mb(spec)
    assert [(v.axiom, v.points, v.lhs, v.rhs) for v in result.violations] == \
        [("d2", (1, 3), 1.5, 1.0)]
    assert peak < 0.5


@pytest.fixture(params=[1, 7, 500, spaces._D3_BLOCK])
def d3_block(request, monkeypatch):
    monkeypatch.setattr(spaces, "_D3_BLOCK", request.param)


def d3_matches_bruteforce(spec) -> list:
    """The library's (d3) witnesses, after checking them against the oracle."""
    with np.errstate(over="ignore", invalid="ignore"):
        violations = validate_axioms(spec).violations
    got = [(v.points, v.lhs, v.rhs) for v in violations if v.axiom == "d3"]
    assert got == d3_witnesses_bruteforce(spec)
    return got


def live_rows(spec) -> list:
    with np.errstate(over="ignore", invalid="ignore"):
        return spaces._d3_live_rows(spec.dist, spec.alpha * spec.dist).tolist()


def with_entries(spec, dist=(), alpha=()):
    """``spec`` with the given ((i, j), value) entries of dist and alpha replaced."""
    d, a = spec.dist.copy(), spec.alpha.copy()
    for (i, j), v in dist:
        d[i, j] = v
    for (i, j), v in alpha:
        a[i, j] = v
    return SpaceSpec(spec.points, d, a)


def test_d3_screen_scans_only_the_live_row(d3_block):
    paper = paper_example_spec(40)
    assert live_rows(paper) == []
    spec = with_entries(paper, dist=[((2, 4), 2.5)])  # d(3, 5): 1 -> 2.5, every other z gives ~2
    assert live_rows(spec) == [2]
    got = d3_matches_bruteforce(spec)
    assert len(got) == 38 and all(points[:2] == (3, 5) for points, _, _ in got)


@pytest.mark.parametrize("entries", [
    {"alpha": [((2, 4), 0.5)]},  # alpha < 1 on one pair
    {"dist": [((3, 3), 1.0)], "alpha": [((3, 3), -5.0)]},  # negative diagonal product
])
def test_d3_screen_keeps_witnesses_through_an_endpoint(d3_block, entries):
    spec = with_entries(paper_example_spec(12), **entries)
    got = d3_matches_bruteforce(spec)
    assert got and all(points[2] in points[:2] for points, _, _ in got)


def test_d3_screen_keeps_degenerate_term_when_bound_is_nan(d3_block):
    # Row 0 has alpha*d = +inf off the diagonal and column 0 holds a -inf, so
    # low[0] + min low is nan; the z = x term -1 + -1 still breaks (d3) at (0, 0).
    n = 5
    dist = np.ones((n, n)) - np.eye(n)
    alpha = np.ones((n, n))
    dist[0, 1:] = dist[1:, 0] = 1e300
    alpha[0, 1:] = 1e300
    alpha[1, 0] = -1e300
    dist[0, 0], alpha[0, 0] = 1.0, -1.0
    spec = SpaceSpec(tuple(range(n)), dist, alpha)
    got = d3_matches_bruteforce(spec)
    assert ((0, 0, 0), 1.0, -2.0) in got
    assert 0 in live_rows(spec)


@pytest.mark.parametrize("tol", [spaces.TOLERANCE, 0.0])
def test_d3_screen_on_the_tolerance_boundary(d3_block, monkeypatch, tol):
    monkeypatch.setattr(spaces, "TOLERANCE", tol)
    monkeypatch.setattr(oracles, "TOLERANCE", tol)
    # every alpha = 1 pair of the paper example ties through z = x exactly
    paper = paper_example_spec(20)
    assert live_rows(paper) == [] and d3_matches_bruteforce(paper) == []
    # d(0, 1) against 2 = d(0, 2) + d(2, 1): on the boundary, then just past it
    on = SpaceSpec((0, 1, 2), [[0, 2 + tol, 1], [2 + tol, 0, 1], [1, 1, 0]], np.ones((3, 3)))
    assert live_rows(on) == [] and d3_matches_bruteforce(on) == []
    past = with_entries(on, dist=[((0, 1), np.nextafter(2 + tol, 3))])
    assert live_rows(past) == [0]
    assert [points for points, _, _ in d3_matches_bruteforce(past)] == [(0, 1, 2)]


def symmetric_tables(spec) -> tuple[bool, bool]:
    """Whether dist and alpha * dist equal their transposes exactly."""
    with np.errstate(over="ignore"):
        m = spec.alpha * spec.dist
    return bool((spec.dist == spec.dist.T).all()), bool((m == m.T).all())


def test_d3_half_scan_puts_mirrored_witnesses_in_order(d3_block):
    # d(3, 8) and d(5, 6) raised in both directions: rows 5 and 6 fall between
    # row 3 and the mirrors of its witnesses in row 8
    spec = with_entries(paper_example_spec(40),
                        dist=[((2, 7), 2.5), ((7, 2), 2.5), ((4, 5), 2.5), ((5, 4), 2.5)])
    assert symmetric_tables(spec) == (True, True)
    got = d3_matches_bruteforce(spec)
    assert [points[:2] for points, _, _ in got] == (
        [(3, 8)] * 38 + [(5, 6)] * 38 + [(6, 5)] * 38 + [(8, 3)] * 38)


@pytest.mark.parametrize("entries, symmetric", [
    ({"alpha": [((7, 3), 0.5)]}, (True, False)),  # symmetric d, asymmetric alpha
    ({"dist": [((7, 3), 4.0)], "alpha": [((7, 3), 0.25)]}, (False, True)),  # symmetric m only
])
def test_d3_full_scan_when_a_table_is_asymmetric(d3_block, entries, symmetric):
    spec = with_entries(paper_example_spec(12), **entries)
    assert symmetric_tables(spec) == symmetric
    got = d3_matches_bruteforce(spec)
    # witnesses below the diagonal whose mirrors are no witnesses
    assert any(points[:2] == (8, 4) for points, _, _ in got)
    assert not any(points[:2] == (4, 8) for points, _, _ in got)


def test_d3_half_scan_when_alpha_times_dist_overflows(d3_block):
    # m = +inf on the pair (2, 9) and -inf on the pair (4, 6), in both directions
    pairs = [(1, 8), (8, 1), (3, 5), (5, 3)]
    spec = with_entries(paper_example_spec(12), dist=[(ij, 1e300) for ij in pairs],
                        alpha=zip(pairs, [1e300, 1e300, -1e300, -1e300]))
    assert symmetric_tables(spec) == (True, True)
    got = d3_matches_bruteforce(spec)
    assert any(points[:2] == (2, 9) for points, _, _ in got)
    assert any(rhs == -math.inf for _, _, rhs in got)


def test_d3_half_scan_does_not_double_diagonal_witnesses(d3_block):
    # d(4, 4) = 5 under a -1 control: (4, 4, z) breaks (d3) for every z, once
    spec = with_entries(paper_example_spec(12), dist=[((3, 3), 5.0)], alpha=[((3, 3), -1.0)])
    assert symmetric_tables(spec) == (True, True)
    got = d3_matches_bruteforce(spec)
    diagonal = [points for points, _, _ in got if points[:2] == (4, 4)]
    assert diagonal == [(4, 4, z) for z in range(1, 13)]


def unit_simplex(n):
    """Every distance 1, every control 1: each detour through a third point sums to 2."""
    return SpaceSpec(tuple(range(n)), np.ones((n, n)) - np.eye(n), np.ones((n, n)))


def test_d3_pair_minimum_skips_nan_sums(d3_block):
    # pair (0, 1): d = 3, nan through z = 2 (+inf + -inf), 2 through z = 3, 6 through z = 4
    spec = with_entries(unit_simplex(5), dist=[((0, 1), 3.0), ((0, 2), 1e300), ((2, 1), 1e300)],
                        alpha=[((0, 2), 1e300), ((2, 1), -1e300), ((0, 4), 5.0)])
    got = d3_matches_bruteforce(spec)
    assert [points for points, _, _ in got if points[:2] == (0, 1)] == [(0, 1, 3)]


def test_d3_pair_with_only_nan_sums_has_no_witness(d3_block):
    # m(0, z) = +inf for z != 1 and m(z, 1) = -inf for z != 1, m(1, 1) = +inf:
    # every sum for the pair (0, 1) is nan
    n = 5
    dist, alpha = np.ones((n, n)) - np.eye(n), np.ones((n, n))
    dist[0, :] = dist[:, 1] = 1e300
    alpha[0, :] = 1e300
    alpha[:, 1] = -1e300
    alpha[1, 1] = 1e300
    spec = SpaceSpec(tuple(range(n)), dist, alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        m = alpha * dist
        assert np.isnan(m[0, :] + m[:, 1]).all()
    got = d3_matches_bruteforce(spec)
    assert got and not any(points[:2] == (0, 1) for points, _, _ in got)


@pytest.mark.parametrize("entries, symmetric", [
    ({}, (True, True)),
    ({"alpha": [((0, 1), -2.0)]}, (True, False)),
])
def test_d3_every_pair_flagged(d3_block, entries, symmetric):
    # controls of -1 on unit distances, diagonal included: every triple breaks (d3)
    n = 9
    spec = with_entries(SpaceSpec(tuple(range(n)), np.ones((n, n)), -np.ones((n, n))), **entries)
    assert symmetric_tables(spec) == symmetric
    got = d3_matches_bruteforce(spec)
    assert [points for points, _, _ in got] == [
        (x, y, z) for x in range(n) for y in range(n) for z in range(n)]


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("tol", [spaces.TOLERANCE, 0.0])
def test_d3_pair_minimum_on_the_tolerance_boundary(d3_block, monkeypatch, tol, symmetric):
    monkeypatch.setattr(spaces, "TOLERANCE", tol)
    monkeypatch.setattr(oracles, "TOLERANCE", tol)
    # (0, 1) sits on its smallest sum 2 plus the tolerance, (2, 3) just past it;
    # d(3, 4) = 3 beats 2 through z = 0, and 3 - 5e-10 through z = 1 only when tol = 0
    pairs = [((0, 1), 2 + tol), ((2, 3), np.nextafter(2 + tol, 3)), ((3, 4), 3.0),
             ((3, 1), 2 - 5e-10)]
    if symmetric:
        pairs += [((j, i), v) for (i, j), v in pairs]
    spec = with_entries(unit_simplex(5), dist=pairs)
    assert symmetric_tables(spec) == (symmetric, symmetric)
    got = [points for points, _, _ in d3_matches_bruteforce(spec)]
    assert not any(points[:2] in ((0, 1), (1, 0)) for points in got)
    assert (2, 3, 0) in got and (3, 4, 0) in got
    assert ((3, 4, 1) in got) == (tol == 0)


def test_d3_scan_memory_is_quadratic_when_every_row_is_live():
    # squared distances on a line with alpha = 2: a valid b-metric on which
    # the screen proves no row clean, so the scan runs in full
    n = 200
    line = np.arange(n, dtype=float)
    spec = SpaceSpec(tuple(range(n)), (line[:, None] - line) ** 2, np.full((n, n), 2.0))
    assert len(live_rows(spec)) == n
    tracemalloc.start()
    try:
        assert validate_axioms(spec).valid
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_d3_half_scan_live_row_with_clean_partner_below(d3_block):
    # a star: point 0 at distance 1 from every other point, the others 2 apart,
    # so the screen proves every row clean; d(10, 20) = 2.5 > 1 + 1 makes rows
    # 10 and 20 live, and their pairs with the clean row 0 are never scanned
    n = 30
    dist = np.full((n, n), 2.0)
    dist[0, :] = dist[:, 0] = 1.0
    np.fill_diagonal(dist, 0.0)
    star = SpaceSpec(tuple(range(n)), dist, np.ones((n, n)))
    assert live_rows(star) == [] and d3_matches_bruteforce(star) == []
    spec = with_entries(star, dist=[((10, 20), 2.5), ((20, 10), 2.5)])
    assert symmetric_tables(spec) == (True, True)
    assert live_rows(spec) == [10, 20]
    assert d3_matches_bruteforce(spec) == [((10, 20, 0), 2.5, 2.0), ((20, 10, 0), 2.5, 2.0)]


def screen(spec) -> list:
    """The (d3) screen's live rows, checked against the plain-loop form of its rule
    and against the tighter per-pair floor, whose rows it must keep."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = spec.alpha * spec.dist
        live = spaces._d3_live_rows(spec.dist, m)
        floor = d3_live_rows_floor(spec.dist, m).tolist()
    assert live.dtype == np.intp and live.tolist() == d3_live_rows_rule(spec.dist, m)
    assert set(floor) <= set(live.tolist())
    return live.tolist()


def corrupted_table(rng):
    """A parity or squared-Euclidean table of 26 to 59 points with up to three
    corruptions, some of them mirrored, each of a kind the certificate must see through."""
    n = int(rng.integers(26, 60))
    if rng.random() < 0.5:
        paper = paper_example_spec(n)
        d, a = paper.dist.copy(), paper.alpha.copy()
    else:
        xy = rng.uniform(0.0, 1.0, (n, 2))
        d, a = ((xy[:, None] - xy) ** 2).sum(axis=-1), np.full((n, n), 2.0)
    for _ in range(int(rng.integers(0, 4))):
        i, j = rng.choice(n, size=2, replace=False)
        pairs = [(i, j), (j, i)] if rng.random() < 0.5 else [(i, j)]
        kind = int(rng.integers(8))
        for x, y in pairs:
            if kind == 0:  # a scaled distance
                d[x, y] *= rng.uniform(0.5, 3.0)
            elif kind == 1:  # a control just below 1
                a[x, y] = np.nextafter(1.0, 0.0)
            elif kind == 2:  # a negative control
                a[x, y] = -rng.uniform(0.5, 3.0)
            elif kind == 3:  # a nonzero distance on the diagonal
                d[x, x] = rng.uniform(0.1, 2.0)
            elif kind == 4:  # -0.0 on the diagonal
                d[x, x] = -0.0
            elif kind == 5:  # alpha * dist overflows to +-inf
                d[x, y], a[x, y] = 1e300, rng.choice([1e300, -1e300])
            elif kind == 6:  # a zero off the diagonal
                d[x, y] = 0.0
            else:  # a control of 0, -1 or 5 on the diagonal
                a[x, x] = rng.choice([0.0, -1.0, 5.0])
    return SpaceSpec(tuple(range(n)), d, a)


@pytest.mark.parametrize("tol", [spaces.TOLERANCE, 0.0])
def test_d3_certificate_keeps_the_live_set(d3_block, monkeypatch, tol):
    monkeypatch.setattr(spaces, "TOLERANCE", tol)
    monkeypatch.setattr(oracles, "TOLERANCE", tol)
    rng = np.random.default_rng([spaces._D3_BLOCK, tol == 0])
    cleared = 0
    for _ in range(375):  # 3,000 tables over the eight parameter sets
        spec = corrupted_table(rng)
        live = screen(spec)
        cleared += not live
        with np.errstate(over="ignore", invalid="ignore"):
            violations = validate_axioms(spec).violations
        got = [(v.points, v.lhs, v.rhs) for v in violations if v.axiom == "d3"]
        assert got == d3_witnesses_tensor(spec)
        assert live or not got
    assert cleared >= 10


@pytest.mark.parametrize("tol", [spaces.TOLERANCE, 0.0])
def test_d3_certificate_boundaries(monkeypatch, tol):
    monkeypatch.setattr(spaces, "TOLERANCE", tol)
    monkeypatch.setattr(oracles, "TOLERANCE", tol)
    # unit simplex: every off-diagonal product is 1, so each row's bound is fl(2 + tol)
    bound = 2.0 + tol
    on = with_entries(unit_simplex(6), dist=[((0, 1), bound)])
    assert screen(on) == []
    past = with_entries(on, dist=[((0, 1), np.nextafter(bound, 3))])
    assert screen(past) == [0]
    # one short pair: the least product 0.4 lowers every bound, and rows 0 and 1
    # hold d = 1 against 0.4 + 0.4
    short = with_entries(unit_simplex(6), dist=[((0, 1), 0.4), ((1, 0), 0.4)])
    assert screen(short) == [0, 1]
    # alpha(1, 2) just below 1: m < d on that pair
    below = with_entries(unit_simplex(6), alpha=[((0, 1), np.nextafter(1.0, 0.0))])
    assert screen(below) == [0]
    # d(x, x) = 1 under an alpha diagonal of 0: m's diagonal is zero, but m < d
    zeroed = with_entries(unit_simplex(6), dist=[((2, 2), 1.0)], alpha=[((2, 2), 0.0)])
    assert screen(zeroed) == [2]
    # m(2, 2) = -1: every row's sum through z = 2 drops below its distance to 2
    negative = with_entries(unit_simplex(6), dist=[((2, 2), 1.0)], alpha=[((2, 2), -1.0)])
    assert screen(negative) == [0, 1, 2, 3, 4, 5]
    assert ((0, 2, 2), 1.0, 0.0) in d3_witnesses_bruteforce(negative)
    # d(x, x) = 0.5 under a control of 1: a positive diagonal with m >= d holds no witness
    positive = with_entries(unit_simplex(6), dist=[((2, 2), 0.5)])
    assert screen(positive) == []
    # -0.0 on the diagonal of d, or from an alpha diagonal of -1
    signed = with_entries(paper_example_spec(30), dist=[((3, 3), -0.0)], alpha=[((5, 5), -1.0)])
    assert screen(signed) == []
    # +inf products only off the diagonal: every sum is +inf
    huge = SpaceSpec((0, 1, 2), np.full((3, 3), 1e300) * (1 - np.eye(3)), np.full((3, 3), 1e300))
    assert screen(huge) == []
    # one +inf product: d's max is past the bound
    inf = with_entries(unit_simplex(6), dist=[((0, 1), 1e300)], alpha=[((0, 1), 1e300)])
    assert screen(inf) == [0]
    # one -inf product: every bound is -inf
    neg = with_entries(unit_simplex(6), dist=[((0, 1), 1e300)], alpha=[((0, 1), -1e300)])
    assert screen(neg) == [0, 1, 2, 3, 4, 5]


def test_d3_screen_adds_the_least_product_before_the_tolerance(d3_block, monkeypatch):
    # low[0] = 1 and min low = 2^-53: (1 + 2^-53) + 2^-53 rounds to 1, below d(0, 1),
    # while 1 + (2^-53 + 2^-53) = 1 + 2^-52 would clear row 0 and miss (0, 1, 2)
    tiny = 2.0**-53
    monkeypatch.setattr(spaces, "TOLERANCE", tiny)
    monkeypatch.setattr(oracles, "TOLERANCE", tiny)
    far = 1 + 2 * tiny
    spec = SpaceSpec((0, 1, 2), [[0, far, 1], [far, 0, tiny], [1, tiny, 0]], np.ones((3, 3)))
    assert screen(spec) == [0, 1, 2]
    assert d3_matches_bruteforce(spec) == [((0, 1, 2), far, 1.0), ((1, 0, 2), far, 1.0)]


def test_d3_screen_restores_its_scratch_table():
    spec = with_entries(paper_example_spec(30), dist=[((3, 3), -0.0), ((4, 4), 1e300),
                                                      ((2, 9), 2.5)],
                        alpha=[((4, 4), 1e300)])
    with np.errstate(over="ignore"):
        m = spec.alpha * spec.dist
    assert np.signbit(m[3, 3]) and m[4, 4] == np.inf
    before = m.tobytes()
    assert spaces._d3_live_rows(spec.dist, m).tolist() == screen(spec) == [2, 4]
    assert m.tobytes() == before


def symmetrized(spec):
    """``spec`` with dist and alpha mirrored from their upper triangles."""
    d, a = (np.triu(t) + np.triu(t, 1).T for t in (spec.dist, spec.alpha))
    return SpaceSpec(spec.points, d, a)


@pytest.mark.parametrize("block", [1, 7, 500, spaces._D3_BLOCK])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), planted=st.booleans(),
       symmetric=st.booleans())
def test_d3_matches_bruteforce_on_adversarial_tables(block, seed, n, planted, symmetric):
    rng = np.random.default_rng(seed)
    spec = adversarial_garbage(rng, n)
    if planted:  # a few garbage entries in a valid table, so the screen proves some rows clean
        paper, pick = paper_example_spec(n), rng.random((n, n)) < 0.01
        spec = SpaceSpec(spec.points, np.where(pick, spec.dist, paper.dist),
                         np.where(pick, spec.alpha, paper.alpha))
    if symmetric:  # the half scan, with +-inf products
        spec = symmetrized(spec)
        assert symmetric_tables(spec) == (True, True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spaces, "_D3_BLOCK", block)
        d3_matches_bruteforce(spec)


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
    with pytest.raises(ShapeError, match=re.escape("alpha must be 2x2, got (2, 1)")):
        SpaceSpec(("a", "b"), np.zeros((2, 2)), np.ones((2, 1)))
    with pytest.raises(ShapeError):
        SpaceSpec(("a", "b"), [[0, 1], [1]], np.ones((2, 2)))
    with pytest.raises(ShapeError):
        SpaceSpec(("a", "b"), [[0, -1], [-1, 0]], np.ones((2, 2)))
    with pytest.raises(ShapeError, match="non-negative reals"):
        SpaceSpec(("a", "b"), [[0, math.inf], [math.inf, 0]], np.ones((2, 2)))
    with pytest.raises(ShapeError):
        SpaceSpec(("a", "b"), np.zeros((2, 2)), [[1, math.inf], [1, 1]])


def test_spec_equals_only_specs():
    spec = paper_example_spec(3)
    assert spec == paper_example_spec(3)
    assert spec != object()
    assert spec.__eq__(object()) is NotImplemented  # not False: the other operand may answer


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


def test_space_reads_its_constants_off_its_tables():
    spec = SpaceSpec(("a", "b", "c"),
                     [[0, 0.5, 1], [0.5, 0, 1], [1, 1, 0]],
                     [[1, 3, 1], [3, 1, 1], [1, 1, 1]])
    space = ControlledSpace(spec)
    assert (space.sup_alpha, space.min_positive_dist) == (3.0, 0.5)
    assert (space.points, space.dist, space.alpha, space.n) == \
        (spec.points, spec.dist, spec.alpha, 3)


def test_build_space_single_point():
    space = build_space(SpaceSpec(("a",), [[0.0]], [[1.0]]))
    assert space.min_positive_dist == math.inf


def test_build_space_rejects_invalid():
    spec = SpaceSpec(("a", "b"), [[0.5, 1], [1, 0]], np.ones((2, 2)))
    with pytest.raises(InvalidSpaceError) as err:
        build_space(spec)
    assert not err.value.result.valid
    assert err.value.result.violations[0].axiom == "d1"


def test_space_is_valid_by_construction():
    # every spec the validator rejects, and no other, fails construction with its witnesses
    rng = np.random.default_rng(22)
    specs = [adversarial_garbage(rng, 7) for _ in range(5)] + \
        [corrupted_table(rng) for _ in range(40)] + \
        [unit_triangle(), paper_example_spec(30),
         SpaceSpec(("a", "b", "c"), [[0, 10, 1], [10, 0, 1], [1, 1, 0]], np.ones((3, 3)))]
    rejected = 0
    for spec in specs:
        with np.errstate(over="ignore", invalid="ignore"):
            result = validate_axioms(spec)
            try:
                ControlledSpace(spec)
            except InvalidSpaceError as err:
                assert err.result == result and not result.valid
                rejected += 1
            else:
                assert result.valid
    assert 5 < rejected < len(specs)


def test_revalidation_is_idempotent():
    assert validate_axioms(PAPER6.spec).valid


# --- balls ---

def test_closed_ball_golden():
    assert ball(PAPER6, 2, 0.8, "closed").members == {1, 2, 3, 5}


def test_ball_radius_zero():
    assert ball(PAPER6, 3, 0.0, "open").members == set()
    assert ball(PAPER6, 3, 0.0, "closed").members == {3}


def test_ball_boundaries_take_the_tolerance(monkeypatch):
    # from point 1 of PAPER6, points 3 and 5 lie at distance 1 and the rest nearer
    assert ball(PAPER6, 1, 1 - 5e-10, "closed").members == {1, 2, 3, 4, 5, 6}
    assert ball(PAPER6, 1, 1 + 5e-10, "open").members == {1, 2, 4, 6}
    monkeypatch.setattr(spaces, "TOLERANCE", 0.0)
    assert ball(PAPER6, 1, 1.0, "closed").members == {1, 2, 3, 4, 5, 6}
    assert ball(PAPER6, 1, 1.0, "open").members == {1, 2, 4, 6}
    assert ball(PAPER6, 1, np.nextafter(1.0, 2.0), "open").members == {1, 2, 3, 4, 5, 6}


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

