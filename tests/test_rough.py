import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from roughmetric import (
    ControlledSpace,
    EpSequence,
    InvalidSpaceError,
    SpaceSpec,
    boundedness,
    build_space,
    cluster_points,
    critical_roughness,
    derived_set,
    diameter,
    is_cauchy,
    is_convergent,
    is_rough_limit,
    limsup_distance,
    paper_example_spec,
    rough_limit_set,
)
from roughmetric import spaces
from roughmetric.theorems import check_derived_set, random_sequence, random_space

from oracles import cluster_points_direct, rough_limit_direct

SQRT2 = math.sqrt(2)

PAPER6 = build_space(paper_example_spec(6))

points6 = st.sampled_from(PAPER6.points)
sequences6 = st.builds(
    EpSequence,
    prefix=st.lists(points6, max_size=3).map(tuple),
    cycle=st.lists(points6, min_size=1, max_size=4).map(tuple),
)


# --- rough limit membership ---

def test_is_rough_limit_golden(paper4, xi):
    assert is_rough_limit(xi, paper4, 2, 1 / SQRT2)
    assert not is_rough_limit(xi, paper4, 4, 1 / SQRT2)
    assert is_rough_limit(EpSequence(cycle=(3,)), paper4, 3, 0.0)


def test_is_rough_limit_errors(paper4, xi):
    with pytest.raises(ValueError):
        is_rough_limit(xi, paper4, 2, -0.5)
    with pytest.raises(ValueError):
        is_rough_limit(xi, paper4, 42, 1.0)


def test_rough_limit_set_golden(paper10, xi):
    assert rough_limit_set(xi, paper10, 1 / SQRT2).members == {2, 3}
    assert rough_limit_set(xi, paper10, 1.0).members == set(range(1, 11))
    assert rough_limit_set(xi, paper10, 0.0).members == set()


def test_infinite_degree_is_every_point(paper10, xi):
    assert rough_limit_set(xi, paper10, math.inf).members == set(paper10.points)


def test_rough_limit_set_fields(paper4, xi):
    lim = rough_limit_set(xi, paper4, 1 / SQRT2)
    assert lim.r == 1 / SQRT2
    assert lim.members == frozenset({2, 3})


def test_set_matches_pointwise_membership(paper10, xi):
    for r in (0.0, 0.3, 1 / SQRT2, 0.9, 1.0, 2.0):
        members = rough_limit_set(xi, paper10, r).members
        assert members == {x for x in paper10.points if is_rough_limit(xi, paper10, x, r)}


@given(seq=sequences6, r1=st.floats(0, 2), r2=st.floats(0, 2))
def test_membership_monotone_in_degree(seq, r1, r2):
    lo, hi = min(r1, r2), max(r1, r2)
    assert rough_limit_set(seq, PAPER6, lo).members <= rough_limit_set(seq, PAPER6, hi).members


@given(seq=sequences6)
def test_degree_zero_is_ordinary_convergence(seq):
    limit = is_convergent(seq, PAPER6)
    members = rough_limit_set(seq, PAPER6, 0.0).members
    assert members == ({limit} if limit is not None else set())


@given(seq=sequences6)
def test_tail_inside_limit_set_at_tail_diameter(seq):
    tail = seq.tail_set
    assert tail <= rough_limit_set(seq, PAPER6, diameter(PAPER6, tail)).members


# --- agreement with the definition-level scan ---

def _probe_grid(space, seq):
    limsups = sorted({limsup_distance(seq, space, x) for x in space.points})
    grid = {0.0, limsups[0] / 2, limsups[-1] + 0.25}
    grid.update(limsups)
    for a, b in zip(limsups, limsups[1:]):
        if b - a > 1e-5:
            grid.add((a + b) / 2)
    return sorted(grid)


def _exhaustive_scan_agreement(space, max_prefix, max_cycle):
    from itertools import product

    points = space.points
    cases = 0
    for plen in range(max_prefix + 1):
        for clen in range(1, max_cycle + 1):
            for prefix in product(points, repeat=plen):
                for cycle in product(points, repeat=clen):
                    seq = EpSequence(prefix=prefix, cycle=cycle)
                    for x in points:
                        for r in _probe_grid(space, seq):
                            expected = rough_limit_direct(seq, space, x, r)
                            assert is_rough_limit(seq, space, x, r) == expected, (
                                seq, x, r)
                            cases += 1
    return cases


def test_scan_agreement_paper5():
    space = build_space(paper_example_spec(5))
    assert _exhaustive_scan_agreement(space, max_prefix=1, max_cycle=2) > 0


def test_scan_agreement_random_space():
    rng = np.random.default_rng(2024)
    space = random_space(rng, 4)
    _exhaustive_scan_agreement(space, max_prefix=1, max_cycle=2)


def test_scan_agreement_eight_point_space():
    # full-size space, reduced sequence lengths to keep the scan quick
    rng = np.random.default_rng(88)
    space = random_space(rng, 8)
    while space.n < 8:
        space = random_space(rng, 8)
    _exhaustive_scan_agreement(space, max_prefix=1, max_cycle=2)


# --- critical roughness ---

def test_critical_roughness_golden(paper4, xi):
    crit = critical_roughness(xi, paper4)
    assert crit.value == 1 / SQRT2
    assert set(crit.minimizers) >= {2, 3}
    assert crit.minimizers == (2, 3)


def test_critical_roughness_convergent(paper4):
    crit = critical_roughness(EpSequence(prefix=(1,), cycle=(4,)), paper4)
    assert crit == (0.0, (4,))


def test_critical_roughness_single_point_space():
    space = build_space(SpaceSpec(("a",), [[0.0]], [[1.0]]))
    crit = critical_roughness(EpSequence(cycle=("a",)), space)
    assert crit.value == 0.0 and crit.minimizers == ("a",)


@given(seq=sequences6)
def test_critical_degree_is_sharp(seq):
    crit = critical_roughness(seq, PAPER6)
    assert rough_limit_set(seq, PAPER6, crit.value).members >= set(crit.minimizers)
    limsups = sorted({limsup_distance(seq, PAPER6, x) for x in PAPER6.points})
    if len(limsups) > 1:
        gap = min(b - a for a, b in zip(limsups, limsups[1:]))
        below = crit.value - gap
        if below >= 0 and gap > 1e-6:
            assert not rough_limit_set(seq, PAPER6, below).members


# --- cluster points ---

def test_cluster_points_golden(paper10, xi):
    assert cluster_points(xi, paper10) == {2, 3}
    assert cluster_points(EpSequence(cycle=(7,)), paper10) == {7}
    assert cluster_points(EpSequence(prefix=(5,), cycle=(2,)), paper10) == {2}


@given(seq=sequences6)
def test_cluster_points_match_definition(seq):
    assert cluster_points(seq, PAPER6) == cluster_points_direct(seq, PAPER6)


# --- derived sets ---

def test_derived_set_empty_on_valid_spaces(paper10, xi):
    assert derived_set(paper10, set(paper10.points)) == set()
    assert derived_set(paper10, set()) == set()
    assert derived_set(paper10, {4}) == set()
    members = rough_limit_set(xi, paper10, 1.0).members
    assert derived_set(paper10, members) == set()
    with pytest.raises(ValueError, match="unknown point 77"):
        derived_set(paper10, {4, 77})


def test_space_rejects_zero_distance_pairs():
    # a pseudo-metric-like table, whose points at distance zero from other members
    # would be limit points, breaks (d1) and is no space
    spec = SpaceSpec(("a", "b", "c"),
                     [[0, 0, 1], [0, 0, 1], [1, 1, 0]],
                     np.ones((3, 3)))
    with pytest.raises(InvalidSpaceError) as err:
        ControlledSpace(spec)
    assert [(v.axiom, v.points, v.lhs, v.rhs) for v in err.value.result.violations] == \
        [("d1", ("a", "b"), 0.0, 0.0), ("d1", ("b", "a"), 0.0, 0.0)]


def test_derived_set_empty_at_a_tiny_scale():
    # every distance at most 1e-10 lies within the tolerance, yet (d1) keeps them positive
    spec = paper_example_spec(10)
    space = build_space(SpaceSpec(spec.points, spec.dist * 1e-10, spec.alpha))
    assert derived_set(space, set(space.points)) == set()
    report = check_derived_set(space, EpSequence(cycle=(2, 3)), 1e-10)
    assert report.passed and report.details["vacuous"]


# --- one cached limsup vector per tail set ---

def _limsup_spaces():
    rng = np.random.default_rng(515)
    return [build_space(paper_example_spec(7))] + [random_space(rng, 9) for _ in range(6)]


def _sequences_sharing_tails(space, rng):
    """Random sequences, each followed by a reordered copy of its cycle behind a
    different prefix, so both hit the same cached tail set."""
    pts = space.points
    for _ in range(8):
        seq = random_sequence(rng, pts, 3, 4)
        yield seq
        cycle = tuple(rng.permutation(np.array(seq.cycle, dtype=object)))
        prefix = tuple(pts[i] for i in rng.integers(0, len(pts), size=int(rng.integers(0, 4))))
        yield EpSequence(prefix=prefix, cycle=cycle + cycle[:1])


def test_limsup_queries_read_the_max_over_cycle_rows():
    rng = np.random.default_rng(9)
    for space in _limsup_spaces():
        for seq in _sequences_sharing_tails(space, rng):
            expected = np.max([space.dist[space.index(v)] for v in seq.cycle], axis=0)
            limsups = [limsup_distance(seq, space, x) for x in space.points]
            assert all(type(v) is float for v in limsups)
            assert limsups == expected.tolist()
            for r in sorted(set(expected.tolist()) | {0.0, expected.mean()}):
                inside = expected <= r + spaces.TOLERANCE
                assert [is_rough_limit(seq, space, x, r) for x in space.points] == inside.tolist()
                members = {p for p, hit in zip(space.points, inside) if hit}
                assert rough_limit_set(seq, space, r).members == members
            crit = critical_roughness(seq, space)
            assert crit.value == expected.min()
            assert crit.minimizers == tuple(
                p for p, v in zip(space.points, expected) if v == expected.min())


def test_unknown_prefix_point_raises_after_tail_set_is_cached(paper4):
    assert limsup_distance(EpSequence(cycle=(2, 3)), paper4, 1) == 1.0
    bad = EpSequence(prefix=(99,), cycle=(3, 2))
    queries = (
        lambda: limsup_distance(bad, paper4, 1),
        lambda: is_rough_limit(bad, paper4, 1, 1.0),
        lambda: rough_limit_set(bad, paper4, 1.0),
        lambda: critical_roughness(bad, paper4),
        lambda: cluster_points(bad, paper4),
        lambda: is_convergent(bad, paper4),
        lambda: is_cauchy(bad, paper4),
        lambda: boundedness(bad, paper4),
    )
    for query in queries:
        with pytest.raises(ValueError, match=re.escape(
                "sequence uses points not in the space: ['99']")):
            query()


def test_row_max_cache_stays_bounded():
    space = build_space(paper_example_spec(12))
    cap = spaces._ROW_MAX_CACHE
    tails = [frozenset(p for k, p in enumerate(space.points) if mask >> k & 1)
             for mask in range(1, 3 * cap)]
    for tail in tails:
        want = [max(space.distance(v, x) for v in tail) for x in space.points]
        assert space.row_max(tail).tolist() == want
        assert len(space._row_max) <= cap
    assert space.row_max(tails[-1]) is space.row_max(tails[-1])


def test_row_max_is_cached_and_read_only(paper4):
    vec = paper4.row_max(frozenset({2, 3}))
    assert paper4.row_max(frozenset({3, 2})) is vec
    assert vec.tolist() == [1.0, 1 / SQRT2, 1 / SQRT2, 1.0]
    with pytest.raises(ValueError):
        vec[0] = 0.0
    with pytest.raises(ValueError):
        paper4.row_max(frozenset({2, 99}))
