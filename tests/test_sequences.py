import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from roughmetric import (
    EpSequence,
    arithmetic_subsequence,
    boundedness,
    build_space,
    is_cauchy,
    is_convergent,
    limsup_distance,
    paper_example_spec,
    tail_values,
)
from roughmetric.theorems import random_sequence, random_space

from oracles import limsup_definitional_ok, scan_horizon, strict_bound_ok, unroll_terms

SQRT2 = math.sqrt(2)

PAPER6 = build_space(paper_example_spec(6))

points6 = st.sampled_from(PAPER6.points)
sequences6 = st.builds(
    EpSequence,
    prefix=st.lists(points6, max_size=3).map(tuple),
    cycle=st.lists(points6, min_size=1, max_size=4).map(tuple),
)


# --- term indexing ---

def test_term_golden(xi):
    assert xi.term(1) == 2 and xi.term(2) == 3 and xi.term(3) == 2
    const = EpSequence(cycle=("a",))
    assert all(const.term(n) == "a" for n in range(1, 10))
    with_prefix = EpSequence(prefix=(7,), cycle=(2, 3))
    assert with_prefix.term(1) == 7
    assert with_prefix.term(2) == 2
    assert with_prefix.term(3) == 3


def test_term_rejects_zero(xi):
    with pytest.raises(ValueError):
        xi.term(0)


def test_empty_cycle_rejected():
    with pytest.raises(ValueError):
        EpSequence(prefix=(1,), cycle=())


@given(seq=sequences6)
def test_term_agrees_with_unrolling(seq):
    horizon = len(seq.prefix) + 3 * len(seq.cycle)
    assert [seq.term(n) for n in range(1, horizon + 1)] == unroll_terms(seq, horizon)


# --- tail values ---

def test_tail_values(xi):
    assert tail_values(xi) == {2, 3}
    assert tail_values(EpSequence(cycle=(5,))) == {5}
    assert tail_values(EpSequence(cycle=(1, 2, 1))) == {1, 2}
    assert tail_values(EpSequence(prefix=(9, 9), cycle=(4,))) == {4}


# --- limsup distance ---

def test_limsup_golden(paper4, xi):
    assert limsup_distance(xi, paper4, 2) == 1 / SQRT2
    assert limsup_distance(xi, paper4, 4) == 1.0  # max(d(2,4)=1, d(3,4)=0.5)
    const = EpSequence(cycle=(3,))
    assert limsup_distance(const, paper4, 3) == 0.0


def test_limsup_unknown_point(paper4, xi):
    with pytest.raises(ValueError):
        limsup_distance(xi, paper4, 99)
    with pytest.raises(ValueError):
        limsup_distance(EpSequence(cycle=(99,)), paper4, 2)


@given(seq=sequences6, x=points6)
def test_limsup_matches_definition(seq, x):
    ls = limsup_distance(seq, PAPER6, x)
    assert limsup_definitional_ok(seq, PAPER6, x, ls)


# --- convergence and cauchy ---

def test_convergence_golden(paper4, paper10, xi):
    assert is_convergent(xi, paper4) is None
    assert is_convergent(EpSequence(prefix=(9, 9), cycle=(4,)), paper10) == 4
    assert is_convergent(EpSequence(cycle=(1, 2)), paper4) is None


def test_cauchy_golden(paper4, xi):
    assert not is_cauchy(xi, paper4)
    assert is_cauchy(EpSequence(cycle=(2,)), paper4)
    assert is_cauchy(EpSequence(prefix=(1, 4, 1), cycle=(3,)), paper4)


@given(seq=sequences6)
def test_convergent_implies_zero_limsup_and_cauchy(seq):
    limit = is_convergent(seq, PAPER6)
    if limit is not None:
        assert limsup_distance(seq, PAPER6, limit) == 0.0
        assert is_cauchy(seq, PAPER6)


# --- boundedness ---

def test_boundedness_golden(paper4, xi):
    report = boundedness(xi, paper4)
    assert report.bounded
    assert report.bound == 1 / SQRT2 + 1
    assert boundedness(EpSequence(cycle=(3,)), paper4).bound == 1.0
    assert boundedness(EpSequence(cycle=(2, 4)), paper4).bound == 2.0


def test_boundedness_counts_prefix_values(paper4):
    # prefix value 4 is 1 away from 3, farther than the cycle's own spread
    seq = EpSequence(prefix=(4,), cycle=(3,))
    assert boundedness(seq, paper4).bound == 0.5 + 1


@given(seq=sequences6)
def test_bound_is_strict_over_all_pairs(seq):
    assert strict_bound_ok(seq, PAPER6, boundedness(seq, PAPER6).bound)


def test_bound_is_max_pair_distance_plus_one():
    rng = np.random.default_rng(31)
    for space in [PAPER6] + [random_space(rng, 9) for _ in range(6)]:
        for _ in range(20):
            seq = random_sequence(rng, space.points, 3, 4)
            pairs = combinations(space.ordered(seq.value_set), 2)
            brute = max((space.distance(a, b) for a, b in pairs), default=0.0)
            assert boundedness(seq, space).bound.hex() == (brute + 1.0).hex()


# --- arithmetic subsequences ---

def test_subsequence_golden(xi):
    odd = arithmetic_subsequence(xi, 1, 2)
    assert odd.prefix == () and set(odd.cycle) == {2}
    even = arithmetic_subsequence(xi, 2, 2)
    assert set(even.cycle) == {3}


def test_subsequence_identity_values(xi):
    same = arithmetic_subsequence(xi, 1, 1)
    assert unroll_terms(same, 8) == unroll_terms(xi, 8)


def test_subsequence_errors(xi):
    with pytest.raises(ValueError):
        arithmetic_subsequence(xi, 0, 1)
    with pytest.raises(ValueError):
        arithmetic_subsequence(xi, 1, 0)


@given(seq=sequences6,
       offset=st.integers(1, 6),
       stride=st.integers(1, 6))
def test_subsequence_terms_and_tail(seq, offset, stride):
    sub = arithmetic_subsequence(seq, offset, stride)
    horizon = scan_horizon(sub, 3)
    for i in range(1, horizon + 1):
        assert sub.term(i) == seq.term(offset + (i - 1) * stride)
    assert tail_values(sub) <= tail_values(seq)


def test_subsequence_cycle_length_divides():
    seq = EpSequence(cycle=(1, 2, 3, 4, 5, 6))
    for stride in range(1, 8):
        sub = arithmetic_subsequence(seq, 1, stride)
        assert len(sub.cycle) == 6 // math.gcd(6, stride)
