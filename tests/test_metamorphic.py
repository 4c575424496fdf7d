"""Metamorphic relations: how the answers move when the input moves in a
known way. None of them depends on the value of the tolerance.

- Renaming the point ids, keeping the point order, renames every report.
- Permuting the point order changes no violation count, no rough limit set
  and no check verdict (witnesses name the first point in point order, so
  they may move).
- The rough limit set grows with the degree.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from roughmetric import (
    EpSequence,
    SpaceSpec,
    build_space,
    default_r_grid,
    rough_limit_set,
    run_all,
    theorems,
    validate_axioms,
)
from roughmetric.theorems import random_sequence, random_space

seeds = st.integers(0, 2**32 - 1)


def _draw(seed):
    """A random valid space of 2 to 8 points, a sequence on it, and the rest of the stream."""
    rng = np.random.default_rng(seed)
    space = random_space(rng, 8)
    return rng, space, random_sequence(rng, space.points, 3, 4)


def _permuted(spec, perm):
    """``spec`` with its points, and both tables, put in the order ``perm``."""
    cross = np.ix_(perm, perm)
    return SpaceSpec(tuple(spec.points[i] for i in perm), spec.dist[cross], spec.alpha[cross])


def _rename(value, names: dict):
    """``value`` with each string in ``names`` replaced, through dicts, lists and tuples."""
    if isinstance(value, str):
        return names.get(value, value)
    if isinstance(value, dict):
        return {k: _rename(v, names) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_rename(v, names) for v in value)
    return value


@settings(max_examples=100, deadline=None)
@given(seed=seeds)
def test_renaming_ids_in_order_renames_every_report(seed):
    rng, space, seq = _draw(seed)
    # in point order, the new names sort backwards: nothing may order points by id
    new = {p: f"p{space.n - i}" for i, p in enumerate(space.points)}
    renamed = build_space(SpaceSpec(tuple(new.values()), space.dist, space.alpha))
    renamed_seq = EpSequence(prefix=[new[p] for p in seq.prefix], cycle=[new[p] for p in seq.cycle])
    grid = default_r_grid(space, seq)
    assert default_r_grid(renamed, renamed_seq) == grid
    offset, stride = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    old = {v: k for k, v in new.items()}  # strings in the original reports are no ids
    for rep, ren in zip(run_all(space, seq, grid, offset, stride),
                        run_all(renamed, renamed_seq, grid, offset, stride), strict=True):
        assert ren.theorem_id == rep.theorem_id
        assert (ren.passed, ren.applicable) == (rep.passed, rep.applicable)
        assert _rename(ren.witness, old) == rep.witness
        assert _rename(ren.details, old) == rep.details


@settings(max_examples=100, deadline=None)
@given(seed=seeds, n=st.integers(2, 40), symmetric=st.booleans())
def test_permuting_points_keeps_the_violation_counts(seed, n, symmetric):
    # above 25 points the (d3) scan screens rows; symmetric tables take its half scan
    rng = np.random.default_rng(seed)
    dist = rng.uniform(0.1, 10.0, (n, n))
    alpha = rng.uniform(0.5, 3.0, (n, n))
    if symmetric:
        dist = np.triu(dist, 1) + np.triu(dist, 1).T
        alpha = (alpha + alpha.T) / 2
    else:
        dist[0, 1] = 0.0  # d1 off the diagonal; the diagonal and d2 fail already
    spec = SpaceSpec(tuple(range(n)), dist, alpha)

    def counts(s):
        return Counter(v.axiom for v in validate_axioms(s).violations)

    assert counts(_permuted(spec, rng.permutation(n))) == counts(spec)


@settings(max_examples=100, deadline=None)
@given(seed=seeds)
def test_permuting_points_keeps_limit_sets_and_verdicts(seed):
    rng, space, seq = _draw(seed)
    shuffled = build_space(_permuted(space.spec, rng.permutation(space.n)))
    grid = default_r_grid(space, seq)
    assert default_r_grid(shuffled, seq) == grid
    for r in grid:
        assert rough_limit_set(seq, shuffled, r).members == rough_limit_set(seq, space, r).members
    # run_all pairs T_SHADOW with the first cluster point in point order, so
    # compare each check under the same arguments, not the two run_all lists
    for rep in run_all(space, seq, grid):
        check = getattr(theorems, theorems._CHECKS[rep.theorem_id])
        again = check(**{**rep.params, "space": shuffled})
        assert (again.passed, again.applicable) == (rep.passed, rep.applicable)


@settings(max_examples=100, deadline=None)
@given(seed=seeds, extra=st.lists(st.floats(0, 25), max_size=6))
def test_rough_limit_sets_are_nested_along_a_sorted_grid(seed, extra):
    _, space, seq = _draw(seed)
    grid = sorted({*default_r_grid(space, seq), *extra})
    sets = [rough_limit_set(seq, space, r).members for r in grid]
    assert all(small <= large for small, large in zip(sets, sets[1:]))
