"""T_DIAM on spaces where the bound diam(LIM^r) <= 2 r k is attained.

On the squared-Euclidean b-metric d(x, y) = (x - y)^2 over {0, ..., 4} the
sharp control is k = 2 (Czerwik's 2^(p-1) with p = 2), and the constant
sequence 2 has LIM^r equal to the closed ball of radius r about 2. At r = 1
that is {1, 2, 3}, of diameter 4 = 2 * 1 * 2; at r = 4 it is every point, of
diameter 16 = 2 * 4 * 2. On |x - y| with k = 1 the same sequence meets
Phu's 2r bound. A bound that dropped k would fail the squared space.

Every check also passes on the whole family d(x, y) = |x - y|^p, p in {1, 2, 3},
with the sharp control 2^(p-1) (Czerwik's b-metrics), over a few integers: each
distance and each (d3) sum is an integer below 2^53, so exact in floating point.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roughmetric import EpSequence, SpaceSpec, TheoremId, build_space, default_r_grid, run_all

LINE = np.arange(5)
GAPS = np.abs(LINE[:, None] - LINE[None, :]).astype(float)
CONSTANT_2 = EpSequence(cycle=(2,))


def _line_space(power, k):
    return build_space(SpaceSpec(tuple(range(5)), GAPS ** power, np.full((5, 5), k)))


@pytest.mark.parametrize("power, k, r", [(2, 2.0, 1.0), (2, 2.0, 4.0), (1, 1.0, 1.0)])
def test_diameter_bound_is_attained(power, k, r):
    reports = run_all(_line_space(power, k), CONSTANT_2, [r])
    assert [rep.theorem_id for rep in reports if not rep.passed] == []
    (diam,) = [rep for rep in reports if rep.theorem_id is TheoremId.T_DIAM]
    assert (diam.details["diam"], diam.details["bound"]) == (2 * r * k, 2 * r * k)
    assert diam.details["diam_ratio"] == 1.0


@settings(max_examples=250, deadline=None)
@given(coords=st.lists(st.integers(0, 50), min_size=2, max_size=8, unique=True),
       power=st.sampled_from((1, 2, 3)), offset=st.integers(1, 3), stride=st.integers(1, 4),
       data=st.data())
def test_every_check_passes_on_tight_families(coords, power, offset, stride, data):
    x, n = np.array(coords, dtype=float), len(coords)
    space = build_space(SpaceSpec(tuple(coords), np.abs(x[:, None] - x[None, :]) ** power,
                                  np.full((n, n), 2.0 ** (power - 1))))
    points = st.sampled_from(coords)
    seq = EpSequence(prefix=data.draw(st.lists(points, max_size=3)),
                     cycle=data.draw(st.lists(points, min_size=1, max_size=4)))
    reports = run_all(space, seq, default_r_grid(space, seq), offset=offset, stride=stride)
    assert [(rep.theorem_id, rep.params.get("r"), rep.witness)
            for rep in reports if not rep.passed] == []
