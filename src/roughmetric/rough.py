"""Rough-convergence objects: rough limit sets, critical roughness, cluster
points, and derived sets.

A point x is a rough limit of degree r when d(x_n, x) < r + eps holds
eventually, for every eps > 0. For an eventually periodic sequence that is
exactly the closed condition limsup_n d(x_n, x) <= r, so membership reduces to
comparing the cycle-value distances against r.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from . import spaces
from .sequences import EpSequence, _require_points, limsup_distance
from .spaces import ControlledSpace


@dataclass(frozen=True)
class RoughLimitSet:
    """All points to which the sequence rough-converges with degree r."""

    r: float
    members: frozenset
    sequence: EpSequence
    space: ControlledSpace

    def ordered(self) -> tuple:
        return self.space.ordered(self.members)


def _limsup_vector(seq: EpSequence, space: ControlledSpace) -> np.ndarray:
    """limsup distances from the sequence to every point, in point order."""
    _require_points(seq, space)
    return space.row_max(seq.tail_set)


def is_rough_limit(seq: EpSequence, space: ControlledSpace, x, r: float) -> bool:
    """Whether x is a rough limit of degree r (closed boundary, tolerant)."""
    if r < 0:
        raise ValueError(f"roughness degree must be >= 0, got {r}")
    return limsup_distance(seq, space, x) <= r + spaces.TOLERANCE


def rough_limit_set(seq: EpSequence, space: ControlledSpace, r: float) -> RoughLimitSet:
    """Exhaustive membership scan over all points of the space."""
    if r < 0:
        raise ValueError(f"roughness degree must be >= 0, got {r}")
    hit = _limsup_vector(seq, space) <= r + spaces.TOLERANCE
    members = frozenset(space.points[i] for i in np.flatnonzero(hit))
    return RoughLimitSet(r=float(r), members=members, sequence=seq, space=space)


class CriticalRoughness(NamedTuple):
    value: float
    minimizers: tuple


def critical_roughness(seq: EpSequence, space: ControlledSpace) -> CriticalRoughness:
    """Smallest degree with a nonempty rough limit set, plus all minimizers.

    On a finite space the infimum is attained: it is the minimum over x of
    limsup_distance(seq, space, x). Minimizers are returned in point order.
    """
    limsups = _limsup_vector(seq, space)
    r_star = limsups.min()
    minimizers = tuple(space.points[i] for i in np.flatnonzero(limsups == r_star))
    return CriticalRoughness(value=float(r_star), minimizers=minimizers)


def cluster_points(seq: EpSequence, space: ControlledSpace) -> frozenset:
    """Points approached within every eps infinitely often.

    Exactly the recurring values: c qualifies iff some infinitely recurring
    value v has d(v, c) arbitrarily small, which on a finite space with axiom
    d1 forces v = c. Prefix values occurring only finitely often never qualify.
    """
    _require_points(seq, space)
    return seq.tail_set


def derived_set(space: ControlledSpace, subset: Iterable) -> frozenset:
    """Limit points of ``subset`` in the ball topology of the space.

    y is a limit point iff every open ball around y meets subset \\ {y}; on a
    finite table that reduces to some other member sitting at (tolerantly)
    zero distance from y. For a validated space this is always empty, since
    distinct points keep a positive distance; the computation is kept general
    so pseudo-metric-like tables would still be handled.
    """
    idx = [space.index(p) for p in set(subset)]
    near = space.dist[:, idx] <= spaces.TOLERANCE  # near[y, k]: d(y, member k) ~ 0
    near[idx, range(len(idx))] = False  # a member is not its own neighbour
    return frozenset(space.points[i] for i in np.flatnonzero(near.any(axis=1)))
