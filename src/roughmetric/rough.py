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

from .sequences import EpSequence, _require_points, limsup_vector
from .spaces import ControlledSpace, leq, nonnegative


@dataclass(frozen=True)
class RoughLimitSet:
    """All points to which the sequence rough-converges with degree r."""

    r: float
    members: frozenset


def is_rough_limit(seq: EpSequence, space: ControlledSpace, x, r: float) -> bool:
    """Whether x is a rough limit of degree r (closed boundary, tolerant)."""
    nonnegative(r, "roughness degree")
    return leq(limsup_vector(seq, space).item(space.index(x)), r)


def rough_limit_set(seq: EpSequence, space: ControlledSpace, r: float) -> RoughLimitSet:
    """Exhaustive membership scan over all points of the space."""
    nonnegative(r, "roughness degree")
    hit = leq(limsup_vector(seq, space), r)
    members = frozenset(space.points[i] for i in np.flatnonzero(hit))
    return RoughLimitSet(r=float(r), members=members)


class CriticalRoughness(NamedTuple):
    value: float
    minimizers: tuple


def critical_roughness(seq: EpSequence, space: ControlledSpace) -> CriticalRoughness:
    """Smallest degree with a nonempty rough limit set, plus all minimizers.

    On a finite space the infimum is attained: it is the minimum over x of
    limsup_distance(seq, space, x). Minimizers are returned in point order.
    """
    limsups = limsup_vector(seq, space)
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
    """Limit points of ``subset`` in the ball topology of the space: none.

    Every open ball around a limit point y meets subset \\ {y}, so on a finite
    table another member lies at distance zero from y: (d1), which every space
    satisfies by construction, forbids it. Raises ``ValueError`` on an unknown point.
    """
    for p in set(subset):
        space.index(p)
    return frozenset()
