"""Eventually periodic sequences and their exact asymptotic quantities.

A sequence is a finite prefix followed by an endlessly repeated nonempty
cycle. Over a finite space this family is closed under arithmetic
subsequence selection and makes every asymptotic quantity (limit, Cauchy
status, limsup of distances, bounds) exactly computable from the cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .spaces import ControlledSpace, diameter


@dataclass(frozen=True)
class EpSequence:
    """x_n = prefix[n] for n <= len(prefix), then the cycle repeated (1-indexed)."""

    prefix: tuple = ()
    cycle: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "cycle", tuple(self.cycle))
        if not self.cycle:
            raise ValueError("cycle must be nonempty")

    def term(self, n: int):
        """The n-th term, n >= 1."""
        if n < 1:
            raise ValueError(f"index must be >= 1, got {n}")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.cycle[(n - len(self.prefix) - 1) % len(self.cycle)]

    @cached_property
    def tail_set(self) -> frozenset:
        """Values occurring infinitely often: the distinct cycle entries."""
        return frozenset(self.cycle)

    @cached_property
    def value_set(self) -> frozenset:
        """All values the sequence ever takes."""
        return frozenset(self.prefix) | frozenset(self.cycle)


def _require_points(seq: EpSequence, space: ControlledSpace) -> None:
    if not space.contains_all(seq.value_set):
        unknown = seq.value_set - frozenset(space.points)
        raise ValueError(f"sequence uses points not in the space: {sorted(map(repr, unknown))}")


def limsup_vector(seq: EpSequence, space: ControlledSpace) -> np.ndarray:
    """limsup_n d(x_n, x) for every x in point order, exact for eventually
    periodic sequences. Cached on the space and read-only.

    Equals the max of d(v, x) over the cycle values: each recurs with bounded
    gap and the prefix is finite, so it is both an eventual upper bound and is
    approached infinitely often.
    """
    _require_points(seq, space)
    return space.row_max(seq.tail_set)


def limsup_distance(seq: EpSequence, space: ControlledSpace, x) -> float:
    """limsup_n d(x_n, x): the entry of :func:`limsup_vector` at x."""
    return limsup_vector(seq, space).item(space.index(x))


def is_convergent(seq: EpSequence, space: ControlledSpace) -> Optional[object]:
    """The limit if one exists, else None.

    The sequence converges iff the cycle takes a single value v (then
    limsup_distance to v is 0; any two distinct recurring values stay a
    positive distance apart by axiom d1).
    """
    _require_points(seq, space)
    if len(seq.tail_set) == 1:
        return next(iter(seq.tail_set))
    return None


def is_cauchy(seq: EpSequence, space: ControlledSpace) -> bool:
    """True iff the sequence converges.

    Two distinct recurring values stay a positive distance apart (axiom d1),
    so a Cauchy sequence is eventually constant; on a finite space that is
    exactly convergence.
    """
    return is_convergent(seq, space) is not None


def boundedness(seq: EpSequence, space: ControlledSpace) -> float:
    """A strict bound B over all pairs of terms: d(x_n, x_m) < B for all n, m.

    Always finite here (finitely many values): the diameter of the set of
    occurring values plus 1, keeping the inequality strict.
    """
    _require_points(seq, space)
    return diameter(space, seq.value_set) + 1.0


def arithmetic_subsequence(seq: EpSequence, offset: int, stride: int) -> EpSequence:
    """The subsequence i -> x_{offset + (i-1)*stride}, re-encoded as prefix+cycle.

    The selected indices eventually step through cycle positions with period
    len(cycle) / gcd(len(cycle), stride), which becomes the new cycle length.
    """
    if offset < 1 or stride < 1:
        raise ValueError(f"offset and stride must be >= 1, got {offset}, {stride}")
    p = len(seq.prefix)
    in_prefix = (p - offset) // stride + 1 if offset <= p else 0
    new_cycle_len = len(seq.cycle) // math.gcd(len(seq.cycle), stride)
    terms = [seq.term(offset + i * stride) for i in range(in_prefix + new_cycle_len)]
    return EpSequence(prefix=tuple(terms[:in_prefix]), cycle=tuple(terms[in_prefix:]))
