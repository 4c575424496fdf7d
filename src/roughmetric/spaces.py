"""Controlled metric type spaces over finite point sets.

A controlled metric type space is a point set X with a distance table d and a
control table alpha: X x X -> [1, oo) satisfying

    (d1)  d(x, y) = 0  iff  x = y
    (d2)  d(x, y) = d(y, x)
    (d3)  d(x, y) <= alpha(x, z) d(x, z) + alpha(z, y) d(z, y)   for all x, y, z.

This module validates the axioms exhaustively over all ordered triples, builds
immutable validated spaces, and provides ball / diameter / restriction queries.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Hashable, Iterable

import numpy as np

PointId = Hashable

DEFAULT_TOLERANCE = 1e-9
TOLERANCE_ENV_VAR = "ROUGHMETRIC_TOL"


def _read_tolerance() -> float:
    raw = os.environ.get(TOLERANCE_ENV_VAR)
    if raw is None:
        return DEFAULT_TOLERANCE
    try:
        tol = float(raw)
    except ValueError as exc:
        raise ValueError(f"{TOLERANCE_ENV_VAR} must be a float, got {raw!r}") from exc
    if not (tol >= 0 and math.isfinite(tol)):
        raise ValueError(f"{TOLERANCE_ENV_VAR} must be finite and >= 0, got {tol}")
    return tol


#: Absolute slack applied to inequality boundaries only: ``a <= b`` is tested
#: as ``a <= b + TOLERANCE`` and ``a < b`` as ``a < b - TOLERANCE``.
#: Equalities (zero diagonal, symmetry) are always exact.
TOLERANCE = _read_tolerance()

#: Target element count of one block of the (d3) scan. A block holds whole x
#: rows (n^2 triples each), so the scan's buffers take O(n^2) memory.
_D3_BLOCK = 1 << 14


def leq(a: float, b: float) -> bool:
    """Tolerant ``a <= b``."""
    return a <= b + TOLERANCE


class ShapeError(ValueError):
    """Malformed tables: wrong shape, bad entries, bad point list.

    Distinct from an axiom violation, which is reported through
    :class:`ValidationResult`, never raised from here.
    """


class InvalidSpaceError(ValueError):
    """Raised by :func:`build_space` when a :class:`SpaceSpec` fails the axioms."""

    def __init__(self, result: "ValidationResult"):
        self.result = result
        first = result.violations[0]
        super().__init__(
            f"space violates axiom {first.axiom} at {first.points}: "
            f"{first.lhs!r} vs {first.rhs!r} "
            f"({len(result.violations)} violation(s) total)"
        )


@dataclass(frozen=True)
class Violation:
    """One failed axiom instance: which axiom, where, and both sides."""

    axiom: str  # "d1" | "d2" | "d3" | "alpha"
    points: tuple
    lhs: float
    rhs: float


@dataclass(frozen=True)
class ValidationResult:
    violations: tuple[Violation, ...] = ()

    @property
    def valid(self) -> bool:
        return not self.violations


@dataclass(frozen=True, eq=False)
class SpaceSpec:
    """Raw space data prior to axiom validation.

    ``dist`` and ``alpha`` are n x n row-major tables indexed by the order of
    ``points``. Construction enforces structure only (square, size-matched,
    distances >= 0, alpha finite); the axioms are checked by
    :func:`validate_axioms`.
    """

    points: tuple
    dist: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        points = tuple(self.points)
        if not points:
            raise ShapeError("points must be nonempty")
        if len(set(points)) != len(points):
            raise ShapeError("points must be distinct")
        n = len(points)
        try:
            dist = np.asarray(self.dist, dtype=float).copy()
            alpha = np.asarray(self.alpha, dtype=float).copy()
        except (TypeError, ValueError) as exc:
            raise ShapeError(f"tables must be numeric and rectangular: {exc}") from exc
        if dist.shape != (n, n):
            raise ShapeError(f"dist must be {n}x{n}, got {dist.shape}")
        if alpha.shape != (n, n):
            raise ShapeError(f"alpha must be {n}x{n}, got {alpha.shape}")
        if not np.isfinite(dist).all() or (dist < 0).any():
            raise ShapeError("dist entries must be finite non-negative reals")
        if not np.isfinite(alpha).all():
            raise ShapeError("alpha entries must be finite")
        dist.setflags(write=False)
        alpha.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "alpha", alpha)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpaceSpec):
            return NotImplemented
        return (
            self.points == other.points
            and np.array_equal(self.dist, other.dist)
            and np.array_equal(self.alpha, other.alpha)
        )

    @property
    def n(self) -> int:
        return len(self.points)


def _d3_live_rows(d: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows x that may hold a (d3) witness.

    ``floor[x, y]`` is a lower bound, in O(n^2), on every right-hand side
    ``m[x, z] + m[z, y]`` (``m = alpha * dist``) that the scan compares against
    ``d[x, y]``. For z outside {x, y} the sum is at least ``low[x] + high[y]``,
    the row and column minima off the diagonal, and rounded addition is
    monotone, so a row with ``d[x, y] <= floor[x, y] + TOLERANCE`` for every y
    holds no witness. The sums with z in {x, y} enter the floor as the very
    floats the scan computes. ``low + high`` is nan only when one side is
    +inf; every sum with z outside {x, y} is then +inf or nan, so ``fmin``
    drops it and keeps the degenerate terms.
    """
    off = m.copy()
    np.fill_diagonal(off, np.inf)
    floor = off.min(axis=1)[:, None] + off.min(axis=0)
    # once the minima are taken, off holds the sums through z = x, then z = y
    diag = np.diagonal(m)
    np.fmin(floor, np.add(diag[:, None], m, out=off), out=floor)
    np.fmin(floor, np.add(m, diag, out=off), out=floor)
    np.add(floor, TOLERANCE, out=floor)
    return np.flatnonzero((d > floor).any(axis=1))


def validate_axioms(spec: SpaceSpec) -> ValidationResult:
    """Check every axiom exhaustively; n^3 triple evaluations for (d3).

    All ordered triples are scanned, including the degenerate ones with
    z in {x, y} (they hold automatically when alpha >= 1, but scanning them
    catches table corruption). The (d3) scan runs over blocks of x rows in
    reused buffers, so it needs O(n^2) memory, not O(n^3); it skips the rows
    that an O(n^2) lower bound on the right-hand side proves clean. Returns all
    violations found, each as a witness carrying the axiom id, the offending
    points, and both sides of the failed (in)equality; (d3) witnesses come in
    lexicographic (x, y, z) order.
    """
    d, a, pts = spec.dist, spec.alpha, spec.points
    n = spec.n
    if d.shape != (n, n) or a.shape != (n, n):
        raise ShapeError("tables do not match the point list")
    violations: list[Violation] = []

    # (d1) exact: zero diagonal, positive off-diagonal
    for i in np.flatnonzero(np.diagonal(d) != 0.0):
        violations.append(Violation("d1", (pts[i], pts[i]), float(d[i, i]), 0.0))
    # masks are read with np.flatnonzero and divmod: np.argwhere and np.nonzero
    # take ~30x longer on an empty 200 x 200 mask
    off_zero = d == 0.0
    np.fill_diagonal(off_zero, False)
    for k in np.flatnonzero(off_zero):
        i, j = divmod(k, n)
        violations.append(Violation("d1", (pts[i], pts[j]), 0.0, 0.0))

    # (d2) exact symmetry
    for k in np.flatnonzero(d != d.T):
        i, j = divmod(k, n)
        if i < j:
            violations.append(Violation("d2", (pts[i], pts[j]), float(d[i, j]), float(d[j, i])))

    # alpha >= 1 (tolerant boundary)
    for k in np.flatnonzero(a < 1.0 - TOLERANCE):
        i, j = divmod(k, n)
        violations.append(Violation("alpha", (pts[i], pts[j]), float(a[i, j]), 1.0))

    # (d3) over all ordered triples: d[x,y] <= m[x,z] + m[z,y], m = alpha*dist.
    # Huge alpha*d may overflow (inf, or nan from inf - inf): compared as is, silently.
    # Only the rows that _d3_live_rows cannot prove clean are scanned.
    with np.errstate(over="ignore", invalid="ignore"):
        m = a * d
        live = _d3_live_rows(d, m)
        m_live, d_live = m[live], d[live]  # gathered once, so each block is a slice
        mt = np.ascontiguousarray(m.T)
        rows = max(1, min(live.size, _D3_BLOCK // (n * n)))
        rhs_buf = np.empty((rows, n, n))
        bound_buf = np.empty_like(rhs_buf)
        bad_buf = np.empty(rhs_buf.shape, dtype=bool)
        for s in range(0, live.size, rows):
            k = min(rows, live.size - s)
            rhs, bound, bad = rhs_buf[:k], bound_buf[:k], bad_buf[:k]
            # rhs[i, y, z] with x = live[s + i]
            np.add(m_live[s : s + k, None, :], mt[None, :, :], out=rhs)
            np.add(rhs, TOLERANCE, out=bound)
            np.greater(d_live[s : s + k, :, None], bound, out=bad)
            if not bad.any():
                continue
            for i, y, z in np.argwhere(bad):
                x = live[s + i]
                violations.append(
                    Violation("d3", (pts[x], pts[y], pts[z]), float(d[x, y]), float(rhs[i, y, z]))
                )

    return ValidationResult(tuple(violations))


@dataclass(frozen=True, eq=False)
class ControlledSpace:
    """A validated controlled metric type space.

    ``sup_alpha`` is the largest control value (the constant scaling every
    rough-convergence bound); ``min_positive_dist`` is the smallest nonzero
    distance, or +inf for a single-point space.
    """

    spec: SpaceSpec
    sup_alpha: float
    min_positive_dist: float

    def __post_init__(self):
        index = {p: i for i, p in enumerate(self.spec.points)}
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_point_set", frozenset(self.spec.points))
        object.__setattr__(self, "_row_max", {})

    @property
    def points(self) -> tuple:
        return self.spec.points

    @property
    def dist(self) -> np.ndarray:
        return self.spec.dist

    @property
    def alpha(self) -> np.ndarray:
        return self.spec.alpha

    @property
    def n(self) -> int:
        return self.spec.n

    def __contains__(self, point) -> bool:
        return point in self._point_set

    def contains_all(self, points: Iterable) -> bool:
        return self._point_set.issuperset(points)

    def index(self, point) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise ValueError(f"unknown point {point!r}") from None

    def distance(self, x, y) -> float:
        return self.spec.dist.item(self.index(x), self.index(y))

    def row_max(self, values: frozenset) -> np.ndarray:
        """Max of d(v, x) over v in nonempty ``values``, for each x in point order.

        Computed once per value set and cached on the space; the array is read-only."""
        out = self._row_max.get(values)
        if out is None:
            out = self.spec.dist[[self.index(v) for v in values]].max(axis=0)
            out.setflags(write=False)
            self._row_max[values] = out
        return out

    def ordered(self, subset: Iterable) -> tuple:
        """Subset as a tuple in this space's canonical point order."""
        idx = sorted(self.index(p) for p in set(subset))
        return tuple(self.spec.points[i] for i in idx)


def build_space(spec: SpaceSpec) -> ControlledSpace:
    """Validate ``spec`` and return the space with its cached constants.

    Raises :class:`InvalidSpaceError` (carrying the full witness list) if any
    axiom fails.
    """
    result = validate_axioms(spec)
    if not result.valid:
        raise InvalidSpaceError(result)
    positive = spec.dist[spec.dist > 0]
    min_pos = float(positive.min()) if positive.size else math.inf
    return ControlledSpace(
        spec=spec,
        sup_alpha=float(spec.alpha.max()),
        min_positive_dist=min_pos,
    )


def paper_example_spec(n: int) -> SpaceSpec:
    """The parity-based space on {1, .., n}.

    Distances: 0 on the diagonal; 1/sqrt(even argument) between an even and
    an odd point; 1 otherwise. Controls: sqrt(even argument) between an even
    and an odd point; 1 otherwise. Any finite truncation of the infinite
    space satisfies the axioms, since they are universally quantified.
    """
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    points = tuple(range(1, n + 1))
    dist = np.zeros((n, n))
    alpha = np.ones((n, n))
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            if x == y:
                continue
            if x % 2 == 0 and y % 2 == 1:
                dist[i, j] = 1.0 / math.sqrt(x)
                alpha[i, j] = math.sqrt(x)
            elif x % 2 == 1 and y % 2 == 0:
                dist[i, j] = 1.0 / math.sqrt(y)
                alpha[i, j] = math.sqrt(y)
            else:
                dist[i, j] = 1.0
    return SpaceSpec(points=points, dist=dist, alpha=alpha)


@dataclass(frozen=True)
class Ball:
    center: PointId
    radius: float
    kind: str  # "open" | "closed"
    members: frozenset = field(default_factory=frozenset)


def ball(space: ControlledSpace, center, radius: float, kind: str = "open") -> Ball:
    """Members at distance < radius (open) or <= radius (closed) from center."""
    if kind not in ("open", "closed"):
        raise ValueError(f"kind must be 'open' or 'closed', got {kind!r}")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    row = space.dist[space.index(center)]
    if kind == "closed":
        hit = row <= radius + TOLERANCE
    else:
        hit = row < radius - TOLERANCE
    members = frozenset(space.points[i] for i in np.flatnonzero(hit))
    return Ball(center=center, radius=float(radius), kind=kind, members=members)


def diameter(space: ControlledSpace, subset: Iterable) -> float:
    """Largest pairwise distance over ``subset``; 0 for empty or singleton sets."""
    idx = [space.index(p) for p in set(subset)]
    if len(idx) <= 1:
        return 0.0
    sub = space.dist[np.ix_(idx, idx)]
    return float(sub.max())


def restrict(space: ControlledSpace, subset: Iterable) -> ControlledSpace:
    """Sub-space on ``subset`` (space point order kept); re-validated on build."""
    keep = set(subset)
    if not keep:
        raise ValueError("cannot restrict to an empty subset")
    idx = [i for i, p in enumerate(space.points) if p in keep]
    if len(idx) != len(keep):
        missing = keep - set(space.points)
        raise ValueError(f"unknown points {sorted(map(repr, missing))}")
    sub = np.ix_(idx, idx)
    spec = SpaceSpec(
        points=tuple(space.points[i] for i in idx),
        dist=space.dist[sub],
        alpha=space.alpha[sub],
    )
    return build_space(spec)

