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
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Hashable, Iterable

import numpy as np

PointId = Hashable

#: Absolute slack applied to inequality boundaries only: ``a <= b`` is tested
#: as ``a <= b + TOLERANCE`` and ``a < b`` as ``a < b - TOLERANCE``.
#: Equalities (zero diagonal, symmetry) are always exact. Only this module
#: reads it; the command line sets it from ``ROUGHMETRIC_TOL`` on start.
TOLERANCE = 1e-9

#: Target element count of one block of the (d3) scan. A block holds whole x
#: rows (n^2 triples each), so the scan's buffers take O(n^2) memory.
_D3_BLOCK = 1 << 14

#: Value sets ``ControlledSpace.row_max`` caches before clearing (a 6-point space has 63).
_ROW_MAX_CACHE = 256


def leq(a: float, b: float) -> bool:
    """Tolerant ``a <= b``, elementwise on arrays."""
    return a <= b + TOLERANCE


def nonnegative(x: float, what: str) -> None:
    """Reject a degree or radius that is not a real ``x >= 0`` (nan included).

    +inf passes: the checks scale a finite degree by ``sup_alpha``, which may
    overflow.
    """
    if not x >= 0:
        raise ValueError(f"{what} must be >= 0, got {x}")


class ShapeError(ValueError):
    """Malformed tables: wrong shape, bad entries, bad point list.

    Distinct from an axiom violation, which is reported through
    :class:`ValidationResult`, never raised from here.
    """


class InvalidSpaceError(ValueError):
    """Raised by :class:`ControlledSpace` when its :class:`SpaceSpec` fails the axioms."""

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
            dist = np.array(self.dist, dtype=float)
            alpha = np.array(self.alpha, dtype=float)
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

    ``m = alpha * dist`` is :func:`validate_axioms`' own scratch table: its
    diagonal is set to +inf to take the row minima in place, then put back
    bit for bit. With ``low[x]`` the smallest ``m[x, z]`` off the diagonal,
    row x is clean when ``max d[x] <= (low[x] + min low) + TOLERANCE``,
    ``m[x] >= d[x]`` entrywise and m's whole diagonal is nonnegative. This
    is exact. A sum through z outside {x, y} is ``m[x, z] + m[z, y]`` with
    ``m[x, z] >= low[x]`` and ``m[z, y] >= min low``, as it lies off the
    diagonal; rounded addition is monotone, so the sum plus the tolerance is
    at least the bound. A sum through z in {x, y} adds a diagonal entry
    (-0.0 included) to ``m[x, y] >= d[x, y]``. The association matters:
    ``low + (min low + TOLERANCE)`` can round above a sum that a witness
    beats (at TOLERANCE = 2^-53, low[x] = 1 and min low = 2^-53 it gives
    1 + 2^-52, while the sum 1 + 2^-53 rounds to 1). m holds no nan, as
    both tables are finite; a -inf entry makes the bound -inf or nan, which
    fails the ``<=``, so that row is scanned.
    """
    diag = np.einsum("ii->i", m)  # a writable view
    saved = diag.copy()
    diag[:] = np.inf
    low = m.min(axis=1)
    diag[:] = saved
    clean = d.max(axis=1) <= (low + low.min()) + TOLERANCE
    if clean.any():  # none on the all-live tables: skip the n^2 comparison
        clean &= (m >= d).all(axis=1) & (saved.min() >= 0)
    return np.flatnonzero(~clean)


def _min_plus(m: np.ndarray, mt: np.ndarray, rows: np.ndarray, half: bool) -> np.ndarray:
    """The min-plus product ``min_z m[x, z] + m[z, y]`` for x in ``rows`` (ascending) and
    every y; fmin skips nan sums. ``mt`` is ``m.T`` in C order. Blocks of x rows hold about
    ``_D3_BLOCK`` sums. With ``half`` (m symmetric) a block starts at its first row's column
    and the pairs within ``rows`` are mirrored, so (x, y) with y < x outside ``rows`` may
    stay +inf."""
    n = m.shape[0]
    m_rows = m[rows]  # gathered once, so each block is a slice
    step = max(1, min(rows.size, _D3_BLOCK // (n * n)))
    buf = np.empty((step, n, n))
    low = np.full((rows.size, n), np.inf)
    for s in range(0, rows.size, step):
        block, y0 = m_rows[s : s + step], rows[s] if half else 0
        sums = buf[: len(block), : n - y0]  # sums[i, y - y0, z] with x = rows[s + i]
        np.add(block[:, None, :], mt[None, y0:, :], out=sums)
        np.fmin.reduce(sums, axis=2, out=low[s : s + step, y0:])
    if half:
        pair = low[:, rows]
        low[:, rows] = np.fmin(pair, pair.T)
    return low


def validate_axioms(spec: SpaceSpec) -> ValidationResult:
    """Check every axiom exhaustively; n^3 triple evaluations for (d3).

    All ordered triples are scanned, including the degenerate ones with
    z in {x, y} (they hold automatically when alpha >= 1, but scanning them
    catches table corruption). (d3) takes two exact passes in O(n^2) memory.
    Pass 1 takes each pair's smallest right-hand side over z, the min-plus
    product of alpha * dist in blocks of x rows (:func:`_min_plus`); above
    one block it skips the rows that a per-row bound proves clean
    (:func:`_d3_live_rows`, which borrows ``alpha * dist`` as scratch), and
    when d and alpha * d are both symmetric it scans each unordered pair
    {x, y} once and copies the minimum to (y, x). Pass 2 searches z by z
    only the pairs (x, y) that beat their minimum, in (x, y) order, so (d3)
    witnesses are built in lexicographic (x, y, z) order. Returns all
    violations found, each as a witness carrying the axiom id, the offending
    points, and both sides of the failed (in)equality.
    """
    d, a, pts = spec.dist, spec.alpha, spec.points
    n = spec.n
    violations: list[Violation] = []

    def add(axiom: str, idx: tuple, lhs: np.ndarray, rhs: np.ndarray) -> None:
        """Append one witness per entry of ``lhs``; ``idx`` holds an index array per point."""
        cols = ([pts[i] for i in col.tolist()] for col in idx)
        violations.extend(map(Violation, repeat(axiom), zip(*cols), lhs.tolist(), rhs.tolist()))

    # (d1) and (d2) exact, alpha >= 1 tolerant. Each row gives its witnesses as flat
    # indices x * n + y in (x, y) order, read with np.flatnonzero (np.argwhere and
    # np.nonzero take ~30x longer on an empty 200 x 200 mask), and both sides.
    # An off-diagonal -0 reads as the literal 0.0.
    off_zero = d == 0.0
    np.fill_diagonal(off_zero, False)
    asymmetric = np.flatnonzero(d != d.T)
    for axiom, flat, lhs, rhs in (
        ("d1", np.flatnonzero(np.diagonal(d) != 0.0) * (n + 1), d, 0.0),  # (x, x) is x * (n + 1)
        ("d1", np.flatnonzero(off_zero), 0.0, 0.0),
        ("d2", asymmetric[asymmetric // n < asymmetric % n], d, d.T),  # x < y
        ("alpha", np.flatnonzero(a < 1.0 - TOLERANCE), a, 1.0),
    ):
        if flat.size:  # most tables pass: skip the index work
            idx = np.divmod(flat, n)
            lhs, rhs = (s[idx] if isinstance(s, np.ndarray) else np.full(flat.size, s)
                        for s in (lhs, rhs))
            add(axiom, idx, lhs, rhs)
    del off_zero  # no n^2 mask outlives the pair axioms into the (d3) scan

    # (d3) over all ordered triples: d[x,y] <= m[x,z] + m[z,y], m = alpha*dist.
    # Huge alpha*d may overflow (inf, or nan from inf - inf): compared as is, silently.
    # Above one block, only the rows that _d3_live_rows cannot prove clean are scanned.
    with np.errstate(over="ignore", invalid="ignore"):
        m = a * d
        live = np.arange(n) if n**3 <= _D3_BLOCK else _d3_live_rows(d, m)
        if live.size == 0:  # as in most valid tables above one block: no scan buffers
            return ValidationResult(tuple(violations))
        mt = np.ascontiguousarray(m.T)
        # With d and m symmetric (m has no nan: both tables are finite), (y, x, z)
        # is (x, y, z) with the commuted sum m[y,z] + m[z,x], so row x scans only
        # y >= x; a pair left at +inf has its row y < x proved clean by the screen.
        half = asymmetric.size == 0 and not np.count_nonzero(m != mt)
        low = _min_plus(m, mt, live, half)  # pass 1: each pair's smallest sum
        # pass 2, exact: fl(t + tol) is monotone in t, and fmin skips nan sums, which
        # never witness. The flagged pairs come in (x, y) order and are searched z by z.
        i, y = np.nonzero(d[live] > low + TOLERANCE)
        x, step = live[i], max(1, _D3_BLOCK // n)
        for s in range(0, x.size, step):
            xs, ys = x[s : s + step], y[s : s + step]
            lhs, sums = d[xs, ys], m[xs] + mt[ys]
            p, z = np.nonzero(lhs[:, None] > sums + TOLERANCE)
            add("d3", (xs[p], ys[p], z), lhs[p], sums[p, z])

    return ValidationResult(tuple(violations))


@dataclass(frozen=True, eq=False)
class ControlledSpace:
    """A controlled metric type space, valid by construction: it runs
    :func:`validate_axioms` once and raises :class:`InvalidSpaceError` if any axiom fails.

    Its data is read off ``spec``: ``points``, ``dist``, ``alpha`` and ``n``
    are the spec's own, taken on construction; ``sup_alpha`` and
    ``min_positive_dist`` are computed on first read.
    """

    spec: SpaceSpec

    def __post_init__(self):
        spec = self.spec
        result = validate_axioms(spec)
        if not result.valid:
            raise InvalidSpaceError(result)
        vars(self).update({
            "points": spec.points,
            "dist": spec.dist,
            "alpha": spec.alpha,
            "n": spec.n,
            "_index": {p: i for i, p in enumerate(spec.points)},
            "_point_set": frozenset(spec.points),
            "_row_max": {},
        })

    @cached_property
    def sup_alpha(self) -> float:
        """The largest control value: the k scaling every rough-convergence bound."""
        return float(self.alpha.max())

    @cached_property
    def min_positive_dist(self) -> float:
        """The smallest nonzero distance, or +inf for a single-point space."""
        positive = self.dist[self.dist > 0]
        return float(positive.min()) if positive.size else math.inf

    def contains_all(self, points: Iterable) -> bool:
        return self._point_set.issuperset(points)

    def index(self, point) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise ValueError(f"unknown point {point!r}") from None

    def distance(self, x, y) -> float:
        return self.dist.item(self.index(x), self.index(y))

    def row_max(self, values: frozenset) -> np.ndarray:
        """Max of d(v, x) over v in nonempty ``values``, for each x in point order.

        Cached on the space, cleared at ``_ROW_MAX_CACHE`` value sets; the array is read-only."""
        out = self._row_max.get(values)
        if out is None:
            if len(self._row_max) >= _ROW_MAX_CACHE:
                self._row_max.clear()
            out = self.dist[[self.index(v) for v in values]].max(axis=0)
            out.setflags(write=False)
            self._row_max[values] = out
        return out

    def ordered(self, subset: Iterable) -> tuple:
        """Subset as a tuple in this space's canonical point order."""
        idx = sorted(self.index(p) for p in set(subset))
        return tuple(self.points[i] for i in idx)


def build_space(spec: SpaceSpec) -> ControlledSpace:
    """Validate ``spec`` and return its space.

    Raises :class:`InvalidSpaceError` (carrying the full witness list) if any
    axiom fails.
    """
    return ControlledSpace(spec)


def paper_example_spec(n: int) -> SpaceSpec:
    """The parity-based space on {1, .., n}.

    Distances: 0 on the diagonal; 1/sqrt(even argument) between an even and
    an odd point; 1 otherwise. Controls: sqrt(even argument) between an even
    and an odd point; 1 otherwise. Any finite truncation of the infinite
    space satisfies the axioms, since they are universally quantified.
    """
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    x = np.arange(1.0, n + 1)
    even = x % 2 == 0
    alpha = np.ones((n, n))
    mixed = np.ix_(even, ~even)  # even row, odd column; alpha.T[mixed] is its mirror
    alpha[mixed] = alpha.T[mixed] = np.sqrt(x[even, None])
    dist = 1.0 / alpha
    np.fill_diagonal(dist, 0.0)
    return SpaceSpec(points=tuple(range(1, n + 1)), dist=dist, alpha=alpha)


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
    nonnegative(radius, "radius")
    row = space.dist[space.index(center)]
    if kind == "closed":
        hit = leq(row, radius)
    else:
        hit = row < radius - TOLERANCE
    members = frozenset(space.points[i] for i in np.flatnonzero(hit))
    return Ball(center=center, radius=float(radius), kind=kind, members=members)


def _farthest_pair(space: ControlledSpace, subset: Iterable) -> tuple[float, tuple | None]:
    """Largest pairwise distance over ``subset`` and its first pair in point order, or
    ``(0.0, None)`` below two points; by (d2) the first maximum lies above the diagonal."""
    idx = sorted(space.index(p) for p in set(subset))
    if len(idx) <= 1:
        return 0.0, None
    sub = space.dist[np.ix_(idx, idx)]
    i, j = divmod(int(sub.argmax()), len(idx))
    return float(sub[i, j]), (space.points[idx[i]], space.points[idx[j]])


def diameter(space: ControlledSpace, subset: Iterable) -> float:
    """Largest pairwise distance over ``subset``; 0 for empty or singleton sets."""
    return _farthest_pair(space, subset)[0]


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

