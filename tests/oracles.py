"""Independent brute-force oracles used by the tests.

Everything here recomputes quantities straight from their definitions
(materialized terms, explicit quantifier scans, pure-Python triple loops) and
deliberately shares no code path with the library's implementations.
"""

from __future__ import annotations

import math

import numpy as np

from roughmetric.spaces import TOLERANCE


def axiom_violations_bruteforce(spec) -> set:
    """All axiom violations, as (axiom, points...) tags, via plain loops."""
    d, a, pts = spec.dist, spec.alpha, spec.points
    n = len(pts)
    out = set()
    for i in range(n):
        for j in range(n):
            dij = float(d[i, j])
            if i == j and dij != 0.0:
                out.add(("d1", pts[i], pts[j]))
            if i != j and dij == 0.0:
                out.add(("d1", pts[i], pts[j]))
            if i < j and dij != float(d[j, i]):
                out.add(("d2", pts[i], pts[j]))
            if float(a[i, j]) < 1.0 - TOLERANCE:
                out.add(("alpha", pts[i], pts[j]))
    out.update(("d3", *points) for points, _, _ in d3_witnesses_bruteforce(spec))
    return out


def paper_example_bruteforce(n: int) -> tuple:
    """(dist, alpha) of the parity space on {1, .., n}, entry by entry."""
    dist = np.zeros((n, n))
    alpha = np.ones((n, n))
    for i, x in enumerate(range(1, n + 1)):
        for j, y in enumerate(range(1, n + 1)):
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
    return dist, alpha


def d3_witnesses_bruteforce(spec) -> list:
    """(d3) witnesses as (points, lhs, rhs), in lexicographic (x, y, z) order."""
    d, a, pts = spec.dist, spec.alpha, spec.points
    n = len(pts)
    out = []
    for x in range(n):
        for y in range(n):
            lhs = float(d[x, y])
            for z in range(n):
                rhs = float(a[x, z]) * float(d[x, z]) + float(a[z, y]) * float(d[z, y])
                if lhs > rhs + TOLERANCE:
                    out.append(((pts[x], pts[y], pts[z]), lhs, rhs))
    return out


def d3_witnesses_tensor(spec) -> list:
    """:func:`d3_witnesses_bruteforce` from the full n^3 tensor of sums, for
    tables too large for the plain loops."""
    d, pts = spec.dist, spec.points
    with np.errstate(over="ignore", invalid="ignore"):
        m = spec.alpha * d
        sums = m[:, None, :] + m.T[None, :, :]  # sums[x, y, z] = m(x,z) + m(z,y)
        x, y, z = np.nonzero(d[:, :, None] > sums + TOLERANCE)
    return [((pts[i], pts[j], pts[k]), float(d[i, j]), float(sums[i, j, k]))
            for i, j, k in zip(x.tolist(), y.tolist(), z.tolist())]


def d3_live_rows_rule(d: np.ndarray, m: np.ndarray) -> list:
    """The (d3) screen's live rows by its per-row rule, from plain loops.

    With low[x] the smallest m[x, z] over z != x and L the smallest low,
    row x is clean when max_y d[x, y] <= (low[x] + L) + TOLERANCE, every
    m[x, y] >= d[x, y], and every m[z, z] >= 0."""
    d, m = d.tolist(), m.tolist()
    n = len(d)
    low = [min([v for z, v in enumerate(row) if z != x], default=math.inf)
           for x, row in enumerate(m)]
    least = min(low)
    diagonal_ok = all(m[z][z] >= 0 for z in range(n))
    return [x for x in range(n)
            if not (max(d[x]) <= (low[x] + least) + TOLERANCE and diagonal_ok
                    and all(m[x][y] >= d[x][y] for y in range(n)))]


def d3_live_rows_floor(d: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The (d3) live rows of an O(n^2) per-pair floor: each row's minimum off
    the diagonal plus each column's, and the sums through z in {x, y}. Tighter
    than the screen's rule, so its rows are a subset of the screen's."""
    off = m.copy()
    np.fill_diagonal(off, np.inf)
    floor = off.min(axis=1)[:, None] + off.min(axis=0)
    # once the minima are taken, off holds the sums through z = x, then z = y
    diag = np.diagonal(m)
    np.fmin(floor, np.add(diag[:, None], m, out=off), out=floor)
    np.fmin(floor, np.add(m, diag, out=off), out=floor)
    np.add(floor, TOLERANCE, out=floor)
    return np.flatnonzero((d > floor).any(axis=1))


def k_floor_bruteforce(d: np.ndarray) -> float:
    """Largest d(x,y) / (d(x,z) + d(z,y)) over the triples with z outside {x, y},
    from the full n^3 ratio tensor; 0 when no such triple exists."""
    n = len(d)
    denom = d[:, None, :] + d.T[None, :, :]  # denom[x, y, z] = d(x,z) + d(z,y)
    idx = np.arange(n)
    denom[idx, :, idx] = np.inf  # z = x: the ratio is 0
    denom[:, idx, idx] = np.inf  # z = y
    return float((d[:, :, None] / denom).max())


def unroll_terms(seq, count: int) -> list:
    """First ``count`` terms by walking prefix-then-cycle explicitly."""
    out = list(seq.prefix)
    i = 0
    while len(out) < count:
        out.append(seq.cycle[i % len(seq.cycle)])
        i += 1
    return out[:count]


def scan_horizon(seq, periods: int = 4) -> int:
    return len(seq.prefix) + periods * len(seq.cycle)


def rough_limit_direct(seq, space, x, r, eps_list=(1e-1, 1e-3, 1e-6), periods: int = 4) -> bool:
    """Definition-level scan: for every eps there is a start index from which
    every scanned term stays below r + eps.

    Admissible starts leave at least one full cycle inside the horizon, so the
    truncated "for all n >= n0" is equivalent to the infinite one by
    periodicity.
    """
    horizon = scan_horizon(seq, periods)
    dists = [space.distance(t, x) for t in unroll_terms(seq, horizon)]
    last_start = horizon - len(seq.cycle) + 1  # 1-indexed
    for eps in eps_list:
        if not any(
            all(dists[n - 1] < r + eps for n in range(n0, horizon + 1))
            for n0 in range(1, last_start + 1)
        ):
            return False
    return True


def limsup_definitional_ok(seq, space, x, limsup: float,
                           eps_list=(1e-1, 1e-3, 1e-6), periods: int = 4) -> bool:
    """limsup is an eventual upper bound and is approached in every period."""
    p, cyc = len(seq.prefix), len(seq.cycle)
    horizon = scan_horizon(seq, periods)
    dists = [space.distance(t, x) for t in unroll_terms(seq, horizon)]
    for eps in eps_list:
        if not all(dists[n - 1] < limsup + eps for n in range(p + 1, horizon + 1)):
            return False
        for start in range(p + 1, horizon - cyc + 2):
            if not any(dists[n - 1] > limsup - eps for n in range(start, start + cyc)):
                return False
    return True


def cluster_points_direct(seq, space) -> set:
    """Points approached within every eps infinitely often.

    On a finite table the quantifier over eps collapses at half the smallest
    positive distance, and "infinitely often" means "within one cycle window".
    """
    eps = space.min_positive_dist / 2 if math.isfinite(space.min_positive_dist) else 0.5
    p, cyc = len(seq.prefix), len(seq.cycle)
    window = unroll_terms(seq, p + cyc)[p:]
    return {c for c in space.points if any(space.distance(t, c) < eps for t in window)}


def strict_bound_ok(seq, space, bound: float, periods: int = 4) -> bool:
    """d(x_n, x_m) < bound checked exhaustively over materialized terms."""
    terms = unroll_terms(seq, scan_horizon(seq, periods))
    return all(space.distance(s, t) < bound for s in terms for t in terms)


# --- vectorized batch form of the definition-level rough-limit scan ---


def batch_terms(n_points: int, plen: int, clen: int, periods: int = 4) -> np.ndarray:
    """Index matrix of all (prefix, cycle) sequences with the given lengths.

    Row order: prefix tuples in lexicographic order, cycle tuples cycling
    fastest. Each row holds the first plen + periods*clen terms as point
    indices.
    """
    prefixes = np.stack(np.meshgrid(*[np.arange(n_points)] * plen, indexing="ij"),
                        axis=-1).reshape(-1, plen) if plen else np.zeros((1, 0), dtype=int)
    cycles = np.stack(np.meshgrid(*[np.arange(n_points)] * clen, indexing="ij"),
                      axis=-1).reshape(-1, clen)
    rep_pref = np.repeat(prefixes, len(cycles), axis=0)
    rep_cyc = np.tile(cycles, (len(prefixes), 1))
    return np.concatenate([rep_pref] + [rep_cyc] * periods, axis=1)


def batch_suffix_max(dist: np.ndarray, terms: np.ndarray, x_index: int) -> np.ndarray:
    """suffix_max[s, i] = max over scanned positions >= i of d(term, x)."""
    along = dist[terms, x_index]
    return np.flip(np.maximum.accumulate(np.flip(along, axis=1), axis=1), axis=1)


def batch_direct_scan(suffix_max: np.ndarray, plen: int, clen: int, r: float,
                      eps_list=(1e-1, 1e-3, 1e-6), periods: int = 4) -> np.ndarray:
    """Vector of definition-level scan results for one (x, r) over all rows.

    Start indices are restricted exactly as in :func:`rough_limit_direct`.
    """
    last_start = plen + (periods - 1) * clen + 1
    window = suffix_max[:, :last_start]
    ok = np.ones(suffix_max.shape[0], dtype=bool)
    for eps in eps_list:
        ok &= (window < r + eps).any(axis=1)
    return ok
