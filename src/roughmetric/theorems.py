"""Executable checks for the rough-convergence theorems, plus a fuzz harness.

Each check returns a :class:`TheoremReport`. Hypothesis filters run before any
conclusion is asserted: a report whose hypotheses fail is marked
not-applicable (vacuous pass), which the aggregation counts separately from a
pass with content. A failed report carries a re-checkable witness; since every
statement checked here is a proved theorem, any failure indicates an
implementation bug rather than a counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np
import yaml

from . import spaces
from .rough import cluster_points, critical_roughness, derived_set, rough_limit_set
from .sequences import (
    EpSequence,
    arithmetic_subsequence,
    boundedness,
    is_convergent,
    limsup_distance,
)
from .spaces import ControlledSpace, SpaceSpec, ball, build_space, diameter, leq


class TheoremId(Enum):
    T_DIAM = "T_DIAM"
    T_BALL_SANDWICH = "T_BALL_SANDWICH"
    T_DERIVED_SET = "T_DERIVED_SET"
    T_ROUGH_BOUNDED = "T_ROUGH_BOUNDED"
    T_BOUNDED_ROUGH = "T_BOUNDED_ROUGH"
    T_SUBSEQ = "T_SUBSEQ"
    T_SHADOW = "T_SHADOW"
    T_LIMSET_SEQ = "T_LIMSET_SEQ"
    T_CLUSTER_BALL = "T_CLUSTER_BALL"


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: TheoremId
    passed: bool
    applicable: bool
    params: dict
    witness: Optional[dict] = None
    details: dict = field(default_factory=dict)


def _na(theorem_id: TheoremId, params: dict, reason: str) -> TheoremReport:
    return TheoremReport(
        theorem_id=theorem_id,
        passed=True,
        applicable=False,
        params=params,
        details={"reason": reason},
    )


def check_diameter_bound(space: ControlledSpace, seq: EpSequence, r: float) -> TheoremReport:
    """diam(rough limit set of degree r) <= 2 r k, with k the control sup.

    Also records the corollary that the set is bounded (finite diameter), and
    the observed tightness ratio diam / (2 r k) when it is well defined.
    """
    params = {"space": space, "seq": seq, "r": r}
    members = rough_limit_set(seq, space, r).members
    diam = diameter(space, members)
    bound = 2.0 * r * space.sup_alpha
    passed = leq(diam, bound)
    witness = None
    if not passed:
        pair = max(combinations(space.ordered(members), 2), key=lambda p: space.distance(*p))
        witness = {"pair": list(pair), "distance": space.distance(*pair), "bound": bound}
    ratio = diam / bound if (r > 0 and members) else None
    details = {"diam": diam, "bound": bound, "limit_set_bounded": math.isfinite(diam)}
    if ratio is not None:
        details["diam_ratio"] = ratio
    return TheoremReport(TheoremId.T_DIAM, passed, True, params, witness, details)


def check_ball_sandwich(space: ControlledSpace, seq: EpSequence, r: float) -> TheoremReport:
    """For a convergent sequence with limit x:
    closed-ball(x, r) is inside the degree-(r k) rough limit set, and the
    degree-r rough limit set is inside closed-ball(x, r k).
    """
    params = {"space": space, "seq": seq, "r": r}
    x = is_convergent(seq, space)
    if x is None:
        return _na(TheoremId.T_BALL_SANDWICH, params, "sequence is not convergent")
    rk = r * space.sup_alpha
    inner = ball(space, x, r, "closed").members
    lim_rk = rough_limit_set(seq, space, rk).members
    lim_r = rough_limit_set(seq, space, r).members
    outer = ball(space, x, rk, "closed").members
    witness = None
    if not inner <= lim_rk:
        y = space.ordered(inner - lim_rk)[0]
        witness = {"inclusion": "ball_into_limit_set", "point": y,
                   "distance_to_limit": space.distance(x, y),
                   "limsup": limsup_distance(seq, space, y), "degree": rk}
    elif not lim_r <= outer:
        z = space.ordered(lim_r - outer)[0]
        witness = {"inclusion": "limit_set_into_ball", "point": z,
                   "distance_to_limit": space.distance(x, z), "radius": rk}
    return TheoremReport(
        TheoremId.T_BALL_SANDWICH, witness is None, True, params, witness,
        {"limit": x, "ball_radius": r, "outer_radius": rk},
    )


def check_derived_set(space: ControlledSpace, seq: EpSequence, r: float) -> TheoremReport:
    """Limit points of the degree-r rough limit set lie in the degree-(r k) one.

    On a finite space with positive distinct distances the derived set is
    empty, so the inclusion holds vacuously; the report records that rather
    than skipping the check. When the control function is identically 1 the
    same inclusion makes the rough limit set closed, which is checked too.
    """
    params = {"space": space, "seq": seq, "r": r}
    lim_r = rough_limit_set(seq, space, r).members
    derived = derived_set(space, lim_r)
    lim_rk = rough_limit_set(seq, space, r * space.sup_alpha).members
    passed = derived <= lim_rk
    control_is_one = space.sup_alpha <= 1.0 + spaces.TOLERANCE
    closed_ok = derived <= lim_r if control_is_one else None
    witness = None
    if not passed:
        y = space.ordered(derived - lim_rk)[0]
        witness = {"point": y, "limsup": limsup_distance(seq, space, y), "degree": r * space.sup_alpha}
    elif closed_ok is False:
        y = space.ordered(derived - lim_r)[0]
        witness = {"point": y, "limsup": limsup_distance(seq, space, y), "degree": r,
                   "note": "limit set not closed despite control function 1"}
    details = {"derived_set_size": len(derived), "vacuous": not derived,
               "control_identically_one": control_is_one}
    return TheoremReport(TheoremId.T_DERIVED_SET, witness is None, True, params, witness, details)


def check_rough_implies_bounded(space: ControlledSpace, seq: EpSequence, r: float) -> TheoremReport:
    """A sequence that rough-converges for degree r is bounded."""
    params = {"space": space, "seq": seq, "r": r}
    if not rough_limit_set(seq, space, r).members:
        return _na(TheoremId.T_ROUGH_BOUNDED, params, "no rough limit of this degree")
    report = boundedness(seq, space)
    passed = report.bounded and math.isfinite(report.bound)
    witness = None if passed else {"bound": report.bound}
    return TheoremReport(TheoremId.T_ROUGH_BOUNDED, passed, True, params, witness,
                         {"bound": report.bound})


def check_bounded_implies_rough(space: ControlledSpace, seq: EpSequence) -> TheoremReport:
    """A bounded sequence rough-converges with degree 2 k B, B a strict bound;
    every value the sequence takes is a rough limit of that degree."""
    params = {"space": space, "seq": seq}
    bound = boundedness(seq, space).bound
    degree = 2.0 * space.sup_alpha * bound
    witness = None
    for v in space.ordered(seq.value_set):
        ls = limsup_distance(seq, space, v)
        if not leq(ls, degree):
            witness = {"point": v, "limsup": ls, "degree": degree}
            break
    return TheoremReport(TheoremId.T_BOUNDED_ROUGH, witness is None, True, params, witness,
                         {"bound": bound, "degree": degree})


def check_subsequence(space: ControlledSpace, seq: EpSequence, r: float,
                      offset: int, stride: int) -> TheoremReport:
    """The degree-r rough limit set survives passing to a subsequence."""
    params = {"space": space, "seq": seq, "r": r, "offset": offset, "stride": stride}
    sub = arithmetic_subsequence(seq, offset, stride)
    lim_full = rough_limit_set(seq, space, r).members
    lim_sub = rough_limit_set(sub, space, r).members
    witness = None
    if not lim_full <= lim_sub:
        x = space.ordered(lim_full - lim_sub)[0]
        witness = {"point": x, "limsup_full": limsup_distance(seq, space, x),
                   "limsup_sub": limsup_distance(sub, space, x), "r": r}
    return TheoremReport(TheoremId.T_SUBSEQ, witness is None, True, params, witness,
                         {"subsequence": {"prefix": list(sub.prefix), "cycle": list(sub.cycle)}})


def check_shadowing(space: ControlledSpace, seq_a: EpSequence, seq_b: EpSequence,
                    r: float) -> TheoremReport:
    """If seq_a converges to xi and stays within r/k of seq_b termwise
    (eventually), then xi is a rough limit of seq_b with degree r."""
    if r <= 0:
        raise ValueError(f"shadowing check needs r > 0, got {r}")
    params = {"space": space, "seq_a": seq_a, "seq_b": seq_b, "r": r}
    xi = is_convergent(seq_a, space)
    if xi is None:
        return _na(TheoremId.T_SHADOW, params, "first sequence is not convergent")
    threshold = r / space.sup_alpha
    start = max(len(seq_a.prefix), len(seq_b.prefix))
    period = math.lcm(len(seq_a.cycle), len(seq_b.cycle))
    gaps = [space.distance(seq_a.term(i), seq_b.term(i))
            for i in range(start + 1, start + period + 1)]
    if not all(leq(g, threshold) for g in gaps):
        return _na(TheoremId.T_SHADOW, params,
                   f"termwise gap {max(gaps)!r} exceeds r/k = {threshold!r}")
    ls = limsup_distance(seq_b, space, xi)
    passed = leq(ls, r)
    witness = None if passed else {"limit": xi, "limsup": ls, "r": r}
    return TheoremReport(TheoremId.T_SHADOW, passed, True, params, witness,
                         {"limit": xi, "threshold": threshold, "max_gap": max(gaps)})


def check_limitset_sequence(space: ControlledSpace, seq: EpSequence, r: float,
                            probe: EpSequence) -> TheoremReport:
    """A convergent sequence living inside the degree-r rough limit set has its
    limit in the degree-(r k) rough limit set of the original sequence."""
    params = {"space": space, "seq": seq, "r": r, "probe": probe}
    lim_r = rough_limit_set(seq, space, r).members
    if not probe.value_set <= lim_r:
        return _na(TheoremId.T_LIMSET_SEQ, params, "probe leaves the rough limit set")
    xi = is_convergent(probe, space)
    if xi is None:
        return _na(TheoremId.T_LIMSET_SEQ, params, "probe is not convergent")
    degree = r * space.sup_alpha
    ls = limsup_distance(seq, space, xi)
    passed = leq(ls, degree)
    witness = None if passed else {"probe_limit": xi, "limsup": ls, "degree": degree}
    return TheoremReport(TheoremId.T_LIMSET_SEQ, passed, True, params, witness,
                         {"probe_limit": xi, "degree": degree})


def check_cluster_ball(space: ControlledSpace, seq: EpSequence, r: float) -> TheoremReport:
    """The degree-r rough limit set sits inside closed-ball(c, r k) for every
    cluster point c of the sequence."""
    params = {"space": space, "seq": seq, "r": r}
    lim_r = rough_limit_set(seq, space, r).members
    rk = r * space.sup_alpha
    witness = None
    for c in space.ordered(cluster_points(seq, space)):
        inside = ball(space, c, rk, "closed").members
        if not lim_r <= inside:
            x = space.ordered(lim_r - inside)[0]
            witness = {"cluster_point": c, "point": x,
                       "distance": space.distance(c, x), "radius": rk}
            break
    return TheoremReport(TheoremId.T_CLUSTER_BALL, witness is None, True, params, witness,
                         {"cluster_points": list(space.ordered(cluster_points(seq, space)))})


def _dispatch(theorem_id: TheoremId, params: dict) -> TheoremReport:
    """Re-run any check from its report params (single source for run/rerun)."""
    if theorem_id is TheoremId.T_DIAM:
        return check_diameter_bound(params["space"], params["seq"], params["r"])
    if theorem_id is TheoremId.T_BALL_SANDWICH:
        return check_ball_sandwich(params["space"], params["seq"], params["r"])
    if theorem_id is TheoremId.T_DERIVED_SET:
        return check_derived_set(params["space"], params["seq"], params["r"])
    if theorem_id is TheoremId.T_ROUGH_BOUNDED:
        return check_rough_implies_bounded(params["space"], params["seq"], params["r"])
    if theorem_id is TheoremId.T_BOUNDED_ROUGH:
        return check_bounded_implies_rough(params["space"], params["seq"])
    if theorem_id is TheoremId.T_SUBSEQ:
        return check_subsequence(params["space"], params["seq"], params["r"],
                                 params["offset"], params["stride"])
    if theorem_id is TheoremId.T_SHADOW:
        if params["r"] <= 0:
            return _na(theorem_id, params, "degree r = 0 is outside the theorem hypothesis r > 0")
        return check_shadowing(params["space"], params["seq_a"], params["seq_b"], params["r"])
    if theorem_id is TheoremId.T_LIMSET_SEQ:
        if params["probe"] is None:
            return _na(theorem_id, params, "empty rough limit set admits no probe sequence")
        return check_limitset_sequence(params["space"], params["seq"], params["r"],
                                       params["probe"])
    if theorem_id is TheoremId.T_CLUSTER_BALL:
        return check_cluster_ball(params["space"], params["seq"], params["r"])
    raise ValueError(f"unknown theorem id {theorem_id!r}")


def rerun(report: TheoremReport) -> TheoremReport:
    """Re-execute the check recorded in a report from its own params."""
    return _dispatch(report.theorem_id, report.params)


def _shadow_params(space: ControlledSpace, seq: EpSequence, r: float) -> dict:
    c0 = space.ordered(cluster_points(seq, space))[0]
    return {"space": space, "seq_a": EpSequence(cycle=(c0,)), "seq_b": seq, "r": r}


def _probe_params(space: ControlledSpace, seq: EpSequence, r: float) -> dict:
    members = rough_limit_set(seq, space, r).ordered()
    if not members:
        probe = None
    elif len(members) == 1:
        probe = EpSequence(cycle=(members[0],))
    else:
        probe = EpSequence(prefix=(members[1],), cycle=(members[0],))
    return {"space": space, "seq": seq, "r": r, "probe": probe}


def run_all(space: ControlledSpace, seq: EpSequence, r_grid: Sequence[float],
            offset: int = 1, stride: int = 2) -> list[TheoremReport]:
    """Every theorem check over every degree in the grid.

    The boundedness-implies-rough check takes no degree and runs once at the
    end. Shadowing pairs the sequence against the constant sequence at its
    first cluster point; the probe for the limit-set-sequence check is an
    eventually-constant sequence inside the computed rough limit set.
    """
    reports: list[TheoremReport] = []
    for r in r_grid:
        base = {"space": space, "seq": seq, "r": r}
        reports.append(_dispatch(TheoremId.T_DIAM, base))
        reports.append(_dispatch(TheoremId.T_BALL_SANDWICH, base))
        reports.append(_dispatch(TheoremId.T_DERIVED_SET, base))
        reports.append(_dispatch(TheoremId.T_ROUGH_BOUNDED, base))
        reports.append(_dispatch(TheoremId.T_SUBSEQ,
                                 {**base, "offset": offset, "stride": stride}))
        reports.append(_dispatch(TheoremId.T_SHADOW, _shadow_params(space, seq, r)))
        reports.append(_dispatch(TheoremId.T_LIMSET_SEQ, _probe_params(space, seq, r)))
        reports.append(_dispatch(TheoremId.T_CLUSTER_BALL, base))
    reports.append(_dispatch(TheoremId.T_BOUNDED_ROUGH, {"space": space, "seq": seq}))
    return reports


# --- randomized generation and the fuzz harness ---


@dataclass(frozen=True)
class FuzzConfig:
    trials: int = 1000
    max_points: int = 12
    max_cycle: int = 4
    max_prefix: int = 3
    seed: int = 0
    r_grid: Optional[tuple[float, ...]] = None  # None: per-trial default grid

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if min(self.max_points, self.max_cycle, self.max_prefix) < 1:
            raise ValueError("max_points, max_cycle and max_prefix must be >= 1")
        if self.r_grid is not None:
            grid = tuple(float(r) for r in self.r_grid)
            if not all(math.isfinite(r) and r >= 0 for r in grid):
                raise ValueError("r_grid values must be finite and >= 0")
            object.__setattr__(self, "r_grid", tuple(abs(r) for r in grid))  # -0.0 becomes 0.0


def random_space(rng: np.random.Generator, max_points: int) -> ControlledSpace:
    """A random valid space, built constructively (no rejection loop).

    Draw a symmetric positive off-diagonal distance table, take the largest
    ratio d(x,y) / (d(x,z) + d(z,y)) over triples with z distinct from both
    endpoints, then set every control entry to at least that ratio (times
    1 + noise, so the control function is genuinely non-constant). The
    triangle-type axiom then holds pointwise by construction.
    """
    n = 1 if max_points == 1 else int(rng.integers(2, max_points + 1))
    draw = rng.uniform(0.1, 10.0, size=(n, n))
    d = np.triu(draw, 1)
    d = d + d.T
    if n >= 3:
        denom = d[:, None, :] + d.T[None, :, :]  # denom[x, y, z] = d(x,z) + d(z,y)
        eye = np.eye(n, dtype=bool)
        valid = ~eye[:, :, None] & ~eye[:, None, :] & ~eye.T[None, :, :]
        ratios = np.where(valid, d[:, :, None] / np.where(valid, denom, 1.0), 0.0)
        k_floor = float(ratios.max())
    else:
        k_floor = 1.0
    alpha = max(1.0, k_floor) * (1.0 + rng.uniform(0.0, 1.0, size=(n, n)))
    spec = SpaceSpec(points=tuple(range(1, n + 1)), dist=d, alpha=alpha)
    return build_space(spec)


def random_sequence(rng: np.random.Generator, points: Sequence, max_prefix: int,
                    max_cycle: int) -> EpSequence:
    plen = int(rng.integers(0, max_prefix + 1))
    clen = int(rng.integers(1, max_cycle + 1))
    picks = rng.integers(0, len(points), size=plen + clen)
    return EpSequence(prefix=tuple(points[i] for i in picks[:plen]),
                      cycle=tuple(points[i] for i in picks[plen:]))


def default_r_grid(space: ControlledSpace, seq: EpSequence) -> tuple[float, ...]:
    """Degrees covering the empty, critical and saturated regimes:
    0, half the critical degree, the critical degree, the midpoint up to the
    space diameter, the diameter, and twice the diameter."""
    r_star = critical_roughness(seq, space).value
    diam = diameter(space, space.points)
    grid = [0.0, r_star / 2.0, r_star, (r_star + diam) / 2.0, diam, 2.0 * diam]
    return tuple(sorted(set(grid)))


@dataclass(frozen=True)
class FuzzSummary:
    config: FuzzConfig
    trials: int
    checks_total: int
    failures: int
    per_theorem: dict
    max_diam_ratio: Optional[float]
    witnesses: tuple


def fuzz(config: FuzzConfig) -> FuzzSummary:
    """Run ``config.trials`` independent random trials of every theorem check.

    Each trial draws its own RNG stream from the seed (splittable, so results
    do not depend on execution order) and runs :func:`run_all` on a fresh
    random space and sequence. Deterministic for a given config.
    """
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(config.trials)
    per_theorem = {tid: {"pass": 0, "not_applicable": 0, "fail": 0} for tid in TheoremId}
    witnesses: list[dict] = []
    checks_total = 0
    max_ratio: Optional[float] = None
    for trial, child in enumerate(children):
        rng = np.random.default_rng(child)
        space = random_space(rng, config.max_points)
        seq = random_sequence(rng, space.points, config.max_prefix, config.max_cycle)
        offset = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 5))
        grid = config.r_grid if config.r_grid is not None else default_r_grid(space, seq)
        for report in run_all(space, seq, grid, offset=offset, stride=stride):
            checks_total += 1
            bucket = per_theorem[report.theorem_id]
            if not report.passed:
                bucket["fail"] += 1
                witnesses.append({
                    "trial": trial,
                    "theorem": report.theorem_id.value,
                    "witness": report.witness,
                    "r": report.params.get("r"),
                    "sequence": {"prefix": list(seq.prefix), "cycle": list(seq.cycle)},
                    "space_points": len(space.points),
                })
            elif report.applicable:
                bucket["pass"] += 1
            else:
                bucket["not_applicable"] += 1
            ratio = report.details.get("diam_ratio")
            if ratio is not None and (max_ratio is None or ratio > max_ratio):
                max_ratio = ratio
    return FuzzSummary(
        config=config,
        trials=config.trials,
        checks_total=checks_total,
        failures=len(witnesses),
        per_theorem={tid.value: dict(counts) for tid, counts in per_theorem.items()},
        max_diam_ratio=max_ratio,
        witnesses=tuple(witnesses),
    )


def render_summary(summary: FuzzSummary) -> str:
    """Deterministic structured-text rendering; identical config and seed give
    byte-identical output."""
    doc = {
        "config": {
            "trials": summary.config.trials,
            "max_points": summary.config.max_points,
            "max_cycle": summary.config.max_cycle,
            "max_prefix": summary.config.max_prefix,
            "seed": summary.config.seed,
            "r_grid": "default" if summary.config.r_grid is None
                      else [float(r) for r in summary.config.r_grid],
        },
        "results": {
            "trials": summary.trials,
            "checks_total": summary.checks_total,
            "failures": summary.failures,
            "per_theorem": summary.per_theorem,
            "max_diam_ratio": summary.max_diam_ratio,
            "witnesses": [dict(w) for w in summary.witnesses],
        },
    }
    return yaml.safe_dump(doc, sort_keys=False)
