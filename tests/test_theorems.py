import hashlib
import math
import tracemalloc

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from roughmetric import theorems
from roughmetric.cli import main
from roughmetric import (
    EpSequence,
    FuzzConfig,
    RoughLimitSet,
    SpaceSpec,
    TheoremId,
    ball,
    build_space,
    check_ball_sandwich,
    check_bounded_implies_rough,
    check_cluster_ball,
    check_derived_set,
    check_diameter_bound,
    check_limitset_sequence,
    check_rough_implies_bounded,
    check_shadowing,
    check_subsequence,
    default_r_grid,
    diameter,
    fuzz,
    is_rough_limit,
    load_space,
    paper_example_spec,
    random_sequence,
    random_space,
    render_summary,
    rerun,
    rough_limit_set,
    run_all,
    validate_axioms,
)

from oracles import k_floor_bruteforce

SQRT2 = math.sqrt(2)
R_CRIT = 1 / SQRT2


# --- individual checks on the worked example ---

def test_diameter_bound_golden(paper4, xi):
    report = check_diameter_bound(paper4, xi, R_CRIT)
    assert report.passed and report.applicable
    assert report.details["diam"] == R_CRIT
    assert report.details["bound"] == pytest.approx(2 * R_CRIT * 2.0)
    assert report.details["limit_set_bounded"]
    assert report.details["diam_ratio"] == pytest.approx(R_CRIT / (2 * R_CRIT * 2.0))


def test_diameter_bound_degree_zero(paper4):
    report = check_diameter_bound(paper4, EpSequence(cycle=(2,)), 0.0)
    assert report.passed
    assert report.details["diam"] == 0.0
    assert "diam_ratio" not in report.details


def test_ball_sandwich_constant(paper4):
    report = check_ball_sandwich(paper4, EpSequence(cycle=(2,)), 0.0)
    assert report.passed and report.applicable


def test_ball_sandwich_eventually_constant(paper4):
    seq = EpSequence(prefix=(3, 1), cycle=(2,))
    report = check_ball_sandwich(paper4, seq, R_CRIT)
    assert report.passed and report.applicable
    assert report.details["limit"] == 2


def test_ball_sandwich_not_applicable(paper4, xi):
    report = check_ball_sandwich(paper4, xi, R_CRIT)
    assert report.passed and not report.applicable
    assert "not convergent" in report.reason


def test_derived_set_check_records_vacuity(paper4, xi):
    report = check_derived_set(paper4, xi, R_CRIT)
    assert report.passed and report.applicable
    assert report.details["vacuous"] and report.details["derived_set_size"] == 0
    assert not report.details["control_identically_one"]


def test_derived_set_check_alpha_one():
    space = build_space(SpaceSpec(("a", "b", "c"),
                                  [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
                                  np.ones((3, 3))))
    report = check_derived_set(space, EpSequence(cycle=("a", "b")), 1.0)
    assert report.passed
    assert report.details["control_identically_one"]


def test_rough_implies_bounded(paper4, xi):
    report = check_rough_implies_bounded(paper4, xi, R_CRIT)
    assert report.passed and report.applicable
    assert report.details["bound"] == R_CRIT + 1

    empty = check_rough_implies_bounded(paper4, xi, 0.1)
    assert empty.passed and not empty.applicable


def test_bounded_implies_rough(paper4, xi):
    report = check_bounded_implies_rough(paper4, xi)
    assert report.passed and report.applicable
    assert report.details["bound"] == R_CRIT + 1
    assert report.details["degree"] == pytest.approx(4 * (R_CRIT + 1))

    const = check_bounded_implies_rough(paper4, EpSequence(cycle=(3,)))
    assert const.details["bound"] == 1.0
    assert const.details["degree"] == pytest.approx(2 * 2.0 * 1.0)


def test_subsequence_check(paper4, xi):
    report = check_subsequence(paper4, xi, R_CRIT, offset=1, stride=2)
    assert report.passed
    assert report.details["subsequence"]["cycle"] == [2]

    identity = check_subsequence(paper4, xi, R_CRIT, offset=1, stride=1)
    assert identity.passed


def test_shadowing_golden(paper4, xi):
    a = EpSequence(cycle=(2,))
    r = 2 * R_CRIT
    report = check_shadowing(paper4, a, xi, r)
    assert report.passed and report.applicable
    assert report.details["limit"] == 2
    assert report.details["threshold"] == pytest.approx(R_CRIT)
    assert report.details["max_gap"] == R_CRIT


def test_shadowing_same_sequence(paper4):
    seq = EpSequence(prefix=(4,), cycle=(2,))
    report = check_shadowing(paper4, seq, seq, 0.5)
    assert report.passed and report.applicable


def test_shadowing_hypothesis_filters(paper4, xi):
    not_conv = check_shadowing(paper4, xi, xi, 1.0)
    assert not not_conv.applicable

    # constant at 2 vs constant at 4: gap 1 > r/k = 0.05
    far = check_shadowing(paper4, EpSequence(cycle=(2,)), EpSequence(cycle=(4,)), 0.1)
    assert not far.applicable
    assert "exceeds" in far.reason

    zero = check_shadowing(paper4, xi, xi, 0.0)
    assert zero.passed and not zero.applicable
    assert zero.reason == "degree r = 0 is outside the theorem hypothesis r > 0"
    with pytest.raises(ValueError):
        check_shadowing(paper4, xi, xi, -1.0)


def test_limitset_sequence_check(paper4, xi):
    probe = EpSequence(cycle=(3,))
    report = check_limitset_sequence(paper4, xi, R_CRIT, probe)
    assert report.passed and report.applicable
    assert report.details["probe_limit"] == 3

    outside = check_limitset_sequence(paper4, xi, R_CRIT, EpSequence(cycle=(4,)))
    assert not outside.applicable

    wandering = check_limitset_sequence(paper4, xi, R_CRIT, EpSequence(cycle=(2, 3)))
    assert not wandering.applicable
    assert "not convergent" in wandering.reason


def test_cluster_ball_check(paper4, xi):
    report = check_cluster_ball(paper4, xi, R_CRIT)
    assert report.passed and report.applicable
    assert report.details["cluster_points"] == [2, 3]

    conv = check_cluster_ball(paper4, EpSequence(cycle=(2,)), 0.0)
    assert conv.passed


# --- faults injected below a check reach its witness ---

def _everything(seq, space, r):
    return RoughLimitSet(r, frozenset(space.points))


def _nothing(seq, space, r):
    return RoughLimitSet(r, frozenset())


def _every_point(space, subset):
    return frozenset(space.points)  # as if every point were a limit point


def _unbounded(seq, space):
    return math.inf


def _far(seq, space, x):
    return 7.0  # beyond every degree below


def _stray(seq, offset, stride):
    return EpSequence(cycle=(1,))  # a subsequence at a point the sequence never takes


def _point_ball(space, center, radius, kind="open"):
    return ball(space, center, 0.0, kind)


def _strict(a, b):
    return a < b  # no tolerance: a bound met exactly fails


def test_diameter_bound_failure_witness(monkeypatch, paper4):
    # the pair is the first farthest one in point order, whatever order the set gives
    flipped = build_space(SpaceSpec(paper4.points[::-1], paper4.dist[::-1, ::-1],
                                    paper4.alpha[::-1, ::-1]))
    for space, members, pair, distance in ((paper4, {4, 3, 2, 1}, [1, 3], 1.0),
                                           (flipped, {1, 2, 3, 4}, [4, 2], 1.0),
                                           (paper4, {4, 2, 3}, [2, 4], 1.0),
                                           (paper4, {4, 1}, [1, 4], 0.5)):
        monkeypatch.setattr(theorems, "rough_limit_set",
                            lambda seq, sp, r: RoughLimitSet(r, frozenset(members)))
        report = check_diameter_bound(space, EpSequence(cycle=(2,)), 0.1)
        assert (report.passed, report.applicable) == (False, True)
        assert report.witness == {"pair": pair, "distance": distance, "bound": 0.4}
        assert report.details["diam"] == distance
        assert rerun(report) == report


#: k = 1 + 9e-10 is within the tolerance of 1, so the closedness branch of
#: T_DERIVED_SET is live, and at r = 1 - 1.5e-9 the point b (limsup 1) lies in
#: the degree-rk rough limit set of the constant a but not in the degree-r one.
NEAR_ONE_DOC = """\
points: [a, b]
dist:
- [0, 1]
- [1, 0]
alpha:
- [1, 1.0000000009]
- [1.0000000009, 1]
"""
NEAR_ONE_R = 0.9999999985

P4 = "paper-example:4"


@pytest.mark.parametrize("fault, check, args, witness, source, cli, line", [
    (("rough_limit_set", _everything), check_diameter_bound, (EpSequence(cycle=(2, 3)), 0.2),
     {"pair": [1, 3], "distance": 1.0, "bound": 0.8}, P4, "2,3 0.2",
     "[FAIL] T_DIAM r=0.2  witness: {'pair': [1, 3], 'distance': 1.0, 'bound': 0.8}"),
    (("leq", _strict), check_diameter_bound, (EpSequence(cycle=(2,)), 0.0),
     {"distance": 0.0, "bound": 0.0}, P4, "2 0",
     "[FAIL] T_DIAM r=0  witness: {'distance': 0.0, 'bound': 0.0}"),
    (("rough_limit_set", _nothing), check_ball_sandwich, (EpSequence(cycle=(2,)), R_CRIT),
     {"inclusion": "ball_into_limit_set", "point": 1, "distance_to_limit": R_CRIT,
      "limsup": R_CRIT, "degree": 2 * R_CRIT}, P4, "2 1",
     "[FAIL] T_BALL_SANDWICH r=1  witness: {'inclusion': 'ball_into_limit_set', 'point': 1, "
     "'distance_to_limit': 0.7071067811865475, 'limsup': 0.7071067811865475, 'degree': 2.0}"),
    (("rough_limit_set", _everything), check_ball_sandwich, (EpSequence(cycle=(2,)), 0.2),
     {"inclusion": "limit_set_into_ball", "point": 1, "distance_to_limit": R_CRIT,
      "radius": 0.4}, P4, "2 0.2",
     "[FAIL] T_BALL_SANDWICH r=0.2  witness: {'inclusion': 'limit_set_into_ball', 'point': 1, "
     "'distance_to_limit': 0.7071067811865475, 'radius': 0.4}"),
    (("derived_set", _every_point), check_derived_set, (EpSequence(cycle=(2, 3)), 0.2),
     {"point": 1, "limsup": 1.0, "degree": 0.4}, P4, "2,3 0.2",
     "[FAIL] T_DERIVED_SET r=0.2  witness: {'point': 1, 'limsup': 1.0, 'degree': 0.4}"),
    (("derived_set", _every_point), check_derived_set, (EpSequence(cycle=("a",)), NEAR_ONE_R),
     {"point": "b", "limsup": 1.0, "degree": NEAR_ONE_R,
      "note": "limit set not closed despite control function 1"},
     NEAR_ONE_DOC, f"a {NEAR_ONE_R}",
     "[FAIL] T_DERIVED_SET r=0.9999999985  witness: {'point': 'b', 'limsup': 1.0, "
     "'degree': 0.9999999985, 'note': 'limit set not closed despite control function 1'}"),
    (("boundedness", _unbounded), check_rough_implies_bounded, (EpSequence(cycle=(2, 3)), R_CRIT),
     {"bound": math.inf}, P4, "2,3 1", "[FAIL] T_ROUGH_BOUNDED r=1  witness: {'bound': inf}"),
    (("limsup_distance", _far), check_bounded_implies_rough, (EpSequence(cycle=(2, 3)),),
     {"point": 2, "limsup": 7.0, "degree": 4 * (R_CRIT + 1)}, P4, "2,3 1",
     "[FAIL] T_BOUNDED_ROUGH  witness: {'point': 2, 'limsup': 7.0, 'degree': 6.82842712474619}"),
    (("arithmetic_subsequence", _stray), check_subsequence, (EpSequence(cycle=(2, 3)), 0.8, 1, 2),
     {"point": 3, "limsup_full": R_CRIT, "limsup_sub": 1.0, "r": 0.8}, P4, "2,3 0.8",
     "[FAIL] T_SUBSEQ r=0.8  witness: {'point': 3, 'limsup_full': 0.7071067811865475, "
     "'limsup_sub': 1.0, 'r': 0.8}"),
    (("limsup_distance", _far), check_shadowing,
     (EpSequence(cycle=(2,)), EpSequence(cycle=(2, 3)), 2 * R_CRIT),
     {"limit": 2, "limsup": 7.0, "r": 2 * R_CRIT}, P4, "2,3 2",
     "[FAIL] T_SHADOW r=2  witness: {'limit': 2, 'limsup': 7.0, 'r': 2.0}"),
    (("limsup_distance", _far), check_limitset_sequence,
     (EpSequence(cycle=(2, 3)), R_CRIT, EpSequence(cycle=(3,))),
     {"probe_limit": 3, "limsup": 7.0, "degree": 2 * R_CRIT}, P4, "2,3 2",
     "[FAIL] T_LIMSET_SEQ r=2  witness: {'probe_limit': 1, 'limsup': 7.0, 'degree': 4.0}"),
    (("ball", _point_ball), check_cluster_ball, (EpSequence(cycle=(2, 3)), R_CRIT),
     {"cluster_point": 2, "point": 3, "distance": R_CRIT, "radius": 2 * R_CRIT}, P4, "2,3 1",
     "[FAIL] T_CLUSTER_BALL r=1  witness: {'cluster_point': 2, 'point': 1, "
     "'distance': 0.7071067811865475, 'radius': 2.0}"),
], ids=["T_DIAM", "T_DIAM-one-point", "T_BALL_SANDWICH-ball_into_limit_set",
        "T_BALL_SANDWICH-limit_set_into_ball", "T_DERIVED_SET", "T_DERIVED_SET-closed",
        "T_ROUGH_BOUNDED", "T_BOUNDED_ROUGH", "T_SUBSEQ", "T_SHADOW", "T_LIMSET_SEQ",
        "T_CLUSTER_BALL"])
def test_injected_fault_fails_the_check_cleanly(monkeypatch, tmp_path, paper4, fault, check, args,
                                                witness, source, cli, line):
    space = paper4
    if source != P4:
        space = build_space(load_space(source))
        path = tmp_path / "space.yaml"
        path.write_text(source)
        source = str(path)
    monkeypatch.setattr(theorems, *fault)
    report = check(space, *args)
    assert (report.passed, report.applicable, report.witness) == (False, True, witness)
    assert rerun(report) == report
    seq, grid = cli.split()
    result = CliRunner().invoke(main, ["theorems", source, "--seq", seq, "--r-grid", grid])
    assert (result.exit_code, type(result.exception)) == (1, SystemExit)
    assert line in result.output.splitlines() and "Traceback" not in result.output


# --- run_all and rerun ---

def test_run_all_report_structure(paper10, xi):
    grid = default_r_grid(paper10, xi)
    reports = run_all(paper10, xi, grid)
    assert len(reports) == 8 * len(grid) + 1
    assert all(rep.passed for rep in reports)
    assert reports[-1].theorem_id is TheoremId.T_BOUNDED_ROUGH
    per_r = [rep for rep in reports if rep.params.get("r") == grid[0]]
    assert len(per_r) == 8


def test_run_all_zero_includes_na_shadow(paper10, xi):
    reports = run_all(paper10, xi, [0.0])
    shadow = [rep for rep in reports if rep.theorem_id is TheoremId.T_SHADOW][0]
    assert not shadow.applicable and shadow.passed


def test_rerun_reproduces_every_report(paper10, xi):
    for report in run_all(paper10, xi, default_r_grid(paper10, xi)):
        again = rerun(report)
        assert again.theorem_id == report.theorem_id
        assert (again.passed, again.applicable) == (report.passed, report.applicable)
        assert again.witness == report.witness
        assert again.details == report.details
        assert again.reason == report.reason


RUN_ALL_ORDER = [
    TheoremId.T_DIAM, TheoremId.T_BALL_SANDWICH, TheoremId.T_DERIVED_SET,
    TheoremId.T_ROUGH_BOUNDED, TheoremId.T_SUBSEQ, TheoremId.T_SHADOW,
    TheoremId.T_LIMSET_SEQ, TheoremId.T_CLUSTER_BALL,
]


def test_run_all_follows_the_table(paper10, xi):
    assert list(theorems._CHECKS) == RUN_ALL_ORDER + [TheoremId.T_BOUNDED_ROUGH]
    grid = default_r_grid(paper10, xi)
    reports = run_all(paper10, xi, grid)
    assert [rep.theorem_id for rep in reports] == \
        RUN_ALL_ORDER * len(grid) + [TheoremId.T_BOUNDED_ROUGH]
    for i, r in enumerate(grid):
        assert all(rep.params["r"] == r for rep in reports[8 * i:8 * i + 8])


def test_checks_are_looked_up_at_call_time(monkeypatch, paper10, xi):
    calls = []
    original = theorems.check_cluster_ball

    def counting(*args, **kwargs):
        calls.append(kwargs["r"])
        return original(*args, **kwargs)

    monkeypatch.setattr(theorems, "check_cluster_ball", counting)
    grid = default_r_grid(paper10, xi)
    reports = run_all(paper10, xi, grid)
    assert calls == list(grid)
    cluster = [rep for rep in reports if rep.theorem_id is TheoremId.T_CLUSTER_BALL][0]
    again = rerun(cluster)
    assert (again.passed, again.witness, again.details) == \
        (cluster.passed, cluster.witness, cluster.details)
    assert len(calls) == len(grid) + 1


def test_rerun_keeps_the_hypothesis_guards(paper10, xi):
    reports = run_all(paper10, xi, [0.0])
    guarded = {rep.theorem_id: rep for rep in reports
               if rep.theorem_id in (TheoremId.T_SHADOW, TheoremId.T_LIMSET_SEQ)}
    assert guarded[TheoremId.T_LIMSET_SEQ].params["probe"] is None
    for rep in guarded.values():
        assert not rep.applicable
        assert rerun(rep).reason == rep.reason
    shadow = guarded[TheoremId.T_SHADOW]
    assert check_shadowing(**shadow.params).details == shadow.details
    with pytest.raises(ValueError):
        check_shadowing(**{**shadow.params, "r": -1.0})


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_every_report_replays_through_its_own_check(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng, 8)
    seq = random_sequence(rng, space.points, 3, 4)
    grid = default_r_grid(space, seq)
    assert grid[0] == 0.0  # r = 0 reaches the shadowing guard
    reports = run_all(space, seq, grid)
    # the degree-0 limit set of a non-convergent sequence is empty: no probe
    assert any(rep.params.get("probe", ...) is None for rep in reports)
    for rep in reports:
        direct = getattr(theorems, theorems._CHECKS[rep.theorem_id])(**rep.params)
        again = rerun(rep)
        assert (direct.passed, direct.applicable, direct.witness, direct.details, direct.reason) == \
            (again.passed, again.applicable, again.witness, again.details, again.reason)


NAN = math.nan


@pytest.mark.parametrize("call, what", [
    (lambda space, seq: run_all(space, seq, [NAN]), "roughness degree"),
    (lambda space, seq: rough_limit_set(seq, space, NAN), "roughness degree"),
    (lambda space, seq: is_rough_limit(seq, space, 2, NAN), "roughness degree"),
    (lambda space, seq: check_shadowing(space, EpSequence(cycle=(2,)), seq, NAN),
     "roughness degree"),
    (lambda space, seq: ball(space, 2, NAN, "closed"), "radius"),
], ids=["run_all", "rough_limit_set", "is_rough_limit", "check_shadowing", "ball"])
def test_nan_degree_is_rejected(paper4, xi, call, what):
    with pytest.raises(ValueError, match=f"^{what} must be >= 0, got nan$"):
        call(paper4, xi)


# --- random generation ---

def test_random_space_is_valid_and_bounded():
    rng = np.random.default_rng(11)
    for _ in range(50):
        space = random_space(rng, 7)
        assert 2 <= len(space.points) <= 7
        assert validate_axioms(space.spec).valid
        assert (space.alpha >= 1.0).all()
        d = space.dist
        assert (d == d.T).all()
        off = d[~np.eye(len(space.points), dtype=bool)]
        assert (off > 0).all()


def test_random_space_single_point():
    rng = np.random.default_rng(0)
    space = random_space(rng, 1)
    assert space.points == (1,)


def seed_drawing(n: int) -> int:
    """The first seed whose ``random_space(rng, n)`` draws exactly n points."""
    return next(s for s in range(10_000)
                if n == 1 or np.random.default_rng(s).integers(2, n + 1) == n)


@pytest.mark.parametrize("n", [1, 2, 3, 12, 60])
def test_random_space_k_floor_matches_bruteforce(n):
    # a seed whose draw has exactly n points, replayed by hand against the n^3 ratio tensor
    seed = seed_drawing(n)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    space = random_space(rng, n)
    if n > 1:
        ref.integers(2, n + 1)
    d = np.triu(ref.uniform(0.1, 10.0, size=(n, n)), 1)
    d = d + d.T
    alpha = max(1.0, k_floor_bruteforce(d)) * (1.0 + ref.uniform(0.0, 1.0, size=(n, n)))
    assert space.n == n
    assert np.array_equal(space.dist, d) and np.array_equal(space.alpha, alpha)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_random_space_memory_is_quadratic():
    rng = np.random.default_rng(seed_drawing(200))
    tracemalloc.start()
    try:
        assert random_space(rng, 200).n == 200
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20  # the n^3 table of sums alone is 61 MiB


def test_random_sequence_respects_limits():
    rng = np.random.default_rng(3)
    space = random_space(rng, 6)
    for _ in range(40):
        seq = random_sequence(rng, space.points, max_prefix=2, max_cycle=3)
        assert len(seq.prefix) <= 2
        assert 1 <= len(seq.cycle) <= 3
        assert seq.value_set <= set(space.points)


def test_default_r_grid_shape(paper10, xi):
    grid = default_r_grid(paper10, xi)
    assert grid == tuple(sorted(set(grid)))
    assert grid[0] == 0.0
    assert 1 / SQRT2 in grid
    assert diameter(paper10, paper10.points) in grid
    assert grid[-1] == 2 * diameter(paper10, paper10.points)


# --- the fuzz harness ---

def test_fuzz_config_validation():
    with pytest.raises(ValueError):
        FuzzConfig(trials=0)
    with pytest.raises(ValueError):
        FuzzConfig(max_points=0)
    for field, bound in (("max_points", 200), ("max_cycle", 10_000), ("max_prefix", 10_000)):
        FuzzConfig(trials=1, **{field: bound})
        with pytest.raises(ValueError, match=f"<= {bound}"):
            FuzzConfig(trials=1, **{field: bound + 1})
    with pytest.raises(ValueError, match="seed"):
        FuzzConfig(seed=-1)
    with pytest.raises(ValueError):
        FuzzConfig(r_grid=(-1.0,))
    for r in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            FuzzConfig(r_grid=(1.0, r))


def test_fuzz_config_maps_negative_zero_degree_to_zero():
    grid = FuzzConfig(trials=1, r_grid=(-0.0, 1.0)).r_grid
    assert grid == (0.0, 1.0)
    assert math.copysign(1.0, grid[0]) == 1.0  # r = 0, not r = -0


def test_fuzz_small_run_is_clean_and_counts_add_up():
    summary = fuzz(FuzzConfig(trials=150, seed=7))
    assert summary.failures == 0
    assert summary.witnesses == ()
    total = sum(sum(c.values()) for c in summary.per_theorem.values())
    assert total == summary.checks_total
    assert summary.per_theorem["T_DIAM"]["fail"] == 0
    # every theorem is exercised with its hypotheses genuinely satisfied,
    # and the hypothesis-gated ones also hit the not-applicable branch
    assert all(counts["pass"] > 0 for counts in summary.per_theorem.values())
    assert summary.per_theorem["T_BALL_SANDWICH"]["not_applicable"] > 0
    assert summary.per_theorem["T_SHADOW"]["not_applicable"] > 0
    assert summary.per_theorem["T_ROUGH_BOUNDED"]["not_applicable"] > 0
    assert summary.max_diam_ratio is not None
    assert summary.max_diam_ratio <= 1 + 1e-9


def test_fuzz_is_reproducible_and_seed_sensitive():
    config = FuzzConfig(trials=60, seed=123)
    first = render_summary(fuzz(config))
    second = render_summary(fuzz(config))
    assert first == second
    other = render_summary(fuzz(FuzzConfig(trials=60, seed=124)))
    assert other != first


def test_fuzz_summary_digest_is_pinned():
    text = render_summary(fuzz(FuzzConfig(trials=300, seed=0)))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "dbbda2d4cd30d972193a9fc075e9ef8135da56a5249ed7dd095c0e22a9b72844"


@pytest.mark.parametrize("seed, trials, trial", [(0, 300, 0), (0, 300, 299), (7, 5, 3), (2**40, 12, 11)])
def test_fuzz_trial_stream_is_the_spawned_child(monkeypatch, seed, trials, trial):
    drawn = []
    original = theorems.random_space

    def recording(rng, max_points):
        drawn.append(rng.bit_generator.state)
        return original(rng, max_points)

    monkeypatch.setattr(theorems, "random_space", recording)
    monkeypatch.setattr(theorems, "run_all", lambda *args, **kwargs: [])
    fuzz(FuzzConfig(trials=trial + 1, seed=seed))
    child = np.random.SeedSequence(seed).spawn(trials)[trial]
    assert drawn[trial] == np.random.default_rng(child).bit_generator.state


def test_fuzz_honours_fixed_r_grid():
    summary = fuzz(FuzzConfig(trials=40, seed=5, r_grid=(0.0, 1.0)))
    assert summary.failures == 0
    # 8 degree-dependent checks x 2 degrees + 1 per trial
    assert summary.checks_total == 40 * (8 * 2 + 1)


def test_render_summary_is_parseable():
    summary = fuzz(FuzzConfig(trials=25, seed=9))
    doc = yaml.safe_load(render_summary(summary))
    assert doc["config"]["seed"] == 9
    assert doc["config"]["r_grid"] == "default"
    assert doc["results"]["failures"] == 0
    assert doc["results"]["trials"] == 25
    assert set(doc["results"]["per_theorem"]) == {tid.value for tid in TheoremId}


def test_fuzz_counts_failures_from_injected_fault(monkeypatch):
    # at r = 100 every rough limit set is the whole space (distances are below 10),
    # so an unbounded boundedness fails T_ROUGH_BOUNDED once per trial and nothing else
    monkeypatch.setattr(theorems, "boundedness", _unbounded)
    summary = fuzz(FuzzConfig(trials=5, seed=3, r_grid=(100.0,)))
    assert summary.per_theorem["T_ROUGH_BOUNDED"] == {"pass": 0, "not_applicable": 0, "fail": 5}
    assert sum(c["fail"] for c in summary.per_theorem.values()) == summary.failures == 5
    assert [(w["trial"], w["theorem"], w["r"], w["witness"]) for w in summary.witnesses] == \
        [(t, "T_ROUGH_BOUNDED", 100.0, {"bound": math.inf}) for t in range(5)]
