"""Tests of the benchmark's tracer: ``python -m pytest bench``."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import roughmetric  # noqa: E402
import spans  # noqa: E402


def test_self_time_of_nested_and_sibling_spans():
    # 0: op [0, 10] with children 1 [1, 4] and 3 [5, 6]; 2 [2, 3] nests in 1.
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    parent = np.array([-1, 0, 1, 0])
    np.testing.assert_allclose(spans.self_times(start, end, parent), [6.0, 2.0, 1.0, 1.0])


def test_totals_sum_self_time_per_name():
    tracer = spans.Tracer()
    a, b = tracer.name_id("a"), tracer.name_id("b")
    outer = tracer.open(a)
    for _ in range(2):
        tracer.close(tracer.open(b))
    tracer.close(outer)
    totals = tracer.totals()
    assert totals["a"][0] == 1 and totals["b"][0] == 2
    whole = tracer.end[outer] - tracer.start[outer]
    assert totals["a"][1] + totals["b"][1] == pytest.approx(whole)
    assert 0 < totals["a"][1] < whole


def test_wrappers_cover_every_binding_and_are_removed():
    rough, theorems = roughmetric.rough, roughmetric.theorems
    before = {(m.__name__, a): v for m in spans._modules() for a, v in vars(m).items()}
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        assert rough.rough_limit_set is theorems.rough_limit_set is roughmetric.rough_limit_set
        assert getattr(theorems.rough_limit_set, "bench_traced", False)
        theorems.fuzz(theorems.FuzzConfig(trials=2, seed=3))
    finally:
        spans.uninstall(patches)
    assert {m.__name__ for m, _, _ in patches} >= {
        "roughmetric", "roughmetric.rough", "roughmetric.theorems", "roughmetric.sequences"}
    assert spans.leftover_wrappers() == []
    for module, attr, original in patches:
        assert getattr(module, attr) is original is before[(module.__name__, attr)]
    calls = tracer.totals()
    assert calls["theorems.run_all"][0] == 2
    assert calls["rough.rough_limit_set"][0] > 2
