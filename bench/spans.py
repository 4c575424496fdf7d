"""Span tracing for the benchmark's traced run.

:func:`install` wraps each public layer function listed in :data:`LAYERS` at
every ``roughmetric`` module binding that holds it (``roughmetric.rough`` and
``roughmetric.theorems`` both bind ``rough_limit_set``, for example), so calls
through any import path are recorded. :func:`uninstall` puts every original
back. Nothing under ``src/`` is edited.

Each call records one span: name, start, end, parent span and op id. Spans are
kept in compact arrays in memory and written to an ``.npz`` file when the run
ends. Spans of one thread nest properly, so the direct children of a span are
disjoint and its self time is its duration minus the sum of theirs.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = {
    "spaces": ("validate_axioms", "build_space", "ball", "diameter"),
    "sequences": ("limsup_distance", "is_convergent", "boundedness", "arithmetic_subsequence"),
    "rough": ("rough_limit_set", "is_rough_limit", "critical_roughness", "derived_set"),
    "theorems": (
        "check_diameter_bound", "check_ball_sandwich", "check_derived_set",
        "check_rough_implies_bounded", "check_bounded_implies_rough", "check_subsequence",
        "check_shadowing", "check_limitset_sequence", "check_cluster_ball",
        "run_all", "render_summary", "random_space", "random_sequence", "default_r_grid",
    ),
    "fileformat": ("load_space", "dump_space"),
}

#: Functions whose answer is read off the limsup vector of a (space, sequence) pair.
LIMSUP_QUERIES = frozenset({
    "sequences.limsup_distance", "rough.is_rough_limit",
    "rough.rough_limit_set", "rough.critical_roughness",
})

#: Sizes whose validate_axioms time is reported on its own.
VALIDATE_SIZES = (50, 100, 200)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


class Tracer:
    """In-memory span store for one process, plus counters read off call arguments."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        self._pairs: dict = {}  # (id(space), seq) -> space, held so ids stay unique

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def parent_name(self, idx: int) -> str | None:
        p = self.parent[idx]
        return None if p < 0 else self.names[self.name[p]]

    def observe(self, qualname: str, idx: int, args: tuple, result) -> None:
        """Counters that need a call's arguments or result."""
        if qualname in LIMSUP_QUERIES and self.parent_name(idx) not in LIMSUP_QUERIES:
            seq, space = args[0], args[1]
            self.counters["limsup_queries"] += 1
            self._pairs.setdefault((id(space), seq), space)
        elif qualname == "spaces.validate_axioms":
            n = args[0].n
            self.counters["validate_triples"] += n ** 3
            if n in VALIDATE_SIZES:
                self.samples[f"validate_n{n}"].append(self.end[idx] - self.start[idx])
        elif qualname == "fileformat.load_space":
            self.counters["load_bytes"] += len(args[0].encode())
        elif qualname == "theorems.run_all":
            self.counters["reports"] += len(result)
            self.counters["content_pass"] += sum(r.applicable and r.passed for r in result)
            self.counters["not_applicable"] += sum(not r.applicable for r in result)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        """Write every span, the name table and the counters to ``path`` (.npz)."""
        counters = dict(self.counters, limsup_pairs=len(self._pairs))
        meta = {"names": self.names, "counters": counters, "samples": self.samples}
        np.savez(path, meta=np.array(json.dumps(meta)), **self.arrays())

    def absorb(self, path, op_id: int, outer: int) -> None:
        """Append the spans a child process saved; its root spans become
        children of span ``outer`` (the op that ran the child) in op ``op_id``.
        Both processes read the same monotonic clock."""
        with np.load(path) as data:
            meta = json.loads(data["meta"].item())
            base = len(self.start)
            remap = [self.name_id(n) for n in meta["names"]]
            self.name.extend(remap[i] for i in data["name"].tolist())
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            self.parent.extend(outer if p < 0 else p + base for p in data["parent"].tolist())
            self.op.extend([op_id] * len(data["op"]))
        self.counters.update(meta["counters"])
        for key, values in meta["samples"].items():
            self.samples[key].extend(values)

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self time in seconds)."""
        a = self.arrays()
        own = self_times(a["start"], a["end"], a["parent"])
        calls = np.bincount(a["name"], minlength=len(self.names))
        self_s = np.bincount(a["name"], weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

    def limsup_pairs(self) -> int:
        return len(self._pairs) + self.counters["limsup_pairs"]


def _wrap(tracer: Tracer, qualname: str, fn):
    name_id = tracer.name_id(qualname)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.observe(qualname, idx, args, result)
        return result

    traced.bench_traced = True
    return traced


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "roughmetric" or name.startswith("roughmetric."))]


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every layer function at every roughmetric binding of it.

    Returns the (module, attribute, original) patches for :func:`uninstall`.
    """
    originals = {}
    for layer, funcs in LAYERS.items():
        home = sys.modules[f"roughmetric.{layer}"]
        for f in funcs:
            originals[id(getattr(home, f))] = (f"{layer}.{f}", getattr(home, f))
    wrappers = {key: _wrap(tracer, qualname, fn) for key, (qualname, fn) in originals.items()}
    patches = []
    for module in _modules():
        for attr, value in list(vars(module).items()):
            if id(value) in originals and originals[id(value)][1] is value:
                patches.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
    return patches


def uninstall(patches: list[tuple]) -> None:
    for module, attr, original in patches:
        setattr(module, attr, original)


def leftover_wrappers() -> list[str]:
    """Bindings that still hold a tracing wrapper (empty after :func:`uninstall`)."""
    return [f"{m.__name__}.{attr}" for m in _modules()
            for attr, value in vars(m).items() if getattr(value, "bench_traced", False)]
