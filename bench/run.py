#!/usr/bin/env python3
"""roughmetric benchmark.

Run from the root of a source checkout (the package need not be installed):

    python3 bench/run.py --workload {fuzz,analyze,tables,cli} --seed N \
        --seconds S --trace {0,1}

Ops are closed loop, one at a time: each starts when the previous one
finished, and every result is checked against an oracle (see
``workloads.py``). The ``cli`` workload runs one child process per op.

``--trace 0`` measures the end-to-end metrics. The measured time is split
over WORKERS fresh interpreters run one after another; each sets up (import
plus input building, the ``setup_s`` samples) and then continues the op
sequence where the previous one stopped, and the last one ends on a round
boundary, so a run holds whole rounds of the workload's mix. Op timings are
pooled over the workers, which evens out the speed differences between
processes seen on small shared hosts.

BENCHMARK.json gates ``tables`` and ``cli``. ``fuzz`` and ``analyze`` run
the same way by hand; their timings swing with host load too much to gate
on the 2-core host the benchmark was set up on.

``--trace 1`` runs the workload in this process untraced for half the time
and traced for the other half, and reports the per-layer metrics from the
spans (see ``spans.py``). End-to-end metrics always come from untraced runs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment, the error rate, the known defects reproduced and every metric
with its unit. ``--record`` rewrites ``bench/expected.json`` with the output
digests of the default seed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKERS = 5
MAX_TRACED_SPANS = 2_000_000
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("fuzz", "analyze", "tables", "cli"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    # Internal: run as worker from op index --first; --last ends on a round boundary.
    p.add_argument("--first", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--last", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def timed_setup(args):
    """``import roughmetric`` plus the workload's input-building library calls.

    Returns (seconds, module, workload). The benchmark's own modules are
    imported between the two timed parts, after numpy is already loaded.
    """
    t0 = perf_counter()
    import roughmetric
    t1 = perf_counter()
    if Path(roughmetric.__file__).resolve().parent != SRC / "roughmetric":
        raise SystemExit(f"error: imported roughmetric from {roughmetric.__file__}, not {SRC}")
    import workloads
    wl = workloads.WORKLOADS[args.workload](roughmetric, args.seed)
    t2 = perf_counter()
    wl.build()
    return (t1 - t0) + (perf_counter() - t2), roughmetric, wl


def environment(rm, tol) -> dict:
    import importlib.metadata
    import numpy
    import yaml
    head = ROOT / ".git" / "HEAD"
    commit = "not a git checkout"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "yaml_with_libyaml": bool(yaml.__with_libyaml__),
        "click": importlib.metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "roughmetric_tol_env": tol,
        "tolerance": rm.spaces.TOLERANCE,
    }


class Phase:
    """The results of one measured phase."""

    def __init__(self, latencies=(), failures=(), known=()):
        self.latencies: list[float] = list(latencies)
        self.failures: list[str] = list(failures)
        self.known: list[str] = list(known)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def ops_per_s(self) -> float:
        return self.ops / sum(self.latencies)


def measure(wl, seconds: float, first: int, align: bool, tracer=None) -> Phase:
    """Closed loop of ops from index ``first`` for ``seconds`` of wall time;
    with ``align``, go on to the next round boundary. Only the ops themselves
    are timed; building inputs and checking results happen between them."""
    from workloads import KnownDefect
    phase = Phase()
    op_name = tracer.name_id("op") if tracer is not None else None
    deadline = perf_counter() + seconds
    i = first
    while perf_counter() < deadline or (align and i % wl.round):
        args = wl.inputs(i)
        if tracer is not None:
            tracer.op_id = i
            span = tracer.open(op_name)
        raised = None
        t0 = perf_counter()
        try:
            result = wl.run(args)
        except Exception as exc:  # a raising op is a failed op, not a crash
            raised = exc
        t1 = perf_counter()
        if tracer is not None:
            tracer.close(span)
            wl.after_traced_op(tracer, i, span)
        phase.latencies.append(t1 - t0)
        verdict = f"op {i} raised {raised!r}" if raised else wl.check(i, args, result)
        if isinstance(verdict, KnownDefect):
            phase.known.append(verdict)
        elif verdict:
            phase.failures.append(verdict)
        i += 1
        if tracer is not None and len(tracer) > MAX_TRACED_SPANS and i % wl.round == 0:
            break
    return phase


def worker(args) -> int:
    """Set up and measure in this process; print the raw results as JSON."""
    setup_s, rm, wl = timed_setup(args)
    wl.record = args.record
    workdir = OUT / f"{wl.name}-{os.getpid()}"
    try:
        wl.prepare(workdir)
        phase = measure(wl, args.seconds, args.first, args.last)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.record:
        record_digests(wl)
    rss = wl.peak_rss_mb()
    if rss is None:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"setup_s": setup_s, "latencies": phase.latencies, "failures": phase.failures,
                      "known": phase.known, "peak_rss_mb": rss}))
    return 0


def record_digests(wl) -> None:
    """Merge this worker's output digests into bench/expected.json."""
    import workloads
    expected = workloads.load_expected()
    entry = expected.setdefault(wl.name, {})
    for key, value in wl.digests().items():
        entry[key] = {**entry.get(key, {}), **value} if isinstance(value, dict) else value
    workloads.EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")


def run_workers(args) -> list[dict]:
    """WORKERS fresh interpreters, one after another, each continuing the op
    sequence where the previous one stopped."""
    from workloads import child_env
    results, first = [], 0
    for k in range(WORKERS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds / WORKERS),
               "--first", str(first)]
        if k == WORKERS - 1:
            cmd.append("--last")
        if args.record:
            cmd.append("--record")
        out = subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, timeout=170,
                             stdout=subprocess.PIPE, text=True).stdout
        results.append(json.loads(out.strip().splitlines()[-1]))
        first += len(results[-1]["latencies"])
    return results


def percentile(values, pct: float) -> float:
    import numpy as np
    return float(np.percentile(values, pct))


def end_to_end(tail_pct: float, results: list[dict]) -> dict:
    lat = [x for r in results for x in r["latencies"]]
    return {
        "setup_s": (median(r["setup_s"] for r in results), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (median(lat) * 1000, "ms"),
        "op_tail_ms": (percentile(lat, tail_pct) * 1000, "ms"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
    }


def per_layer(wl, tracer, untraced: Phase, traced: Phase) -> dict:
    from spans import LAYERS, VALIDATE_SIZES
    ops = traced.ops
    totals = tracer.totals()
    c = tracer.counters
    out = {}
    for layer, funcs in LAYERS.items():
        for f in funcs:
            calls, self_s = totals.get(f"{layer}.{f}", (0, 0.0))
            out[f"{layer}.{f}.calls"] = (calls / ops, "calls/op")
            out[f"{layer}.{f}.self_s"] = (self_s / ops, "s/op")
    reports = c["reports"]
    out["theorems.content_pass_frac"] = (c["content_pass"] / reports if reports else 0.0, "ratio")
    out["theorems.na_frac"] = (c["not_applicable"] / reports if reports else 0.0, "ratio")
    pairs = tracer.limsup_pairs()
    out["rough.limsup_queries_per_seq"] = (c["limsup_queries"] / pairs if pairs else 0.0, "ratio")
    out["spaces.validate_axioms.triples"] = (c["validate_triples"] / ops, "triples/op")
    peaks = wl.validate_peak_mb()
    for n in VALIDATE_SIZES:
        samples = tracer.samples.get(f"validate_n{n}")
        out[f"spaces.validate_axioms.n{n}_ms"] = (median(samples) * 1000 if samples else 0.0, "ms")
        out[f"spaces.validate_axioms.n{n}_peak_mb"] = (peaks.get(n, 0.0), "MB")
    out["fileformat.load_space.bytes"] = (c["load_bytes"] / ops, "bytes/op")
    cli = wl.startup_ms(untraced)
    for key in ("interp_start_ms", "import_ms", "command_ms"):
        out[f"cli.{key}"] = (cli.get(key, 0.0), "ms")
    attempted = untraced.ops + traced.ops
    out["cli.known_defect_frac"] = ((len(untraced.known) + len(traced.known)) / attempted, "ratio")
    out["trace.overhead_frac"] = (1 - traced.ops_per_s() / untraced.ops_per_s(), "ratio")
    return out


def traced_run(args, wl) -> tuple[list[Phase], dict]:
    import spans
    workdir = OUT / f"{wl.name}-{os.getpid()}"
    try:
        wl.prepare(workdir)
        untraced = measure(wl, args.seconds / 2, 0, True)
        tracer = spans.Tracer()
        wl.start_trace(workdir)
        patches = spans.install(tracer)
        try:
            traced = measure(wl, args.seconds / 2, untraced.ops, True, tracer)
        finally:
            spans.uninstall(patches)
        leftover = spans.leftover_wrappers()
        if leftover:
            raise RuntimeError(f"tracing wrappers left in place: {leftover}")
        tracer.save(OUT / f"spans-{wl.name}-seed{args.seed}.npz")
        return [untraced, traced], per_layer(wl, tracer, untraced, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "roughmetric" / "__init__.py").is_file():
        print(f"error: no roughmetric source tree under {SRC}", file=sys.stderr)
        return 2
    # A different tolerance is a different program: always measure the default.
    tol = os.environ.pop("ROUGHMETRIC_TOL", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.first is not None:
        return worker(args)

    # Bytecode is compiled before anything is timed, so the first run in a
    # fresh checkout times the same imports as every later one.
    compileall.compile_dir(str(SRC / "roughmetric"), quiet=1)
    OUT.mkdir(exist_ok=True)
    if args.trace:
        _, rm, wl = timed_setup(args)
        print("environment " + json.dumps(environment(rm, tol)))
        phases, metrics = traced_run(args, wl)
    else:
        results = run_workers(args)
        import roughmetric
        import workloads
        print("environment " + json.dumps(environment(roughmetric, tol)))
        phases = [Phase(r["latencies"], r["failures"], r["known"]) for r in results]
        metrics = end_to_end(workloads.WORKLOADS[args.workload].tail_pct, results)

    attempted = sum(p.ops for p in phases)
    failures = [f for p in phases for f in p.failures]
    known = [k for p in phases for k in p.known]
    for text in sorted(set(failures))[:20]:
        print(f"FAILED {text}")
    print(f"ops {attempted}, failed {len(failures)}, "
          f"error_rate {len(failures) / attempted:.6f} ratio, "
          f"known defects reproduced {len(known)} ({', '.join(sorted(set(known))) or 'none'})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
