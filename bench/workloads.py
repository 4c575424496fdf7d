"""The benchmark's workloads.

Each workload builds its inputs from the seed with library calls (``build``,
counted in ``setup_s``), derives the expected answers with its own oracle and
writes any files (``prepare``, not counted), then runs one closed-loop op at a
time: ``inputs(i)`` makes op i's arguments, ``run`` is the timed call into the
library or the CLI, and ``check`` compares the result with the oracle. Ops are
dealt round-robin from a fixed round, so every run holds the same mix.

The oracles use numpy directly on the input tables and never call the
library's algorithms; the only library value they read is
``spaces.TOLERANCE``.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected.json"
DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 60


class KnownDefect(str):
    """A check verdict: the op reproduced a defect recorded in BENCHMARK.json."""


def child_env() -> dict:
    """Environment for every child: the source tree on the path, one BLAS
    thread, and the default tolerance."""
    env = dict(os.environ)
    env.pop("ROUGHMETRIC_TOL", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}


# --- input families ---------------------------------------------------------


def paper_permuted(rm, n: int, rng: np.random.Generator):
    """``paper_example_spec(n)`` with its points put in a random order."""
    spec = rm.paper_example_spec(n)
    order = rng.permutation(n)
    grid = np.ix_(order, order)
    return rm.SpaceSpec(points=tuple(spec.points[i] for i in order),
                        dist=spec.dist[grid], alpha=spec.alpha[grid])


def squared_euclidean(rm, n: int, rng: np.random.Generator):
    """Squared distances of random plane points with control 2: a b-metric,
    since |a + b|^2 <= 2|a|^2 + 2|b|^2."""
    xy = rng.uniform(0.0, 1.0, size=(n, 2))
    diff = xy[:, None, :] - xy[None, :, :]
    dist = (diff * diff).sum(axis=-1)
    return rm.SpaceSpec(points=tuple(range(1, n + 1)), dist=dist, alpha=np.full((n, n), 2.0))


def scaled_pair(rm, spec, rng: np.random.Generator):
    """Corruption: one pair's distance, both directions, scaled to twice its
    longest controlled detour, so (d3) fails through every third point."""
    i, j = rng.choice(spec.n, size=2, replace=False)
    m = spec.alpha * spec.dist
    dist = spec.dist.copy()
    dist[i, j] = dist[j, i] = 2.0 * float((m[i, :] + m[:, j]).max())
    return rm.SpaceSpec(points=spec.points, dist=dist, alpha=spec.alpha)


def asymmetric_entry(rm, spec, rng: np.random.Generator):
    """Corruption: one entry multiplied by 1.5, its transpose left alone."""
    i, j = rng.choice(spec.n, size=2, replace=False)
    dist = spec.dist.copy()
    dist[i, j] *= 1.5
    return rm.SpaceSpec(points=spec.points, dist=dist, alpha=spec.alpha)


def random_sequence(rm, points, rng: np.random.Generator, max_prefix=3, max_cycle=4):
    plen = int(rng.integers(0, max_prefix + 1))
    clen = int(rng.integers(1, max_cycle + 1))
    picks = rng.integers(0, len(points), size=plen + clen)
    return rm.EpSequence(prefix=tuple(points[i] for i in picks[:plen]),
                         cycle=tuple(points[i] for i in picks[plen:]))


# --- oracles ----------------------------------------------------------------


def limsup_vector(dist: np.ndarray, points, cycle) -> np.ndarray:
    """limsup_n d(x_n, x) for every x: the max over the cycle values' rows."""
    where = {p: i for i, p in enumerate(points)}
    return dist[[where[v] for v in set(cycle)]].max(axis=0)


def violation_counts(dist: np.ndarray, alpha: np.ndarray, tol: float, chunk: int = 16) -> Counter:
    """Violations per axiom, counted by a scan over chunks of x so memory stays
    O(chunk * n^2)."""
    n = len(dist)
    off_diagonal = ~np.eye(n, dtype=bool)
    counts = Counter({
        "d1": int(np.count_nonzero(np.diagonal(dist) != 0.0))
        + int(np.count_nonzero((dist == 0.0) & off_diagonal)),
        "d2": int(np.count_nonzero(np.triu(dist != dist.T, 1))),
        "alpha": int(np.count_nonzero(alpha < 1.0 - tol)),
    })
    m = alpha * dist
    for x0 in range(0, n, chunk):
        # bound[x, y, z] = alpha(x,z) d(x,z) + alpha(z,y) d(z,y)
        bound = m[x0:x0 + chunk, None, :] + m.T[None, :, :]
        counts["d3"] += int(np.count_nonzero(dist[x0:x0 + chunk, :, None] > bound + tol))
    return +counts


# --- workloads ----------------------------------------------------------------


class Workload:
    name = ""
    round = 1  # ops per round; a measured phase ends on a round boundary
    tail_pct = 99.0  # op_tail_ms percentile; BENCHMARK.json records it

    def __init__(self, rm, seed: int):
        self.rm = rm
        self.seed = seed
        self.record = False  # store output digests instead of comparing them

    def build(self) -> None:
        """Library calls that make the inputs (timed as setup)."""

    def prepare(self, workdir: Path) -> None:
        """Oracle answers and file writes (not timed)."""

    def inputs(self, i: int):
        raise NotImplementedError

    def run(self, args):
        raise NotImplementedError

    def check(self, i: int, args, result) -> str:
        """'' when the result is right, else why not."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float | None:
        """Peak RSS of the process doing the work, if not this one."""
        return None

    def digests(self) -> dict:
        return {}

    # Hooks of the traced run.

    def start_trace(self, workdir: Path) -> None:
        """Called once before the traced phase."""

    def after_traced_op(self, tracer, i: int, span: int) -> None:
        """Called after each traced op, with the op's span."""

    def validate_peak_mb(self) -> dict:
        """tracemalloc peak of validate_axioms, in MB, by table size."""
        return {}

    def startup_ms(self, untraced) -> dict:
        """CLI start-up costs, in ms."""
        return {}


class Fuzz(Workload):
    """One op: fuzz one batch of trials with its own seed, then render it."""

    name = "fuzz"
    tail_pct = 95.0
    BATCH = 20
    DIGEST_OPS = 20  # the default seed's first summaries are digest-checked

    def prepare(self, workdir):
        self._expected = load_expected().get("fuzz", {}).get("summary_sha256", {})
        self._seen: dict[str, str] = {}

    def inputs(self, i):
        seed = int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])
        return self.rm.FuzzConfig(trials=self.BATCH, max_points=12, max_cycle=4,
                                  max_prefix=3, seed=seed)

    def run(self, config):
        summary = self.rm.fuzz(config)
        return summary, self.rm.render_summary(summary)

    def check(self, i, config, result):
        summary, text = result
        if summary.trials != config.trials:
            return f"ran {summary.trials} trials, asked for {config.trials}"
        if summary.failures:
            return f"{summary.failures} theorem failure(s)"
        bucketed = sum(sum(b.values()) for b in summary.per_theorem.values())
        if summary.checks_total != bucketed:
            return f"checks_total {summary.checks_total} != bucket sum {bucketed}"
        if self.seed == DEFAULT_SEED and i < self.DIGEST_OPS:
            digest = self._seen[str(i)] = hashlib.sha256(text.encode()).hexdigest()
            if not self.record and self._expected.get(str(i)) != digest:
                return f"summary of op {i} differs from the recorded digest"
        return ""

    def digests(self):
        return {"seed": DEFAULT_SEED, "summary_sha256": self._seen}


class Analyze(Workload):
    """One op: the full analysis of one eventually periodic sequence."""

    name = "analyze"
    SIZES = (6, 64, 256)
    round = 2 * len(SIZES)
    tail_pct = 99.8

    def build(self):
        rng = np.random.default_rng([self.seed, 1])
        self.spaces = [self.rm.build_space(family(self.rm, n, rng))
                       for n in self.SIZES for family in (paper_permuted, squared_euclidean)]

    def prepare(self, workdir):
        self.tol = self.rm.spaces.TOLERANCE
        self.tables = [(np.array(s.dist), s.points) for s in self.spaces]

    def inputs(self, i):
        k = i % self.round
        space, (dist, points) = self.spaces[k], self.tables[k]
        rng = np.random.default_rng([self.seed, 2, i])
        seq = random_sequence(self.rm, points, rng)
        limsup = limsup_vector(dist, points, seq.cycle)
        r_star, diam = float(limsup.min()), float(dist.max())
        degrees = (0.0, r_star / 2, r_star, (r_star + diam) / 2, diam)
        return space, seq, degrees, limsup

    def run(self, args):
        rm = self.rm
        space, seq, degrees, _ = args
        sweep = degrees[2:4]
        return (
            rm.is_convergent(seq, space),
            rm.is_cauchy(seq, space),
            rm.critical_roughness(seq, space),
            rm.cluster_points(seq, space),
            [rm.limsup_distance(seq, space, x) for x in space.points],
            [rm.rough_limit_set(seq, space, r).members for r in degrees],
            [rm.is_rough_limit(seq, space, x, r) for r in sweep for x in space.points],
        )

    def check(self, i, args, result):
        space, seq, degrees, limsup = args
        limit, cauchy, crit, clusters, limsups, sets, sweep = result
        points = space.points
        recurring = set(seq.cycle)
        if limit != (seq.cycle[0] if len(recurring) == 1 else None):
            return f"is_convergent gave {limit!r} for cycle {seq.cycle}"
        if cauchy != (len(recurring) == 1):
            return f"is_cauchy gave {cauchy}"
        if set(clusters) != recurring:
            return "cluster points differ from the recurring values"
        if limsups != limsup.tolist():
            return "limsup_distance differs from the max over cycle rows"
        r_star = limsup.min()
        minimizers = tuple(points[j] for j in np.flatnonzero(limsup == r_star))
        if crit.value != r_star or tuple(crit.minimizers) != minimizers:
            return f"critical roughness {crit} != {r_star} at {minimizers}"
        inside = [limsup <= r + self.tol for r in degrees]
        for r, members, mask in zip(degrees, sets, inside):
            if set(members) != {points[j] for j in np.flatnonzero(mask)}:
                return f"rough limit set of degree {r} differs"
        if sweep != np.concatenate(inside[2:4]).tolist():
            return "is_rough_limit sweep differs"
        return ""


class Tables(Workload):
    """One op: build (validate) one table; a valid one then gets its critical
    roughness, a corrupted one must be rejected with the oracle's counts."""

    name = "tables"
    SIZES = (50, 100, 200)
    round = 4 * len(SIZES)
    tail_pct = 97.5

    def build(self):
        rm, rng = self.rm, np.random.default_rng([self.seed, 3])
        self.specs = []
        for n in self.SIZES:
            paper, euclid = paper_permuted(rm, n, rng), squared_euclidean(rm, n, rng)
            self.specs += [paper, euclid, scaled_pair(rm, euclid, rng),
                           asymmetric_entry(rm, paper, rng)]
        self.seqs = [random_sequence(rm, s.points, rng) for s in self.specs]

    def prepare(self, workdir):
        tol = self.rm.spaces.TOLERANCE
        self.expected = []
        for spec, seq in zip(self.specs, self.seqs):
            counts = violation_counts(spec.dist, spec.alpha, tol)
            limsup = limsup_vector(spec.dist, spec.points, seq.cycle)
            self.expected.append((counts, limsup))
        valid = [not c for c, _ in self.expected]
        if valid != [True, True, False, False] * len(self.SIZES):
            raise RuntimeError(f"table generator broke: validity {valid}")

    def inputs(self, i):
        k = i % self.round
        return self.specs[k], self.seqs[k], self.expected[k]

    def run(self, args):
        spec, seq, _ = args
        try:
            space = self.rm.build_space(spec)
        except self.rm.InvalidSpaceError as exc:
            return exc
        return self.rm.critical_roughness(seq, space)

    def validate_peak_mb(self):
        import tracemalloc
        peaks = {}
        for n in self.SIZES:
            spec = self.rm.paper_example_spec(n)
            tracemalloc.start()
            try:
                self.rm.validate_axioms(spec)
                peaks[n] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        return peaks

    def check(self, i, args, result):
        spec, _, (counts, limsup) = args
        if counts:
            if not isinstance(result, self.rm.InvalidSpaceError):
                return f"corrupted n={spec.n} table was accepted"
            got = Counter(v.axiom for v in result.result.violations)
            return "" if got == counts else f"violations {dict(got)} != {dict(counts)}"
        if isinstance(result, Exception):
            return f"valid n={spec.n} table rejected: {result}"
        r_star = limsup.min()
        minimizers = tuple(spec.points[j] for j in np.flatnonzero(limsup == r_star))
        if result.value != r_star or tuple(result.minimizers) != minimizers:
            return f"critical roughness {result} != {r_star} at {minimizers}"
        return ""


# Documents for the two defects ROADMAP lists as P0. Both must exit 2.
DIV_BY_ZERO_DOC = 'points: [1, 2]\ndist:\n- [0, "1/0"]\n- ["1/0", 0]\nalpha:\n- [1, 1]\n- [1, 1]\n'
OVERFLOW_DOC = "points: [1, 2]\ndist:\n- [0, 1e400]\n- [1e400, 0]\nalpha:\n- [1, 1]\n- [1, 1]\n"
MALFORMED_DOC = "points: [1, 2\ndist: [[0, 1], [1, 0]]\n"
MISSING_TABLE_DOC = "points: [1, 2]\ndist:\n- [0, 1]\n- [1, 0]\n"


class Cli(Workload):
    """One op: one ``python -m roughmetric.cli`` process, run to completion."""

    name = "cli"
    round = 17  # commands in the plan
    tail_pct = 90.0

    def build(self):
        rm, rng = self.rm, np.random.default_rng([self.seed, 4])
        specs = {
            "euclid60": squared_euclidean(rm, 60, rng),
            "paper32": paper_permuted(rm, 32, rng),
            "euclid16": squared_euclidean(rm, 16, rng),
            "paper8": paper_permuted(rm, 8, rng),
        }
        specs["broken12"] = scaled_pair(rm, paper_permuted(rm, 12, rng), rng)
        self.docs = {name: rm.dump_space(spec) for name, spec in specs.items()}
        self.docs.update(div0=DIV_BY_ZERO_DOC, overflow=OVERFLOW_DOC,
                         malformed=MALFORMED_DOC, missing=MISSING_TABLE_DOC)

        def lit(n):
            seq = random_sequence(rm, tuple(range(1, n + 1)), rng)
            return rm.sequence_literal(seq)

        self.fuzz_seed = int(rng.integers(0, 2**31))
        # (label, arguments, expected exit code, signature of a known defect)
        self.plan = [
            ("validate-builtin", ["validate", "paper-example:48"], 0, None),
            ("analyze-builtin", ["analyze", "paper-example:40", "--seq", lit(40),
                                 "--r", "0,1/sqrt(2),1"], 0, None),
            ("limset-builtin", ["limset", "paper-example:32", "--seq", lit(32),
                                "--r", "1/sqrt(2)"], 0, None),
            ("theorems-builtin", ["theorems", "paper-example:10", "--seq", lit(10)], 0, None),
            ("emit-builtin", ["emit", "paper-example:20"], 0, None),
            ("validate-doc", ["validate", "{euclid60}"], 0, None),
            ("analyze-doc", ["analyze", "{paper32}", "--seq", lit(32), "--r", "0.5,1",
                             "--format", "structured"], 0, None),
            ("limset-doc", ["limset", "{euclid16}", "--seq", lit(16), "--r", "0.25"], 0, None),
            ("theorems-doc", ["theorems", "{paper8}", "--seq", lit(8)], 0, None),
            ("emit-doc", ["emit", "{paper32}"], 0, None),
            ("fuzz", ["fuzz", "--trials", "20", "--seed", str(self.fuzz_seed)], 0, None),
            ("malformed", ["validate", "{malformed}"], 2, None),
            ("missing-table", ["analyze", "{missing}", "--seq", "1"], 2, None),
            ("invalid-validate", ["validate", "{broken12}"], 1, None),
            ("invalid-theorems", ["theorems", "{broken12}", "--seq", "1,2"], 1, None),
            ("p0-div-by-zero", ["validate", "{div0}"], 2, (1, "ZeroDivisionError", "")),
            ("p0-overflow", ["theorems", "{overflow}", "--seq", "1,2"], 2,
             (1, "", "[FAIL] T_ROUGH_BOUNDED")),
        ]
        assert len(self.plan) == self.round

    def prepare(self, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, text in self.docs.items():
            paths[name] = workdir / f"{name}.space"
            paths[name].write_text(text)
        self.commands = [(label, [a.format(**paths) for a in argv], code, known)
                         for label, argv, code, known in self.plan]
        self.workdir = workdir
        self.env = child_env()
        self.span_file = None  # set by a traced run: children then save spans there
        self.max_rss_kb = 0
        self._expected = load_expected().get("cli", {}).get("stdout_sha256", {})
        self._seen: dict[str, str] = {}

    def inputs(self, i):
        return self.commands[i % self.round]

    def run(self, command):
        _, argv, _, _ = command
        env = self.env
        if self.span_file is None:
            cmd = [sys.executable, "-m", "roughmetric.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "cli_child.py"), *argv]
            env = dict(env, BENCH_SPANS=str(self.span_file))
        code, out, err, rss_kb = run_child(cmd, env, self.workdir)
        self.max_rss_kb = max(self.max_rss_kb, rss_kb)
        return code, out, err

    def check(self, i, command, result):
        label, _, want, known = command
        code, out, err = result
        if known and (code, known[1] in err, known[2] in out) == (known[0], True, True):
            return KnownDefect(label)
        if code != want:
            return f"{label}: exit {code}, expected {want}"
        if "Traceback" in err:
            return f"{label}: a traceback escaped"
        if self.seed == DEFAULT_SEED and not known:
            digest = hashlib.sha256(out.encode()).hexdigest()
            self._seen[label] = digest
            if not self.record and self._expected.get(label) != digest:
                return f"{label}: stdout differs from the recorded digest"
        return ""

    def peak_rss_mb(self):
        return self.max_rss_kb / 1024

    def start_trace(self, workdir):
        self.span_file = workdir / "spans.npz"

    def after_traced_op(self, tracer, i, span):
        if self.span_file.is_file():
            tracer.absorb(self.span_file, i, span)
            self.span_file.unlink()

    def startup_ms(self, untraced):
        python = [sys.executable, "-c"]
        interp = wall_ms([*python, "pass"], self.env, 5)
        imported = wall_ms([*python, "import roughmetric.cli"], self.env, 5)
        invocation = float(np.median(untraced.latencies)) * 1000
        return {"interp_start_ms": interp, "import_ms": imported - interp,
                "command_ms": invocation - imported}

    def digests(self):
        return {"seed": DEFAULT_SEED, "stdout_sha256": self._seen}


def run_child(cmd, env, cwd) -> tuple[int, str, str, int]:
    """Run one child to completion: exit code, stdout, stderr, its peak RSS in KB.

    Output goes through files so ``os.wait4`` can reap the child and return
    its own resource usage.
    """
    out_path, err_path = cwd / "child.out", cwd / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except TimeoutError:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = (p.read_text(errors="replace") for p in (out_path, err_path))
    return proc.returncode, out, err, usage.ru_maxrss


def _timeout(signum, frame):
    raise TimeoutError(f"child ran longer than {CHILD_TIMEOUT_S} s")


def wall_ms(cmd, env, repeats: int) -> float:
    """Median wall time of a child command, in ms."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append((perf_counter() - t0) * 1000)
    return float(np.median(times))


WORKLOADS = {w.name: w for w in (Fuzz, Analyze, Tables, Cli)}
