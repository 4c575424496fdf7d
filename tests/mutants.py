"""Mutation check: does the test suite catch small, named faults in ``src/``?

Each mutant is one exact-string edit to one file. For each, the script copies
``src/`` into a temporary directory, applies the edit there, runs the named
test files against the copy and reports the mutant as killed when pytest
fails. The working tree is never edited. An edit must match its file exactly
once, so a mutant whose code has moved is an error, not a silent survivor.
The unmutated copy runs first and must pass.

Run from the repository root (pytest does not collect this file)::

    python tests/mutants.py                  # every mutant
    python tests/mutants.py leq-strict ...   # the named ones

It prints a killed/survived table and exits 1 when a mutant survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    path: str  # relative to src/roughmetric
    old: str
    new: str
    tests: tuple[str, ...]


SPACES = ("tests/test_spaces.py",)
CHECKS = ("tests/test_spaces.py", "tests/test_rough.py", "tests/test_theorems.py")
CLI = ("tests/test_cli.py",)
FILEFORMAT = ("tests/test_fileformat.py",)

MUTANTS = {
    # the (d3) screen's per-row rule
    "screen-association": Mutant(
        "spaces.py", "(low + low.min()) + TOLERANCE", "low + (low.min() + TOLERANCE)", SPACES),
    "screen-strict-bound": Mutant(
        "spaces.py", "d.max(axis=1) <= (low", "d.max(axis=1) < (low", SPACES),
    "screen-row-minimum": Mutant(
        "spaces.py", "(low + low.min())", "(low + low)", SPACES),
    "screen-no-diagonal-test": Mutant(
        "spaces.py", " & (saved.min() >= 0)", "", SPACES),
    "screen-no-m-ge-d": Mutant(
        "spaces.py", "clean &= (m >= d).all(axis=1) & ", "clean &= ", SPACES),
    "screen-diagonal-not-restored": Mutant(
        "spaces.py", "    diag[:] = saved\n", "", SPACES),
    # the min-plus kernel behind (d3) and random_space's k floor
    "min-plus-no-mirror": Mutant(
        "spaces.py", "low[:, rows] = np.fmin(pair, pair.T)", "low[:, rows] = pair", SPACES),
    "min-plus-block-start": Mutant(
        "spaces.py", "y0 = m_rows[s : s + step], rows[s] if",
        "y0 = m_rows[s : s + step], rows[s] + 1 if", SPACES),
    # tolerances, indexing and ordering named by earlier mutation checks
    "leq-strict": Mutant(
        "spaces.py", "return a <= b + TOLERANCE", "return a < b + TOLERANCE", CHECKS),
    "ball-no-tolerance": Mutant(
        "spaces.py", "hit = row < radius - TOLERANCE", "hit = row < radius", CHECKS),
    "subsequence-off-by-one": Mutant(
        "sequences.py", "(p - offset) // stride + 1 if", "(p - offset) // stride if",
        ("tests/test_sequences.py",)),
    "farthest-pair-unsorted": Mutant(
        "spaces.py", "idx = sorted(space.index(p) for p in set(subset))",
        "idx = list(space.index(p) for p in set(subset))", CHECKS),
    # guards on outside input, each reached by one test input
    "limsup-no-point-check": Mutant(
        "sequences.py", "    _require_points(seq, space)\n    return space.row_max",
        "    return space.row_max", ("tests/test_rough.py",)),
    "spec-no-alpha-shape": Mutant(
        "spaces.py", "if alpha.shape != (n, n):", "if False:", SPACES),
    "spec-eq-false": Mutant(
        "spaces.py", "return NotImplemented", "return False", SPACES),
    "table-not-list": Mutant(
        "fileformat.py", "if not isinstance(rows, list):", "if False:", FILEFORMAT),
    "table-row-not-list": Mutant(
        "fileformat.py", "if not isinstance(row, list):", "if False:", FILEFORMAT),
    "dump-bool-id": Mutant(
        "fileformat.py", "isinstance(p, bool) or not isinstance(p, (int, str)):\n        raise ValueError",
        "not isinstance(p, (int, str)):\n        raise ValueError", FILEFORMAT),
    "tolerance-parse-error-escapes": Mutant(
        "cli.py", "except ValueError:\n        raise click", "except TypeError:\n        raise click", CLI),
    "tolerance-infinite": Mutant(
        "cli.py", "tol >= 0 and math.isfinite(tol)", "tol >= 0", CLI),
    "analyze-empty-degrees": Mutant(
        "cli.py", "if r_list is not None", "if r_list", CLI),
    "theorems-empty-grid": Mutant(
        "cli.py", "_r_values(r_grid) if r_grid is not None else list(",
        "_r_values(r_grid) if r_grid else list(", CLI),
    "fuzz-empty-grid": Mutant(
        "cli.py", "tuple(_r_values(r_grid)) if r_grid is not None",
        "tuple(_r_values(r_grid)) if r_grid", CLI),
}


def run_tests(src: Path, tests: tuple[str, ...]) -> bool:
    """Whether ``tests`` pass with ``roughmetric`` imported from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def apply(root: Path, mutant: Mutant | None) -> Path:
    """A fresh copy of ``src/`` under ``root`` with ``mutant`` applied; returns its path."""
    src = root / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        target = src / "roughmetric" / mutant.path
        text = target.read_text()
        count = text.count(mutant.old)
        if count != 1:
            raise SystemExit(f"{mutant.path}: {mutant.old!r} matches {count} times, not once")
        target.write_text(text.replace(mutant.old, mutant.new))
    return src


def main(names: list[str]) -> int:
    unknown = set(names) - MUTANTS.keys()
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}; known: {sorted(MUTANTS)}")
    chosen = names or list(MUTANTS)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        root = Path(tmp)
        tests = sorted({t for name in chosen for t in MUTANTS[name].tests})
        if not run_tests(apply(root, None), tuple(tests)):
            raise SystemExit(f"the unmutated copy fails {' '.join(tests)}")
        survivors = 0
        print(f"{'mutant':<30} {'result':<9} {'seconds':>7}  tests")
        for name in chosen:
            mutant = MUTANTS[name]
            start = time.perf_counter()
            killed = not run_tests(apply(root, mutant), mutant.tests)
            survivors += not killed
            print(f"{name:<30} {'killed' if killed else 'SURVIVED':<9} "
                  f"{time.perf_counter() - start:7.1f}  {' '.join(mutant.tests)}", flush=True)
    print(f"{len(chosen) - survivors} killed, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
