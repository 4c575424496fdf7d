"""Command line interface.

Space sources are either a document path or the builtin family
``paper-example:N`` (the parity-based space on {1..N}). Sequences are given
as literals like ``2,3`` (a cycle) or ``7|2,3`` (prefix, then cycle).

Exit codes: 0 success/valid, 1 axiom violation or theorem failure,
2 usage or parse error. The boundary tolerance (default 1e-9) can be
overridden through the ROUGHMETRIC_TOL environment variable, read when a
command starts: a value that is not a finite float >= 0 is a usage error.
Library code sets ``roughmetric.spaces.TOLERANCE`` directly instead.
``fuzz`` takes ``--max-points`` <= 200 and ``--max-cycle``, ``--max-prefix``
<= 10,000 (larger values are a usage error); trial i draws from
``SeedSequence(seed).spawn(trials)[i]``.
"""

from __future__ import annotations

import math
import os
import re
from pathlib import Path

import click

from . import spaces
from .fileformat import (
    LoadError,
    dump_document,
    dump_space,
    format_real,
    load_space,
    parse_real,
    parse_sequence_literal,
    sequence_literal,
)
from .rough import cluster_points, critical_roughness, rough_limit_set
from .sequences import EpSequence, is_cauchy, is_convergent, limsup_vector
from .spaces import (
    ControlledSpace,
    InvalidSpaceError,
    ShapeError,
    SpaceSpec,
    build_space,
    diameter,
    paper_example_spec,
    validate_axioms,
)
from .theorems import FuzzConfig, TheoremReport, default_r_grid, fuzz, render_summary, run_all

_PAPER_EXAMPLE = re.compile(r"^paper-example[:\s]+(\d+)$")

#: Largest N accepted for ``paper-example:N``. Building the family holds
#: about four n x n float tables, validating it about three: peak RSS is
#: about 30 MB + 33 B * N^2 (534 MB at N = 4,000, 817 MB at N = 5,000).
_PAPER_EXAMPLE_MAX = 5_000


def _load_spec(source: str) -> SpaceSpec:
    m = _PAPER_EXAMPLE.match(source.strip())
    if m:
        try:
            n = int(m.group(1))
            if n > _PAPER_EXAMPLE_MAX:
                raise ValueError(f"paper-example:N takes N <= {_PAPER_EXAMPLE_MAX}, got {n}")
            return paper_example_spec(n)
        except ValueError as exc:
            raise click.UsageError(str(exc))
    path = Path(source)
    if not path.is_file():
        raise click.UsageError(f"no such space document: {source}")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise click.UsageError(f"{source}: cannot read: {exc}")
    try:
        return load_space(text)
    except (LoadError, ShapeError) as exc:
        raise click.UsageError(f"{source}: {exc}")


def _build(spec: SpaceSpec) -> ControlledSpace:
    try:
        return build_space(spec)
    except InvalidSpaceError as exc:
        click.echo("space is not a controlled metric type space:")
        for v in exc.result.violations[:20]:
            click.echo(f"  {_violation_line(v)}")
        raise SystemExit(1)


def _sequence(space: ControlledSpace, literal: str) -> EpSequence:
    try:
        return parse_sequence_literal(literal, space)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _r_values(text: str) -> list[float]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            val = parse_real(tok, where="r")
        except LoadError as exc:
            raise click.UsageError(str(exc))
        if not math.isfinite(val):
            raise click.UsageError(f"r must be finite, got {tok}")
        if val < 0:
            raise click.UsageError(f"r must be >= 0, got {tok}")
        out.append(abs(val))  # -0 becomes 0
    if not out:
        raise click.UsageError("no r values given")
    return out


def _violation_line(v) -> str:
    pts = ", ".join(str(p) for p in v.points)
    rel = {"d1": "!=", "d2": "!=", "d3": ">", "alpha": "<"}[v.axiom]
    return f"axiom {v.axiom} fails at ({pts}): {format_real(v.lhs)} {rel} {format_real(v.rhs)}"


def _members(space: ControlledSpace, members) -> str:
    ordered = space.ordered(members)
    return "{" + ", ".join(str(p) for p in ordered) + "}"


def _echo_yaml(doc: dict) -> None:
    click.echo(dump_document(doc), nl=False)


format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "structured"]), default="text",
    help="Human-readable text or a structured (YAML) document.",
)


@click.group()
def main():
    """Controlled metric type spaces and rough-convergence analysis."""
    raw = os.environ.get("ROUGHMETRIC_TOL")
    if raw is None:
        return
    try:
        tol = float(raw)
    except ValueError:
        raise click.UsageError(f"ROUGHMETRIC_TOL must be a float, got {raw!r}")
    if not (tol >= 0 and math.isfinite(tol)):
        raise click.UsageError(f"ROUGHMETRIC_TOL must be finite and >= 0, got {tol}")
    spaces.TOLERANCE = tol


@main.command()
@click.argument("space_source")
@format_option
def validate(space_source: str, fmt: str):
    """Check the axioms of a space document exhaustively."""
    spec = _load_spec(space_source)
    result = validate_axioms(spec)
    if fmt == "structured":
        _echo_yaml({
            "points": len(spec.points),
            "valid": result.valid,
            "violations": [
                {"axiom": v.axiom, "points": [str(p) for p in v.points],
                 "lhs": v.lhs, "rhs": v.rhs}
                for v in result.violations
            ],
        })
    elif result.valid:
        click.echo(f"valid controlled metric type space ({len(spec.points)} points)")
    else:
        click.echo(f"INVALID: {len(result.violations)} violation(s)")
        for v in result.violations[:50]:
            click.echo(f"  {_violation_line(v)}")
        if len(result.violations) > 50:
            click.echo(f"  ... and {len(result.violations) - 50} more")
    raise SystemExit(0 if result.valid else 1)


@main.command()
@click.argument("space_source")
@click.option("--seq", "seq_literal", required=True, help="Sequence literal, e.g. '2,3' or '7|2,3'.")
@click.option("--r", "r_list", default=None, help="Comma-separated roughness degrees (sqrt expressions allowed).")
@format_option
def analyze(space_source: str, seq_literal: str, r_list: str, fmt: str):
    """Full sequence analysis: constants, limsups, convergence, rough limit sets."""
    space = _build(_load_spec(space_source))
    seq = _sequence(space, seq_literal)
    degrees = _r_values(r_list) if r_list is not None else []
    limit = is_convergent(seq, space)
    crit = critical_roughness(seq, space)
    limsups = dict(zip(space.points, limsup_vector(seq, space).tolist()))
    limsets = {r: rough_limit_set(seq, space, r).members for r in degrees}
    if fmt == "structured":
        _echo_yaml({
            "points": len(space.points),
            "sup_alpha": space.sup_alpha,
            "min_positive_dist": space.min_positive_dist,
            "diameter": diameter(space, space.points),
            "sequence": sequence_literal(seq),
            "convergent": limit is not None,
            "limit": None if limit is None else str(limit),
            "cauchy": is_cauchy(seq, space),
            "cluster_points": [str(p) for p in space.ordered(cluster_points(seq, space))],
            "critical_roughness": crit.value,
            "critical_minimizers": [str(p) for p in crit.minimizers],
            "limsup_distance": {str(p): v for p, v in limsups.items()},
            "rough_limit_sets": {format_real(r): [str(p) for p in space.ordered(m)]
                                 for r, m in limsets.items()},
        })
        return
    click.echo(f"points: {len(space.points)}")
    click.echo(f"sup alpha: {format_real(space.sup_alpha)}")
    click.echo(f"min positive distance: {format_real(space.min_positive_dist)}")
    click.echo(f"space diameter: {format_real(diameter(space, space.points))}")
    click.echo(f"sequence: {sequence_literal(seq)}")
    click.echo(f"convergent: {'yes, to ' + str(limit) if limit is not None else 'no'}")
    click.echo(f"cauchy: {'yes' if is_cauchy(seq, space) else 'no'}")
    click.echo(f"cluster points: {_members(space, cluster_points(seq, space))}")
    click.echo(f"critical roughness: {format_real(crit.value)} "
               f"(minimizers {_members(space, crit.minimizers)})")
    click.echo("limsup distances:")
    for p in space.points:
        click.echo(f"  {p}: {format_real(limsups[p])}")
    for r in degrees:
        click.echo(f"rough limit set (r = {format_real(r)}): {_members(space, limsets[r])}")


@main.command()
@click.argument("space_source")
@click.option("--seq", "seq_literal", required=True)
@click.option("--r", "r_value", required=True, help="Roughness degree (sqrt expressions allowed).")
@format_option
def limset(space_source: str, seq_literal: str, r_value: str, fmt: str):
    """The rough limit set of one sequence at one roughness degree."""
    space = _build(_load_spec(space_source))
    seq = _sequence(space, seq_literal)
    degrees = _r_values(r_value)
    if len(degrees) > 1:
        raise click.UsageError(f"--r takes one degree, got {r_value}")
    r = degrees[0]
    members = rough_limit_set(seq, space, r).members
    if fmt == "structured":
        _echo_yaml({"r": r, "members": [str(p) for p in space.ordered(members)]})
    else:
        click.echo(f"rough limit set (r = {format_real(r)}): {_members(space, members)}")


def _report_line(report: TheoremReport) -> str:
    r = report.params.get("r")
    where = f" r={format_real(r)}" if r is not None else ""
    if not report.passed:  # fuzz's order: a witness is a failure even beside a reason
        status, note = "FAIL", f"  witness: {report.witness}"
    elif not report.applicable:
        status, note = "n/a ", f"  ({report.reason})"
    else:
        status, note = "PASS", ""
    return f"[{status}] {report.theorem_id.value}{where}{note}"


@main.command()
@click.argument("space_source")
@click.option("--seq", "seq_literal", required=True)
@click.option("--r-grid", "r_grid", default=None,
              help="Comma-separated degrees; defaults to a grid spanning the critical degree and the diameter.")
@click.option("--offset", default=1, show_default=True, help="Subsequence check offset.")
@click.option("--stride", default=2, show_default=True, help="Subsequence check stride.")
@format_option
def theorems(space_source: str, seq_literal: str, r_grid: str, offset: int, stride: int, fmt: str):
    """Run every theorem check over a grid of roughness degrees."""
    space = _build(_load_spec(space_source))
    seq = _sequence(space, seq_literal)
    grid = _r_values(r_grid) if r_grid is not None else list(default_r_grid(space, seq))
    if offset < 1 or stride < 1:
        raise click.UsageError("offset and stride must be >= 1")
    reports = run_all(space, seq, grid, offset=offset, stride=stride)
    failures = sum(1 for rep in reports if not rep.passed)
    if fmt == "structured":
        _echo_yaml({
            "r_grid": grid,
            "checks": [
                {"theorem": rep.theorem_id.value,
                 "r": rep.params.get("r"),
                 "passed": rep.passed,
                 "applicable": rep.applicable,
                 "witness": rep.witness,
                 "reason": rep.reason,
                 }
                for rep in reports
            ],
            "failures": failures,
        })
    else:
        for rep in reports:
            click.echo(_report_line(rep))
        click.echo(f"{len(reports)} checks, {failures} failure(s)")
    raise SystemExit(0 if failures == 0 else 1)


@main.command(name="fuzz")
@click.option("--trials", default=FuzzConfig.trials, show_default=True)
@click.option("--max-points", default=FuzzConfig.max_points, show_default=True)
@click.option("--max-cycle", default=FuzzConfig.max_cycle, show_default=True)
@click.option("--max-prefix", default=FuzzConfig.max_prefix, show_default=True)
@click.option("--seed", default=FuzzConfig.seed, show_default=True)
@click.option("--r-grid", "r_grid", default=None,
              help="Fixed degree grid; defaults to a per-trial adaptive grid.")
def fuzz_cmd(trials: int, max_points: int, max_cycle: int, max_prefix: int, seed: int, r_grid: str):
    """Property-check every theorem on random valid spaces and sequences."""
    try:
        config = FuzzConfig(
            trials=trials, max_points=max_points, max_cycle=max_cycle,
            max_prefix=max_prefix, seed=seed,
            r_grid=tuple(_r_values(r_grid)) if r_grid is not None else None,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    summary = fuzz(config)
    click.echo(render_summary(summary), nl=False)
    raise SystemExit(0 if summary.failures == 0 else 1)


@main.command(name="emit")
@click.argument("space_source")
def emit(space_source: str):
    """Print a space as a document (round-trips through the loader)."""
    click.echo(dump_space(_load_spec(space_source)), nl=False)


if __name__ == "__main__":
    main()
