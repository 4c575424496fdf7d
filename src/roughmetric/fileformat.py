"""Structured-text documents for spaces, plus the CLI sequence literal.

A space document is YAML with three keys::

    points: [1, 2, 3]
    dist:
    - [0, 1, "1/sqrt(2)"]
    - [1, 0, 1]
    - ["1/sqrt(2)", 1, 0]
    alpha:
    - [1, 1, 1]
    - [1, 1, "sqrt(2)"]
    - [1, "sqrt(2)", 1]

Tables are row-major, indexed by the ``points`` order. Entries are numbers or
small expressions (``sqrt(x)`` and a single division), so golden files can
carry exact irrational values without precision drift. Reals are emitted with
up to 12 significant digits.

PyYAML is imported by the functions that read or write YAML, on first use,
so ``import roughmetric`` does not load it.
"""

from __future__ import annotations

import math
import re
from functools import partial

from .sequences import EpSequence
from .spaces import ControlledSpace, ShapeError, SpaceSpec


class LoadError(ValueError):
    """Document cannot be parsed: bad syntax, missing field, bad entry."""


_NUMBER = r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
_TERM = rf"(?:{_NUMBER}|sqrt\(\s*{_NUMBER}\s*\))"
_EXPR_RE = re.compile(rf"^\s*(-?)\s*({_TERM})\s*(?:/\s*({_TERM})\s*)?$")


def _eval_term(text: str) -> float:
    text = text.strip()
    if text.startswith("sqrt"):
        return math.sqrt(float(text[text.index("(") + 1 : text.rindex(")")]))
    return float(text)


def parse_real(value, where: str = "value") -> float:
    """A table entry: a number, or an expression like ``1/sqrt(2)``."""
    if isinstance(value, bool):
        raise LoadError(f"{where}: expected a real number, got {value!r}")
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:  # an int beyond the float range
            raise LoadError(f"{where}: integer too large for a real number") from None
    if isinstance(value, str):
        m = _EXPR_RE.match(value)
        if not m:
            raise LoadError(
                f"{where}: cannot parse {value!r} "
                "(expected a number, sqrt(x), or a single division of those)"
            )
        sign, num, den = m.groups()
        divisor = _eval_term(den) if den else 1.0
        if divisor == 0.0:
            raise LoadError(f"{where}: division by zero in {value!r}")
        out = _eval_term(num) / divisor
        return -out if sign else out
    raise LoadError(f"{where}: expected a real number, got {type(value).__name__}")


def _parse_table(doc: dict, key: str, n: int) -> list[list[float]]:
    if key not in doc:
        raise ShapeError(f"missing {key} table")
    rows = doc[key]
    if not isinstance(rows, list):
        raise ShapeError(f"{key} must be a list of rows")
    if len(rows) != n:
        raise ShapeError(f"{key} has {len(rows)} rows, expected {n}")
    table = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ShapeError(f"{key} row {i} must be a list")
        if len(row) != n:
            raise ShapeError(f"{key} row {i} has {len(row)} entries, expected {n}")
        table.append([parse_real(v, where=f"{key}[{i}][{j}]") for j, v in enumerate(row)])
    return table


def _literal_name(p, error=ValueError) -> str:
    """``str(p)``, the name a sequence literal gives ``p``.

    Raises ``error`` when no literal can name ``p``: the parser splits on ``,``
    and ``|`` and strips whitespace around each name.
    """
    text = str(p)
    if not text or text != text.strip() or "," in text or "|" in text:
        raise error(f"point id {p!r} cannot be named in a sequence literal "
                    "(empty, containing ',' or '|', or with leading or trailing whitespace)")
    return text


# libyaml reads text made only of these characters as the pure-Python parser
# does; outside them the two disagree (a tab after a key, tags, anchors, ...).
# dump_space writes nothing else for ids of letters, digits and ``_.-``.
_LIBYAML_TEXT = re.compile(r'[A-Za-z0-9 ,.\[\]"/()+\n:_-]*')
# libyaml's composer recurses in C once per nesting level and, on an 8 MB
# stack, kills the interpreter near 20,000 levels. Within the subset a level
# opens with '[' or a block entry '- ' (a '[a: ' level adds a mapping too);
# any other nesting needs one more column of indentation per level. The
# pure-Python parser raises RecursionError near 500 levels.
_LIBYAML_MAX_OPENERS = 5_000


def _parse(text: str):
    """``yaml.safe_load(text)``, through libyaml when that gives the same result.

    Errors always come from the pure-Python parser, so their text and marks do
    not depend on whether libyaml is installed.
    """
    import yaml

    libyaml = getattr(yaml, "CSafeLoader", None)
    if (libyaml is not None and _LIBYAML_TEXT.fullmatch(text)
            and text.count("[") + text.count("- ") <= _LIBYAML_MAX_OPENERS):
        try:
            return yaml.load(text, Loader=libyaml)
        except Exception:  # any libyaml failure: let the pure parser report it
            pass
    return yaml.safe_load(text)


def load_space(text: str) -> SpaceSpec:
    """Parse a space document. Shape is enforced here; the axioms are not."""
    try:
        return _load_space(text)
    except RecursionError as exc:
        raise LoadError("document is nested too deeply") from exc


def _load_space(text: str) -> SpaceSpec:
    import yaml

    try:
        doc = _parse(text)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int past int's digit limit
        mark = getattr(exc, "problem_mark", None)
        at = f" at line {mark.line + 1}" if mark is not None else ""
        raise LoadError(f"invalid document syntax{at}: {exc}") from exc
    if not isinstance(doc, dict):
        raise LoadError("document must be a mapping with points, dist and alpha")
    if "points" not in doc:
        raise LoadError("missing required field 'points'")
    points = doc["points"]
    if not isinstance(points, list) or not points:
        raise LoadError("points must be a nonempty list")
    for p in points:
        if isinstance(p, bool) or not isinstance(p, (int, str)):
            raise LoadError(f"point ids must be integers or strings, got {p!r}")
    by_text: dict = {}
    for p in points:  # sequence literals name points by their text form
        other = by_text.setdefault(_literal_name(p, LoadError), p)
        if other != p:
            raise LoadError(f"point ids {other!r} and {p!r} share the text form {str(p)!r}")
    n = len(points)
    dist = _parse_table(doc, "dist", n)
    alpha = _parse_table(doc, "alpha", n)
    extra = set(doc) - {"points", "dist", "alpha"}
    if extra:
        raise LoadError(f"unknown fields: {sorted(extra)}")
    return SpaceSpec(points=tuple(points), dist=dist, alpha=alpha)


def format_real(x: float) -> str:
    """Decimal with up to 12 significant digits."""
    return "%.12g" % x


_BARE_STRING = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")


def _scalar(p, resolve) -> str:
    if isinstance(p, bool) or not isinstance(p, (int, str)):
        raise ValueError(f"cannot serialize point id {p!r}")
    if isinstance(p, int):
        return str(p)
    # bare only when YAML reads it back as this string, not as a bool (on, No) or null
    if _BARE_STRING.match(p) and resolve(p) == "tag:yaml.org,2002:str":
        return p
    return '"' + p.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dump_space(spec: SpaceSpec) -> str:
    """Emit a space document; loading it back reproduces the tables to 12
    significant digits."""
    resolve = None
    if any(isinstance(p, str) for p in spec.points):  # only string ids need YAML's resolver
        import yaml

        # the tag yaml.safe_load gives a plain scalar
        resolve = partial(yaml.resolver.Resolver().resolve, yaml.ScalarNode, implicit=(True, False))
    lines = ["points: [" + ", ".join(_scalar(p, resolve) for p in spec.points) + "]"]
    for key, table in (("dist", spec.dist), ("alpha", spec.alpha)):
        lines.append(f"{key}:")
        for row in table:
            lines.append("- [" + ", ".join(format_real(v) for v in row) + "]")
    return "\n".join(lines) + "\n"


def dump_document(doc: dict) -> str:
    """A structured YAML document, keys in insertion order."""
    import yaml

    return yaml.safe_dump(doc, sort_keys=False)


def parse_sequence_literal(text: str, space: ControlledSpace) -> EpSequence:
    """``"c1,c2,..."`` or ``"p1,p2|c1,c2,..."``: prefix then repeating cycle.

    Tokens are matched against the space's points by their string form.
    """
    by_name = {str(p): p for p in space.points}

    def resolve(tokens: str, part: str) -> tuple:
        out = []
        for tok in tokens.split(","):
            tok = tok.strip()
            if not tok:
                continue
            if tok not in by_name:
                raise ValueError(f"unknown point {tok!r} in sequence {part}")
            out.append(by_name[tok])
        return tuple(out)

    if "|" in text:
        prefix_part, cycle_part = text.split("|", 1)
    else:
        prefix_part, cycle_part = "", text
    prefix = resolve(prefix_part, "prefix")
    cycle = resolve(cycle_part, "cycle")
    if not cycle:
        raise ValueError("sequence literal needs a nonempty cycle")
    return EpSequence(prefix=prefix, cycle=cycle)


def sequence_literal(seq: EpSequence) -> str:
    cycle = ",".join(_literal_name(v) for v in seq.cycle)
    if seq.prefix:
        return ",".join(_literal_name(v) for v in seq.prefix) + "|" + cycle
    return cycle
