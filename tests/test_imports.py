"""What importing ``roughmetric`` costs: every name a module imports is read
somewhere in it, and PyYAML is not loaded until a document is read or written.
Also who reads the tolerance, ``spaces`` alone; who builds a ``Violation``: one
function of ``spaces``; and who runs ``validate_axioms``: a space on
construction, and the ``validate`` command; who takes the min-plus product
behind (d3): one blocked kernel, called by the validator and ``random_space``;
and that no result type holds a space or a sequence, its caller's own inputs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
SOURCES = sorted(p for p in (SRC / "roughmetric").glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_importing_the_library_loads_no_yaml():
    code = ("import sys\nimport roughmetric, roughmetric.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('yaml', '_yaml')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.resolve())}, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def _reads_tolerance(node: ast.AST) -> bool:
    """Whether ``node`` loads or imports the name ``TOLERANCE``; assigning it is no read."""
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "TOLERANCE" for alias in node.names)
    if isinstance(node, ast.Name):
        return node.id == "TOLERANCE" and isinstance(node.ctx, ast.Load)
    if isinstance(node, ast.Attribute):
        return node.attr == "TOLERANCE" and isinstance(node.ctx, ast.Load)
    return False


def test_only_spaces_reads_the_tolerance():
    reads = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "roughmetric").glob("*.py")) if path.name != "spaces.py"
             for node in ast.walk(ast.parse(path.read_text())) if _reads_tolerance(node)]
    assert reads == []


def _scopes_loading(tree: ast.Module, name: str) -> list[str]:
    """The scope (dotted class and function names, or ``<module>``) of each load of
    ``name`` as a value; annotations only name a type, so they are skipped."""
    annotations = {id(sub) for node in ast.walk(tree)
                   for ann in (getattr(node, "annotation", None), getattr(node, "returns", None))
                   if ann is not None for sub in ast.walk(ann)}
    found = []

    def visit(node: ast.AST, scope: tuple) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        loaded = (isinstance(node, ast.Name) and node.id == name
                  or isinstance(node, ast.Attribute) and node.attr == name)
        if loaded and isinstance(node.ctx, ast.Load) and id(node) not in annotations:
            found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def _loads_by_file(name: str) -> dict:
    return {path.name: found for path in sorted((SRC / "roughmetric").glob("*.py"))
            if (found := _scopes_loading(ast.parse(path.read_text()), name))}


def test_one_function_builds_every_violation():
    loads = _loads_by_file("Violation")
    assert list(loads) == ["spaces.py"] and len(loads["spaces.py"]) == 1, loads


def test_only_a_new_space_and_the_validate_command_run_the_validator():
    # every other caller gets a space, which is valid by construction
    assert _loads_by_file("validate_axioms") == {
        "cli.py": ["validate"], "spaces.py": ["ControlledSpace.__post_init__"]}


def _broadcast_sums(tree: ast.Module) -> list[int]:
    """Lines of an operator between two subscripts that each add a ``None`` axis,
    such as ``d[:, :, None] + d[None, :, :]``: an outer sum over every index."""
    def adds_axis(node):
        if not isinstance(node, ast.Subscript):
            return False
        index = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        return any(isinstance(e, ast.Constant) and e.value is None for e in index)

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and adds_axis(node.left) and adds_axis(node.right)]


def test_one_kernel_takes_the_min_plus_product():
    # the kernel's blocks are written into one buffer through np.add(..., out=...)
    assert _broadcast_sums(ast.parse("hop = (d[:, :, None] + d[None, :, :]).min(axis=1)")) == [1]
    sums = {path.name: lines for path in sorted((SRC / "roughmetric").glob("*.py"))
            if (lines := _broadcast_sums(ast.parse(path.read_text())))}
    assert sums == {}
    assert _loads_by_file("_min_plus") == {
        "spaces.py": ["validate_axioms"], "theorems.py": ["random_space"]}


def _input_fields(tree: ast.Module) -> list[str]:
    """``Class.field`` for each dataclass field annotated with a space or a sequence."""
    def is_dataclass(dec):
        return getattr(dec.func if isinstance(dec, ast.Call) else dec, "id", None) == "dataclass"

    return [f"{node.name}.{item.target.id}" for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))
            for item in node.body if isinstance(item, ast.AnnAssign)
            if {n.id for n in ast.walk(item.annotation) if isinstance(n, ast.Name)}
            & {"ControlledSpace", "EpSequence"}]


def test_no_result_holds_its_inputs():
    # a result that held its space would pin the space's tables while it lives
    assert _input_fields(ast.parse(
        "@dataclass(frozen=True)\nclass R:\n    space: ControlledSpace\n")) == ["R.space"]
    found = {path.name: fields for path in SOURCES
             if (fields := _input_fields(ast.parse(path.read_text())))}
    assert found == {}
