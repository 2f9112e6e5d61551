"""Code hygiene of src/gm4, read with the standard library's ast: no
module-level import that nothing uses, no _private function or class
that nothing references, no public top-level function or class that
nothing in src/gm4, tests/ or bench/ references, no assert statement,
and every function the bench traces exists."""
import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gm4"


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _reads(tree):
    """How often a module reads each identifier: bare names and attribute
    names."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _imported_from(trees, module):
    """Names that modules of the package import from module."""
    out = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
                out.update(alias.name for alias in node.names)
    return out


def test_no_unused_module_imports():
    trees = _trees()
    unused = []
    for module, tree in trees.items():
        if module == "__init__":  # re-exports
            continue
        used = set(_reads(tree)) | _imported_from(trees, module)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{module}: {name}")
    assert unused == []


def test_no_unreferenced_private_definitions():
    trees = _trees()
    used = set().union(*(_reads(tree) for tree in trees.values()))
    unreferenced = [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert unreferenced == []


def test_no_unreferenced_public_definitions():
    # a reference is a bare name or an attribute name read anywhere but in
    # the definition's own body; an import alone does not count
    files = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    reads = Counter()
    for path in files:
        reads.update(_reads(ast.parse(path.read_text(encoding="utf-8"))))
    unreferenced = [
        f"{module}: {node.name}"
        for module, tree in _trees().items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and reads[node.name] == _reads(node)[node.name]
    ]
    assert unreferenced == []


def test_no_assert_statements():
    # python -O strips asserts, so a check that guards a result must raise
    asserts = [
        f"{module}.py:{node.lineno}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_bench_targets_resolve():
    # bench/tracing.py wraps these (module, function) pairs by name; read
    # with ast, so the bench itself is not imported
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS"
    ]
    missing = [
        f"{module}.{name}"
        for module, name in targets
        if not callable(getattr(importlib.import_module(f"gm4.{module}"), name, None))
    ]
    assert targets and missing == []
