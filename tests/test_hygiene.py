"""Code hygiene: helpers that nothing uses are deleted."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gliomaforge"


def _module_private_names(tree):
    """(name, statement) for each module-level private (leading `_`, not
    dunder) function, class or assigned name."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, stmt


def _references(tree):
    """(name, line) of every name read or attribute taken in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_private_helper_is_used():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.rglob("*.py"))}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    unused = []
    for path, tree in trees.items():
        for name, stmt in _module_private_names(tree):
            used = any(
                ref == name and not (other == path and stmt.lineno <= line <= stmt.end_lineno)
                for other, found in refs.items()
                for ref, line in found
            )
            if not used:
                unused.append(f"{path.relative_to(SRC)}: {name}")
    assert not unused, "private names that nothing in src/ uses: " + ", ".join(unused)
