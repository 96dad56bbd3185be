"""The package holds only what its commands and public API run: every
module-level def and class in src/potts1d is reached from potts1d.__all__,
cli.main or a module-level statement.  Code that only tests call belongs in
tests/reference.py."""

import ast
from pathlib import Path

import potts1d

PACKAGE = Path(potts1d.__file__).parent


def _references(node, modules):
    """Names loaded under node, and attributes read from a package module
    (numtext.e16); a field declaration or a keyword is not a reference."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in modules:
            yield sub.attr


def test_every_definition_is_reached():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    defined, roots = {}, set(potts1d.__all__) | {"main"}
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(stmt.name, []).append((module, stmt))
            else:
                roots.update(_references(stmt, trees))
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in defined and name not in reached:
            reached.add(name)
            for _, stmt in defined[name]:
                todo.extend(_references(stmt, trees))
    unreached = sorted(f"{module}.{name}" for name in defined.keys() - reached for module, _ in defined[name])
    assert not unreached, f"defined in src/potts1d but never run by a command or __all__: {unreached}"
