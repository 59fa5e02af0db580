"""Production code holds only what the package itself runs.

A public top-level function or class of `src/mfou` that nothing in `src/mfou`
uses belongs in `tests/oracles.py` (a reference the tests compare against) or
nowhere. An error class that nothing raises is a promise the taxonomy does not
keep.
"""

import ast
from collections import Counter
from pathlib import Path

import mfou

SRC = Path(mfou.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _names(tree) -> Counter:
    """How often each name or attribute is read in `tree`."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
    return found


def _unused():
    """Public top-level definitions read nowhere in the package outside themselves."""
    everywhere = sum((_names(tree) for tree in MODULES.values()), Counter())
    return {
        f"{module}.{node.name}": node
        for module, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and everywhere[node.name] == _names(node)[node.name]
    }


def test_every_public_definition_is_used_in_the_package():
    assert sorted(_unused()) == []


def test_every_error_class_is_raised_in_the_package():
    classes = {node.name: node for node in MODULES["errors"].body if isinstance(node, ast.ClassDef)}
    dead = {id(node) for unused in _unused().values() for node in ast.walk(unused)}
    raised = set()
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None and id(node) not in dead:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.update(_names(exc))
    # a family base (MfouError, NumericalError) counts through the classes derived from it
    bases = {b.id for node in classes.values() for b in node.bases if isinstance(b, ast.Name)}
    assert sorted(set(classes) - raised - bases) == []
