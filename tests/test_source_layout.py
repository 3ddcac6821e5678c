"""Layout of the package source: private helpers must serve the package.

A slow reference route that only tests call belongs in the test that
compares against it, not in src/braceforge.  So every _-prefixed function
and method defined in the package must be referenced somewhere in the
package outside its own definition; an import alone does not count.
"""

import ast
from collections import Counter
from pathlib import Path

import braceforge

SRC = Path(braceforge.__file__).parent


def _private_defs(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield node


def _name_counts(tree) -> Counter:
    """How often each Name and attribute name occurs in tree."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_private_helper_is_used_in_the_package():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    total = sum((_name_counts(tree) for tree in trees.values()), Counter())
    defs = [(name, node) for name, tree in trees.items() for node in _private_defs(tree)]
    assert len(defs) > 20
    # a use inside the helper's own body, such as recursion, does not count
    unused = [f"{module}:{node.lineno} {node.name}" for module, node in defs
              if total[node.name] == _name_counts(node)[node.name]]
    assert unused == []
