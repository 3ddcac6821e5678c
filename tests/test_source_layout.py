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


# routines that only tests called, now inlined in the tests or moved into
# them (PermGroup.generate is tests/test_groups.py:_generate)
TEST_ONLY = {
    "cohomology": {"pair_sub", "pair_is_cocycle", "derivation_add", "free_transitive_report"},
    "groups": {"is_perm", "generate"},
    "split": {"decode_pair", "compat_as_written_witness"},
    "wells": {"pair_inv"},
}


def test_test_only_helpers_stay_out_of_the_package():
    for module, names in TEST_ONLY.items():
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        assert defined & names == set(), module


def _callers(tree, name):
    """The functions and methods in tree that call name, by their own name
    (the innermost enclosing definition)."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == name:
                found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def test_triplets_equivalent_only_finds_the_twist_of_extensions_equivalent():
    # classes are compared by class key (extensions._class_key); the
    # one-pair twist search serves extensions_equivalent alone
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callers |= {(path.stem, owner) for owner in _callers(tree, "triplets_equivalent")}
    assert callers == {("extensions", "extensions_equivalent")}
