"""Layout of the package source: private helpers must serve the package.

A slow reference route that only tests call belongs in the test that
compares against it, not in src/braceforge.  So every _-prefixed function
and method defined in the package must be referenced somewhere in the
package outside its own definition; an import alone does not count.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import numpy as np

import braceforge
from braceforge.groups import FiniteGroup

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
    "catalog": {"builtin_entries"},
    "cohomology": {"pair_sub", "pair_is_cocycle", "derivation_add", "free_transitive_report",
                   "component_law_witness", "_component_law_residual", "_parent_residual_stack",
                   "_kernel"},
    "extensions": {"action_identities_witness", "cocycle_conditions_witness",
                   "parent_relation_witness", "_parent_relation_cells", "sections"},
    "groups": {"is_perm", "generate"},
    "split": {"decode_pair", "compat_as_written_witness", "_compat_cube", "_compat_cells"},
    "wells": {"pair_inv"},
}


def test_test_only_helpers_stay_out_of_the_package():
    for module, names in TEST_ONLY.items():
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        assert defined & names == set(), module


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Top-level definitions that no command reaches yet, each with the reason
# it stays in the package.  The scan follows names from these as it does
# from the commands, so what they call needs no entry of its own.
_TRACED = "perfbench/tracer.py wraps it by name for a per-layer metric"
_PUBLIC = "public library API, pinned by its own tests"
UNREACHED = {
    "cohomology.z2N": _TRACED,
    "cohomology.b2N": _TRACED,
    "cohomology.z1N": _TRACED,
    "extensions.enumerate_all_extensions": _TRACED,
    "extensions.ext_classes": _TRACED,
    "extensions.extensions_equivalent": _TRACED,
    "groups.all_group_tables": _TRACED,
    "braces.find_brace_isomorphism": _TRACED,
    "extensions.couplings_classwise_equal":
        "the coarse stabiliser reading, kept until the Wells stabiliser fix for"
        " non-abelian kernels decides whether it is the paper's C (ROADMAP)",
    "extensions.h2_alpha":
        "with z2_alpha, the triplet route that takes Ext past order 7 (ROADMAP)",
    "split.split_decompose":
        "the split theorem, decided in coordinates and run by a command (ROADMAP)",
    "cohomology.h2_act": _PUBLIC + ": the H^2 action on an extension, through h2_act_triplet",
    "wells.pair_act": _PUBLIC + ": the compatible-pair action on an extension",
    "wells.c_act_on_h2": _PUBLIC + ": the C-action on one cocycle pair, one"
        " wells._transport call; the Wells check moves all of C in one such call",
    "braces.is_ideal": _PUBLIC + ": the ideal test; validate_extension needs none, as"
        " the kernel of a brace hom is an ideal",
    "extensions.coupling_of": _PUBLIC + ": the coupling of an extension, in __all__",
    "catalog.trivial_brace_entries": _PUBLIC + ": the catalog's built-in trivial braces",
    "catalog.fixture_extension_entries": _PUBLIC + ": the catalog's built-in extensions",
    "catalog.example1_finite": _PUBLIC + ": the finite form of the paper's example 1",
}


def _reached(links: dict, start: set) -> set:
    """The names reached from start, following links: name -> the names
    its definitions mention."""
    reached, frontier = set(), set(start)
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            frontier |= links.get(name, set()) - reached
    return reached


def test_every_definition_is_reached_from_a_command():
    # a name-based scan: the roots are cli.py and every top-level statement
    # of the package that is neither a definition nor an import (an import
    # alone does not count); a name counts as reached once a reached body
    # mentions it, so the scan can only undercount what is unreached
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    definitions, roots = {}, set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, _DEFINITIONS):
                definitions.setdefault(node.name, []).append(node)
            if module == "cli" or not isinstance(node, _DEFINITIONS + (ast.Import, ast.ImportFrom)):
                roots |= _name_counts(node).keys()
    assert len(definitions) > 200
    links = {name: set().union(*map(_name_counts, nodes)) for name, nodes in definitions.items()}
    every = _reached(links, roots | {q.split(".")[1] for q in UNREACHED})
    unreached = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
                 if isinstance(node, _DEFINITIONS) and node.name not in every]
    assert unreached == []
    # every entry is defined where it says, has a reason, and is needed: no
    # command reaches it, nor does another entry
    for qualified, reason in UNREACHED.items():
        module, name = qualified.split(".")
        assert name in {node.name for node in trees[module].body
                        if isinstance(node, _DEFINITIONS)}, qualified
        assert reason.strip(), qualified
        others = {q.split(".")[1] for q in UNREACHED if q != qualified}
        assert name not in _reached(links, roots | others), qualified


def _tracer_targets() -> dict:
    """TARGETS of perfbench/tracer.py, read from its source."""
    tree = ast.parse((SRC.parents[1] / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    node = next(node for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"])
    return ast.literal_eval(node.value)


def test_every_tracer_target_resolves():
    # the tracer patches each target by name, so a target the package no
    # longer defines breaks --trace 1 and --selfcheck; "Class.__init__"
    # patches the class in place, so the class must define it itself
    targets = _tracer_targets()
    assert "cli" in targets and sum(map(len, targets.values())) > 20
    missing = []
    for layer, funcs in targets.items():
        module = importlib.import_module(f"braceforge.{layer}")
        for func in funcs:
            owner, _, attr = func.rpartition(".")
            if owner:
                cls = getattr(module, owner, None)
                found = isinstance(cls, type) and attr in vars(cls)
            else:
                found = callable(getattr(module, attr, None))
            if not found:
                missing.append(f"{layer}.{func}")
    assert missing == []


def test_no_sign_variant_switches_in_the_package():
    # the published sign variants and the laws-only listing are erratum
    # diagnostics: the tests that pin them carry them
    switches = {"as_written", "laws_only"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                found += [f"{path.stem}.{node.name}({a.arg})" for a in params
                          if a.arg in switches]
    assert found == []


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


def test_one_homomorphism_test_and_one_relabelling():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    # every homomorphism question ends in groups._respects, on generator
    # cells: BraceHom.is_valid, is_automorphism and the engine's leaf check,
    # which sits in the search function nested in _homomorphisms
    callers = {(module, owner) for module, tree in trees.items()
               for owner in _callers(tree, "_respects")}
    assert callers == {("braces", "is_valid"), ("groups", "is_automorphism"),
                       ("groups", "extend")}
    engine = next(node for node in ast.walk(trees["groups"])
                  if isinstance(node, ast.FunctionDef) and node.name == "_homomorphisms")
    assert _callers(engine, "_respects") == {"extend"}
    # split_decompose asks BraceHom.is_valid whether its section is a hom
    assert "split_decompose" in _callers(trees["split"], "is_valid")
    # relabel_table renames through the one gather
    assert "relabel_table" in _callers(trees["groups"], "_relabel_stack")
    # a rebuilt triplet is an extension by its formulas: it is neither
    # validated as one nor extracted again
    for name in ("validate_extension", "extract_triplet"):
        assert "extension_from_triplet" not in _callers(trees["extensions"], name)


def test_one_greedy_walk():
    # the generating sequence, the generator cells and permutation-group
    # closure all come from groups._generator_cells
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    callers = {(module, owner) for module, tree in trees.items()
               for owner in _callers(tree, "_generator_cells")}
    assert callers == {("groups", "generator_cells"), ("groups", "is_group")}
    assert [f"{module}:{node.lineno}" for module, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_generators"] == []


def _filled(obj, slot: str) -> bool:
    """Whether a slot holds a value, read past the __getattr__ that fills it."""
    try:
        type(obj).__dict__[slot].__get__(obj)
    except AttributeError:
        return False
    return True


def test_a_group_built_from_an_array_holds_no_tuple_rows():
    # the int64 array is the primary table form; the tuple rows, the
    # inverses and the hash wait until Python code asks for them
    G = FiniteGroup(np.array([[(a + b) % 5 for b in range(5)] for a in range(5)]))
    assert [s for s in ("table", "inv", "_hash") if _filled(G, s)] == []
    assert G.np_table.dtype == np.int64 and not G.np_table.flags.writeable
    rows = G.table
    assert _filled(G, "table") and rows is G.table and not _filled(G, "_hash")


def test_one_coupling_relation():
    # every coupling question is a lookup in extensions.Coupling's twist
    # orbits: twists are made only where Coupling builds them and by
    # twist_action, and no other witness search is defined
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    callers = {(module, owner) for module, tree in trees.items()
               for owner in _callers(tree, "_twist_at")}
    assert callers == {("extensions", "__init__"), ("extensions", "twist_action")}
    coupling = next(node for node in trees["extensions"].body
                    if isinstance(node, ast.ClassDef) and node.name == "Coupling")
    assert _callers(coupling, "_twist_at") == {"__init__"}
    assert [f"{module}:{node.lineno} {node.name}" for module, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and node.name in ("_twists_at", "_first_witnesses")] == []


def test_one_owner_for_C():
    # StabilizerC decides its maps on its generators and keeps each pair's
    # twist, so wells_map reads C: the brace-automorphism check is made by
    # pair_act and StabilizerC.__init__ only, and wells_map builds no
    # Coupling, checks no map and raises ActionNotTransitive at one place
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    callers = {(module, owner) for module, tree in trees.items()
               for owner in _callers(tree, "_check_brace_auto")}
    assert callers == {("wells", "pair_act"), ("wells", "__init__")}
    stabilizer = next(node for node in trees["wells"].body
                      if isinstance(node, ast.ClassDef) and node.name == "StabilizerC")
    assert _callers(stabilizer, "_check_brace_auto") == {"__init__"}
    wells_map = next(node for node in trees["wells"].body
                     if isinstance(node, ast.FunctionDef) and node.name == "wells_map")
    assert _callers(wells_map, "Coupling") == _callers(wells_map, "_check_brace_auto") == set()
    assert [isinstance(node.func, ast.Name) and node.func.id for node in ast.walk(wells_map)
            if isinstance(node, ast.Call)].count("ActionNotTransitive") == 1
