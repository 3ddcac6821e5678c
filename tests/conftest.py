"""Shared fixtures: small trivial braces and catalog builds used across files.

Session scope keeps the expensive constructions (catalog examples,
exhaustive enumerations, the labelled braces of small orders) to one
evaluation per run.
"""

import sys

import pytest

from braceforge import catalog
from braceforge.braces import trivial_brace, validate_brace
from braceforge.errors import ValidationError
from braceforge.groups import all_group_tables, cyclic_group


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn) wraps every binding of fn in the loaded braceforge
    modules and returns a dict whose "calls" entry counts the calls."""

    def install(fn):
        counter = {"calls": 0}

        def counted(*args, **kwargs):
            counter["calls"] += 1
            return fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "braceforge" or name.startswith("braceforge."):
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        monkeypatch.setattr(mod, key, counted)
        return counter

    return install


@pytest.fixture(scope="session")
def Z2():
    return trivial_brace(cyclic_group(2))


@pytest.fixture(scope="session")
def Z3():
    return trivial_brace(cyclic_group(3))


@pytest.fixture(scope="session")
def Z4():
    return trivial_brace(cyclic_group(4))


@pytest.fixture(scope="session")
def flip4():
    """Order-4 brace with cyclic addition and a o b = a + (-1)^a b."""
    return catalog.example4_coefficient_brace()


@pytest.fixture(scope="session")
def xor4():
    """Order-4 brace with XOR addition and cyclic circle."""
    return catalog.example4_acting_brace()


@pytest.fixture(scope="session")
def split_ext(Z2, Z3):
    return catalog.split_z2_z3_extension()


@pytest.fixture(scope="session")
def z4_ext():
    return catalog.z4_additive_extension()


@pytest.fixture(scope="session")
def pairwise_braces():
    """Every labelled brace of order n: each (add, circ) pair of group
    tables of order n through validate_brace.  The oracle for the
    candidate loop of enumerate_all_extensions, and the brace list the
    gathered lambda table and identities are compared on."""
    cache = {}

    def braces(n):
        if n not in cache:
            tables = all_group_tables(n)
            found = []
            for add in tables:
                for circ in tables:
                    try:
                        found.append(validate_brace(add, circ))
                    except ValidationError:
                        continue
            cache[n] = found
        return cache[n]

    return braces
