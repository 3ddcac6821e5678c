"""Finite groups as dense Cayley tables with 0-based indices.

Conventions used everywhere in this package:
  * elements of a group of order n are the integers 0..n-1,
  * the identity sits at index 0,
  * permutations are tuples p with p[x] the image of x,
  * compose(p, q) applies q first, so compose(p, q)[x] = p[q[x]].

Tables as arrays.  The primary form of every Cayley table is a read-only
int64 array, FiniteGroup.np_table, and validate_group decides the axioms
on an array as it is given.  The tuple rows FiniteGroup.table, which the
homomorphism engine reads, the inverses and the hash are built from the
array the first time they are asked for; the greedy walk reads the array
itself, one item per cell.  A pair of equal tables is one group check
(braces.validate_brace).

Associativity on a generating set (Light's test).  Call s a good middle
element of a table when (x s) y = x (s y) for all x, y.  The good middle
elements are closed under the product: for good s, t and any x, y,

    (x (s t)) y = ((x s) t) y = (x s) (t y) = x (s (t y)) = x ((s t) y),

using s, then t, then s, then t.  So when every element of a set S is
good and S together with the identity generates the table under its own
product, every element is good and the table is associative.  This
costs n^2 |S| cells instead of n^3.  Such an S is the greedy generating
sequence, in which each element reached is 0, a generator, or a reached
element times a generator on the right.  One walk finds it,
_generator_cells, which records the cells that reach each element on the
way: a FiniteGroup walks its table once and keeps the cells
(generator_cells), and its generating_sequence is their heads.

validate_group decides associativity by this test at every order; the
braces module decides the brace axiom the same way.  Paired end-to-end
runs of both benchmark workloads against the full n^3 cube are in
BENCH_generator_axioms.json.

Homomorphisms on generator cells.  The same argument decides whether a
map f between groups is a homomorphism.  Call t good when
f(x t) = f(x) f(t) for all x.  For good s, t and any x,

    f(x (s t)) = f((x s) t) = f(x s) f(t) = f(x) f(s) f(t) = f(x) f(s t),

using t, then s, then t at x = s.  So when every generator is good, every
element is, and f is a homomorphism: n |S| cells decide it instead of
n^2.  _homomorphisms backtracks over the images of the greedy generating
sequence g_1 .. g_m and keeps the map a homomorphism on
G_j = <g_1 .. g_j> at depth j.  An image of g_{j+1} sets f on the
elements of G_{j+1} outside G_j along the cells _generator_cells
walks, and is kept when the rest of those cells agree: the old elements
times g_{j+1}, and each new element times every generator so far.  Over
one path of the search these are the n |S| cells of the test, less the
cells 0 g_j, and none is visited twice.  Each map found is returned as
its image tuple, the form every caller keeps.  Paired end-to-end runs
against the all-pairs closure that came before are in
BENCH_generator_homs.json.

PermGroup.is_group runs the same walk over its sorted elements, with
compose for the product: a finite set of permutations that holds the
identity and is closed under right multiplication by a set T that
generates it is a group, so the walk decides closure on |S| |T|
products, a product outside the set ends it, and the walk's heads are T.
_generator_cells is the one greedy walk of the package.

Every other homomorphism question in the package is this test on a
given map, _respects: is_automorphism, BraceHom.is_valid and the engine's
check of a total map's other operations.  Likewise one numpy gather,
_relabel_stack, renames every table: relabel_table is its one-permutation
case, split relabels its product stacks with it, and _group_table_index
calls it once per standard group to build the stack of all group tables
of an order together with its relabelling index, from which
extensions._brace_orbits reads every other relabelling without a gather.
"""

from __future__ import annotations

from itertools import permutations
from math import gcd, prod
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import budget as budget_mod
from .errors import (
    InputError,
    NoIdentityAtZero,
    NoInverse,
    NotAssociative,
    NotClosed,
    OrderBoundExceeded,
)

Perm = tuple  # tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """compose(p, q)[x] = p[q[x]]  (q acts first)."""
    return tuple([p[x] for x in q])


def invert_perm(p: Sequence[int]) -> Perm:
    r = [0] * len(p)
    for x, y in enumerate(p):
        r[y] = x
    return tuple(r)


def perm_order(p: Sequence[int]) -> int:
    n = len(p)
    order = 1
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        order = order * length // gcd(order, length)
    return order


def relabel_table(table: Sequence[Sequence[int]], perm: Sequence[int]) -> list:
    """Cayley table with element x renamed to perm[x], by _relabel_stack.

    Raises NotClosed on an entry outside 0..n-1, with the witness
    validate_group gives for it: the first such entry in row-major order."""
    n = len(table)
    for a, row in enumerate(table):
        for b, cell in enumerate(row):
            if not 0 <= cell < n:
                raise NotClosed(f"entry ({a},{b}) = {cell!r} out of range", a=a, b=b)
    return _relabel_stack(np.array(table, dtype=np.int64), np.array([perm]))[0].tolist()


class FiniteGroup:
    """Immutable group given by its full multiplication table.

    The read-only int64 array np_table is the primary form of the table.
    The tuple rows `table`, the inverses `inv`, the inner automorphisms
    `inner` (inner[g] = inner_automorphism(G, g)) and the hash are built the
    first time Python code asks for them: __getattr__ runs only for an
    unset slot, fills it and returns the value, so every later read is a
    plain slot read.  A group whose table only numpy reads never builds
    them."""

    __slots__ = ("n", "np_table", "inv", "table", "inner", "_abelian", "_orders", "_cells",
                 "_hash")

    def __init__(self, table: Sequence[Sequence[int]]):
        arr = np.array(table, dtype=np.int64)
        arr.flags.writeable = False
        self.n = len(arr)
        self.np_table = arr
        self._abelian = None
        self._orders = None
        self._cells = None

    def __getattr__(self, name: str):
        if name == "table":
            value = tuple(map(tuple, self.np_table.tolist()))
        elif name == "inv":
            # inv[a] is the first b with a*b = 0 = b*a, or -1 when there is none
            zero = self.np_table == 0
            both = zero & zero.T
            value = tuple(np.where(both.any(axis=1), both.argmax(axis=1), -1).tolist())
        elif name == "inner":
            # inner[g][z] = (g z) g^-1, as conj
            t = self.np_table
            value = tuple(map(tuple, t[t, np.asarray(self.inv)[:, None]].tolist()))
        elif name == "_hash":
            value = hash(self.table)
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.n})"

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def conj(self, g: int, z: int) -> int:
        """g z g^-1."""
        return self.table[self.table[g][z]][self.inv[g]]

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            t = self.np_table
            self._abelian = bool(np.array_equal(t, t.T))
        return self._abelian

    def element_order(self, a: int) -> int:
        if self._orders is None:
            orders = []
            for x in range(self.n):
                k, y = 1, x
                while y != 0:
                    y = self.table[y][x]
                    k += 1
                orders.append(k)
            self._orders = tuple(orders)
        return self._orders[a]

    def order_profile(self) -> tuple:
        """Sorted multiset of element orders; an isomorphism invariant."""
        return tuple(sorted(self.element_order(a) for a in range(self.n)))

    def is_subgroup(self, elems: Iterable[int]) -> bool:
        s = set(elems)
        if 0 not in s:
            return False
        return all(self.table[a][b] in s for a in s for b in s)

    def centre(self) -> tuple:
        t = self.table
        return tuple(
            a for a in range(self.n) if all(t[a][b] == t[b][a] for b in range(self.n))
        )

    def relabel(self, perm: Sequence[int]) -> "FiniteGroup":
        """Group with element x renamed to perm[x]."""
        return FiniteGroup(relabel_table(self.table, perm))

    def generating_sequence(self) -> tuple:
        """The greedy generating sequence g_1 .. g_m: the heads of
        generator_cells(), which the same walk returns."""
        if self._cells is None:
            self.generator_cells()
        return self._cells[0]

    def generator_cells(self) -> tuple:
        """The cells of _generator_cells on the table, walked once."""
        if self._cells is None:
            self._cells = _generator_cells(self.n, self.np_table.item)
        return self._cells[1]


def _generator_cells(n: int, product: Callable, charge: Optional[Callable] = None) -> tuple:
    """(gens, plan): the greedy generating sequence of a product on
    0..n-1 with identity 0, and the cells that reach each element;
    product(x, s) is the index of x s.  The generators are, repeatedly,
    the least element g_j not yet reached from 0 by right multiplication
    by the chosen ones; in a group that is the least element outside
    G_{j-1} = <g_1 .. g_{j-1}>.

    plan has one (defines, checks, new) per generator.  new lists the
    elements reached with g_j, g_j first.  defines and checks hold the
    cells (x, s, x s), s one of g_1 .. g_j, that reach them: the old
    elements times g_j, then each new element times every generator so
    far.  A define cell reaches x s first, a check cell an element
    already reached; 0 g_j = g_j is no cell.  Each element is multiplied
    by each generator once, so the cost is n |S| products.  charge(j),
    when given, is called as g_j joins, before its products are taken."""
    seen = [False] * n
    seen[0] = True
    reached = [0]
    gens: list = []
    plan = []
    for g in range(1, n):
        if seen[g]:
            continue
        gens.append(g)
        if charge is not None:
            charge(len(gens))
        seen[g] = True
        new = [g]
        defines: list = []
        checks: list = []
        # what was reached is closed under the earlier generators, so only
        # its products with g start new work; the cell is written out in
        # both loops, since a helper called per cell slows every walk
        for x in reached[1:]:
            c = product(x, g)
            if seen[c]:
                checks.append((x, g, c))
            else:
                seen[c] = True
                new.append(c)
                defines.append((x, g, c))
        for x in new:  # the list grows while it is walked
            for s in gens:
                c = product(x, s)
                if seen[c]:
                    checks.append((x, s, c))
                else:
                    seen[c] = True
                    new.append(c)
                    defines.append((x, s, c))
        reached.extend(new)
        plan.append((tuple(defines), tuple(checks), tuple(new)))
    return tuple(gens), tuple(plan)


def validate_group(table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Check the full group axioms on a table, identity pinned at index 0.

    The axioms are decided on an integer array, the table itself when it
    is one; only a table that fails them, or is not a square integer
    array, goes through _group_failure, which names the first failing
    check."""
    try:
        G = _group_if_valid(np.asarray(table))
    except (ValueError, TypeError):  # ragged rows
        G = None
    if G is None:
        _group_failure(table)
        G = FiniteGroup(table)
    return G


def _group_if_valid(t: np.ndarray) -> Optional[FiniteGroup]:
    """The group of a square integer table that passes range, identity at
    0, two-sided inverses and associativity, decided in numpy; else None.
    The group keeps the generating set its associativity was decided on."""
    n = len(t)
    if n == 0 or t.shape != (n, n) or t.dtype.kind not in "iu":
        return None
    if t.min() < 0 or t.max() >= n:
        return None
    ar = np.arange(n)
    if not ((t[0] == ar) & (t[:, 0] == ar)).all():
        return None
    G = FiniteGroup(t)
    if -1 in G.inv:
        return None
    # (x s) y = x (s y) for every s in a generating set (Light's test,
    # module docstring)
    t = t.astype(np.int32)  # halves the two temporaries
    if not np.array_equal(*_associativity_sides(t, list(G.generating_sequence()))):
        return None
    return G


def _associativity_sides(t, mids) -> tuple:
    """(x s) y and x (s y) at [x, s, y], for x and y over the rows of t
    and s over mids, each as a (n, len(mids), n) array for an n x n table.
    t is read only through take along axis 0 and -1, so it may also be
    cohomology's rebuilt stack, which adds a leading layer axis."""
    return t.take(t.take(mids, axis=-1), axis=0), t.take(t.take(mids, axis=0), axis=-1)


def _group_failure(table: Sequence[Sequence[int]]) -> None:
    """Raise at the first failing group axiom, checked in order: range,
    identity at 0, inverses, associativity.  Returns when all hold."""
    n = len(table)
    if n == 0:
        raise NotClosed("empty table")
    for a, row in enumerate(table):
        if len(row) != n:
            raise NotClosed(f"row {a} has length {len(row)}, expected {n}", row=a)
        for b, cell in enumerate(row):
            if not isinstance(cell, (int, np.integer)) or not 0 <= cell < n:
                raise NotClosed(f"entry ({a},{b}) = {cell!r} out of range", a=a, b=b)
    for a in range(n):
        if table[0][a] != a or table[a][0] != a:
            raise NoIdentityAtZero(f"index 0 is not a two-sided identity at {a}", a=a)
    for a in range(n):
        if not any(table[a][b] == 0 and table[b][a] == 0 for b in range(n)):
            raise NoInverse(f"element {a} has no two-sided inverse", a=a)
    # every element as the middle: left[a, b, c] = (a b) c, right = a (b c)
    left, right = _associativity_sides(np.array(table, dtype=np.int32), np.arange(n))
    if not np.array_equal(left, right):
        a, b, c = (int(x) for x in np.argwhere(left != right)[0])
        raise NotAssociative(
            f"({a}*{b})*{c} = {left[a, b, c]} != {right[a, b, c]} = {a}*({b}*{c})",
            a=a, b=b, c=c,
        )


class PermGroup:
    """A set of permutations of 0..degree-1, expected to form a group."""

    __slots__ = ("degree", "elements", "_sorted", "generators")

    def __init__(self, degree: int, elements: Iterable[Sequence[int]]):
        elems = frozenset(tuple(p) for p in elements)
        if not elems:
            elems = frozenset({identity_perm(degree)})
        self.degree = degree
        self.elements = elems
        self._sorted = None
        self.generators = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def sorted_elements(self) -> list:
        if self._sorted is None:
            self._sorted = sorted(self.elements)
        return self._sorted

    def __contains__(self, p: Sequence[int]) -> bool:
        return tuple(p) in self.elements

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.sorted_elements())

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"

    def is_group(self) -> bool:
        """Whether the elements form a group, decided on a generating set.

        A finite set of permutations that holds the identity and is closed
        under right multiplication by a subset T that generates it is a
        group, by the argument of Light's test (module docstring).  T is
        found by _generator_cells over the sorted elements, which the
        identity, the least permutation, must head, with compose as the
        product; a product outside the set ends the walk with False.  That
        is |S| |T| products, and the budget is charged |S| |T| as each
        generator joins T.  On a True verdict T, the heads of the walk, is
        kept in `generators`: every element is the identity times a word
        in T on the right."""
        elems = self.sorted_elements()
        if elems[0] != identity_perm(self.degree):
            return False
        index = {p: k for k, p in enumerate(elems)}
        size = len(elems)
        try:
            gens, _ = _generator_cells(
                size, lambda x, s: index[compose(elems[x], elems[s])],
                lambda k: budget_mod.guard(size * k, "permutation group closure"))
        except KeyError:  # a product outside the set
            return False
        self.generators = tuple([elems[g] for g in gens])
        return True


def _respects(f: Sequence, table, gens: Sequence[int], mul: Callable) -> bool:
    """f(x s) = mul(f(x), f(s)) for every x and every s in gens.  With gens
    a generating set of table and mul a group product, this decides that f
    is a homomorphism (homomorphisms on generator cells, module docstring);
    every homomorphism test of the package ends here."""
    for s in gens:
        fs = f[s]
        for x, row in enumerate(table):
            if f[row[s]] != mul(f[x], fs):
                return False
    return True


def _homomorphisms(
    src: FiniteGroup,
    candidates: Callable,
    ops: Sequence[tuple],
    dst_id,
    what: str,
    *,
    injective: bool = False,
    first_only: bool = False,
) -> list:
    """All maps on src's carrier that respect every operation in `ops`,
    a list of (source group, dst mul) pairs whose first group is src.

    The search backtracks over the images of src's generating sequence
    g_1 .. g_m.  At depth j the map f is a hom on G_j = <g_1 .. g_j> under
    ops[0]; an image of g_{j+1} extends it over src.generator_cells() and
    is kept when every check cell holds (homomorphisms on generator
    cells, module docstring) and, for an injective search, no new element
    maps to dst_id.  A total map is then checked against every other
    operation on n |S| cells, S the cached generating sequence of its
    source group.
    `candidates(gen)` yields admissible images for a generator; each list
    is built once, and the product of their lengths, which bounds the
    leaves of the search tree, is held to the budget as the search `what`.
    Returns a list of image tuples, f[x] the image of src element x, in the
    lex order of the generator images' positions in their candidate lists.
    """
    gens = src.generating_sequence()
    images = [list(candidates(g)) for g in gens]
    budget_mod.guard(prod(map(len, images)), what)
    plan = src.generator_cells()
    mul = ops[0][1]
    others = [(S.table, dst_mul, S.generating_sequence()) for S, dst_mul in ops[1:]]
    n = src.n
    f = [dst_id] * n
    out: list = []

    def extend(j: int) -> bool:
        if j == len(gens):
            if all(_respects(f, table, sgens, dst_mul) for table, dst_mul, sgens in others):
                out.append(tuple(f))
                return first_only
            return False
        g = gens[j]
        defines, checks, new = plan[j]
        for v in images[j]:
            f[g] = v
            for x, s, c in defines:
                f[c] = mul(f[x], f[s])
            if injective and dst_id in [f[c] for c in new]:
                continue
            for x, s, c in checks:
                if f[c] != mul(f[x], f[s]):
                    break
            else:
                if extend(j + 1):
                    return True
        return False

    extend(0)
    return out


def _order_matched(pairs: Sequence[tuple]) -> Callable:
    """Candidate images for the hom search: the x whose element order in
    each dst group of the (src, dst) `pairs` equals g's in its src group."""
    buckets: dict = {}
    for x in range(pairs[0][1].n):
        buckets.setdefault(tuple(D.element_order(x) for _, D in pairs), []).append(x)
    return lambda g: buckets.get(tuple(S.element_order(g) for S, _ in pairs), [])


def is_automorphism(p: Sequence[int], G: FiniteGroup) -> bool:
    """p is a 0-fixing permutation of G's carrier preserving its product,
    decided on generator cells (_respects)."""
    if sorted(p) != list(range(G.n)) or p[0] != 0:
        return False
    return _respects(p, G.table, G.generating_sequence(), G.mul)


def automorphism_group(G: FiniteGroup) -> PermGroup:
    """Aut(G) by exhaustive backtracking over generator images."""
    return PermGroup(G.n, _homomorphisms(
        G, _order_matched([(G, G)]), [(G, G.mul)], 0, "automorphism_group",
        injective=True,
    ))


def find_isomorphism(G1: FiniteGroup, G2: FiniteGroup) -> Optional[Perm]:
    """A relabeling perm p with p(a *1 b) = p(a) *2 p(b), or None."""
    if G1.n != G2.n or G1.order_profile() != G2.order_profile():
        return None
    maps = _homomorphisms(
        G1, _order_matched([(G1, G2)]), [(G1, G2.mul)], 0, "find_isomorphism",
        injective=True, first_only=True,
    )
    return maps[0] if maps else None


def is_isomorphic(G1: FiniteGroup, G2: FiniteGroup) -> bool:
    return find_isomorphism(G1, G2) is not None


def homs_to_perm_group(src: FiniteGroup, target: PermGroup) -> list:
    """All homomorphisms src -> target, each as a tuple of perms."""
    elems = target.sorted_elements()

    def candidates(g: int):
        k = src.element_order(g)
        return [p for p in elems if k % perm_order(p) == 0]

    return sorted(set(_homomorphisms(
        src, candidates, [(src, compose)], identity_perm(target.degree),
        "homs_to_perm_group",
    )))


def inner_automorphism(G: FiniteGroup, g: int) -> Perm:
    """z |-> g z g^-1, read off G's table of inner automorphisms."""
    return G.inner[g]


def inner_group(G: FiniteGroup) -> PermGroup:
    return PermGroup(G.n, G.inner)


def normal_closure(ambient: PermGroup, seed: Iterable[Sequence[int]]) -> PermGroup:
    """Smallest subgroup of `ambient` containing `seed` and closed under
    conjugation by all of `ambient`."""
    seed = [tuple(p) for p in seed]
    for p in seed:
        if p not in ambient:
            raise InputError("normal_closure: seed permutation not in ambient group")
    elems = {identity_perm(ambient.degree)}
    elems.update(seed)
    frontier = list(elems)
    amb = ambient.sorted_elements()
    while frontier:
        nxt = []
        for p in frontier:
            new = [invert_perm(p)]
            new.extend(compose(p, q) for q in list(elems))
            new.extend(compose(q, p) for q in list(elems))
            for a in amb:
                new.append(compose(compose(a, p), invert_perm(a)))
            for r in new:
                if r not in elems:
                    elems.add(r)
                    nxt.append(r)
        frontier = nxt
    return PermGroup(ambient.degree, elems)


def equal_mod(sub: PermGroup, p: Sequence[int], q: Sequence[int]) -> bool:
    """True iff p and q represent the same class modulo `sub`."""
    return compose(tuple(p), invert_perm(q)) in sub


# --- standard constructions ------------------------------------------------

def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup([[(a + b) % n for b in range(n)] for a in range(n)])


def direct_product_group(G1: FiniteGroup, G2: FiniteGroup) -> FiniteGroup:
    n1, n2 = G1.n, G2.n
    n = n1 * n2
    table = [[0] * n for _ in range(n)]
    for a1 in range(n1):
        for a2 in range(n2):
            for b1 in range(n1):
                for b2 in range(n2):
                    table[a1 * n2 + a2][b1 * n2 + b2] = (
                        G1.table[a1][b1] * n2 + G2.table[a2][b2]
                    )
    return FiniteGroup(table)


def klein_group() -> FiniteGroup:
    return direct_product_group(cyclic_group(2), cyclic_group(2))


def dihedral_group(k: int) -> FiniteGroup:
    """Order 2k, elements a^i b^j indexed as 2*i + j, with b a b = a^-1."""
    if k < 1:
        raise InputError("dihedral_group needs k >= 1")
    n = 2 * k
    table = [[0] * n for _ in range(n)]
    for i in range(k):
        for j in range(2):
            for m in range(k):
                for l in range(2):
                    # (a^i b^j)(a^m b^l) = a^(i + (-1)^j m) b^(j xor l)
                    e = (i + (m if j == 0 else -m)) % k
                    table[2 * i + j][2 * m + l] = 2 * e + (j ^ l)
    return FiniteGroup(table)


def dicyclic_group(k: int) -> FiniteGroup:
    """Order 4k; k = 2 gives the quaternion group Q8.

    Elements a^i x^j with a of order 2k, x^2 = a^k, x a x^-1 = a^-1,
    indexed as 2*i + j.
    """
    if k < 1:
        raise InputError("dicyclic_group needs k >= 1")
    m = 2 * k
    n = 4 * k

    def mul(i, j, s, t):
        if j == 0:
            e, f = (i + s) % m, t
        elif t == 0:
            e, f = (i - s) % m, 1
        else:
            e, f = (i - s + k) % m, 0
        return 2 * e + f

    table = [[mul(a // 2, a % 2, b // 2, b % 2) for b in range(n)] for a in range(n)]
    return FiniteGroup(table)


def group_from_elements(elements: list, mul: Callable) -> FiniteGroup:
    """Index an abstract element list (identity first) into a Cayley table."""
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    table = [[index[mul(elements[a], elements[b])] for b in range(n)] for a in range(n)]
    return FiniteGroup(table)


def alternating4_group() -> FiniteGroup:
    elems = sorted(
        (p for p in permutations(range(4)) if _perm_sign(p) == 1),
        key=lambda p: (p != (0, 1, 2, 3), p),
    )
    return group_from_elements(list(elems), compose)


def _perm_sign(p: Sequence[int]) -> int:
    sign = 1
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            if p[i] > p[j]:
                sign = -sign
    return sign


def standard_groups_of_order(n: int) -> list:
    """All isomorphism classes of groups of order n, for n <= 7."""
    if n < 1 or n > 7:
        raise OrderBoundExceeded("standard_groups_of_order", n, 7)
    groups = [cyclic_group(n)]
    if n == 4:
        groups.append(klein_group())
    elif n == 6:
        groups.append(dihedral_group(3))
    return groups


def _zero_fixing_perms(n: int) -> np.ndarray:
    """Every permutation of 0..n-1 fixing 0, one per row, in lexicographic
    order (identity first)."""
    return np.array([(0,) + rest for rest in permutations(range(1, n))], dtype=np.int64)


def _relabel_stack(table: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """relabel_table of valid tables by every row p of `perms`, as one
    gather: new[k] = p[T[p^-1, p^-1]], T one (n, n) table for every row, or
    layer k of a (k, n, n) stack, one layer per row."""
    invs = np.argsort(perms, axis=1)
    rows = np.arange(len(perms))[:, None, None]
    cells = (invs[:, :, None], invs[:, None, :])
    return perms[rows, table[cells] if table.ndim == 2 else table[(rows,) + cells]]


def _group_table_index(n: int) -> tuple:
    """(stack, perms, where, home): every Cayley table on 0..n-1 with
    identity 0 (n <= 7) as one (m, n, n) integer stack in lexicographic
    order, with its relabelling index.  The order bound of
    standard_groups_of_order is met before the (n-1)! permutations are
    built.

    The stack is the relabellings of the standard groups G_g by every row
    of perms = _zero_fixing_perms(n), lex-sorted with np.lexsort, with
    adjacent repeats dropped.  where[g, q] is the stack position of G_g
    relabelled by perms[q], and home[k] = (g, p) the first such pair that
    gives table k, so where[home[k]] == k.  Relabelling table k by
    perms[q] gives G_g relabelled by perms[q] o perms[p], which is stack
    position where[g, rank of that permutation among perms]: the images of
    a table are read off the index, without a gather."""
    groups = standard_groups_of_order(n)
    perms = _zero_fixing_perms(n)
    flat = np.concatenate(
        [_relabel_stack(G.np_table, perms) for G in groups]
    ).reshape(-1, n * n)
    order = np.lexsort(flat.T[::-1])
    flat = flat[order]
    keep = np.ones(len(flat), dtype=bool)
    keep[1:] = (flat[1:] != flat[:-1]).any(axis=1)
    where = np.empty(len(flat), dtype=np.int64)
    where[order] = np.cumsum(keep) - 1
    home = np.stack(np.divmod(order[keep], len(perms)), axis=1)
    return flat[keep].reshape(-1, n, n), perms, where.reshape(len(groups), -1), home


def all_group_tables(n: int) -> list:
    """Every Cayley table on 0..n-1 with identity 0, as sorted table
    tuples (n <= 7); the rows of the stack of _group_table_index."""
    return [tuple(map(tuple, t)) for t in _group_table_index(n)[0].tolist()]


_REFERENCE_GROUPS: dict = {}


def _reference_groups(n: int) -> list:
    """Named groups of order n <= 16 that describe_group compares against,
    as (name, FiniteGroup): every abelian group by invariant factors, then
    D_k, Dic_k and A4 where the order allows.  Built once per order."""
    if n in _REFERENCE_GROUPS:
        return _REFERENCE_GROUPS[n]

    def chains(m: int, max_d: int) -> list:
        if m == 1:
            return [[]]
        out = []
        for d in range(2, min(m, max_d) + 1):
            if m % d == 0:
                for tail in chains(m // d, d):
                    out.append([d] + tail)
        return out

    result = []
    for chain in chains(n, n):
        # invariant factors d_k | ... | d_1, stored largest first
        ok = all(chain[i] % chain[i + 1] == 0 for i in range(len(chain) - 1))
        if not ok:
            continue
        G = cyclic_group(chain[0])
        for d in chain[1:]:
            G = direct_product_group(G, cyclic_group(d))
        name = " x ".join(f"Z{d}" for d in sorted(chain))
        result.append((name, G))
    if n % 2 == 0:
        k = n // 2
        result.append(("S3" if k == 3 else f"D{k}", dihedral_group(k)))
    if n % 4 == 0:
        k = n // 4
        result.append(("Q8" if k == 2 else f"Dic{k}", dicyclic_group(k)))
    if n == 12:
        result.append(("A4", alternating4_group()))
    _REFERENCE_GROUPS[n] = result
    return result


def describe_group(G: FiniteGroup) -> str:
    """Readable isomorphism-type name for small groups."""
    n = G.n
    if n == 1:
        return "trivial"
    if n <= 16:
        for name, H in _reference_groups(n):
            if H.is_abelian == G.is_abelian and is_isomorphic(G, H):
                return name
    return f"{'abelian' if G.is_abelian else 'nonabelian'} of order {n}"
