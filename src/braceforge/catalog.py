"""Built-in fixture catalog and strict JSON file I/O.

File formats (UTF-8 JSON; the canonical form uses sorted keys, two-space
indent and a trailing newline, so saved files are bit-stable):

    group      {"n": int, "table": [[int]]}         n x n Cayley table
    brace      {"n": int, "add": [[int]], "circ": [[int]]}
    triple     {"nu": [[int]], "mu": [[int]], "sigma": [[int]]}
               equal-length arrays of permutations of I, indexed by H
    triplet    {"chi": <triple object>, "beta": [[int]], "tau": [[int]]}
    extension  {"E": <brace>, "H": <brace>, "I": <brace>,
                "inj": [int], "proj": [int]}

Text that is not UTF-8 JSON, wrong shapes, non-integer entries and
unknown fields raise SchemaError;
the mathematical laws of groups, braces and extensions are then checked
by the module validators.  The loader of each kind returns the live
object (a triple or triplet after its shape checks alone), which the
entry keeps, and build() hands back: the loaded object, else the object
an entry_for entry wraps, else what the kind's loader makes of a payload
given by hand, so build() validates nothing of its own.  A group
or brace whose identity is not element 0 is relabeled on load (the
identity is swapped to index 0) and the entry carries a warning record;
inside an extension payload the relabeling is pushed through inj and
proj so the maps keep their meaning.

The built-in catalog ships the trivial braces on every group of order at
most 8, two extension fixtures used by the theorem checks, and worked
examples 2-5.  Each example builder reconstructs its fixture from first
principles (group tables plus an action triple), rebuilds the product,
and compares it against the closed forms and counts recorded with the
example; disagreements are collected as erratum candidates in the
report, never patched silently.
"""

from __future__ import annotations

import json
import os
import stat
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .braces import SkewBrace, socle, trivial_brace, validate_brace
from .errors import InputError, ParamOutOfRange, SchemaError, ValidationError
from .extensions import Extension, Triplet, extension_from_triplet, validate_extension, zero_triplet
from .groups import (
    FiniteGroup,
    cyclic_group,
    describe_group,
    dicyclic_group,
    dihedral_group,
    direct_product_group,
    find_isomorphism,
    identity_perm,
    invert_perm,
    klein_group,
    compose,
    relabel_table,
    standard_groups_of_order,
    validate_group,
)
from .split import (
    ActionTriple,
    _product_tables,
    enumerate_split_triples,
    identity_triple,
    semidirect_product,
    triple_from_tables,
)

KINDS = ("group", "brace", "triple", "triplet", "extension")

PROVENANCES = ("example-2", "example-3", "example-4", "example-5", "derived", "trivial")


# --- payload constructors ----------------------------------------------------

def _rows(table) -> list:
    """A square table as lists of plain ints, in one tolist."""
    return np.asarray(table).tolist()


def group_payload(G: FiniteGroup) -> dict:
    return {"n": G.n, "table": _rows(G.np_table)}


def brace_payload(B: SkewBrace) -> dict:
    return {"n": B.n, "add": _rows(B.add.np_table), "circ": _rows(B.circ.np_table)}


def triple_payload(t: ActionTriple) -> dict:
    """Each distinct permutation of the three families is laid out as an
    int list once; every row of the payload is a copy of its own."""
    laid = {p: [int(x) for x in p] for p in {*t.nu, *t.mu, *t.sigma}}
    return {"nu": [laid[p].copy() for p in t.nu], "mu": [laid[p].copy() for p in t.mu],
            "sigma": [laid[p].copy() for p in t.sigma]}


def triplet_payload(t: Triplet) -> dict:
    return {"chi": triple_payload(t.chi), "beta": _rows(t.beta), "tau": _rows(t.tau)}


def extension_payload(ext: Extension) -> dict:
    return {
        "E": brace_payload(ext.E),
        "H": brace_payload(ext.H),
        "I": brace_payload(ext.I),
        "inj": [int(x) for x in ext.inj],
        "proj": [int(x) for x in ext.proj],
    }


# --- schema checks -----------------------------------------------------------

def _require_object(data, allowed: tuple, path: str) -> None:
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected a JSON object", path=path)
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise SchemaError(
            f"{path}: unknown field {unknown[0]!r}", path=path, field=unknown[0]
        )
    missing = sorted(set(allowed) - set(data))
    if missing:
        raise SchemaError(
            f"{path}: missing field {missing[0]!r}", path=path, field=missing[0]
        )


def _int_list(value, path: str, fld: str, length: Optional[int] = None) -> list:
    # decoded JSON integers are exactly int; bool, float and the rest are not
    if not isinstance(value, list) or not set(map(type, value)) <= {int}:
        raise SchemaError(f"{path}: {fld} must be a list of integers", path=path, field=fld)
    if length is not None and len(value) != length:
        raise SchemaError(
            f"{path}: {fld} has length {len(value)}, expected {length}",
            path=path,
            field=fld,
        )
    return list(value)


def _int_matrix(
    value,
    path: str,
    fld: str,
    rows: Optional[int] = None,
    cols: Optional[int] = None,
) -> list:
    if not isinstance(value, list) or not value:
        raise SchemaError(
            f"{path}: {fld} must be a non-empty list of rows", path=path, field=fld
        )
    if rows is not None and len(value) != rows:
        raise SchemaError(
            f"{path}: {fld} has {len(value)} rows, expected {rows}", path=path, field=fld
        )
    width = cols if cols is not None else None
    out = []
    for row in value:
        got = _int_list(row, path, fld, length=width)
        if width is None:
            width = len(got)
        out.append(got)
    return out


def _check_int(value, path: str, fld: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{path}: {fld} must be an integer", path=path, field=fld)
    return value


# --- identity relabeling -----------------------------------------------------

def _identity_index(table: Sequence[Sequence[int]]) -> Optional[int]:
    n = len(table)
    for e in range(n):
        row_ok = all(0 <= table[e][x] < n and table[e][x] == x for x in range(n))
        if row_ok and all(table[x][e] == x for x in range(n)):
            return e
    return None


def _move_identity_to_zero(tables: dict, path: str) -> tuple:
    """Relabel every table so the identity of the first sits at index 0.

    Returns (tables, warnings, perm), perm None when nothing moved.  An
    out-of-range entry raises NotClosed; a brace's witness names its table.
    """
    first = next(iter(tables.values()))
    e = _identity_index(first)
    if e is None or e == 0:
        return tables, [], None
    perm = list(range(len(first)))
    perm[0], perm[e] = e, 0
    moved = {}
    for name, table in tables.items():
        try:
            moved[name] = relabel_table(table, perm)
        except ValidationError as exc:
            if len(tables) > 1:
                exc.witness["table"] = name
            raise
    return moved, [f"{path}: identity was at index {e}; relabeled to index 0"], perm


# --- loaders per kind --------------------------------------------------------

def _load_group_payload(data, path: str):
    _require_object(data, ("n", "table"), path)
    n = _check_int(data["n"], path, "n")
    table = _int_matrix(data["table"], path, "table", rows=n, cols=n)
    tables, warnings, perm = _move_identity_to_zero({"table": table}, path)
    G = validate_group(tables["table"])
    return {"n": n, "table": tables["table"]}, warnings, perm, G


def _load_brace_payload(data, path: str):
    _require_object(data, ("n", "add", "circ"), path)
    n = _check_int(data["n"], path, "n")
    add = _int_matrix(data["add"], path, "add", rows=n, cols=n)
    circ = _int_matrix(data["circ"], path, "circ", rows=n, cols=n)
    tables, warnings, perm = _move_identity_to_zero({"add": add, "circ": circ}, path)
    B = validate_brace(tables["add"], tables["circ"])
    return {"n": n, **tables}, warnings, perm, B


def _load_triple_payload(data, path: str):
    _require_object(data, ("nu", "mu", "sigma"), path)
    nu = _int_matrix(data["nu"], path, "nu")
    nh = len(nu)
    ni = len(nu[0])
    nu = _int_matrix(data["nu"], path, "nu", rows=nh, cols=ni)
    mu = _int_matrix(data["mu"], path, "mu", rows=nh, cols=ni)
    sigma = _int_matrix(data["sigma"], path, "sigma", rows=nh, cols=ni)
    for fld, fam in (("nu", nu), ("mu", mu), ("sigma", sigma)):
        for h, p in enumerate(fam):
            if sorted(p) != list(range(ni)):
                raise SchemaError(
                    f"{path}: {fld}[{h}] is not a permutation of 0..{ni - 1}",
                    path=path,
                    field=fld,
                )
    return {"nu": nu, "mu": mu, "sigma": sigma}, [], None, triple_from_tables(nu, mu, sigma)


def _load_triplet_payload(data, path: str):
    _require_object(data, ("chi", "beta", "tau"), path)
    chi, _, _, live_chi = _load_triple_payload(data["chi"], f"{path}.chi")
    nh = len(chi["nu"])
    ni = len(chi["nu"][0])
    beta = _int_matrix(data["beta"], path, "beta", rows=nh, cols=nh)
    tau = _int_matrix(data["tau"], path, "tau", rows=nh, cols=nh)
    for fld, tab in (("beta", beta), ("tau", tau)):
        for row in tab:
            for x in row:
                if not 0 <= x < ni:
                    raise SchemaError(
                        f"{path}: {fld} entry {x} outside 0..{ni - 1}",
                        path=path,
                        field=fld,
                    )
    live = Triplet(live_chi, tuple(map(tuple, beta)), tuple(map(tuple, tau)))
    return {"chi": chi, "beta": beta, "tau": tau}, [], None, live


def _load_extension_payload(data, path: str):
    _require_object(data, ("E", "H", "I", "inj", "proj"), path)
    e_payload, warn_e, perm_e, E = _load_brace_payload(data["E"], f"{path}.E")
    h_payload, warn_h, perm_h, H = _load_brace_payload(data["H"], f"{path}.H")
    i_payload, warn_i, perm_i, I = _load_brace_payload(data["I"], f"{path}.I")
    ne, nh, ni = e_payload["n"], h_payload["n"], i_payload["n"]
    inj = _int_list(data["inj"], path, "inj", length=ni)
    proj = _int_list(data["proj"], path, "proj", length=ne)
    if any(not 0 <= x < ne for x in inj):
        raise SchemaError(f"{path}: inj entry outside 0..{ne - 1}", path=path, field="inj")
    if any(not 0 <= x < nh for x in proj):
        raise SchemaError(f"{path}: proj entry outside 0..{nh - 1}", path=path, field="proj")
    # push any identity relabeling through the maps so they keep their meaning
    if perm_i is not None:
        inv = invert_perm(perm_i)
        inj = [inj[inv[y]] for y in range(ni)]
    if perm_e is not None:
        inv = invert_perm(perm_e)
        inj = [perm_e[x] for x in inj]
        proj = [proj[inv[x]] for x in range(ne)]
    if perm_h is not None:
        proj = [perm_h[h] for h in proj]
    payload = {"E": e_payload, "H": h_payload, "I": i_payload, "inj": inj, "proj": proj}
    warnings = warn_e + warn_h + warn_i
    return payload, warnings, None, validate_extension(E, H, I, inj, proj)


_LOADERS = {
    "group": _load_group_payload,
    "brace": _load_brace_payload,
    "triple": _load_triple_payload,
    "triplet": _load_triplet_payload,
    "extension": _load_extension_payload,
}

_KEY_SIGNATURES = {
    frozenset(("n", "table")): "group",
    frozenset(("n", "add", "circ")): "brace",
    frozenset(("nu", "mu", "sigma")): "triple",
    frozenset(("chi", "beta", "tau")): "triplet",
    frozenset(("E", "H", "I", "inj", "proj")): "extension",
}


# --- entries -----------------------------------------------------------------

class _Payload:
    """CatalogEntry's payload field: the dict given, or, for an entry made
    by entry_for, its object's payload laid out on first use, so an entry
    that is never saved, compared or printed never turns its tables into
    lists."""

    def __set_name__(self, owner, name):
        self.key = "_" + name

    def __get__(self, entry, owner=None):
        if entry is None:
            return None  # the field's default
        value = entry.__dict__[self.key]
        if value is None:
            value = entry.__dict__[self.key] = _kind_of(entry._source)[1](entry._source)
        return value

    def __set__(self, entry, value):
        entry.__dict__[self.key] = value


@dataclass(frozen=True)
class CatalogEntry:
    """A named, validated payload with its origin tag and load warnings.

    An entry made by the loader also carries the object it loaded
    (`live`), which build() returns; it takes no part in ==, hash or repr.
    An entry made by entry_for keeps its object (`_source`, which takes no
    part either), which build() returns, and lays out the payload when it
    is first read.  An entry given a payload by hand builds through its
    kind's loader.
    """

    name: str
    kind: str
    payload: dict = _Payload()
    provenance: str = "derived"
    warnings: tuple = ()
    report: dict = field(default_factory=dict, compare=False)
    live: object = field(default=None, compare=False, repr=False)
    _source: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.__dict__["_payload"] is None and self._source is None:
            raise InputError("a catalog entry needs a payload or an object to lay one out")
        if self.kind not in KINDS:
            raise InputError(f"unknown catalog kind {self.kind!r}")
        if self.provenance not in PROVENANCES:
            raise InputError(f"unknown provenance {self.provenance!r}")

    def build(self):
        """The live object this payload describes: the one the loader
        made, else the one entry_for wrapped, else what its kind's loader
        makes of a payload given by hand."""
        if self.live is not None:
            return self.live
        if self._source is not None:
            return self._source
        return _LOADERS[self.kind](self.payload, self.name)[3]


def _row_stack_template(rows: int, cols: int, pad: str, templates: dict) -> str:
    """The layout at pad of `rows` lists of `cols` plain ints each, with a
    %d in place of every value, built once per (rows, cols, pad) and kept
    in `templates`."""
    key = (rows, cols, pad)
    text = templates.get(key)
    if text is None:
        inner, inner2 = pad + "  ", pad + "    "
        row = "[\n" + inner2 + (",\n" + inner2).join(["%d"] * cols) + "\n" + inner + "]"
        text = templates[key] = ("[\n" + inner + (",\n" + inner).join([row] * rows)
                                 + "\n" + pad + "]")
    return text


def _dumps_at(obj, pad: str, templates: dict) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) with every line after the
    first prefixed by pad.

    With an indent the json module encodes in pure Python, so the layout
    is done here.  Plain ints, strings, None and the bools are spelled by
    type, as the json module spells them (int.__repr__ and its C string
    encoder); any other scalar goes through json.dumps.  A list of plain
    ints is one join, and a list of equal-length lists of plain ints, such
    as a Cayley table, fills one %d template (_row_stack_template) with
    all its values; `templates` keeps the templates of one payload.  A
    dict with a key that is not a string goes through json.dumps, which
    sorts such keys by value before turning them into strings."""
    kind = type(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is str:
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        if kinds == _INTS:
            return "[\n" + inner + sep.join(map(int.__repr__, obj)) + "\n" + pad + "]"
        if kinds <= _ROWS and len(set(map(len, obj))) == 1:
            values = [x for row in obj for x in row]
            if values and set(map(type, values)) == _INTS:
                return _row_stack_template(len(obj), len(obj[0]), pad, templates) % tuple(values)
        return ("[\n" + inner + sep.join([_dumps_at(v, inner, templates) for v in obj])
                + "\n" + pad + "]")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(type(k) is str for k in obj):
            return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad)
        return ("{\n" + inner + sep.join(
            [_encode_str(k) + ": " + _dumps_at(obj[k], inner, templates) for k in sorted(obj)]
        ) + "\n" + pad + "}")
    return json.dumps(obj)


_INTS = {int}
_ROWS = {list, tuple}


def dumps_payload(payload: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline.

    Byte for byte what json.dumps(payload, sort_keys=True, indent=2) gives,
    plus the newline; the CLI writes its reports with it too."""
    return _dumps_at(payload, "", {}) + "\n"


def loads(text: str, kind: Optional[str] = None, name: str = "<string>") -> CatalogEntry:
    """Parse, schema-check, relabel if needed, and validate a payload."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"{name}: not valid JSON ({exc})", path=name) from None
    if not isinstance(data, dict):
        raise SchemaError(f"{name}: expected a JSON object", path=name)
    if kind is None:
        kind = _KEY_SIGNATURES.get(frozenset(data))
        if kind is None:
            raise SchemaError(
                f"{name}: keys {sorted(data)} match no documented format", path=name
            )
    if kind not in KINDS:
        raise InputError(f"unknown catalog kind {kind!r}")
    payload, warnings, _, live = _LOADERS[kind](data, name)
    return CatalogEntry(
        name=name, kind=kind, payload=payload, provenance="derived",
        warnings=tuple(warnings), live=live,
    )


def load(path, kind: Optional[str] = None) -> CatalogEntry:
    """Load a payload file; the entry is named after the file stem."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{p}: not UTF-8 text ({exc})", path=str(p)) from None
    entry = loads(text, kind=kind, name=str(p))
    return CatalogEntry(
        name=p.stem, kind=entry.kind, payload=entry.payload,
        provenance=entry.provenance, warnings=entry.warnings, live=entry.live,
    )


def save(entry: CatalogEntry, path) -> None:
    """Write the entry's canonical payload to `path` as UTF-8, in place.

    The file is opened without O_TRUNC, written from offset 0 and, if it
    is a regular file, cut to the payload's length.  It ends up byte for
    byte the payload, with the inode, mode, hard links and symlink target
    a truncating write keeps.  Truncating a file to zero frees its blocks,
    which is slow on a filesystem mounted with `discard`; writing in place
    reuses them, so rewriting a file at least as many blocks long frees
    nothing.  A target that is not a regular file (/dev/null, a pipe
    behind /dev/stdout) is written and not truncated.

    The one difference from a truncating write: a write cut short (a full
    disk, a killed process) leaves the new bytes followed by the old
    file's tail, where a truncating write leaves a bare prefix.  `load`
    parses and validates every file, so it refuses such a file as it
    refuses a prefix, unless the mixed bytes happen to be a valid payload."""
    data = memoryview(dumps_payload(entry.payload).encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = data
        while rest:
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


_PAYLOADS = (
    (SkewBrace, "brace", brace_payload),
    (FiniteGroup, "group", group_payload),
    (ActionTriple, "triple", triple_payload),
    (Triplet, "triplet", triplet_payload),
    (Extension, "extension", extension_payload),
)


def _kind_of(obj) -> tuple:
    """(kind, payload constructor) of a live object."""
    for cls, kind, make in _PAYLOADS:
        if isinstance(obj, cls):
            return kind, make
    raise InputError(f"cannot catalog object of type {type(obj).__name__}")


def entry_for(obj, name: str, provenance: str = "derived", report: Optional[dict] = None) -> CatalogEntry:
    """Wrap a live object in a catalog entry; its canonical payload is laid
    out when first read."""
    return CatalogEntry(
        name=name, kind=_kind_of(obj)[0], provenance=provenance,
        report=dict(report or {}), _source=obj,
    )


# --- built-in catalog --------------------------------------------------------

def groups_of_order_8() -> list:
    """All five isomorphism classes of groups of order 8, with names."""
    return [
        ("Z8", cyclic_group(8)),
        ("Z4 x Z2", direct_product_group(cyclic_group(4), cyclic_group(2))),
        ("Z2 x Z2 x Z2", direct_product_group(klein_group(), cyclic_group(2))),
        ("D4", dihedral_group(4)),
        ("Q8", dicyclic_group(2)),
    ]


def _slug(name: str) -> str:
    return name.replace(" x ", "x").replace(" ", "-").lower()


def _trivial_braces() -> list:
    """(name, trivial brace) on every group of order <= 8."""
    out = []
    for n in range(1, 9):
        named = (
            groups_of_order_8()
            if n == 8
            else [(describe_group(G), G) for G in standard_groups_of_order(n)]
        )
        out.extend((f"trivial-{_slug(name)}", trivial_brace(G)) for name, G in named)
    return out


def trivial_brace_entries() -> list:
    """Trivial braces on every group of order <= 8."""
    return [entry_for(B, name, provenance="trivial") for name, B in _trivial_braces()]


def split_z2_z3_extension() -> Extension:
    """The split extension of the trivial 2-element brace by the trivial
    3-element brace with the identity action."""
    Z2 = trivial_brace(cyclic_group(2))
    Z3 = trivial_brace(cyclic_group(3))
    return extension_from_triplet(Z2, Z3, zero_triplet(Z2, Z3))


def z4_additive_extension() -> Extension:
    """A non-split extension of the trivial 2-element brace by itself whose
    additive group is cyclic of order 4 (carry cocycle beta, zero tau)."""
    Z2 = trivial_brace(cyclic_group(2))
    t = Triplet(identity_triple(Z2, Z2), ((0, 0), (0, 1)), ((0, 0), (0, 0)))
    return extension_from_triplet(Z2, Z2, t)


def fixture_extension_entries() -> list:
    return [
        entry_for(split_z2_z3_extension(), "split-z2-z3", provenance="derived"),
        entry_for(z4_additive_extension(), "z4-over-z2", provenance="derived"),
    ]


# --- worked examples ---------------------------------------------------------

def _perm_power(p: tuple, k: int) -> tuple:
    out = identity_perm(len(p))
    q = p if k >= 0 else invert_perm(p)
    for _ in range(abs(k)):
        out = compose(q, out)
    return out


def _negation(n: int) -> tuple:
    return tuple((-x) % n for x in range(n))


def example2(n: int = 2, p: int = 3, odd: bool = False):
    """Dihedral trivial brace acting on a trivial cyclic brace by negation.

    Even variant: the dihedral group of order 4n acts on Z_p with every
    standard generator negating.  Odd variant (odd n, order 2n): only the
    reflection negates.  Returns (entry, report); the recorded closed
    forms for the product's operations are checked cell-for-cell.
    """
    if p < 2:
        raise ParamOutOfRange(f"p = {p}: the cyclic part needs at least 2 elements")
    if n < 1:
        raise ParamOutOfRange(f"n = {n}: the dihedral part needs n >= 1")
    if odd and n % 2 == 0:
        raise ParamOutOfRange(f"n = {n}: the odd variant needs odd n")
    name, H, I, exps, t = _example2_triple(n, p, odd)
    E = semidirect_product(H, I, t)
    bad_add, bad_circ = _example2_mismatches(E, H, p, exps)
    cells = (H.n * p) ** 2
    report = {
        "name": "example-2",
        "variant": "odd" if odd else "even",
        "n": n,
        "p": p,
        "order": E.n,
        "triple_valid": True,
        "full_sweep": True,
        "closed_form_cells": cells,
        "closed_form_add_mismatches": len(bad_add),
        "closed_form_circ_mismatches": len(bad_circ),
        "erratum_candidates": [],
    }
    for what, bad in (("additive", bad_add), ("multiplicative", bad_circ)):
        if bad:
            report["erratum_candidates"].append(
                {
                    "claim": f"recorded {what} closed form",
                    "observed": f"{len(bad)} of {cells} cells disagree",
                    "witness": list(bad[0]),
                }
            )
    entry = entry_for(E, name, provenance="example-2", report=report)
    return entry, report


def _cells(nh: int, ni: int) -> tuple:
    """Index arrays (h1, y1, h2, y2) over the cells of a product on pairs
    (h, y) -> h * ni + y, which its table reshaped to (nh, ni, nh, ni)
    takes."""
    return np.ix_(range(nh), range(ni), range(nh), range(ni))


def _example2_mismatches(E: SkewBrace, H: SkewBrace, p: int, exps: Sequence[int]) -> tuple:
    """The cells (x1, y1, x2, y2), in lex order, where E's addition and
    circle differ from the recorded closed forms
    (x1 + x2, y2 + (-1)^e(x2) y1) and (x1 + x2, y1 + (-1)^e(x1) y2)."""
    x1, y1, x2, y2 = _cells(H.n, p)
    sign = np.where(np.array(exps) % 2, -1, 1)
    hpart = H.add.np_table[x1, x2] * p
    want_add = hpart + (y2 + sign[x2] * y1) % p
    want_circ = hpart + (y1 + sign[x1] * y2) % p
    shape = (H.n, p, H.n, p)
    return tuple(
        np.argwhere(got.reshape(shape) != want).tolist()
        for got, want in ((E.add.np_table, want_add), (E.circ.np_table, want_circ))
    )


def _example2_triple(n: int, p: int, odd: bool) -> tuple:
    """(name, H, I, exponents, t) of example 2 at parameters example2
    accepts: the product's entry name, the dihedral and cyclic trivial
    braces, the exponent of each element of H in its negation power, and
    the action triple.  example2 builds the product with
    semidirect_product, which validates the triple; axiom_fixtures builds
    it unchecked, because its sweep validates the product itself."""
    k = n if odd else 2 * n  # dihedral_group(k) has order 2k, elements 2i+j
    H = trivial_brace(dihedral_group(k))
    I = trivial_brace(cyclic_group(p))
    neg = _negation(p)
    ident = identity_perm(p)
    if odd:
        exps = [x % 2 for x in range(2 * k)]
    else:
        exps = [x // 2 + x % 2 for x in range(2 * k)]
    fam = tuple(neg if e % 2 else ident for e in exps)
    t = ActionTriple(fam, fam, fam)
    name = f"example-2-{'odd' if odd else 'even'}-n{n}-p{p}"
    return name, H, I, exps, t


def example3_coefficient_brace() -> SkewBrace:
    """The order-6 brace on pairs (n, m) with index 2n + m: addition
    (n,m)+(s,t) = (n + 2^m s, m + t), circle (n,m)o(s,t) = (2^t n + 2^m s, m+t)."""
    def idx(a, b):
        return 2 * (a % 3) + (b % 2)

    add = [[0] * 6 for _ in range(6)]
    circ = [[0] * 6 for _ in range(6)]
    for a in range(3):
        for b in range(2):
            for s in range(3):
                for t in range(2):
                    add[idx(a, b)][idx(s, t)] = idx(a + (2 ** b) * s, b + t)
                    circ[idx(a, b)][idx(s, t)] = idx((2 ** t) * a + (2 ** b) * s, b + t)
    return validate_brace(add, circ)


def example3():
    """Trivial 8-element cyclic brace acting on the order-6 brace through
    powers of (n, m) -> (2n, m); the product has order 48.

    The recorded multiplicative closed form twists the left factor too;
    the rebuilt table shows the left factor enters untwisted, so the
    recorded form is reported as an erratum candidate.
    """
    H, I, psi, nu, t = _example3_triple()
    E = semidirect_product(H, I, t)
    iso_add = find_isomorphism(I.add, dihedral_group(3))
    iso_circ = find_isomorphism(I.circ, cyclic_group(6))
    cells, bad_recorded, bad_untwisted = _example3_mismatches(E, I, psi, nu)
    report = {
        "name": "example-3",
        "order": E.n,
        "coefficient_add_isomorphic_to_s3": iso_add is not None,
        "coefficient_circ_isomorphic_to_z6": iso_circ is not None,
        "iso_add_witness": list(iso_add) if iso_add else None,
        "iso_circ_witness": list(iso_circ) if iso_circ else None,
        "triple_valid": True,
        "full_sweep": True,
        "closed_form_cells": cells,
        "recorded_circ_mismatches": bad_recorded,
        "untwisted_left_factor_mismatches": bad_untwisted,
        "erratum_candidates": [],
    }
    if bad_recorded:
        report["erratum_candidates"].append(
            {
                "claim": "recorded multiplicative closed form (left factor twisted)",
                "observed": f"{bad_recorded} of {cells} cells disagree; the form "
                "with the left factor untwisted matches "
                f"{cells - bad_untwisted} of {cells}",
            }
        )
    entry = entry_for(E, "example-3", provenance="example-3", report=report)
    return entry, report


def _example3_mismatches(E: SkewBrace, I: SkewBrace, psi: Sequence[int], nu: Sequence) -> tuple:
    """(cells, recorded, untwisted): the number of cells (k, y1, l, y2) of
    E's circle and how many differ from the recorded form
    (k + l, psi(y1) o nu_k(y2)) and from (k + l, y1 o nu_k(y2))."""
    k, y1, l, y2 = _cells(8, 6)
    got = E.circ.np_table.reshape(8, 6, 8, 6)
    Ic, nu_k = I.circ.np_table, np.array(nu)[k, y2]
    hpart = (k + l) % 8 * 6
    recorded = hpart + Ic[np.array(psi)[y1], nu_k]
    untwisted = hpart + Ic[y1, nu_k]
    return got.size, int((got != recorded).sum()), int((got != untwisted).sum())


def _example3_triple() -> tuple:
    """(H, I, psi, nu, t) of example 3: the acting and coefficient braces,
    the map (n, m) -> (2n, m), its powers nu_h for h in Z8, and the action
    triple; the product is built as _example2_triple describes."""
    I = example3_coefficient_brace()
    H = trivial_brace(cyclic_group(8))
    psi = tuple((2 * (x // 2) % 3) * 2 + x % 2 for x in range(6))
    nu = tuple(_perm_power(psi, h) for h in range(8))
    t = ActionTriple(nu, tuple(identity_perm(6) for _ in range(8)), nu)
    return H, I, psi, nu, t


def example4_acting_brace() -> SkewBrace:
    """Order-4 brace: addition is XOR on two bits, circle is + mod 4."""
    add = [[a ^ b for b in range(4)] for a in range(4)]
    circ = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    return validate_brace(add, circ)


def example4_coefficient_brace() -> SkewBrace:
    """Order-4 brace: addition mod 4, circle a o b = a + (-1)^a b."""
    add = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    circ = [[(a + (-1) ** a * b) % 4 for b in range(4)] for a in range(4)]
    return validate_brace(add, circ)


def example4():
    """The order-4 XOR/mod-4 brace acting on the mod-4/(-1)^a brace by
    negation powers; the product has order 16.

    The recorded closed form for the product's circle operation is
    l + (-1)^k m + (-1)^n l m; the rebuilt table instead matches
    l + (-1)^k m + 2 l m on every cell, and no valid action triple for
    this pair reproduces the recorded form, so it is reported as an
    erratum candidate with the full sweep recorded.
    """
    H, I, t = _example4_triple()
    E = semidirect_product(H, I, t)
    h_part_ok, bad_recorded, bad_corrected = _example4_mismatches(E)
    triples = enumerate_split_triples(H, I)
    any_reproduces = _reproduces_example4_form(H, I, triples)
    report = {
        "name": "example-4",
        "order": E.n,
        "acting_add": describe_group(H.add),
        "acting_circ": describe_group(H.circ),
        "coefficient_add": describe_group(I.add),
        "coefficient_circ": describe_group(I.circ),
        "triple_valid": True,
        "full_sweep": True,
        "h_part_matches_recorded": h_part_ok,
        "closed_form_cells": 256,
        "recorded_circ_mismatches": len(bad_recorded),
        "recorded_circ_mismatch_cells": bad_recorded,
        "corrected_circ_mismatches": len(bad_corrected),
        "corrected_form": "l + (-1)^k m + 2 l m (mod 4)",
        "valid_triples_for_pair": len(triples),
        "some_valid_triple_reproduces_recorded_form": any_reproduces,
        "erratum_candidates": [],
    }
    if bad_recorded:
        report["erratum_candidates"].append(
            {
                "claim": "recorded circle closed form l + (-1)^k m + (-1)^n l m",
                "observed": f"{len(bad_recorded)} of 256 cells disagree; "
                "l + (-1)^k m + 2 l m matches all 256; no valid triple for "
                "this pair reproduces the recorded form",
                "witness": bad_recorded[:4],
            }
        )
    entry = entry_for(E, "example-4", provenance="example-4", report=report)
    return entry, report


def _example4_forms() -> tuple:
    """(recorded, corrected): the circle closed forms of example 4 on the
    cells (k, l, n, m) of _cells(4, 4), l + (-1)^k m + (-1)^n l m and
    l + (-1)^k m + 2 l m, mod 4."""
    k, l, n_, m = _cells(4, 4)
    base = l + np.where(k % 2, -m, m)
    return (base + np.where(n_ % 2, -l * m, l * m)) % 4, (base + 2 * l * m) % 4


def _example4_mismatches(E: SkewBrace) -> tuple:
    """(h_part_ok, recorded, corrected) for example 4's product: whether
    every cell's H-part is k + n, and the cells [k, l, n, m, got, want],
    in lex order, where the I-part differs from each closed form
    (_example4_forms)."""
    k, _, n_, _ = _cells(4, 4)
    got = E.circ.np_table.reshape(4, 4, 4, 4)
    gh, gy = got // 4, got % 4
    bad = []
    for want in _example4_forms():
        want = np.broadcast_to(want, gy.shape)
        miss = gy != want
        bad.append(np.column_stack([np.argwhere(miss), gy[miss], want[miss]]).tolist())
    return bool((gh == (k + n_) % 4).all()), bad[0], bad[1]


def _reproduces_example4_form(H: SkewBrace, I: SkewBrace, triples: Sequence) -> bool:
    """Whether the circle table of some triple's product (_product_tables)
    is the recorded closed form of example 4 on every cell."""
    k, _, n_, _ = _cells(4, 4)
    want = ((k + n_) % 4 * 4 + _example4_forms()[0]).reshape(16, 16)
    return bool((_product_tables(H, I, triples)[1] == want).all(axis=(1, 2)).any())


def _example4_triple() -> tuple:
    """(H, I, t) of example 4: the acting and coefficient braces and the
    triple of negation powers; the product is built as _example2_triple
    describes."""
    H = example4_acting_brace()
    I = example4_coefficient_brace()
    neg = _negation(4)
    nu = tuple(_perm_power(neg, k) for k in range(4))
    t = ActionTriple(nu, tuple(identity_perm(4) for _ in range(4)), nu)
    return H, I, t


def example5_acting_brace() -> SkewBrace:
    """Order-8 brace: addition mod 8, circle a o b = a + b + 2ab."""
    add = [[(a + b) % 8 for b in range(8)] for a in range(8)]
    circ = [[(a + b + 2 * a * b) % 8 for b in range(8)] for a in range(8)]
    return validate_brace(add, circ)


def example5():
    """Enumeration of all split products of the order-4 coefficient brace
    by the order-8 brace whose circle group is Z4 x Z2.

    The recorded count is 8, all with identity mu.  The exhaustive
    enumeration under the corrected compatibility law finds 16 valid
    triples, of which exactly the 8 with identity mu form the set passing
    the uncorrected law, so the recorded total is reported as an erratum
    candidate with the full listing.  Recorded sample triple (i) appears
    verbatim; sample (ii) appears after renumbering the coefficient brace
    by the transposition (1 2).
    """
    H = example5_acting_brace()
    I = example4_coefficient_brace()
    triples = enumerate_split_triples(H, I)
    ident = identity_perm(4)
    idfam = tuple(ident for _ in range(8))
    neg = _negation(4)
    mu_id = [t for t in triples if t.mu == idfam]
    spot_i = any(
        t.nu[1] == neg and t.nu[2] == ident and t.mu == idfam
        and all(s == ident for s in t.sigma)
        for t in triples
    )

    def spot_ii(trips, inv):
        return any(
            t.nu[1] == inv and t.nu[2] == inv and t.mu == idfam
            and t.sigma[1] == ident and t.sigma[2][2] == 3
            for t in trips
        )

    ii_as_written = spot_ii(triples, I.add.inv)
    # the relabelling r of I is a brace isomorphism, so it carries the valid
    # triples for (H, I) onto those for (H, r(I)), each member f to r f r^-1
    # (test_enumeration_is_invariant_under_relabelling), and the negation
    # of I to that of r(I) the same way; no second enumeration is needed
    relabel = (0, 2, 1, 3)
    r_inv = invert_perm(relabel)

    def moved(f):
        return compose(relabel, compose(f, r_inv))

    triples_relabeled = (
        ActionTriple(*(tuple(map(moved, fam)) for fam in (t.nu, t.mu, t.sigma)))
        for t in triples
    )
    ii_relabeled = spot_ii(triples_relabeled, moved(I.add.inv))
    report = {
        "name": "example-5",
        "acting_add": describe_group(H.add),
        "acting_circ": describe_group(H.circ),
        "socle_order": len(socle(H)),
        "recorded_count": 8,
        "valid_triples": len(triples),
        "identity_mu_count": len(mu_id),
        "recorded_sample_i_found": spot_i,
        "recorded_sample_ii_found_as_written": ii_as_written,
        "recorded_sample_ii_found_after_relabel": ii_relabeled,
        "relabel_perm": list(relabel),
        "triples": [triple_payload(t) for t in triples],
        "erratum_candidates": [],
    }
    if len(triples) != 8:
        report["erratum_candidates"].append(
            {
                "claim": "8 split products in total, all with identity mu",
                "observed": f"{len(triples)} valid triples, {len(mu_id)} with "
                "identity mu; the identity-mu subset is exactly the set "
                "passing the uncorrected compatibility law",
                "witness": [triple_payload(t) for t in triples],
            }
        )
    if not ii_as_written:
        report["erratum_candidates"].append(
            {
                "claim": "recorded sample triple (ii) in the pinned numbering",
                "observed": "absent as written; present verbatim after "
                f"renumbering the coefficient brace by {list(relabel)}",
            }
        )
    entry = entry_for(H, "example-5", provenance="example-5", report=report)
    return entry, report


def example1_finite(k: int = 2, m: int = 3):
    """Finite analog of the infinite negation fixture: the trivial brace
    on Z_{2k} acts on the trivial brace on Z_m, odd elements negating."""
    if k < 1:
        raise ParamOutOfRange(f"k = {k}: the acting cyclic group needs order >= 2")
    if m < 2:
        raise ParamOutOfRange(f"m = {m}: the coefficient group needs order >= 2")
    H = trivial_brace(cyclic_group(2 * k))
    I = trivial_brace(cyclic_group(m))
    neg = _negation(m)
    fam = tuple(neg if h % 2 else identity_perm(m) for h in range(2 * k))
    t = ActionTriple(fam, fam, fam)
    E = semidirect_product(H, I, t)
    bad = _example1_mismatches(E, k, m)
    report = {
        "name": "example-1-finite",
        "k": k,
        "m": m,
        "order": E.n,
        "closed_form_mismatches": bad,
        "erratum_candidates": [],
    }
    entry = entry_for(E, f"example-1-finite-k{k}-m{m}", provenance="derived",
                      report=report)
    return entry, report


def _example1_mismatches(E: SkewBrace, k: int, m: int) -> int:
    """How many cells of E's addition and circle, together, differ from
    (h1 + h2, (-1)^h2 y1 + y2) and (h1 + h2, y1 + (-1)^h1 y2)."""
    h1, y1, h2, y2 = _cells(2 * k, m)
    hpart = (h1 + h2) % (2 * k) * m
    want_add = hpart + (np.where(h2 % 2, -y1, y1) + y2) % m
    want_circ = hpart + (y1 + np.where(h1 % 2, -y2, y2)) % m
    shape = (2 * k, m, 2 * k, m)
    return int((E.add.np_table.reshape(shape) != want_add).sum()
               + (E.circ.np_table.reshape(shape) != want_circ).sum())


_EXAMPLES = {2: example2, 3: example3, 4: example4, 5: example5}


def _example(which: int, params: dict) -> tuple:
    """(entry, report) of worked example 2..5; parameters apply to example 2
    only."""
    if which not in _EXAMPLES:
        raise ParamOutOfRange(f"example {which}: only examples 2 through 5 exist")
    if which != 2 and params:
        raise ParamOutOfRange(f"example {which} takes no parameters")
    return _EXAMPLES[which](**params)


def example(which: int, **params) -> CatalogEntry:
    """Build worked example 2..5; parameters apply to example 2 only."""
    return _example(which, params)[0]


def example_report(which: int, **params) -> dict:
    """The full check report for worked example 2..5."""
    return _example(which, params)[1]


def axiom_fixtures() -> list:
    """Named (add, circ) table pairs, as int64 arrays, for the exhaustive
    axiom and lemma sweeps: trivial braces on all groups of order <= 8,
    the example instantiations with n <= 4 and p in {3, 5}, and every
    product from the example-5 pair.

    The tables come straight from their constructions, with the names
    their catalog entries carry: no payload is laid out, no example report
    is computed, no group is wrapped around a product table, and neither a
    fixture nor its action triple is validated here (only the closed-form
    braces the examples start from are), so a sweep's own validate_brace
    is the one validation of each fixture.  Each product comes from
    split._product_tables, the example-5 products from one gather over
    their 16 triples.  The construction through the example entries and
    their payloads is kept as the oracle _axiom_fixtures_via_entries in
    tests/test_catalog.py."""
    out = [(name, B.add.np_table, B.circ.np_table) for name, B in _trivial_braces()]
    params = [(n, p, False) for n in (1, 2, 3, 4) for p in (3, 5)]
    params += [(3, p, True) for p in (3, 5)]
    products = []
    for n, p, odd in params:
        name, H, I, _, t = _example2_triple(n, p, odd)
        products.append((name, H, I, t))
    H, I, _, _, t = _example3_triple()
    products.append(("example-3", H, I, t))
    H, I5, t = _example4_triple()  # example 5's kernel is example 4's
    products.append(("example-4", H, I5, t))
    for name, H, I, t in products:
        add, circ = _product_tables(H, I, [t])
        out.append((name, add[0], circ[0]))
    H5 = example5_acting_brace()
    out.append(("example-5-acting", H5.add.np_table, H5.circ.np_table))
    out.append(("example-5-coefficient", I5.add.np_table, I5.circ.np_table))
    adds, circs = _product_tables(H5, I5, enumerate_split_triples(H5, I5))
    out += [(f"example-5-product-{i}", add, circ) for i, (add, circ) in enumerate(zip(adds, circs))]
    return out

