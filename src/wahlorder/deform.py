"""Deformations of the lattice model's A-infinity table by a bounding cochain.

insert_cochain inserts b = sum t_i wbar_i into a table of ainf, the
universal cochain (each t_i its own variable) or the values of a
CochainSpec, and gives m_1^b and m_2^b with Poly coefficients; Poly first
appears here.  diff_matrix reads m_1^b as the skew differential matrix,
whose vanishing cuts out the flat locus, and check_point and deformed_table
read it and m_2^b at the locus of a spec.  The universal cochain is
inserted into the whole table of ainf.full_ainf; a spec, into the entries
of the slots it leaves nonzero, the only ones its insertion keeps.
"""

from __future__ import annotations

import re
from functools import cache, cached_property
from itertools import product

from .resarith import SingularityParams
from .polyring import (Poly, S, tsub, format_poly, parse_poly, read_int,
                       PolyParseError, MAX_TERMS, MAX_BITS, _add_terms)
from .kkalg import AlgebraTable
from .ainf import AinfTable, full_ainf

_S_MONO = ((S, 1),)


class NotInsertableError(ValueError):
    """The table cannot be deformed: an entry has an input or slot index
    that is not in Z_r, or an output code that is not in range(2r).
    insert_cochain raises it for a differential entry, a read of
    DeformedOps.products for a product entry, its slot indices included."""


# ---------------------------------------------------------------------------
# bounding-cochain insertion
# ---------------------------------------------------------------------------

class DeformedOps:
    """m_1^b and m_2^b, the values of the inserted cochain in the coefficients.

    differentials[i] = m_1^b(w_i) as {j: coefficient of wbar_j}, for every i
    in Z_r; products[(j, i)] = m_2^b(w_j, w_i) as {k: coefficient of w_k},
    for every pair in Z_r.  Coefficients are nonzero Poly.

    products is passed as a function of no arguments that builds the dict;
    it is called at the first read of products, and its dict kept; a call
    that raises keeps nothing, so every read raises.  Only a caller that
    reads the products pays for them, even for the dispatch of their
    entries, and a fault of a product entry, a slot index outside Z_r
    included, is raised by that read.
    """

    def __init__(self, differentials: dict, products):
        self.differentials, self._products = differentials, products

    @cached_property
    def products(self) -> dict:
        return self._products()


def _diff_entries(ainf: AinfTable):
    """Yield (key, slots, cell) for every entry whose insertion can land in
    m_1^b(x): key is the input index x, slots the indices of its degree-1
    slots in slot order.  Dispatch is on arity and on the parity (degree)
    bit of each code; no other entry is read past its key."""
    for (x,), cell in ainf.m1.items():
        if not x & 1:
            yield x >> 1, (), cell
    for (a2, a1), cell in ainf.m2.items():
        if a2 & 1:
            if not a1 & 1:
                yield a1 >> 1, (a2 >> 1,), cell
        elif a1 & 1:
            yield a2 >> 1, (a1 >> 1,), cell
    for (a3, a2, a1), cell in ainf.m3.items():
        if a3 & 1:
            if a2 & 1:
                if not a1 & 1:
                    yield a1 >> 1, (a3 >> 1, a2 >> 1), cell
            elif a1 & 1:
                yield a2 >> 1, (a3 >> 1, a1 >> 1), cell
        elif a2 & 1 and a1 & 1:
            yield a3 >> 1, (a2 >> 1, a1 >> 1), cell


def _product_entries(ainf: AinfTable):
    """_diff_entries for m_2^b(x, y): key is the pair (x, y)."""
    for (a2, a1), cell in ainf.m2.items():
        if not a2 & 1 and not a1 & 1:
            yield (a2 >> 1, a1 >> 1), (), cell
    for (a3, a2, a1), cell in ainf.m3.items():
        if a3 & 1:
            if not a2 & 1 and not a1 & 1:
                yield (a2 >> 1, a1 >> 1), (a3 >> 1,), cell
        elif a2 & 1:
            if not a1 & 1:
                yield (a3 >> 1, a1 >> 1), (a2 >> 1,), cell
        elif a1 & 1:
            yield (a3 >> 1, a2 >> 1), (a1 >> 1,), cell


def _weight(slots: tuple, r: int, dropped: frozenset) -> int:
    """The monomial code of prod t_i over slots, or -1 when a slot's value is
    zero (slot index in dropped).  The code of s^e t_lo t_hi (lo <= hi, an
    absent index read as 0) is (lo * r + hi) << 1 | e."""
    for i in slots:
        if not 0 <= i < r:
            raise NotInsertableError(f"cochain slot index {i!r} is not in Z_{r}")
    if not dropped.isdisjoint(slots):
        return -1
    lo, hi = sorted((0, 0) + slots)[-2:]
    return (lo * r + hi) << 1


def _monomial(code: int, r: int) -> tuple:
    """The Poly monomial of a code made by _weight, s-flag included."""
    lo, hi = divmod(code >> 1, r)
    mono = _S_MONO if code & 1 else ()
    if lo and lo == hi:
        return mono + ((tsub(lo), 2),)
    return mono + tuple((tsub(i), 1) for i in (lo, hi) if i)


def _insert(entries: list, keep_s: bool) -> dict:
    """{key: {output code: {monomial code: int}}}, the sum of the entries,
    a flat list key, w, cell, key, w, cell, ...: each output of cell counts
    at the monomial code w and its s-part at w | 1 (dropped unless keep_s).
    A term or an output is dropped as soon as it reaches zero, so every dict
    keeps the order that Poly arithmetic gives it; a key stays, with an
    empty cell, when all of its outputs cancel."""
    cells = {}
    it = iter(entries)
    for key, w, cell in zip(it, it, it):
        dest = cells.get(key)
        if dest is None:
            dest = cells[key] = {}
        for out, (c0, c1) in cell.items():
            terms = dest.get(out)
            if terms is None:
                terms = dest[out] = {}
            if c0:
                c = terms.get(w, 0) + c0
                if c:
                    terms[w] = c
                else:
                    del terms[w]
            if c1 and keep_s:
                c = terms.get(w | 1, 0) + c1
                if c:
                    terms[w | 1] = c
                else:
                    del terms[w | 1]
            if not terms:
                del dest[out]
    return cells


def _substitution(spec: CochainSpec, r: int) -> dict:
    """spec.substitution() of a spec checked to be one for r."""
    if spec.r != r:
        raise ValueError(f"cochain spec for r = {spec.r} read at r = {r}")
    return spec.substitution()


def insert_cochain(ainf: AinfTable, r: int,
                   spec: CochainSpec | None = None) -> DeformedOps:
    """Deform by the cochain b = sum_i t_i wbar_i with the values of spec;
    None is the universal cochain, each t_i its own variable and s free.

    One rule reads every m_1, m_2, m_3 entry: each degree-1 slot wbar_i takes
    the value of t_i, and the entry, times those values in slot order, goes
    to m_1^b(x) = differentials[x] if one degree-0 input x remains and to
    m_2^b(x, y) = products[(x, y)] if two remain.  With no inputs left it is
    a Maurer-Cartan term, vacuous as the grading of the table (checked by
    `verify --suite deform`) leaves nothing in degree 2; three inputs would
    need an output in degree -1.  A slot valued 0 drops its entry at
    dispatch (wbar_0 always, as t_0 = 0); s = 0 drops every s-part.

    No A-infinity table is built here: ainf is read as given.  The
    entries a zero slot drops are those that full_ainf leaves out when the
    slot is not live, so full_ainf(params) and full_ainf(params, live) for
    the slots that spec leaves nonzero give the same result, dict and term
    orders included; check_point and deformed_table pass the second.

    Entries are dispatched on arity and on the degree bits of their codes,
    by one walk of the table per target (_diff_entries, _product_entries),
    and each target's entries are summed by _insert into monomial codes (see
    _weight; one per distinct tuple of slot indices).  Each output code is
    then decoded once to its index (wbar_j in a differential, w_k in a
    product), each distinct list of terms once into a Poly, shared by every
    output that has it, and an output whose value cancels is dropped.  The
    values other than 0 and the variable itself are substituted into each
    distinct monomial code once per call, and a cell's value is the sum of
    its terms' scaled images, summed in place by _add_terms in the term
    order that Poly.substitute of the finished cell gives.  The
    differentials are built here; the products when DeformedOps.products is
    first read, sharing the slot weights and the decoded monomials.  The
    walk of the differentials reads no product cell.

    Every fault is raised by the pass that reads it, in this order: an
    index of a degree-1 slot outside Z_r, at dispatch; a summed key outside
    Z_r, or not a pair in Z_r, even where its entries cancel (each
    NotInsertableError); then an output code outside range(2r)
    (NotInsertableError) or of the wrong degree (ArithmeticError), checked
    at its decode, so an output that cancels is not checked.  The
    differential pass runs here; the product pass at each read of
    DeformedOps.products until one succeeds, so a fault of a product entry,
    its slot indices included, is raised by that read.  An entry that a
    zero-valued slot drops is never read past its slot indices.  The
    product entries are read from ainf when they are built, so ainf must
    not change before then.
    """
    dropped, keep_s, images = frozenset((0,)), True, {}
    if spec is not None:
        sub = _substitution(spec, r)
        dropped = frozenset(i for i in range(r) if not sub[tsub(i)])
        keep_s = S not in sub or bool(sub[S])
        images = {v: p for v, p in sub.items() if p and p != Poly.var(v)}
    weights = {}  # slot indices -> monomial code

    def weighted(entries):
        """The flat key, w, cell list of _insert for the entries a slot
        valued 0 does not drop."""
        kept = []
        for key, slots, cell in entries:
            w = weights.get(slots)
            if w is None:
                w = weights[slots] = _weight(slots, r, dropped)
            if w >= 0:
                kept += key, w, cell
        return kept

    monomial = cache(lambda code: _monomial(code, r))
    image = cache(lambda code: Poly.from_nonzero({monomial(code): 1})
                  .substitute(images))

    @cache
    def poly(items):
        if not images:
            return Poly.from_nonzero({monomial(m): c for m, c in items})
        out = {}
        for m, c in items:
            _add_terms(out, image(m).terms, c)
        return Poly.from_nonzero(out)

    def decoded(entries, keys, codes):
        """One target's pass: {key: {index: Poly}} for each of keys, the
        entries summed by _insert, every summed key in keys and every output
        code in codes."""
        cells = _insert(weighted(entries), keep_s)
        diff = codes is wbars
        for key in cells:
            if key not in keys:
                raise NotInsertableError(
                    f"differential key {key!r} is not in Z_{r}" if diff else
                    f"product key {key!r} is not a pair in Z_{r}")
        table = {}
        for key in keys:
            table[key] = out_cell = {}
            for out, terms in cells.get(key, {}).items():
                if out not in codes:
                    name = f'dw_{key}' if diff else 'w_{} w_{}'.format(*key)
                    if not 0 <= out < 2 * r:
                        raise NotInsertableError(
                            f"{name} hit output code {out}, not a generator over Z_{r}")
                    raise ArithmeticError(
                        f"{name} hit w{'bar' * (out & 1)}_{out >> 1} of degree {out & 1}")
                if (p := poly(tuple(terms.items()))).terms:
                    out_cell[out >> 1] = p
        return table

    wbars, ws = range(1, 2 * r, 2), range(0, 2 * r, 2)
    return DeformedOps(
        decoded(_diff_entries(ainf), range(r), wbars),
        lambda: decoded(_product_entries(ainf),
                        dict.fromkeys(product(range(r), repeat=2)), ws))


# ---------------------------------------------------------------------------
# the differential matrix and its vanishing locus
# ---------------------------------------------------------------------------

class DiffMatrix:
    """Skew-symmetric (r-1) x (r-1) matrix with dw_i = sum_j entry(i,j) wbar_j.

    rows are the differentials of DeformedOps, {i: {j: Poly}} for i in Z_r;
    row 0 is empty and no row has a wbar_0 entry (diff_matrix checks both).
    """

    def __init__(self, params: SingularityParams, rows: dict):
        self.params, self.rows = params, rows

    def entry(self, i: int, j: int) -> Poly:
        return self.rows.get(i, {}).get(j, Poly.zero())

    def is_skew(self) -> bool:
        """entry(i, j) = -entry(j, i) for every stored entry (i, j); a pair
        with neither entry stored is 0 = -0, so this is every pair, the
        diagonal included.  Each unordered pair is read once: an entry on
        the diagonal or without a stored partner must be 0, and a stored
        pair is compared from its upper entry, term by term."""
        rows, no_row = self.rows, {}
        for i, row in rows.items():
            for j, p in row.items():
                q = rows.get(j, no_row).get(i) if i != j else None
                if q is None:
                    if p.terms:
                        return False
                elif i < j:
                    terms = q.terms
                    if len(terms) != len(p.terms) or any(
                            terms.get(m) != -c for m, c in p.terms.items()):
                        return False
        return True

    def upper_entries(self):
        """[((i, j), entry)] for the stored (nonzero) entries with i < j,
        sorted by position."""
        return [((i, j), p) for i in sorted(self.rows)
                for j, p in sorted(self.rows[i].items()) if i < j]


def diff_matrix(params: SingularityParams, ops: DeformedOps | None = None) -> DiffMatrix:
    """The differential matrix of ops, by default of the universal cochain
    inserted into the whole full_ainf(params)."""
    ops = ops or insert_cochain(full_ainf(params), params.r)
    rows = ops.differentials
    if rows[0]:
        raise ArithmeticError("the unit must stay closed")
    for i, row in rows.items():
        if 0 in row:
            raise ArithmeticError(f"dw_{i} hit wbar_0")
    return DiffMatrix(params, rows)


# ---------------------------------------------------------------------------
# cochain specifications and deformed tables
# ---------------------------------------------------------------------------

class SpecNotFlatError(ValueError):
    def __init__(self, position, value):
        self.position = position
        self.value = value
        super().__init__(
            f"differential matrix entry {position} does not vanish: {format_poly(value)}")


# a left-hand side t_<i>: i is an ASCII digit run, read as on the right-hand
# side, with an optional minus so that t_-1 is refused as a variable, not
# as a misspelling
_T_LHS = re.compile(r't_(-?)([0-9]+)')


def _check_assignable(v, r: int):
    """Refuse a variable a spec at r may not assign: all but s and t_i, 0 < i < r."""
    if v != S and not (v == tsub(v[1]) and 0 < v[1] < r):
        raise ValueError(f"cochain spec for r = {r} assigns "
                         f"{format_poly(Poly.var(v))}")


class CochainSpec:
    """Assignment of each t_i (t_0 = 0 fixed) and s to a polynomial.

    Unassigned t_i default to 0; unassigned s stays the free variable s.
    `t_i = t_i` keeps a coefficient free.
    """

    def __init__(self, r: int, assignments: dict):
        self.r, self.assignments = r, assignments

    def substitution(self) -> dict:
        """{variable: value} for t_0..t_{r-1}, and s when assigned."""
        for v in self.assignments:
            _check_assignable(v, self.r)
        return {**{tsub(i): Poly.zero() for i in range(self.r)}, **self.assignments}

    @staticmethod
    def parse(text: str, r: int) -> 'CochainSpec':
        """One assignment per line: `t_<i> = <poly>` or `s = <poly>`;
        `#` starts a comment.  The values hold at most MAX_TERMS terms and
        MAX_BITS bits of coefficients in all.  Every error names its line."""
        assignments = {}
        terms = bits = 0
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split('#', 1)[0].strip()
            if not line:
                continue
            try:
                if '=' not in line:
                    raise ValueError("expected `lhs = poly`")
                lhs, rhs = line.split('=', 1)
                lhs = lhs.strip()
                if lhs == 's':
                    key = S
                elif lhs.startswith('t_'):
                    m = _T_LHS.fullmatch(lhs)
                    if not m:
                        raise ValueError(f"index of {lhs!r} is not an integer")
                    index = read_int(m[2])
                    key = tsub(-index if m[1] else index)
                else:
                    raise ValueError(f"unknown left-hand side {lhs!r}")
                _check_assignable(key, r)
                if key in assignments:
                    raise ValueError(f"{format_poly(Poly.var(key))} is "
                                     f"assigned twice")
                assignments[key] = value = parse_poly(rhs)
                terms += len(value.terms)
                if terms > MAX_TERMS:
                    raise ValueError(f"the values hold more than {MAX_TERMS} "
                                     f"terms in all")
                bits += sum(c.bit_length() for c in value.terms.values())
                if bits > MAX_BITS:
                    raise ValueError(f"the values hold more than {MAX_BITS} "
                                     f"bits of coefficients in all")
            except ValueError as exc:
                raise PolyParseError(f"line {lineno}: {exc}") from None
        return CochainSpec(r, assignments)


def _spec_ops(params: SingularityParams, spec: CochainSpec) -> DeformedOps:
    """insert_cochain of spec into full_ainf(params, live), live the slots
    that spec leaves nonzero: the only entries its insertion keeps.  spec
    is checked against params.r, and its variables, before the table is
    built."""
    sub = _substitution(spec, params.r)
    live = {i for i in range(params.r) if sub[tsub(i)]}
    return insert_cochain(full_ainf(params, live), params.r, spec)


def check_point(params: SingularityParams, spec: CochainSpec) -> bool:
    """True iff spec annihilates the differential matrix: with the cochain
    of spec inserted, no upper entry is left.  The table read is
    full_ainf restricted to the slots spec leaves nonzero, and only the
    differentials are built from it; an insertion error of a differential
    entry, its slot indices included, is raised by insert_cochain (no
    product entry is read), and a broken matrix invariant (ArithmeticError)
    by diff_matrix.  The answer is read off the first row with an upper
    entry."""
    rows = diff_matrix(params, _spec_ops(params, spec)).rows
    return not any(j > i for i, row in rows.items() for j in row)


def deformed_table(params: SingularityParams, spec: CochainSpec):
    """The flat family's multiplication table at the locus cut out by spec:
    m_2^b on degree 0 with the cochain of spec inserted into full_ainf
    restricted to the slots spec leaves nonzero, as in check_point.

    Rejects specs that do not annihilate the differential matrix identically,
    reporting its first upper entry (SpecNotFlatError) before any product
    cell is built: the products are built by the table's read of
    ops.products, on the flat locus only.  Insertion errors are raised as in
    check_point, and those of a product entry by that read.
    """
    ops = _spec_ops(params, spec)
    upper = diff_matrix(params, ops).upper_entries()
    if upper:
        raise SpecNotFlatError(*upper[0])
    return AlgebraTable(params.r, ops.products)
