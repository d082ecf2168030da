"""A-infinity endomorphism calculus on the lattice model and its deformations.

Generators come in pairs (w_i, wbar_i) indexed by Z_r, of degrees 0 and 1;
there is nothing in degree 2, so the Maurer-Cartan equation is vacuous and
every degree-1 element b = sum t_i wbar_i is a bounding cochain.

The operations m_2, m_3 have two sources:

* a "hidden" part given by closed lists over the Gauss word (unit products,
  per-crossing triples, and six families indexed by ordered occurrence pairs
  in the word), and
* "visible" contributions from axis-aligned lattice rectangles, enumerated
  modulo the orange sublattice, with degenerate corners at orange points.
  A rectangle passing the marked point just SW of an orange point picks up a
  factor of s; this happens exactly when its NE corner is orange.

Sign conventions for the visible readings are frozen by calibration against
exact oracles (the a=1 contribution lists, skew-symmetry of the differential
matrix for every (r,a), the reference component ideals of 1/15(1,4) and
1/19(1,7), and the one-parameter locus of wahl_cochain); see the comments at
the emission site for the alternatives that fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .resarith import SingularityParams, bracket
from .polyring import Poly, S, tsub, format_poly, _mono_mul

Generator = tuple  # (index in Z_r, degree 0 or 1)


def _accumulate(table: dict, key, out: Generator, coeff: Poly):
    """table[key][out] += coeff, dropping zero coefficients and empty cells.

    A coefficient landing in an empty slot is stored as it is, not copied:
    Poly is immutable, so cells may share one object.  Only a collision
    builds a new Poly."""
    cell = table.setdefault(key, {})
    old = cell.get(out)
    new = coeff if old is None else old + coeff
    if new.is_zero():
        cell.pop(out, None)
        if not cell:
            table.pop(key, None)
    else:
        cell[out] = new


class AinfTable:
    """Sparse m_1 / m_2 / m_3 with Poly coefficients.

    Argument tuples are written highest slot first: the key of
    m_3(a_3, a_2, a_1) is (a_3, a_2, a_1).  Values map output generators to
    Poly coefficients.
    """

    def __init__(self):
        self.m1 = {}
        self.m2 = {}
        self.m3 = {}

    def add_m1(self, x: Generator, out: Generator, coeff: Poly):
        _accumulate(self.m1, x, out, coeff)

    def add_m2(self, a2: Generator, a1: Generator, out: Generator, coeff: Poly):
        _accumulate(self.m2, (a2, a1), out, coeff)

    def add_m3(self, a3: Generator, a2: Generator, a1: Generator,
               out: Generator, coeff: Poly):
        _accumulate(self.m3, (a3, a2, a1), out, coeff)

    def degrees_present(self) -> set:
        return ({x[1] for x in self.m1}
                | {g[1] for key in (*self.m2, *self.m3) for g in key})


# ---------------------------------------------------------------------------
# hidden part
# ---------------------------------------------------------------------------

def _second_half_pos(label: int, params: SingularityParams) -> int:
    # the second half of the Gauss word lists [-k b] at position k, so the
    # label x sits at position [-a x]
    return bracket(-params.a * label, params.r)


def hidden_ainf(params: SingularityParams) -> AinfTable:
    """Products of the undeformed complex: units, per-crossing triples, and
    the six Gauss-word families.  m_1 = 0 and m_k = 0 for k >= 4."""
    r = params.r
    t = AinfTable()
    one, minus = Poly.const(1), Poly.const(-1)

    # units and the pairing with the degree-1 partners
    for i in range(r):
        t.m2[((i, 0), (0, 0))] = {(i, 0): one}
        if i != 0:
            t.m2[((0, 0), (i, 0))] = {(i, 0): one}
        t.m2[((i, 1), (0, 0))] = {(i, 1): one}
        t.m2[((0, 0), (i, 1))] = {(i, 1): minus}
        if i != 0:
            t.m2[((i, 1), (i, 0))] = {(0, 1): one}
            t.m2[((i, 0), (i, 1))] = {(0, 1): minus}

    # per-crossing triples
    for i in range(1, r):
        t.add_m3((i, 1), (i, 0), (i, 1), (i, 1), minus)
        t.add_m3((i, 1), (i, 0), (0, 1), (0, 1), minus)
        t.add_m3((i, 0), (i, 1), (0, 1), (0, 1), one)

    # Gauss-word families; (x, y) ranges over ordered occurrence pairs
    pos = [0] + [_second_half_pos(x, params) for x in range(1, r)]
    for x in range(1, r):
        for y in range(1, r):
            if x != y and pos[x] < pos[y]:
                # both occurrences in the second half
                t.add_m3((y, 0), (x, 1), (x, 0), (y, 0), one)
                t.add_m3((x, 1), (x, 0), (y, 1), (y, 1), minus)
            # x in the first half, y in the second: every pair, x = y allowed
            t.add_m3((x, 0), (x, 1), (y, 1), (y, 1), one)
            t.add_m3((y, 0), (x, 0), (x, 1), (y, 0), minus)
            if x > y:
                # both occurrences in the first half
                t.add_m3((y, 1), (x, 0), (x, 1), (y, 1), minus)
                t.add_m3((x, 0), (x, 1), (y, 0), (y, 0), minus)
    return t


# ---------------------------------------------------------------------------
# visible polygons
# ---------------------------------------------------------------------------

def _permitted_rectangles(params: SingularityParams):
    """Yield (c, X, Y, ne_orange) for rectangles [0,X] x [c,c+Y] (SW corner
    label c) whose closed region avoids orange points except at the SW corner
    (when c = 0) and, when ne_orange, at the NE corner.

    Any rectangle with a side longer than r contains a non-corner orange
    point, so X, Y <= r is exhaustive.
    """
    r, b = params.r, params.b
    for c in range(r):
        # thr[u]: height above c of the first orange point in column u at or
        # above the bottom edge, with the SW corner exempted
        thr = []
        for u in range(0, r + 1):
            v = bracket(b * u - c, r)  # first orange at c + v
            if u == 0 and c == 0:
                v = r  # SW corner itself is exempt; next orange is at height r
            elif v == 0:
                v = 0  # orange on the bottom edge
            thr.append(v)
        interior_min = thr[0]
        for X in range(1, r + 1):
            tX = thr[X]
            top = min(interior_min, r + 1)
            # plain rectangles: no orange at all
            for Y in range(1, min(top, tX)):
                if Y <= r:
                    yield (c, X, Y, False)
            # NE-orange rectangle: the column-X hit is exactly the NE corner
            if 1 <= tX < top and tX <= r:
                yield (c, X, tX, True)
            interior_min = min(interior_min, tX)


def _add_rectangles(params: SingularityParams, t: AinfTable):
    """Add the readings of every permitted rectangle to t, with the sign
    conventions documented at visible_contributions."""
    r, b = params.r, params.b
    one, minus = Poly.const(1), Poly.const(-1)
    s = Poly.var(S)
    minus_s = s.scale(-1)
    for (c, X, Y, ne_or) in _permitted_rectangles(params):
        gSW = c
        gSE = bracket(c - b * X, r)
        gNW = bracket(c + Y, r)
        gNE = bracket(c + Y - b * X, r)
        sw_or = (gSW == 0)
        if gSE == 0 or gNW == 0 or (gNE == 0) != ne_or:
            raise ArithmeticError(f"rectangle {(c, X, Y)}: misread orange corner")
        wSE, wNW = (gSE, 0), (gNW, 0)
        # A: output w at NE (w_0 when NE is orange)
        out = (gNE, 0)
        if sw_or:
            t.add_m2(wSE, wNW, out, s if ne_or else one)
        else:
            t.add_m3(wSE, (gSW, 1), wNW, out, s if ne_or else one)
        # B: output w at SW (only at a self-intersection)
        if not sw_or:
            if ne_or:
                t.add_m2(wNW, wSE, (gSW, 0), s)
            else:
                t.add_m3(wNW, (gNE, 1), wSE, (gSW, 0), minus)
        # D: input at SE, output wbar at NW / E: input at NW, output wbar at SE
        if sw_or and ne_or:
            t.add_m1(wSE, (gNW, 1), minus_s)
            t.add_m1(wNW, (gSE, 1), s)
            # Morse-maximum insertions at the smoothed corners
            t.add_m2((0, 1), wNW, (gSE, 1), s)
            t.add_m2(wSE, (0, 1), (gNW, 1), minus_s)
        elif sw_or:
            t.add_m2((gNE, 1), wSE, (gNW, 1), one)
            t.add_m2(wNW, (gNE, 1), (gSE, 1), minus)
        elif ne_or:
            t.add_m2(wSE, (gSW, 1), (gNW, 1), minus_s)
            t.add_m2((gSW, 1), wNW, (gSE, 1), s)
        else:
            t.add_m3((gNE, 1), wSE, (gSW, 1), (gNW, 1), one)
            t.add_m3((gSW, 1), wNW, (gNE, 1), (gSE, 1), minus)


def visible_contributions(params: SingularityParams) -> AinfTable:
    """m_1 / m_2 / m_3 entries from permitted rectangles.

    Each rectangle is read once per choice of output corner.  Reading signs:
    +1 throughout, except that a degree-1 insertion at the NE corner counts
    with -1, and the reading with input at SE, output at NW carries a global
    -1 when the NE corner is orange (equivalently, E-readings negate
    D-readings, keeping the differential matrix skew).  Flipping either
    exception breaks the reference component ideals of 1/15(1,4) and 1/19(1,7)
    and the wahl_cochain vanishing; flipping both breaks skew-symmetry
    against the a=1 lists.
    """
    table = AinfTable()
    _add_rectangles(params, table)
    return table


def full_ainf(params: SingularityParams) -> AinfTable:
    """Hidden and visible operations, accumulated into one table."""
    table = hidden_ainf(params)
    _add_rectangles(params, table)
    return table


# ---------------------------------------------------------------------------
# bounding-cochain insertion
# ---------------------------------------------------------------------------

class NotInsertableError(ValueError):
    """The table cannot be deformed: it has generators outside degrees 0
    and 1, or an entry whose input or slot indices are not in Z_r."""


@dataclass
class DeformedOps:
    """m_1^b and m_2^b with symbolic cochain coefficients t_1..t_{r-1}.

    differentials[i] maps output generators to Poly; products[(j, i)]
    likewise, for inputs w_j, w_i of degree 0.
    """

    r: int
    differentials: dict
    products: dict


def insert_cochain(ainf: AinfTable, r: int) -> DeformedOps:
    """Deform by the universal cochain b = sum_{i != 0} t_i wbar_i.

    One rule reads every m_1, m_2, m_3 entry: each degree-1 slot wbar_i takes
    t_i (wbar_0 drops the entry, as t_0 = 0), and the entry, times the t's in
    slot order, goes to m_1^b(x) = differentials[x] if one degree-0 input x
    remains and to m_2^b(x, y) = products[(x, y)] if two remain.  With no
    inputs left it is a Maurer-Cartan term, vacuous as nothing lives in
    degree 2; three inputs would need an output in degree -1.

    Cells accumulate as raw {monomial: int} terms, each product monomial is
    formed once per (coefficient monomial, t-indices) pair, and a term or an
    output is dropped as soon as it reaches zero, so every dict keeps the
    order that Poly arithmetic gives it; each cell is wrapped into Polys
    once, at the end.  An input or slot index outside Z_r raises
    NotInsertableError, even where the entries at that key cancel.
    """
    if ainf.degrees_present() - {0, 1}:
        raise NotInsertableError("generators must live in degrees 0 and 1")
    tvars = [((tsub(i), 1),) for i in range(r)]
    monos = {}  # (coefficient monomial, t-indices) -> product monomial
    diffs, prods = {}, {}
    entries = [((x,), cell) for x, cell in ainf.m1.items()]
    for slots, cell in entries + list(ainf.m2.items()) + list(ainf.m3.items()):
        inputs, tidx = (), ()
        for index, degree in slots:
            if degree == 0:
                inputs += (index,)
            elif index == 0:
                break  # t_0 = 0: the entry contributes nothing
            else:
                tidx += (index,)
        else:
            if len(inputs) == 1:
                target, key = diffs, inputs[0]
            elif len(inputs) == 2:
                target, key = prods, inputs
            else:
                continue  # a Maurer-Cartan term, or an output in degree -1
            dest = target.setdefault(key, {})
            for out, coeff in cell.items():
                terms = dest.setdefault(out, {})
                for m, c in coeff.terms.items():
                    pm = monos.get((m, tidx))
                    if pm is None:
                        pm = m
                        for i in tidx:
                            if not 0 < i < r:
                                raise NotInsertableError(
                                    f"cochain slot index {i!r} is not in Z_{r}")
                            pm = _mono_mul(pm, tvars[i])
                        monos[(m, tidx)] = pm
                    c = terms.get(pm, 0) + c
                    if c:
                        terms[pm] = c
                    else:
                        del terms[pm]
                if not terms:
                    del dest[out]
    for key in diffs:
        if key not in range(r):
            raise NotInsertableError(f"differential key {key!r} is not in Z_{r}")
    for key in prods:
        if len(key) != 2 or not all(i in range(r) for i in key):
            raise NotInsertableError(f"product key {key!r} is not a pair in Z_{r}")

    def wrapped(cell):
        return {out: Poly(terms) for out, terms in cell.items()}

    return DeformedOps(
        r, {i: wrapped(diffs.get(i, {})) for i in range(r)},
        {(j, i): wrapped(prods.get((j, i), {})) for j in range(r) for i in range(r)})


# ---------------------------------------------------------------------------
# the differential matrix and its vanishing locus
# ---------------------------------------------------------------------------

@dataclass
class DiffMatrix:
    """Skew-symmetric (r-1) x (r-1) matrix with dw_i = sum_j entry(i,j) wbar_j."""

    params: SingularityParams
    entries: dict  # (i, j), 1-based -> Poly

    def entry(self, i: int, j: int) -> Poly:
        return self.entries.get((i, j), Poly.zero())

    def is_skew(self) -> bool:
        r = self.params.r
        for i in range(1, r):
            if not self.entry(i, i).is_zero():
                return False
            for j in range(i + 1, r):
                if not (self.entry(i, j) + self.entry(j, i)).is_zero():
                    return False
        return True

    def upper_entries(self):
        r = self.params.r
        return [((i, j), self.entry(i, j))
                for i in range(1, r) for j in range(i + 1, r)]


def diff_matrix(params: SingularityParams, ops: DeformedOps | None = None) -> DiffMatrix:
    ops = ops or insert_cochain(full_ainf(params), params.r)
    entries = {}
    if ops.differentials[0]:
        raise ArithmeticError("the unit must stay closed")
    for i in range(1, params.r):
        for out, coeff in ops.differentials[i].items():
            if out[1] != 1 or out[0] == 0:
                raise ArithmeticError(f"dw_{i} hit {out}")
            if not coeff.is_zero():
                entries[(i, out[0])] = coeff
    return DiffMatrix(params, entries)


def def0_generators(params: SingularityParams, dm: DiffMatrix | None = None) -> list:
    """Strictly upper entries of the differential matrix; the lower half is
    determined by skew-symmetry."""
    dm = dm or diff_matrix(params)
    return [p for _, p in dm.upper_entries() if not p.is_zero()]


# ---------------------------------------------------------------------------
# cochain specifications and deformed tables
# ---------------------------------------------------------------------------

class SpecNotFlatError(ValueError):
    def __init__(self, position, value):
        self.position = position
        self.value = value
        super().__init__(
            f"differential matrix entry {position} does not vanish: {format_poly(value)}")


@dataclass
class CochainSpec:
    """Assignment of each t_i (t_0 = 0 fixed) and s to a polynomial.

    Unassigned t_i default to 0; unassigned s stays the free variable s.
    `t_i = t_i` keeps a coefficient free.
    """

    r: int
    assignments: dict = field(default_factory=dict)

    def substitution(self) -> dict:
        sub = {}
        for i in range(self.r):
            v = tsub(i)
            if i == 0:
                sub[v] = Poly.zero()
            else:
                sub[v] = self.assignments.get(v, Poly.zero())
        if S in self.assignments:
            sub[S] = self.assignments[S]
        return sub

    @staticmethod
    def parse(text: str, r: int) -> 'CochainSpec':
        """One assignment per line: `t_<i> = <poly>` or `s = <poly>`;
        `#` starts a comment."""
        from .polyring import parse_poly, PolyParseError
        assignments = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split('#', 1)[0].strip()
            if not line:
                continue
            if '=' not in line:
                raise PolyParseError(f"line {lineno}: expected `lhs = poly`")
            lhs, rhs = line.split('=', 1)
            lhs = lhs.strip()
            if lhs == 's':
                key = S
            elif lhs.startswith('t_'):
                idx = int(lhs[2:])
                if not 0 <= idx < r:
                    raise PolyParseError(f"line {lineno}: t_{idx} out of range for r={r}")
                if idx == 0:
                    raise PolyParseError(f"line {lineno}: t_0 is fixed to 0")
                key = tsub(idx)
            else:
                raise PolyParseError(f"line {lineno}: unknown left-hand side {lhs!r}")
            assignments[key] = parse_poly(rhs)
        return CochainSpec(r, assignments)


def check_point(params: SingularityParams, spec: CochainSpec,
                dm: DiffMatrix | None = None) -> bool:
    dm = dm or diff_matrix(params)
    sub = spec.substitution()
    return all(p.substitute(sub).is_zero() for _, p in dm.upper_entries())


def deformed_table(params: SingularityParams, spec: CochainSpec):
    """The flat family's multiplication table at the locus cut out by spec.

    Rejects specs that do not annihilate the differential matrix identically,
    reporting the first surviving entry.
    """
    from .kkalg import AlgebraTable
    ops = insert_cochain(full_ainf(params), params.r)
    dm = diff_matrix(params, ops)
    sub = spec.substitution()
    for (i, j), p in dm.upper_entries():
        v = p.substitute(sub)
        if not v.is_zero():
            raise SpecNotFlatError((i, j), v)
    products = {}
    for (j, i), cell in ops.products.items():
        newcell = {}
        for out, coeff in cell.items():
            if out[1] != 0:
                raise ArithmeticError(f"product w_{j} w_{i} hit degree-1 output {out}")
            c = coeff.substitute(sub)
            if not c.is_zero():
                newcell[out[0]] = c
        if newcell:
            products[(j, i)] = newcell
    return AlgebraTable(params.r, products)
