"""The A-infinity operations of the undeformed lattice model, integer-coded.

Generators come in pairs (w_i, wbar_i) indexed by Z_r, of degrees 0 and 1;
there is nothing in degree 2, so the Maurer-Cartan equation is vacuous and
every degree-1 element b = sum t_i wbar_i is a bounding cochain (see
deform.insert_cochain).

The operations m_2, m_3 have two sources:

* a "hidden" part read off the Gauss word of kkalg.gauss_word (unit
  products, per-crossing triples, and six families: for each ordered pair
  of occurrences in the word, the two entries picked by the halves of the
  word the two occurrences lie in), and
* "visible" contributions from axis-aligned lattice rectangles, enumerated
  modulo the orange sublattice, with degenerate corners at orange points.
  A rectangle passing the marked point just SW of an orange point picks up a
  factor of s; this happens exactly when its NE corner is orange.

Every coefficient is +-1 or +-s (see AinfTable).  full_ainf builds the whole
table, or, given the live slots (the i whose t_i a cochain leaves nonzero),
takes the same walk and drops each entry with a dead degree-1 slot where it
is emitted, keeping the rest in the whole table's order.

Sign conventions for the visible readings are frozen by calibration against
exact oracles (the a=1 contribution lists, skew-symmetry of the differential
matrix for every (r,a), the reference component ideals of 1/15(1,4) and
1/19(1,7), and the one-parameter locus of wahl_cochain); see the comments at
the emission site for the alternatives that fail.
"""

from __future__ import annotations

from itertools import chain

from .resarith import SingularityParams
from .kkalg import gauss_word

# coefficients c0 + c1 s as pairs (c0, c1)
_ONE, _MINUS, _S, _MINUS_S = (1, 0), (-1, 0), (0, 1), (0, -1)


def _accumulate(entries):
    """cells[key][out] += coeff for each (cells, key, out, coeff) in entries,
    dropping zero coefficients and empty cells.

    Coefficients are (c0, c1) pairs.  One landing in an empty slot is stored
    as it is, not copied: pairs are immutable, so cells may share one.  Only
    a collision builds a new pair."""
    for cells, key, out, coeff in entries:
        cell = cells.get(key)
        if cell is None:
            if coeff[0] or coeff[1]:
                cells[key] = {out: coeff}
            continue
        old = cell.get(out)
        if old is not None:
            coeff = (old[0] + coeff[0], old[1] + coeff[1])
        if coeff[0] or coeff[1]:
            cell[out] = coeff
        elif old is not None:
            del cell[out]
            if not cell:
                del cells[key]


class AinfTable:
    """Sparse m_1 / m_2 / m_3, integer-coded.

    A generator (i, d) is stored as the int 2i + d and a coefficient
    c0 + c1 s as the pair (c0, c1).  Each m_k is keyed by the tuple of its
    k input codes written highest slot first: the key of m_3(a_3, a_2, a_1)
    is (a_3, a_2, a_1), and that of m_1(a_1) is (a_1,).  Each cell maps
    output codes to pairs, one item per output, with no zero pair and no
    empty cell.

    The reading rules keep the grading deg(out) = sum deg(inputs) + 2 - k
    of every m_k entry, a code's degree its parity bit; verify's deform
    suite checks it.
    """

    def __init__(self):
        self.m1 = {}
        self.m2 = {}
        self.m3 = {}

    def degrees_present(self) -> set:
        """The degree bits of the input codes."""
        codes = set(chain.from_iterable(chain(self.m1, self.m2, self.m3)))
        return {code & 1 for code in codes}


# ---------------------------------------------------------------------------
# hidden part
# ---------------------------------------------------------------------------

def _hidden_entries(params: SingularityParams, table: AinfTable, live: list):
    """Yield the hidden entries as (cells, key, out, coeff) into table: the
    units and the pairing, the per-crossing triples, and for each pair of
    occurrences p < q in the Gauss word, x at p and y at q, the two entries
    of the family picked by the halves of the word they lie in.  Only the
    entries whose degree-1 slots i all have live[i] are yielded."""
    m2, m3 = table.m2, table.m3
    # units and the pairing with the degree-1 partners (w_0 and wbar_0 are
    # the codes 0 and 1)
    for i in range(params.r):
        w, wbar = 2 * i, 2 * i + 1
        yield m2, (w, 0), w, _ONE
        if i != 0:
            yield m2, (0, w), w, _ONE
        if not live[i]:
            continue
        yield m2, (wbar, 0), wbar, _ONE
        yield m2, (0, wbar), wbar, _MINUS
        if i != 0:
            yield m2, (wbar, w), 1, _ONE
            yield m2, (w, wbar), 1, _MINUS
    # per-crossing triples
    for i in range(1, params.r):
        w, wbar = 2 * i, 2 * i + 1
        if live[i]:
            yield m3, (wbar, w, wbar), wbar, _MINUS
            if live[0]:
                yield m3, (wbar, w, 1), 1, _MINUS
                yield m3, (w, wbar, 1), 1, _ONE
    word = gauss_word(params)
    half = len(word) // 2
    for p, x in enumerate(word):
        if not live[x]:  # every entry of the pair reads wbar_x
            continue
        wx, bx = 2 * x, 2 * x + 1
        for q in range(p + 1, len(word)):
            y = word[q]
            wy, by, y_live = 2 * y, 2 * y + 1, live[y]
            if p >= half:  # both occurrences in the second half
                yield m3, (wy, bx, wx), wy, _ONE
                if y_live:
                    yield m3, (bx, wx, by), by, _MINUS
            elif q >= half:  # x in the first half, y in the second
                if y_live:
                    yield m3, (wx, bx, by), by, _ONE
                yield m3, (wy, wx, bx), wy, _MINUS
            else:  # both occurrences in the first half
                if y_live:
                    yield m3, (by, wx, bx), by, _MINUS
                yield m3, (wx, bx, wy), wy, _MINUS


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
        # above the bottom edge, 0 on it; the SW corner is exempt, so thr[0]
        # is r at c = 0.  interior_min <= r, so every Y below is at most r.
        thr = [(b * u - c) % r for u in range(r + 1)]
        thr[0] = thr[0] or r
        interior_min = thr[0]
        for X in range(1, r + 1):
            tX = thr[X]
            # plain rectangles: no orange at all
            for Y in range(1, min(interior_min, tX)):
                yield (c, X, Y, False)
            # NE-orange rectangle: the column-X hit is exactly the NE corner
            if 1 <= tX < interior_min:
                yield (c, X, tX, True)
            interior_min = min(interior_min, tX)


def _rectangle_readings(params: SingularityParams, t: AinfTable, live: list):
    """Yield the readings of every permitted rectangle as (cells, key, out,
    coeff) into t, with the sign conventions documented at
    visible_contributions.  A reading's slots sit at the SW and NE corners;
    one with a dead slot i (live[i] false) is dropped here, and only here."""
    r, b = params.r, params.b
    m1, m2, m3 = t.m1, t.m2, t.m3
    for (c, X, Y, ne_or) in _permitted_rectangles(params):
        gSW = c
        gSE = (c - b * X) % r
        gNW = (c + Y) % r
        gNE = (c + Y - b * X) % r
        sw_or = (gSW == 0)
        if gSE == 0 or gNW == 0 or (gNE == 0) != ne_or:
            raise ArithmeticError(f"rectangle {(c, X, Y)}: misread orange corner")
        sw_live, ne_live = live[gSW], live[gNE]
        wSE, wNW = 2 * gSE, 2 * gNW
        bSW, bSE, bNW, bNE = 2 * gSW + 1, wSE + 1, wNW + 1, 2 * gNE + 1
        # A: output w at NE (w_0 when NE is orange)
        out = 2 * gNE
        if sw_or:
            yield m2, (wSE, wNW), out, _S if ne_or else _ONE
        elif sw_live:
            yield m3, (wSE, bSW, wNW), out, _S if ne_or else _ONE
        # B: output w at SW (only at a self-intersection)
        if not sw_or:
            if ne_or:
                yield m2, (wNW, wSE), 2 * gSW, _S
            elif ne_live:
                yield m3, (wNW, bNE, wSE), 2 * gSW, _MINUS
        # D: input at SE, output wbar at NW / E: input at NW, output wbar at SE
        if sw_or and ne_or:
            yield m1, (wSE,), bNW, _MINUS_S
            yield m1, (wNW,), bSE, _S
            # Morse-maximum insertions at the smoothed corners
            if sw_live:
                yield m2, (1, wNW), bSE, _S
                yield m2, (wSE, 1), bNW, _MINUS_S
        elif sw_or:
            if ne_live:
                yield m2, (bNE, wSE), bNW, _ONE
                yield m2, (wNW, bNE), bSE, _MINUS
        elif ne_or:
            if sw_live:
                yield m2, (wSE, bSW), bNW, _MINUS_S
                yield m2, (bSW, wNW), bSE, _S
        elif sw_live and ne_live:
            yield m3, (bNE, wSE, bSW), bNW, _ONE
            yield m3, (bSW, wNW, bNE), bSE, _MINUS


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
    _accumulate(_rectangle_readings(params, table, [True] * params.r))
    return table


def full_ainf(params: SingularityParams, live=None) -> AinfTable:
    """Hidden and visible operations, accumulated into one table.

    With live, a collection of slot indices, only the entries whose
    degree-1 slots wbar_i all have i in live are built; None keeps every
    slot, the whole table.  Every entry of one key reads the same slots, so
    the kept keys, outputs and coefficients are those of the whole table,
    in its order: the table that remains once insert_cochain drops the
    entries of the slots outside live."""
    r = params.r
    flags = [True] * r if live is None else [i in live for i in range(r)]
    table = AinfTable()
    _accumulate(_hidden_entries(params, table, flags))
    _accumulate(_rectangle_readings(params, table, flags))
    return table
