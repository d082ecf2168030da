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
is read, keeping the rest in the whole table's order.

Only m_1 readings share keys (the two m_1 readings of a rectangle with SW
and NE orange have one-code keys), so only they are summed, by _accumulate.
Each m_2 and m_3 reading is stored where it is read, cells[key] = {out:
coeff}, as no two of them share a key; full_ainf counts the stores and
raises ArithmeticError unless m_2 and m_3 hold that many keys.  Proof:
write a key (a_k, ..., a_1) as the labels i of its codes, slot j holding
a_j, with its degree pattern, the degree bits in key order (10 for
(wbar_j, w_i)), and call the label 0 orange.

(W) The halves of the Gauss word, r-1, ..., 1 and [-b], ..., [-(r-1)b],
    each hold every nonzero label once: a word-pair key has nonzero labels,
    x != y when both occurrences lie in one half, and the labels fix the
    pair of occurrences once the family is known.
(R) A walked rectangle (c, X, Y) has 1 <= X, Y < r and labels SW = c,
    SE = c - bX, NW = c + Y, NE = c + Y - bX, so SW + NE = SE + NW.  SE and
    NW are never orange (the walk checks it), SW is orange iff c = 0, NE iff
    the rectangle is NE-orange, and the two ends of a side differ.  Three
    corner labels hold a horizontal pair, whose difference bX fixes X (b is
    invertible), and a vertical one, which fixes Y: they fix the rectangle,
    and the walk takes each rectangle once.
(C) If R' has R's labels turned by a half-turn (SW' = NE, NE' = SW,
    SE' = NW, NW' = SE; three of these give the fourth by (R)), then
    X' = r - X and Y' = r - Y, so R = [0,X] x [c,c+Y] and R' = [X,r] x
    [c+Y,c+r] fill an r x r square, and column X meets an orange point at
    a height in [c, c+r].  R's east edge and R''s west edge cover that
    segment, and the only point of it where either edge may be orange is
    NE = SW'.  So NE and SW' are orange, and, with R' moved to meet R at
    column 0, SW and NE' too.

By degree pattern, then (unit, pairing and triple families take i != 0
where the code says so):
- m_2 00: (w_i, w_0), (w_0, w_i) hold a label 0, the A readings at c = 0,
  (SE, NW), and the B readings at an orange NE, (NW, SE), hold none; an A
  and a B key are a half-turn pair with SW' not orange, against (C).
- m_2 10: (wbar_i, w_0) alone has slot 1 orange, (wbar_0, w_NW) at SW and
  NE orange alone slot 2; (wbar_i, w_i) repeats a label, (wbar_NE, w_SE) at
  c = 0 and (wbar_SW, w_NW) at an orange NE do not (R) and are a half-turn
  pair with NE not orange, against (C).  m_2 01 is its mirror.
- m_3 101: (wbar_i, w_i, wbar_i) repeats every label, (wbar_i, w_i, wbar_0)
  ends orange; the word pairs (wbar_x, w_x, wbar_y) and (wbar_y, w_x,
  wbar_x), x != y, repeat the first or the last two labels only; the
  readings (NE, SE, SW) and (SW, NW, NE) with SW and NE not orange have a
  middle label unlike either end (R) and are a half-turn pair, against
  (C).
- m_3 011: (w_i, wbar_i, wbar_0) ends orange, (w_x, wbar_x, wbar_y) does
  not; m_3 001 holds (w_y, w_x, wbar_x) alone.
- m_3 010: the word pairs (w_y, wbar_x, w_x) and (w_x, wbar_x, w_y),
  x != y, repeat the last or the first two labels only; the A readings
  (SE, SW, NW), SW not orange, and the B readings (NW, NE, SE), NE not
  orange, have a middle label unlike either end (R) and are a half-turn
  pair, against (C).
Within a family, the key fixes i, the pair of occurrences (W) or, with the
orange corners the family fixes, three corners of the rectangle (R).

Sign conventions for the visible readings are frozen by calibration against
exact oracles (the a=1 contribution lists, skew-symmetry of the differential
matrix for every (r,a), the reference component ideals of 1/15(1,4) and
1/19(1,7), and the one-parameter locus of wahl_cochain); see the comments at
the reading site for the alternatives that fail.
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


def _certified(table: AinfTable, stores: int) -> AinfTable:
    """table, once its m_2 and m_3 hold one key per store: a reading stored
    over another's key would leave fewer."""
    keys = len(table.m2) + len(table.m3)
    if keys != stores:
        raise ArithmeticError(f"{stores} m_2/m_3 readings stored under {keys} "
                              f"keys: two readings share a key")
    return table


# ---------------------------------------------------------------------------
# hidden part
# ---------------------------------------------------------------------------

def _store_hidden(params: SingularityParams, table: AinfTable, live: list) -> int:
    """Store the hidden entries into table: the units and the pairing, the
    per-crossing triples, and for each pair of occurrences p < q in the
    Gauss word, x at p and y at q, the two entries of the family picked by
    the halves of the word they lie in.  Only the entries whose degree-1
    slots i all have live[i] are stored.  Returns the number of stores."""
    m2, m3 = table.m2, table.m3
    stores = 0
    # units and the pairing with the degree-1 partners (w_0 and wbar_0 are
    # the codes 0 and 1), then the per-crossing triples
    for i in range(params.r):
        w, wbar = 2 * i, 2 * i + 1
        m2[w, 0] = {w: _ONE}
        if i:
            m2[0, w] = {w: _ONE}
        stores += 1 + (i != 0)
        if not live[i]:
            continue
        m2[wbar, 0] = {wbar: _ONE}
        m2[0, wbar] = {wbar: _MINUS}
        stores += 2
        if i:
            m2[wbar, w] = {1: _ONE}
            m2[w, wbar] = {1: _MINUS}
            m3[wbar, w, wbar] = {wbar: _MINUS}
            stores += 3
            if live[0]:
                m3[wbar, w, 1] = {1: _MINUS}
                m3[w, wbar, 1] = {1: _ONE}
                stores += 2
    word = gauss_word(params)
    half = len(word) // 2
    codes = [(2 * y, live[y]) for y in word]  # w_y and whether y is live
    for p, x in enumerate(word):
        if not live[x]:  # every entry of the pair reads wbar_x
            continue
        wx, bx = 2 * x, 2 * x + 1
        stores += len(word) - p - 1  # the entry without wbar_y, for each q
        if p >= half:  # both occurrences in the second half
            for wy, y_live in codes[p + 1:]:
                m3[wy, bx, wx] = {wy: _ONE}
                if y_live:
                    m3[bx, wx, wy + 1] = {wy + 1: _MINUS}
                    stores += 1
            continue
        for wy, y_live in codes[p + 1:half]:  # both in the first half
            if y_live:
                m3[wy + 1, wx, bx] = {wy + 1: _MINUS}
                stores += 1
            m3[wx, bx, wy] = {wy: _MINUS}
        for wy, y_live in codes[half:]:  # x in the first half, y in the second
            if y_live:
                m3[wx, bx, wy + 1] = {wy + 1: _ONE}
                stores += 1
            m3[wy, wx, bx] = {wy: _MINUS}
    return stores


# ---------------------------------------------------------------------------
# visible polygons
# ---------------------------------------------------------------------------

def _rectangle_runs(params: SingularityParams):
    """Yield (c, X, top, ne_Y), one run per column X of each SW label c that
    holds a permitted rectangle: the rectangles [0,X] x [c,c+Y] for
    1 <= Y < top, whose closed regions avoid orange points except at the SW
    corner (when c = 0), and, when ne_Y is not 0, the one of height
    ne_Y = top whose NE corner is orange too.

    A side of length r or more holds an orange point other than the SW and
    NE corners, so X, Y < r is exhaustive.
    """
    r, b = params.r, params.b
    for c in range(r):
        # top: the height above c of the first orange point in columns
        # 0..X, the SW corner exempt (r at c = 0)
        top = r - c
        for X in range(1, r):
            if top == 1:
                break
            tX = (b * X - c) % r  # column X's first orange point, 0 on the edge
            if tX >= top:
                yield c, X, top, 0
            elif tX:
                top = tX
                yield c, X, top, top
            else:  # orange on the bottom edge: no rectangle from here on
                break


def _store_rectangles(params: SingularityParams, t: AinfTable, live: list) -> int:
    """Store the readings of every permitted rectangle into t, with the sign
    conventions documented at visible_contributions, and accumulate its m_1
    readings.  A reading's slots sit at the SW and NE corners; one with a
    dead slot i (live[i] false) is dropped here, and only here: a
    rectangle is read only when c = 0, c is live, or its NE corner is live
    or orange.  Returns the number of m_2 and m_3 stores."""
    r, b = params.r, params.b
    m1, m2, m3 = t.m1, t.m2, t.m3
    stores = 0
    for c, X, top, ne_Y in _rectangle_runs(params):
        gSE = (c - b * X) % r
        # the corner check of every rectangle of the run, read or not: SE
        # is never orange; NW is first orange at height r - c and NE at
        # r - gSE, so no height below top reaches either, and ne_Y, if any,
        # is r - gSE, below r - c
        if (not gSE or top > min(r - c, r - gSE)
                or ne_Y not in (0, r - gSE) or ne_Y >= r - c):
            raise ArithmeticError(f"run {(c, X, top, ne_Y)}: misread orange corner")
        wSW, wSE = 2 * c, 2 * gSE
        bSW, bSE = wSW + 1, wSE + 1
        sw_live = live[c]
        for Y in range(1, top):
            gNE = (gSE + Y) % r
            ne_live = live[gNE]
            if c and not (sw_live or ne_live):
                continue  # every reading has a dead slot
            wNW, wNE = 2 * ((c + Y) % r), 2 * gNE
            bNW, bNE = wNW + 1, wNE + 1
            if not c:
                # A: output w at NE; D and E: input at SE, output wbar at
                # NW / input at NW, output wbar at SE
                m2[wSE, wNW] = {wNE: _ONE}
                stores += 1
                if ne_live:
                    m2[bNE, wSE] = {bNW: _ONE}
                    m2[wNW, bNE] = {bSE: _MINUS}
                    stores += 2
                continue
            if sw_live:  # A
                m3[wSE, bSW, wNW] = {wNE: _ONE}
                stores += 1
            if ne_live:  # B: output w at SW (only at a self-intersection)
                m3[wNW, bNE, wSE] = {wSW: _MINUS}
                stores += 1
                if sw_live:  # D, E
                    m3[bNE, wSE, bSW] = {bNW: _ONE}
                    m3[bSW, wNW, bNE] = {bSE: _MINUS}
                    stores += 2
        if not ne_Y:
            continue
        # the NE corner is orange: A outputs w_0 with a factor s
        wNW = 2 * ((c + ne_Y) % r)
        bNW = wNW + 1
        if not c:  # A, D, E
            m2[wSE, wNW] = {0: _S}
            stores += 1
            _accumulate(((m1, (wSE,), bNW, _MINUS_S), (m1, (wNW,), bSE, _S)))
            # Morse-maximum insertions at the smoothed corners
            if sw_live:
                m2[1, wNW] = {bSE: _S}
                m2[wSE, 1] = {bNW: _MINUS_S}
                stores += 2
            continue
        m2[wNW, wSE] = {wSW: _S}  # B
        stores += 1
        if sw_live:  # A, D, E
            m3[wSE, bSW, wNW] = {0: _S}
            m2[wSE, bSW] = {bNW: _MINUS_S}
            m2[bSW, wNW] = {bSE: _S}
            stores += 3
    return stores


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

    Only the m_1 readings are summed; each m_2 and m_3 reading is stored
    under its own key (see the module docstring), and the count of stores is
    checked against the keys.
    """
    table = AinfTable()
    return _certified(table, _store_rectangles(params, table, [True] * params.r))


def full_ainf(params: SingularityParams, live=None) -> AinfTable:
    """Hidden and visible operations in one table.

    Only the m_1 readings are summed; each m_2 and m_3 reading is stored as
    read, under a key no other reading has (see the module docstring), and
    ArithmeticError is raised unless m_2 and m_3 hold one key per store.

    With live, a collection of slot indices, only the entries whose
    degree-1 slots wbar_i all have i in live are built; None keeps every
    slot, the whole table.  Every entry of one key reads the same slots, so
    the kept keys, outputs and coefficients are those of the whole table,
    in its order: the table that remains once insert_cochain drops the
    entries of the slots outside live.  The walk still checks every
    rectangle's orange corners, but reads only those with SW label 0, a live
    SW or NE slot, or an orange NE corner; the others have no reading with
    live slots."""
    r = params.r
    flags = [True] * r if live is None else [i in live for i in range(r)]
    table = AinfTable()
    stores = _store_hidden(params, table, flags)
    return _certified(table, stores + _store_rectangles(params, table, flags))
