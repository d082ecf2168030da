"""An independent exact solver for the order tests: Bareiss over Z[t].

order.structure_constants back-substitutes along signed-monomial pivots
and relies on the peel; this module eliminates fraction-free over Z[t] and
assumes no structure at all, so the tests compare the two.  solve_in_span expresses a
matrix of univariate polynomials in t as a linear combination of basis
matrices; coordinates come back as normalized rational functions in t
(RationalCoord).  poly_matrix, _matmul and _solve_bareiss rebuild the
structure constants from Poly matrices, and _det_fraction is the Fraction
determinant that checks the exact Mat_n certificate at sampled points.
"""

from fractions import Fraction
from math import gcd as _gcd

from wahlorder.polyring import Poly, T, format_poly


# ---------------------------------------------------------------------------
# univariate Z[t] toolkit (dense int lists, low degree first)
# ---------------------------------------------------------------------------

def _to_uni(p: Poly) -> list:
    """Poly in the single variable t -> dense coefficient list."""
    coeffs = {}
    for m, c in p.terms.items():
        if not m:
            coeffs[0] = c
        elif len(m) == 1 and m[0][0] == T:
            coeffs[m[0][1]] = c
        else:
            raise ValueError("polynomial is not univariate in t")
    if not coeffs:
        return []
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return out


def _from_uni(c: list) -> Poly:
    """Dense coefficient list in t, low degree first -> Poly."""
    return Poly.from_nonzero({(() if e == 0 else ((T, e),)): v
                              for e, v in enumerate(c) if v})


def _utrim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _uadd(p: list, q: list) -> list:
    if len(p) < len(q):
        p, q = q, p
    out = p[:]
    for i, v in enumerate(q):
        out[i] += v
    return _utrim(out)


def _umul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return out


def _uscale(c: int, p: list) -> list:
    return [] if c == 0 else [c * v for v in p]


def _udivexact(p: list, q: list) -> list:
    """Exact division in Z[t]; raises ArithmeticError when not exact."""
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p:
        return []
    rem = p[:]
    out = [0] * (len(p) - len(q) + 1)
    for k in range(len(p) - len(q), -1, -1):
        head = rem[k + len(q) - 1]
        if head % q[-1] != 0:
            raise ArithmeticError("inexact division in Z[t]")
        f = head // q[-1]
        out[k] = f
        if f:
            for j, b in enumerate(q):
                rem[k + j] -= f * b
    if any(rem):
        raise ArithmeticError("inexact division in Z[t]")
    return _utrim(out)


def _udivides(q: list, p: list):
    """Quotient p/q in Z[t], or None if there is none.  Integer long division
    succeeds exactly when the quotient over Q lies in Z[t]."""
    try:
        return _udivexact(p, q)
    except ArithmeticError:
        return None


def _ucontent(p: list) -> int:
    g = 0
    for v in p:
        g = _gcd(g, v)
    return g


def _uprimitive(p: list) -> list:
    g = _ucontent(p)
    if g in (0, 1):
        return p[:]
    return [v // g for v in p]


def _uprem(a: list, b: list) -> list:
    """Pseudo-remainder: lead(b)^k * a reduced modulo b, staying in Z[t]."""
    a = _utrim(a[:])
    db = len(b)
    lb = b[-1]
    while a and len(a) >= db:
        top = a[-1]
        a = _uscale(lb, a)
        shift = len(a) - db
        for j, v in enumerate(b):
            a[shift + j] -= top * v
        _utrim(a)
    return a


def _ugcd(p: list, q: list) -> list:
    """Primitive gcd in Z[t] via a primitive pseudo-remainder sequence."""
    a, b = _uprimitive(_utrim(p[:])), _uprimitive(_utrim(q[:]))
    if not a:
        a, b = b, a
    while b:
        a, b = b, _uprimitive(_uprem(a, b))
    if a and a[-1] < 0:
        a = _uscale(-1, a)
    return a if a else []


class RationalCoord:
    """num/den in Z[t], gcd-reduced with positive leading denominator."""

    __slots__ = ('num', 'den')

    def __init__(self, num: list, den: list, reduce: bool = True):
        num, den = _utrim(num[:]), _utrim(den[:])
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if reduce and num:
            g = _ugcd(num, den)
            if len(g) > 1 or (g and g[0] != 1):
                exact_n = _udivides(g, num)
                exact_d = _udivides(g, den)
                if exact_n is not None and exact_d is not None:
                    num, den = exact_n, exact_d
            cg = _gcd(_ucontent(num), _ucontent(den))
            if cg > 1:
                num = [v // cg for v in num]
                den = [v // cg for v in den]
        if den and den[-1] < 0:
            num, den = _uscale(-1, num), _uscale(-1, den)
        self.num, self.den = num, den

    def is_polynomial(self) -> bool:
        return _udivides(self.den, self.num) is not None

    def as_poly(self) -> Poly:
        q = _udivides(self.den, self.num)
        if q is None:
            raise ArithmeticError("coordinate is not polynomial")
        return _from_uni(q)

    def __eq__(self, other):
        return (isinstance(other, RationalCoord)
                and self.num == other.num and self.den == other.den)

    def __repr__(self):
        if self.den == [1]:
            return format_poly(_from_uni(self.num))
        return f'({format_poly(_from_uni(self.num))})/({format_poly(_from_uni(self.den))})'


class DeficientBasisError(ValueError):
    """The basis matrices are linearly dependent over the rational functions."""


class OutOfSpanError(ValueError):
    """The target matrix lies outside the span of the basis."""


def _bareiss_forward(rows, ncols, nextra):
    """Fraction-free row echelon of [A | extras]; rows = list of dense lists
    of coefficient lists.  Returns (rows, pivot_positions).

    Pivot choice within a column: the entry minimizing (degree, #terms),
    keeping intermediate polynomial growth down on monomial-heavy systems.
    """
    nrows = len(rows)
    total = ncols + nextra
    piv_positions = []
    prev = [1]
    rank = 0
    for col in range(ncols):
        best = None
        for i in range(rank, nrows):
            e = rows[i][col]
            if e:
                score = (len(e), sum(1 for v in e if v))
                if best is None or score < best[0]:
                    best = (score, i)
        if best is None:
            continue
        i = best[1]
        if i != rank:
            rows[rank], rows[i] = rows[i], rows[rank]
        p = rows[rank][col]
        for i in range(rank + 1, nrows):
            m = rows[i][col]
            row = rows[i]
            if m:
                for j in range(col, total):
                    row[j] = _udivexact(
                        _uadd(_umul(p, row[j]), _uscale(-1, _umul(m, rows[rank][j]))),
                        prev)
            else:
                for j in range(col, total):
                    if row[j]:
                        row[j] = _udivexact(_umul(p, row[j]), prev)
        piv_positions.append((rank, col))
        prev = p
        rank += 1
    return rows, piv_positions


def solve_in_span_many(targets, basis):
    """Express each target matrix in the Z[t]-span of the basis matrices.

    targets: list of matrices of Poly (univariate in t); basis: list of such
    matrices, all of one shape.  Returns a list of coordinate lists (one
    RationalCoord per basis element per target).  The elimination runs once
    over [A | t_1 ... t_m].
    """
    if not basis:
        raise DeficientBasisError("empty basis")
    shape = (len(basis[0]), len(basis[0][0]))
    cells = [(i, j) for i in range(shape[0]) for j in range(shape[1])]
    ncols = len(basis)
    nextra = len(targets)
    rows = []
    for (i, j) in cells:
        row = [_to_uni(b[i][j]) for b in basis]
        row += [_to_uni(tg[i][j]) for tg in targets]
        rows.append(row)
    rows, pivots = _bareiss_forward(rows, ncols, nextra)
    if len(pivots) < ncols:
        raise DeficientBasisError(
            f"basis has rank {len(pivots)} < {ncols} over the rational functions")
    rank = len(pivots)
    for i in range(rank, len(rows)):
        for e in range(nextra):
            if rows[i][ncols + e]:
                raise OutOfSpanError(f"target {e} is outside the basis span")
    results = []
    for e in range(nextra):
        col = ncols + e
        coords: list = [None] * ncols
        for (ri, ci) in reversed(pivots):
            num, den = rows[ri][col], [1]
            for (rj, cj) in pivots:
                if cj > ci:
                    c = coords[cj]
                    u = rows[ri][cj]
                    if u and c.num:
                        num = _uadd(_umul(num, c.den), _uscale(-1, _umul(u, c.num)))
                        den = _umul(den, c.den)
            piv = rows[ri][ci]
            coords[ci] = RationalCoord(num, _umul(den, piv))
        results.append(coords)
    return results


def solve_in_span(target, basis):
    """Coordinates of one target matrix in the span of the basis matrices."""
    return solve_in_span_many([target], basis)[0]


def is_polynomial(coords):
    """(all polynomial?, cleared Poly forms with None for failures)."""
    cleared = []
    ok = True
    for c in coords:
        if c.is_polynomial():
            cleared.append(c.as_poly())
        else:
            ok = False
            cleared.append(None)
    return ok, cleared


# ---------------------------------------------------------------------------
# the order layer over Poly matrices
# ---------------------------------------------------------------------------

def poly_matrix(entries, n):
    """A signed-monomial matrix [(row, col, sign, e)] as an n x n Poly matrix."""
    out = [[Poly.zero() for _ in range(n)] for _ in range(n)]
    for i, j, sign, e in entries:
        out[i][j] = out[i][j] + Poly.var(T, e, sign)
    return out


def _matmul(A, B, n):
    out = [[Poly.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            a = A[i][k]
            if a.is_zero():
                continue
            for j in range(n):
                b = B[k][j]
                if not b.is_zero():
                    out[i][j] = out[i][j] + a * b
    return out


def _solve_bareiss(basis, targets):
    labels = list(targets)
    coords_all = solve_in_span_many([targets[p] for p in labels], basis)
    consts = {}
    for p, coords in zip(labels, coords_all):
        ok, cleared = is_polynomial(coords)
        if not ok:
            bad = [k for k, c in enumerate(cleared) if c is None]
            raise ArithmeticError(
                f"product {p}: non-polynomial coordinates at {bad}")
        consts[p] = {k: c for k, c in enumerate(cleared) if not c.is_zero()}
    return consts


def _det_fraction(rows) -> Fraction:
    m = len(rows)
    mat = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(m):
        piv = None
        for row in range(col, m):
            if mat[row][col]:
                piv = row
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for row in range(col + 1, m):
            f = mat[row][col] * inv
            if f:
                for cc in range(col, m):
                    mat[row][cc] -= f * mat[col][cc]
    return det
