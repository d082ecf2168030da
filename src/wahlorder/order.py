"""The matrix order of a Q-Gorenstein smoothing of 1/n^2(1, nq-1).

build_order assembles the n x n matrix of a general element sum a_k w_k over
Z[t]; the nine reference displays for n = 2..5 are golden tests for the cell
formulas.  structure_constants turns the matrices into an r = n^2 dimensional
algebra over Z[t] whose t = 0 fiber is R_{n^2, nq-1} on the nose, whose
fibers at t != 0 are full matrix algebras, and whose t = infinity fiber is
again R_{n^2, nq-1} after the index flip k -> -k.

The constants are solved exactly in Z[t] (solve_in_basis): the sparse
monomial coefficient matrix peels into a triangular system, back-substitution
divides exactly by t^e, a nonzero remainder below t^e proves non-closure, and
exact recombination of every cell certifies the result.

Two conventions are frozen here after exhaustive fit against the reference
matrices (see order_entry and structure_constants).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .resarith import SingularityParams, WahlParams, bracket
from .polyring import (Poly, T, S, tsub, solve_in_span_many, is_polynomial,
                       _to_uni, _from_uni, _uadd, _umul)
from .kkalg import AlgebraTable, kk_table
from .deform import CochainSpec

_NEG_INF = float('-inf')


def order_entry(n: int, q: int, i: int, j: int):
    """Cell (i, j), 1-indexed, of the general-element matrix: a sorted list of
    (sign, t-exponent, coefficient index).

    Empty-range convention: a maximum over an empty index range is -infinity,
    so the comparison it guards holds vacuously.  The two sums of the i < j
    case enumerate the same monomial family t^rho a_{j-i+rho n} for
    rho = 0..n-1; a monomial contributed by both is counted once.  Frozen by
    fitting the reference n = 2..5 matrices: empty-max = +infinity loses the
    t^2 a_8 term of cell (1,3) at (n,q) = (3,1), while empty-max = -infinity
    without deduplication doubles t a_4 in cell (1,2).
    """
    m2 = n * n
    nq = n * q

    def B(x):
        return x % m2

    terms = []
    if i == j:
        terms.append((1, 0, 0))
        for rho in range(1, n):
            if rho * n > B(i * nq):
                terms.append((-1, rho, B(rho * n)))
    elif i > j:
        mx = max(B(k * nq) + k for k in range(j, i))
        for rho in range(1, n + 1):
            if rho * n > B(i * nq) and B(i * nq) + i > rho * n - m2 + mx:
                terms.append((-1, rho, B(j - i + rho * n)))
    else:
        mn = min(B(k * nq) + k for k in range(i + 1, j + 1))
        mx1 = max((B(k * nq) + k for k in range(1, i)), default=_NEG_INF)
        mx2 = max(B(k * nq) + k for k in range(j, n + 1))
        lhs = B(i * nq) + i
        for rho in range(0, n):
            first = rho * n <= B(i * nq) and lhs < rho * n + mn
            rr = rho + 1
            second = (rr * n > B(i * nq) and lhs > rr * n - m2 + mx1
                      and lhs > (rr - 1) * n - m2 + mx2)
            if first or second:
                terms.append((1, rho, B(j - i + rho * n)))
    return sorted(terms, key=lambda t3: (-t3[1], t3[2]))


@dataclass
class OrderTable:
    """General-element matrix and (cached) structure constants."""

    n: int
    q: int
    cells: list  # cells[i][j] = [(sign, exp, k), ...], 0-indexed

    _constants: dict = field(default=None, repr=False)
    solver: str = field(default=None, repr=False)  # 'triangular' | 'bareiss'

    @property
    def r(self) -> int:
        return self.n * self.n

    @property
    def params(self) -> SingularityParams:
        return WahlParams(self.n, self.q).params

    def basis_matrix(self, k: int):
        """M(w_k): the n x n matrix of Poly in t multiplying a_k."""
        n = self.n
        out = [[Poly.zero() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for (sign, exp, kk) in self.cells[i][j]:
                    if kk == k:
                        out[i][j] = out[i][j] + Poly.var(T, exp, sign)
        return out


def build_order(n: int, q: int) -> OrderTable:
    WahlParams(n, q)  # validate
    cells = [[order_entry(n, q, i + 1, j + 1) for j in range(n)] for i in range(n)]
    seen = set()
    for i in range(n):
        for j in range(n):
            for (sign, exp, k) in cells[i][j]:
                if not (0 <= exp <= n and 0 <= k < n * n):
                    raise ValueError(f'({n},{q}) cell ({i+1},{j+1}): term '
                                     f't^{exp} a_{k} out of range')
                if (i, j, exp, k) in seen:
                    raise ValueError(f'({n},{q}) cell ({i+1},{j+1}): term '
                                     f't^{exp} a_{k} repeated')
                seen.add((i, j, exp, k))
    return OrderTable(n, q, cells)


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

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


def structure_constants(order: OrderTable) -> dict:
    """c[(j, i)] = {k: Poly in t} with w_j * w_i = sum_k c^k w_k.

    Basis reconciliation, frozen by fitting the special fiber and the
    deformed tables: the algebra basis element w_k corresponds to the matrix
    N_k = M(w_{[-a k]}), and matrix multiplication realizes the opposite
    composition (the matrices act on a right module), so the coordinates of
    w_j * w_i are solved from N_i . N_j.  With the untwisted reading
    (c from M(w_j) M(w_i)) the t = 0 fiber comes out as R_{r,b}, the opposite
    algebra, and no diagonal sign change repairs it (its w_1^2 is nonzero
    when a = 2, b = 5, r = 9; R_{9,2} has w_1^2 = 0).

    The coordinates come from solve_in_basis: back-substitution in Z[t]
    along monomial pivots, with Bareiss elimination as the fallback.  The
    path taken is recorded in order.solver.
    """
    if order._constants is not None:
        return order._constants
    n, r = order.n, order.r
    a = order.params.a
    basis = [order.basis_matrix(bracket(-a * k, r)) for k in range(r)]
    targets = {(j, i): _matmul(basis[i], basis[j], n)
               for j in range(r) for i in range(r)}
    order._constants, order.solver = solve_in_basis(basis, targets)
    return order._constants


def solve_in_basis(basis, targets):
    """Coordinates in Z[t] of each target matrix over the basis matrices.

    targets maps a label to a matrix; returns ({label: {k: Poly}}, path),
    each coordinate dict in ascending k, path 'triangular' or 'bareiss'.

    The cells x basis coefficient matrix of a matrix order is a sparse set of
    monomials +-t^e.  Peeling repeatedly picks a cell with exactly one
    unsolved unknown whose coefficient there is +-t^e; when every unknown is
    picked this way the system is triangular with monomial pivots and each
    target is solved by back-substitution: acc = b[cell] - (known terms),
    x_k = +-acc / t^e.  The solution over Q(t) is unique, so a nonzero
    coefficient of acc below t^e proves the target is not in the Z[t]-span
    and raises ArithmeticError.  Every cell is then certified by exact
    recombination in Z[t].  If peeling stalls, solve_in_span_many (Bareiss)
    solves the system instead.
    """
    ucells = [[_to_uni(cell) for row in M for cell in row] for M in basis]
    rows = [{k: ub[c] for k, ub in enumerate(ucells) if ub[c]}
            for c in range(len(ucells[0]))]
    steps = _peel(rows, len(basis))
    if steps is None:
        return _solve_bareiss(basis, targets), 'bareiss'
    consts = {}
    for label, P in targets.items():
        b = [_to_uni(cell) for row in P for cell in row]
        x = [[] for _ in basis]
        for c, k, e, sign, known in steps:
            acc = b[c]
            for kk, neg in known:
                if x[kk]:
                    acc = _uadd(acc, _umul(neg, x[kk]))
            if any(acc[:e]):
                raise ArithmeticError(
                    f'product {label}: coordinate {k} is not in Z[t] '
                    f'(nonzero remainder below t^{e})')
            x[k] = [sign * v for v in acc[e:]]
        for c, row in enumerate(rows):
            acc = []
            for k, coeff in row.items():
                if x[k]:
                    acc = _uadd(acc, _umul(coeff, x[k]))
            if acc != b[c]:
                raise ArithmeticError(
                    f'product {label}: exact recombination fails in cell {c}')
        consts[label] = {k: _from_uni(xk) for k, xk in enumerate(x) if xk}
    return consts, 'triangular'


def _peel(rows, nunknowns):
    """Solve order [(cell, k, e, sign, known)]: unknown k is pivoted in cell
    with coefficient sign * t^e, and known lists (k', -coefficient) of the
    cell's unknowns solved before it.  None when no cell has a single
    unsolved unknown with a monomial coefficient."""
    pending = [set(row) for row in rows]
    steps = []
    while len(steps) < nunknowns:
        step = next(((c, k) for c, ks in enumerate(pending) if len(ks) == 1
                     for k in ks
                     if rows[c][k][-1] in (1, -1) and not any(rows[c][k][:-1])),
                    None)
        if step is None:
            return None
        c, k = step
        known = [(kk, [-v for v in coeff]) for kk, coeff in rows[c].items()
                 if kk != k]
        steps.append((c, k, len(rows[c][k]) - 1, rows[c][k][-1], known))
        for ks in pending:
            ks.discard(k)
    return steps


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


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------

def constants_table(order: OrderTable) -> AlgebraTable:
    consts = structure_constants(order)
    return AlgebraTable(order.r, {p: dict(cell) for p, cell in consts.items()})


def fiber_at(order: OrderTable, tau) -> AlgebraTable:
    """Evaluate the structure constants at t = tau (exact rational)."""
    consts = structure_constants(order)
    products = {}
    for (j, i), cell in consts.items():
        newcell = {}
        for k, poly in cell.items():
            v = poly.eval_at({T: tau})
            if v:
                newcell[k] = int(v) if v.denominator == 1 else v
        if newcell:
            products[(j, i)] = newcell
    return AlgebraTable(order.r, products)


def certify_full_matrix_fiber(order: OrderTable, tau) -> bool:
    """True iff the evaluated basis matrices span Mat_n at t = tau, witnessed
    by a nonzero determinant of the r x r coefficient matrix."""
    n, r = order.n, order.r
    a = order.params.a
    rows = []
    for k in range(r):
        M = order.basis_matrix(bracket(-a * k, r))
        rows.append([M[x][y].eval_at({T: tau}) for x in range(n) for y in range(n)])
    return _det_fraction(rows) != 0


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


def diagonal_sign_match(t1: AlgebraTable, t2: AlgebraTable):
    """Signs eps (eps_0 = 1) with t1 = t2.rescale(eps), or None.

    Requires equal sparsity patterns with entrywise c1 = +-c2; the sign
    constraints eps_j eps_i eps_k = sgn form a GF(2) linear system.
    """
    if t1.dim != t2.dim:
        return None
    if set(t1.products) != set(t2.products):
        return None
    rows, rhs = [], []
    for key, cell1 in t1.products.items():
        cell2 = t2.products[key]
        if set(cell1) != set(cell2):
            return None
        for k, c1 in cell1.items():
            c2 = cell2[k]
            if c1 == c2:
                bit = 0
            elif c1 == -c2:
                bit = 1
            else:
                return None
            vec = 0
            for idx in (key[0], key[1], k):
                if idx:
                    vec ^= 1 << idx
            rows.append(vec)
            rhs.append(bit)
    sol = _gf2_solve(rows, rhs, t1.dim)
    if sol is None:
        return None
    signs = [1 if not x else -1 for x in sol]
    if t1 != t2.rescale(signs):
        raise ArithmeticError('diagonal signs solve the sign system but do '
                              'not rescale one table into the other')
    return signs


def _gf2_solve(rows, rhs, nvars):
    pivots = {}
    for vec, bit in zip(rows, rhs):
        while vec:
            col = vec.bit_length() - 1
            if col not in pivots:
                pivots[col] = (vec, bit)
                break
            vec ^= pivots[col][0]
            bit ^= pivots[col][1]
        else:
            if bit:
                return None
    sol = [0] * nvars
    # each pivot row has its pivot at the highest set bit, so the remaining
    # bits involve lower-indexed variables: solve in increasing column order
    for col in sorted(pivots):
        vec, bit = pivots[col]
        acc = bit
        rest = vec & ~(1 << col)
        while rest:
            c = rest.bit_length() - 1
            acc ^= sol[c]
            rest &= ~(1 << c)
        sol[col] = acc
    return sol


@dataclass
class FiberZeroReport:
    matches: bool
    signs: list | None


def fiber_zero_report(order: OrderTable) -> FiberZeroReport:
    """Compare the t = 0 fiber against R_{n^2, nq-1} up to diagonal signs."""
    fiber = fiber_at(order, 0)
    target = kk_table(order.params)
    if fiber == target:
        return FiberZeroReport(True, [1] * order.r)
    signs = diagonal_sign_match(fiber, target)
    return FiberZeroReport(signs is not None, signs)


@dataclass
class InfinityReport:
    degree_bounds_ok: bool
    violations: list
    table: AlgebraTable | None
    matches_negated: bool
    signs: list | None


def infinity_fiber(order: OrderTable) -> InfinityReport:
    """Rescale w~_i = w_i / t^n (i != 0) and take the t' = 1/t -> 0 limit.

    The rescaled constants lie in Z[t'] iff deg c^k <= n for k != 0 and
    deg c^0 <= 2n (for non-unit factors); the limit picks the top
    coefficients.  The limit table must be R_{n^2, nq-1} under k -> -k,
    up to diagonal signs (the rescale by t^n instead of s = -t^n costs a
    uniform sign on non-unit outputs).
    """
    n, r = order.n, order.r
    consts = structure_constants(order)
    violations = []
    products = {}
    for (j, i), cell in consts.items():
        if j == 0 or i == 0:
            products[(j, i)] = {(i if j == 0 else j): 1}
            continue
        newcell = {}
        for k, poly in cell.items():
            bound = 2 * n if k == 0 else n
            d = poly.degree_in(T)
            if d > bound:
                violations.append((j, i, k, d))
                continue
            lead = poly.coefficient_of(T, bound)
            if not lead.is_zero():
                newcell[k] = lead.terms.get((), 0)
        newcell = {k: v for k, v in newcell.items() if v}
        if newcell:
            products[(j, i)] = newcell
    if violations:
        return InfinityReport(False, violations, None, False, None)
    limit = AlgebraTable(r, products)
    neg = [(-k) % r for k in range(r)]
    target = kk_table(order.params).relabel(neg)
    if limit == target:
        return InfinityReport(True, [], limit, True, [1] * r)
    signs = diagonal_sign_match(limit, target)
    return InfinityReport(True, [], limit, signs is not None, signs)


# ---------------------------------------------------------------------------
# the Q-Gorenstein cochain and the cross-check
# ---------------------------------------------------------------------------

def wahl_cochain(n: int, q: int) -> CochainSpec:
    """The one-parameter bounding cochain of the Q-Gorenstein smoothing:
    t_{kn} = t^k for k = 1..n-1, all other t_i = 0, and s = -t^n.

    The sign of s is forced: with s = +t^n the differential matrix entry
    pairing t_{n} with itself (for n = 2, the entry t_1 t_3 + t_2^2 + s)
    evaluates to 2 t^n instead of 0, so the locus would miss the flat
    stratum.  Equivalently, the r = 4 1-parameter family s = -t_2^2 is the
    Q-Gorenstein component, and all cross-checks against the matrix order
    confirm s = -t^n for every (n, q) tested.
    """
    WahlParams(n, q)
    r = n * n
    assignments = {}
    for k in range(1, n):
        assignments[tsub(k * n)] = Poly.var(T, k)
    assignments[S] = Poly.var(T, n, -1)
    return CochainSpec(r, assignments)


@dataclass
class CrossCheckReport:
    matched: bool
    identical: bool
    signs: list | None
    first_mismatch: tuple | None


def cross_check(n: int, q: int) -> CrossCheckReport:
    """Compare the order's structure constants with the deformed
    multiplication table under wahl_cochain.  Empirically they agree on the
    nose; diagonal sign changes are searched as a fallback."""
    from .deform import deformed_table
    from .kkalg import poly_table
    order = build_order(n, q)
    params = order.params
    right = deformed_table(params, wahl_cochain(n, q))
    left_poly = poly_table(constants_table(order))
    if left_poly == right:
        return CrossCheckReport(True, True, [1] * order.r, None)
    signs = diagonal_sign_match(left_poly, right)
    if signs is not None:
        return CrossCheckReport(True, False, signs, None)
    for key in sorted(set(left_poly.products) | set(right.products)):
        if left_poly.product(*key) != right.product(*key):
            return CrossCheckReport(False, False, None,
                                    (key, left_poly.product(*key), right.product(*key)))
    return CrossCheckReport(False, False, None, None)


# ---------------------------------------------------------------------------
# display
# ---------------------------------------------------------------------------

def format_cell(terms) -> str:
    """Render one cell the way the displays print it: descending t-powers,
    e.g. '-t^2 a_6 - t a_3 + a_0'."""
    if not terms:
        return '0'
    parts = []
    for (sign, exp, k) in sorted(terms, key=lambda t3: (-t3[1], t3[2])):
        if exp == 0:
            body = f'a_{k}'
        elif exp == 1:
            body = f't a_{k}'
        else:
            body = f't^{exp} a_{k}'
        if not parts:
            parts.append(body if sign > 0 else f'-{body}')
        else:
            parts.append(f'+ {body}' if sign > 0 else f'- {body}')
    return ' '.join(parts)


def format_order_matrix(order: OrderTable) -> str:
    cells = [[format_cell(order.cells[i][j]) for j in range(order.n)]
             for i in range(order.n)]
    widths = [max(len(cells[i][j]) for i in range(order.n)) for j in range(order.n)]
    lines = []
    for i in range(order.n):
        row = '  '.join(cells[i][j].rjust(widths[j]) for j in range(order.n))
        lines.append(f'[ {row} ]')
    return '\n'.join(lines)
