"""The matrix order of a Q-Gorenstein smoothing of 1/n^2(1, nq-1).

build_order assembles the n x n matrix of a general element sum a_k w_k over
Z[t]; the nine reference displays for n = 2..5 are golden tests for the cell
formulas.  structure_constants turns the matrices into an r = n^2 dimensional
algebra over Z[t] whose t = 0 fiber is R_{n^2, nq-1} on the nose, whose
fibers at t != 0 are full matrix algebras, and whose t = infinity fiber is
again R_{n^2, nq-1} after the index flip k -> -k.

Every entry of a basis matrix is a signed monomial +-t^e, and the layer keeps
that form: a basis matrix is a list [(row, col, sign, e)], a Z[t] value in
the solver is its nonzero terms {e: c}, and Poly appears only in the
finished constants.  structure_constants peels the r x r coefficient matrix
once per order into a triangular pivot plan with pivots +-t^e, then sums
each product N_i . N_j straight into a residual over the cells row * n + col
and back-substitutes it along the plan, dividing exactly by t^e: a term
below t^e proves non-closure, and a residual that ends all zero certifies
the result.  The pivots also give the determinant +-t^(sum e), which
certifies the fibers at every t != 0 as Mat_n.

Two conventions are frozen here after exhaustive fit against the reference
matrices (see order_entry and structure_constants).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .resarith import WahlParams
from .polyring import Poly, T, S, tsub, acoef, format_poly
from .kkalg import AlgebraTable, kk_table

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


class OrderTable:
    """General-element matrix and (cached) structure constants."""

    def __init__(self, n: int, q: int, cells: list):
        self.n, self.q = n, q
        self.params = WahlParams(n, q).params
        self.cells = cells  # cells[i][j] = [(sign, exp, k), ...], 0-indexed
        # the cached constants, and sum e: the basis coefficient matrix has
        # determinant +-t^(sum e), exponent kept
        self._constants = self._det = None

    @property
    def r(self) -> int:
        return self.n * self.n

    def monomial_basis(self) -> list:
        """M(w_k) for every k as [(row, col, sign, e)], 0-indexed and row by
        row: the coefficient of a_k in cell (row, col) is sign * t^e."""
        out = [[] for _ in range(self.r)]
        for i, row in enumerate(self.cells):
            for j, cell in enumerate(row):
                for sign, exp, k in cell:
                    out[k].append((i, j, sign, exp))
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
                # one term per coefficient keeps every basis entry a monomial
                if (i, j, k) in seen:
                    raise ValueError(f'({n},{q}) cell ({i+1},{j+1}): '
                                     f'coefficient a_{k} repeated')
                seen.add((i, j, k))
    return OrderTable(n, q, cells)


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

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

    One pass per product: _PivotPlan peels the basis once, then each
    N_i . N_j is summed by _product straight into the residual that _solve
    peels, so no product is kept or copied.  The plan's pivots also give
    the exponent of the determinant +-t^(sum e), kept for
    certify_full_matrix_fiber.
    """
    if order._constants is not None:
        return order._constants
    n, r, a = order.n, order.r, order.params.a
    mats = order.monomial_basis()
    basis = [mats[-a * k % r] for k in range(r)]
    plan = _PivotPlan(basis, n)
    # N_i's entries with the row premultiplied into the cell key, and N_j's
    # entries by row
    left = [[(row * n, m, s, e) for row, m, s, e in entries]
            for entries in basis]
    right = []
    for entries in basis:
        rows = [[] for _ in range(n)]
        for row, col, s, e in entries:
            rows[row].append((col, s, e))
        right.append(rows)
    position = plan.position
    consts = {}
    for j in range(r):
        for i in range(r):
            residual, heap = _product(left[i], right[j], position)
            consts[(j, i)] = _solve(plan, (j, i), residual, heap)
    order._constants, order._det = consts, plan.det
    return consts


def _product(left, right_rows, position):
    """left . right as a residual {cell: {e: c}} and the peel positions of
    its cells, unordered.  left is [(row * n, m, sign, e)], right_rows[m]
    lists the entries (col, sign, e) of right's row m, and a cell is the
    integer row * n + col.  A cell whose terms cancel stays, empty."""
    residual, heap = {}, []
    for rn, m, s1, e1 in left:
        for col, s2, e2 in right_rows[m]:
            c = rn + col
            acc = residual.get(c)
            if acc is None:
                residual[c] = {e1 + e2: s1 * s2}
                p = position[c]
                if p >= 0:
                    heap.append(p)
            else:
                d = e1 + e2
                v = acc.get(d, 0) + s1 * s2
                if v:
                    acc[d] = v
                else:
                    del acc[d]
    return residual, heap


class _PivotPlan:
    """The peel of an n x n basis made ready for _solve, the cell (row, col)
    keyed as the integer row * n + col; basis[k] lists N_k's entries
    (row, col, sign, e), at most one per cell.

    Each pivot takes the least cell where exactly one unknown k is not
    pivoted yet, with coefficient sign * t^e.  Ordered this way the
    coefficient matrix is triangular, so its determinant is +-t^(sum e),
    the product of the pivots up to the signs of the two reorderings; det
    keeps only sum e.  ArithmeticError when the peel stalls: no cell has a
    single unpivoted unknown.

    steps[p] is (cell, k, sign, e, entries) for the p-th pivot, entries
    listing N_k's other entries as (cell, q, sign, shift), q the peel
    position of that cell if it is pivoted (always later than p), else -1.
    position maps each of the n * n cells to its peel position or -1.
    monomials holds each single-term coordinate +-t^e as one shared Poly,
    made at its first use.
    """

    __slots__ = ('steps', 'position', 'n', 'det', 'monomials')

    def __init__(self, basis, n: int):
        keyed = [[(row * n + col, sign, e) for row, col, sign, e in entries]
                 for entries in basis]
        unpivoted = {}  # cell -> {k: (sign, e)} over the unknowns left
        for k, entries in enumerate(keyed):
            for c, sign, e in entries:
                unpivoted.setdefault(c, {})[k] = (sign, e)
        unpivoted = dict(sorted(unpivoted.items()))
        self.position = position = [-1] * (n * n)
        pivots = []
        while len(pivots) < len(basis):
            cell = next((c for c, ks in unpivoted.items() if len(ks) == 1),
                        None)
            if cell is None:
                raise ArithmeticError(
                    f'the basis does not peel into a triangular system: no '
                    f'cell has a single unsolved unknown after {len(pivots)} '
                    f'of {len(basis)} pivots')
            ((k, (sign, e)),) = unpivoted[cell].items()
            position[cell] = len(pivots)
            pivots.append((cell, k, sign, e))
            for c, _, _ in keyed[k]:
                del unpivoted[c][k]
        self.steps = [(cell, k, sign, e, [(c, position[c], s, shift)
                                          for c, s, shift in keyed[k]
                                          if c != cell])
                      for cell, k, sign, e in pivots]
        self.n, self.det, self.monomials = n, sum(p[3] for p in pivots), {}


def _solve(plan, label, residual, heap):
    """The coordinates {k: Poly} of one target, in ascending k; residual
    and heap (the peel positions of its cells, in any order) are consumed.

    Along the peel order each unknown k has the pivot +-t^e in a cell where
    every other unknown was pivoted before it, so k occurs only in its own
    pivot cell and in cells pivoted later.  The earliest pivot position
    whose residual cell is nonzero is taken next: that cell divided exactly
    by +-t^e is x_k, and x_k N_k is subtracted from the residual in place,
    which empties the pivot cell for good and drops each term that reaches
    0.  The solution over Q(t) is unique, so a term below t^e proves the
    target is not in the Z[t]-span and raises ArithmeticError.  The
    residual must end all zero, which is target = sum x_k N_k exactly in
    Z[t]: the certificate of the result.
    """
    steps, monomials = plan.steps, plan.monomials
    heapify(heap)
    coords = {}
    while heap:
        p = heappop(heap)
        cell, k, sign, e, entries = steps[p]
        acc = residual.pop(cell, None)
        if not acc:
            continue  # solved already, or cancelled since it was pushed
        if min(acc) < e:
            raise ArithmeticError(
                f'product {label}: coordinate {k} is not in Z[t] '
                f'(nonzero remainder below t^{e})')
        x = {d - e: sign * v for d, v in acc.items()}
        if len(x) == 1:
            (key,) = x.items()
            poly = monomials.get(key)
            if poly is None:
                d, v = key
                poly = monomials[key] = Poly.from_nonzero(
                    {(((T, d),) if d else ()): v})
            coords[k] = poly
        else:
            coords[k] = Poly.from_nonzero(
                {(((T, d),) if d else ()): v for d, v in sorted(x.items())})
        for c, q, s, shift in entries:
            acc = residual.get(c)
            if acc is None:
                acc = residual[c] = {}
            for d, v in x.items():
                d += shift
                v = acc.get(d, 0) - s * v
                if v:
                    acc[d] = v
                else:
                    del acc[d]
            if q >= 0 and acc:
                heappush(heap, q)
    bad = next((c for c, v in residual.items() if v), None)
    if bad is not None:
        raise ArithmeticError(f'product {label}: exact recombination fails '
                              f'in cell {divmod(bad, plan.n)}')
    return {k: coords[k] for k in sorted(coords)}


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------

def constants_table(order: OrderTable) -> AlgebraTable:
    return AlgebraTable(order.r, structure_constants(order))


def fiber_at(order: OrderTable, tau) -> AlgebraTable:
    """Evaluate the structure constants at t = tau (exact rational): ints
    at an int tau, else as Poly.eval_at forms them."""
    point = {T: tau}
    return AlgebraTable(order.r, {
        key: {k: poly.eval_at(point) for k, poly in cell.items()}
        for key, cell in structure_constants(order).items()})


def certify_full_matrix_fiber(order: OrderTable, tau) -> bool:
    """True iff the basis matrices evaluated at t = tau span Mat_n.

    The peel behind structure_constants makes the r x r coefficient matrix
    triangular with pivots +-t^e, so its determinant is exactly +-t^(sum e).
    That is nonzero at every tau != 0: a True result at any tau != 0 proves
    the fiber is Mat_n at every tau != 0.  At tau = 0 it holds iff sum e = 0.
    """
    structure_constants(order)
    return tau != 0 or order._det == 0


def diagonal_sign_match(t1: AlgebraTable, t2: AlgebraTable):
    """Signs eps (eps_0 = 1) with t1 = t2.rescale(eps), or None.

    The sparsity patterns must be equal with entrywise c1 = +-c2; the sign
    constraints eps_j eps_i eps_k = sgn form a GF(2) linear system.  Only
    infinity_fiber needs the search: every other certificate compares on the
    nose.
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


class FiberZeroReport:
    def __init__(self, matches: bool, table: AlgebraTable):
        self.matches, self.table = matches, table


def fiber_zero_report(order: OrderTable) -> FiberZeroReport:
    """The t = 0 fiber is R_{n^2, nq-1} on the nose: equal structure
    constants, with no change of basis.  The report keeps the fiber table."""
    table = fiber_at(order, 0)
    return FiberZeroReport(table == kk_table(order.params), table)


class InfinityReport:
    def __init__(self, violations: list, table: AlgebraTable | None,
                 signs: list | None):
        self.violations, self.table, self.signs = violations, table, signs

    @property
    def degree_bounds_ok(self) -> bool:
        return not self.violations

    @property
    def matches_negated(self) -> bool:
        return self.signs is not None


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
        products[(j, i)] = newcell = {}
        for k, poly in cell.items():
            bound = 2 * n if k == 0 else n
            d = poly.degree_in(T)
            if d > bound:
                violations.append((j, i, k, d))
                continue
            newcell[k] = poly.terms.get(((T, bound),), 0)
    if violations:
        return InfinityReport(violations, None, None)
    limit = AlgebraTable(r, products)
    neg = [(-k) % r for k in range(r)]
    target = kk_table(order.params).relabel(neg)
    return InfinityReport([], limit, diagonal_sign_match(limit, target))


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
    from .deform import CochainSpec
    assignments = {}
    for k in range(1, n):
        assignments[tsub(k * n)] = Poly.var(T, k)
    assignments[S] = Poly.var(T, n, -1)
    return CochainSpec(WahlParams(n, q).params.r, assignments)


class CrossCheckReport:
    def __init__(self, first_mismatch: tuple | None):
        self.first_mismatch = first_mismatch

    @property
    def matched(self) -> bool:
        return self.first_mismatch is None

    identical = matched  # the benchmark reads both names


def cross_check(n: int, q: int) -> CrossCheckReport:
    """Compare the order's structure constants with the deformed
    multiplication table under wahl_cochain, on the nose.  On a mismatch,
    first_mismatch is (least differing key, order cell, deformed cell).
    matched and identical always agree: both name the one comparison."""
    from .deform import deformed_table
    order = build_order(n, q)
    left = constants_table(order)
    right = deformed_table(order.params, wahl_cochain(n, q))
    if left == right:
        return CrossCheckReport(None)
    key = min(k for k in left.products.keys() | right.products.keys()
              if left.product(*k) != right.product(*k))
    return CrossCheckReport((key, left.product(*key), right.product(*key)))


# ---------------------------------------------------------------------------
# display
# ---------------------------------------------------------------------------

def format_cell(terms) -> str:
    """Render one cell the way the displays print it: the Poly
    sum sign * t^exp * a_k, e.g. '-t^2 a_6 - t a_3 + a_0'."""
    return format_poly(sum((Poly.var(T, exp, sign) * Poly.var(acoef(k))
                            for sign, exp, k in terms), Poly()))


def format_order_matrix(order: OrderTable) -> str:
    cells = [[format_cell(order.cells[i][j]) for j in range(order.n)]
             for i in range(order.n)]
    widths = [max(len(cells[i][j]) for i in range(order.n)) for j in range(order.n)]
    lines = []
    for i in range(order.n):
        row = '  '.join(cells[i][j].rjust(widths[j]) for j in range(order.n))
        lines.append(f'[ {row} ]')
    return '\n'.join(lines)
