"""The r-dimensional algebras R_{r,a} and their combinatorial companions.

R_{r,a} has basis w_0..w_{r-1} with w_0 the unit and

    w_j * w_i = w_{j+i}   if m(j) > [i],   else 0,

where m is the gap function of resarith; kk_table builds R_{r,a} by it.
YoungDiagram reads the same products off the lattice, its column heights
from gamma, not from the gap table; verify compares the two as one table.
kk_product_closed and kk_product_rect (the gap rule, and a lattice
rectangle with no orange point but the origin, one product at a time)
have no caller in the package; the benchmark reads them.
"""

from __future__ import annotations

from .polyring import Poly, _add_terms
from .resarith import SingularityParams, gamma, m_of


class AlgebraTable:
    """Structure constants of a unital algebra on basis w_0..w_{dim-1}.

    products maps (j, i) to {k: coeff}; coefficients are ints, Fractions or
    Poly.  Zero coefficients and empty cells are dropped on construction, so
    zero products are simply absent.
    """

    def __init__(self, dim: int, products=None):
        self.dim = dim
        self.products = {}
        if products:
            for (j, i), cell in products.items():
                cell = {k: c for k, c in cell.items() if c}
                if cell:
                    self.products[(j, i)] = cell

    def product(self, j: int, i: int) -> dict:
        return self.products.get((j, i), {})

    def is_unital(self) -> bool:
        """w_0 w_x = w_x w_0 = w_x for every x, the coefficient 1 read as
        an int, a Fraction or a constant Poly."""
        for x in range(self.dim):
            for cell in (self.product(0, x), self.product(x, 0)):
                if len(cell) != 1 or cell.get(x) not in _ONES:
                    return False
        return True

    def generating_rows(self) -> list:
        """The ascending rows G that associator_violation reads.

        Indices are taken in ascending order: one not yet reached joins G
        and is reached, and then, until nothing changes, a product w_x w_y
        of two reached indices whose cell has exactly one nonzero output k
        not yet reached reaches k.  A counter per cell of its factors and
        outputs not yet reached finds every such k, whatever the order in
        which reached indices are visited.  If a product of two basis
        indices has a nonzero output outside range(dim), the span of the
        basis is not closed and G is every index.
        """
        d = self.dim
        span = range(d)
        watchers = [[] for _ in span]
        for (j, i), cell in self.products.items():
            if j not in span or i not in span:
                continue
            members = {j, i}
            for k, c in cell.items():
                if c:
                    if k not in span:
                        return list(span)
                    members.add(k)
            clause = [len(members), members, (j, i)]
            for u in members:
                watchers[u].append(clause)
        reached = [False] * d
        rows = []
        for g in span:
            if reached[g]:
                continue
            rows.append(g)
            reached[g] = True
            stack = [g]
            while stack:
                # a clause counts its members not yet taken off the stack;
                # at 1, the one member not reached, if it is an output, is
                # reached
                for clause in watchers[stack.pop()]:
                    clause[0] -= 1
                    if clause[0] == 1:
                        k = next((k for k in clause[1] if not reached[k]), None)
                        if k is not None and k not in clause[2]:
                            reached[k] = True
                            stack.append(k)
        return rows

    def associator_violation(self):
        """First triple (k, j, i) with (w_k w_j) w_i != w_k (w_j w_i), or None.

        Triples are ordered lexicographically with k, j, i in range(dim),
        and the answer is that of the triple-by-triple definition, although
        only the rows k in generating_rows() are read:

        - The left nucleus N = {x : (x, y, z) = 0 for all y, z} is a
          subspace closed under products, by the Teichmueller identity
          (wx, y, z) - (w, xy, z) + (w, x, yz) = w(x, y, z) + (w, x, y)z,
          which holds in any bilinear algebra (Schafer, An Introduction to
          Nonassociative Algebras, ch. II).  A reached k has c w_k =
          w_x w_y minus the other terms of that cell, c != 0 in the field
          of fractions of the coefficients (ints, Fractions or Poly over
          Z), whose outputs are reached.  So if every w_g with g in G lies in N, so does every
          reached w_k, and the table is associative.
        - If some row fails, the least failing row k is in G, so no rerun
          is needed to name the least triple.  Were k not in G, it would
          have been reached from the last member g of G taken before it,
          and k > g, as g was the least index not reached when it was
          taken; so w_k would be derived from the members of G up to g,
          all below k and so passing, and would lie in N.  The first
          failing row in G is the least failing row, and the row loop
          completes it to the least failing triple.

        The stored products are indexed once by row, m -> [(i, cell)] for
        the i in range(dim); m itself may lie outside range(dim), as an
        output index of a cell may.  For each k in G and each j, both sides
        are then formed for every i at once: (w_k w_j) w_i sums
        c * row_m over the entries m: c of the cell (k, j), and w_k (w_j w_i)
        pushes each cell (j, i) of row_j through the products (k, m).  Only
        products that can make a side nonzero are read.  Both sides are
        summed by polyring._add_terms, which drops a coefficient that sums
        to 0, so they are compared with zero coefficients dropped.

        Poly coefficients are first replaced by exact integer codes
        (_integer_coded), so the loop only ever multiplies ints or Fractions;
        a table without a Poly is read as it is.
        """
        span = range(self.dim)
        products = _integer_coded(self.products)
        get = products.get
        rows = {}
        for (m, i), cell in products.items():
            if i in span:
                rows.setdefault(m, []).append((i, cell))
        for k in self.generating_rows():
            for j in span:
                left, right = {}, {}
                for m, c in get((k, j), {}).items():
                    for i, cell in rows.get(m, ()):
                        _add_terms(left.setdefault(i, {}), cell, c)
                for i, cell in rows.get(j, ()):
                    for m, c in cell.items():
                        km = get((k, m))
                        if km:
                            _add_terms(right.setdefault(i, {}), km, c)
                if left == right:
                    continue
                # a cell that cancels is left empty, not dropped
                bad = [i for i in left.keys() | right.keys()
                       if left.get(i, {}) != right.get(i, {})]
                if bad:
                    return (k, j, min(bad))
        return None

    def opposite(self) -> 'AlgebraTable':
        return AlgebraTable(self.dim,
                            {(i, j): cell for (j, i), cell in self.products.items()})

    def relabel(self, sigma) -> 'AlgebraTable':
        """Push forward along w_k -> w_{sigma(k)} (sigma a bijection list)."""
        out = {}
        for (j, i), cell in self.products.items():
            out[(sigma[j], sigma[i])] = {sigma[k]: c for k, c in cell.items()}
        return AlgebraTable(self.dim, out)

    def rescale(self, signs) -> 'AlgebraTable':
        """Diagonal basis change w_k -> signs[k] * w_k with signs in {+1,-1}."""
        out = {}
        for (j, i), cell in self.products.items():
            s = signs[j] * signs[i]
            out[(j, i)] = {k: c if s == signs[k] else -c
                           for k, c in cell.items()}
        return AlgebraTable(self.dim, out)

    def __eq__(self, other):
        return (isinstance(other, AlgebraTable) and self.dim == other.dim
                and self.products == other.products)

    def nontrivial_products(self):
        """Products with both factors non-unit, sorted."""
        return sorted(((j, i), cell) for (j, i), cell in self.products.items()
                      if j != 0 and i != 0)


_ONES = (1, Poly.const(1))  # Fraction(1) == 1


def _integer_coded(products: dict) -> dict:
    """products with each Poly coefficient replaced by its Kronecker code.

    One scan finds deg_v, the largest exponent of each variable v in any
    coefficient; L, the largest l1-norm sum |c| of any coefficient (an int
    counts as a constant); and w, the largest cell length.  The monomial
    prod v^e_v goes to the bit offset sum e_v * B * prod_{u<v} (2 deg_u + 1)
    with B = (2 w L^2).bit_length() + 1, and a coefficient sum c * monomial
    to the int sum c * 2^offset.  That is the substitution v -> 2^(B *
    prod_{u<v} (2 deg_u + 1)), a ring homomorphism Z[v..] -> Z, so the code
    of a side entry is the side entry of the codes.

    The coding is exact on everything associator_violation compares.  An
    entry of either side is a sum of at most w products of two
    coefficients, so left - right is a sum of at most 2w such products:
    each exponent of v in it is at most 2 deg_v, and each of its monomial
    coefficients is at most 2 w L^2 < 2^B in absolute value.  The exponents
    are then mixed-radix digits below their radices 2 deg_v + 1, so
    distinct monomials of left - right get distinct multiples of B as
    offsets.  If left - right is nonzero, let a be its coefficient at the
    lowest offset o: its code is 2^o (a + 2^B x) for some int x, which is
    nonzero because 0 < |a| < 2^B.  Hence the code of left - right is 0 iff
    left - right is 0 (and likewise each side against 0, with the bound
    w L^2), and the first failing (k, j, i) is the one the Poly table gives.
    Each distinct coefficient is encoded once.  A table without a Poly is
    returned as it is; in a table with one, the other coefficients are ints.
    """
    seen = {}
    degs = {}
    w = norm = 0
    for cell in products.values():
        w = max(w, len(cell))
        for c in cell.values():
            if not isinstance(c, Poly):
                norm = max(norm, abs(c))
            elif c not in seen:
                seen[c] = None
                norm = max(norm, sum(map(abs, c.terms.values())))
                for m in c.terms:
                    for v, e in m:
                        if e > degs.get(v, 0):
                            degs[v] = e
    if not seen:
        return products
    stride = {}
    step = (2 * w * norm * norm).bit_length() + 1
    for v, e in degs.items():
        stride[v] = step
        step *= 2 * e + 1
    for c in seen:
        seen[c] = sum(a << sum(e * stride[v] for v, e in m)
                      for m, a in c.terms.items())
    return {key: {k: seen[c] if isinstance(c, Poly) else c
                  for k, c in cell.items()}
            for key, cell in products.items()}


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def kk_product_closed(params: SingularityParams, j: int, i: int):
    """w_j * w_i by the gap-function rule; returns the output index or None."""
    r = params.r
    j, i = j % r, i % r
    return (j + i) % r if m_of(j, params) > i else None


def kk_product_rect(params: SingularityParams, j: int, i: int):
    """w_j * w_i by the rectangle oracle: the closed box [0,[-aj]] x [0,[i]]
    must contain no orange point except the origin."""
    r, b = params.r, params.b
    j, i = j % r, i % r
    X = -params.a * j % r
    Y = i
    for u in range(0, X + 1):
        v = b * u % r  # lowest orange height >= 0 in column u
        if v <= Y and (u, v) != (0, 0):
            return None
    return (j + i) % r


def kk_table(params: SingularityParams) -> AlgebraTable:
    """R_{r,a} by the gap rule, row by row.

    m(j) is read once per row j off params.gaps, and w_j w_i = w_{j+i} is
    stored for i < m(j) (m(0) = r; every other m(j) is below r).  Keys come
    out in the order (j, i) ascending, the order in which kk_product_closed
    over all pairs would give them.
    """
    r = params.r
    products = {}
    for j in range(r):
        for i in range(m_of(j, params)):
            products[(j, i)] = {(j + i) % r: 1}
    return AlgebraTable(r, products)


def poly_table(table: AlgebraTable) -> AlgebraTable:
    """The same table with integer coefficients promoted to Poly constants."""
    return AlgebraTable(table.dim, {
        key: {k: (Poly.const(c) if isinstance(c, int) else c)
              for k, c in cell.items()}
        for key, cell in table.products.items()})


def dual_relabel(params: SingularityParams) -> list:
    """sigma with sigma(k) = [-b k]; R_{r,a} = relabel(opposite(R_{r,b}), sigma).

    Plain opposite alone does not identify R_{r,a} with R_{r,b}: the mirror
    swapping the two lattices reflects across the diagonal, which twists box
    labels by k -> [-a k].  (Counterexample to the untwisted statement:
    R_{9,5} has w_1^2 = w_2 while R_{9,2} has w_1^2 = 0.)
    """
    r, b = params.r, params.b
    return [-b * k % r for k in range(r)]


# ---------------------------------------------------------------------------
# combinatorial companions
# ---------------------------------------------------------------------------

class YoungDiagram:
    """Maximal Young diagram with no orange point strictly inside.

    Box (x, y) (unit cell with SW corner (x, y)) is present iff no orange
    point (u, v) has 1 <= u <= x and 1 <= v <= y; the domain is clipped to
    [0, r-1]^2, where the labels gamma(x, y) exhaust Z_r.  Figures sometimes
    trim boxes whose closed boundary touches an orange point; that stricter
    rule disagrees with the product rule (e.g. it would erase the box
    certifying w_4^2 = w_8 at (r, a) = (9, 2)), so the interior rule is
    normative here.

    Column heights are computed once from gamma, never from params.gaps:
    the lowest orange point of column u >= 1 with v >= 1 is at height
    -gamma((u, 0)) mod r, and column x is as high as the least of these
    over u = 1..x (column 0 is r high).  Box (x, y), labelled gamma((x, y)),
    certifies w_{gamma(x,0)} w_y = w_{gamma(x,y)}.
    """

    def __init__(self, params: SingularityParams):
        self.params = params
        r = params.r
        self._heights = heights = [r]
        for u in range(1, r):
            heights.append(min(heights[-1], -gamma((u, 0), params) % r))

    def boxes(self):
        for x, height in enumerate(self._heights):
            for y in range(height):
                yield (x, y, gamma((x, y), self.params))

    def product(self, j: int, i: int):
        """Product rule: the box rectangle spanned by the factors, from the
        bottom-row box labelled j (column [-a j]) to the left-column box
        labelled i (row i), must lie inside the diagram."""
        r = self.params.r
        j, i = j % r, i % r
        return (j + i) % r if i < self._heights[-self.params.a * j % r] else None


def young_diagram(params: SingularityParams) -> YoungDiagram:
    return YoungDiagram(params)


def gauss_word(params: SingularityParams) -> list:
    """Self-intersection labels along the curve, each appearing twice:
    r-1, r-2, ..., 1, [-b], [-2b], ..., [-(r-1)b]."""
    r, b = params.r, params.b
    return list(range(r - 1, 0, -1)) + [-k * b % r for k in range(1, r)]


def self_intersection_count(params: SingularityParams) -> int:
    return params.r - 1
