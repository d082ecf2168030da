import inspect
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import wahlorder

from wahlorder.resarith import SingularityParams, gamma, is_orange
from wahlorder.polyring import Poly, S, T, tsub
from wahlorder.kkalg import (kk_product_closed, kk_product_rect, kk_table,
                             dual_relabel, young_diagram, gauss_word,
                             self_intersection_count, AlgebraTable, poly_table,
                             _integer_coded)
from wahlorder.deform import CochainSpec, _spec_ops, deformed_table
from wahlorder.order import build_order, fiber_at, structure_constants, wahl_cochain
from wahlorder.verify import CheckFailed, _kk_pair_check


def naive_rect_product(params, j, i):
    """Fully independent oracle: scan every lattice point of the closed box."""
    r = params.r
    j, i = j % r, i % r
    X = -params.a * j % r
    for u in range(0, X + 1):
        for v in range(0, i + 1):
            if (u, v) != (0, 0) and is_orange((u, v), params):
                return None
    return (j + i) % r


def dense_associator_violation(table):
    """Reference for associator_violation: the definition, one triple at a
    time, both sides summed term by term with zero coefficients dropped."""
    def acc(side, l, c):
        side[l] = c if l not in side else side[l] + c

    d = table.dim
    for k in range(d):
        for j in range(d):
            for i in range(d):
                left, right = {}, {}
                for m, c in table.product(k, j).items():
                    for l, c2 in table.product(m, i).items():
                        acc(left, l, c * c2)
                for m, c in table.product(j, i).items():
                    for l, c2 in table.product(k, m).items():
                        acc(right, l, c * c2)
                if ({l: c for l, c in left.items() if c}
                        != {l: c for l, c in right.items() if c}):
                    return (k, j, i)
    return None


def coprime_params(max_r):
    return [SingularityParams(r, a) for r in range(2, max_r + 1)
            for a in range(1, r) if gcd(r, a) == 1]


def test_closed_product_examples():
    p92 = SingularityParams(9, 2)
    assert kk_product_closed(p92, 4, 1) == 5
    assert kk_product_closed(p92, 0, 7) == 7
    assert kk_product_closed(p92, 1, 1) is None
    p76 = SingularityParams(7, 6)
    assert kk_product_closed(p76, 3, 2) == 5
    assert kk_product_closed(p76, 3, 4) is None


def test_rect_product_examples():
    p92 = SingularityParams(9, 2)
    assert kk_product_rect(p92, 4, 2) == 6
    p51 = SingularityParams(5, 1)
    for j in range(1, 5):
        for i in range(1, 5):
            assert kk_product_rect(p51, j, i) is None


def test_full_table_5_2_against_naive_oracle():
    p = SingularityParams(5, 2)
    for j in range(5):
        for i in range(5):
            want = naive_rect_product(p, j, i)
            assert kk_product_closed(p, j, i) == want
            assert kk_product_rect(p, j, i) == want


def test_table_9_2():
    table = kk_table(SingularityParams(9, 2))
    assert dict(table.nontrivial_products()) == {
        (4, 1): {5: 1}, (4, 2): {6: 1}, (4, 3): {7: 1}, (4, 4): {8: 1}}
    assert table.is_unital()
    assert table.associator_violation() is None


def test_table_families():
    # truncated polynomials at a = r-1
    t = kk_table(SingularityParams(6, 5))
    for j in range(6):
        for i in range(6):
            want = {j + i: 1} if j + i < 6 else {}
            assert t.product(j, i) == want
    # square-zero radical at a = 1, and the r = 2 case
    assert not kk_table(SingularityParams(4, 1)).nontrivial_products()
    assert kk_table(SingularityParams(2, 1)).product(1, 1) == {}


def test_opposite_involution_and_duality():
    for (r, a) in ((9, 2), (16, 3), (11, 4)):
        p = SingularityParams(r, a)
        t = kk_table(p)
        assert t.opposite().opposite() == t
        dual = SingularityParams(r, p.b)
        assert kk_table(dual).opposite().relabel(dual_relabel(p)) == t
    # commutative case: opposite is the identity
    t76 = kk_table(SingularityParams(7, 6))
    assert t76.opposite() == t76


def test_relabel_rescale_roundtrip():
    t = kk_table(SingularityParams(9, 2))
    sigma = [(2 * k) % 9 for k in range(9)]  # unit multiplier: a bijection
    inv = [0] * 9
    for k, v in enumerate(sigma):
        inv[v] = k
    assert t.relabel(sigma).relabel(inv) == t
    signs = [1, -1, 1, -1, 1, -1, 1, -1, 1]
    assert t.rescale(signs).rescale(signs) == t


def test_kk_table_shares_one_cell_per_label():
    p = SingularityParams(9, 2)
    t = kk_table(p)
    # w_0 w_5 and w_4 w_1 both give w_5, from the one cell
    assert t.products[(0, 5)] is t.products[(4, 1)]
    assert len({id(cell) for cell in t.products.values()}) == p.r
    # the derived tables build cells of their own: the shared cells are
    # left as they were
    t.opposite()
    t.relabel([(2 * k) % 9 for k in range(9)])
    t.rescale([1, -1, 1, -1, 1, -1, 1, -1, 1])
    assert t == kk_table(p)
    assert all(cell == {(j + i) % 9: 1} for (j, i), cell in t.products.items())


def test_construction_drops_zeros_and_shares_clean_cells():
    # the fiber at t = 0 of the (3, 1) order: zero coefficients dropped
    consts = structure_constants(build_order(3, 1))
    values = [c.eval_at({T: 0}) for cell in consts.values() for c in cell.values()]
    assert (len(values), values.count(0)) == (62, 41)
    fiber = fiber_at(build_order(3, 1), 0)
    assert all(all(cell.values()) for cell in fiber.products.values())
    assert sum(map(len, fiber.products.values())) == 62 - 41
    # a deformed table: the empty cells of the insertion are dropped, the
    # others kept in order, and by identity
    params, spec = SingularityParams(9, 2), wahl_cochain(3, 1)
    cells = _spec_ops(params, spec).products
    assert (len(cells), sum(not cell for cell in cells.values())) == (81, 28)
    table = deformed_table(params, spec)
    assert list(table.products) == [key for key, cell in cells.items() if cell]
    # a clean cell is shared, not copied; the outer dict is new
    t = kk_table(SingularityParams(9, 2))
    copy = AlgebraTable(t.dim, t.products)
    assert copy.products is not t.products
    assert all(copy.products[key] is cell for key, cell in t.products.items())
    copy.products[(4, 1)] = {6: 1}
    del copy.products[(4, 2)]
    assert t.products[(4, 1)] == {5: 1} and (4, 2) in t.products
    assert t == kk_table(SingularityParams(9, 2)) != copy
    # a cell holding a zero is filtered into a new cell
    dirty = {(0, 0): {0: 1, 1: 0}, (1, 1): {0: 0}}
    assert AlgebraTable(2, dirty).products == {(0, 0): {0: 1}}
    assert dirty == {(0, 0): {0: 1, 1: 0}, (1, 1): {0: 0}}


def test_young_diagram_9_2():
    p = SingularityParams(9, 2)
    d = young_diagram(p)
    boxes = {(x, y): label for x, y, label in d.boxes()}
    # bottom row of the figure: labels 0,4,8,3,7,2,6,1 at x = 0..7
    for x, lbl in enumerate([0, 4, 8, 3, 7, 2, 6, 1]):
        assert boxes[(x, 0)] == lbl
    # left column rows 0..4 carry their own index, and (1,5) blocks row 5 off
    # the column x = 1 onward
    for y in range(5):
        assert boxes[(0, y)] == y
    assert (1, 5) not in boxes
    # w_4 w_i products live in column 1
    assert (1, 4) in boxes and (2, 1) not in boxes
    # every box carries its gamma label
    assert all(lbl == gamma(xy, p) for xy, lbl in boxes.items())
    # the product rule agrees with the closed formula everywhere
    for j in range(9):
        for i in range(9):
            assert d.product(j, i) == kk_product_closed(p, j, i)


def test_young_diagram_families():
    # a = 1: the left column has full height, everything else is row 0
    d = young_diagram(SingularityParams(6, 1))
    assert _column_heights(d) == [6, 1, 1, 1, 1, 1]
    # a = r-1: staircase under the antidiagonal
    d = young_diagram(SingularityParams(7, 6))
    assert _column_heights(d) == [7, 6, 5, 4, 3, 2, 1]


def _column_heights(diagram):
    """The number of boxes in each column x of diagram, read off boxes()."""
    heights = [0] * diagram.params.r
    for x, _, _ in diagram.boxes():
        heights[x] += 1
    return heights


def _column_heights_by_definition(params):
    """Column x holds the boxes (x, y), 0 <= y < r, with no orange point
    (u, v), 1 <= u <= x and 1 <= v <= y."""
    r = params.r
    return [sum(all(not is_orange((u, v), params)
                    for u in range(1, x + 1) for v in range(1, y + 1))
                for y in range(r))
            for x in range(r)]


def test_young_diagram_rule_matches_closed_many():
    for r in range(2, 21):
        for a in range(1, r):
            if gcd(a, r) != 1:
                continue
            p = SingularityParams(r, a)
            d = young_diagram(p)
            for j in range(r):
                for i in range(r):
                    assert d.product(j, i) == kk_product_closed(p, j, i)
            assert _column_heights_by_definition(p) == list(p.gaps)
            assert _column_heights(d) == list(p.gaps)


def test_young_diagram_does_not_read_the_gap_table():
    # a poisoned gap table changes kk_table but not the lattice diagram, so
    # the verify clause that compares the two fails
    p = SingularityParams(9, 2)
    poisoned = list(p.gaps)
    poisoned[2] += 1
    p.__dict__['gaps'] = tuple(poisoned)
    d = young_diagram(p)
    assert _column_heights(d) == _column_heights_by_definition(p) != poisoned
    with pytest.raises(CheckFailed) as info:
        _kk_pair_check(p)
    assert str(info.value) == '(9,2): table/young disagree at (8,1)'


def test_gauss_word():
    assert gauss_word(SingularityParams(2, 1)) == [1, 1]
    assert gauss_word(SingularityParams(5, 1)) == [4, 3, 2, 1, 4, 3, 2, 1]
    # Wahl (n, q): the subword of indices divisible by n is
    # n(n-1), ..., 2n, n, n, 2n, ..., n(n-1)
    for (n, q) in ((2, 1), (3, 1), (3, 2), (4, 3)):
        r = n * n
        w = gauss_word(SingularityParams(r, n * q - 1))
        sub = [x for x in w if x % n == 0]
        want = [n * k for k in range(n - 1, 0, -1)] + [n * k for k in range(1, n)]
        assert sub == want


def test_self_intersection_count():
    assert self_intersection_count(SingularityParams(16, 3)) == 15
    assert self_intersection_count(SingularityParams(2, 1)) == 1
    assert self_intersection_count(SingularityParams(9, 2)) == 8


def test_algebra_table_associator_detects_failure():
    bad = AlgebraTable(3, {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
                           (1, 0): {1: 1}, (2, 0): {2: 1},
                           (1, 1): {2: 1}, (2, 1): {1: 1}})
    assert bad.associator_violation() is not None


def test_associator_matches_dense_reference_on_kk_tables():
    for p in coprime_params(16):
        table = kk_table(p)
        assert table.associator_violation() is None
        assert dense_associator_violation(table) is None


def test_associator_matches_dense_reference_on_mutants():
    rng = random.Random(20261018)
    pool = coprime_params(10)
    found = 0
    for _ in range(400):
        p = rng.choice(pool)
        table = kk_table(p)
        j, i = rng.randrange(p.r), rng.randrange(p.r)
        table.products[(j, i)] = {rng.randrange(p.r): rng.choice((1, -1, 2))}
        want = dense_associator_violation(table)
        assert table.associator_violation() == want, (p, j, i)
        found += want is not None
    assert found > 200  # most single-cell mutants break associativity
    # two failing i for the same (k, j): i = 5 and i = 10; the least is kept
    table = kk_table(SingularityParams(14, 5))
    table.products[(4, 10)] = {2: -1}
    table.products[(2, 5)] = {1: -1}
    assert dense_associator_violation(table) == (2, 2, 5)
    assert table.associator_violation() == (2, 2, 5)
    # a side whose cell cancels to empty against a side with no such cell
    cancelled = [(1, 1), (1, -1)]
    for left, right, want in ((cancelled, [], None), ([], cancelled, None),
                              (cancelled, [(2, 1)], (1, 2, 3))):
        table = _one_triple_table(left, right)
        assert dense_associator_violation(table) == want
        assert table.associator_violation() == want
    # a zero coefficient stored after construction reads as absent
    table = kk_table(SingularityParams(9, 2))
    table.products[(4, 1)] = {5: 1, 6: 0}
    assert dense_associator_violation(table) is None
    assert table.associator_violation() is None


def _first_component_table(r):
    # the (r, 1) first-component deformed table of verify's deform suite
    t1, tr = Poly.var(tsub(1)), Poly.var(tsub(r - 1))
    spec = CochainSpec(r, {tsub(1): t1, tsub(r - 1): tr, S: -(t1 * tr)})
    return deformed_table(SingularityParams(r, 1), spec)


def test_associator_matches_dense_reference_on_poly_tables():
    tables = [AlgebraTable(n * n, {key: dict(cell) for key, cell in
                                   structure_constants(build_order(n, q)).items()})
              for n, q in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 3))]
    tables += [_first_component_table(r) for r in range(3, 9)]
    for table in tables:
        assert table.associator_violation() is None
        assert dense_associator_violation(table) is None
    # Poly mutants, including cells that cancel against the original terms
    rng = random.Random(7)
    small = tables[:3] + tables[5:9] + [poly_table(kk_table(SingularityParams(9, 2)))]
    found = 0
    for n in range(120):
        table = rng.choice(small)
        mutant = AlgebraTable(table.dim, table.products)
        j, i = rng.randrange(table.dim), rng.randrange(table.dim)
        cell = dict(table.product(j, i))
        k = rng.randrange(table.dim)
        c = Poly.const(rng.choice((1, -1, 2)))
        if n % 2 and cell:
            k = rng.choice(sorted(cell))
            c = cell[k] * Poly.const(rng.choice((-1, 2)))
        mutant.products[(j, i)] = {**cell, k: c} if n % 2 else {k: c}
        want = dense_associator_violation(mutant)
        assert mutant.associator_violation() == want, (table.dim, j, i)
        found += want is not None
    assert found > 40


def _one_triple_table(left, right):
    """A table whose only nonzero associator sides are at (k, j, i) =
    (1, 2, 3), output w_0: (w_1 w_2) w_3 = sum c * c2 over the pairs
    (c, c2) of left, and w_1 (w_2 w_3) = sum c * c2 over right."""
    ms = range(4, 4 + len(left))
    ps = range(4 + len(left), 4 + len(left) + len(right))
    products = {(1, 2): {m: c for m, (c, _) in zip(ms, left)},
                (2, 3): {p: c for p, (c, _) in zip(ps, right)}}
    for m, (_, c2) in zip(ms, left):
        products[(m, 3)] = {0: c2}
    for p, (_, c2) in zip(ps, right):
        products[(1, p)] = {0: c2}
    return AlgebraTable(4 + len(left) + len(right), products)


def test_associator_coding_keeps_coefficients_apart():
    """Tables whose associator left - right is nonzero but would code to 0
    under a weaker coding than B = (2 w L^2).bit_length() + 1 bits per
    monomial and the radix 2 deg_v + 1.  Int coefficients are read as
    constants; the oracle sees them promoted to Poly."""
    t, s = Poly.var(T), Poly.var(S)
    cases = [
        # w = 5, L = 181: 4 * 181^2 + 28 = 2^17 is the code of t under
        # B = (2 L^2).bit_length() + 1 = 17, the bound without w
        _one_triple_table([(1, t)], [(181, 181)] * 4 + [(28, 1)]),
        # w = 1, L = 2^40: 8 * 2^40 = 2^43 is the code of t under
        # B = (2 w L).bit_length() + 1 = 43, L in place of L^2
        _one_triple_table([(1, t)], [(2 ** 40, 8)]),
        _one_triple_table([(1, -t)], [(-2 ** 40, 8)]),
        _one_triple_table([(Poly.const(-2 ** 40), Poly.const(8))], [(1, -t)]),
        # deg_s = deg_t = 1: s^2 and t share a code under the radix
        # deg + 1 = 2 whichever variable comes first
        _one_triple_table([(s, s)], [(1, t)]),
        _one_triple_table([(t, t)], [(1, s)]),
    ]
    for table in cases:
        assert dense_associator_violation(poly_table(table)) == (1, 2, 3)
        assert table.associator_violation() == (1, 2, 3)


def test_associator_on_mixed_int_and_poly_tables():
    t = Poly.var(T)
    # int coefficients multiply Poly ones: equal sides are read equal
    table = _one_triple_table([(2, t), (-1, t)], [(t, 1)])
    assert dense_associator_violation(poly_table(table)) is None
    assert table.associator_violation() is None
    table = _one_triple_table([(2, t)], [(t, 1)])
    assert dense_associator_violation(poly_table(table)) == (1, 2, 3)
    assert table.associator_violation() == (1, 2, 3)
    # order tables with their constant coefficients stored as ints, and
    # mutants of them with int and Poly coefficients
    rng = random.Random(11)
    tables = []
    for n, q in ((2, 1), (3, 1), (3, 2)):
        consts = structure_constants(build_order(n, q))
        tables.append(AlgebraTable(n * n, {
            key: {k: (c.terms.get((), 0) if set(c.terms) <= {()} else c)
                  for k, c in cell.items()}
            for key, cell in consts.items()}))
    for table in tables:
        assert any(isinstance(c, int) for cell in table.products.values()
                   for c in cell.values())
        assert table.associator_violation() is None
    found = 0
    for n in range(80):
        table = rng.choice(tables)
        mutant = AlgebraTable(table.dim, table.products)
        j, i = rng.randrange(table.dim), rng.randrange(table.dim)
        cell = dict(table.product(j, i))
        k = rng.randrange(table.dim)
        c = rng.choice((1, -1, 2, 2 ** 40, -t, t * t))
        mutant.products[(j, i)] = {**cell, k: c} if n % 2 else {k: c}
        want = dense_associator_violation(poly_table(mutant))
        assert mutant.associator_violation() == want, (table.dim, j, i)
        found += want is not None
    assert found > 30


def _promoted(table):
    """table with every coefficient a Poly (a constant one for an int or a
    Fraction), so that dense_associator_violation multiplies Polys only."""
    return AlgebraTable(table.dim, {
        key: {k: c if isinstance(c, Poly) else Poly({(): c})
              for k, c in cell.items()}
        for key, cell in table.products.items()})


def test_associator_clears_fraction_denominators():
    t = Poly.var(T)
    unit = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    cases = [
        # w_1^2 = 3/2 + t w_1: the Fraction's norm dominates
        (AlgebraTable(2, {**unit, (1, 1): {0: Fraction(3, 2), 1: t}}), None),
        # w = 2, L = 1 give B = 4 bits, and 1/16 times the code 2^4 of t
        # is the code of 1: t/16 + 1 != 1 + 1 must not read as equal
        (_one_triple_table([(Fraction(1, 16), t), (1, 1)], [(1, 1), (1, 1)]),
         (1, 2, 3)),
        (_one_triple_table([(Fraction(1, 16), t + t), (Fraction(-1, 3), 3)],
                           [(t, Fraction(1, 8)), (-1, 1)]), None),
        (_one_triple_table([(Fraction(1, 6), t * t)], [(Fraction(1, 4), t * t)]),
         (1, 2, 3)),
    ]
    for table, want in cases:
        assert dense_associator_violation(_promoted(table)) == want
        assert table.associator_violation() == want
    # mutants of an order table with a Fraction stored in one cell
    rng = random.Random(13)
    base = _order_table(3, 2)
    found = 0
    for n in range(60):
        mutant = AlgebraTable(base.dim, base.products)
        j, i = rng.randrange(base.dim), rng.randrange(base.dim)
        cell = dict(base.product(j, i))
        k = rng.randrange(base.dim)
        c = rng.choice((Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)))
        mutant.products[(j, i)] = {**cell, k: c} if n % 2 else {k: c}
        want = dense_associator_violation(_promoted(mutant))
        assert mutant.associator_violation() == want, (j, i, k, c)
        found += want is not None
    assert found > 20


def test_integer_coding_skips_a_table_without_a_poly():
    ints = kk_table(SingularityParams(9, 2))
    fractions = AlgebraTable(9, {key: {k: Fraction(c) for k, c in cell.items()}
                                 for key, cell in ints.products.items()})
    mixed = AlgebraTable(9, {**ints.products, (4, 4): {8: Fraction(1, 2)}})
    for table in (ints, fractions, mixed):
        assert _integer_coded(table.products) is table.products
    # the only Poly in the last cell: the table is still coded
    last, cell = list(ints.products.items())[-1]
    for c in (Poly.const(1), Poly.var(T)):
        table = AlgebraTable(9, {**ints.products, last: {k: c for k in cell}})
        coded = _integer_coded(table.products)
        assert all(type(c) is int for cell in coded.values() for c in cell.values())
        want = dense_associator_violation(poly_table(table))
        assert (want is None) == (c == Poly.const(1))
        assert table.associator_violation() == want


def test_associator_on_first_component_mutants():
    rng = random.Random(5)
    found = 0
    for r in range(3, 9):
        table = _first_component_table(r)
        coeffs = sorted({c for cell in table.products.values()
                         for c in cell.values()}, key=str)
        for n in range(12):
            mutant = AlgebraTable(table.dim, table.products)
            j, i = rng.randrange(r), rng.randrange(r)
            cell = dict(table.product(j, i))
            k = rng.randrange(r)
            c = rng.choice(coeffs) * rng.choice(coeffs + [Poly.const(-1)])
            mutant.products[(j, i)] = {**cell, k: c} if n % 2 else {k: c}
            want = dense_associator_violation(mutant)
            assert mutant.associator_violation() == want, (r, j, i)
            found += want is not None
    assert found > 30


def test_associator_does_no_poly_arithmetic(monkeypatch):
    tables = [AlgebraTable(16, {key: dict(cell) for key, cell in
                                structure_constants(build_order(4, 3)).items()}),
              _first_component_table(8)]

    def refuse(*args):
        raise AssertionError('Poly arithmetic in associator_violation')

    for name in ('__add__', '__sub__', '__neg__', '__mul__', '__pow__'):
        monkeypatch.setattr(Poly, name, refuse)
    for table in tables:
        assert table.associator_violation() is None


def test_associator_ignores_keys_outside_the_basis():
    unit = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    # (1, 2) is never read by a triple in range(2): the table is associative
    table = AlgebraTable(2, {**unit, (1, 2): {0: 1}})
    assert dense_associator_violation(table) is None
    assert table.associator_violation() is None
    # w_1 w_1 = w_2 lies outside the basis, and (w_0 w_1) w_1 = w_2 while
    # w_0 (w_1 w_1) = w_0 w_2 = 0, as the stored products read
    table = AlgebraTable(2, {**unit, (1, 1): {2: 1}, (2, 1): {0: 1}})
    assert dense_associator_violation(table) == (0, 1, 1)
    assert table.associator_violation() == (0, 1, 1)
    rng = random.Random(3)
    for _ in range(300):
        d = rng.randint(1, 4)
        idx = range(-1, d + 2)
        table = AlgebraTable(d, {
            (rng.choice(idx), rng.choice(idx)):
                {rng.choice(idx): rng.choice((1, -1, 2))
                 for _ in range(rng.randint(1, 2))}
            for _ in range(rng.randint(0, 12))})
        got = table.associator_violation()
        assert got == dense_associator_violation(table), table.products
        assert got is None or all(0 <= x < d for x in got)


def test_kk_table_is_the_pairwise_closed_reading():
    for p in coprime_params(32):
        want = {}
        for j in range(p.r):
            for i in range(p.r):
                k = kk_product_closed(p, j, i)
                assert kk_product_rect(p, j, i) == k, (p.r, p.a, j, i)
                if k is not None:
                    want[(j, i)] = {k: 1}
        got = kk_table(p)
        assert got.dim == p.r
        assert list(got.products.items()) == list(want.items()), (p.r, p.a)


def test_is_unital():
    assert poly_table(kk_table(SingularityParams(7, 3))).is_unital()
    t = kk_table(SingularityParams(5, 2))
    t.products[(3, 0)] = {3: 2}
    assert not t.is_unital()
    t = kk_table(SingularityParams(5, 2))
    del t.products[(0, 4)]
    assert not t.is_unital()


# ---------------------------------------------------------------------------
# the rows associator_violation reads
# ---------------------------------------------------------------------------

def _generating_rows_by_passes(table):
    """Reference for generating_rows: the first index not reached joins G,
    then whole passes over the cells, each reaching the one nonzero output
    not yet reached of a cell whose factors are reached, until a pass
    reaches nothing."""
    d = table.dim
    cells = [((j, i), [k for k, c in cell.items() if c])
             for (j, i), cell in table.products.items()
             if 0 <= j < d and 0 <= i < d]
    if any(not 0 <= k < d for _, outs in cells for k in outs):
        return list(range(d))
    reached, rows = set(), []
    for g in range(d):
        if g in reached:
            continue
        rows.append(g)
        reached.add(g)
        grew = True
        while grew:
            grew = False
            for (j, i), outs in cells:
                new = [k for k in outs if k not in reached]
                if j in reached and i in reached and len(new) == 1:
                    reached.add(new[0])
                    grew = True
    return rows


def _order_table(n, q):
    return AlgebraTable(n * n, {key: dict(cell) for key, cell in
                                structure_constants(build_order(n, q)).items()})


def _random_closed_table(rng):
    d = rng.randint(1, 5)
    products = {(0, x): {x: 1} for x in range(d)} if rng.random() < 0.5 else {}
    for j in range(d):
        for i in range(d):
            if rng.random() < 0.4:
                products[(j, i)] = {rng.randrange(d): rng.choice((1, -1, 2))
                                    for _ in range(rng.randint(1, 2))}
    return AlgebraTable(d, products)


def test_generating_rows_match_the_pass_by_pass_reading():
    rng = random.Random(29)
    tables = [kk_table(p) for p in coprime_params(24)]
    tables += [_order_table(n, q) for n, q in ((2, 1), (3, 1), (3, 2),
                                               (4, 1), (4, 3))]
    tables += [_first_component_table(r) for r in range(3, 9)]
    tables += [_random_closed_table(rng) for _ in range(300)]
    for table in tables:
        assert table.generating_rows() == _generating_rows_by_passes(table)
    # an output outside the basis leaves every row to be read
    table = AlgebraTable(3, {(0, 0): {0: 1}, (1, 1): {3: 1}})
    assert table.generating_rows() == [0, 1, 2]


def test_generating_rows_stay_few():
    # a silent fall back to every row would pass every associativity test
    for r in range(2, 25):
        assert kk_table(SingularityParams(r, r - 1)).generating_rows() == [0, 1]
    for n, q in ((3, 1), (3, 2), (4, 1), (4, 3)):
        assert len(_order_table(n, q).generating_rows()) < n * n


def test_least_failing_row_is_a_generating_row():
    """The lemma behind reading only the rows in G: the dense oracle's
    least failing k is in G, on mutants of each kind of table and on small
    random tables closed in their basis."""
    rng = random.Random(41)
    bases = [kk_table(p) for p in coprime_params(10)]
    bases += [_order_table(n, q) for n, q in ((2, 1), (3, 1), (3, 2))]
    bases += [_first_component_table(r) for r in range(3, 7)]
    tables = []
    for n in range(240):
        table = rng.choice(bases)
        mutant = AlgebraTable(table.dim, table.products)
        j, i = rng.randrange(table.dim), rng.randrange(table.dim)
        cell = dict(table.product(j, i))
        k = rng.randrange(table.dim)
        # a coefficient of the table times 1, -1 or 2
        c = rng.choice(sorted({c for cell in table.products.values()
                               for c in cell.values()}, key=str))
        s = rng.choice((1, -1, 2))
        c = c * (Poly.const(s) if isinstance(c, Poly) else s)
        mutant.products[(j, i)] = {**cell, k: c} if n % 2 else {k: c}
        tables.append(mutant)
    tables += [_random_closed_table(rng) for _ in range(300)]
    failing = 0
    for table in tables:
        want = dense_associator_violation(table)
        if want is not None:
            failing += 1
            assert want[0] in table.generating_rows(), table.products
        assert table.associator_violation() == want
    assert failing > 200


_ASSOC_SABOTAGE = """
import sys
from wahlorder.kkalg import kk_table
from wahlorder.resarith import SingularityParams
{oracle}
table = kk_table(SingularityParams(16, 3))
table.products[(10, 3)] = {{13: -1}}
want = dense_associator_violation(table)
sys.exit(0 if want is not None and table.associator_violation() == want else 1)
"""


def test_a_corrupt_cell_outside_the_read_rows_fails_under_python_O():
    # w_10 w_3 = -w_13 breaks (w_5 w_5) w_3 = w_5 (w_5 w_3); row 10 is not
    # read, row 5 is, and the check must hold with asserts compiled out
    assert kk_table(SingularityParams(16, 3)).generating_rows() == [0, 1, 2, 3, 4, 5]
    src = Path(wahlorder.__file__).resolve().parents[1]
    script = _ASSOC_SABOTAGE.format(
        oracle=inspect.getsource(dense_associator_violation))
    proc = subprocess.run([sys.executable, '-O', '-c', script],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# the graded reading: every cell {(j + i) % dim: 1}
# ---------------------------------------------------------------------------

def _coded_loop_calls(monkeypatch):
    """The tables whose associator the coded loop reads, as a list that
    grows with each call: generating_rows has no other caller."""
    calls = []
    rows = AlgebraTable.generating_rows

    def counted(self):
        calls.append(self)
        return rows(self)

    monkeypatch.setattr(AlgebraTable, 'generating_rows', counted)
    return calls


def test_graded_reading_matches_dense_reference_on_graded_mutants(monkeypatch):
    coded = _coded_loop_calls(monkeypatch)
    rng = random.Random(20261021)
    pool = [p for p in coprime_params(13) if p.r >= 3]
    found = 0
    for _ in range(400):
        # one graded cell added or dropped
        p = rng.choice(pool)
        table = kk_table(p)
        j, i = rng.randrange(p.r), rng.randrange(p.r)
        if (j, i) in table.products:
            del table.products[(j, i)]
        else:
            table.products[(j, i)] = {(j + i) % p.r: 1}
        want = dense_associator_violation(table)
        assert table.associator_violation() == want, (p, j, i)
        found += want is not None
    assert found > 200
    # two failing i for the same (k, j): with w_5 w_2 = 0, (w_5 w_2) w_i
    # is 0 and w_5 (w_2 w_i) = w_5 w_{2+i} is stored for i = 1 and 2 only
    table = kk_table(SingularityParams(13, 5))
    del table.products[(5, 2)]
    assert [i for i in range(13) if (2, i) in table.products
            and (5, (2 + i) % 13) in table.products] == [1, 2]
    assert dense_associator_violation(table) == (5, 2, 1)
    assert table.associator_violation() == (5, 2, 1)
    assert coded == []


def test_tables_just_off_the_graded_form_take_the_coded_loop(monkeypatch):
    coded = _coded_loop_calls(monkeypatch)
    p = SingularityParams(9, 2)
    keys = list(kk_table(p).products)
    tables = [poly_table(kk_table(p))]
    # each fault at the first cell the scan reads and at the last
    for j, i in (keys[0], keys[-1], (4, 4)):
        l = (j + i) % 9
        for cell in ({l: 2}, {l: -1}, {l: 1, (l + 1) % 9: 0}, {l: 0},
                     {(l + 1) % 9: 1}, {l + 9: 1}, {l: 1, (l + 3) % 9: 1}):
            table = kk_table(p)
            table.products[(j, i)] = cell
            tables.append(table)
    # keys outside range(9) whose output is still (j + i) % 9
    for key in ((9, 0), (-1, 1), (2, 9)):
        table = kk_table(p)
        table.products[key] = {sum(key) % 9: 1}
        tables.append(table)
    failing = 0
    for n, table in enumerate(tables, 1):
        want = dense_associator_violation(table)
        assert table.associator_violation() == want, table.products
        assert len(coded) == n
        failing += want is not None
    assert failing > 10
    # an empty table is graded, trivially: read off its empty row supports
    for d in (0, 3):
        assert dense_associator_violation(AlgebraTable(d)) is None
        assert AlgebraTable(d).associator_violation() is None
    assert len(coded) == len(tables)


def test_every_kk_table_takes_the_graded_reading(monkeypatch):
    # a kk_table cell off the form would fall back to the coded loop, about
    # twice as slow, and would pass every other associativity test
    coded = _coded_loop_calls(monkeypatch)
    for p in coprime_params(32):
        assert kk_table(p).associator_violation() is None
    assert coded == []


_GRADED_SABOTAGE = """
import sys
import wahlorder.verify as v
from wahlorder.resarith import SingularityParams, gamma
{oracle}
kk_table, young_diagram = v.kk_table, v.young_diagram
table = kk_table(SingularityParams(16, 3))
table.products[(10, 7)] = {{1: 1}}
want = dense_associator_violation(table)
if want is None or table.associator_violation() != want:
    sys.exit(1)


def sabotaged(p):
    t = kk_table(p)
    if (p.r, p.a) == (16, 3):
        t.products[(10, 7)] = {{1: 1}}
    return t


class Diagram:
    # the diagram of p, with a box certifying w_10 w_7 = w_1 at (16, 3)
    def __init__(self, p):
        self.p, self.young = p, young_diagram(p)

    def boxes(self):
        yield from self.young.boxes()
        if (self.p.r, self.p.a) == (16, 3):
            yield (next(x for x in range(16) if gamma((x, 0), self.p) == 10), 7, 1)


v.kk_table, v.young_diagram = sabotaged, Diagram
print(want)
print(v.suite_kk(max_r=16).render(), end='')
"""


def test_a_graded_corrupt_cell_fails_under_python_O():
    # w_10 w_7 = w_1 keeps the table graded, and breaks (w_5 w_5) w_7 =
    # w_5 (w_5 w_7); the diagram gets the same box, so that the suite's
    # associator is what fails, with asserts compiled out
    src = Path(wahlorder.__file__).resolve().parents[1]
    script = _GRADED_SABOTAGE.format(
        oracle=inspect.getsource(dense_associator_violation))
    proc = subprocess.run([sys.executable, '-O', '-c', script],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith('(5, 5, 7)\n')
    assert '[(16,3): associativity fails at (5, 5, 7)]' in proc.stdout
    assert proc.stdout.endswith('suite kk: FAIL\n')
