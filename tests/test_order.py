import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest

import wahlorder.deform as deform_mod
import wahlorder.order as order_mod
from wahlorder.resarith import SingularityParams
from wahlorder.polyring import Poly, T, tsub, S, format_poly
from wahlorder.kkalg import kk_table
from wahlorder.order import (order_entry, build_order, structure_constants,
                             constants_table, fiber_at,
                             fiber_zero_report, certify_full_matrix_fiber,
                             infinity_fiber, wahl_cochain, cross_check,
                             format_cell, format_order_matrix,
                             diagonal_sign_match)
from wahlorder.goldens import GOLDEN_MATRICES
from wahlorder.deform import check_point
from bareiss_oracle import (poly_matrix, _matmul, _solve_bareiss,
                            _det_fraction)


def test_order_entry_reference_examples():
    assert format_cell(order_entry(3, 1, 1, 2)) == 't a_4 + a_1'
    assert format_cell(order_entry(3, 1, 3, 3)) == '-t^2 a_6 - t a_3 + a_0'
    assert format_cell(order_entry(5, 2, 2, 1)) == '-t^5 a_24'
    assert format_cell(order_entry(3, 2, 2, 2)) == '-t^2 a_6 + a_0'
    assert format_cell(order_entry(5, 4, 5, 5)) == \
        '-t^4 a_20 - t^3 a_15 - t^2 a_10 - t a_5 + a_0'


def test_golden_matrices_term_for_term():
    for (n, q), rows in GOLDEN_MATRICES.items():
        ordr = build_order(n, q)
        for i in range(n):
            for j in range(n):
                assert format_cell(ordr.cells[i][j]) == rows[i][j], (n, q, i, j)


def _format_cell_oracle(terms):
    # an independent term printer: descending t-powers, then ascending a_k,
    # each term printed as +-t^e a_k
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


def test_format_cell_matches_the_term_printer_up_to_n_10():
    assert format_cell([]) == _format_cell_oracle([]) == '0'
    count = 0
    for n, q in _wahl_pairs(10):
        for row in build_order(n, q).cells:
            for cell in row:
                assert format_cell(cell) == _format_cell_oracle(cell), \
                    (n, q, cell)
                count += 1
    assert count == sum(n * n for n, _ in _wahl_pairs(10))


def test_build_order_2_1_vs_example_display():
    # the Example-style display [[a_0, t a_3], [t a_1, t a_2 + a_0]] matches
    # after the documented substitution a_1 -> -a_1, a_2 -> -a_2
    ordr = build_order(2, 1)
    assert format_cell(ordr.cells[0][0]) == 'a_0'
    assert format_cell(ordr.cells[0][1]) == 't a_3'
    assert format_cell(ordr.cells[1][0]) == '-t a_1'
    assert format_cell(ordr.cells[1][1]) == '-t a_2 + a_0'


def test_basis_matrix_shapes():
    ordr = build_order(3, 1)
    basis = ordr.monomial_basis()
    assert len(basis) == 9
    # a_0 is the identity, up to t-multiples of other coefficients
    assert basis[0] == [(0, 0, 1, 0), (1, 1, 1, 0), (2, 2, 1, 0)]
    assert basis[4] == [(0, 1, 1, 1)]
    m4 = poly_matrix(basis[4], 3)
    assert format_poly(m4[0][1]) == 't'
    assert all(m4[i][j].is_zero() for i in range(3) for j in range(3)
               if (i, j) != (0, 1))
    # every cell term appears in exactly one basis matrix
    assert sum(map(len, basis)) == sum(len(c) for row in ordr.cells for c in row)


def test_structure_constants_2_1():
    ordr = build_order(2, 1)
    c = structure_constants(ordr)
    t = Poly.var(T)
    assert c[(0, 2)] == {2: Poly.const(1)}  # unit
    assert c[(1, 3)] == {2: t}
    assert c[(3, 1)] == {2: -t, 0: -(t * t)}
    assert c[(2, 2)] == {2: -t}
    assert c[(2, 1)] == {1: -t}
    assert c[(1, 2)] == {}
    assert c[(1, 1)] == {}


def test_structure_constants_3_1_spot():
    c = structure_constants(build_order(3, 1))
    # at t = 0 this is w_4 w_1 = w_5
    assert set(c[(4, 1)]) == {5, 2}
    assert c[(4, 1)][5] == Poly.const(1)
    assert c[(4, 1)][2] == Poly.var(T, 1, -1)


def test_fiber_at_zero_is_kk():
    for (n, q) in ((2, 1), (3, 1), (3, 2)):
        ordr = build_order(n, q)
        rep = fiber_zero_report(ordr)
        assert rep.matches
        # the match is exact, and the report keeps the t = 0 table
        assert rep.table == fiber_at(ordr, 0) == kk_table(ordr.params)


def test_unit_row():
    ordr = build_order(3, 2)
    table = fiber_at(ordr, 0)
    for i in range(9):
        assert table.product(0, i) == {i: 1}
        assert table.product(i, 0) == {i: 1}


def test_generic_fibers_full_matrix_algebra():
    for (n, q) in ((2, 1), (3, 1), (3, 2)):
        ordr = build_order(n, q)
        assert certify_full_matrix_fiber(ordr, 1)
        assert certify_full_matrix_fiber(ordr, 2)
        assert certify_full_matrix_fiber(ordr, Fraction(1, 2))
        assert not certify_full_matrix_fiber(ordr, 0)


def test_infinity_fiber():
    for (n, q) in ((2, 1), (3, 1), (3, 2), (4, 1)):
        ordr = build_order(n, q)
        rep = infinity_fiber(ordr)
        assert rep.degree_bounds_ok and rep.matches_negated
        # the surviving products are exactly the s-weighted ones: under
        # k -> -k they reproduce the undeformed table
        neg = [(-k) % ordr.r for k in range(ordr.r)]
        assert rep.table.rescale(rep.signs) == kk_table(ordr.params).relabel(neg)


def test_wahl_cochain():
    spec = wahl_cochain(3, 1)
    sub = spec.substitution()
    assert sub[tsub(3)] == Poly.var(T)
    assert sub[tsub(6)] == Poly.var(T, 2)
    assert sub[S] == Poly.var(T, 3, -1)
    assert all(sub[tsub(i)].is_zero() for i in range(1, 9) if i % 3 != 0)
    spec2 = wahl_cochain(2, 1)
    assert spec2.substitution()[tsub(2)] == Poly.var(T)
    assert spec2.substitution()[S] == Poly.var(T, 2, -1)
    assert check_point(SingularityParams(9, 2), spec)


def test_cross_check_small():
    for (n, q) in ((2, 1), (3, 1), (3, 2)):
        rep = cross_check(n, q)
        assert rep.matched and rep.identical, (n, q, rep.first_mismatch)


def test_constants_table_associative():
    table = constants_table(build_order(3, 2))
    assert table.associator_violation() is None


def test_diagonal_sign_match():
    t = kk_table(SingularityParams(9, 2))
    signs = [1, -1, 1, 1, -1, 1, -1, 1, 1]
    found = diagonal_sign_match(t.rescale(signs), t)
    assert found is not None
    assert t.rescale(signs).rescale(found) == t
    # genuinely different tables do not match
    t2 = kk_table(SingularityParams(9, 5))
    assert diagonal_sign_match(t2, t) is None


def test_format_order_matrix_contains_rows():
    txt = format_order_matrix(build_order(3, 2))
    assert 't^2 a_7 + t a_4' in txt
    assert '-t^2 a_6 - t a_3 + a_0' in txt


def test_extended_orders_and_cross_checks():
    """Internal consistency beyond the acceptance bounds."""
    for (n, q) in ((5, 1), (5, 2), (5, 3), (5, 4), (6, 1), (6, 5)):
        rep = cross_check(n, q)
        assert rep.matched and rep.identical, (n, q)
        ordr = build_order(n, q)
        assert fiber_zero_report(ordr).matches
        repi = infinity_fiber(ordr)
        assert repi.degree_bounds_ok and repi.matches_negated
        assert certify_full_matrix_fiber(ordr, 1)


# ---------------------------------------------------------------------------
# the signed-monomial solver against the Bareiss oracle
# ---------------------------------------------------------------------------

def _wahl_pairs(max_n):
    return [(n, q) for n in range(2, max_n + 1) for q in range(1, n)
            if gcd(n, q) == 1]


def _order_basis(ordr):
    mats = ordr.monomial_basis()
    return [mats[-ordr.params.a * k % ordr.r] for k in range(ordr.r)]


def _combination(basis, coords, n):
    mats = [poly_matrix(b, n) for b in basis]
    return [[sum((c * mats[k][i][j] for k, c in coords.items()), Poly.zero())
             for j in range(n)] for i in range(n)]


def _sparse(matrix):
    # each cell as {e: c}, the form _solve_target takes
    return {(i, j): {(m[0][1] if m else 0): c for m, c in p.terms.items()}
            for i, row in enumerate(matrix)
            for j, p in enumerate(row) if not p.is_zero()}


def _solve_target(basis, n, label, target):
    """order._solve over an n x n basis, the way structure_constants runs it
    on a product: target maps (row, col) to {e: c} and is copied into the
    residual."""
    plan = order_mod._PivotPlan(basis, n)
    residual = {row * n + col: dict(v) for (row, col), v in target.items()}
    heap = [plan.position[c] for c in residual if plan.position[c] >= 0]
    return order_mod._solve(plan, label, residual, heap)


def _product(left, right, n, position):
    """order._product on two [(row, col, sign, e)] matrices, the way
    structure_constants calls it; the residual is read back with (row, col)
    keys and without the cells whose terms cancelled."""
    rows = [[] for _ in range(n)]
    for i, j, sign, e in right:
        rows[i].append((j, sign, e))
    residual, heap = order_mod._product(
        [(i * n, m, sign, e) for i, m, sign, e in left], rows, position)
    assert sorted(heap) == sorted(position[c] for c in residual
                                  if position[c] >= 0)
    return {divmod(c, n): v for c, v in residual.items() if v}


@pytest.mark.parametrize('n,q', _wahl_pairs(5))
def test_triangular_constants_match_bareiss_oracle(n, q):
    ordr = build_order(n, q)
    consts = structure_constants(ordr)
    r = ordr.r
    basis = [poly_matrix(b, n) for b in _order_basis(ordr)]
    targets = {(j, i): _matmul(basis[i], basis[j], n)
               for j in range(r) for i in range(r)}
    oracle = _solve_bareiss(basis, targets)
    # equal as dicts and in key order, which the digests and output rely on
    assert {p: list(c.items()) for p, c in consts.items()} == \
        {p: list(c.items()) for p, c in oracle.items()}


def test_product_matches_poly_matmul():
    # products of order bases never put two terms on one (cell, power), so
    # random signed-monomial matrices exercise the sums and cancellations
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 3)
        cells = [(i, j) for i in range(n) for j in range(n)]
        left, right = ([(i, j, rng.choice((1, -1)), rng.randint(0, 2))
                        for i, j in rng.sample(cells, rng.randint(0, n * n))]
                       for _ in range(2))
        # some cells pivoted, at positions in any order
        position = [rng.choice((-1, p)) for p in range(n * n)]
        rng.shuffle(position)
        want = _matmul(poly_matrix(left, n), poly_matrix(right, n), n)
        assert _product(left, right, n, position) == _sparse(want)


def test_triangular_path_up_to_n_6():
    for (n, q) in _wahl_pairs(6):
        ordr = build_order(n, q)
        consts = structure_constants(ordr)
        assert len(consts) == ordr.r ** 2, (n, q)
        assert ordr._det > 0, (n, q)
        # the solver's term dicts rest on this: every structure constant is
        # one +-t^e, and every cell of every product N_i . N_j one term
        assert all(len(p.terms) == 1 and abs(c) == 1
                   for cell in consts.values() for p in cell.values()
                   for c in p.terms.values()), (n, q)
        basis = _order_basis(ordr)
        position = [-1] * (n * n)
        for right in basis:
            assert all(len(v) == 1 for left in basis
                       for v in _product(left, right, n, position).values()), \
                (n, q)


def test_constants_and_determinants_match_their_recorded_digest():
    # the Bareiss and Fraction oracles stop at n = 5; past it, the constants
    # (keys, key order and values) and _det of every Wahl pair with n <= 8
    # are pinned by a sha256 recorded from a build that the oracles passed
    digest = hashlib.sha256()
    for n, q in _wahl_pairs(8):
        ordr = build_order(n, q)
        consts = structure_constants(ordr)
        digest.update(repr((n, q, ordr._det)).encode())
        for key, cell in consts.items():
            digest.update(repr((key, [(k, sorted(p.terms.items()))
                                      for k, p in cell.items()])).encode())
    assert digest.hexdigest() == \
        '7566aaa9b8f2a596d50532c815d2a8d78f850a74ed9b134dde6c07583e83bdfa'


@pytest.mark.parametrize('n,q', _wahl_pairs(5))
def test_determinant_matches_fraction_oracle(n, q):
    ordr = build_order(n, q)
    structure_constants(ordr)
    total = ordr._det
    assert total > 0
    mats = [poly_matrix(b, n) for b in _order_basis(ordr)]
    for tau in (-1, Fraction(1, 2), 1, 2, 3):
        rows = [[m[x][y].eval_at({T: tau}) for x in range(n) for y in range(n)]
                for m in mats]
        assert abs(Fraction(tau)) ** total == abs(_det_fraction(rows)), tau
        assert certify_full_matrix_fiber(ordr, tau)
    assert not certify_full_matrix_fiber(ordr, 0)
    assert not certify_full_matrix_fiber(ordr, Fraction(0))


def test_stalled_basis_raises():
    t = Poly.var(T)
    one = Poly.const(1)
    # E11 + E22, E11 - E22, E12, E21: after E12 and E21 the diagonal cells
    # each hold two unsolved unknowns, so the peel stalls, although the
    # basis spans Mat_2 over Q (the Bareiss oracle solves it)
    stalled = [[(0, 0, 1, 0), (1, 1, 1, 0)], [(0, 0, 1, 0), (1, 1, -1, 0)],
               [(0, 1, 1, 0)], [(1, 0, 1, 0)]]
    target = _combination(stalled, {0: one, 1: t}, 2)
    assert _solve_bareiss([poly_matrix(b, 2) for b in stalled],
                          {'u': target}) == {'u': {0: one, 1: t}}
    with pytest.raises(ArithmeticError, match='does not peel'):
        _solve_target(stalled, 2, 'u', _sparse(target))
    # I, E12, t E21, t^2 E11 peels: E12, E21, E22 (for I), then E11
    peelable = [[(0, 0, 1, 0), (1, 1, 1, 0)], [(0, 1, 1, 0)],
                [(1, 0, 1, 1)], [(0, 0, 1, 2)]]
    want = {'u': {0: one, 3: t * t - one}, 'v': {1: -t, 2: one + t},
            'w': {}, 'x': {3: one}}
    targets = {p: _combination(peelable, c, 2) for p, c in want.items()}
    got = {p: _solve_target(peelable, 2, p, _sparse(m))
           for p, m in targets.items()}
    assert got == want
    assert got == _solve_bareiss([poly_matrix(b, 2) for b in peelable], targets)
    # rows (1,2) and (2,1) hold E12 and t E21 alone; then rows (1,1) and
    # (2,2) read [[1, t^2], [1, 0]] on I and t^2 E11: det = t * (-t^2)
    assert order_mod._PivotPlan(peelable, 2).det == 3


def test_target_outside_closure_raises():
    ordr = build_order(2, 1)
    basis = _order_basis(ordr)
    # cell (1,2) is t a_3 alone, so E_12 = N / t is not in the Z[t]-span
    with pytest.raises(ArithmeticError, match='remainder'):
        _solve_target(basis, 2, 'E12', {(0, 1): {0: 1}})
    # t E_12 is in the span, with coordinate 1 on the a_3 basis element
    got = _solve_target(basis, 2, 'tE12', {(0, 1): {1: 1}})
    assert list(got.values()) == [Poly.const(1)]


def test_tampered_product_raises():
    ordr = build_order(3, 1)
    consts = structure_constants(ordr)
    basis = _order_basis(ordr)
    products = {label: _sparse(_combination(basis, cell, 3))
                for label, cell in consts.items()}
    # each product solves back to its constants, in key order, and the plan
    # gives the order's determinant
    assert {p: list(_solve_target(basis, 3, p, m).items())
            for p, m in products.items()} == \
        {p: list(c.items()) for p, c in consts.items()}
    plan = order_mod._PivotPlan(basis, 3)
    assert plan.det == ordr._det
    # a constant term added in a cell whose pivot is t^e, e >= 1
    label = next(p for p, c in consts.items() if len(c) > 1)
    product = products[label]
    cell = next(divmod(c, 3) for c, _, _, e, _ in plan.steps if e >= 1)
    old = product.get(cell, {})
    tampered = {**product, cell: {**old, 0: old.get(0, 0) + 1}}
    with pytest.raises(ArithmeticError, match='remainder below t'):
        _solve_target(basis, 3, label, tampered)


def test_residual_outside_the_pivot_cells_raises():
    # I and E12 pivot in the cells (1,2) and (1,1); cell (2,2) is left over
    # and must end with a zero residual
    basis = [[(0, 0, 1, 0), (1, 1, 1, 0)], [(0, 1, 1, 0)]]
    got = _solve_target(basis, 2, 'I + t E12', {(0, 0): {0: 1},
                                                (1, 1): {0: 1},
                                                (0, 1): {1: 1}})
    assert got == {0: Poly.const(1), 1: Poly.var(T)}
    for label, target in (('E11', {(0, 0): {0: 1}}),
                          ('E22', {(1, 1): {0: 1}})):
        with pytest.raises(ArithmeticError,
                           match=r'recombination fails in cell \(1, 1\)'):
            _solve_target(basis, 2, label, target)


def test_build_order_invariants_raise_value_error(monkeypatch):
    real = order_mod.order_entry
    monkeypatch.setattr(order_mod, 'order_entry',
                        lambda n, q, i, j: real(n, q, i, j) * 2)
    with pytest.raises(ValueError, match='repeated'):
        build_order(3, 1)
    # one coefficient twice in a cell would make its basis entry 1 + t
    monkeypatch.setattr(order_mod, 'order_entry',
                        lambda n, q, i, j: [(1, 0, 0), (1, 1, 0)])
    with pytest.raises(ValueError, match='a_0 repeated'):
        build_order(3, 1)
    monkeypatch.setattr(order_mod, 'order_entry',
                        lambda n, q, i, j: [(1, n + 1, 0)])
    with pytest.raises(ValueError, match='out of range'):
        build_order(3, 1)


def test_diagonal_sign_match_checks_its_solution(monkeypatch):
    t = kk_table(SingularityParams(9, 2))
    flipped = t.rescale([1, -1, 1, 1, 1, 1, 1, 1, 1])
    monkeypatch.setattr(order_mod, '_gf2_solve', lambda rows, rhs, m: [0] * m)
    with pytest.raises(ArithmeticError):
        diagonal_sign_match(flipped, t)


def test_is_unital_on_fraction_and_poly_tables():
    for (n, q) in ((3, 2), (4, 3)):
        ordr = build_order(n, q)
        for tau in (0, Fraction(1, 2), 2):
            assert fiber_at(ordr, tau).is_unital(), (n, q, tau)
        assert constants_table(ordr).is_unital(), (n, q)
    half = fiber_at(build_order(3, 2), Fraction(1, 2))
    assert any(isinstance(c, Fraction)
               for cell in half.products.values() for c in cell.values())
    half.products[(0, 4)] = {4: Fraction(1, 2)}
    assert not half.is_unital()


def test_on_the_nose_certificates_never_search_signs(monkeypatch):
    def no_search(t1, t2):
        raise AssertionError('diagonal sign search called')
    monkeypatch.setattr(order_mod, 'diagonal_sign_match', no_search)
    for (n, q) in ((2, 1), (3, 1), (3, 2), (4, 3)):
        ordr = build_order(n, q)
        rep0 = fiber_zero_report(ordr)
        assert rep0.matches and rep0.table == fiber_at(ordr, 0), (n, q)
        rep = cross_check(n, q)
        assert rep.matched and rep.identical and rep.first_mismatch is None


def test_sign_flipped_fiber_zero_mismatches(monkeypatch):
    ordr = build_order(3, 2)
    signs = [1, -1, 1, 1, 1, 1, 1, 1, 1]
    flipped = fiber_at(ordr, 0).rescale(signs)
    target = kk_table(ordr.params)
    assert flipped != target
    found = diagonal_sign_match(flipped, target)
    assert found is not None and target.rescale(found) == flipped
    monkeypatch.setattr(order_mod, 'fiber_at', lambda o, tau: flipped)
    rep = fiber_zero_report(ordr)
    assert not rep.matches and rep.table is flipped


def test_cross_check_reports_the_least_tampered_cell(monkeypatch):
    real = deform_mod.deformed_table
    keys = sorted(real(SingularityParams(9, 5), wahl_cochain(3, 2)).products)
    low, high = keys[len(keys) // 2], keys[-1]

    def tampered(params, spec):
        table = real(params, spec)
        # a sign flip in one cell, and the last cell dropped
        table.products[low] = {k: -c for k, c in table.product(*low).items()}
        del table.products[high]
        return table

    monkeypatch.setattr(deform_mod, 'deformed_table', tampered)
    left = constants_table(build_order(3, 2))
    rep = cross_check(3, 2)
    assert not rep.matched and not rep.identical
    cell = left.product(*low)
    assert rep.first_mismatch == (low, cell, {k: -c for k, c in cell.items()})


def test_diagonal_sign_match_on_equal_tables_gives_plus_signs():
    for params in (SingularityParams(9, 2), SingularityParams(16, 11)):
        t = kk_table(params)
        assert diagonal_sign_match(t, kk_table(params)) == [1] * params.r
    ordr = build_order(3, 1)
    table = constants_table(ordr)
    assert diagonal_sign_match(table, constants_table(ordr)) == [1] * 9


# sha256 of repr([(n, q, infinity_fiber(build_order(n, q)).signs)]) over every
# coprime (n, q) with n <= 7, recorded before the fiber builders left zero
# filtering to AlgebraTable: the GF(2) row order follows the table's key
# order, so this pins the signs the CLI prints
_INFINITY_SIGNS_DIGEST = (
    '472e858f14e6441be0a792a418d02f8f83b507400912019e8025d7012c256158')


def test_infinity_signs_are_pinned():
    import hashlib
    pairs = [(n, q) for n in range(2, 8) for q in range(1, n) if gcd(n, q) == 1]
    signs = [(n, q, infinity_fiber(build_order(n, q)).signs) for n, q in pairs]
    assert all(s is not None and -1 in s for _, _, s in signs[1:])
    digest = hashlib.sha256(repr(signs).encode()).hexdigest()
    assert digest == _INFINITY_SIGNS_DIGEST
