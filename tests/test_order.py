from fractions import Fraction
from math import gcd

import pytest

import wahlorder.order as order_mod
from wahlorder.resarith import SingularityParams, bracket
from wahlorder.polyring import Poly, T, tsub, S, format_poly
from wahlorder.kkalg import kk_table
from wahlorder.order import (order_entry, build_order, structure_constants,
                             solve_in_basis, constants_table, fiber_at,
                             fiber_zero_report, certify_full_matrix_fiber,
                             infinity_fiber, wahl_cochain, cross_check,
                             format_cell, format_order_matrix,
                             diagonal_sign_match)
from wahlorder.goldens import GOLDEN_MATRICES
from wahlorder.deform import check_point


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
    m0 = ordr.basis_matrix(0)
    for i in range(3):
        for j in range(3):
            want = Poly.const(1) if i == j else Poly.zero()
            assert m0[i][j].eval_at({T: 0}) == want.eval_at({T: 0})
    m4 = ordr.basis_matrix(4)
    assert format_poly(m4[0][1]) == 't'
    assert all(m4[i][j].is_zero() for i in range(3) for j in range(3)
               if (i, j) != (0, 1))


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
        assert fiber_at(ordr, 0) == kk_table(ordr.params).rescale(rep.signs)
        # at present the match is exact
        assert rep.signs == [1] * ordr.r


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
# the triangular solver against the Bareiss oracle
# ---------------------------------------------------------------------------

def _wahl_pairs(max_n):
    return [(n, q) for n in range(2, max_n + 1) for q in range(1, n)
            if gcd(n, q) == 1]


def _combination(basis, coords):
    n = len(basis[0])
    return [[sum((c * basis[k][i][j] for k, c in coords.items()), Poly.zero())
             for j in range(n)] for i in range(n)]


@pytest.mark.parametrize('n,q', _wahl_pairs(4))
def test_triangular_constants_match_bareiss_oracle(n, q):
    ordr = build_order(n, q)
    consts = structure_constants(ordr)
    assert ordr.solver == 'triangular'
    r, a = ordr.r, ordr.params.a
    basis = [ordr.basis_matrix(bracket(-a * k, r)) for k in range(r)]
    targets = {(j, i): order_mod._matmul(basis[i], basis[j], n)
               for j in range(r) for i in range(r)}
    oracle = order_mod._solve_bareiss(basis, targets)
    # equal as dicts and in key order, which the digests and output rely on
    assert {p: list(c.items()) for p, c in consts.items()} == \
        {p: list(c.items()) for p, c in oracle.items()}


def test_triangular_path_up_to_n_6():
    for (n, q) in _wahl_pairs(6):
        ordr = build_order(n, q)
        structure_constants(ordr)
        assert ordr.solver == 'triangular', (n, q)


def _e(i, j, p):
    m = [[Poly.zero(), Poly.zero()], [Poly.zero(), Poly.zero()]]
    m[i][j] = p
    return m


def test_unpeelable_basis_takes_bareiss_path():
    t = Poly.var(T)
    one = Poly.const(1)
    # the (1,1) cell pivots on 1 + t, which is not a monomial
    stalled = [[[one, Poly.zero()], [Poly.zero(), one]],
               _e(0, 1, one), _e(1, 0, t), _e(0, 0, one + t)]
    peelable = stalled[:3] + [_e(0, 0, t * t)]
    want = {'u': {0: one, 3: t * t - one}, 'v': {1: -t, 2: one + t},
            'w': {}, 'x': {3: one}}
    for basis, path in ((stalled, 'bareiss'), (peelable, 'triangular')):
        targets = {p: _combination(basis, c) for p, c in want.items()}
        got, solver = solve_in_basis(basis, targets)
        assert solver == path
        assert got == want
        assert got == order_mod._solve_bareiss(basis, targets)


def test_target_outside_closure_raises():
    ordr = build_order(2, 1)
    r, a = ordr.r, ordr.params.a
    basis = [ordr.basis_matrix(bracket(-a * k, r)) for k in range(r)]
    # cell (1,2) is t a_3 alone, so E_12 = N / t is not in the Z[t]-span
    target = _e(0, 1, Poly.const(1))
    with pytest.raises(ArithmeticError, match='remainder'):
        solve_in_basis(basis, {'E12': target})
    # t E_12 is in the span, with coordinate 1 on the a_3 basis element
    got, solver = solve_in_basis(basis, {'tE12': _e(0, 1, Poly.var(T))})
    assert solver == 'triangular' and list(got['tE12'].values()) == [Poly.const(1)]


def test_build_order_invariants_raise_value_error(monkeypatch):
    real = order_mod.order_entry
    monkeypatch.setattr(order_mod, 'order_entry',
                        lambda n, q, i, j: real(n, q, i, j) * 2)
    with pytest.raises(ValueError, match='repeated'):
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
