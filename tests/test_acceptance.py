"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Three criteria carry documented convention notes (see the decisions ledger):
the opposite duality holds with the index twist k -> [-a k]; the flat
one-parameter cochain has s = -t^n (the +t^n variant provably misses the
locus already at n = 2); and the displayed r = 4 second-component relation
w_3 w_1 - t_2 w_2 + t_2^2 is tested with the associative sign -t_2 w_2
(forced by associativity and by the matrix order).
"""

from wahlorder.verify import (suite_kk, suite_deform, suite_order, suite_cross,
                              VerifyReport)


def _crit(num: int, label: str, passed: bool, elapsed: float,
          limit: float = None):
    status = 'PASS' if passed else 'FAIL'
    bound = f' (limit {limit:.0f}s)' if limit else ''
    print(f'criterion {num:2d} [{status}] {label}  {elapsed:.1f}s{bound}')
    assert passed, f'criterion {num}: {label}'
    if limit is not None:
        assert elapsed < limit, f'criterion {num} exceeded {limit}s ({elapsed:.1f}s)'


def _run(checks: VerifyReport, names):
    sub = [c for c in checks.checks if any(n in c.name for n in names)]
    assert sub, f'no checks matched {names}'
    return all(c.passed for c in sub), sum(c.elapsed for c in sub), sub


_KK = None
_DEFORM = None


def _kk_report():
    global _KK
    if _KK is None:
        _KK = suite_kk(max_r=32)
    return _KK


def _deform_report():
    global _DEFORM
    if _DEFORM is None:
        _DEFORM = suite_deform(max_r=20, max_n=6)
    return _DEFORM


def test_criterion_01_kk_oracle_equivalence():
    passed, elapsed, _ = _run(_kk_report(), ['oracle equivalence'])
    _crit(1, 'closed formula == rectangle == Young rule, associative/unital, '
             'r <= 32', passed, elapsed, limit=30)


def test_criterion_02_reference_9_2_table():
    passed, elapsed, _ = _run(_kk_report(), ['reference (9,2)'])
    _crit(2, 'R_{9,2}: exactly w_4 w_1..w_4^2 nontrivial', passed, elapsed)


def test_criterion_03_commutative_characterizations():
    passed, elapsed, _ = _run(_kk_report(), ['commutativity iff'])
    _crit(3, 'truncated polynomials at a=r-1, square-zero at a=1, '
             'no other commutative a (r <= 20)', passed, elapsed)


def test_criterion_04_opposite_duality():
    passed, elapsed, _ = _run(_kk_report(), ['opposite duality'])
    _crit(4, 'R_{r,a} = opposite(R_{r,b}) under the documented index twist, '
             'r <= 32', passed, elapsed)


def test_criterion_05_diff_matrix():
    passed, elapsed, _ = _run(_deform_report(),
                              ['skew-symmetric', 'a = 1 closed formula'])
    _crit(5, 'a=1 matrix formula incl. +s in m_(1,r-1) (r <= 16); '
             'skew-symmetry all (r,a), r <= 20', passed, elapsed)


def test_criterion_06_component_substitutions():
    passed, elapsed, _ = _run(_deform_report(), ['component parametrizations'])
    _crit(6, 'reference components of 1/15(1,4) and 1/19(1,7) annihilate all '
             'generators', passed, elapsed, limit=20)


def test_criterion_07_wahl_cochain_vanishing():
    passed, elapsed, _ = _run(_deform_report(),
                              ['Q-Gorenstein cochain', 'sign is forced'])
    _crit(7, 'one-parameter cochain t_{kn}=t^k, s=-t^n annihilates the '
             'matrix, n <= 6 (s-sign documented)', passed, elapsed)


def test_criterion_08_worked_deformations():
    passed, elapsed, _ = _run(_deform_report(),
                              ['worked r = 2', 'worked r = 4',
                               'first-component'])
    _crit(8, 'worked tables: r=2; r=4 second component + Mat_2 fiber; '
             '(r,1) first component r <= 8', passed, elapsed)


_ORDER = None


def _order_report():
    global _ORDER
    if _ORDER is None:
        _ORDER = suite_order(max_n=5)
    return _ORDER


def test_criterion_09_golden_matrices():
    passed, elapsed, _ = _run(_order_report(), ['golden matrices'])
    _crit(9, 'reference order matrices term-for-term; (2,1) via the documented '
             'sign substitution', passed, elapsed)


def test_criterion_10_order_properties():
    passed, elapsed, checks = _run(_order_report(), ['order ('])
    assert len(checks) == 9  # (2,1), (3,*), (4,1), (4,3), (5,*)
    _crit(10, 'closure, t=0 fiber, Mat_n fibers at t=1,2, infinity fiber; '
              'n <= 5 all q', passed, elapsed, limit=60)


def test_criterion_11_cross_validation():
    rep = suite_cross(max_n=4)
    elapsed = sum(c.elapsed for c in rep.checks)
    _crit(11, 'deformed tables == order constants under the one-parameter '
              'cochain, n <= 4 all q', rep.passed, elapsed)


def test_criterion_12_maurer_cartan_vacuity():
    passed, elapsed, _ = _run(_deform_report(), ['degree-2'])
    _crit(12, 'no degree-2 generators for r <= 32 (Maurer-Cartan vacuous)',
          passed, elapsed)
