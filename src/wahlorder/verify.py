"""Verification suites bundling the package's exact acceptance checks.

Each suite returns a VerifyReport with one VerifyCheck per named criterion;
the CLI `verify` command and the acceptance tests both run these.  All
checks are exact (integer / polynomial identities); bounds are arguments so
smaller smoke runs are possible.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from math import gcd

from .resarith import SingularityParams
from .polyring import Poly, S, T, tsub
from .kkalg import (AlgebraTable, kk_table, kk_product_closed, kk_product_rect,
                    young_diagram, gauss_word, dual_relabel)
from .deform import (full_ainf, visible_contributions, insert_cochain,
                     diff_matrix, check_point, deformed_table, CochainSpec)
from .order import (build_order, structure_constants, fiber_zero_report,
                    certify_full_matrix_fiber, infinity_fiber, wahl_cochain,
                    cross_check, format_cell)
from .goldens import GOLDEN_MATRICES, EXAMPLE_2_1, EXAMPLE_2_1_SIGN_FLIPS


@dataclass
class VerifyCheck:
    name: str
    passed: bool
    detail: str = ''
    elapsed: float = 0.0


@dataclass
class VerifyReport:
    suite: str
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            'suite': self.suite,
            'passed': self.passed,
            'checks': [{'name': c.name, 'passed': c.passed,
                        'detail': c.detail, 'elapsed': round(c.elapsed, 3)}
                       for c in self.checks],
        }

    def render(self) -> str:
        lines = []
        for c in self.checks:
            status = 'PASS' if c.passed else 'FAIL'
            tail = f'  [{c.detail}]' if c.detail and not c.passed else ''
            lines.append(f'{status}  {c.name}  ({c.elapsed:.2f}s){tail}')
        lines.append(f'suite {self.suite}: {"PASS" if self.passed else "FAIL"}')
        return '\n'.join(lines) + '\n'


def _timed(report: VerifyReport, name: str, fn):
    start = time.perf_counter()
    try:
        detail = fn()
        passed, detail = (detail if isinstance(detail, tuple)
                          else (detail is None or detail is True,
                                detail if isinstance(detail, str) else ''))
    except AssertionError as exc:
        passed, detail = False, str(exc)
    except Exception as exc:  # an error fails this check, not the suite
        passed, detail = False, f'{type(exc).__name__}: {exc}'
    report.checks.append(VerifyCheck(name, passed, detail,
                                     time.perf_counter() - start))


def coprime_pairs(max_r: int, min_r: int = 2):
    for r in range(min_r, max_r + 1):
        for a in range(1, r):
            if gcd(a, r) == 1:
                yield SingularityParams(r, a)


def worker_count() -> int:
    raw = os.environ.get('WAHL_ORDER_THREADS', '1')
    try:
        n = int(raw)
    except ValueError:
        n = 1
    return max(1, min(n, os.cpu_count() or 1))


def _map(fn, items):
    n = worker_count()
    if n <= 1:
        return [fn(x) for x in items]
    from multiprocessing import Pool
    with Pool(n) as pool:
        return pool.map(fn, items)


# ---------------------------------------------------------------------------
# kk suite
# ---------------------------------------------------------------------------

def _kk_pair_check(args):
    r, a = args
    params = SingularityParams(r, a)
    diag = young_diagram(params)
    for j in range(r):
        for i in range(r):
            c = kk_product_closed(params, j, i)
            if c != kk_product_rect(params, j, i):
                return f'({r},{a}): closed/rect disagree at ({j},{i})'
            if c != diag.product(j, i):
                return f'({r},{a}): closed/young disagree at ({j},{i})'
    table = kk_table(params)
    if not table.is_unital():
        return f'({r},{a}): not unital'
    bad = table.associator_violation()
    if bad:
        return f'({r},{a}): associativity fails at {bad}'
    return None


def suite_kk(max_r: int = 32) -> VerifyReport:
    report = VerifyReport('kk')

    def oracle_equivalence():
        pairs = [(p.r, p.a) for p in coprime_pairs(max_r)]
        for err in _map(_kk_pair_check, pairs):
            assert err is None, err

    _timed(report, f'oracle equivalence + associativity, r <= {max_r}',
           oracle_equivalence)

    def reference_9_2():
        table = kk_table(SingularityParams(9, 2))
        want = {(4, 1): {5: 1}, (4, 2): {6: 1}, (4, 3): {7: 1}, (4, 4): {8: 1}}
        got = dict(table.nontrivial_products())
        assert got == want, f'(9,2) nontrivial products {got}'

    _timed(report, 'reference (9,2) table: w_4 w_i only', reference_9_2)

    def commutative_families():
        for params in coprime_pairs(min(max_r, 20)):
            r, a = params.r, params.a
            table = kk_table(params)
            commutative = all(table.product(j, i) == table.product(i, j)
                              for j in range(r) for i in range(r))
            assert commutative == (a in (1, r - 1)), \
                f'({r},{a}): commutative={commutative}'
            if a == r - 1:
                for j in range(r):
                    for i in range(r):
                        want = {(j + i) % r: 1} if j + i < r else {}
                        assert table.product(j, i) == want, \
                            f'({r},{a}) truncated-polynomial rule fails at ({j},{i})'
            if a == 1:
                assert not table.nontrivial_products(), \
                    f'({r},1) radical should square to zero'

    _timed(report, 'commutativity iff a in {1, r-1}; truncated/square-zero forms',
           commutative_families)

    def opposite_duality():
        for params in coprime_pairs(max_r):
            dual = SingularityParams(params.r, params.b)
            twisted = kk_table(dual).opposite().relabel(dual_relabel(params))
            assert twisted == kk_table(params), f'duality fails at ({params.r},{params.a})'

    _timed(report, f'opposite duality with index twist k -> [-a k], r <= {max_r}',
           opposite_duality)

    def word_shape():
        for params in coprime_pairs(min(max_r, 24)):
            w = gauss_word(params)
            assert len(w) == 2 * (params.r - 1)
            for lbl in range(1, params.r):
                assert w.count(lbl) == 2, f'({params.r},{params.a}): label {lbl}'

    _timed(report, 'Gauss word: every nonzero label exactly twice', word_shape)
    return report


# ---------------------------------------------------------------------------
# deform suite
# ---------------------------------------------------------------------------

def _zero_spec(r):
    return CochainSpec(r, {S: Poly.zero()})


def a1_diff_expected(r: int):
    """Closed form for a = 1: m_ij = sum_{k=i}^{j-1} t_k t_{i+j-k} (i < j),
    plus s in m_{1, r-1} when r > 2."""
    entries = {}
    for i in range(1, r):
        for j in range(i + 1, r):
            p = Poly.zero()
            for k in range(i, j):
                l = i + j - k
                if 1 <= l <= r - 1:
                    p = p + Poly.var(tsub(k)) * Poly.var(tsub(l))
            if (i, j) == (1, r - 1) and r > 2:
                p = p + Poly.var(S)
            entries[(i, j)] = p
    return entries


def suite_deform(max_r_skew: int = 20, max_r_a1: int = 16,
                 max_n_wahl: int = 6, max_r_first: int = 8) -> VerifyReport:
    report = VerifyReport('deform')

    def skew():
        for params in coprime_pairs(max_r_skew):
            dm = diff_matrix(params)
            assert dm.is_skew(), f'({params.r},{params.a}) not skew'

    _timed(report, f'differential matrix skew-symmetric, all (r,a), r <= {max_r_skew}',
           skew)

    def a1_formula():
        for r in range(2, max_r_a1 + 1):
            dm = diff_matrix(SingularityParams(r, 1))
            want = a1_diff_expected(r)
            for (i, j), p in want.items():
                assert dm.entry(i, j) == p, \
                    f'a=1 r={r}: entry ({i},{j}) = {dm.entry(i, j)} want {p}'

    _timed(report, f'a = 1 closed formula incl. +s in m_(1,r-1), r <= {max_r_a1}',
           a1_formula)

    def a1_visible_lists():
        for r in (2, 3, 4, 5, 6, 7):
            params = SingularityParams(r, 1)
            ops = insert_cochain(visible_contributions(params), r)
            # differentials
            for i in range(1, r):
                want = {}
                for k in range(i + 1, r):
                    for j in range(k + 1, r):
                        l = i + j - k
                        tt = Poly.var(tsub(k)) * Poly.var(tsub(l))
                        want[(j, 1)] = want.get((j, 1), Poly.zero()) + tt
                for jj in range(1, i):
                    for k in range(jj + 1, i):
                        l = jj + i - k
                        tt = Poly.var(tsub(k)) * Poly.var(tsub(l))
                        want[(jj, 1)] = want.get((jj, 1), Poly.zero()) - tt
                if r > 2:
                    if i == 1:
                        want[(r - 1, 1)] = want.get((r - 1, 1), Poly.zero()) + Poly.var(S)
                    if i == r - 1:
                        want[(1, 1)] = want.get((1, 1), Poly.zero()) - Poly.var(S)
                want = {k: v for k, v in want.items() if not v.is_zero()}
                assert ops.differentials[i] == want, \
                    f'a=1 r={r}: visible dw_{i} = {ops.differentials[i]} want {want}'
            # products
            want_pr = {}
            for i in range(1, r):
                for k in range(i + 1, r):
                    for j in range(k + 1, r):
                        l = i + j - k
                        cell = want_pr.setdefault((i, j), {})
                        cell[(l, 0)] = cell.get((l, 0), Poly.zero()) + Poly.var(tsub(k))
                        cell2 = want_pr.setdefault((j, i), {})
                        cell2[(k, 0)] = cell2.get((k, 0), Poly.zero()) - Poly.var(tsub(l))
            cell = want_pr.setdefault((r - 1, 1), {})
            cell[(0, 0)] = cell.get((0, 0), Poly.zero()) + Poly.var(S)
            for key, cell in ops.products.items():
                want = {k: v for k, v in want_pr.get(key, {}).items() if not v.is_zero()}
                assert cell == want, \
                    f'a=1 r={r}: visible product {key} = {cell} want {want}'

    _timed(report, 'a = 1 visible contributions match the exact lists, r <= 7',
           a1_visible_lists)

    def zero_cochain_limit():
        from .kkalg import poly_table
        for params in coprime_pairs(12):
            table = deformed_table(params, _zero_spec(params.r))
            assert table == poly_table(kk_table(params)), \
                f'({params.r},{params.a}) zero-cochain table differs'

    _timed(report, 'all cochain variables and s to 0: table is the undeformed one',
           zero_cochain_limit)

    def component_ideals():
        for params, specs in ((SingularityParams(15, 4), component_specs_15_4()),
                              (SingularityParams(19, 7), component_specs_19_7())):
            dm = diff_matrix(params)
            for name, spec in specs.items():
                assert check_point(params, spec, dm), \
                    f'{params}: component {name} does not annihilate the ideal'

    _timed(report, 'component parametrizations of 1/15(1,4), 1/19(1,7)',
           component_ideals)

    def wahl_vanishing():
        for n in range(2, max_n_wahl + 1):
            for q in range(1, n):
                if gcd(n, q) != 1:
                    continue
                params = SingularityParams(n * n, n * q - 1)
                spec = wahl_cochain(n, q)
                assert check_point(params, spec), f'({n},{q}) cochain not flat'

    _timed(report, f'Q-Gorenstein cochain annihilates the matrix, n <= {max_n_wahl}',
           wahl_vanishing)

    def sign_of_s_is_forced():
        # the s = +t^n variant of the one-parameter family misses the flat
        # locus already at n = 2: entry (1,3) becomes 2 t^2
        params = SingularityParams(4, 1)
        bad = CochainSpec(4, {tsub(2): Poly.var(T), S: Poly.var(T, 2)})
        dm = diff_matrix(params)
        sub = bad.substitution()
        assert not all(p.substitute(sub).is_zero() for _, p in dm.upper_entries())

    _timed(report, 'companion: s = +t^n variant fails at n = 2 (sign is forced)',
           sign_of_s_is_forced)

    def worked_r2():
        params = SingularityParams(2, 1)
        spec = CochainSpec(2, {tsub(1): Poly.var(tsub(1))})
        table = deformed_table(params, spec)
        want = {0: Poly.var(S), 1: Poly.var(tsub(1), 1, -1)}
        assert table.product(1, 1) == want, f'r=2: w_1^2 = {table.product(1, 1)}'

    _timed(report, 'worked r = 2: w_1^2 = s w_0 - t_1 w_1', worked_r2)

    def worked_r4_second():
        params = SingularityParams(4, 1)
        t2 = Poly.var(tsub(2))
        spec = CochainSpec(4, {tsub(2): t2, S: -(t2 * t2)})
        table = deformed_table(params, spec)
        z = Poly.zero()
        # reference presentation, with the w_3 w_1 sign corrected: the displayed
        # "w_3 w_1 - t_2 w_2 + t_2^2" is not associative ((w_3 w_1) w_2 would
        # be -2 t_2^2 w_2 while w_3 (w_1 w_2) = 0) and disagrees with the
        # matrix order; associativity and the order force -t_2 w_2 - t_2^2.
        want = {
            (1, 2): {}, (2, 3): {}, (1, 1): {}, (3, 3): {},
            (2, 2): {2: -t2},
            (1, 3): {2: t2},
            (3, 1): {2: -t2, 0: -(t2 * t2)},
            (3, 2): {3: -t2},
            (2, 1): {1: -t2},
        }
        for (j, i), cell in want.items():
            got = table.product(j, i)
            cell = {k: v for k, v in cell.items() if not v.is_zero()}
            assert got == cell, f'r=4 second component ({j},{i}): {got} want {cell}'
        assert table.associator_violation() is None
        # tau-fiber at t_2 = 1 is a full 2x2 matrix algebra
        ordr = build_order(2, 1)
        assert certify_full_matrix_fiber(ordr, 1), 'fiber at t=1 not Mat_2'
        rep = cross_check(2, 1)
        assert rep.matched and rep.identical

    _timed(report, 'worked r = 4 second component (displayed w_3 w_1 sign corrected) '
                   '+ Mat_2 fiber', worked_r4_second)

    def first_component():
        for r in range(3, max_r_first + 1):
            params = SingularityParams(r, 1)
            t1, tr = Poly.var(tsub(1)), Poly.var(tsub(r - 1))
            spec = CochainSpec(r, {tsub(1): t1, tsub(r - 1): tr, S: -(t1 * tr)})
            table = deformed_table(params, spec)
            for j in range(1, r):
                for i in range(1, r):
                    got = table.product(j, i)
                    if (j, i) == (r - 1, 1):
                        want = {1: -tr, r - 1: -t1, 0: -(t1 * tr)}
                    elif j == i == 1:
                        want = {1: -t1}
                    elif j == i == r - 1:
                        want = {r - 1: -tr}
                    elif j == i:
                        want = {}
                    elif j < i:
                        want = {}
                    elif i == 1:
                        want = {j: -t1}
                    elif j == r - 1:
                        want = {i: -tr}
                    else:
                        want = {}
                    assert got == want, f'(r,1) r={r} first component ({j},{i}): {got}'
            assert table.associator_violation() is None

    _timed(report, f'(r,1) first-component presentation, r <= {max_r_first}',
           first_component)

    def mc_vacuity():
        for params in coprime_pairs(32):
            degs = full_ainf(params).degrees_present()
            assert degs <= {0, 1}, f'({params.r},{params.a}): degrees {degs}'

    _timed(report, 'no degree-2 generators (Maurer-Cartan vacuous), r <= 32',
           mc_vacuity)
    return report


def _component_spec(r: int, zeros, images, s_image) -> CochainSpec:
    """Parametrized component: listed zeros, listed images, s as given, and
    every remaining coefficient kept free (mapped to itself)."""
    assignments = {tsub(k): Poly.zero() for k in zeros}
    for k, img in images.items():
        assignments[tsub(k)] = img
    for k in range(1, r):
        assignments.setdefault(tsub(k), Poly.var(tsub(k)))
    assignments[S] = s_image
    return CochainSpec(r, assignments)


def component_specs_15_4() -> dict:
    """The three reference component parametrizations for 1/15(1,4)."""
    t = lambda i: Poly.var(tsub(i))
    i1 = _component_spec(
        15, (13, 12, 11, 10, 9, 6, 5, 4, 3, 2),
        {14: t(7) * t(7), 8: t(1) * t(7)},
        -(t(1) * (t(7) * t(7))))
    i2 = _component_spec(
        15, (13, 10, 9, 8, 7, 6, 5, 2),
        {14: t(3) * t(11), 12: t(1) * t(11), 4: t(1) * t(3)},
        -(t(1) * (t(3) * t(11))))
    i3 = _component_spec(
        15, (14, 12, 10, 9, 8, 7, 6, 5, 3, 1),
        {13: t(2) * t(11), 4: t(2) * t(2)},
        -(t(2) * (t(2) * t(11))))
    return {'I1': i1, 'I2': i2, 'I3': i3}


def component_specs_19_7() -> dict:
    """The three reference component parametrizations for 1/19(1,7)."""
    t = lambda i: Poly.var(tsub(i))
    t7 = t(2) * t(5)
    t12 = t(5) * t7
    i1 = _component_spec(
        19, (4, 15, 6, 13, 16, 3, 1, 18, 8, 11),
        {7: t7, 12: t12, 14: t7 * t7, 17: t(5) * t12, 9: t(2) * t7,
         10: t(5) * t(5)},
        -(t7 * t12))
    t13 = t(5) * t(8)
    i2 = _component_spec(
        19, (4, 15, 7, 12, 16, 3, 2, 17),
        {13: t13, 14: t(1) * t13, 6: t(1) * t(5), 18: t(5) * t13,
         11: t(5) * (t(1) * t(5)), 9: t(1) * t(8), 10: t(5) * t(5)},
        -((t(1) * t(5)) * t13))
    t3 = t(1) * t(2)
    i3 = _component_spec(
        19, (4, 15, 7, 12, 6, 13, 5, 14),
        {3: t3, 18: t(2) * t(16), 11: t3 * t(8), 17: t(1) * t(16),
         9: t(1) * t(8), 10: t(2) * t(8)},
        -(t3 * t(16)))
    return {'I1': i1, 'I2': i2, 'I3': i3}


# ---------------------------------------------------------------------------
# order suite
# ---------------------------------------------------------------------------

def suite_order(max_n: int = 5) -> VerifyReport:
    report = VerifyReport('order')

    def goldens():
        for (n, q), rows in GOLDEN_MATRICES.items():
            if n > max_n:
                continue
            ordr = build_order(n, q)
            for i in range(n):
                for j in range(n):
                    got = format_cell(ordr.cells[i][j])
                    assert got == rows[i][j], \
                        f'(n={n},q={q}) cell ({i+1},{j+1}): {got!r} != {rows[i][j]!r}'
        ordr = build_order(2, 1)
        from .polyring import parse_poly
        for i in range(2):
            for j in range(2):
                displayed = parse_poly(EXAMPLE_2_1[i][j])
                flipped = Poly.zero()
                for m, c in displayed.terms.items():
                    sgn = 1
                    for v, e in m:
                        if v[0] == 'a' and v[1] in EXAMPLE_2_1_SIGN_FLIPS:
                            sgn *= EXAMPLE_2_1_SIGN_FLIPS[v[1]] ** e
                    flipped = flipped + Poly(dict([(m, sgn * c)]))
                got = parse_poly(format_cell(ordr.cells[i][j]))
                assert got == flipped, f'(2,1) cell ({i+1},{j+1})'

    _timed(report, 'golden matrices n = 2..5 term-for-term '
                   '(2,1 via the documented sign substitution)', goldens)

    for (n, q) in sorted(set(GOLDEN_MATRICES) | {(2, 1)}):
        if n > max_n:
            continue

        def one_order(n=n, q=q):
            ordr = build_order(n, q)
            consts = structure_constants(ordr)  # closure + polynomiality
            assert all(consts[(0, i)] == {i: _poly_one()} for i in range(ordr.r))
            rep0 = fiber_zero_report(ordr)
            assert rep0.matches, f'({n},{q}) t=0 fiber is not the expected algebra'
            for tau in (1, 2):
                assert certify_full_matrix_fiber(ordr, tau), \
                    f'({n},{q}) fiber at t={tau} does not span Mat_n'
            repi = infinity_fiber(ordr)
            assert repi.degree_bounds_ok, f'({n},{q}) degree bounds: {repi.violations[:3]}'
            assert repi.matches_negated, f'({n},{q}) infinity fiber mismatch'
            from .kkalg import AlgebraTable
            table = AlgebraTable(ordr.r, {p: dict(c) for p, c in consts.items()})
            assert table.associator_violation() is None

        _timed(report, f'order ({n},{q}): closure, t=0 fiber, Mat_n fibers, '
                       f'infinity fiber', one_order)
    return report


def _poly_one():
    return Poly.const(1)


# ---------------------------------------------------------------------------
# cross suite
# ---------------------------------------------------------------------------

def suite_cross(max_n: int = 4) -> VerifyReport:
    report = VerifyReport('cross')
    for n in range(2, max_n + 1):
        for q in range(1, n):
            if gcd(n, q) != 1:
                continue

            def one(n=n, q=q):
                rep = cross_check(n, q)
                assert rep.matched, f'({n},{q}) mismatch at {rep.first_mismatch}'
                return (True, 'identical' if rep.identical else
                        'up to diagonal signs')

            _timed(report, f'deformed table vs order constants ({n},{q})', one)
    return report


SUITES = {
    'kk': suite_kk,
    'deform': suite_deform,
    'order': suite_order,
    'cross': suite_cross,
}


def run_suite(name: str, **bounds) -> VerifyReport:
    if name == 'all':
        merged = VerifyReport('all')
        for key in ('kk', 'deform', 'order', 'cross'):
            rep = SUITES[key](**_filter_bounds(key, bounds))
            merged.checks.extend(
                VerifyCheck(f'{key}: {c.name}', c.passed, c.detail, c.elapsed)
                for c in rep.checks)
        return merged
    return SUITES[name](**_filter_bounds(name, bounds))


def _filter_bounds(suite: str, bounds: dict) -> dict:
    max_r = bounds.get('max_r')
    max_n = bounds.get('max_n')
    if suite == 'kk':
        return {'max_r': max_r} if max_r else {}
    if suite == 'deform':
        out = {}
        if max_r:
            out['max_r_skew'] = min(max_r, 20)
            out['max_r_a1'] = min(max_r, 16)
        if max_n:
            out['max_n_wahl'] = max_n
        return out
    if suite == 'order':
        return {'max_n': max_n} if max_n else {}
    if suite == 'cross':
        return {'max_n': max_n} if max_n else {}
    return {}
