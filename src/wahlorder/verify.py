"""Verification suites bundling the package's exact acceptance checks.

Each suite returns a VerifyReport with one VerifyCheck per named criterion;
the CLI `verify` command and the acceptance tests both run these.  A check
is a `with report.check(name)` block that passes unless it raises.  All
checks are exact (integer / polynomial identities).

A suite takes at most the two bounds of `verify`: max_r, the largest r of
the pairs (r, a), and max_n, the largest n of the Wahl pairs (n, q).
run_suite passes each suite the ones it reads (kk takes max_r, deform both,
order and cross max_n) and refuses a bound that the suite does not read.
The caps sit in the suites: kk stops commutativity at r = 20 and the Gauss
words at r = 24, and deform stops skew-symmetry at r = 20 and the a = 1
formula at r = 16.  Deform's other checks have fixed ranges, named in their
titles (the degree check, r <= 32, is the largest).  Each suite imports the
layers it reads when it runs, so the kk suite loads none of ainf, deform,
order and goldens.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from math import gcd

from .resarith import SingularityParams, WahlParams, gamma
from .polyring import Poly, S, T, tsub, acoef, parse_poly
from .kkalg import (kk_table, young_diagram, gauss_word, dual_relabel,
                    poly_table)


class VerifyCheck:
    def __init__(self, name: str, passed: bool, detail: str, elapsed: float):
        self.name, self.passed = name, passed
        self.detail, self.elapsed = detail, elapsed


class VerifyReport:
    def __init__(self, suite: str):
        self.suite = suite
        self.checks = []

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

    @contextmanager
    def check(self, name: str, detail: str = ''):
        """Time the block and record one check: it passes with detail unless
        the block raises.  An Exception fails this check only; anything else
        (KeyboardInterrupt) propagates and records nothing."""
        start = time.perf_counter()
        try:
            yield
            passed = True
        except AssertionError as exc:
            passed, detail = False, str(exc)
        except Exception as exc:  # an error fails this check, not the suite
            passed, detail = False, f'{type(exc).__name__}: {exc}'
        self.checks.append(VerifyCheck(name, passed, detail,
                                       time.perf_counter() - start))

    def render(self) -> str:
        lines = []
        for c in self.checks:
            status = 'PASS' if c.passed else 'FAIL'
            tail = f'  [{c.detail}]' if c.detail and not c.passed else ''
            lines.append(f'{status}  {c.name}  ({c.elapsed:.2f}s){tail}')
        lines.append(f'suite {self.suite}: {"PASS" if self.passed else "FAIL"}')
        return '\n'.join(lines) + '\n'


class CheckFailed(AssertionError):
    """An exact identity did not hold; unlike `assert`, survives `python -O`."""


def _require(cond, msg=''):
    if not cond:
        raise CheckFailed(msg)


def wahl_pairs(max_n: int):
    """Every coprime (n, q) with 1 <= q < n <= max_n, in order."""
    return [(n, q) for n in range(2, max_n + 1) for q in range(1, n)
            if gcd(n, q) == 1]


def coprime_pairs(max_r: int):
    for r in range(2, max_r + 1):
        for a in range(1, r):
            if gcd(a, r) == 1:
                yield SingularityParams(r, a)


# ---------------------------------------------------------------------------
# kk suite
# ---------------------------------------------------------------------------

def _kk_pair_check(params: SingularityParams):
    """kk_table, the gap rule, equals the table of the lattice Young diagram
    (box (x, y) labelled l is w_{gamma(x,0)} w_y = w_l), unital, associative.
    Returns the table it checked."""
    r, a = params.r, params.a
    table = kk_table(params)
    column = [gamma((x, 0), params) for x in range(r)]
    young = {(column[x], y): {label: 1}
             for x, y, label in young_diagram(params).boxes()}
    if table.products != young:
        j, i = min(key for key in table.products.keys() | young.keys()
                   if table.products.get(key) != young.get(key))
        raise CheckFailed(f'({r},{a}): table/young disagree at ({j},{i})')
    _require(table.is_unital(), f'({r},{a}): not unital')
    bad = table.associator_violation()
    _require(not bad, f'({r},{a}): associativity fails at {bad}')
    return table


def suite_kk(max_r: int = 32) -> VerifyReport:
    report = VerifyReport('kk')
    # each pair's table, built once: the first clause keeps the tables it
    # checked, and a pair it did not reach is built at its first read
    tables = {}

    def table_of(params):
        key = params.r, params.a
        if key not in tables:
            tables[key] = kk_table(params)
        return tables[key]

    with report.check(f'oracle equivalence + associativity, r <= {max_r}'):
        for params in coprime_pairs(max_r):
            tables[params.r, params.a] = _kk_pair_check(params)

    with report.check('reference (9,2) table: w_4 w_i only'):
        table = table_of(SingularityParams(9, 2))
        want = {(4, 1): {5: 1}, (4, 2): {6: 1}, (4, 3): {7: 1}, (4, 4): {8: 1}}
        got = dict(table.nontrivial_products())
        _require(got == want, f'(9,2) nontrivial products {got}')

    with report.check('commutativity iff a in {1, r-1}; truncated/square-zero forms'):
        for params in coprime_pairs(min(max_r, 20)):
            r, a = params.r, params.a
            table = table_of(params)
            commutative = table == table.opposite()
            _require(commutative == (a in (1, r - 1)),
                     f'({r},{a}): commutative={commutative}')
            if a == r - 1:
                for j in range(r):
                    for i in range(r):
                        want = {(j + i) % r: 1} if j + i < r else {}
                        _require(table.product(j, i) == want,
                                 f'({r},{a}) truncated-polynomial rule fails at ({j},{i})')
            if a == 1:
                _require(not table.nontrivial_products(),
                         f'({r},1) radical should square to zero')

    with report.check(f'opposite duality with index twist k -> [-a k], r <= {max_r}'):
        for params in coprime_pairs(max_r):
            dual = SingularityParams(params.r, params.b)
            twisted = table_of(dual).opposite().relabel(dual_relabel(params))
            _require(twisted == table_of(params),
                     f'duality fails at ({params.r},{params.a})')

    with report.check('Gauss word: every nonzero label exactly twice'):
        for params in coprime_pairs(min(max_r, 24)):
            w = gauss_word(params)
            _require(len(w) == 2 * (params.r - 1))
            for lbl in range(1, params.r):
                _require(w.count(lbl) == 2, f'({params.r},{params.a}): label {lbl}')
    return report


# ---------------------------------------------------------------------------
# deform suite
# ---------------------------------------------------------------------------

def a1_diff_expected(r: int):
    """Closed form for a = 1: m_ij = sum_{k=i}^{j-1} t_k t_{i+j-k} (i < j),
    plus s in m_{1, r-1} when r > 2."""
    entries = {}
    for i in range(1, r):
        for j in range(i + 1, r):
            p = Poly.zero()
            for k in range(i, j):
                p = p + Poly.var(tsub(k)) * Poly.var(tsub(i + j - k))
            if (i, j) == (1, r - 1) and r > 2:
                p = p + Poly.var(S)
            entries[(i, j)] = p
    return entries


def suite_deform(max_r: int = 20, max_n: int = 6) -> VerifyReport:
    from .ainf import full_ainf, visible_contributions
    from .deform import (insert_cochain, diff_matrix, check_point,
                         deformed_table, CochainSpec)
    from .order import (build_order, certify_full_matrix_fiber, wahl_cochain,
                        cross_check)
    report = VerifyReport('deform')
    max_r_skew, max_r_a1 = min(max_r, 20), min(max_r, 16)

    with report.check(f'differential matrix skew-symmetric, all (r,a), '
                      f'r <= {max_r_skew}'):
        for params in coprime_pairs(max_r_skew):
            dm = diff_matrix(params)
            _require(dm.is_skew(), f'({params.r},{params.a}) not skew')

    with report.check(f'a = 1 closed formula incl. +s in m_(1,r-1), r <= {max_r_a1}'):
        for r in range(2, max_r_a1 + 1):
            dm = diff_matrix(SingularityParams(r, 1))
            want = a1_diff_expected(r)
            for (i, j), p in want.items():
                _require(dm.entry(i, j) == p,
                         f'a=1 r={r}: entry ({i},{j}) = {dm.entry(i, j)} want {p}')

    with report.check('a = 1 visible contributions match the exact lists, r <= 7'):
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
                        want[j] = want.get(j, Poly.zero()) + tt
                for jj in range(1, i):
                    for k in range(jj + 1, i):
                        l = jj + i - k
                        tt = Poly.var(tsub(k)) * Poly.var(tsub(l))
                        want[jj] = want.get(jj, Poly.zero()) - tt
                if r > 2:
                    if i == 1:
                        want[r - 1] = want.get(r - 1, Poly.zero()) + Poly.var(S)
                    if i == r - 1:
                        want[1] = want.get(1, Poly.zero()) - Poly.var(S)
                want = {k: v for k, v in want.items() if not v.is_zero()}
                _require(ops.differentials[i] == want,
                         f'a=1 r={r}: visible dw_{i} = {ops.differentials[i]} want {want}')
            # products
            want_pr = {}
            for i in range(1, r):
                for k in range(i + 1, r):
                    for j in range(k + 1, r):
                        l = i + j - k
                        cell = want_pr.setdefault((i, j), {})
                        cell[l] = cell.get(l, Poly.zero()) + Poly.var(tsub(k))
                        cell2 = want_pr.setdefault((j, i), {})
                        cell2[k] = cell2.get(k, Poly.zero()) - Poly.var(tsub(l))
            cell = want_pr.setdefault((r - 1, 1), {})
            cell[0] = cell.get(0, Poly.zero()) + Poly.var(S)
            for key, cell in ops.products.items():
                want = {k: v for k, v in want_pr.get(key, {}).items() if not v.is_zero()}
                _require(cell == want,
                         f'a=1 r={r}: visible product {key} = {cell} want {want}')

    with report.check('all cochain variables and s to 0: table is the undeformed one'):
        for params in coprime_pairs(12):
            table = deformed_table(params, CochainSpec(params.r, {S: Poly.zero()}))
            _require(table == poly_table(kk_table(params)),
                     f'({params.r},{params.a}) zero-cochain table differs')

    with report.check('component parametrizations of 1/15(1,4), 1/19(1,7)'):
        for params, specs in ((SingularityParams(15, 4), component_specs_15_4()),
                              (SingularityParams(19, 7), component_specs_19_7())):
            for name, spec in specs.items():
                _require(check_point(params, spec),
                         f'{params}: component {name} does not annihilate the ideal')

    with report.check(f'Q-Gorenstein cochain annihilates the matrix, n <= {max_n}'):
        for (n, q) in wahl_pairs(max_n):
            _require(check_point(WahlParams(n, q).params, wahl_cochain(n, q)),
                     f'({n},{q}) cochain not flat')

    with report.check('companion: s = +t^n variant fails at n = 2 (sign is forced)'):
        # the s = +t^n variant of the one-parameter family misses the flat
        # locus already at n = 2: entry (1,3) becomes 2 t^2
        params = SingularityParams(4, 1)
        bad = CochainSpec(4, {tsub(2): Poly.var(T), S: Poly.var(T, 2)})
        _require(not check_point(params, bad))

    with report.check('worked r = 2: w_1^2 = s w_0 - t_1 w_1'):
        params = SingularityParams(2, 1)
        spec = CochainSpec(2, {tsub(1): Poly.var(tsub(1))})
        table = deformed_table(params, spec)
        want = {0: Poly.var(S), 1: Poly.var(tsub(1), 1, -1)}
        _require(table.product(1, 1) == want, f'r=2: w_1^2 = {table.product(1, 1)}')

    with report.check('worked r = 4 second component (displayed w_3 w_1 sign corrected) '
                      '+ Mat_2 fiber'):
        params = SingularityParams(4, 1)
        t2 = Poly.var(tsub(2))
        spec = CochainSpec(4, {tsub(2): t2, S: -(t2 * t2)})
        table = deformed_table(params, spec)
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
            _require(got == cell, f'r=4 second component ({j},{i}): {got} want {cell}')
        _require(table.associator_violation() is None)
        # tau-fiber at t_2 = 1 is a full 2x2 matrix algebra
        ordr = build_order(2, 1)
        _require(certify_full_matrix_fiber(ordr, 1), 'fiber at t=1 not Mat_2')
        rep = cross_check(2, 1)
        _require(rep.matched)

    with report.check('(r,1) first-component presentation, r <= 8'):
        for r in range(3, 9):
            params = SingularityParams(r, 1)
            t1, tr = Poly.var(tsub(1)), Poly.var(tsub(r - 1))
            spec = CochainSpec(r, {tsub(1): t1, tsub(r - 1): tr, S: -(t1 * tr)})
            table = deformed_table(params, spec)
            # the nonzero cells; every other product vanishes
            want = {(j, 1): {j: -t1} for j in range(1, r - 1)}
            want.update({(r - 1, i): {i: -tr} for i in range(2, r)})
            want[r - 1, 1] = {1: -tr, r - 1: -t1, 0: -(t1 * tr)}
            for j in range(1, r):
                for i in range(1, r):
                    got = table.product(j, i)
                    _require(got == want.get((j, i), {}),
                             f'(r,1) r={r} first component ({j},{i}): {got}')
            _require(table.associator_violation() is None)

    with report.check('no degree-2 generators (Maurer-Cartan vacuous), r <= 32'):
        # every m_k entry has deg(out) = sum deg(inputs) + 2 - k, a code's
        # degree its parity bit: no output lands in degree 2, so the
        # Maurer-Cartan equation is vacuous.  Every code is 2i + d, i in Z_r.
        for params in coprime_pairs(32):
            r, a = params.r, params.a
            n = 2 * r
            table = full_ainf(params)
            bad = []  # (inputs, output, wanted degree) off the grading or range
            for (x,), cell in table.m1.items():
                want = (x & 1) + 1
                for out in cell:
                    if out & 1 != want or not (0 <= x < n and 0 <= out < n):
                        bad.append(((x,), out, want))
            for (a2, a1), cell in table.m2.items():
                want = (a2 & 1) + (a1 & 1)
                for out in cell:
                    if (out & 1 != want
                            or not (0 <= a2 < n and 0 <= a1 < n and 0 <= out < n)):
                        bad.append(((a2, a1), out, want))
            for (a3, a2, a1), cell in table.m3.items():
                want = (a3 & 1) + (a2 & 1) + (a1 & 1) - 1
                for out in cell:
                    if (out & 1 != want
                            or not (0 <= a3 < n and 0 <= a2 < n and 0 <= a1 < n
                                    and 0 <= out < n)):
                        bad.append(((a3, a2, a1), out, want))
            stray = {c for key, out, _ in bad for c in (*key, out)
                     if not 0 <= c < n}
            _require(not stray, f'({r},{a}): generator codes {sorted(stray)} '
                                f'outside range({n})')
            for key, out, want in bad:
                _require(out & 1 == want,
                         f'({r},{a}): m_{len(key)}({", ".join(map(str, key))}) '
                         f'-> {out} has degree {out & 1}, the grading wants {want}')
    return report


def _component_spec(r: int, zeros, images, s_image) -> CochainSpec:
    """Parametrized component: listed zeros, listed images, s as given, and
    every remaining coefficient kept free (mapped to itself)."""
    from .deform import CochainSpec
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

def suite_order(max_n: int = 7) -> VerifyReport:
    from .order import (build_order, constants_table, fiber_zero_report,
                        certify_full_matrix_fiber, infinity_fiber, format_cell)
    from .goldens import GOLDEN_MATRICES, EXAMPLE_2_1, EXAMPLE_2_1_SIGN_FLIPS
    report = VerifyReport('order')

    with report.check('golden matrices n = 2..5 term-for-term '
                      '(2,1 via the documented sign substitution)'):
        for (n, q), rows in GOLDEN_MATRICES.items():
            if n > max_n:
                continue
            ordr = build_order(n, q)
            for i in range(n):
                for j in range(n):
                    got = format_cell(ordr.cells[i][j])
                    _require(got == rows[i][j],
                             f'(n={n},q={q}) cell ({i+1},{j+1}): {got!r} != {rows[i][j]!r}')
        ordr = build_order(2, 1)
        flips = {acoef(k): Poly.var(acoef(k), 1, sign)
                 for k, sign in EXAMPLE_2_1_SIGN_FLIPS.items()}
        for i in range(2):
            for j in range(2):
                flipped = parse_poly(EXAMPLE_2_1[i][j]).substitute(flips)
                got = parse_poly(format_cell(ordr.cells[i][j]))
                _require(got == flipped, f'(2,1) cell ({i+1},{j+1})')

    for (n, q) in wahl_pairs(max_n):
        with report.check(f'order ({n},{q}): closure, t=0 fiber, Mat_n fibers, '
                          f'infinity fiber'):
            ordr = build_order(n, q)
            table = constants_table(ordr)  # closure + polynomiality
            _require(table.is_unital(), f'({n},{q}) constants are not unital')
            rep0 = fiber_zero_report(ordr)
            _require(rep0.matches, f'({n},{q}) t=0 fiber is not the expected algebra')
            for tau in (1, 2):
                _require(certify_full_matrix_fiber(ordr, tau),
                         f'({n},{q}) fiber at t={tau} does not span Mat_n')
            repi = infinity_fiber(ordr)
            _require(repi.degree_bounds_ok,
                     f'({n},{q}) degree bounds: {repi.violations[:3]}')
            _require(repi.matches_negated, f'({n},{q}) infinity fiber mismatch')
            _require(table.associator_violation() is None)
    return report


# ---------------------------------------------------------------------------
# cross suite
# ---------------------------------------------------------------------------

def suite_cross(max_n: int = 6) -> VerifyReport:
    from .order import cross_check
    report = VerifyReport('cross')
    for (n, q) in wahl_pairs(max_n):
        with report.check(f'deformed table vs order constants ({n},{q})',
                          'identical'):
            rep = cross_check(n, q)
            _require(rep.matched, f'({n},{q}) mismatch at {rep.first_mismatch}')
    return report


# each suite and the bounds it takes
SUITES = {
    'kk': (suite_kk, ('max_r',)),
    'deform': (suite_deform, ('max_r', 'max_n')),
    'order': (suite_order, ('max_n',)),
    'cross': (suite_cross, ('max_n',)),
}


def run_suite(name: str, max_r: int = None, max_n: int = None) -> VerifyReport:
    """Run one suite, or every suite for 'all'; a bound left at None keeps
    the suite's default, and a bound the suite does not read is refused."""
    given = {'max_r': max_r, 'max_n': max_n}
    if name != 'all':
        if name not in SUITES:
            raise ValueError(f'unknown suite {name!r}: the suites are '
                             f"{', '.join(SUITES)} and all")
        for axis, value in given.items():
            if value is not None and axis not in SUITES[name][1]:
                raise ValueError(f'the {name} suite does not read {axis}')

    def run(key):
        suite, axes = SUITES[key]
        return suite(**{axis: given[axis] for axis in axes
                        if given[axis] is not None})

    if name != 'all':
        return run(name)
    merged = VerifyReport('all')
    for key in SUITES:
        merged.checks.extend(
            VerifyCheck(f'{key}: {c.name}', c.passed, c.detail, c.elapsed)
            for c in run(key).checks)
    return merged

