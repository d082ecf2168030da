import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wahlorder
import wahlorder.order as order_mod
import wahlorder.verify as verify_mod
from wahlorder.kkalg import AlgebraTable
from wahlorder.resarith import SingularityParams
from wahlorder.verify import CheckFailed, VerifyReport, _require, suite_order


def test_timed_records_any_exception_as_fail():
    # report.check times its block and records an exception as a fail
    report = VerifyReport('x')
    with report.check('error'):
        raise ZeroDivisionError('division by zero')
    with report.check('assertion'):
        raise AssertionError('identity fails')
    with report.check('fine'):
        pass
    assert [(c.name, c.passed, c.detail) for c in report.checks] == [
        ('error', False, 'ZeroDivisionError: division by zero'),
        ('assertion', False, 'identity fails'),
        ('fine', True, ''),
    ]
    assert not report.passed
    with pytest.raises(KeyboardInterrupt):
        with report.check('interrupted'):
            raise KeyboardInterrupt
    assert len(report.checks) == 3


def test_timed_passes_only_on_none():
    # a block passes, with its detail, only when it raises nothing
    report = VerifyReport('x')
    with report.check('require'):
        _require(1 + 1 == 3, 'arithmetic')
    with report.check('detail', 'identical'):
        pass
    with report.check('failing', 'identical'):
        _require(False, 'broken')
    assert [(c.name, c.passed, c.detail) for c in report.checks] == [
        ('require', False, 'arithmetic'),
        ('detail', True, 'identical'),
        ('failing', False, 'broken'),
    ]
    assert all(c.elapsed >= 0 for c in report.checks)


def test_solver_error_fails_one_check_not_the_suite(monkeypatch):
    def not_closed(plan, label, residual, heap):
        raise ArithmeticError('not closed')

    monkeypatch.setattr(order_mod, '_solve', not_closed)
    report = suite_order(max_n=3)
    by_name = {c.name: c for c in report.checks}
    assert by_name['golden matrices n = 2..5 term-for-term '
                   '(2,1 via the documented sign substitution)'].passed
    failed = [c for c in report.checks if not c.passed]
    assert len(failed) == 3  # (2,1), (3,1) and (3,2)
    assert all(c.detail == 'ArithmeticError: not closed' for c in failed)
    assert 'suite order: FAIL' in report.render()


def test_order_suite_checks_every_pair_up_to_max_n():
    # the golden displays stop at n = 5; the per-order checks do not
    report = suite_order(max_n=6)
    pairs = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 1), (5, 2), (5, 3),
             (5, 4), (6, 1), (6, 5)]
    assert [c.name for c in report.checks[1:]] == [
        f'order ({n},{q}): closure, t=0 fiber, Mat_n fibers, infinity fiber'
        for n, q in pairs]
    assert report.passed


def test_run_suite_rejects_an_unknown_bound():
    with pytest.raises(TypeError):
        verify_mod.run_suite('cross', max_m=2)


def test_run_suite_rejects_an_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite 'bogus': the suites "
                                         "are kk, deform, order, cross and all"):
        verify_mod.run_suite('bogus')


def test_each_suite_takes_the_bounds_it_is_listed_with():
    for name, (suite, axes) in verify_mod.SUITES.items():
        assert tuple(inspect.signature(suite).parameters) == axes, name


def test_require_raises_check_failed():
    _require(True, 'fine')
    with pytest.raises(CheckFailed, match='broken'):
        _require(False, 'broken')
    assert issubclass(CheckFailed, AssertionError)


def test_kk_pair_check_names_the_disagreement(monkeypatch):
    # the least cell where kk_table and the lattice Young diagram differ
    monkeypatch.setattr(verify_mod, 'kk_table', lambda params: AlgebraTable(params.r))
    with pytest.raises(CheckFailed) as info:
        verify_mod._kk_pair_check(SingularityParams(5, 2))
    assert str(info.value) == '(5,2): table/young disagree at (0,0)'
    monkeypatch.undo()
    young = verify_mod.young_diagram

    def taller(params):
        # column 4 of 1/5(1,2) one box taller: box (4, 1) reads w_3 w_1
        diagram = young(params)
        diagram._heights[4] += 1
        return diagram

    monkeypatch.setattr(verify_mod, 'young_diagram', taller)
    with pytest.raises(CheckFailed) as info:
        verify_mod._kk_pair_check(SingularityParams(5, 2))
    assert str(info.value) == '(5,2): table/young disagree at (3,1)'


def test_kk_suite_builds_each_table_once(monkeypatch):
    built = []
    kk_table = verify_mod.kk_table

    def counted(params):
        built.append((params.r, params.a))
        return kk_table(params)

    monkeypatch.setattr(verify_mod, 'kk_table', counted)
    assert verify_mod.suite_kk(max_r=10).passed
    pairs = [(p.r, p.a) for p in verify_mod.coprime_pairs(10)]
    assert built == pairs
    # the first clause fails at (5,2), and the clauses after it build that
    # table again and every table it did not reach, and still pass
    young = verify_mod.young_diagram

    def taller(params):
        diagram = young(params)
        if (params.r, params.a) == (5, 2):
            diagram._heights[4] += 1
        return diagram

    monkeypatch.setattr(verify_mod, 'young_diagram', taller)
    built.clear()
    report = verify_mod.suite_kk(max_r=10)
    assert [c.passed for c in report.checks] == [False, True, True, True, True]
    assert sorted(built) == sorted(pairs + [(5, 2)])


_SABOTAGE = """
import wahlorder.verify as v
from wahlorder.kkalg import AlgebraTable
kk_table = v.kk_table
{sabotage}
print(v.suite_kk(max_r=8).render(), end='')
"""

# every non-unit product negated, except in the commutative families and
# at r = 9, where the other kk checks would catch it
_NEGATED = """
def negated(p):
    t = kk_table(p)
    if p.r != 9 and p.a not in (1, p.r - 1):
        t.products = {(j, i): {k: -c for k, c in cell.items()} if j and i else cell
                      for (j, i), cell in t.products.items()}
    return t
v.kk_table = negated
"""

# the last column of every diagram one box taller than the lattice allows
_TALLER = """
young = v.young_diagram
def taller(p):
    d = young(p)
    d._heights[-1] += 1
    return d
v.young_diagram = taller
"""


@pytest.mark.parametrize('sabotage,verdict', [
    ('v.kk_table = lambda p: AlgebraTable(p.r)', 'FAIL'),
    (_NEGATED, 'FAIL'),
    (_TALLER, 'FAIL'),
    ('', 'PASS'),
], ids=['empty-table', 'negated-table', 'taller-column', 'clean'])
def test_kk_verdict_survives_python_O(sabotage, verdict):
    # an empty kk_table, one whose products disagree with the gap rule, or a
    # Young diagram with one box too many must fail the suite even with
    # assert statements compiled out
    src = Path(wahlorder.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, '-O', '-c', _SABOTAGE.format(sabotage=sabotage)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(f'suite kk: {verdict}\n')


_CODE_SABOTAGE = """
import wahlorder.ainf as ainf
import wahlorder.deform  # binds the unpatched full_ainf for its own use
import wahlorder.verify as v
from wahlorder.resarith import SingularityParams
params = SingularityParams(5, 2)
table = ainf.full_ainf(params)
{sabotage}
v.coprime_pairs = lambda max_r: iter([params])
ainf.full_ainf = lambda p: table  # the name the deform suite imports
print(v.suite_deform(max_r=2, max_n=2).render(), end='')
"""


@pytest.mark.parametrize('sabotage,tail', [
    # w_5 as an input, then as an output: both are outside Z_5
    ('table.m3[(1, 10, 4)] = {0: (1, 0)}',
     'FAIL  no degree-2 generators (Maurer-Cartan vacuous), r <= 32  (X)  '
     '[(5,2): generator codes [10] outside range(10)]\nsuite deform: FAIL\n'),
    ('table.m2[(2, 2)] = {11: (0, 1)}',
     'FAIL  no degree-2 generators (Maurer-Cartan vacuous), r <= 32  (X)  '
     '[(5,2): generator codes [11] outside range(10)]\nsuite deform: FAIL\n'),
    # an output with its degree flipped, and a Maurer-Cartan entry (both
    # inputs of degree 1) that insert_cochain would drop unread
    ('table.m3[(3, 2, 3)] = {2: (-1, 0)}',
     'FAIL  no degree-2 generators (Maurer-Cartan vacuous), r <= 32  (X)  '
     '[(5,2): m_3(3, 2, 3) -> 2 has degree 0, the grading wants 1]\n'
     'suite deform: FAIL\n'),
    ('table.m1[(4,)] = {2: (1, 0)}',
     'FAIL  no degree-2 generators (Maurer-Cartan vacuous), r <= 32  (X)  '
     '[(5,2): m_1(4) -> 2 has degree 0, the grading wants 1]\n'
     'suite deform: FAIL\n'),
    ('table.m2[(3, 5)] = {2: (1, 0)}',
     'FAIL  no degree-2 generators (Maurer-Cartan vacuous), r <= 32  (X)  '
     '[(5,2): m_2(3, 5) -> 2 has degree 0, the grading wants 2]\n'
     'suite deform: FAIL\n'),
    ('',
     'PASS  no degree-2 generators (Maurer-Cartan vacuous), r <= 32  (X)\n'
     'suite deform: PASS\n'),
], ids=['stray-input', 'stray-output', 'flipped-degree', 'm1-flipped-degree',
        'mc-entry', 'clean'])
def test_degree_check_reads_codes_under_python_O(sabotage, tail):
    # an A-infinity table with a generator code outside range(2r) or an
    # entry off the grading must fail the degree check even with assert
    # statements compiled out
    src = Path(wahlorder.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, '-O', '-c', _CODE_SABOTAGE.format(sabotage=sabotage)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = re.sub(r'\(\d+\.\d\ds\)', '(X)', proc.stdout)
    assert out.endswith(tail)


def test_the_package_holds_no_assert_statement():
    # python -O compiles assert statements out, so a check written as one
    # would vanish; every check in the package raises instead
    package = Path(wahlorder.__file__).resolve().parent
    found = [f'{path.name}:{node.lineno}'
             for path in sorted(package.glob('*.py'))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
