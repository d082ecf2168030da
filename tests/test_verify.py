import wahlorder.order as order_mod
from wahlorder.verify import VerifyReport, _timed, suite_order


def test_timed_records_any_exception_as_fail():
    report = VerifyReport('x')

    def boom():
        raise ZeroDivisionError('division by zero')

    def failing():
        raise AssertionError('identity fails')

    _timed(report, 'error', boom)
    _timed(report, 'assertion', failing)
    _timed(report, 'fine', lambda: None)
    assert [(c.name, c.passed, c.detail) for c in report.checks] == [
        ('error', False, 'ZeroDivisionError: division by zero'),
        ('assertion', False, 'identity fails'),
        ('fine', True, ''),
    ]
    assert not report.passed


def test_solver_error_fails_one_check_not_the_suite(monkeypatch):
    def not_closed(basis, targets):
        raise ArithmeticError('not closed')

    monkeypatch.setattr(order_mod, 'solve_in_basis', not_closed)
    report = suite_order(max_n=3)
    by_name = {c.name: c for c in report.checks}
    assert by_name['golden matrices n = 2..5 term-for-term '
                   '(2,1 via the documented sign substitution)'].passed
    failed = [c for c in report.checks if not c.passed]
    assert len(failed) == 3  # (2,1), (3,1) and (3,2)
    assert all(c.detail == 'ArithmeticError: not closed' for c in failed)
    assert 'suite order: FAIL' in report.render()
