"""The benchmark in perfbench/ drives wahlorder through its public names and
reads fields off the order reports.  These tests read perfbench/sweeps.py
with ast (without importing it) so that a change to the library cannot
silently break the benchmark."""

import ast
import inspect
from pathlib import Path

import wahlorder
from wahlorder import build_order, cross_check, fiber_zero_report, infinity_fiber

SWEEPS = Path(__file__).resolve().parents[1] / 'perfbench' / 'sweeps.py'

# the report fields the sweeps read, by the function that returns the report
REPORT_FIELDS = {
    'fiber_zero_report': {'matches'},
    'infinity_fiber': {'degree_bounds_ok', 'matches_negated'},
    'cross_check': {'matched', 'identical', 'first_mismatch'},
}


def _sweeps():
    return ast.parse(SWEEPS.read_text(), str(SWEEPS))


def _imported_names(tree) -> list:
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == 'wahlorder'
            for alias in node.names]


def _report_reads(tree) -> dict:
    """{function: attributes read} for every `x = function(...)` in a
    function body whose callee is in REPORT_FIELDS, and each x.attr there."""
    reads = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        bound = {}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id in REPORT_FIELDS):
                bound[node.targets[0].id] = node.value.func.id
        for node in ast.walk(fn):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in bound):
                reads.setdefault(bound[node.value.id], set()).add(node.attr)
    return reads


def _library_calls(tree) -> list:
    """(name, positional count, keyword names) for every call in the
    sweeps of a name imported from wahlorder."""
    names = set(_imported_names(tree))
    calls = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in names):
            # a *args or **kwargs call could not be counted
            assert not any(isinstance(a, ast.Starred) for a in node.args)
            assert all(k.arg is not None for k in node.keywords)
            calls.append((node.func.id, len(node.args),
                          tuple(k.arg for k in node.keywords)))
    return calls


def test_benchmark_imports_are_exported():
    names = _imported_names(_sweeps())
    assert 'cross_check' in names and 'fiber_zero_report' in names
    assert [n for n in names if not hasattr(wahlorder, n)] == []


def test_benchmark_report_fields_exist():
    assert _report_reads(_sweeps()) == REPORT_FIELDS
    ordr = build_order(2, 1)
    reports = {'fiber_zero_report': fiber_zero_report(ordr),
               'infinity_fiber': infinity_fiber(ordr),
               'cross_check': cross_check(2, 1)}
    for fn, fields in REPORT_FIELDS.items():
        for f in fields:
            assert hasattr(reports[fn], f), (fn, f)


def test_benchmark_calls_bind_to_the_signatures():
    calls = _library_calls(_sweeps())
    assert {('diff_matrix', 2, ()), ('insert_cochain', 2, ()),
            ('AlgebraTable', 2, ()), ('cross_check', 2, ())} <= set(calls)
    for name, npos, keywords in calls:
        sig = inspect.signature(getattr(wahlorder, name))
        sig.bind(*[None] * npos, **dict.fromkeys(keywords))
