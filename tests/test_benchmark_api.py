"""The benchmark in perfbench/ drives wahlorder through its public names and
reads attributes off what they return.  These tests read perfbench/sweeps.py
with ast (without importing it) so that a change to the library cannot
silently break the benchmark."""

import ast
import inspect
from pathlib import Path

import wahlorder
from wahlorder import (AlgebraTable, SingularityParams, build_order, cross_check,
                       diff_matrix, fiber_zero_report, full_ainf, infinity_fiber,
                       kk_table, structure_constants, young_diagram)

SWEEPS = Path(__file__).resolve().parents[1] / 'perfbench' / 'sweeps.py'

# the attributes the sweeps read, by the function whose result they read
READS = {
    'AlgebraTable': {'associator_violation'},
    'SingularityParams': {'b'},
    'build_order': {'r'},
    'cross_check': {'matched', 'identical', 'first_mismatch'},
    'diff_matrix': {'is_skew', 'upper_entries'},
    'fiber_zero_report': {'matches'},
    'full_ainf': {'m2', 'm3', 'degrees_present'},
    'infinity_fiber': {'degree_bounds_ok', 'matches_negated'},
    'kk_table': {'products', 'is_unital', 'associator_violation'},
    'structure_constants': {'items', 'values'},
    'young_diagram': {'product'},
}


def _sweeps():
    return ast.parse(SWEEPS.read_text(), str(SWEEPS))


def _imported_names(tree) -> list:
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == 'wahlorder'
            for alias in node.names]


def _reads(tree) -> dict:
    """{function: attributes read} for every `x = function(...)` in a
    function body whose callee is imported from wahlorder, and each x.attr
    there."""
    names = set(_imported_names(tree))
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
                    and node.value.func.id in names):
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
    assert _reads(_sweeps()) == READS
    params = SingularityParams(3, 1)
    ordr = build_order(2, 1)
    results = {'AlgebraTable': AlgebraTable(2, {}),
               'SingularityParams': params,
               'build_order': ordr,
               'cross_check': cross_check(2, 1),
               'diff_matrix': diff_matrix(params),
               'fiber_zero_report': fiber_zero_report(ordr),
               'full_ainf': full_ainf(params),
               'infinity_fiber': infinity_fiber(ordr),
               'kk_table': kk_table(params),
               'structure_constants': structure_constants(ordr),
               'young_diagram': young_diagram(params)}
    for fn, attrs in READS.items():
        for attr in attrs:
            assert hasattr(results[fn], attr), (fn, attr)


def test_benchmark_calls_bind_to_the_signatures():
    calls = _library_calls(_sweeps())
    assert {('diff_matrix', 2, ()), ('insert_cochain', 2, ()),
            ('AlgebraTable', 2, ()), ('cross_check', 2, ())} <= set(calls)
    for name, npos, keywords in calls:
        sig = inspect.signature(getattr(wahlorder, name))
        sig.bind(*[None] * npos, **dict.fromkeys(keywords))
