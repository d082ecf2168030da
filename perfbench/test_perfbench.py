"""Tests of the benchmark itself, at tiny instance bounds.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / 'BENCHMARK.json').read_text())
WORKLOADS = [w['name'] for w in SPEC['workloads']]


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / 'run.py'), '--workload', workload,
         '--seed', str(seed), '--seconds', '0.1', '--trace', str(trace),
         '--smoke'],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_result(result, listed):
    assert result['correct'] is True
    assert result['failed'] == 0
    assert result['attempted'] >= 1
    assert list(result['metrics']) == [m['name'] for m in listed]
    for m in listed:
        got = result['metrics'][m['name']]
        assert got['unit'] == m['unit']
        assert isinstance(got['value'], (int, float))


@pytest.mark.parametrize('workload', WORKLOADS)
def test_smoke_end_to_end(workload):
    result = bench(workload, 1, 0)
    assert_result(result, SPEC['end_to_end'])
    for m in SPEC['end_to_end']:
        assert result['metrics'][m['name']]['value'] > 0


@pytest.mark.parametrize('workload', WORKLOADS)
def test_smoke_per_layer(workload):
    assert_result(bench(workload, 1, 1), SPEC['per_layer'])


def first_pass_order(workload, seed):
    """Instance ids of the first traced pass, in the order they ran."""
    path = HERE / 'out' / f'spans-{workload}-seed{seed}.jsonl'
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    roots = [s['instance'] for s in spans if s['name'] == 'instance']
    size = len(set(roots))
    return roots[:size]


@pytest.mark.parametrize('workload', ['kk-sweep', 'cli-mix'])
def test_seed_reorders_but_keeps_instances_and_digests(workload):
    # both runs are correct, so every output matched its reference digest
    assert_result(bench(workload, 5, 1), SPEC['per_layer'])
    assert_result(bench(workload, 6, 1), SPEC['per_layer'])
    a, b = first_pass_order(workload, 5), first_pass_order(workload, 6)
    assert sorted(a) == sorted(b)
    assert a != b


def test_missing_sources_fail_without_result(tmp_path):
    # a directory holding only the benchmark must not produce a result
    shutil.copytree(HERE, tmp_path / 'perfbench',
                    ignore=shutil.ignore_patterns('out', '__pycache__'))
    (tmp_path / 'BENCHMARK.json').write_bytes((ROOT / 'BENCHMARK.json').read_bytes())
    proc = subprocess.run(
        [sys.executable, 'perfbench/run.py', '--workload', 'kk-sweep',
         '--seed', '1', '--seconds', '1', '--trace', '0'],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_verdicts():
    sys.path.insert(0, str(HERE))
    from run import verdict
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    assert verdict(base, [x * 0.8 for x in base], 'lower', 0.1) == (1.0, 'better')
    assert verdict(base, [x * 1.2 for x in base], 'lower', 0.1)[1] == 'worse'
    assert verdict(base, list(base), 'lower', 0.1) == (0.0, 'within bound')
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(base, noisy, 'lower', 0.1)[1] == 'unresolved'
    assert verdict(base, [x * 1.2 for x in base], 'higher', None) == (1.0, '')
