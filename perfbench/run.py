"""Layered benchmark of wahlorder.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kk-sweep --seed 1 --seconds 25 --trace 0

It imports wahlorder from `src/` of the checkout, measures set-up (fresh
interpreters importing the package), then runs whole passes over the
workload's instances, in an order drawn from --seed, until --seconds are
used.  Every instance output is checked against reference.json.  The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}; with --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, with --trace 1 the per-layer ones.  Each run also appends its
record, with run metadata, to perfbench/out/results.jsonl, and a traced run
writes its spans to perfbench/out/.

    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

prints, per workload and metric, both sides' median and quartiles, the share
of seed-paired runs NEW wins, and a verdict against the metric's bound.

    python3 perfbench/run.py --record

rewrites reference.json from the checked-out code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from math import ceil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / 'src'
OUT = HERE / 'out'
REFERENCE = HERE / 'reference.json'
SPEC = ROOT / 'BENCHMARK.json'

SETUP_REPEATS = 7
# slices an instance must hold to be scaled by its own slowdown
INSTANCE_SLICES = 5


def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def import_wahlorder():
    """Put the checkout's src/ first on sys.path and import from there."""
    if not (SRC / 'wahlorder' / '__init__.py').is_file():
        raise SystemExit(f'error: no wahlorder sources under {SRC}')
    sys.path.insert(0, str(SRC))
    import wahlorder
    if Path(wahlorder.__file__).resolve().parent != SRC / 'wahlorder':
        raise SystemExit(f'error: imported wahlorder from {wahlorder.__file__}')
    import sweeps
    return sweeps


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(values, p: int):
    """Mean of the samples ranked within five points of the p-th percentile.

    The instances of a workload fall into groups of similar cost (the CLI
    calls most of all), and a plain percentile that lands between two groups
    jumps from one to the other from run to run; the mean over the window
    moves smoothly instead."""
    ordered = sorted(values)
    n = len(ordered)
    lo = min(n - 1, int(n * (p - 5) / 100))
    hi = max(lo + 1, ceil(n * (p + 5) / 100))
    return statistics.fmean(ordered[lo:hi])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------

def git_sha():
    head = ROOT / '.git' / 'HEAD'
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith('ref: '):
        return ref
    path = ROOT / '.git' / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / '.git' / 'packed-refs'
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(' ' + ref[5:]):
                return line.split()[0]
    return None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / 'wahlorder').rglob('*.py')):
        h.update(str(path.relative_to(SRC)).encode() + b'\0')
        h.update(path.read_bytes())
    return h.hexdigest()


def run_meta(args, bounds) -> dict:
    return {
        'git_sha': git_sha(),
        'src_sha256': src_sha256(),
        'python': sys.version.split()[0],
        'nproc': os.cpu_count(),
        'cpu': sorted(os.sched_getaffinity(0)),
        'loadavg_start': os.getloadavg(),
        'seed': args.seed,
        'seconds': args.seconds,
        'trace': args.trace,
        'workload': args.workload,
        'bounds': bounds,
        'smoke': args.smoke,
        'wahl_order_threads': 1,
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def measure_setup(env, probe) -> dict:
    """Median time of a fresh interpreter (`pass`) and of one importing
    wahlorder, alternating the two, each scaled by the probe's slowdown
    over the slices just before and just after it."""
    runs = []       # (code, seconds, first slice before it)
    for _ in range(SETUP_REPEATS):
        for code in ('pass', 'import wahlorder'):
            first = probe.mark()
            probe.sample(probe.SLICES_BETWEEN)
            start = time.perf_counter()
            subprocess.run([sys.executable, '-c', code], env=env, cwd=ROOT,
                           check=True)
            runs.append((code, time.perf_counter() - start, first))
    probe.sample(probe.SLICES_BETWEEN)
    out = {'pass': [], 'import wahlorder': []}
    raw = []
    for code, took, first in runs:
        out[code].append(
            took / probe.slowdown(first, first + 2 * probe.SLICES_BETWEEN))
        if code != 'pass':
            raw.append(took)
    return {'interp_s': statistics.median(out['pass']),
            'setup_s': statistics.median(out['import wahlorder']),
            'raw_setup_s': statistics.median(raw),
            'slowdown': probe.slowdown(0)}


def run_passes(sweeps, fn, keys, reference, rng, seconds, trace, probe):
    """Whole passes over `keys`, each in a fresh seeded order, until the next
    pass would end after `seconds`.  With `trace` the passes alternate
    untraced and traced, untraced first.  Times are divided by the probe's
    slowdown over the interval they were taken in."""
    from spans import NULL, Tracer
    clock = probe.clock
    tracer = Tracer(clock)
    passes = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        order = list(keys)
        rng.shuffle(order)
        traced = trace and len(passes) % 2 == 1
        tr = tracer if traced else NULL
        counts = Counter({name: 0 for name in sweeps.COUNTS})
        inst, first_span, first_slice = [], len(tracer.spans), probe.mark()
        pass_start = clock()
        for key in order:
            name = sweeps.key_str(key)
            attempted += 1
            try:
                inst_slice = probe.mark()
                if traced:
                    tracer.instance = name
                    with tracer.span('instance'):
                        t0 = clock()
                        out = fn(key, tr, counts)
                        t1 = clock()
                else:
                    t0 = clock()
                    out = fn(key, tr, counts)
                    t1 = clock()
                inst.append((t1 - t0, inst_slice, probe.mark()))
                want = reference.get(name)
                sweeps.require(want is not None, f'{name}: no reference digest')
                sweeps.require(sweeps.digest(out) == want,
                               f'{name}: output differs from the reference')
            except Exception as exc:  # a failed certificate must not end the run
                failed += 1
                print(f'FAIL {name}: {type(exc).__name__}: {exc}',
                      file=sys.stderr)
                if not isinstance(exc, sweeps.CheckFailed):
                    traceback.print_exc(file=sys.stderr)
            probe.between()
        raw = clock() - pass_start
        slow = probe.slowdown(first_slice)
        # an instance long enough to hold slices is scaled by its own
        inst = [t / (probe.slowdown(a, b) if b - a >= INSTANCE_SLICES else slow)
                for t, a, b in inst]
        passes.append({'traced': traced, 'raw': raw, 'slow': slow,
                       'wall': raw / slow, 'inst': inst,
                       'counts': counts, 'spans': (first_span, len(tracer.spans))})
        if (len(passes) >= (2 if trace else 1)
                and time.perf_counter() - start + raw > seconds):
            break
    return tracer, passes, attempted, failed


def end_to_end(passes, setup, workload) -> dict:
    samples = [t for p in passes for t in p['inst']]
    who = resource.RUSAGE_CHILDREN if workload == 'cli-mix' else resource.RUSAGE_SELF
    return {
        'setup_s': setup['setup_s'],
        'sweep_s': statistics.median(p['wall'] for p in passes),
        'inst_p50_ms': percentile(samples, 50) * 1e3,
        'inst_p90_ms': percentile(samples, 90) * 1e3,
        'peak_rss_mb': resource.getrusage(who).ru_maxrss / 1024,
    }


def per_layer(sweeps, tracer, passes, setup) -> dict:
    traced = [p for p in passes if p['traced']]
    plain = [p for p in passes if not p['traced']]
    self_times, calls = [], {name: [] for name in sweeps.CLI_SPANS}
    for p in traced:
        first, last = p['spans']
        self_times.append({name: t / p['slow'] for name, t in
                           tracer.layer_self_times(first, last).items()})
        for name, start, end, _, _ in tracer.spans[first:last]:
            if name in calls:
                calls[name].append((end - start) / p['slow'])
    out = {}
    for name in sweeps.LAYER_SPANS:
        out[name + '_s'] = statistics.median(st.get(name, 0.0) for st in self_times)
    for name, times in calls.items():
        out[name + '_ms'] = statistics.median(times) * 1e3 if times else 0.0
    out.update(traced[-1]['counts'])
    out['cli.interp_s'] = setup['interp_s']
    out['cli.import_s'] = setup['setup_s'] - setup['interp_s']
    out['trace.overhead_s'] = (statistics.median(p['wall'] for p in traced)
                               - statistics.median(p['wall'] for p in plain))
    out['trace.spans'] = len(tracer.spans) / len(traced)
    return out


def bench(args) -> int:
    from speed import SpeedProbe
    # one CPU for the benchmark and its children, so that the probe's slices
    # run where the measured work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = load_spec()
    sweeps = import_wahlorder()
    workload = sweeps.WORKLOADS[args.workload]
    bounds = workload.smoke_bounds if args.smoke else workload.bounds
    keys = workload.instances(bounds)
    with open(REFERENCE) as fh:
        reference = json.load(fh)[args.workload]
    OUT.mkdir(exist_ok=True)
    fn = sweeps.instance_function(args.workload, SRC, OUT / 'cli')
    meta = run_meta(args, bounds)

    # the CLI calls are child processes: sample speed between them only
    probe = SpeedProbe(timer=args.workload != 'cli-mix')
    setup = measure_setup(sweeps.child_env(SRC), probe)
    with probe:
        tracer, passes, attempted, failed = run_passes(
            sweeps, fn, keys, reference, random.Random(args.seed),
            args.seconds, args.trace, probe)

    if args.trace:
        values = per_layer(sweeps, tracer, passes, setup)
        listed = spec['per_layer']
        tracer.write(OUT / f'spans-{args.workload}-seed{args.seed}.jsonl')
    else:
        values = end_to_end(passes, setup, args.workload)
        listed = spec['end_to_end']
    names = [m['name'] for m in listed]
    if set(values) != set(names):
        raise SystemExit(f'error: metrics {sorted(set(values) ^ set(names))} '
                         f'disagree with BENCHMARK.json')
    metrics = {m['name']: {'value': values[m['name']], 'unit': m['unit']}
               for m in listed}
    result = {'correct': failed == 0, 'attempted': attempted, 'failed': failed,
              'metrics': metrics}
    meta.update({
        'passes': len(passes),
        'instance_samples': sum(len(p['inst']) for p in passes),
        'check_fail_frac': failed / attempted,
        'raw_pass_s': [p['raw'] for p in passes],
        'pass_slowdown': [p['slow'] for p in passes],
        'raw_setup_s': setup['raw_setup_s'],
        'setup_slowdown': setup['slowdown'],
        'probe_slices': len(probe.slices),
    })
    with open(OUT / 'results.jsonl', 'a') as fh:
        fh.write(json.dumps({'meta': meta, 'result': result}) + '\n')

    print('meta ' + json.dumps(meta))
    for name, m in metrics.items():
        print(f'{name:32s} {m["value"]:14.6f} {m["unit"]}')
    print(f'{"check_fail_frac":32s} {failed / attempted:14.6f} '
          f'({failed}/{attempted})')
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# reference digests
# ---------------------------------------------------------------------------

def record() -> int:
    from spans import NULL
    sweeps = import_wahlorder()
    OUT.mkdir(exist_ok=True)
    reference = {}
    for name, workload in sweeps.WORKLOADS.items():
        fn = sweeps.instance_function(name, SRC, OUT / 'cli')
        counts = Counter()
        reference[name] = {
            sweeps.key_str(key): sweeps.digest(fn(key, NULL, counts))
            for key in workload.instances(workload.bounds)}
        print(f'{name}: {len(reference[name])} digests', file=sys.stderr)
    with open(REFERENCE, 'w') as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write('\n')
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def load_results(path) -> dict:
    """(workload, trace) -> [record sorted by seed]."""
    runs = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line) if line.strip() else None
            if rec and not rec['meta']['smoke']:
                key = (rec['meta']['workload'], rec['meta']['trace'])
                runs.setdefault(key, []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda rec: rec['meta']['seed'])
    return runs


def verdict(base, new, better, bound):
    """Guide rule: a gain needs >= 90% of pairs won and a median shift
    larger than the base's quartile spread; a spread wider than the bound
    leaves the metric unresolved unless every new run beats every base run."""
    sign = 1 if better == 'lower' else -1
    wins = sum(1 for b, n in zip(base, new) if sign * (b - n) > 0)
    pairs = min(len(base), len(new))
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    share = wins / pairs if pairs else 0.0
    if bound is None:
        return share, ''
    spread = max((bq3 - bq1) / bmed if bmed else 0.0,
                 (nq3 - nq1) / nmed if nmed else 0.0)
    worse = sign * (nmed - bmed) / bmed if bmed else 0.0
    all_better = all(sign * (b - n) > 0 for b in base for n in new)
    if share >= 0.9 and abs(nmed - bmed) > (bq3 - bq1) and worse < 0:
        return share, 'better'
    if spread > bound and not all_better:
        return share, 'unresolved'
    if worse > bound:
        return share, 'worse'
    return share, 'within bound'


def compare(base_path, new_path) -> int:
    spec = load_spec()
    base, new = load_results(base_path), load_results(new_path)
    print(f'{"workload":14s} {"metric":28s} {"base q1/med/q3":>32s} '
          f'{"new q1/med/q3":>32s} {"won":>5s}  verdict')
    for (workload, trace) in sorted(set(base) & set(new)):
        listed = spec['per_layer'] if trace else spec['end_to_end']
        b_runs, n_runs = base[(workload, trace)], new[(workload, trace)]
        for m in listed:
            bv = [r['result']['metrics'][m['name']]['value'] for r in b_runs]
            nv = [r['result']['metrics'][m['name']]['value'] for r in n_runs]
            share, word = verdict(bv, nv, m['better'], m.get('bound'))
            fmt = lambda q: '/'.join(f'{x:.4g}' for x in q)
            print(f'{workload:14s} {m["name"]:28s} {fmt(quartiles(bv)):>32s} '
                  f'{fmt(quartiles(nv)):>32s} {share:5.0%}  {word} '
                  f'[{m["unit"]}, n={len(bv)}/{len(nv)}]')
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--workload', choices=('kk-sweep', 'deform-sweep',
                                               'order-sweep', 'cli-mix'))
    parser.add_argument('--seed', type=int, default=0)
    parser.add_argument('--seconds', type=float, default=25.0)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--smoke', action='store_true',
                        help='tiny instance bounds, for the tests')
    parser.add_argument('--record', action='store_true',
                        help='rewrite reference.json from this checkout')
    parser.add_argument('--compare', nargs=2, metavar=('BASE', 'NEW'),
                        help='compare two results.jsonl files')
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.record:
        return record()
    if not args.workload:
        parser.error('--workload is required')
    return bench(args)


if __name__ == '__main__':
    sys.exit(main())
