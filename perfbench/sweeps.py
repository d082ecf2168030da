"""The benchmark's four workloads: their instances, the work each instance
does through wahlorder's public functions, and the digest of its output.

Every instance function takes (key, tracer, counts), wraps each call into a
layer in a span named after that layer, adds its work counts to `counts`,
raises CheckFailed when a certificate does not hold, and returns the output
whose digest is compared with reference.json.

Import this module only after `src/` of the checkout is on sys.path.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from math import gcd

from wahlorder import (AlgebraTable, SingularityParams, build_order,
                       certify_full_matrix_fiber, cross_check, diff_matrix,
                       dual_relabel, fiber_zero_report, format_poly, full_ainf,
                       infinity_fiber, insert_cochain, kk_product_closed,
                       kk_product_rect, kk_table, structure_constants,
                       young_diagram)


class CheckFailed(Exception):
    """An output of wahlorder failed its certificate or its digest."""


def require(cond, msg: str):
    if not cond:
        raise CheckFailed(msg)


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def coprime_pairs(max_r: int) -> list:
    return [(r, a) for r in range(2, max_r + 1) for a in range(1, r)
            if gcd(r, a) == 1]


# ---------------------------------------------------------------------------
# kk-sweep: integers only (kkalg, resarith)
# ---------------------------------------------------------------------------

def kk_instance(key, tr, counts) -> str:
    r, a = key
    params = SingularityParams(r, a)
    with tr.span('kkalg.oracles'):
        diag = young_diagram(params)
        for j in range(r):
            for i in range(r):
                c = kk_product_closed(params, j, i)
                require(c == kk_product_rect(params, j, i) == diag.product(j, i),
                        f'({r},{a}): product rules disagree at ({j},{i})')
    with tr.span('kkalg.kk_table'):
        table = kk_table(params)
        unital = table.is_unital()
    require(unital, f'({r},{a}): not unital')
    with tr.span('kkalg.assoc'):
        bad = table.associator_violation()
    require(bad is None, f'({r},{a}): associativity fails at {bad}')
    with tr.span('kkalg.duality'):
        dual = SingularityParams(r, params.b)
        twisted = kk_table(dual).opposite().relabel(dual_relabel(params))
    require(twisted == table, f'({r},{a}): opposite duality fails')
    counts['kkalg.products_checked'] += r * r
    counts['kkalg.assoc_triples'] += r ** 3
    return repr(sorted(table.products.items()))


# ---------------------------------------------------------------------------
# deform-sweep: the A-infinity layer and its Poly traffic, no order solver
# ---------------------------------------------------------------------------

def deform_instance(key, tr, counts) -> str:
    r, a = key
    params = SingularityParams(r, a)
    with tr.span('deform.full_ainf'):
        ainf = full_ainf(params)
    with tr.span('deform.insert_cochain'):
        ops = insert_cochain(ainf, r)
    with tr.span('deform.diff_matrix'):
        dm = diff_matrix(params, ops)
    with tr.span('deform.skew'):
        skew = dm.is_skew()
        degrees = ainf.degrees_present()
    require(skew, f'({r},{a}): differential matrix not skew')
    require(degrees <= {0, 1}, f'({r},{a}): degrees {degrees}')
    with tr.span('render.format'):
        # the text `wahlorder deform --ideal` prints
        lines = [f'flat-locus generators for R_{{{r},{a}}} '
                 f'(upper entries of the skew matrix):']
        gens = [(ij, p) for ij, p in dm.upper_entries() if not p.is_zero()]
        lines += [f'm_({i},{j}) = {format_poly(p)}' for (i, j), p in gens]
        text = '\n'.join(lines) + '\n'
    counts['deform.m2_entries'] += sum(len(c) for c in ainf.m2.values())
    counts['deform.m3_entries'] += sum(len(c) for c in ainf.m3.values())
    counts['deform.generators'] += len(gens)
    counts['deform.generator_terms'] += sum(len(p.terms) for _, p in gens)
    return text


# ---------------------------------------------------------------------------
# order-sweep: the order solver and dense univariate Z[t]
# ---------------------------------------------------------------------------

def wahl_pairs(max_n: int) -> list:
    return [(n, q) for n in range(2, max_n + 1) for q in range(1, n)
            if gcd(n, q) == 1]


def order_instance(key, tr, counts) -> str:
    n, q = key
    with tr.span('order.build'):
        ordr = build_order(n, q)
    with tr.span('order.structure_constants'):
        consts = structure_constants(ordr)
    with tr.span('order.fiber_zero'):
        rep0 = fiber_zero_report(ordr)
    require(rep0.matches, f'({n},{q}): t=0 fiber mismatch')
    with tr.span('order.fiber_generic'):
        spans_mat = [certify_full_matrix_fiber(ordr, tau) for tau in (1, 2)]
    require(all(spans_mat), f'({n},{q}): a generic fiber is not Mat_{n}')
    with tr.span('order.infinity'):
        repi = infinity_fiber(ordr)
    require(repi.degree_bounds_ok and repi.matches_negated,
            f'({n},{q}): infinity fiber mismatch')
    with tr.span('kkalg.assoc_poly'):
        table = AlgebraTable(ordr.r, {p: dict(c) for p, c in consts.items()})
        bad = table.associator_violation()
    require(bad is None, f'({n},{q}): associativity over Z[t] fails at {bad}')
    with tr.span('order.cross_check'):
        rep = cross_check(n, q)
    require(rep.matched, f'({n},{q}): cross-check mismatch at {rep.first_mismatch}')
    with tr.span('render.format'):
        text = ''.join(f'{j} {i} {k} {format_poly(p)}\n'
                       for (j, i), cell in sorted(consts.items())
                       for k, p in sorted(cell.items()))
    counts['order.constants_terms'] += sum(
        len(p.terms) for cell in consts.values() for p in cell.values())
    counts['order.cross_identical'] += int(rep.identical)
    return text


# ---------------------------------------------------------------------------
# cli-mix: the README calls as fresh processes, one after another
# ---------------------------------------------------------------------------

# The README examples; the two minute-long verify calls are replaced by
# smaller suites of the same kind.
CLI_CALLS = (
    'kk --r 9 --a 2',
    'kk --r 7 --a 6 --format svg --out diagram.svg',
    'kk --r 4 --a 1 --format json',
    'gauss --r 16 --a 3',
    'deform --r 15 --a 4 --ideal',
    'deform --r 2 --a 1 --table --spec free.spec',
    'order --n 3 --q 2 --format paper',
    'order --n 3 --q 1 --fiber zero',
    'order --n 2 --q 1 --fiber infinity',
    'verify --suite kk --max-r 16',
    'verify --suite cross --max-n 3',
)

FREE_SPEC = 't_1 = t_1\n'

# verify prints each check's elapsed time, e.g. "(0.38s)"; that figure is
# the only part of any CLI output that is not byte-deterministic
_ELAPSED = re.compile(rb'\(\d+\.\d+s\)')


def child_env(src_dir) -> dict:
    env = dict(os.environ)
    env['PYTHONPATH'] = str(src_dir)
    env['WAHL_ORDER_THREADS'] = '1'
    return env


class CliRunner:
    """Runs one CLI call in a fresh interpreter inside `workdir`."""

    def __init__(self, src_dir, workdir):
        self.env = child_env(src_dir)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        with open(os.path.join(workdir, 'free.spec'), 'w') as fh:
            fh.write(FREE_SPEC)

    def __call__(self, call: str, tr, counts) -> bytes:
        argv = call.split()
        with tr.span('cli.' + argv[0]):
            proc = subprocess.run([sys.executable, '-m', 'wahlorder', *argv],
                                  cwd=self.workdir, env=self.env,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE)
        require(proc.returncode == 0,
                f'{call}: exit {proc.returncode}: {proc.stderr[-300:]!r}')
        counts['cli.stdout_bytes'] += len(proc.stdout)
        out = _ELAPSED.sub(b'(s)', proc.stdout)
        out += b'\nexit %d\n' % proc.returncode
        if '--out' in argv:
            path = os.path.join(self.workdir, argv[argv.index('--out') + 1])
            with open(path, 'rb') as fh:
                out += fh.read()
            os.remove(path)
        return out


# ---------------------------------------------------------------------------
# the workload table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    bounds: dict          # the instance bounds of a full pass
    smoke_bounds: dict    # tiny bounds for the benchmark's own tests
    instances: object     # bounds -> list of keys
    run: object           # (key, tracer, counts) -> output; None for CliRunner


WORKLOADS = {
    'kk-sweep': Workload({'max_r': 24}, {'max_r': 8},
                         lambda b: coprime_pairs(b['max_r']), kk_instance),
    'deform-sweep': Workload({'max_r': 18}, {'max_r': 7},
                             lambda b: coprime_pairs(b['max_r']),
                             deform_instance),
    'order-sweep': Workload({'max_n': 4}, {'max_n': 3},
                            lambda b: wahl_pairs(b['max_n']), order_instance),
    'cli-mix': Workload({'calls': len(CLI_CALLS)}, {'calls': 3},
                        lambda b: list(CLI_CALLS[:b['calls']]), None),
}


def instance_function(name: str, src_dir, workdir):
    return WORKLOADS[name].run or CliRunner(src_dir, workdir)


# Spans the instance functions record; per-layer metric `<span>_s` is the
# span's self time summed over one pass, `<cli span>_ms` the median call.
LAYER_SPANS = (
    'kkalg.oracles', 'kkalg.kk_table', 'kkalg.assoc', 'kkalg.duality',
    'deform.full_ainf', 'deform.insert_cochain', 'deform.diff_matrix',
    'deform.skew', 'render.format',
    'order.build', 'order.structure_constants', 'order.fiber_zero',
    'order.fiber_generic', 'order.infinity', 'order.cross_check',
    'kkalg.assoc_poly',
)
CLI_SPANS = ('cli.kk', 'cli.gauss', 'cli.deform', 'cli.order', 'cli.verify')
COUNTS = (
    'kkalg.products_checked', 'kkalg.assoc_triples',
    'deform.m2_entries', 'deform.m3_entries', 'deform.generators',
    'deform.generator_terms', 'order.constants_terms', 'order.cross_identical',
    'cli.stdout_bytes',
)


def key_str(key) -> str:
    return key if isinstance(key, str) else ','.join(map(str, key))
