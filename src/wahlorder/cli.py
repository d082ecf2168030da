"""Command-line front end.

Subcommands: kk | gauss | deform | order | verify, with --format and --out.
Exit codes: 0 success, 1 a check failed, a cochain is not flat or an exact
computation failed (ArithmeticError), 2 bad parameters or parse errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .resarith import SingularityParams, InvalidParamsError, hj_fraction
from .polyring import format_poly, PolyParseError
from .kkalg import kk_table, gauss_word, self_intersection_count
from .deform import (diff_matrix, deformed_table, CochainSpec,
                     SpecNotFlatError)
from .order import (build_order, fiber_at,
                    fiber_zero_report, certify_full_matrix_fiber,
                    infinity_fiber, format_order_matrix)
from . import render
from .verify import run_suite


def _write(args, text: str):
    if args.out:
        with open(args.out, 'w') as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params(args) -> SingularityParams:
    return SingularityParams(args.r, args.a)


def cmd_kk(args) -> int:
    params = _params(args)
    table = kk_table(params)
    if args.format == 'svg':
        _write(args, render.lattice_svg(params))
    elif args.format == 'json':
        out = render.table_json(table, params.r, params.a)
        out['hj_fraction'] = hj_fraction(params.r, params.r - params.a)
        out['self_intersections'] = self_intersection_count(params)
        _write(args, render.dumps(out))
    else:
        header = (f'R_{{{params.r},{params.a}}}  (b = {params.b}; '
                  f'continued fraction of r/(r-a): '
                  f'{hj_fraction(params.r, params.r - params.a)})')
        _write(args, render.table_text(table, header))
    return 0


def cmd_gauss(args) -> int:
    params = _params(args)
    if args.format == 'json':
        _write(args, render.dumps(render.gauss_json(params)))
    else:
        word = ', '.join(str(x) for x in gauss_word(params))
        _write(args, f'{self_intersection_count(params)} self-intersections; '
                     f'Gauss word: {word}\n')
    return 0


def cmd_deform(args) -> int:
    params = _params(args)
    dm = diff_matrix(params)
    if args.table:
        if not args.spec:
            print('error: --table requires --spec FILE', file=sys.stderr)
            return 2
        with open(args.spec) as fh:
            spec = CochainSpec.parse(fh.read(), params.r)
        try:
            table = deformed_table(params, spec)
        except SpecNotFlatError as exc:
            print(f'error: cochain is not flat; first surviving entry '
                  f'{exc.position}: {format_poly(exc.value)}', file=sys.stderr)
            return 1
        if args.format == 'json':
            _write(args, render.dumps(render.table_json(table, params.r, params.a)))
        else:
            _write(args, render.table_text(
                table, f'deformed table of R_{{{params.r},{params.a}}}'))
        return 0
    if args.format == 'json':
        _write(args, render.dumps(render.diff_matrix_json(dm)))
    else:
        lines = [f'flat-locus generators for R_{{{params.r},{params.a}}} '
                 f'(upper entries of the skew matrix):']
        for (i, j), p in dm.upper_entries():
            if not p.is_zero():
                lines.append(f'm_({i},{j}) = {format_poly(p)}')
        _write(args, '\n'.join(lines) + '\n')
    return 0


def cmd_order(args) -> int:
    ordr = build_order(args.n, args.q)
    if args.fiber:
        if args.fiber == 'zero':
            rep = fiber_zero_report(ordr)
            table = fiber_at(ordr, 0)
            cert = (f'matches R_{{{ordr.r},{ordr.params.a}}} with signs '
                    f'{rep.signs}' if rep.matches else 'MISMATCH')
        elif args.fiber == 'generic':
            tau = args.at if args.at is not None else 1
            table = fiber_at(ordr, tau)
            ok = certify_full_matrix_fiber(ordr, tau)
            cert = (f'basis spans Mat_{ordr.n} at t={tau}' if ok
                    else f'basis does NOT span Mat_{ordr.n} at t={tau}')
        else:
            rep = infinity_fiber(ordr)
            table = rep.table
            cert = ('degree bounds hold; limit matches the index flip k -> -k '
                    f'with signs {rep.signs}' if rep.matches_negated
                    else 'MISMATCH')
        if args.format == 'json':
            out = render.table_json(table, ordr.r, ordr.params.a)
            out['certification'] = cert
            _write(args, render.dumps(out))
        else:
            _write(args, render.table_text(table, f'fiber: {cert}'))
        return 0
    if args.at is not None:
        table = fiber_at(ordr, args.at)
        if args.format == 'json':
            _write(args, render.dumps(render.table_json(table, ordr.r, ordr.params.a)))
        else:
            _write(args, render.table_text(table, f'structure constants at t={args.at}'))
        return 0
    if args.format == 'json':
        _write(args, render.dumps(render.order_json(ordr)))
    else:
        _write(args, format_order_matrix(ordr) + '\n')
    return 0


def cmd_verify(args) -> int:
    bounds = {}
    if args.max_r:
        bounds['max_r'] = args.max_r
    if args.max_n:
        bounds['max_n'] = args.max_n
    report = run_suite(args.suite, **bounds)
    if args.format == 'json':
        _write(args, render.dumps(report.to_json()))
    else:
        _write(args, report.render())
    return 0 if report.passed else 1


def _fraction(text: str) -> Fraction:
    return Fraction(text)


def build_parser() -> argparse.ArgumentParser:
    # --format/--out are accepted both before and after the subcommand; the
    # SUPPRESS defaults keep the subparser from clobbering a prefix value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument('--format', choices=['table', 'json', 'svg', 'paper'],
                        default=argparse.SUPPRESS)
    common.add_argument('--out', metavar='FILE', default=argparse.SUPPRESS)
    top = argparse.ArgumentParser(
        prog='wahlorder',
        parents=[common],
        description='Kalck-Karmazyn algebras, their flat deformations, and '
                    'the matrix orders of Q-Gorenstein smoothings.')
    sub = top.add_subparsers(dest='command', required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser('kk', help='multiplication table / lattice figure')
    p.add_argument('--r', type=int, required=True)
    p.add_argument('--a', type=int, required=True)
    p.set_defaults(fn=cmd_kk)

    p = add_parser('gauss', help='self-intersections and the Gauss word')
    p.add_argument('--r', type=int, required=True)
    p.add_argument('--a', type=int, required=True)
    p.set_defaults(fn=cmd_gauss)

    p = add_parser('deform', help='deformation matrix, flat locus, tables')
    p.add_argument('--r', type=int, required=True)
    p.add_argument('--a', type=int, required=True)
    p.add_argument('--spec', metavar='FILE', help='cochain assignments')
    group = p.add_mutually_exclusive_group()
    group.add_argument('--ideal', action='store_true',
                       help='print the flat-locus generators (default)')
    group.add_argument('--table', action='store_true',
                       help='print the deformed table for --spec')
    p.set_defaults(fn=cmd_deform)

    p = add_parser('order', help='the matrix order of 1/n^2(1,nq-1)')
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--q', type=int, required=True)
    p.add_argument('--at', type=_fraction, metavar='TAU',
                   help='evaluate structure constants at t = TAU')
    p.add_argument('--fiber', choices=['zero', 'generic', 'infinity'])
    p.set_defaults(fn=cmd_order)

    p = add_parser('verify', help='run a verification suite')
    p.add_argument('--suite', choices=['kk', 'deform', 'order', 'cross', 'all'],
                   default='all')
    p.add_argument('--max-r', type=int, dest='max_r')
    p.add_argument('--max-n', type=int, dest='max_n')
    p.set_defaults(fn=cmd_verify)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # SUPPRESS defaults keep prefix values alive across the subparser; fill
    # the fallbacks here instead of set_defaults (which would mutate the
    # shared actions)
    args.format = getattr(args, 'format', 'table')
    args.out = getattr(args, 'out', None)
    try:
        return args.fn(args)
    except (InvalidParamsError, PolyParseError, FileNotFoundError,
            ValueError) as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 1


if __name__ == '__main__':
    sys.exit(main())
