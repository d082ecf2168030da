"""Command-line front end.

Subcommands: kk | gauss | deform | order | verify, with --format and --out.
Exit codes: 0 success, 1 a check failed, a cochain is not flat or an exact
computation failed (ArithmeticError), 2 bad parameters, an option the call
would not read, parse errors or a size over the budget of its command.
"""

from __future__ import annotations

import argparse
import re
import sys

from .resarith import SingularityParams, hj_fraction
from .polyring import format_poly
from . import render


def _write(args, text: str):
    if args.out:
        with open(args.out, 'w') as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_table(args, table, params: SingularityParams, header: str,
                 **fields):
    """The table as JSON with `fields` added, or as text under `header`."""
    if args.format == 'json':
        out = render.table_json(table, params.r, params.a)
        _write(args, render.dumps({**out, **fields}))
    else:
        _write(args, render.table_text(table, header))


# Size budgets, one per cost class; a larger size exits 2 before anything is
# built.  Each is set so that the slowest call measured at the budget, over a
# (or q) and the output formats, stays under about 5 s and 200 MB peak RSS,
# run as a fresh `python -m wahlorder` process on 2 CPUs with Python 3.11.7:
#   kk      r = 500:    a = 499, --format json      1.1 s, 142 MB (r^2 cells)
#                                --format svg       0.8 s, 148 MB
#   gauss   r = 500000: a = 7,   --format json      0.9 s, 142 MB (linear)
#   deform  r = 64:     a = 1,   --ideal            0.4 s, 82 MB (json 0.4 s)
#                       a = 63,  --table, the slowest spec at the term
#                                budget (polyring.MAX_TERMS), --format json
#                                                   2.6-3.4 s, 148 MB
#   order   n = 10:     q = 1,   --fiber zero       0.16-0.17 s, 20 MB
#           --at P/Q, P and Q of 200 digits: n = 10, q = 1 or 9, table or
#           json, with or without --fiber generic   0.7-1.1 s, 84 MB (the
#           largest t-degree, 18, keeps each value under 3600 digits; Python
#           refuses to print an int of more than 4300)
#   verify  --max-r 72: --suite kk                  1.6-1.7 s, 76 MB (the
#                                                   suite keeps every table
#                                                   of the range)
#           --max-n 10: --suite deform              2.2-2.5 s, 32 MB (order
#                                                   1.5-1.9 s, 22 MB; cross
#                                                   1.1-1.5 s, 28 MB)
# For verify the slowest single suite is measured: --max-r raises the r bound
# past 20 only in kk, and --max-n bounds n in deform, order and cross.
# --suite all runs the suites one after another (2.4-2.7 s at the default
# bounds).  The order, --at and verify rows are three fresh processes each,
# peak RSS the largest of a row.
MAX_KK_R = 500
MAX_GAUSS_R = 500_000
MAX_DEFORM_R = 64
MAX_ORDER_N = 10
MAX_TAU_DIGITS = 200
MAX_TAU_LITERAL = 640  # Python's least int-string limit
MAX_VERIFY_R = 72
MAX_VERIFY_N = 10
# an integer option longer than this is refused unread: every budget above
# has at most 6 digits, and int() would echo a longer value whole
MAX_INT_LITERAL = 64


def _within_budget(command: str, name: str, value: int, budget: int):
    if value > budget:
        raise ValueError(f'{name} = {value} is over the size budget of '
                         f'{command} ({name} <= {budget})')


def _int_reader(command: str, budget: str):
    """The argparse type of an integer option: int(text) of an ASCII text,
    refused unread with the budget of command when text is over
    MAX_INT_LITERAL long."""
    def read(text: str) -> int:
        if len(text) > MAX_INT_LITERAL:
            raise argparse.ArgumentTypeError(
                f'{len(text)} characters, over the size budget of {command} '
                f'({budget})')
        if text.isascii():
            try:
                return int(text)
            except ValueError:
                pass
        raise argparse.ArgumentTypeError(f'invalid int value: {text!r}')
    return read


def _params(args, max_r: int) -> SingularityParams:
    _within_budget(args.command, 'r', args.r, max_r)
    return SingularityParams(args.r, args.a)


def cmd_kk(args) -> int:
    from .kkalg import kk_table, self_intersection_count
    params = _params(args, MAX_KK_R)
    if args.format == 'svg':
        _write(args, render.lattice_svg(params))
        return 0
    cf = hj_fraction(params.r, params.r - params.a)
    _write_table(args, kk_table(params), params,
                 f'R_{{{params.r},{params.a}}}  (b = {params.b}; '
                 f'continued fraction of r/(r-a): {cf})',
                 hj_fraction=cf, self_intersections=self_intersection_count(params))
    return 0


def cmd_gauss(args) -> int:
    from .kkalg import gauss_word, self_intersection_count
    params = _params(args, MAX_GAUSS_R)
    if args.format == 'json':
        _write(args, render.dumps(render.gauss_json(params)))
    else:
        word = ', '.join(str(x) for x in gauss_word(params))
        _write(args, f'{self_intersection_count(params)} self-intersections; '
                     f'Gauss word: {word}\n')
    return 0


def cmd_deform(args) -> int:
    from .deform import (diff_matrix, deformed_table, CochainSpec,
                         SpecNotFlatError)
    params = _params(args, MAX_DEFORM_R)
    if args.table != bool(args.spec):
        raise ValueError('--table requires --spec FILE' if args.table
                         else '--spec FILE is read only with --table')
    if args.table:
        with open(args.spec) as fh:
            spec = CochainSpec.parse(fh.read(), params.r)
        try:
            table = deformed_table(params, spec)
        except SpecNotFlatError as exc:
            print(f'error: cochain is not flat; first surviving entry '
                  f'{exc.position}: {format_poly(exc.value)}', file=sys.stderr)
            return 1
        _write_table(args, table, params,
                     f'deformed table of R_{{{params.r},{params.a}}}')
        return 0
    dm = diff_matrix(params)
    if args.format == 'json':
        _write(args, render.dumps(render.diff_matrix_json(dm)))
    else:
        lines = [f'flat-locus generators for R_{{{params.r},{params.a}}} '
                 f'(upper entries of the skew matrix):']
        lines += [f'm_({i},{j}) = {format_poly(p)}'
                  for (i, j), p in dm.upper_entries()]
        _write(args, '\n'.join(lines) + '\n')
    return 0


def cmd_order(args) -> int:
    from .order import (build_order, fiber_at, fiber_zero_report,
                        certify_full_matrix_fiber, infinity_fiber,
                        format_order_matrix)
    _within_budget('order', 'n', args.n, MAX_ORDER_N)
    if args.at is not None and args.fiber in ('zero', 'infinity'):
        raise ValueError(f'--at TAU is not read with --fiber {args.fiber}')
    ordr = build_order(args.n, args.q)
    if args.fiber:
        if args.fiber == 'zero':
            rep = fiber_zero_report(ordr)
            table = rep.table
            cert = (f'matches R_{{{ordr.r},{ordr.params.a}}} with signs '
                    f'{[1] * ordr.r}' if rep.matches else 'MISMATCH')
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
        _write_table(args, table, ordr.params, f'fiber: {cert}',
                     certification=cert)
        return 0
    if args.at is not None:
        _write_table(args, fiber_at(ordr, args.at), ordr.params,
                     f'structure constants at t={args.at}')
        return 0
    if args.format == 'json':
        _write(args, render.dumps(render.order_json(ordr)))
    else:
        _write(args, format_order_matrix(ordr) + '\n')
    return 0


def _verify_bound(flag: str, value: int, budget: int):
    if value < 2:
        raise ValueError(f'{flag} = {value} is below 2')
    _within_budget('verify', flag, value, budget)


def cmd_verify(args) -> int:
    from .verify import run_suite
    if args.max_r is not None:
        _verify_bound('--max-r', args.max_r, MAX_VERIFY_R)
    if args.max_n is not None:
        _verify_bound('--max-n', args.max_n, MAX_VERIFY_N)
    report = run_suite(args.suite, args.max_r, args.max_n)
    if args.format == 'json':
        _write(args, render.dumps(report.to_json()))
    else:
        _write(args, report.render())
    return 0 if report.passed else 1


# the decimal exponent of a TAU, in Fraction's syntax
_EXPONENT = re.compile(r'(?<=e)([-+]?)([0-9]+(?:_[0-9]+)*)\Z', re.I)


def _fraction(text: str) -> Fraction:
    """TAU, refused over the budget: a numerator or a denominator of more
    than MAX_TAU_DIGITS digits in lowest terms, or unread, a literal of more
    than MAX_TAU_LITERAL digits.  A non-ASCII character is refused, since
    Fraction reads any Unicode decimal digit.

    Fraction expands a decimal exponent to a power of 10, so the exponent is
    bounded first, without its leading zeros.  With a nonzero mantissa, an
    exponent over MAX_TAU_DIGITS + len(literal) in absolute value puts the
    value over the budget whatever the digits; it is cut to that bound plus
    one, which keeps a nonzero value over the budget and a zero value 0."""
    from fractions import Fraction
    if not text.isascii():
        raise argparse.ArgumentTypeError(f'not a rational number: {text!r}')
    literal = text.strip()
    bound = MAX_TAU_DIGITS + len(literal)
    exponent = _EXPONENT.search(literal)
    if exponent:
        digits = exponent[2].replace('_', '').lstrip('0') or '0'
        if len(digits) > len(str(bound)) or int(digits) > bound:
            digits = str(bound + 1)
        literal = f'{literal[:exponent.start()]}{exponent[1]}{digits}'
    if sum(map(str.isdecimal, literal)) <= MAX_TAU_LITERAL:
        try:
            tau = Fraction(literal)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(
                f'not a rational number: {text!r}') from None
        if max(abs(tau.numerator), tau.denominator) < 10 ** MAX_TAU_DIGITS:
            return tau
    raise argparse.ArgumentTypeError(
        f'TAU is over the size budget of order (numerator and '
        f'denominator <= {MAX_TAU_DIGITS} digits in lowest terms)')


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

    def add_pair(p, command: str, x: str, y: str, budget: int):
        """The required options --x and --y, with 0 < y < x <= budget."""
        for name, bound in ((x, f'{x} <= {budget}'),
                            (y, f'{y} < {x} <= {budget}')):
            p.add_argument(f'--{name}', required=True,
                           type=_int_reader(command, bound))

    p = add_parser('kk', help='multiplication table / lattice figure')
    add_pair(p, 'kk', 'r', 'a', MAX_KK_R)
    p.set_defaults(fn=cmd_kk)

    p = add_parser('gauss', help='self-intersections and the Gauss word')
    add_pair(p, 'gauss', 'r', 'a', MAX_GAUSS_R)
    p.set_defaults(fn=cmd_gauss)

    p = add_parser('deform', help='deformation matrix, flat locus, tables')
    add_pair(p, 'deform', 'r', 'a', MAX_DEFORM_R)
    p.add_argument('--spec', metavar='FILE', help='cochain assignments')
    group = p.add_mutually_exclusive_group()
    group.add_argument('--ideal', action='store_true',
                       help='print the flat-locus generators (default)')
    group.add_argument('--table', action='store_true',
                       help='print the deformed table for --spec')
    p.set_defaults(fn=cmd_deform)

    p = add_parser('order', help='the matrix order of 1/n^2(1,nq-1)')
    add_pair(p, 'order', 'n', 'q', MAX_ORDER_N)
    p.add_argument('--at', type=_fraction, metavar='TAU',
                   help='evaluate structure constants at t = TAU (numerator '
                        f'and denominator <= {MAX_TAU_DIGITS} digits); write '
                        'a negative fraction as --at=-1/2')
    p.add_argument('--fiber', choices=['zero', 'generic', 'infinity'])
    p.set_defaults(fn=cmd_order)

    p = add_parser('verify', help='run a verification suite')
    p.add_argument('--suite', choices=['kk', 'deform', 'order', 'cross', 'all'],
                   default='all')
    p.add_argument('--max-r', dest='max_r', metavar='R',
                   type=_int_reader('verify', f'--max-r <= {MAX_VERIFY_R}'),
                   help=f'largest r (2..{MAX_VERIFY_R}): the kk suite '
                        '(default 32; commutativity capped at 20, Gauss '
                        'words at 24) and the deform skew-symmetry and a = 1 '
                        'checks, capped at 20 and 16; the deform degree check '
                        'is fixed at r <= 32')
    p.add_argument('--max-n', dest='max_n', metavar='N',
                   type=_int_reader('verify', f'--max-n <= {MAX_VERIFY_N}'),
                   help=f'largest n (2..{MAX_VERIFY_N}) of the Wahl pairs '
                        '(n, q): the order suite (default 7), the cross '
                        'suite (default 6) and the deform Q-Gorenstein '
                        'cochain check (default 6)')
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
        if args.format == 'svg' and args.command != 'kk':
            raise ValueError(f'--format svg is drawn only by kk, not {args.command}')
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 1


if __name__ == '__main__':
    sys.exit(main())
