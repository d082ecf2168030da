"""Exact sparse polynomials over Z: arithmetic, substitution, evaluation,
printing and parsing.

A variable is an int pair (kind, index), the kinds numbered in print order:

    S         = (0, 0)    s, deformation / divisor parameter
    T         = (1, 0)    t, one-parameter smoothing coordinate
    tsub(i)   = (2, i)    t_i, cochain coefficient
    acoef(k)  = (3, k)    a_k, symbolic order coefficient

so tuple order is the variable order s < t < t_i < a_k.  A Poly is a
canonical map {monomial: nonzero int}; a monomial is a tuple of
((var, exp), ...) pairs sorted as tuples, that is by variable.
Printing uses graded-lex descending order so output is byte-stable, and the
printer/parser round-trip on the style "t^2 a_8 + t a_5".
"""

from __future__ import annotations

from math import comb
import re

Var = tuple  # (kind, index)

S: Var = (0, 0)
T: Var = (1, 0)


def tsub(i: int) -> Var:
    return (2, i)


def acoef(k: int) -> Var:
    return (3, k)


_NAMES = ('s', 't', 't_{}', 'a_{}')


def _var_str(v: Var) -> str:
    return _NAMES[v[0]].format(v[1])


class Poly:
    """Immutable sparse polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ('terms',)

    def __init__(self, terms=None):
        # canonical form: zero coefficients never stored
        self.terms = {m: c for m, c in terms.items() if c} if terms else {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> 'Poly':
        return Poly()

    @staticmethod
    def const(c: int) -> 'Poly':
        return Poly({(): c}) if c else Poly()

    @staticmethod
    def from_nonzero(terms: dict) -> 'Poly':
        """Wrap terms that already hold no zero coefficient, skipping the
        re-filter; the dict is taken as it is, not copied."""
        p = Poly.__new__(Poly)
        p.terms = terms
        return p

    @staticmethod
    def var(v: Var, exp: int = 1, coeff: int = 1) -> 'Poly':
        if coeff == 0:
            return Poly()
        if exp == 0:
            return Poly.const(coeff)
        return Poly({((v, exp),): coeff})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: 'Poly') -> 'Poly':
        return Poly.from_nonzero(_add_terms(dict(self.terms), other.terms))

    def __neg__(self) -> 'Poly':
        return Poly.from_nonzero({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: 'Poly') -> 'Poly':
        return self + (-other)

    def __mul__(self, other: 'Poly') -> 'Poly':
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = out.get(m, 0) + c1 * c2
                if c:
                    out[m] = c
                else:
                    del out[m]
        return Poly.from_nonzero(out)

    def __pow__(self, n: int) -> 'Poly':
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = None  # 1, left out of the first product
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return Poly.const(1) if result is None else result

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree_in(self, v: Var) -> int:
        if not self.terms:
            return -1
        return max(dict(m).get(v, 0) for m in self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f'Poly({format_poly(self)!r})'

    def __str__(self):
        return format_poly(self)

    # -- substitution / evaluation ------------------------------------------

    def substitute(self, sub: dict) -> 'Poly':
        """Simultaneous substitution; unmapped variables pass through.

        A term is its coefficient times its unmapped variables times img^e
        for each mapped variable, and the terms are summed one by one into
        one dict by _add_terms, so they come out in the order that summing
        them with + gives.
        """
        out = {}
        for m, c in self.terms.items():
            term = Poly.from_nonzero(
                {tuple(ve for ve in m if ve[0] not in sub): c})
            for v, e in m:
                if v in sub:
                    term = term * sub[v] ** e
            _add_terms(out, term.terms)
        return Poly.from_nonzero(out)

    def eval_at(self, point: dict):
        """Exact evaluation; every variable must be assigned.

        The sum is formed as the values come: a point value that is not an
        int is converted once, through Fraction, so the result is an int at
        a point of ints and may be a Fraction otherwise.
        """
        vals = {}
        total = 0
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                x = vals.get(v)
                if x is None:
                    if v not in point:
                        raise ValueError(f"unassigned variable {_var_str(v)}")
                    x = point[v]
                    if not isinstance(x, int):
                        from fractions import Fraction
                        x = Fraction(x)
                    vals[v] = x
                val *= x ** e
            total += val
        return total


def _add_terms(out: dict, terms: dict, scale=1) -> dict:
    """out += scale * terms in place, returning out: a monomial already in
    out takes the sum where it stands and leaves when the sum is 0, and a
    new one is appended (a zero term is never stored)."""
    for m, c in terms.items():
        c = out.get(m, 0) + c * scale
        if c:
            out[m] = c
        else:
            out.pop(m, None)
    return out


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


# ---------------------------------------------------------------------------
# printing / parsing
# ---------------------------------------------------------------------------

def _term_order(item):
    # graded-lex, descending, on the monomial of a (monomial, coeff) item:
    # higher total degree first, then larger exponent on the earliest
    # variable (monomials are stored sorted by variable).
    m = item[0]
    return -sum([e for _, e in m]), [(v, -e) for v, e in m]


def format_poly(p: Poly) -> str:
    if p.is_zero():
        return '0'
    parts = []
    for m, c in sorted(p.terms.items(), key=_term_order):
        factors = []
        for (kind, i), e in m:
            name = _NAMES[kind].format(i)
            factors.append(name if e == 1 else f'{name}^{e}')
        body = ' '.join(factors)
        mag = abs(c)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f'{mag} {body}'
        if not parts:
            parts.append(text if c > 0 else f'-{text}')
        else:
            parts.append(f'+ {text}' if c > 0 else f'- {text}')
    return ' '.join(parts)


class PolyParseError(ValueError):
    pass


# digits are ASCII [0-9]: \d would also read the other scripts' digits
_TOKEN = re.compile(
    r'\s*(?:([0-9]+)|([st])(?:_([0-9]+))?|(a)_([0-9]+)|([()+\-^*]))')

# deepest parenthesis nesting parse_poly reads, checked as it tokenizes;
# each level costs three frames, well inside Python's recursion limit
MAX_NESTING = 100

# The spec budget, checked before anything is multiplied out.  MAX_TERMS is
# the most terms parse_poly lets a product or a power form: x*y holds at most
# len(x) * len(y) terms and p^k at most C(n + k - 1, k), n the terms of p;
# an exponent is held to the same number.  MAX_BITS is the most bits of one
# coefficient they may form: none passes the sum of absolute coefficients,
# and that sum of x*y is at most the product of those of x and y, so a nested
# power such as ((2^128)^128)^128 is refused unformed.  CochainSpec.parse
# holds a spec's values to MAX_TERMS terms and MAX_BITS bits (int.bit_length)
# of coefficients in all.  Set so that the slowest spec measured stays under
# about 5 s and 200 MB in `deform --r 64 --table --spec`, three fresh
# processes each on 2 CPUs with Python 3.11.7, peak RSS the largest of a row;
# the 4096 bits are spread evenly over the coefficients named.  At a = 1 no
# spec below is flat, and the verdict is read off the differentials before
# any product is built; at a = 63 every one is flat, and the products are
# built and printed:
#                                          coefficients 1    4096 bits
#   a = 1:
#   every t_i = c_i t_i (63 terms)         0.4-0.5 s  77 MB  0.4 s      80 MB
#   t_32 a 66-term value, other t_i free   0.5-0.6 s  85 MB  0.7-0.8 s  94 MB
#     its coefficients 1..66               0.5 s      89 MB
#     the bits over all 128 terms                            0.5-0.6 s  97 MB
#     3700 of them in one coefficient                        0.7-0.8 s  92 MB
#   4, 8 or 16 central values share them   0.5-0.8 s  87 MB  0.5-0.9 s  98 MB
#   63 values t_i + t_(i+1) (126 terms)    0.5-0.6 s  82 MB
#   s a 65-term value, every t_i free      0.4-0.6 s  78 MB  0.4 s      78 MB
#   a = 63, --format json:
#   every t_i = c_i t_i                                      1.5-2.3 s 131 MB
#   t_32 a 66-term value, other t_i free   1.7-2.0 s 131 MB  1.5-1.6 s 128 MB
#     the bits over all 128 terms                            1.6-1.8 s 132 MB
#   4 central values share them                              1.5-1.8 s 129 MB
#   63 values t_i + t_(i+1)                2.4-2.5 s 128 MB
#   s a 65-term value, every t_i free                        2.6-3.4 s 148 MB
# In the a = 1 rows the 66-term value is every degree-2 monomial in
# t_1..t_11 (s drops the last), k central values t_(32-k/2)..t_(31+k/2) take
# every k-th of them, the last of the 63 values is t_63 + t_1, and a free
# t_i = t_i spends one of the 4096 bits.
# Before the verdict came first, the a = 1 rows took up to 2.1 s and 213 MB.
# The slowest spec is now a flat one, so a higher MAX_TERMS is bounded by the
# products, not the verdict.
# Without the budget, the 630-term spec of 63 values (t_i + t_(i+1) + 1)^3
# took 29 s, and the 66-term t_32 value with coefficients 10^4000 + i took
# 53 s and 900 MB.
MAX_TERMS = 128
MAX_BITS = 4096


def _refuse_over(what: str, terms: int, bits: int):
    if terms > MAX_TERMS:
        raise PolyParseError(f'{what} could hold more than {MAX_TERMS} terms')
    if bits > MAX_BITS:
        raise PolyParseError(f'{what} could hold a coefficient of more than '
                             f'{MAX_BITS} bits')


def read_int(run: str) -> int:
    """The int of run, a run of ASCII digits, refused unread when it has more
    significant digits than 2^MAX_BITS: a literal that wide is over
    MAX_BITS, an exponent over MAX_TERMS, and no table can be built at such
    an index."""
    digits = run.lstrip('0')
    # 2^MAX_BITS has more than MAX_BITS / 4 digits, so only a run that long
    # needs the exact count
    if len(digits) > MAX_BITS // 4 and len(digits) > len(str(1 << MAX_BITS)):
        raise PolyParseError(f'a number has more than '
                             f'{len(str(1 << MAX_BITS))} digits')
    # int() counts leading zeros against its own limit on digits, so a run
    # of zeros alone is read here
    return int(digits) if digits else 0


def _norm_bits(p: Poly) -> int:
    """Bits of the sum of p's absolute coefficients, a bound on each."""
    return sum(map(abs, p.terms.values())).bit_length()


def parse_poly(text: str) -> Poly:
    """Parse the display style: 't^2 a_8 + t a_5', 't_1 t_14 + s', '-(s + 2)^2'.

    Braces as in 't^{2} a_{8}' are accepted and ignored.  A sign applies to
    the factor right after it, so '-s^2' is -(s^2) and '2*-t' is -2 t.
    A product or power that could hold more than MAX_TERMS terms or a
    coefficient of more than MAX_BITS bits, and an exponent over MAX_TERMS,
    are refused before anything is multiplied; every digit run is read by
    read_int.
    """
    text = text.replace('{', '').replace('}', '')
    tokens = []
    pos = depth = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PolyParseError(f'unexpected input at {text[pos:]!r}')
            break
        pos = m.end()
        if m.group(1):
            tokens.append(('int', read_int(m.group(1))))
        elif m.group(2):
            letter, idx = m.group(2), m.group(3)
            if idx is None:
                tokens.append(('var', S if letter == 's' else T))
            else:
                if letter == 's':
                    raise PolyParseError('s takes no subscript')
                tokens.append(('var', tsub(read_int(idx))))
        elif m.group(4):
            tokens.append(('var', acoef(read_int(m.group(5)))))
        else:
            depth += (m.group(6) == '(') - (m.group(6) == ')')
            if depth > MAX_NESTING:
                raise PolyParseError(f'parentheses nested deeper than '
                                     f'{MAX_NESTING} levels')
            tokens.append(('op', m.group(6)))

    ix = 0

    def peek():
        return tokens[ix] if ix < len(tokens) else (None, None)

    def expr():
        # the sign between two terms is read by the second term's factor
        result = term()
        while peek() in (('op', '+'), ('op', '-')):
            result = result + term()
        return result

    def term():
        nonlocal ix
        result = factor()
        while True:
            kind, val = peek()
            if kind == 'op' and val == '*':
                ix += 1
            elif not (kind in ('int', 'var') or (kind == 'op' and val == '(')):
                return result
            rhs = factor()
            _refuse_over('a product', len(result.terms) * len(rhs.terms),
                         _norm_bits(result) + _norm_bits(rhs))
            result = result * rhs

    def factor():
        nonlocal ix
        negate = False
        while peek() in (('op', '+'), ('op', '-')):
            negate ^= tokens[ix][1] == '-'
            ix += 1
        kind, val = peek()
        if kind is None:
            raise PolyParseError('unexpected end of input')
        if kind == 'int':
            ix += 1
            base = Poly.const(val)
        elif kind == 'var':
            ix += 1
            base = Poly.var(val)
        elif kind == 'op' and val == '(':
            ix += 1
            base = expr()
            if peek() != ('op', ')'):
                raise PolyParseError('missing closing parenthesis')
            ix += 1
        else:
            raise PolyParseError(f'unexpected token {val!r}')
        if peek() == ('op', '^'):
            ix += 1
            k2, v2 = peek()
            if k2 != 'int':
                raise PolyParseError('exponent must be an integer')
            ix += 1
            if v2 > MAX_TERMS:
                raise PolyParseError(f'exponent {v2} is over {MAX_TERMS}')
            n = len(base.terms)
            _refuse_over('a power', comb(n + v2 - 1, v2) if n > 1 else n,
                         v2 * _norm_bits(base))
            base = base ** v2
        return -base if negate else base

    result = expr()
    if ix != len(tokens):
        raise PolyParseError(f'trailing tokens at {tokens[ix:]}')
    return result
