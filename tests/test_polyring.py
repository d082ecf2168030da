import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wahlorder.polyring import (Poly, S, T, tsub, acoef, parse_poly,
                                format_poly, PolyParseError, MAX_NESTING,
                                MAX_TERMS, MAX_BITS, read_int)
from bareiss_oracle import (solve_in_span, solve_in_span_many, is_polynomial,
                            RationalCoord, DeficientBasisError, OutOfSpanError,
                            _udivides)

VARS = [S, T, tsub(1), tsub(2), tsub(14), acoef(8)]


@st.composite
def polys(draw):
    nterms = draw(st.integers(0, 5))
    p = Poly.zero()
    for _ in range(nterms):
        coeff = draw(st.integers(-9, 9))
        term = Poly.const(coeff)
        for v in draw(st.lists(st.sampled_from(VARS), max_size=3)):
            term = term * Poly.var(v, draw(st.integers(1, 3)))
        p = p + term
    return p


def test_basic_ops_examples():
    t1, t2, t3 = Poly.var(tsub(1)), Poly.var(tsub(2)), Poly.var(tsub(3))
    assert format_poly(t1 * t3 + t2 * t2) == 't_1 t_3 + t_2^2'
    assert Poly.var(T) * Poly.var(T, 3) == Poly.var(T, 4)
    p = t1 * t2 - Poly.const(7)
    assert (p + (-p)).is_zero()


@settings(max_examples=60)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60)
@given(polys(), polys(), st.integers(0, 4), st.sampled_from(VARS))
def test_ring_results_hold_no_zero_and_sorted_monomials(p, q, n, v):
    for got in (p + q, p - q, p - p, -p, p * q, p ** n, p.substitute({v: q})):
        assert all(got.terms.values())
        assert all(m == tuple(sorted(m)) for m in got.terms)
    assert not (p - p).terms


@settings(max_examples=40)
@given(polys(), st.integers(0, 5))
def test_power_is_the_repeated_product(p, n):
    want = Poly.const(1)
    for _ in range(n):
        want = want * p
    assert p ** n == want
    if n <= 2:  # one product or none: the same terms in the same order
        assert list((p ** n).terms.items()) == list(want.terms.items())


@settings(max_examples=40)
@given(polys(), polys())
def test_substitute_is_homomorphism(p, q):
    sub = {tsub(1): Poly.var(tsub(2)) + Poly.const(1),
           S: Poly.var(T) * Poly.var(T),
           tsub(14): Poly.zero()}
    assert (p + q).substitute(sub) == p.substitute(sub) + q.substitute(sub)
    assert (p * q).substitute(sub) == p.substitute(sub) * q.substitute(sub)


def test_substitute_examples():
    # the first component generator t_1 t_14 + s dies on s -> -t_1 t_14
    t1, t14 = Poly.var(tsub(1)), Poly.var(tsub(14))
    p = t1 * t14 + Poly.var(S)
    assert p.substitute({S: -(t1 * t14)}).is_zero()
    t7 = Poly.var(tsub(7))
    q = t7 * t7 - t14
    assert q.substitute({tsub(14): t7 * t7}).is_zero()
    assert p.substitute({}) == p


def test_substitute_is_simultaneous():
    # images are read off the original polynomial, not re-substituted
    t1, t2 = Poly.var(tsub(1)), Poly.var(tsub(2))
    p = t1 + t2
    out = p.substitute({tsub(1): t2, tsub(2): Poly.const(3)})
    assert out == t2 + Poly.const(3)


def test_eval_at():
    t = Poly.var(T)
    assert (t * t).eval_at({T: 1}) == 1
    p = Poly.var(T, 2) * Poly.var(acoef(8))
    assert p.eval_at({T: 0, acoef(8): 5}) == 0
    t1, t2, t3 = (Poly.var(tsub(i)) for i in (1, 2, 3))
    q = t1 * t3 + t2 * t2 + Poly.var(S)
    point = {tsub(1): 0, tsub(3): 0, tsub(2): 1, S: -1}
    assert q.eval_at(point) == 0
    with pytest.raises(ValueError):
        q.eval_at({tsub(1): 0})
    assert q.eval_at({tsub(1): '1/2', tsub(3): 2, tsub(2): 0, S: 0}) == 1


def per_term_eval(p, point):
    """Reference for eval_at: every factor as a Fraction, term by term."""
    total = Fraction(0)
    for m, c in p.terms.items():
        val = Fraction(c)
        for v, e in m:
            val *= Fraction(point[v]) ** e
        total += val
    return total


@settings(max_examples=80, deadline=None)
@given(polys(), st.lists(st.one_of(st.integers(-50, 50),
                                   st.fractions(max_denominator=12)),
                         min_size=len(VARS), max_size=len(VARS)))
def test_eval_at_matches_per_term_fractions(p, values):
    point = dict(zip(VARS, values))
    assert p.eval_at(point) == per_term_eval(p, point)
    ints = {v: int(x) for v, x in point.items()}
    got = p.eval_at(ints)
    assert type(got) is int and got == per_term_eval(p, ints)


def test_parse_print_round_trip():
    for text in ('t^2 a_8 + t a_5', '-t^2 a_6 - t a_3 + a_0',
                 't_1 t_14 + s', 't_1 t_3 + t_2^2 + s', '0', '-3 t^4 a_20 + 7',
                 's t^2 t_3 a_1 + s^2 a_0 - t t_1^2', 't t_1 a_0 + s a_1 + t t_2'):
        p = parse_poly(text)
        assert format_poly(p) == text
        assert parse_poly(format_poly(p)) == p


def test_parse_variants():
    assert parse_poly('t^{2} a_{8}+t a_{5}') == parse_poly('t^2 a_8 + t a_5')
    assert parse_poly('t_{14}') == Poly.var(tsub(14))
    assert parse_poly('2*t_1*t_14') == Poly.var(tsub(1)) * Poly.var(tsub(14)) * Poly.const(2)
    assert parse_poly('-(s + 1)^2') == -(Poly.var(S) + Poly.const(1)) ** 2
    with pytest.raises(ValueError):
        parse_poly('t_1 +')
    with pytest.raises(ValueError):
        parse_poly('x_3')


def test_a_sign_applies_to_the_factor_after_it():
    s, t = Poly.var(S), Poly.var(T)
    assert parse_poly('-s^2') == -(s * s)
    assert parse_poly('-2 s + t') == Poly.var(S, 1, -2) + t
    assert parse_poly('2*-t') == parse_poly('-2*t') == Poly.var(T, 1, -2)
    assert parse_poly('2*+t') == parse_poly('+2 t') == Poly.var(T, 1, 2)
    assert parse_poly('s++s') == parse_poly('s--s') == Poly.var(S, 1, 2)
    assert parse_poly('0-+3') == parse_poly('-+-+-3') == Poly.const(-3)
    assert parse_poly('(-s)(+t)') == -(s * t)
    # a run of signs is read in a loop, not one frame per sign
    assert parse_poly('-' * 5001 + 's') == -s
    for text in ('s^-2', 's^+2', 's*', '-', 's+*t'):
        with pytest.raises(PolyParseError):
            parse_poly(text)


def test_parenthesis_nesting_is_bounded():
    deepest = '(' * MAX_NESTING + 't_1' + ')' * MAX_NESTING
    assert parse_poly(deepest) == Poly.var(tsub(1))
    assert parse_poly(f'-{deepest}^2 + {deepest}') == parse_poly('-t_1^2 + t_1')
    for pairs in (MAX_NESTING + 1, 400, 5000):
        with pytest.raises(PolyParseError, match=f'^parentheses nested deeper '
                           f'than {MAX_NESTING} levels$'):
            parse_poly('(' * pairs + 't_1' + ')' * pairs)


def test_products_and_powers_are_bounded_before_they_are_formed():
    t1, t2 = Poly.var(tsub(1)), Poly.var(tsub(2))
    twelve = ' + '.join(f't_{i}' for i in range(1, 13))
    assert parse_poly(f't_1^{MAX_TERMS}') == Poly.var(tsub(1), MAX_TERMS)
    one = Poly.const(1)
    assert parse_poly(f'(t_1 + 1)^{MAX_TERMS - 1}') == (t1 + one) ** (MAX_TERMS - 1)
    assert parse_poly('(t_1 + t_2 + 1)^14') == (t1 + t2 + one) ** 14  # 120 terms
    for text, what in ((f'(t_1 + 1)^{MAX_TERMS}', 'a power'),
                       ('(t_1 + t_2 + 1)^15', 'a power'),
                       ('(t_1 + t_2 + 1)^100', 'a power'),
                       (f'({twelve})({twelve})', 'a product'),
                       (f'({twelve}) * ({twelve})', 'a product')):
        with pytest.raises(PolyParseError, match=f'^{what} could hold more '
                           f'than {MAX_TERMS} terms$'):
            parse_poly(text)
    for text in (f't_1^{MAX_TERMS + 1}', f'2^{10 ** 12}'):
        with pytest.raises(PolyParseError, match=f'^exponent .* is over {MAX_TERMS}$'):
            parse_poly(text)
    # a product or power is refused when the sum of the absolute
    # coefficients of its factors could pass MAX_BITS bits
    assert MAX_BITS == 4096
    assert parse_poly('(2^31)^128') == Poly.const(2 ** 3968)  # 128 * 32 bits
    assert parse_poly(f'{2 ** 4000} * {2 ** 94}') == Poly.const(2 ** 4094)
    assert parse_poly(f'{2 ** 4094} t_1') == Poly.var(tsub(1), 1, 2 ** 4094)
    for text, what in (('(2^32)^127', 'a power'),
                       ('((2^128)^128)^128', 'a power'),
                       (f'{2 ** 4000} * {2 ** 95}', 'a product'),
                       (f'{2 ** 4095} t_1', 'a product'),
                       (f'(t_1 + {2 ** 4094})(t_2 + 1)', 'a product')):
        with pytest.raises(PolyParseError, match=f'^{what} could hold a coefficient '
                           f'of more than {MAX_BITS} bits$'):
            parse_poly(text)


def test_digit_runs_are_refused_by_significant_digits_before_conversion():
    # 2^MAX_BITS has 1234 digits; a run with more significant digits than
    # that is refused unread, as a literal, an exponent or a subscript, and
    # leading zeros do not count
    widest = '9' * 1234
    assert parse_poly(widest) == Poly.const(int(widest))
    zeros = '0' * 5000
    assert parse_poly(f'{zeros}7 t_{zeros}3') == Poly.var(tsub(3), 1, 7)
    # a run of zeros alone is 0, read without int()'s limit on digits
    assert read_int(zeros) == 0 and read_int(zeros + '7') == 7
    assert parse_poly(zeros) == Poly.zero()
    assert parse_poly(f't^{zeros} + t_{zeros}') == Poly.const(1) + Poly.var(tsub(0))
    for text in ('1' + '0' * 1234, '9' * 5000, 't^' + '9' * 5000,
                 't_' + '9' * 5000, 'a_' + '9' * 5000):
        with pytest.raises(PolyParseError,
                           match='^a number has more than 1234 digits$'):
            parse_poly(text)


def _mat(entries):
    return [[parse_poly(e) for e in row] for row in entries]


def test_solve_in_span_trivial():
    basis = [_mat([['1', '0'], ['0', '1']]),
             _mat([['0', 't'], ['0', '0']]),
             _mat([['0', '0'], ['1', '0']])]
    coords = solve_in_span(basis[0], basis)
    assert [c.as_poly() for c in coords] == [Poly.const(1), Poly.zero(), Poly.zero()]
    target = _mat([['0', 't^2'], ['1', '0']])  # t*basis_1 + basis_2
    coords = solve_in_span(target, basis)
    ok, cleared = is_polynomial(coords)
    assert ok
    assert cleared == [Poly.zero(), Poly.var(T), Poly.const(1)]


def test_solve_in_span_rational_and_failures():
    basis = [_mat([['t', '0'], ['0', '1']]),
             _mat([['0', '1'], ['0', '0']])]
    # coordinate 1/t: in the span over rational functions but not polynomial
    target = _mat([['1', '0'], ['0', '0']])
    with pytest.raises(OutOfSpanError):
        solve_in_span(target, basis)
    # fraction with exact division: (t^2 + t)/t = t + 1
    target2 = _mat([['t^2 + t', '0'], ['0', 't + 1']])
    coords = solve_in_span(target2, basis)
    ok, cleared = is_polynomial(coords)
    assert ok and cleared[0] == parse_poly('t + 1')
    # deficient basis reported distinctly
    dep = [basis[1], basis[1]]
    with pytest.raises(DeficientBasisError):
        solve_in_span(target2, dep)
    # genuinely out of span
    with pytest.raises(OutOfSpanError):
        solve_in_span(_mat([['0', '0'], ['0', 't']]), [basis[1]])


def test_solve_in_span_2x2_order_oracle():
    """Brute-force oracle: multiply the (2,1) order basis matrices by hand and
    recover polynomial coordinates."""
    # basis of the n=2 order: I, -t E21, -t E22, t E12
    basis = [_mat([['1', '0'], ['0', '1']]),
             _mat([['0', '0'], ['-t', '0']]),
             _mat([['0', '0'], ['0', '-t']]),
             _mat([['0', 't'], ['0', '0']])]
    m1 = basis[1]
    prod = [[sum((m1[i][k] * m1[k][j] for k in range(2)), Poly.zero())
             for j in range(2)] for i in range(2)]
    coords = solve_in_span(prod, basis)  # w_1 * w_1 = 0
    ok, cleared = is_polynomial(coords)
    assert ok and all(c.is_zero() for c in cleared)
    # w_3 * w_1 -> t E12 . (-t) E21 = -t^2 E11 = -t^2 I - t * (-t E22)
    m3 = basis[3]
    prod31 = [[sum((m3[i][k] * m1[k][j] for k in range(2)), Poly.zero())
               for j in range(2)] for i in range(2)]
    ok, cleared = is_polynomial(solve_in_span(prod31, basis))
    assert ok
    assert cleared == [parse_poly('-t^2'), Poly.zero(), parse_poly('-t'), Poly.zero()]
    # the flatness witness: every pairwise product has polynomial coordinates
    for left in basis:
        for right in basis:
            prod = [[sum((left[i][k] * right[k][j] for k in range(2)), Poly.zero())
                     for j in range(2)] for i in range(2)]
            ok, _ = is_polynomial(solve_in_span(prod, basis))
            assert ok


def test_solve_in_span_many_matches_single():
    basis = [_mat([['1', '0'], ['0', '1']]),
             _mat([['0', 't'], ['t^2', '0']]),
             _mat([['t', '0'], ['0', '-t']])]
    targets = [_mat([['t + 1', 't^3'], ['t^4', '1 - t']]),
               basis[2]]
    many = solve_in_span_many(targets, basis)
    for tgt, coords in zip(targets, many):
        assert coords == solve_in_span(tgt, basis)
    # recombination reproduces the target exactly
    ok, cleared = is_polynomial(many[0])
    assert ok
    for i in range(2):
        for j in range(2):
            acc = Poly.zero()
            for c, b in zip(cleared, basis):
                acc = acc + c * b[i][j]
            assert acc == targets[0][i][j]


def test_rational_coord_normalization():
    c = RationalCoord([0, 1, 1], [0, 1])  # (t^2 + t)/t
    assert c.is_polynomial() and format_poly(c.as_poly()) == 't + 1'
    c2 = RationalCoord([1], [0, 1])  # 1/t
    assert not c2.is_polynomial()
    c3 = RationalCoord([0, 2], [-2])
    assert c3.num == [0, -1] and c3.den == [1]


def test_solve_in_span_random_vs_fraction_oracle():
    """Independent oracle: Gaussian elimination over Fraction at the symbolic
    level is replaced by interpolation-free evaluation at enough points; the
    Bareiss solution must evaluate to the same coordinates everywhere."""
    import random
    from fractions import Fraction

    rng = random.Random(20260810)
    for trial in range(25):
        dim = rng.randint(2, 3)
        nbasis = rng.randint(1, dim * dim)
        def rand_poly():
            return Poly({(() if e == 0 else ((T, e),)): rng.randint(-4, 4)
                         for e in range(rng.randint(1, 3))})
        basis = [[[rand_poly() for _ in range(dim)] for _ in range(dim)]
                 for _ in range(nbasis)]
        weights = [rand_poly() for _ in range(nbasis)]
        target = [[Poly.zero()] * dim for _ in range(dim)]
        for w, b in zip(weights, basis):
            for i in range(dim):
                for j in range(dim):
                    target[i][j] = target[i][j] + w * b[i][j]
        try:
            coords = solve_in_span(target, basis)
        except DeficientBasisError:
            # the random basis was dependent; the target is still in the span
            continue
        # recombination at 12 sample points over Q
        for tau in range(1, 13):
            pt = {T: Fraction(tau)}
            for i in range(dim):
                for j in range(dim):
                    acc = Fraction(0)
                    for c, b in zip(coords, basis):
                        num = Poly({(() if e == 0 else ((T, e),)): v
                                    for e, v in enumerate(c.num)})
                        den = Poly({(() if e == 0 else ((T, e),)): v
                                    for e, v in enumerate(c.den)})
                        dv = den.eval_at(pt)
                        if dv == 0:
                            break
                        acc += num.eval_at(pt) / dv * b[i][j].eval_at(pt)
                    else:
                        assert acc == target[i][j].eval_at(pt)


@pytest.mark.parametrize('q,p,want', [
    ([1, 2], [3, 5, -2], [3, -1]),      # (1 + 2t)(3 - t): non-monic, exact
    ([0, -3], [0, 6, -3], [-2, 1]),     # negative leading coefficient
    ([0, 2], [0, 1], None),             # t / 2t = 1/2 is not integral
    ([2, 2], [1, 1], None),             # exact over Q, quotient 1/2
    ([1, 1], [1, 0, 1], None),          # nonzero remainder
    ([1, 0, 1], [1, 1], None),          # divisor of higher degree
    ([1, 2], [], []),                   # zero dividend
])
def test_udivides(q, p, want):
    assert _udivides(q, p) == want


def _substitute_by_sums(p, sub):
    """Reference for Poly.substitute: each term's image, img ** e per
    variable, the terms summed with +."""
    out = Poly()
    for m, c in p.terms.items():
        term = Poly.const(c)
        for v, e in m:
            img = sub.get(v)
            term = term * (Poly.var(v) if img is None else img) ** e
        out = out + term
    return out


def test_substitute_matches_the_term_by_term_sum():
    rng = random.Random(13)

    def rand_poly(nterms, max_exp):
        p = Poly.zero()
        for _ in range(nterms):
            term = Poly.const(rng.choice((1, -1, 2, -3)))
            for v in rng.sample(VARS, rng.randint(0, 3)):
                term = term * Poly.var(v, rng.randint(1, max_exp))
            p = p + term
        return p

    for _ in range(300):
        p = rand_poly(rng.randint(0, 8), 3)
        sub = {v: rand_poly(rng.randint(0, 3), 2)
               for v in rng.sample(VARS, rng.randint(0, 4))}
        got, want = p.substitute(sub), _substitute_by_sums(p, sub)
        # the same terms, in the same order
        assert list(got.terms.items()) == list(want.terms.items())
