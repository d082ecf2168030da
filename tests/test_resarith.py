from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from wahlorder.resarith import (SingularityParams, WahlParams,
                                InvalidParamsError, inverse_mod,
                                gamma, is_orange, m_of, hj_fraction)


def test_inverse_mod_examples():
    assert inverse_mod(3, 16) == 11
    assert inverse_mod(1, 7) == 1
    assert inverse_mod(2, 9) == 5
    assert inverse_mod(0, 1) == inverse_mod(5, 1) == 0


def test_inverse_mod_noncoprime():
    with pytest.raises(InvalidParamsError):
        inverse_mod(6, 9)


def test_b_is_kept_outside_the_fields():
    p = SingularityParams(16, 3)
    assert p.b == 11 and p.b == inverse_mod(3, 16)
    # reading b changes neither ==, hash nor repr
    fresh = SingularityParams(16, 3)
    assert p == fresh and hash(p) == hash(fresh)
    assert repr(p) == repr(fresh) == 'SingularityParams(r=16, a=3)'
    assert p != SingularityParams(16, 5) and p != (16, 3)
    for name in ('r', 'a', 'b'):
        with pytest.raises(AttributeError):
            setattr(p, name, 5)
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert (p.r, p.a, p.b) == (16, 3, 11) and p == fresh


def test_the_two_parameter_classes_are_values_of_their_own():
    s, w = SingularityParams(4, 1), WahlParams(4, 1)
    assert s != w and w != s
    assert repr(w) == 'WahlParams(n=4, q=1)'
    assert w == WahlParams(4, 1) and hash(w) == hash(WahlParams(4, 1))
    for name in ('n', 'q'):
        with pytest.raises(AttributeError):
            setattr(w, name, 3)
    # each works as a dict key, and the two never share an entry
    table = {s: 'singularity', w: 'wahl'}
    assert len(table) == 2
    assert table[SingularityParams(4, 1)] == 'singularity'
    assert table[WahlParams(4, 1)] == 'wahl'
    assert {SingularityParams(9, 2), w.params, SingularityParams(9, 2)} == {
        SingularityParams(9, 2), SingularityParams(16, 3)}


def test_params_validation():
    p = SingularityParams(9, 2)
    assert p.b == 5
    with pytest.raises(InvalidParamsError):
        SingularityParams(1, 1)
    with pytest.raises(InvalidParamsError):
        SingularityParams(9, 3)
    with pytest.raises(InvalidParamsError):
        SingularityParams(9, 0)
    with pytest.raises(InvalidParamsError):
        SingularityParams(9, 9)


def test_wahl_params():
    w = WahlParams(3, 1)
    assert (w.params.r, w.params.a) == (9, 2)
    with pytest.raises(InvalidParamsError):
        WahlParams(4, 2)
    with pytest.raises(InvalidParamsError):
        WahlParams(1, 1)


def test_gamma_examples():
    p = SingularityParams(9, 2)
    assert gamma((1, 5), p) == 0 and is_orange((1, 5), p)
    assert gamma((0, 0), p) == 0
    assert gamma((2, 3), p) == 2
    assert not is_orange((1, 4), p)


@given(st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50), st.integers(-50, 50))
def test_gamma_is_homomorphism(x1, y1, x2, y2):
    p = SingularityParams(16, 3)
    s = ((x1 + x2), (y1 + y2))
    assert gamma(s, p) == (gamma((x1, y1), p) + gamma((x2, y2), p)) % p.r


def test_orange_index():
    for (r, a) in ((9, 2), (16, 3), (7, 6), (15, 4)):
        p = SingularityParams(r, a)
        count = sum(is_orange((x, y), p) for x in range(r) for y in range(r))
        assert count == r  # index-r sublattice


def test_m_of_examples():
    p = SingularityParams(9, 2)
    assert m_of(0, p) == 9
    assert m_of(4, p) == 5
    assert m_of(1, p) == 1


def test_m_of_bounds():
    for (r, a) in ((9, 2), (16, 3), (19, 7)):
        p = SingularityParams(r, a)
        for j in range(1, r):
            assert 1 <= m_of(j, p)
            if -a * j % r >= 1:
                assert m_of(j, p) <= p.b % r


def _m_by_definition(j, p):
    """The gap function as defined: min of [k*b] over k = 1..[-a*j], and r
    at j = 0, in O(r)."""
    r = p.r
    if j % r == 0:
        return r
    return min(k * p.b % r for k in range(1, -p.a * j % r + 1))


def test_gaps_and_m_of_match_the_definition():
    for r in range(2, 41):
        for a in range(1, r):
            if gcd(a, r) != 1:
                continue
            p = SingularityParams(r, a)
            assert p.gaps[0] == r and len(p.gaps) == r
            for L in range(1, r):
                assert p.gaps[L] == min(k * p.b % r for k in range(1, L + 1))
            for j in range(-r, 2 * r):
                assert m_of(j, p) == _m_by_definition(j, p), (r, a, j)
    # reading gaps changes neither ==, hash nor repr
    p, fresh = SingularityParams(16, 3), SingularityParams(16, 3)
    assert p.gaps == (16, 11, 6, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
    assert p == fresh and hash(p) == hash(fresh)
    assert repr(p) == repr(fresh) == 'SingularityParams(r=16, a=3)'
    assert p == SingularityParams(16, 3) and p.gaps == fresh.gaps


def test_hj_fraction_examples():
    assert hj_fraction(2, 1) == [2]
    assert hj_fraction(4, 3) == [2, 2, 2]
    # the Wahl case (n, q) = (2, 1): r = 4, a = 1, r/(r-a) = 4/3
    assert hj_fraction(4, 4 - 1) == [2, 2, 2]
    with pytest.raises(InvalidParamsError):
        hj_fraction(4, 4)
    with pytest.raises(InvalidParamsError):
        hj_fraction(4, 0)


def hj_evaluate(coeffs: list[int]) -> Fraction:
    """Evaluate b_1 - 1/(b_2 - 1/(...)) exactly; oracle for hj_fraction."""
    val = Fraction(coeffs[-1])
    for b in reversed(coeffs[:-1]):
        val = b - 1 / val
    return val


@given(st.integers(2, 400), st.data())
def test_hj_fraction_evaluates_back(r, data):
    d = data.draw(st.integers(1, r - 1))
    coeffs = hj_fraction(r, d)
    assert all(b >= 2 for b in coeffs)
    assert hj_evaluate(coeffs) == Fraction(r, d)
