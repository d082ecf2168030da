"""Residue arithmetic for cyclic quotient singularities 1/r(1,a).

Every construction in this package is indexed by a coprime pair (r, a) with
0 < a < r, together with the inverse b of a modulo r.  The representative
[x] in [0, r) is Python's x % r, taken only for an r >= 2 that
SingularityParams or OrderTable has validated.  This module provides the
labelling homomorphism gamma(i, j) = [j - b*i] on the integer lattice, its
kernel sublattice of "orange" points, the gap function m(j) that controls
products, and Hirzebruch-Jung continued fractions.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd


class InvalidParamsError(ValueError):
    """Raised for parameter triples that do not define a singularity."""


def inverse_mod(a: int, r: int) -> int:
    """The inverse b of a modulo r with 0 < b < r; requires gcd(a, r) = 1."""
    if r <= 0:
        raise InvalidParamsError(f"modulus must be positive, got {r}")
    if gcd(a, r) != 1:
        raise InvalidParamsError(f"{a} is not invertible modulo {r}")
    return pow(a, -1, r)


class _IntPair:
    """Two int fields with value semantics.  The subclass names them in
    _fields, and its __init__ writes each to the instance __dict__ and both
    as the tuple _pair.  == and hash read the pair, which never equals the
    pair of another class; the repr names both fields; a field cannot be
    assigned or deleted.  A cached_property writes the instance __dict__
    directly, so it stays outside all three."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._pair == other._pair
        return NotImplemented

    def __hash__(self):
        return hash(self._pair)

    def __repr__(self):
        return (f"{type(self).__name__}({self._fields[0]}={self._pair[0]!r}, "
                f"{self._fields[1]}={self._pair[1]!r})")


class SingularityParams(_IntPair):
    """The triple (r, a, b) with a*b = 1 mod r and 0 < a < r.

    r = 1 (a smooth point) is rejected: all constructions here assume a
    genuine singularity.
    """

    _fields = ('r', 'a')

    def __init__(self, r: int, a: int):
        self.__dict__.update(r=r, a=a, _pair=(r, a))
        if self.r < 2:
            raise InvalidParamsError(f"need r >= 2, got r={self.r}")
        if not 0 < self.a < self.r:
            raise InvalidParamsError(f"need 0 < a < r, got a={self.a}, r={self.r}")
        if gcd(self.a, self.r) != 1:
            raise InvalidParamsError(f"a={self.a} and r={self.r} are not coprime")

    @cached_property
    def b(self) -> int:
        # computed on first read and kept in the instance __dict__, outside
        # the pair (r, a) that ==, hash and repr read
        return inverse_mod(self.a, self.r)

    @cached_property
    def gaps(self) -> tuple:
        """Prefix minima of [k*b]: entry L is min of [k*b] over k = 1..L for
        0 < L < r, and entry 0 is r.  Kept like b, outside the pair."""
        r, b = self.r, self.b
        out = [r]
        for k in range(1, r):
            out.append(min(out[-1], k * b % r))
        return tuple(out)

    def __str__(self):
        return f"1/{self.r}({1},{self.a})"


class WahlParams(_IntPair):
    """Coprime 0 < q < n, n >= 2; indexes the singularity 1/n^2(1, nq-1)."""

    _fields = ('n', 'q')

    def __init__(self, n: int, q: int):
        self.__dict__.update(n=n, q=q, _pair=(n, q))
        if self.n < 2:
            raise InvalidParamsError(f"need n >= 2, got n={self.n}")
        if not 0 < self.q < self.n:
            raise InvalidParamsError(f"need 0 < q < n, got q={self.q}")
        if gcd(self.n, self.q) != 1:
            raise InvalidParamsError(f"n={self.n}, q={self.q} are not coprime")

    @property
    def params(self) -> SingularityParams:
        return SingularityParams(self.n * self.n, self.n * self.q - 1)


LatticePoint = tuple  # (x, y) in Z^2


def gamma(p: LatticePoint, params: SingularityParams) -> int:
    """Label of the lattice point p = (x, y): [y - b*x] in Z_r.

    gamma is a group homomorphism Z^2 -> Z_r; its kernel is the index-r
    sublattice of orange points.
    """
    x, y = p
    return (y - params.b * x) % params.r


def is_orange(p: LatticePoint, params: SingularityParams) -> bool:
    return gamma(p, params) == 0


def m_of(j: int, params: SingularityParams) -> int:
    """Gap function: min of [k*b] over k = 1..[-a*j] for j != 0, and r for j = 0.

    The product w_j * w_i is nonzero exactly when m(j) > [i].  Reads one
    entry of params.gaps.
    """
    return params.gaps[-params.a * j % params.r]


def hj_fraction(r: int, d: int) -> list[int]:
    """Hirzebruch-Jung expansion r/d = b_1 - 1/(b_2 - 1/(... - 1/b_t)), b_i >= 2."""
    if not 0 < d < r:
        raise InvalidParamsError(f"need 0 < d < r, got d={d}, r={r}")
    out = []
    num, den = r, d
    while den > 0:
        b = -(-num // den)  # ceil
        out.append(b)
        num, den = den, b * den - num
    return out
