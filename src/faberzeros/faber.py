"""Faber polynomials: principal parts, the j-power table, and extraction.

For f = Delta^ell * E_{k'} * F_f(j) the polynomial F_f has degree
D = ell - m and is determined by matching principal parts in q.  All the
work happens modulo q^{D+1} on unit parts, so the cost is independent of
the weight k; that is what makes very large weights cheap.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import factorial
from operator import mul, sub

from ._frozen import frozen_dataclass
from .errors import DomainError
from .modforms import ModularFormSpec, decompose_weight
from .qseries import (
    TruncatedSeries,
    _clear_denominators,
    _convolve,
    _divide,
    _exact,
    _phi_coeffs,
    _power,
    eisenstein_series,
    j_series,
)

__all__ = [
    "FaberPoly",
    "j_power_table",
    "principal_part",
    "faber_polynomial",
    "renormalized_coeffs",
    "horner",
]


def horner(coeffs, x):
    """(p(x), p'(x)) for descending ``coeffs`` in one pass; exact when the coefficients and x are."""
    p = dp = 0
    for c in coeffs:
        dp = dp * x + p
        p = p * x + c
    return p, dp


@frozen_dataclass()
class FaberPoly:
    """F(t) = x_0 t^D + x_1 t^{D-1} + ... + x_D with exact rational x_i.

    ``coeffs`` is descending, so coeffs[0] = x_0 = y(0) (1 for Miller
    input, making F monic).  Integral x_i are stored as Python ints and
    the others as Fractions; both compare, hash and print alike.  D = ell - m is checked.
    """

    k: int
    m: int
    coeffs: tuple[int | Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(_exact(c) for c in self.coeffs))
        ell = decompose_weight(self.k).ell
        if self.degree != ell - self.m:
            raise DomainError(f"degree {self.degree} != ell - m = {ell - self.m} (k={self.k})")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self):
        d = self.degree
        parts = []
        for s, c in enumerate(self.coeffs):
            if c == 0:
                continue
            p = d - s
            t = "" if p == 0 else ("t" if p == 1 else f"t^{p}")
            if c == 1 and p != 0:
                parts.append(t)
            else:
                parts.append(f"{c}{'*' + t if t else ''}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


@lru_cache(maxsize=1)
def j_power_table(d: int) -> tuple[tuple[int, ...], ...]:
    """The rows c[r] = (c[r][0], ..., c[r][r]) for 0 <= r <= D, where
    c[r][s] is the coefficient of q^{-s} in j^r.

    With the unit u = q*j, j^r = q^{-r} u^r, so c[r][s] = [q^{r-s}] u^r:
    row r is the first r+1 coefficients of u^r, reversed, and each row is
    one Miller power of u to r+1 terms, on ints since u_0 = 1.  Every
    entry is a non-negative integer, with c[r][r] = 1 and c[r][r-1] = 744*r.

    The last table built is kept and shared (it is an immutable tuple of
    int tuples), so a walk over weights at one D, such as verify's grid,
    builds it once.  Only one is kept: a table holds O(D^2) big ints, and
    callers that change D on every call would gain nothing from more.
    """
    if d < 0:
        raise DomainError(f"degree must be >= 0, got {d}")
    u = j_series(d).coeffs
    return tuple(tuple(_power(u, r, r + 1)[::-1]) for r in range(d + 1))


@lru_cache(maxsize=None)
def _eisenstein_inverse(k_prime: int, order: int) -> TruncatedSeries:
    """1/E_{k'} modulo q^order, memoized per (k', order) like ``j_series``:
    the series is immutable, and a call that raises is not cached."""
    return eisenstein_series(k_prime, order).inverse(order)


def principal_part(spec: ModularFormSpec) -> tuple[int | Fraction, ...]:
    """The coefficients A(0..D) of the exact principal part
    q^{-D}(A(0) + A(1)q + ... + A(D)q^D) of f / (Delta^ell E_{k'}); A(0) = y(0).

    Writing f = q^m * y(q) with y the unit window, the quotient equals
    q^{-D} * y(q) / (phi^{24 ell} E_{k'}) mod q, phi = prod (1-q^n), so
    only the D+1 unit coefficients matter.  phi^{-24 ell} is one Miller
    power of phi's memoized 0/+-1 coefficients, which visits only their
    O(sqrt D) nonzero terms, so it costs O(D^1.5) integer steps whatever
    ell is and the cost is independent of k; 1/E_{k'} is built once per
    (k', D) and then reused.  The window is scaled to ints by the lcm L
    of its denominators (1 for Miller windows), the product is two
    convolutions of int lists (one is skipped when its factor is 1: the
    window (1, 0, ..., 0), or k' = 0), and A is divided by L only on return.
    """
    order = spec.degree + 1
    window, scale = _clear_denominators(spec.unit_coeffs)
    a = _power(_phi_coeffs(order), -24 * spec.ell, order)
    e_inverse = _eisenstein_inverse(spec.k_prime, order).coeffs
    for factor in (window, e_inverse):
        if factor[0] != 1 or any(factor[1:]):  # a factor (1, 0, ..., 0) is skipped
            a = _convolve(a, factor, order)
    return tuple(_divide(a, scale))


def faber_polynomial(spec: ModularFormSpec) -> FaberPoly:
    """Solve the unitriangular system matching principal parts.

    For each s = D, D-1, ..., 0 the coefficient of q^{-s} gives
    sum_{r=s}^{D} c_{r,s} x_{D-r} = A(D-s), and c_{s,s} = 1 lets x_{D-s}
    be read off directly.  Exact, no pivoting, and on Python ints
    throughout: A is scaled by the lcm L of its denominators, each x_{D-r},
    once known, is taken out of every pending right-hand side with one
    C-level pass over row r, and the x are divided by L at the end.
    """
    d = spec.degree
    b, scale = _clear_denominators(principal_part(spec))
    table = j_power_table(d)
    pending = b[::-1]  # pending[s] is the right-hand side of the q^{-s} equation
    x = []
    for r in range(d, -1, -1):
        x.append(pending.pop())
        pending = list(map(sub, pending, map(mul, table[r], repeat(x[-1]))))
    return FaberPoly(k=spec.k, m=spec.m, coeffs=tuple(_divide(x, scale)))


def renormalized_coeffs(f: FaberPoly) -> list[Fraction]:
    """Relative deviations x_s * s! / (2k)^s - 1 of F from the truncated-exponential limit.

    k is F's weight f.k.  Exact rationals; conversion to floating point is left to callers.
    With x_s = n/d (d = 1 for an int), each deviation is the one Fraction
    (n s! - d (2k)^s) / (d (2k)^s), built from ints.
    """
    two_k = 2 * f.k
    devs = []
    for s, x in enumerate(f.coeffs):
        den = x.denominator * two_k**s
        devs.append(Fraction(x.numerator * factorial(s) - den, den))
    return devs
