"""Exact truncated Laurent series in the nome q, and the classical generators.

Coefficients are exact rationals in canonical form: a Python ``int`` when
integral, a ``fractions.Fraction`` otherwise.  Every series carries the
explicit order through which it is known, and arithmetic only ever shrinks
that validity, never extends it silently.

Two kernels do all the work, on whatever mix of ints and Fractions the
coefficients are, so integral series (U, E_k' for k' != 12, Delta, j) run
entirely on Python ints, with their inner products summed in C:

- ``_convolve``, the truncated product;
- ``_power``, J.C.P. Miller's recurrence for v = u^alpha (Knuth, TAOCP
  vol. 2, 4.7), m u_0 v_m = sum_{i=1..m} ((alpha+1) i - m) u_i v_{m-i},
  which costs O(n^2) whatever alpha is; alpha = -1 is the inverse.  It
  visits only the nonzero u_i, so a power of phi, whose nonzero terms
  below q^n number O(sqrt(n)), costs O(n^1.5).  It always runs on ints:
  u = u_0 w is rescaled by q = L x, L the lcm of the denominators of w,
  to an integral base with constant term 1, so each step is one exact
  floor division, and u_0^alpha and L^m are applied once at the end.  An
  integral u with int u_0 = +-1 (q*j, phi, U, E_k' for k' != 12) builds
  no Fraction at all.  A base with no zero coefficient (q*j, E_k' for
  k' != 0) takes the dense path: each step reads the v_{m-i} it needs
  from one reversed copy of v.

Rational inputs need not bring Fractions into either kernel:
``_clear_denominators`` scales a sequence to ints by the lcm of its
denominators, and ``_divide`` takes that factor out again at the end.

The generators cover the Eisenstein series E_k for the weights that occur
as k' in the decomposition k = 12*ell + k' (plus k = 12), Euler's function
phi = prod (1-q^n) from the pentagonal number theorem, the discriminant
Delta = q * U with U = phi^24 one Miller power of phi, and Klein's
j = E_4^3 / Delta = q^{-1} E_4^3 / U.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import isqrt, lcm
from operator import mul, sub

from ._frozen import frozen_dataclass
from .errors import DomainError

__all__ = [
    "TruncatedSeries",
    "sigma",
    "gamma_k",
    "eisenstein_series",
    "euler_phi",
    "eta_unit",
    "delta_series",
    "j_series",
]


def _exact(x) -> int | Fraction:
    """An int or Fraction as an exact rational in canonical form: int when
    integral, Fraction otherwise; anything else raises DomainError."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise DomainError(f"not an exact rational: {x!r}")


def _clear_denominators(values) -> tuple[list[int], int]:
    """(ints, L) with ints[i] = values[i] * L exactly, L the lcm of the
    denominators of the exact rationals ``values`` (1 when all are ints)."""
    scale = lcm(*(c.denominator for c in values))
    if scale == 1:
        return [int(c) for c in values], 1
    return [c.numerator * (scale // c.denominator) for c in values], scale


def _divide(ints, scale: int) -> list:
    """ints[i] / scale in canonical form: int when integral, Fraction otherwise."""
    if scale == 1:
        return list(ints)
    return [_exact(Fraction(n, scale)) for n in ints]


def _convolve(a, b, n: int) -> list:
    """Coefficients 0..n-1 of the product of the coefficient sequences a and b.

    Output k pairs a[lo:hi] with b[k-lo], ..., b[k-hi+1], which is a slice
    of reversed b starting at len(b) - 1 - k + lo >= 0.
    """
    rb = b[::-1]
    last = len(b) - 1
    out = []
    for k in range(n):
        lo = max(0, k - last)
        hi = min(k + 1, len(a))
        out.append(sum(map(mul, a[lo:hi], rb[last - k + lo:last - k + hi])))
    return out


def _power(u, alpha: int, n: int) -> list:
    """Coefficients 0..n-1 of u^alpha for a coefficient sequence with u[0] != 0.

    Write u(q) = u_0 w(q) and let L be the lcm of the denominators of the
    w_i below q^n.  Then W(x) = w(L x) has the integer coefficients
    W_i = w_i L^i and W_0 = 1, so every coefficient V_m of W^alpha is an
    integer, and Miller's recurrence
    m V_m = sum_{i=1..m} ((alpha+1) i - m) W_i V_{m-i} from V_0 = 1 ends each
    step in one exact floor division by m.  The sum visits the nonzero W_i
    only: a base with none zero below q^n reads the whole of v reversed and
    lets the product stop at its last term, a sparse one gathers its
    v_{m-i}.  The result v_m = u_0^alpha V_m / L^m is formed once at the end.

    An int u_0 = +-1 with an int tail (the test is on the types) has L = 1
    and u_0^alpha = +-1, and builds no Fraction at all; any other base
    builds Fractions for its ratios w_i and its rescaled result only.
    """
    if n <= 0:
        return []
    u0 = u[0]
    top = min(n, len(u))
    integral = type(u0) is int and u0 in (1, -1) and all(type(c) is int for c in u[1:top])
    if integral:
        w = u if u0 == 1 else [1] + [-c for c in u[1:top]]
    else:
        cleared, scale = _clear_denominators([Fraction(c) / u0 for c in u[1:top]])
        w, power = [1], 1
        for c in cleared:  # W_i = (w_i L) L^(i-1)
            w.append(c * power)
            power *= scale
    live = [i for i in range(1, top) if w[i]]
    coeffs = [w[i] for i in live]
    weights = [(alpha + 1) * i * w[i] for i in live]
    v = [1]
    if len(live) == top - 1:  # live is 1, 2, 3, ... with no gap
        for m in range(1, n):
            back = v[::-1]
            v.append((sum(map(mul, weights, back)) - m * sum(map(mul, coeffs, back))) // m)
    else:
        count = 0  # live indices <= m
        for m in range(1, n):
            if count < len(live) and live[count] == m:
                count += 1
            back = list(map(v.__getitem__, map(sub, repeat(m, count), live)))
            v.append((sum(map(mul, weights, back)) - m * sum(map(mul, coeffs, back))) // m)
    if integral:
        return [-c for c in v] if u0 == -1 and alpha % 2 else v
    lead = Fraction(u0) ** alpha
    out, power = [], lead.denominator
    for c in v:
        out.append(_exact(Fraction(lead.numerator * c, power)))
        power *= scale
    return out


@frozen_dataclass(init=False)
class TruncatedSeries:
    """A Laurent series in q known modulo q^order.

    ``coeffs[i]`` is the coefficient of ``q^(valuation + i)``, and
    ``len(coeffs) == order - valuation``.  Nonzero series are kept in
    normalized form (leading stored coefficient nonzero); a series that is
    zero modulo q^order is stored with ``valuation == order`` and no
    coefficients.
    """

    valuation: int
    coeffs: tuple[int | Fraction, ...]
    order: int

    def __init__(self, valuation: int, coeffs, order: int):
        coeffs = [_exact(c) for c in coeffs]
        if order - valuation != len(coeffs):
            raise DomainError(
                f"coefficient count {len(coeffs)} does not match order - valuation "
                f"= {order - valuation}"
            )
        # normalize: strip leading zeros, represent the zero series canonically
        lead = 0
        while lead < len(coeffs) and coeffs[lead] == 0:
            lead += 1
        object.__setattr__(self, "valuation", valuation + lead)
        object.__setattr__(self, "coeffs", tuple(coeffs[lead:]))
        object.__setattr__(self, "order", order)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order, [], order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        if order < 1:
            raise DomainError("order must be >= 1 to represent the constant 1")
        return cls(0, [1] + [0] * (order - 1), order)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, n: int) -> int | Fraction:
        """Coefficient of q^n; exact zero below the valuation, error at/above order."""
        if n >= self.order:
            raise DomainError(f"coefficient of q^{n} unknown: series valid modulo q^{self.order}")
        if n < self.valuation:
            return 0
        return self.coeffs[n - self.valuation]

    def truncate(self, order: int) -> "TruncatedSeries":
        """Forget coefficients at or above q^order (order may not exceed validity)."""
        if order > self.order:
            raise DomainError("truncate cannot extend a series' validity")
        if order <= self.valuation:
            return TruncatedSeries.zero(order)
        return TruncatedSeries(self.valuation, self.coeffs[: order - self.valuation], order)

    def shift(self, d: int) -> "TruncatedSeries":
        """Multiply by q^d (d may be negative)."""
        return TruncatedSeries(self.valuation + d, self.coeffs, self.order + d)

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        # a = A + O(q^Na), b = B + O(q^Nb)  =>  ab = AB + O(q^min(va+Nb, vb+Na));
        # the canonical zero form (valuation == order) keeps this uniform.
        order = min(self.valuation + other.order, other.valuation + self.order)
        if self.is_zero() or other.is_zero():
            return TruncatedSeries.zero(order)
        v = self.valuation + other.valuation
        if order <= v:
            return TruncatedSeries.zero(order)
        return TruncatedSeries(v, _convolve(self.coeffs, other.coeffs, order - v), order)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TruncatedSeries":
        """self^n by Miller's recurrence, in O(terms^2) for every n.

        With u = q^v w and w known to t terms, u^n = q^(nv) w^n is known
        to t terms as well.  Negative n needs a unit (valuation 0).
        """
        if not isinstance(n, int):
            raise DomainError("series powers must be integers")
        if self.is_zero():
            if n < 1:
                raise DomainError("non-positive powers of the zero series are undefined")
            return TruncatedSeries.zero(self.order * n)
        if n < 0 and self.valuation != 0:
            raise DomainError("negative powers need a unit (valuation 0)")
        v, terms = self.valuation * n, self.order - self.valuation
        return TruncatedSeries(v, _power(self.coeffs, n, terms), v + terms)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse by Miller's recurrence at alpha = -1.

        The inverse of a series with valuation v known modulo q^N is
        certified modulo q^(N - 2v), and that is the order it carries;
        ``self * self.inverse()`` equals 1 modulo q^(N - v).  A shorter
        inverse is ``self.inverse().truncate(n)``.
        """
        if self.is_zero():
            raise DomainError("non-invertible: zero series")
        v = self.valuation
        # N - v >= 1 unit-part terms, since the nonzero leading term lies below q^N
        return TruncatedSeries(-v, _power(self.coeffs, -1, self.order - v), self.order - 2 * v)

    # -- display -------------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return f"O(q^{self.order})"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            n = self.valuation + i
            if n == 0:
                parts.append(f"{c}")
            elif n == 1:
                parts.append(f"{c}*q")
            else:
                parts.append(f"{c}*q^{n}")
        parts.append(f"O(q^{self.order})")
        return " + ".join(parts).replace("+ -", "- ")


# -- number-theoretic generators -------------------------------------------


def sigma(n: int, s: int) -> int:
    """Divisor power sum sigma_s(n) = sum of d^s over divisors d of n."""
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"sigma requires n >= 1, got {n}")
    if not isinstance(s, int) or s < 0:
        raise DomainError(f"sigma requires s >= 0, got {s}")
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d**s
            e = n // d
            if e != d:
                total += e**s
    return total


# gamma(k) = 2k / B_k for the weights needed here; gamma(0) is 0 by the
# convention E_0 = 1 (it multiplies an empty sum).
_GAMMA = {
    0: Fraction(0),
    4: Fraction(-240),
    6: Fraction(504),
    8: Fraction(-480),
    10: Fraction(264),
    12: Fraction(-65520, 691),
    14: Fraction(24),
}


def gamma_k(k: int) -> Fraction:
    """The constant gamma(k) = 2k/B_k appearing in E_k = 1 - gamma(k) * sum sigma_{k-1}(n) q^n."""
    try:
        return _GAMMA[k]
    except (KeyError, TypeError):
        raise DomainError(f"gamma(k) is only tabulated for k in {sorted(_GAMMA)}, got {k}") from None


def eisenstein_series(k: int, order: int) -> TruncatedSeries:
    """E_k = 1 - gamma(k) * sum_{n>=1} sigma_{k-1}(n) q^n, modulo q^order.

    k = 0 returns the constant series 1, matching the gamma(0) = 0 convention.
    """
    g = gamma_k(k)
    if order < 1:
        raise DomainError("eisenstein_series requires order >= 1")
    if k == 0:
        return TruncatedSeries.one(order)
    coeffs = [1] + [-g * sigma(n, k - 1) for n in range(1, order)]
    return TruncatedSeries(0, coeffs, order)


@lru_cache(maxsize=None)
def _phi_coeffs(order: int) -> tuple[int, ...]:
    """Coefficients 0..order-1 of phi = prod_{n>=1} (1-q^n), all 0 or +-1.

    By the pentagonal number theorem phi = sum_k (-1)^k q^{k(3k-1)/2} over
    all integers k.  Memoized per order like ``j_series``: the tuple is
    immutable, and a call that raises is not cached.
    """
    if order < 1:
        raise DomainError("euler_phi requires order >= 1")
    terms = {0: 1}
    k = 1
    while k * (3 * k - 1) // 2 < order:
        terms[k * (3 * k - 1) // 2] = terms[k * (3 * k + 1) // 2] = (-1) ** k
        k += 1
    return tuple(terms.get(n, 0) for n in range(order))


def euler_phi(order: int) -> TruncatedSeries:
    """Euler's function phi = prod_{n>=1} (1-q^n), modulo q^order.

    By the pentagonal number theorem a sparse series with entries 0 and +-1.
    """
    return TruncatedSeries(0, _phi_coeffs(order), order)


def eta_unit(order: int) -> TruncatedSeries:
    """The unit part U = phi^24 = prod_{n>=1} (1-q^n)^24 of Delta, modulo q^order."""
    return euler_phi(order) ** 24


def delta_series(order: int) -> TruncatedSeries:
    """The discriminant Delta = q * prod (1-q^n)^24, modulo q^order (order >= 2)."""
    if order < 2:
        raise DomainError("delta_series requires order >= 2")
    return eta_unit(order - 1).shift(1)


@lru_cache(maxsize=None)
def j_series(order: int) -> TruncatedSeries:
    """Klein's j = q^{-1} E_4^3 / U, modulo q^order (valuation -1, integer coefficients).

    Memoized per order: the series is immutable, so ``j_power_table`` and
    ``halfplane`` share one copy, and a call that raises is not cached.
    """
    if order < 0:
        raise DomainError("j_series requires order >= 0")
    n = order + 1
    return (eisenstein_series(4, n) ** 3 * eta_unit(n) ** -1).shift(-1)
