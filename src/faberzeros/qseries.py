"""Exact truncated Laurent series in the nome q, and the classical generators.

Coefficients are exact rationals in canonical form: a Python ``int`` when
integral, a ``fractions.Fraction`` otherwise.  Every series carries the
explicit order through which it is known, and arithmetic only ever shrinks
that validity, never extends it silently.

Two kernels do all the work, on whatever mix of ints and Fractions the
coefficients are, so integral series (U, E_k' for k' != 12, Delta, j) run
entirely on Python ints:

- ``_convolve``, the truncated product;
- ``_power``, J.C.P. Miller's recurrence for v = u^alpha (Knuth, TAOCP
  vol. 2, 4.7), m u_0 v_m = sum_{i=1..m} ((alpha+1) i - m) u_i v_{m-i},
  which costs O(n^2) whatever alpha is; alpha = -1 is the inverse.

The generators cover the Eisenstein series E_k for the weights that occur
as k' in the decomposition k = 12*ell + k' (plus k = 12), the discriminant
Delta = q * U with U = prod (1-q^n)^24 from the sigma_1 log-derivative
recurrence, and Klein's j = E_4^3 / Delta.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import DomainError

__all__ = [
    "TruncatedSeries",
    "series_mul",
    "series_inv",
    "sigma",
    "gamma_k",
    "eisenstein_series",
    "eta_unit",
    "delta_series",
    "j_series",
]


def _exact(x) -> int | Fraction:
    """Coerce ints, strings like '-65520/691', and Fractions to an exact
    rational in canonical form: int when integral, Fraction otherwise."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise DomainError(f"not an exact rational: {x!r}")


def _convolve(a, b, n: int) -> list:
    """Coefficients 0..n-1 of the product of the coefficient sequences a and b."""
    return [
        sum(a[i] * b[k - i] for i in range(max(0, k - len(b) + 1), min(k + 1, len(a))))
        for k in range(n)
    ]


def _power(u, alpha: int, n: int) -> list:
    """Coefficients 0..n-1 of u^alpha for a coefficient sequence with u[0] != 0.

    Miller's recurrence m u_0 v_m = sum_{i=1..m} ((alpha+1) i - m) u_i v_{m-i}
    from v_0 = u_0^alpha.  Every quotient is exact; when u is integral and
    u_0 = +-1 every v_m is an integer, so the whole run stays on ints.
    """
    u0 = u[0]
    v = [_exact(Fraction(u0) ** alpha)]
    for m in range(1, n):
        s = sum(((alpha + 1) * i - m) * u[i] * v[m - i] for i in range(1, min(m + 1, len(u))))
        v.append(_exact(Fraction(s, m * u0)))
    return v


class TruncatedSeries:
    """A Laurent series in q known modulo q^order.

    ``coeffs[i]`` is the coefficient of ``q^(valuation + i)``, and
    ``len(coeffs) == order - valuation``.  Nonzero series are kept in
    normalized form (leading stored coefficient nonzero); a series that is
    zero modulo q^order is stored with ``valuation == order`` and no
    coefficients.
    """

    __slots__ = ("valuation", "order", "coeffs")

    def __init__(self, valuation: int, coeffs, order: int | None = None):
        coeffs = [_exact(c) for c in coeffs]
        if order is None:
            order = valuation + len(coeffs)
        if order - valuation != len(coeffs):
            raise DomainError(
                f"coefficient count {len(coeffs)} does not match order - valuation "
                f"= {order - valuation}"
            )
        # normalize: strip leading zeros, represent the zero series canonically
        lead = 0
        while lead < len(coeffs) and coeffs[lead] == 0:
            lead += 1
        valuation += lead
        coeffs = coeffs[lead:]
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order, [], order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        if order < 1:
            raise DomainError("order must be >= 1 to represent the constant 1")
        return cls(0, [1] + [0] * (order - 1), order)

    @classmethod
    def from_terms(cls, terms: dict, order: int) -> "TruncatedSeries":
        """Build a series from an {exponent: coefficient} mapping, modulo q^order."""
        live = {n: c for n, c in terms.items() if n < order and c != 0}
        if not live:
            return cls.zero(order)
        v = min(live)
        coeffs = [live.get(n, 0) for n in range(v, order)]
        return cls(v, coeffs, order)

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

    def __add__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        v = min(self.valuation, other.valuation, order)
        if v == order:
            return TruncatedSeries.zero(order)

        def at(s, n):
            i = n - s.valuation
            return s.coeffs[i] if 0 <= i < len(s.coeffs) else 0

        coeffs = [at(self, n) + at(other, n) for n in range(v, order)]
        return TruncatedSeries(v, coeffs, order)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.valuation, [-c for c in self.coeffs], self.order)

    def plus_constant(self, c) -> "TruncatedSeries":
        """Add an exact constant; unlike ``+`` this never shrinks the validity.

        If the constant term lies at or beyond the truncation order the
        known part is unchanged.
        """
        c = _exact(c)
        if c == 0 or self.order <= 0:
            return self
        v = min(self.valuation, 0)
        coeffs = [self.coeff(n) for n in range(v, self.order)]
        coeffs[-v] += c
        return TruncatedSeries(v, coeffs, self.order)

    def __sub__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "TruncatedSeries":
        """Multiply by an exact scalar."""
        c = _exact(c)
        if c == 0:
            return TruncatedSeries.zero(self.order)
        return TruncatedSeries(self.valuation, [c * x for x in self.coeffs], self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
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

    def inverse(self, order: int | None = None) -> "TruncatedSeries":
        """Multiplicative inverse, valid modulo q^order: Miller's recurrence at alpha = -1.

        The inverse of a series with valuation v known modulo q^N can be
        certified modulo q^(N - 2v) at best; asking for more raises.
        ``self * self.inverse(order)`` equals 1 modulo q^(order + v).
        """
        if self.is_zero():
            raise DomainError("non-invertible: zero series")
        v = self.valuation
        max_order = self.order - 2 * v
        if order is None:
            order = max_order
        if order > max_order:
            raise DomainError(
                f"inverse requested modulo q^{order} but only q^{max_order} is provable"
            )
        n_unit = order + v  # unit-part terms of the result
        if n_unit <= 0:
            return TruncatedSeries.zero(order)
        return TruncatedSeries(-v, _power(self.coeffs, -1, n_unit), order)

    # -- comparisons / serialization ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.valuation == other.valuation
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.valuation, self.order, self.coeffs))

    def agrees_with(self, other: "TruncatedSeries") -> bool:
        """Equality modulo q^min(orders); use when validities differ."""
        n = min(self.order, other.order)
        return self.truncate(n) == other.truncate(n)

    def to_json_dict(self) -> dict:
        return {
            "valuation": self.valuation,
            "order": self.order,
            "coeffs": [str(c) for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TruncatedSeries":
        return cls(d["valuation"], d["coeffs"], d["order"])

    def __repr__(self):
        return f"TruncatedSeries(valuation={self.valuation}, coeffs={self.coeffs}, order={self.order})"

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


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Exact product, valid modulo the smaller provable order of the operands."""
    return a * b


def series_inv(a: TruncatedSeries, order: int | None = None) -> TruncatedSeries:
    """Multiplicative inverse of a nonzero series; see TruncatedSeries.inverse."""
    return a.inverse(order)


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


def eta_unit(order: int) -> TruncatedSeries:
    """The unit part U = prod_{n>=1} (1-q^n)^24 of Delta, modulo q^order.

    From the logarithmic derivative q U'/U = -24 sum_{n>=1} sigma_1(n) q^n:
    n u_n = -24 sum_{i=1..n} sigma_1(i) u_{n-i}, u_0 = 1, exact on integers
    in O(order^2).
    """
    if order < 1:
        raise DomainError("eta_unit requires order >= 1")
    s1 = [0] + [sigma(i, 1) for i in range(1, order)]
    u = [1]
    for n in range(1, order):
        u.append(-24 * sum(s1[i] * u[n - i] for i in range(1, n + 1)) // n)
    return TruncatedSeries(0, u, order)


def delta_series(order: int) -> TruncatedSeries:
    """The discriminant Delta = q * prod (1-q^n)^24, modulo q^order (order >= 2)."""
    if order < 2:
        raise DomainError("delta_series requires order >= 2")
    return eta_unit(order - 1).shift(1)


def j_series(order: int) -> TruncatedSeries:
    """Klein's j = E_4^3 / Delta, modulo q^order (valuation -1, integer coefficients)."""
    if order < 0:
        raise DomainError("j_series requires order >= 0")
    n = order + 2
    e4_cubed = eisenstein_series(4, n) ** 3
    return e4_cubed * delta_series(n).inverse()
