"""Faber polynomials: principal parts, the j-power table, and extraction.

For f = Delta^ell * E_{k'} * F_f(j) the polynomial F_f has degree
D = ell - m and is determined by matching principal parts in q.  All the
work happens modulo q^{D+1} on unit parts, so the cost is independent of
the weight k; that is what makes very large weights cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import DomainError
from .modforms import ModularFormSpec, decompose_weight, miller_form_spec
from .qseries import TruncatedSeries, _exact, eisenstein_series, eta_unit, gamma_k, j_series

__all__ = [
    "FaberPoly",
    "PrincipalPart",
    "JPowerTable",
    "j_power_table",
    "principal_part",
    "faber_polynomial",
    "closed_form_poly",
    "closed_form_check",
    "renormalized_coeffs",
]


@dataclass(frozen=True, slots=True)
class FaberPoly:
    """F(t) = x_0 t^D + x_1 t^{D-1} + ... + x_D with exact rational x_i.

    ``coeffs`` is descending, so coeffs[0] = x_0 = y(0) (1 for Miller
    input, making F monic).  Integral x_i are stored as Python ints and
    the others as Fractions; both compare, hash and print alike.
    """

    k: int
    m: int
    coeffs: tuple[int | Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(_exact(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, t):
        """Horner evaluation; exact for Fraction input, complex otherwise."""
        acc = self.coeffs[0] if isinstance(t, Fraction) else complex(self.coeffs[0])
        for c in self.coeffs[1:]:
            acc = acc * t + (c if isinstance(t, Fraction) else complex(c))
        return acc

    def evaluate_series(self, s: TruncatedSeries) -> TruncatedSeries:
        """Horner evaluation at a series argument (used to verify f = Delta^ell E_k' F(j))."""
        big = s.order + (self.degree + 1) * max(1, -min(s.valuation, 0)) + 1
        acc = TruncatedSeries.one(big).scale(self.coeffs[0])
        for c in self.coeffs[1:]:
            acc = (acc * s).plus_constant(c)
        return acc

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "D": self.degree,
            "coeffs_desc": [str(c) for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FaberPoly":
        poly = cls(k=d["k"], m=d["m"], coeffs=tuple(Fraction(c) for c in d["coeffs_desc"]))
        if poly.degree != d["D"]:
            raise DomainError("inconsistent degree in serialized Faber polynomial")
        return poly

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


@dataclass(frozen=True)
class PrincipalPart:
    """Coefficients A(0..D) of the principal part q^{-D}(A(0) + A(1)q + ... + A(D)q^D)
    of f / (Delta^ell E_{k'}); A(0) = y(0)."""

    k: int
    m: int
    A: tuple[int | Fraction, ...]


@dataclass(frozen=True)
class JPowerTable:
    """c[r][s] = coefficient of q^{-s} in j^r, for 0 <= s <= r <= D.

    All entries are non-negative integers; c[r][r] = 1 and
    c[r][r-1] = 744*r.
    """

    c: tuple[tuple[int, ...], ...]

    @property
    def degree(self) -> int:
        return len(self.c) - 1

    def __post_init__(self):
        for r, row in enumerate(self.c):
            if len(row) != r + 1:
                raise DomainError(f"row {r} must have {r + 1} entries")
            if row[r] != 1 or (r >= 1 and row[r - 1] != 744 * r) or any(x < 0 for x in row):
                raise DomainError("j-power table violates its invariants")


def j_power_table(d: int) -> JPowerTable:
    """Principal-part coefficients of j^0, ..., j^D by exact series multiplication."""
    if d < 0:
        raise DomainError(f"degree must be >= 0, got {d}")
    js = j_series(d + 1)
    rows = []
    power = TruncatedSeries.one(d + 2)
    for r in range(d + 1):
        row = []
        for s in range(r + 1):
            c = power.coeff(-s)
            if c.denominator != 1:
                raise DomainError(f"non-integer entry in j^{r} at q^{-s}")
            row.append(int(c))
        rows.append(tuple(row))
        if r < d:
            power = power * js
    return JPowerTable(c=tuple(rows))


def principal_part(spec: ModularFormSpec) -> PrincipalPart:
    """The exact principal part of f / (Delta^ell E_{k'}).

    Writing f = q^m * y(q) with y the unit window, the quotient equals
    q^{-D} * y(q) / (U^ell E_{k'}) mod q, U = prod (1-q^n)^24, so only
    the D+1 unit coefficients matter.  U^{-ell} and 1/E_{k'} come from
    Miller's power recurrence in O(D^2) integer steps whatever ell is, so
    the cost is independent of k.
    """
    order = spec.degree + 1
    y = TruncatedSeries(0, spec.unit_coeffs, order)
    a = y * eta_unit(order) ** -spec.ell * eisenstein_series(spec.k_prime, order).inverse(order)
    return PrincipalPart(k=spec.k, m=spec.m, A=tuple(a.coeff(i) for i in range(order)))


def faber_polynomial(spec: ModularFormSpec) -> FaberPoly:
    """Solve the unitriangular system matching principal parts.

    For each s = D, D-1, ..., 0 the coefficient of q^{-s} gives
    sum_{r=s}^{D} c_{r,s} x_{D-r} = A(D-s), and c_{s,s} = 1 lets x_{D-s}
    be read off directly.  Exact, no pivoting; on Python ints when the
    principal part is integral, as it is for every Miller window.
    """
    d = spec.degree
    a = principal_part(spec).A
    table = j_power_table(d).c
    x = [0] * (d + 1)
    for s in range(d, -1, -1):
        x[d - s] = a[d - s] - sum(table[r][s] * x[d - r] for r in range(s + 1, d + 1))
    return FaberPoly(k=spec.k, m=spec.m, coeffs=tuple(x))


def closed_form_poly(k: int, m: int) -> FaberPoly:
    """The closed forms of F_{k,m} for k = 12*ell and m in {ell-1, ell-2, ell-3}."""
    weight = decompose_weight(k)
    if weight.k_prime != 0:
        raise DomainError(f"closed forms require k divisible by 12, got {k}")
    ell = weight.ell
    d = ell - m
    if m < 0 or d not in (1, 2, 3):
        raise DomainError(f"no closed form for k={k}, m={m} (need m in {{ell-1, ell-2, ell-3}})")
    if d == 1:
        coeffs = (1, 2 * k + gamma_k(0) - 744)
    elif d == 2:
        coeffs = (1, 24 * (ell - 62), 36 * (8 * ell**2 - 495 * ell + 4438))
    else:
        coeffs = (
            1,
            24 * (ell - 93),
            36 * (8 * ell**2 - 991 * ell + 29721),
            32 * (72 * ell**3 - 6669 * ell**2 + 118990 * ell - 1152093),
        )
    return FaberPoly(k=k, m=m, coeffs=coeffs)


def closed_form_check(k: int, m: int) -> bool:
    """True iff the system-solved F_{k,m} equals the closed form exactly."""
    return faber_polynomial(miller_form_spec(k, m)) == closed_form_poly(k, m)


def renormalized_coeffs(f: FaberPoly, k: int) -> list[Fraction]:
    """Relative deviations x_s * s! / (2k)^s - 1 from the truncated-exponential limit.

    Exact rationals; conversion to floating point is left to callers.
    """
    if k <= 0:
        raise DomainError(f"weight must be positive, got {k}")
    out = []
    for s, x in enumerate(f.coeffs):
        out.append(x * factorial(s) / Fraction(2 * k) ** s - 1)
    return out
