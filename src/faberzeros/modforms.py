"""Weight decomposition, leading-window form descriptions, and the Miller basis.

A form of even weight k is handled through the decomposition
k = 12*ell + k' with k' in {0, 4, 6, 8, 10, 14}.  Faber extraction only
ever consumes the leading unit coefficients y(0..D) of
f = q^m * (y(0) + y(1) q + ... ), D = ell - m, so Miller basis elements
need no series computation at all: their window is (1, 0, ..., 0) by the
defining gap condition.  The full basis construction below exists as an
exact cross-check oracle and as a generator of genuine q-expansions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .qseries import TruncatedSeries, delta_series, eisenstein_series, _exact

__all__ = [
    "ALLOWED_K_PRIME",
    "WeightDecomposition",
    "ModularFormSpec",
    "decompose_weight",
    "miller_form_spec",
    "custom_form_spec",
    "miller_basis_series",
]

ALLOWED_K_PRIME = (0, 4, 6, 8, 10, 14)


@dataclass(frozen=True)
class WeightDecomposition:
    """The unique writing k = 12*ell + k_prime with k_prime in ALLOWED_K_PRIME."""

    k: int
    ell: int
    k_prime: int

    def __post_init__(self):
        if self.k_prime not in ALLOWED_K_PRIME:
            raise DomainError(f"k' must be one of {ALLOWED_K_PRIME}, got {self.k_prime}")
        if self.ell < 0:
            raise DomainError(f"ell must be non-negative, got {self.ell}")
        if self.k != 12 * self.ell + self.k_prime:
            raise DomainError(
                f"inconsistent decomposition: {self.k} != 12*{self.ell} + {self.k_prime}"
            )


def decompose_weight(k: int) -> WeightDecomposition:
    """Decompose an even weight k >= 0, k != 2, as 12*ell + k'."""
    if not isinstance(k, int) or k % 2 != 0:
        raise DomainError(f"weight must be an even integer, got {k}")
    if k < 0 or k == 2:
        raise DomainError(f"weight must be >= 0 and != 2, got {k}")
    r = k % 12
    k_prime = 14 if r == 2 else r
    return WeightDecomposition(k=k, ell=(k - k_prime) // 12, k_prime=k_prime)


@dataclass(frozen=True)
class ModularFormSpec:
    """A form f = q^m (y(0) + y(1) q + ... + y(D) q^D) + O(q^{ell+1}), y(0) != 0.

    Only the window y(0..D) with D = ell - m is stored; that window
    determines the Faber polynomial completely.
    """

    weight: WeightDecomposition
    m: int
    unit_coeffs: tuple[int | Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "unit_coeffs", tuple(_exact(c) for c in self.unit_coeffs))
        if not 0 <= self.m <= self.weight.ell:
            raise DomainError(
                f"vanishing order m={self.m} out of range 0..{self.weight.ell} for k={self.weight.k}"
            )
        if len(self.unit_coeffs) != self.degree + 1:
            raise DomainError(
                f"expected {self.degree + 1} unit coefficients, got {len(self.unit_coeffs)}"
            )
        if self.unit_coeffs[0] == 0:
            raise DomainError("leading unit coefficient y(0) must be nonzero")

    @property
    def k(self) -> int:
        return self.weight.k

    @property
    def ell(self) -> int:
        return self.weight.ell

    @property
    def k_prime(self) -> int:
        return self.weight.k_prime

    @property
    def degree(self) -> int:
        """Degree D = ell - m of the associated Faber polynomial."""
        return self.weight.ell - self.m

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "unit_coeffs": [str(c) for c in self.unit_coeffs],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModularFormSpec":
        return cls(
            weight=decompose_weight(d["k"]),
            m=d["m"],
            unit_coeffs=tuple(Fraction(c) for c in d["unit_coeffs"]),
        )


def miller_form_spec(k: int, m: int) -> ModularFormSpec:
    """The Miller basis element f_{k,m} = q^m + O(q^{ell+1}).

    By the gap condition its window y(0..D) is exactly (1, 0, ..., 0);
    no series computation is needed.
    """
    weight = decompose_weight(k)
    if not 0 <= m <= weight.ell:
        raise DomainError(f"m={m} out of range 0..{weight.ell} for k={k}")
    d = weight.ell - m
    return ModularFormSpec(weight=weight, m=m, unit_coeffs=(Fraction(1),) + (Fraction(0),) * d)


def custom_form_spec(k: int, m: int, a) -> ModularFormSpec:
    """A form q^m (1 + a(1) q + ... + a(D) q^D) + O(q^{ell+1}) with given a's.

    Such a form always exists: adjust f_{k,m} by Miller elements of higher
    vanishing order.  ``a`` must have exactly D = ell - m entries.
    """
    weight = decompose_weight(k)
    if not 0 <= m <= weight.ell:
        raise DomainError(f"m={m} out of range 0..{weight.ell} for k={k}")
    a = tuple(_exact(x) for x in a)
    d = weight.ell - m
    if len(a) != d:
        raise DomainError(f"expected {d} coefficients a(1..D), got {len(a)}")
    return ModularFormSpec(weight=weight, m=m, unit_coeffs=(Fraction(1),) + a)


def _monomial_exponents(weight: int) -> tuple[int, int]:
    """Exponents (a, b) with 4a + 6b = weight, b in {0, 1}; weight even >= 0, != 2."""
    b = 0 if weight % 4 == 0 else 1
    a = (weight - 6 * b) // 4
    if a < 0:
        raise DomainError(f"no E_4^a E_6^b monomial of weight {weight}")
    return a, b


def miller_basis_series(k: int, order: int) -> list[TruncatedSeries]:
    """The Miller basis of M_k as exact q-expansions modulo q^order.

    Element i equals q^i + O(q^{ell+1}).  The space is spanned by
    Delta^j * E_4^{a_j} * E_6^{b_j} (4a_j + 6b_j = k - 12j, b_j in {0,1}),
    then brought to echelon form on the coefficients of q^0..q^ell by
    exact Gauss-Jordan elimination.  Requires order >= ell + 1.
    """
    weight = decompose_weight(k)
    ell = weight.ell
    if order < ell + 1:
        raise DomainError(f"order must be >= ell+1 = {ell + 1}, got {order}")

    e4 = eisenstein_series(4, order)
    e6 = eisenstein_series(6, order)
    delta = delta_series(order) if ell >= 1 else None

    span = []
    delta_pow = TruncatedSeries.one(order)
    for j in range(ell + 1):
        a, b = _monomial_exponents(k - 12 * j)
        g = delta_pow
        if a:
            g = g * e4**a
        if b:
            g = g * e6**b
        span.append(g.truncate(order))
        if j < ell:
            delta_pow = (delta_pow * delta).truncate(order)

    # span[j] has valuation j with leading coefficient 1; eliminate the
    # coefficients of q^i (i != j) to reach the echelon form.
    basis = list(span)
    for j in range(ell + 1):
        pivot = basis[j].scale(Fraction(1) / basis[j].coeff(j))
        basis[j] = pivot
        for i in range(ell + 1):
            if i != j:
                c = basis[i].coeff(j)
                if c != 0:
                    basis[i] = basis[i] - pivot.scale(c)
    return basis
