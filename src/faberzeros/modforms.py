"""Weight decomposition, leading-window form descriptions, and the Miller basis.

A form of even weight k is handled through the decomposition
k = 12*ell + k' with k' in {0, 4, 6, 8, 10, 14}.  Faber extraction only
ever consumes the leading unit coefficients y(0..D) of
f = q^m * (y(0) + y(1) q + ... ), D = ell - m, so Miller basis elements
need no series computation at all: their window is (1, 0, ..., 0) by the
defining gap condition.  The full basis construction below exists as an
exact cross-check oracle and as a generator of genuine q-expansions: it
spans M_k by Delta^i * E_{k'} * E_4^{3(ell-i)}, i = 0..ell, and reaches
the echelon form by one exact back-substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import mul, sub

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
        # m first: the builders pass lazy windows whose length is ell - m
        if not 0 <= self.m <= self.weight.ell:
            raise DomainError(
                f"vanishing order m={self.m} out of range 0..{self.weight.ell} for k={self.weight.k}"
            )
        object.__setattr__(self, "unit_coeffs", tuple(_exact(c) for c in self.unit_coeffs))
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


def miller_form_spec(k: int, m: int) -> ModularFormSpec:
    """The Miller basis element f_{k,m} = q^m + O(q^{ell+1}).

    By the gap condition its window y(0..D) is exactly (1, 0, ..., 0);
    no series computation is needed.
    """
    return custom_form_spec(k, m, repeat(0, decompose_weight(k).ell - m))


def custom_form_spec(k: int, m: int, a) -> ModularFormSpec:
    """A form q^m (1 + a(1) q + ... + a(D) q^D) + O(q^{ell+1}) with given a's.

    Such a form always exists: adjust f_{k,m} by Miller elements of higher
    vanishing order.  ``a`` must have exactly D = ell - m entries.
    """
    return ModularFormSpec(weight=decompose_weight(k), m=m, unit_coeffs=chain((1,), a))


def miller_basis_series(k: int, order: int) -> list[TruncatedSeries]:
    """The Miller basis of M_k as exact q-expansions modulo q^order.

    Element i equals q^i + O(q^{ell+1}).  Every form of weight k is
    Delta^ell * E_{k'} * F(j) with deg F <= ell, so M_k is spanned by
    Delta^ell * E_{k'} * j^{ell-i} = E_{k'} * E_4^{3 ell} * (Delta/E_4^3)^i,
    i = 0..ell; element i has valuation i and leading coefficient 1.  One
    back-substitution clears the coefficients of q^{i+1}..q^ell.  Requires
    order >= ell + 1.
    """
    weight = decompose_weight(k)
    ell = weight.ell
    if order < ell + 1:
        raise DomainError(f"order must be >= ell+1 = {ell + 1}, got {order}")

    e4 = eisenstein_series(4, order)
    basis = [eisenstein_series(weight.k_prime, order) * e4 ** (3 * ell)]
    if ell >= 1:
        step = delta_series(order) * e4**-3  # Delta / E_4^3 = 1/j, valuation 1
        for _ in range(ell):
            basis.append((basis[-1] * step).truncate(order))

    # dense rows indexed by exponent; going down from j = ell,
    # rows[j] is already clear at q^{j+1}..q^ell and zero below q^j
    rows = [[0] * s.valuation + list(s.coeffs) for s in basis]
    for j in range(ell, 0, -1):
        pivot = rows[j][j:]
        for row in rows[:j]:
            c = row[j]
            if c != 0:
                row[j:] = map(sub, row[j:], map(mul, pivot, repeat(c)))
    return [TruncatedSeries(0, row, order) for row in rows]
