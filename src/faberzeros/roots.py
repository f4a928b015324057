"""Complex root-finding and root geometry for the zero-location pipeline.

Aberth-Ehrlich simultaneous iteration covers the tiny degrees that occur
here (D up to ~20).  Faber polynomials are never solved directly in the
t variable: coefficients like (2k)^s/s! span too many magnitudes, so the
roots are found on the rescaled g_k(z) = F(2k z)/(2k)^D and mapped back,
which keeps the conditioning uniform in k.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NumericalError
from .faber import FaberPoly

__all__ = [
    "ComplexPoly",
    "RootSet",
    "Pairing",
    "ScaledFaberRoots",
    "find_roots",
    "truncated_exp_poly",
    "truncated_exp_inverse_zeros",
    "ostrowski_bound",
    "match_roots",
    "scaled_faber_roots",
]

_ABERTH_OFFSET = 0.4  # fixed rotation of the initial circle, breaks symmetry deterministically
_CONVERGED = 1e-15


def _sort_key(z: complex):
    """Sort by argument in [-pi, pi), ties by modulus."""
    ph = cmath.phase(z)
    if ph >= math.pi:
        ph = -math.pi
    return (ph, abs(z))


@dataclass(frozen=True)
class ComplexPoly:
    """A monic polynomial with complex coefficients, descending powers."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise DomainError("ComplexPoly requires degree >= 1")
        if self.coeffs[0] != 1:
            raise DomainError("ComplexPoly must be monic (normalize first)")
        if not all(math.isfinite(c.real) and math.isfinite(c.imag) for c in self.coeffs):
            raise DomainError("coefficients must be finite")

    @classmethod
    def from_coefficients(cls, coeffs) -> "ComplexPoly":
        """Normalize an arbitrary coefficient sequence (descending) to monic form."""
        cs = [complex(c) for c in coeffs]
        while cs and cs[0] == 0:
            cs.pop(0)
        if len(cs) < 2:
            raise DomainError("polynomial must have degree >= 1")
        lead = cs[0]
        return cls(coeffs=(1 + 0j,) + tuple(c / lead for c in cs[1:]))

    @classmethod
    def from_faber(cls, f: FaberPoly) -> "ComplexPoly":
        """Round the exact coefficients to nearest doubles (relative error <= 2^-53 each)."""
        return cls.from_coefficients([float(c) for c in f.coeffs])

    @classmethod
    def rescaled_from_faber(cls, f: FaberPoly, k: int) -> "ComplexPoly":
        """g_k(z) = F(2k z) / (2k)^D, computed exactly before the float rounding."""
        if k <= 0:
            raise DomainError(f"weight must be positive, got {k}")
        scale = Fraction(2 * k)
        exact = [c / scale**s for s, c in enumerate(f.coeffs)]
        return cls.from_coefficients([float(c) for c in exact])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, z: complex) -> complex:
        acc = 0j
        for c in self.coeffs:
            acc = acc * z + c
        return acc

    def to_json_dict(self) -> dict:
        return {"coeffs_desc": [{"re": c.real, "im": c.imag} for c in self.coeffs]}


@dataclass(frozen=True)
class RootSet:
    """All roots of a polynomial (each listed once), sorted by argument then modulus.

    ``residual`` is max |p(root)| over the set, measured against the
    polynomial the roots were certified on.
    """

    roots: tuple[complex, ...]
    residual: float

    def __len__(self):
        return len(self.roots)

    def to_json_dict(self) -> dict:
        return {
            "roots": [{"re": z.real, "im": z.imag} for z in self.roots],
            "residual": self.residual,
        }


def _horner_pair(coeffs, z):
    """Evaluate p and p' together."""
    p = 0j
    dp = 0j
    for c in coeffs:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def find_roots(p: ComplexPoly, tol: float = 1e-10, max_iter: int = 500) -> RootSet:
    """All roots of p by Aberth-Ehrlich iteration, deterministically.

    Initial guesses sit on a circle of radius (1 + sum |a_nu|)^(1/D) with a
    fixed rotational offset.  The residual contract is
    max |p(root)| <= tol * max |coeff|; if double precision misses it, one
    extended-precision Newton polish is applied before giving up.

    The certificate is only achievable while (root bound)^D * eps stays
    under tol * max |coeff|; inputs outside that envelope raise rather
    than return roots that cannot be checked.  Polynomials with wildly
    scaled coefficients should be rescaled first, as scaled_faber_roots
    does with z = t/(2k).
    """
    n = p.degree
    coeffs = p.coeffs
    scale = max(abs(c) for c in coeffs)
    radius = (1.0 + sum(abs(c) for c in coeffs[1:])) ** (1.0 / n)
    z = [radius * cmath.exp(1j * (2 * math.pi * i / n + _ABERTH_OFFSET)) for i in range(n)]

    for _ in range(max_iter):
        moved = 0.0
        for i in range(n):
            pv, dpv = _horner_pair(coeffs, z[i])
            if pv == 0:
                continue
            if dpv == 0:
                z[i] += 1e-8 * (1 + abs(z[i]))
                moved = math.inf
                continue
            w = pv / dpv
            s = 0j
            for j in range(n):
                if j != i:
                    diff = z[i] - z[j]
                    if diff == 0:
                        diff = 1e-14 * (1 + abs(z[i]))
                    s += 1.0 / diff
            denom = 1.0 - w * s
            if denom == 0:
                z[i] += 1e-8 * (1 + abs(z[i]))
                moved = math.inf
                continue
            delta = w / denom
            z[i] -= delta
            moved = max(moved, abs(delta) / (1.0 + abs(z[i])))
        if moved <= _CONVERGED:
            break

    residual = max(abs(p.evaluate(zi)) for zi in z)
    if residual > tol * scale:
        z = _polish_extended(coeffs, z)
        residual = max(abs(p.evaluate(zi)) for zi in z)
    if residual > tol * scale:
        raise NumericalError(
            f"root finder residual {residual:.3e} exceeds {tol:.1e} * scale", best=tuple(z)
        )
    return RootSet(roots=tuple(sorted(z, key=_sort_key)), residual=residual)


def _polish_extended(coeffs, roots):
    """One Newton step per root at 50 decimal digits."""
    import mpmath  # imported here, by its only user, to keep it out of every other run

    with mpmath.workdps(50):
        cs = [mpmath.mpc(c) for c in coeffs]
        polished = []
        for r in roots:
            x = mpmath.mpc(r)
            pv = mpmath.polyval(cs, x)
            dpv = mpmath.polyval([c * (len(cs) - 1 - i) for i, c in enumerate(cs[:-1])], x)
            if dpv != 0:
                x = x - pv / dpv
            polished.append(complex(x))
    return polished


def truncated_exp_poly(d: int) -> ComplexPoly:
    """The monic multiple D! * (1 + t + ... + t^D/D!) of the truncated exponential."""
    if d < 1:
        raise DomainError(f"degree must be >= 1, got {d}")
    fact_d = math.factorial(d)
    return ComplexPoly.from_coefficients(
        [fact_d // math.factorial(d - nu) for nu in range(d + 1)]
    )


def truncated_exp_inverse_zeros(d: int, tol: float = 1e-10) -> RootSet:
    """The inverse zeros z_{D,r}: reciprocals of the roots of 1 + t + ... + t^D/D!.

    They satisfy prod (1 - z_{D,r} t) = truncated exponential; returned
    sorted by argument in [-pi, pi), ties by modulus.  The residual is
    measured on the monic polynomial z^D + z^{D-1} + ... + 1/D! whose
    roots they are.
    """
    t_roots = find_roots(truncated_exp_poly(d), tol=tol)
    inv = sorted((1.0 / t for t in t_roots.roots), key=_sort_key)
    g = ComplexPoly.from_coefficients([1.0 / math.factorial(r) for r in range(d + 1)])
    residual = max(abs(g.evaluate(z)) for z in inv)
    if residual > tol:
        raise NumericalError(f"inverse-zero residual {residual:.3e} exceeds {tol:.1e}", best=tuple(inv))
    return RootSet(roots=tuple(inv), residual=residual)


def ostrowski_bound(p: ComplexPoly, q: ComplexPoly) -> float:
    """Ostrowski's displacement bound for the matched roots of two monic polynomials:

        max_nu |x_nu - y_nu| <= 2D * (sum_nu |a_nu - b_nu| * Gamma^(D-nu))^(1/D),
        Gamma = max_nu(|a_nu|^(1/nu), |b_nu|^(1/nu)).

    Gamma is floored at 1 here (a conservative reading; it only matters
    when every coefficient is below 1 in modulus, and it can only enlarge
    the bound).
    """
    d = p.degree
    if q.degree != d:
        raise DomainError(f"degree mismatch: {d} vs {q.degree}")
    gamma = 1.0
    for nu in range(1, d + 1):
        gamma = max(gamma, abs(p.coeffs[nu]) ** (1.0 / nu), abs(q.coeffs[nu]) ** (1.0 / nu))
    total = sum(
        abs(p.coeffs[nu] - q.coeffs[nu]) * gamma ** (d - nu) for nu in range(1, d + 1)
    )
    return 2.0 * d * total ** (1.0 / d)


@dataclass(frozen=True)
class Pairing:
    """A bijection between two root lists: pairs of (index in a, index in b)."""

    pairs: tuple[tuple[int, int], ...]
    max_distance: float


def _roots_of(obj):
    return tuple(obj.roots) if isinstance(obj, RootSet) else tuple(complex(z) for z in obj)


def match_roots(a, b) -> Pairing:
    """The bijection minimizing the maximum pairwise distance (bottleneck assignment).

    Solved exactly: binary search over the candidate distances with a
    bipartite perfect-matching feasibility test at each threshold.
    """
    xs = _roots_of(a)
    ys = _roots_of(b)
    n = len(xs)
    if len(ys) != n:
        raise DomainError(f"cardinality mismatch: {n} vs {len(ys)}")
    if n == 0:
        return Pairing(pairs=(), max_distance=0.0)
    dist = [[abs(x - y) for y in ys] for x in xs]
    levels = sorted({d for row in dist for d in row})

    def matching_at(threshold):
        match_of_y = [-1] * n

        def augment(i, seen):
            for j in range(n):
                if dist[i][j] <= threshold and not seen[j]:
                    seen[j] = True
                    if match_of_y[j] == -1 or augment(match_of_y[j], seen):
                        match_of_y[j] = i
                        return True
            return False

        for i in range(n):
            if not augment(i, [False] * n):
                return None
        return match_of_y

    lo, hi = 0, len(levels) - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        m = matching_at(levels[mid])
        if m is not None:
            best = (levels[mid], m)
            hi = mid - 1
        else:
            lo = mid + 1
    threshold, match_of_y = best
    pairs = sorted((i, j) for j, i in enumerate(match_of_y))
    return Pairing(pairs=tuple(pairs), max_distance=threshold)


@dataclass(frozen=True)
class ScaledFaberRoots:
    """Roots of a Faber polynomial in both scales: t and z = t/(2k)."""

    k: int
    t: RootSet
    z: RootSet


def scaled_faber_roots(f: FaberPoly, k: int, tol: float = 1e-10) -> ScaledFaberRoots:
    """Roots of F, computed on the rescaled g_k(z) = F(2k z)/(2k)^D and mapped back.

    The z-scale residual comes from the finder; the t-scale residual is
    |F| evaluated at the mapped roots with float-rounded coefficients.
    """
    if k <= 0:
        raise DomainError(f"weight must be positive, got {k}")
    if f.degree == 0:
        empty = RootSet(roots=(), residual=0.0)
        return ScaledFaberRoots(k=k, t=empty, z=empty)
    g = ComplexPoly.rescaled_from_faber(f, k)
    z_set = find_roots(g, tol=tol)
    t_roots = tuple(sorted((2 * k * z for z in z_set.roots), key=_sort_key))
    f_float = [float(c) for c in f.coeffs]
    residual_t = 0.0
    for t in t_roots:
        acc = 0j
        for c in f_float:
            acc = acc * t + c
        residual_t = max(residual_t, abs(acc))
    return ScaledFaberRoots(k=k, t=RootSet(roots=t_roots, residual=residual_t), z=z_set)
