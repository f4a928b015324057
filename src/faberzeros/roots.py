"""Complex root-finding and root geometry for the zero-location pipeline.

Aberth-Ehrlich simultaneous iteration covers the tiny degrees that occur
here (D up to ~20).  Faber polynomials are never solved directly in the
t variable: coefficients like (2k)^s/s! span too many magnitudes, so the
roots are found on the rescaled g_k(z) = F(2k z)/(2k)^D and mapped back,
which keeps the conditioning uniform in k.  A solve starts from a fixed
circle unless the caller passes its own starts; the zero report passes
the inverse zeros z_{D,r} of the truncated exponential, which the roots
of g_k approach as k grows.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import mul

from .errors import DomainError, NumericalError
from .faber import FaberPoly, horner

__all__ = [
    "ComplexPoly",
    "RootSet",
    "Pairing",
    "find_roots",
    "truncated_exp_poly",
    "truncated_exp_inverse_zeros",
    "match_roots",
    "scaled_faber_roots",
]

_ABERTH_OFFSET = 0.4  # fixed rotation of the initial circle, breaks symmetry deterministically
_CONVERGED = 1e-15
_MAX_ITER = 500


def _check_tolerance(tol: float) -> None:
    """Refuse a tolerance that would make a residual check vacuous or unsatisfiable."""
    if not 0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    if tol < sys.float_info.epsilon:
        raise DomainError(
            f"tolerance {tol} is below the double-precision epsilon "
            f"{sys.float_info.epsilon}: no residual check can certify it"
        )


def _phase(z: complex) -> float:
    """The argument of z in [-pi, pi)."""
    ph = cmath.phase(z)
    return -math.pi if ph >= math.pi else ph


def _sort_key(z: complex):
    """Sort by argument in [-pi, pi), ties by modulus."""
    return (_phase(z), abs(z))


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
        try:
            cs = [complex(c) for c in coeffs]
        except OverflowError as exc:
            raise DomainError(f"coefficients must be finite: {exc}") from None
        while cs and cs[0] == 0:
            cs.pop(0)
        if len(cs) < 2:
            raise DomainError("polynomial must have degree >= 1")
        lead = cs[0]
        return cls(coeffs=(1 + 0j,) + tuple(c / lead for c in cs[1:]))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class RootSet:
    """All roots of a polynomial (each listed once), sorted by argument then
    modulus unless the solve was given its starts (then in their order).

    ``residual`` is max |p(root)| over the set, measured against the
    polynomial the roots were certified on.
    """

    roots: tuple[complex, ...]
    residual: float


def _starts(start, n: int) -> list[complex]:
    """Caller-given Aberth starts as n distinct finite complex numbers, or DomainError."""
    try:
        z = [complex(s) for s in start]
    except (TypeError, ValueError) as exc:
        raise DomainError(f"start points must be complex numbers: {exc}") from None
    if len(z) != n:
        raise DomainError(f"need {n} start points for degree {n}, got {len(z)}")
    if not all(math.isfinite(s.real) and math.isfinite(s.imag) for s in z):
        raise DomainError("start points must be finite")
    if len(set(z)) != n:
        raise DomainError("start points must be pairwise distinct")
    return z


def find_roots(p: ComplexPoly, tol: float = 1e-10, *, start=None) -> RootSet:
    """All roots of p by Aberth-Ehrlich iteration in double precision, deterministically.

    By default the initial guesses sit on a circle of radius
    (1 + sum |a_nu|)^(1/D) with a fixed rotational offset, and the roots
    come back sorted by argument then modulus.  ``start`` replaces the
    circle by D distinct finite points (anything else raises DomainError);
    the roots then come back in the order of their starts, root i being the
    iterate that started at start[i].  The iteration stops when no root
    moves by more than 1e-15 relative, or after _MAX_ITER sweeps.  The
    residual contract is max |p(root)| <= tol * max |coeff|; a miss raises
    NumericalError carrying the last iterates.

    The certificate is only achievable while (root bound)^D * eps stays
    under tol * max |coeff|; inputs outside that envelope raise rather
    than return roots that cannot be checked.  Polynomials with wildly
    scaled coefficients should be rescaled first, as scaled_faber_roots
    does with z = t/(2k).
    """
    _check_tolerance(tol)
    n = p.degree
    coeffs = p.coeffs
    scale = max(abs(c) for c in coeffs)
    if start is None:
        radius = (1.0 + sum(abs(c) for c in coeffs[1:])) ** (1.0 / n)
        z = [radius * cmath.exp(1j * (2 * math.pi * i / n + _ABERTH_OFFSET)) for i in range(n)]
    else:
        z = _starts(start, n)

    for _ in range(_MAX_ITER):
        moved = 0.0
        for i in range(n):
            pv, dpv = horner(coeffs, z[i])
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

    residual = max(abs(horner(coeffs, zi)[0]) for zi in z)
    if not residual <= tol * scale:  # also refuses a NaN residual
        raise NumericalError(
            f"root finder residual {residual:.3e} exceeds {tol:.1e} * scale", best=tuple(z)
        )
    if start is None:
        z.sort(key=_sort_key)
    return RootSet(roots=tuple(z), residual=residual)


def truncated_exp_poly(d: int) -> ComplexPoly:
    """The monic multiple D! * (1 + t + ... + t^D/D!) of the truncated exponential."""
    if d < 1:
        raise DomainError(f"degree must be >= 1, got {d}")
    # the running products D!/(D - nu)! = D (D-1) ... (D-nu+1), lazily: the
    # first one beyond the double range is refused before the rest are built
    try:
        return ComplexPoly.from_coefficients(accumulate(range(d, 0, -1), mul, initial=1))
    except DomainError as exc:
        raise DomainError(f"truncated exponential of degree {d}: {exc}") from None


def truncated_exp_inverse_zeros(d: int, tol: float = 1e-10) -> RootSet:
    """The inverse zeros z_{D,r}: reciprocals of the roots of 1 + t + ... + t^D/D!.

    They satisfy prod (1 - z_{D,r} t) = truncated exponential; returned
    sorted by argument in [-pi, pi), ties by modulus.  The residual is
    measured on the monic polynomial z^D + z^{D-1} + ... + 1/D! whose
    roots they are.

    The result depends on (d, tol) alone, so it is memoized per (d, tol)
    value, whether tol is passed by position, by keyword or left at its
    default, and the one immutable RootSet is shared by every caller; a
    call that raises is not cached and raises again when repeated.
    ``cache_info`` and ``cache_clear`` are the memo's, and ``__wrapped__``
    is the unmemoized solve.
    """
    return _exp_inverse_zeros_memo(d, tol)


def _exp_inverse_zeros(d: int, tol: float = 1e-10) -> RootSet:
    """The solve behind truncated_exp_inverse_zeros."""
    t_roots = find_roots(truncated_exp_poly(d), tol=tol)
    inv = sorted((1.0 / t for t in t_roots.roots), key=_sort_key)
    g = [1.0 / math.factorial(r) for r in range(d + 1)]
    residual = max(abs(horner(g, z)[0]) for z in inv)
    if not residual <= tol:  # also refuses a NaN residual
        raise NumericalError(f"inverse-zero residual {residual:.3e} exceeds {tol:.1e}", best=tuple(inv))
    return RootSet(roots=tuple(inv), residual=residual)


_exp_inverse_zeros_memo = lru_cache(maxsize=None)(_exp_inverse_zeros)
truncated_exp_inverse_zeros.cache_info = _exp_inverse_zeros_memo.cache_info
truncated_exp_inverse_zeros.cache_clear = _exp_inverse_zeros_memo.cache_clear
truncated_exp_inverse_zeros.__wrapped__ = _exp_inverse_zeros


@dataclass(frozen=True)
class Pairing:
    """A bijection between two root lists: pairs of (index in a, index in b)."""

    pairs: tuple[tuple[int, int], ...]
    max_distance: float


def match_roots(a, b) -> Pairing:
    """The bijection between two root sequences minimizing the maximum
    pairwise distance (bottleneck assignment).

    Solved exactly over the candidate distances, with a bipartite
    perfect-matching feasibility test at each threshold.  No threshold
    below floor = max(max_i min_j d_ij, max_j min_i d_ij) can match every
    root, and the floor itself almost always does, so it is tried first;
    only when it fails are the distances above it binary-searched.

    Ties: among the pairings with the optimal bottleneck value, the one
    returned is the matching that the augmenting-path search finds at that
    threshold, taking the roots of ``a`` in order and trying those of ``b``
    in index order.  So which of two equidistant partners a root gets
    depends on the order of ``a``.  A NaN or infinite root in either
    sequence raises DomainError: no threshold matches a NaN distance.
    """
    n = len(a)
    if len(b) != n:
        raise DomainError(f"cardinality mismatch: {n} vs {len(b)}")
    if not all(map(cmath.isfinite, (*a, *b))):
        raise DomainError("roots to match must be finite (no NaN or inf)")
    if n == 0:
        return Pairing(pairs=(), max_distance=0.0)
    dist = [[abs(x - y) for y in b] for x in a]
    floor = max(max(map(min, dist)), max(map(min, zip(*dist))))

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

    threshold, match_of_y = floor, matching_at(floor)
    if match_of_y is None:  # search the distances above the floor; the largest always matches
        levels = sorted({d for row in dist for d in row if d > floor})
        lo, hi = 0, len(levels) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            m = matching_at(levels[mid])
            if m is not None:
                threshold, match_of_y = levels[mid], m
                hi = mid - 1
            else:
                lo = mid + 1
    pairs = sorted((i, j) for j, i in enumerate(match_of_y))
    return Pairing(pairs=tuple(pairs), max_distance=threshold)


def scaled_faber_roots(f: FaberPoly, *, tol: float = 1e-10, start=None) -> RootSet:
    """The roots z of the rescaled g_k(z) = F(2k z)/(2k)^D with k = f.k, one find_roots solve.

    Each coefficient c/(2k)^s of g_k is rounded to a double once, as the
    correctly rounded int quotient numerator / (denominator * (2k)^s).
    The solve starts from ``start`` (D finite points, see find_roots)
    when given, else from find_roots' circle; zero_report passes the
    inverse zeros z_{D,r}, the limits of g_k's roots as k grows.  The
    roots of F itself are t = 2k z (same order); the residual is the
    finder's, measured on g_k.
    """
    _check_tolerance(tol)
    if f.degree == 0:
        if start is not None:
            _starts(start, 0)
        return RootSet(roots=(), residual=0.0)
    two_k = 2 * f.k
    g = ComplexPoly.from_coefficients(
        c.numerator / (c.denominator * two_k**s) for s, c in enumerate(f.coeffs)
    )
    return find_roots(g, tol=tol, start=start)
