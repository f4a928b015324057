"""Independent oracles the test suite compares the pipeline against.

The faberzeros pipeline never calls anything here: these are the
closed-form Faber polynomials for D <= 3, Ostrowski's root displacement
bound, the companion-matrix eigenvalues of a monic polynomial, the
roots of the exact rescaled Faber polynomial g_k at 60 digits, Horner
evaluation of F at a q-series argument (used to rebuild
f = Delta^ell E_{k'} F(j) exactly), membership in the standard
fundamental domain, and the plain forms of six kernels: the dense
Miller power recurrence, the principal part as one product of
``TruncatedSeries``, the j-power table as a chain of convolutions with
q*j, the column-by-column triangular Faber solve, the Miller basis
back-substitution on whole series, the bottleneck root matching as a
binary search over every candidate distance, and the Aberth solve as it
was written before its sweep kept every operand complex.

``TruncatedSeries`` has products, powers and inverses only; the sums,
differences and scalar multiples the oracles need are formed here on
plain coefficient lists and rebuilt with its constructor.
"""

import cmath
import math
from fractions import Fraction

import mpmath

from faberzeros.errors import DomainError, NumericalError
from faberzeros.faber import FaberPoly, faber_polynomial, horner, j_power_table, principal_part
from faberzeros.halfplane import _BOUNDARY_EPS
from faberzeros.modforms import decompose_weight, miller_form_spec
from faberzeros.qseries import (
    TruncatedSeries,
    _clear_denominators,
    _convolve,
    _divide,
    _exact,
    delta_series,
    eisenstein_series,
    euler_phi,
    gamma_k,
    j_series,
)
from faberzeros.roots import (
    _ABERTH_OFFSET, _CONVERGED, _MAX_ITER, ComplexPoly, RootSet, _check_tolerance,
    _sort_key, _starts,
)


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


def dense_miller_power(u, alpha: int, n: int) -> list:
    """Coefficients 0..n-1 of u^alpha by Miller's recurrence
    m u_0 v_m = sum_{i=1..m} ((alpha+1) i - m) u_i v_{m-i}, visiting every
    u_i, zero or not, and dividing each step as a Fraction."""
    u0 = u[0]
    v = [_exact(Fraction(u0) ** alpha)]
    for m in range(1, n):
        s = sum(((alpha + 1) * i - m) * u[i] * v[m - i] for i in range(1, min(m + 1, len(u))))
        v.append(_exact(Fraction(s, m * u0)))
    return v[:n]


def series_principal_part(spec) -> tuple:
    """A(0..D) as the TruncatedSeries product y * phi^(-24 ell) * E_{k'}^(-1)
    mod q^(D+1), on the window scaled to ints by the lcm L of its
    denominators, with A divided by L at the end."""
    order = spec.degree + 1
    window, scale = _clear_denominators(spec.unit_coeffs)
    y = TruncatedSeries(0, window, order)
    e_inverse = eisenstein_series(spec.k_prime, order).inverse()
    a = y * euler_phi(order) ** (-24 * spec.ell) * e_inverse
    return tuple(_divide([a.coeff(i) for i in range(order)], scale))


def series_sum(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """a + b modulo q^min(a.order, b.order), added coefficient by coefficient
    from the smaller valuation."""
    order = min(a.order, b.order)
    v = min(a.valuation, b.valuation, order)
    return TruncatedSeries(v, [a.coeff(n) + b.coeff(n) for n in range(v, order)], order)


def series_difference(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """a - b modulo q^min(a.order, b.order)."""
    return series_sum(a, series_scaled(-1, b))


def series_scaled(c, s: TruncatedSeries) -> TruncatedSeries:
    """c * s for an exact scalar c, known to the same order as s."""
    return TruncatedSeries(s.valuation, [c * x for x in s.coeffs], s.order)


def series_miller_basis(k: int, order: int) -> list[TruncatedSeries]:
    """The Miller basis modulo q^order from the spanning elements
    Delta^i E_{k'} E_4^(3(ell-i)), cleared at q^(i+1)..q^ell by a
    back-substitution by ``series_difference`` (order >= ell + 1)."""
    weight = decompose_weight(k)
    ell = weight.ell
    e4 = eisenstein_series(4, order)
    basis = [eisenstein_series(weight.k_prime, order) * e4 ** (3 * ell)]
    if ell >= 1:
        step = delta_series(order) * e4**-3
        for _ in range(ell):
            basis.append((basis[-1] * step).truncate(order))
    for j in range(ell, 0, -1):
        for i in range(j):
            c = basis[i].coeff(j)
            if c != 0:
                basis[i] = series_difference(basis[i], series_scaled(c, basis[j]))
    return basis


def convolution_chain_j_power_table(d: int) -> tuple[tuple[int, ...], ...]:
    """The j-power table with row r read off u^r = u^(r-1) * u, u = q*j:
    d successive convolutions, each kept to d+1 terms."""
    u = j_series(d).coeffs
    rows = []
    power = [1]
    for r in range(d + 1):
        rows.append(tuple(power[r::-1]))
        if r < d:
            power = _convolve(power, u, d + 1)
    return tuple(rows)


def column_solve_faber_polynomial(spec) -> FaberPoly:
    """F from the principal part A and the j-power table, solved for one
    x_{D-s} at a time as A(D-s) - sum_{r>s} c_{r,s} x_{D-r}, in whatever mix
    of ints and Fractions A has."""
    d = spec.degree
    a = principal_part(spec)
    table = j_power_table(d)
    x = [0] * (d + 1)
    for s in range(d, -1, -1):
        x[d - s] = a[d - s] - sum(table[r][s] * x[d - r] for r in range(s + 1, d + 1))
    return FaberPoly(k=spec.k, m=spec.m, coeffs=tuple(x))


def bottleneck(a, b, pairs) -> float:
    """The largest distance |a[i] - b[j]| over a pairing's (i, j); 0 for no pairs."""
    return max((abs(a[i] - b[j]) for i, j in pairs), default=0.0)


def binary_search_match_roots(a, b) -> tuple[tuple[int, int], ...]:
    """The bottleneck assignment of ``roots.match_roots`` by a plain binary
    search over all candidate distances, with the same augmenting-path
    feasibility test at each threshold (so the same tie rule)."""
    n = len(a)
    dist = [[abs(x - y) for y in b] for x in a]
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
    return tuple(sorted((i, j) for j, i in enumerate(best[1])))


def mixed_operand_find_roots(p: ComplexPoly, tol: float = 1e-10, *, start=None) -> RootSet:
    """``roots.find_roots`` with its sweep in the mixed float/int and complex
    spelling (``1.0 / diff``, ``1.0 - w * s``, ``== 0``, ``max``), kept verbatim
    so that the all-complex sweep can be checked to give the same bits."""
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


def companion_roots(coeffs) -> list[complex]:
    """The roots of the monic polynomial with descending ``coeffs``, as the
    eigenvalues of its companion matrix, computed by mpmath at 30 digits."""
    d = len(coeffs) - 1
    with mpmath.workdps(30):
        companion = mpmath.zeros(d, d)
        for j in range(d):
            companion[0, j] = -mpmath.mpc(coeffs[j + 1])
        for i in range(1, d):
            companion[i, i - 1] = 1
        return [complex(z) for z in mpmath.eig(companion, left=False, right=False)]


def scaled_roots_oracle(f: FaberPoly, dps: int = 60) -> list[complex]:
    """The roots z of the exact g_k(z) = F(2k z)/(2k)^D, by mpmath.polyroots
    at ``dps`` digits on coefficients c/(2k)^s taken from the exact c."""
    two_k = 2 * f.k
    with mpmath.workdps(dps):
        coeffs = [mpmath.mpf(c.numerator) / (c.denominator * two_k**s) for s, c in enumerate(f.coeffs)]
        return [complex(z) for z in mpmath.polyroots(coeffs, maxsteps=100, extraprec=dps)]


def plus_constant(series: TruncatedSeries, c) -> TruncatedSeries:
    """series + c for an exact constant c; unlike ``series_sum`` this never shrinks the validity.

    If the constant term lies at or beyond the truncation order the
    known part is unchanged.
    """
    c = _exact(c)
    if c == 0 or series.order <= 0:
        return series
    v = min(series.valuation, 0)
    coeffs = [series.coeff(n) for n in range(v, series.order)]
    coeffs[-v] += c
    return TruncatedSeries(v, coeffs, series.order)


def evaluate_series(poly: FaberPoly, s: TruncatedSeries) -> TruncatedSeries:
    """F(s) by Horner's rule at a series argument (used to verify f = Delta^ell E_k' F(j))."""
    big = s.order + (poly.degree + 1) * max(1, -min(s.valuation, 0)) + 1
    acc = series_scaled(poly.coeffs[0], TruncatedSeries.one(big))
    for c in poly.coeffs[1:]:
        acc = plus_constant(acc * s, c)
    return acc


def in_fundamental_domain(tau: complex) -> bool:
    """The three membership predicates, with a small tolerance on the circle."""
    x, y = tau.real, tau.imag
    if not (0 < y < math.inf and -0.5 <= x < 0.5):  # false for a NaN height too
        return False
    r2 = x * x + y * y
    if r2 < 1.0 - _BOUNDARY_EPS:
        return False
    if abs(r2 - 1.0) <= _BOUNDARY_EPS and x > _BOUNDARY_EPS:
        return False
    return True
