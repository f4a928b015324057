"""Upper-half-plane geometry: j-evaluation, j-inversion, and zero reports.

The nontrivial zeros of a form are the pullbacks of its Faber roots
through j.  In the large-weight regime those roots are huge, the nome
q = e^{2 pi i tau} is tiny, and a short truncation of the q-expansion of
j inverts accurately by Newton iteration in q, run to the rounding floor
of double precision.  Roots below |t| = 2000 are outside that comfort
zone and are refused rather than inverted with fabricated precision.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache

from ._frozen import frozen_dataclass
from .errors import DomainError, NumericalError
from .faber import FaberPoly, faber_polynomial, horner
from .modforms import ModularFormSpec
from .qseries import _power, j_series
from .roots import (
    _check_tolerance, _complex, _phase, match_roots, scaled_faber_roots,
    truncated_exp_inverse_zeros,
)

__all__ = [
    "MIN_J_MODULUS",
    "MAX_J_MODULUS",
    "MIN_IM_FOR_SERIES",
    "MIN_INVERT_TOL",
    "HalfPlanePoint",
    "ZeroReportRow",
    "ZeroReport",
    "evaluate_j",
    "invert_j",
    "reduce_to_fundamental_domain",
    "predicted_zero",
    "zero_report",
]

MIN_J_MODULUS = 2000.0  # below this, Newton inversion of the truncated series is refused
MAX_J_MODULUS = 1e150  # above this, q^2 ~ 1/t^2 in the Newton step is no longer a normal double
MIN_IM_FOR_SERIES = 0.8  # guarantees |q| <= e^(-1.6 pi), fast tail decay
# below this, invert_j's tolerance can be unreachable: Newton's rounding floor |j(q) - t|
# is often 1.1-1.3 eps |t|, and of 40 000 seeded t it missed tol = 1.5 eps on 9, 2 eps on none
MIN_INVERT_TOL = 4 * sys.float_info.epsilon
_BOUNDARY_EPS = 1e-12
# invert_j's terms of j: its roots have |q| <= 2/|t| <= 1e-3, where by Brisebarre-Philibert,
# c(n) <= e^(4 pi sqrt(n)) / (sqrt(2) n^(3/4)), the omitted tail sum_{n>=15} c(n) |q|^n is
# below 1e-24, under a thousandth of the smallest residual target eps * 2000
_INVERT_TERMS = 16
# evaluate_j's terms of j: at Im(tau) >= MIN_IM_FOR_SERIES, |q| <= e^(-1.6 pi) < 0.0066 and the
# omitted tail sum_{n>=31} c(n) |q|^n is below 3e-39, far under the rounding of the 1/q term
_EVALUATE_TERMS = 32
# terms of the inverse series q(1/j) that start invert_j's Newton iteration: on
# 2e3 <= |t| <= 1e8, 8 to 16 terms take the same time (2.6 to 2.2 j evaluations per call)
_START_TERMS = 8

OUT_OF_REGIME = "outside inversion regime"

@lru_cache(maxsize=None)
def _j_unit_descending(count: int) -> tuple[float, ...]:
    """The coefficients of q^(count-2), ..., q^0 in j as floats: the unit part P
    of j = 1/q + P(q) from j's first ``count`` coefficients, highest first."""
    return tuple(float(c) for c in j_series(count - 1).coeffs[:0:-1])


@lru_cache(maxsize=None)
def _inverse_j_descending() -> tuple[float, ...]:
    """a_(N-1), ..., a_0 as floats, N = _START_TERMS, where the nome solving
    j(q) = 1/eps is q = eps * sum_n a_n eps^n.

    With u = q*j = 1 + 744 q + ..., j = 1/eps means q = eps * u(q), so by
    Lagrange inversion a_(n-1) = [q^(n-1)] u^n / n, an exact integer:
    1, 744, 750420, ...  Each is one Miller power of invert_j's own terms of u.
    """
    u = j_series(_INVERT_TERMS - 1).coeffs
    return tuple(float(_power(u, n, n)[-1] // n) for n in range(_START_TERMS, 0, -1))


def _check_inversion_tolerance(tol: float) -> None:
    """_check_tolerance, then refuse a tolerance under MIN_INVERT_TOL that Newton may not reach."""
    _check_tolerance(tol)
    if tol < MIN_INVERT_TOL:
        raise DomainError(
            f"tolerance {tol} is below {MIN_INVERT_TOL:.3g} (4 x the double-precision "
            f"epsilon): j-inversion cannot always reach it"
        )


def _upper_half_plane(tau) -> complex:
    """tau as a complex number with a finite real part and 0 < Im(tau) < inf."""
    tau = _complex(tau, "tau")
    if not (math.isfinite(tau.real) and 0 < tau.imag < math.inf):
        raise DomainError(f"point must lie in the upper half-plane, got {tau}")
    return tau


@frozen_dataclass()
class HalfPlanePoint:
    """A point tau with finite Re(tau) and 0 < Im(tau) < inf, stored as a complex."""

    tau: complex

    def __post_init__(self):
        object.__setattr__(self, "tau", _upper_half_plane(self.tau))


def _j_at(q: complex, unit) -> tuple[complex, complex]:
    """j = 1/q + P(q) and dj/dq = P'(q) - 1/q^2, with one Horner pass over the
    unit part P (``unit`` from _j_unit_descending).  The reciprocals divide
    the complex 1 + 0j, the same bits as 1.0 without the float slot's detour."""
    p, dp = horner(unit, q)
    q2 = q * q  # 0 once |q| < 1e-162, where |dj/dq| is past the double range: inf
    return (1 + 0j) / q + p, dp - (1 + 0j) / q2 if q2 else math.inf


def evaluate_j(tau: complex) -> complex:
    """Partial sum of j's q-expansion through q^30 (32 coefficients), at tau.

    Requires Im(tau) >= 0.8 (reduce first if necessary), where more terms
    change no bit (see _EVALUATE_TERMS); a tau so high that q underflows
    or j overflows the double range raises DomainError.
    """
    tau = _upper_half_plane(tau)
    if tau.imag < MIN_IM_FOR_SERIES:
        raise DomainError(
            f"evaluate_j requires Im(tau) >= {MIN_IM_FOR_SERIES}, got {tau.imag}; reduce first"
        )
    q = cmath.exp(2j * math.pi * tau)
    if q == 0:
        raise DomainError(f"q underflows to 0 at Im(tau) = {tau.imag}: j exceeds the double range")
    value = _j_at(q, _j_unit_descending(_EVALUATE_TERMS))[0]
    if not cmath.isfinite(value):
        raise DomainError(f"j exceeds the double range at Im(tau) = {tau.imag}")
    return value


def invert_j(t: complex, tol: float = 1e-10) -> HalfPlanePoint:
    """Solve j(tau) = t by Newton iteration in the nome, for 2000 <= |t| <= 1e150.

    Sixteen terms of j's series suffice on this whole domain (see
    _INVERT_TERMS).  The iteration starts from the inverse series
    q = eps + 744 eps^2 + 750420 eps^3 + ... (eps = 1/t), cut after
    _START_TERMS terms, and takes j and dj/dq from one Horner pass per
    step.  Newton runs to the rounding floor: once the residual
    |j(q) - t| is within tol * |t| / 2 it goes on while the residual at
    least halves, and keeps the better of the last two iterates; a final
    residual above tol * |t| raises NumericalError.  The real part of the
    result is normalized into [-1/2, 1/2).  A tol below MIN_INVERT_TOL =
    4 eps raises DomainError: the rounding floor can lie above it.
    """
    _check_inversion_tolerance(tol)
    t = _complex(t, "t")
    if abs(t) < MIN_J_MODULUS:
        raise DomainError(f"{OUT_OF_REGIME}: |t| = {abs(t):.6g} < {MIN_J_MODULUS:.0f}")
    if not abs(t) <= MAX_J_MODULUS:  # also refuses inf and nan
        raise DomainError(f"|t| = {abs(t):.6g} is not <= {MAX_J_MODULUS:.0e}: q^2 would underflow")
    target = tol * abs(t)
    unit = _j_unit_descending(_INVERT_TERMS)
    eps = (1 + 0j) / t
    q = eps * horner(_inverse_j_descending(), eps)[0]
    residual = math.inf
    for _ in range(60):
        jv, djv = _j_at(q, unit)
        last, residual = residual, abs(jv - t)
        if residual == 0 or (residual <= 0.5 * target and residual > 0.5 * last):
            if residual > last:  # the rounding floor, and the last step made it worse
                q, residual = last_q, last
            break
        if djv == 0:
            raise NumericalError("vanishing derivative during Newton iteration", best=q)
        last_q = q
        q = q - (jv - t) / djv
        if not (0 < abs(q) < 1):
            raise NumericalError(f"Newton iterate left the unit disk: |q| = {abs(q):.3g}", best=q)
    if residual > target:
        raise NumericalError(f"Newton residual {residual:.3e} exceeds {target:.3e}", best=q)

    y = -math.log(abs(q)) / (2 * math.pi)
    return HalfPlanePoint(tau=complex(_line(cmath.phase(q)), y))


def reduce_to_fundamental_domain(tau: complex) -> HalfPlanePoint:
    """SL(2,Z)-reduce by the standard translate/invert loop.

    Boundary conventions: Re in [-1/2, 1/2), and points on the unit
    circle are sent to the Re <= 0 half of the arc.
    """
    tau = _upper_half_plane(tau)
    x, y = tau.real, tau.imag
    for _ in range(500):
        x -= math.floor(x + 0.5)
        r2 = x * x + y * y
        if r2 < 1.0 - _BOUNDARY_EPS:
            x, y = -x / r2, y / r2
        else:
            break
    else:
        raise NumericalError(f"reduction did not converge for {tau}")
    r2 = x * x + y * y
    if abs(r2 - 1.0) <= _BOUNDARY_EPS and x > 0:
        x = -x  # -1/tau on the unit circle, up to the translation already applied
        x -= math.floor(x + 0.5)
    return HalfPlanePoint(tau=complex(x, y))


def _line(angle: float) -> float:
    """Re(tau) = angle/(2 pi) of a nome q = e^(2 pi i tau) with arg q = angle, in [-1/2, 1/2)."""
    x = angle / (2 * math.pi)
    return x - 1.0 if x >= 0.5 else x


def _prediction_line(z: complex) -> tuple[float, float]:
    """The line Re = -arg(z)/(2 pi) of z's predictions, normalized into
    [-1/2, 1/2) with arg(z) in [-pi, pi), and |z|."""
    z = _complex(z, "z")
    if z == 0:
        raise DomainError("z must be nonzero")
    return _line(-_phase(z)), abs(z)


def _prediction_height(k: int, z_abs: float) -> float:
    """The height log(2k|z|)/(2 pi) of the weight-k prediction on z's line."""
    if k <= 0:
        raise DomainError(f"weight must be positive, got {k}")
    try:
        modulus = 2 * k * z_abs
    except OverflowError:
        raise DomainError("2k|z| exceeds the double range: the weight is too large") from None
    if modulus <= 1:
        raise DomainError(f"2k|z| = {modulus:.6g} <= 1 gives a non-positive height")
    return math.log(modulus) / (2 * math.pi)


def predicted_zero(k: int, z: complex) -> HalfPlanePoint:
    """The predicted zero (i / 2 pi) * log(2k z), Re normalized into [-1/2, 1/2).

    The argument of z is taken in [-pi, pi), which places the predictions
    on the vertical lines Re = -arg(z)/(2 pi).
    """
    x, z_abs = _prediction_line(z)
    return HalfPlanePoint(tau=complex(x, _prediction_height(k, z_abs)))


def _seam_distance(a: complex, b: complex) -> float:
    """Distance modulo the unit translation gluing Re = -1/2 to Re = 1/2."""
    return min(abs(a + s - b) for s in (-1.0, 0.0, 1.0))


@frozen_dataclass()
class ZeroReportRow:
    """One matched triple: Faber root t, actual zero tau, predicted tau_hat.

    ``tau`` is None when |t| is too small for trustworthy inversion; then
    ``status`` is OUT_OF_REGIME and the seam-aware errors are None too.
    ``abs_err`` is |tau - tau_hat| modulo the unit translation, derived
    from the two points.  ``t_gap`` is |t - 2k z_{D,r}|, the root's
    displacement from its rescaled limit (an O(1) quantity as the weight
    grows).
    """

    r: int
    t: complex
    tau: HalfPlanePoint | None
    tau_hat: HalfPlanePoint
    k_times_err: float | None
    t_gap: float

    @property
    def status(self) -> str:
        return "ok" if self.tau is not None else OUT_OF_REGIME

    @property
    def abs_err(self) -> float | None:
        return None if self.tau is None else _seam_distance(self.tau.tau, self.tau_hat.tau)


@frozen_dataclass()
class ZeroReport:
    """The Faber polynomial F of a form and one row per root; k, m and degree are F's."""

    faber: FaberPoly
    rows: tuple[ZeroReportRow, ...]

    @property
    def k(self) -> int:
        return self.faber.k

    @property
    def m(self) -> int:
        return self.faber.m

    @property
    def degree(self) -> int:
        return self.faber.degree


def zero_report(spec: ModularFormSpec, tol: float = 1e-10, strict: bool = True) -> ZeroReport:
    """The report pairing the actual zeros of f / E_{k'} with their predictions.

    The inverse zeros z_{D,r}, the roots' limits, are built first, so a
    degree they refuse fails before any exact work.  F is solved once and
    kept as ``report.faber``; the solve of g_k starts at those limits, its
    roots are matched against them and pulled back through j; each actual
    tau satisfies |F(j(tau))| <= tol * max |F coeff|.  Row errors are
    |tau_r - tau_hat_r| (seam-aware, derived by the row) with k * err
    stored alongside, plus the t-scale displacement |t_r - 2k z_{D,r}|.
    With strict=True any root outside the inversion regime (|t| < 2000)
    raises DomainError; with strict=False such rows carry no actual tau,
    hence status OUT_OF_REGIME (nothing is dropped).
    Rows are indexed by the inverse zeros' sorted order.  A tol below
    MIN_INVERT_TOL raises DomainError before any solve, as in invert_j.  A
    larger tol can still be out of reach of the |F(j(tau))| check, which
    then raises NumericalError after the whole solve (k = 240000, D = 2 at
    tol = 1e-15; ROADMAP item 3 makes tolerances checkable up front).
    """
    _check_inversion_tolerance(tol)
    d = spec.degree
    if d == 0:
        return ZeroReport(faber=faber_polynomial(spec), rows=())

    limits = truncated_exp_inverse_zeros(d, tol=tol)  # (D, tol) alone: refused before F is solved
    f = faber_polynomial(spec)
    k = f.k

    scaled = scaled_faber_roots(f, tol=tol, start=limits.roots)
    root_for_limit = {j: scaled.roots[i] for i, j in match_roots(scaled.roots, limits.roots)}

    try:
        f_float = [float(c) for c in f.coeffs]
    except OverflowError:
        raise DomainError(f"Faber coefficients of degree {d} exceed the double range") from None
    f_scale = max(abs(c) for c in f_float)

    rows = []
    for r in range(d):
        z_limit = limits.roots[r]
        t = 2 * k * root_for_limit[r]
        tau_hat = predicted_zero(k, z_limit)
        tau = k_err = None
        if abs(t) >= MIN_J_MODULUS:
            tau = invert_j(t, tol=tol)
            value = horner(f_float, evaluate_j(tau.tau))[0]
            if abs(value) > tol * f_scale:
                raise NumericalError(
                    f"|F(j(tau))| = {abs(value):.3e} exceeds {tol:.1e} * scale at root {t:.6g}"
                )
            k_err = k * _seam_distance(tau.tau, tau_hat.tau)
        elif strict:
            raise DomainError(
                f"{OUT_OF_REGIME}: root t_{r + 1} = {t:.6g} has |t| < {MIN_J_MODULUS:.0f} "
                f"(k = {k} too small for D = {d})"
            )
        rows.append(
            ZeroReportRow(
                r=r + 1, t=t, tau=tau, tau_hat=tau_hat, k_times_err=k_err,
                t_gap=abs(t - 2 * k * z_limit),
            )
        )
    return ZeroReport(faber=f, rows=tuple(rows))
