"""j-evaluation and inversion, reduction, predictions, and zero reports."""

import cmath
import dataclasses
import math
import random
import sys

import mpmath
import pytest

from faberzeros import halfplane
from faberzeros.errors import DomainError
from faberzeros.faber import faber_polynomial, j_power_table
from faberzeros.halfplane import (
    MAX_J_MODULUS,
    MIN_IM_FOR_SERIES,
    MIN_J_MODULUS,
    OUT_OF_REGIME,
    HalfPlanePoint,
    ZeroReport,
    ZeroReportRow,
    _j_at,
    _j_unit_descending,
    evaluate_j,
    invert_j,
    predicted_zero,
    reduce_to_fundamental_domain,
    zero_report,
)
from faberzeros.modforms import decompose_weight, miller_form_spec
from faberzeros.qseries import TruncatedSeries, _power, j_series
from faberzeros.roots import _exp_inverse_zeros, scaled_faber_roots, truncated_exp_inverse_zeros
from oracles import in_fundamental_domain, series_difference, series_scaled, series_sum


def j_oracle(tau):
    """Independent high-precision evaluation (mpmath's Klein invariant is j/1728)."""
    return complex(1728 * mpmath.kleinj(mpmath.mpc(tau)))


# --- evaluate_j ------------------------------------------------------------------


def test_evaluate_j_at_2i():
    got = evaluate_j(2j)
    assert abs(got - 287496) <= 1e-6 * 287496


def test_evaluate_j_matches_oracle_on_samples():
    rng = random.Random(3)
    for _ in range(20):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 2.5))
        got = evaluate_j(tau)
        want = j_oracle(tau)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_evaluate_j_dominant_term_structure():
    # q = 1e-6 on the real axis: j ~ 1/q + 744 with O(0.2) remainder
    tau = complex(0.0, -math.log(1e-6) / (2 * math.pi))
    got = evaluate_j(tau)
    assert abs(got - (1e6 + 744)) < 0.5


def test_evaluate_j_requires_height():
    with pytest.raises(DomainError):
        evaluate_j(complex(0.0, 0.5))


@pytest.mark.parametrize("height", [113, 120, 1e6])
def test_evaluate_j_refuses_j_beyond_the_double_range(height):
    # Im tau = 113 overflows 1/q to inf; from Im tau ~ 119 on, q itself underflows to 0
    with pytest.raises(DomainError, match="double range"):
        evaluate_j(complex(0.1, height))


def test_evaluate_j_is_finite_just_below_the_double_range():
    value = evaluate_j(complex(0.1, 100))
    assert cmath.isfinite(value)
    assert abs(value) > 1e272


def test_evaluate_j_consistency_with_predicted_zero():
    # at the predicted zero for z = -1 the nome is exactly -1/(2k), so
    # j(tau_hat) = -2k + 744 - 196884/(2k) + 21493760/(2k)^2 - ...
    k = 1000
    tau = predicted_zero(k, -1 + 0j).tau
    val = evaluate_j(tau)
    expansion = -2 * k + 744 - 196884 / (2 * k) + 21493760 / (2 * k) ** 2
    assert abs(val - expansion) < 1
    assert 0.5 * 2 * k < abs(val) < 1.1 * 2 * k


# --- invert_j --------------------------------------------------------------------


def test_invert_j_round_trip_specific():
    tau0 = complex(0.1, 1.5)
    t = evaluate_j(tau0)
    if abs(t) >= 2000:
        back = invert_j(t)
        assert abs(back.tau - tau0) < 1e-10


def test_invert_j_at_287496():
    p = invert_j(287496)
    assert abs(p.tau - 2j) < 1e-8
    assert in_fundamental_domain(p.tau)


def test_invert_j_heegner_point():
    t = -262537412640768000
    p = invert_j(t)
    expected = complex(-0.5, math.sqrt(163) / 2)
    assert abs(p.tau - expected) < 1e-12
    # and the series evaluation reproduces t to 12 digits
    assert abs(evaluate_j(p.tau) - t) <= 1e-12 * abs(t)


def test_invert_j_round_trip_samples():
    rng = random.Random(17)
    checked = 0
    while checked < 100:
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(1.0, 3.0))
        if not in_fundamental_domain(tau):
            continue
        t = evaluate_j(tau)
        if abs(t) < 2000:
            continue
        back = invert_j(t)
        assert abs(back.tau - tau) <= 1e-8
        checked += 1


@pytest.mark.parametrize(("k", "d"), [(4002, 5), (19412, 6), (25824, 9), (1073132, 21)])
def test_zero_report_inverts_j_to_the_rounding_floor(k, d):
    # Newton stopped at |j(tau) - t| <= tol |t| / 2 refused these roots in zero_report's own
    # check |F(j(tau))| <= tol * max |F coeff|; each tau now reproduces t to rounding
    report = zero_report(miller_form_spec(k, decompose_weight(k).ell - d))
    assert len(report.rows) == d
    for row in report.rows:
        assert abs(j_oracle(row.tau.tau) - row.t) <= 1e-14 * abs(row.t), row


# --- invert_j's truncation: sixteen terms of j's series ----------------------------------


def _coefficient_bound(n):
    """Brisebarre-Philibert (2005): c(n) <= e^(4 pi sqrt(n)) / (sqrt(2) n^(3/4)) for n >= 1."""
    n = mpmath.mpf(n)
    return mpmath.exp(4 * mpmath.pi * mpmath.sqrt(n)) / (mpmath.sqrt(2) * n ** mpmath.mpf(0.75))


def test_coefficient_bound_holds_for_the_exact_j_coefficients():
    coeffs = j_series(60).coeffs  # c(-1), c(0), ..., c(59)
    with mpmath.workdps(40):
        for n in range(1, 60):
            assert 0 < coeffs[n + 1] <= _coefficient_bound(n), n


def test_sixteen_terms_leave_a_tail_below_every_inversion_target():
    # invert_j keeps c(-1)..c(14); its roots have |q| <= 2/|t| <= 2/MIN_J_MODULUS.  For n >= 15
    # the ratio of consecutive bounds is at most e^(4 pi (sqrt(n+1) - sqrt(n))) |q| <=
    # e^(2 pi / sqrt(15)) |q| = r, so the tail is at most bound(15) |q|^15 / (1 - r).  The
    # smallest residual target is tol |t| with tol = eps and |t| = MIN_J_MODULUS; a tail a
    # thousandth of it cannot move Newton's rounding floor.
    with mpmath.workdps(40):
        q = mpmath.mpf(2) / MIN_J_MODULUS
        r = mpmath.exp(2 * mpmath.pi / mpmath.sqrt(15)) * q
        assert r < 1
        tail = _coefficient_bound(15) * q**15 / (1 - r)
        assert tail < 1e-24
        assert tail < 1e-3 * sys.float_info.epsilon * MIN_J_MODULUS


@pytest.mark.parametrize(
    "modulus", [MIN_J_MODULUS * (1 + 1e-12), 1e4, 1e9, 1e50, MAX_J_MODULUS * (1 - 1e-12)]
)
def test_invert_j_roots_have_small_nome(modulus):
    # the tail bound above assumes |q| |t| <= 2 over invert_j's whole domain (the margin
    # keeps cmath.rect's rounding of |t| inside it); at t = 2000 the root has |q| |t| = 1.91
    worst = 0.0
    for i in range(720):
        t = cmath.rect(modulus, -math.pi + 2 * math.pi * i / 720)
        worst = max(worst, math.exp(-2 * math.pi * invert_j(t).tau.imag) * abs(t))
    assert worst <= 2


def test_invert_j_root_at_2000_is_beyond_the_old_nome_estimate():
    # the series tail was once estimated at |q| = 1.2/|t|, below this root's nome
    q_abs = math.exp(-2 * math.pi * invert_j(MIN_J_MODULUS).tau.imag)
    assert 1.9 < q_abs * MIN_J_MODULUS < 1.92


def test_invert_j_refuses_small_modulus():
    with pytest.raises(DomainError, match=OUT_OF_REGIME):
        invert_j(1999.0)


@pytest.mark.parametrize("t", [1e200, math.inf, math.nan, complex(0, math.inf)])
def test_invert_j_refuses_huge_or_non_finite_modulus(t):
    with pytest.raises(DomainError):
        invert_j(t)


def test_invert_j_at_the_modulus_ceiling():
    for t in (MAX_J_MODULUS, -MAX_J_MODULUS, 1j * MAX_J_MODULUS):
        tau = invert_j(t).tau
        assert abs(evaluate_j(tau) - t) <= 1e-10 * abs(t)


# --- invert_j's start: the inverse series of j ----------------------------------------


def _inverse_series_coefficients(count):
    """a_0, ..., a_(count-1) of q = eps * sum a_n eps^n solving j(q) = 1/eps, as exact ints:
    by Lagrange inversion n a_(n-1) = [q^(n-1)] u^n with u = q*j, checked by two routes."""
    u = j_series(count).coeffs
    table = j_power_table(count)  # c[n][1] = [q^(n-1)] u^n
    exact = []
    for n in range(1, count + 1):
        top = _power(u, n, n)[n - 1]
        assert top == table[n][1], n
        a, remainder = divmod(top, n)
        assert remainder == 0, n
        exact.append(a)
    return exact


def test_inverse_series_coefficients_are_exact():
    exact = _inverse_series_coefficients(halfplane._START_TERMS)
    assert exact[:4] == [1, 744, 750420, 872769632]
    assert halfplane._inverse_j_descending() == tuple(float(a) for a in reversed(exact))


def test_truncated_inverse_series_solves_j_to_its_order():
    # with q = eps A(eps), eps j(q) = u(eps A) / A; the start keeps A's first N terms, so
    # u(eps A) - A = a_N eps^N + O(eps^(N+1)) and eps j(q(eps)) = 1 + a_N eps^N + ..., exactly
    n = halfplane._START_TERMS
    *a, a_next = _inverse_series_coefficients(n + 1)
    q = TruncatedSeries(1, a, n + 1)
    u = j_series(n).coeffs
    composed = series_scaled(u[0], TruncatedSeries.one(n + 1))
    for i in range(1, n + 1):
        composed = series_sum(composed, series_scaled(u[i], q**i))
    residual = series_difference(composed, TruncatedSeries(0, a + [0], n + 1))
    assert (residual.valuation, residual.coeffs) == (n, (a_next,))


def test_invert_j_takes_under_three_j_evaluations_on_average(monkeypatch):
    # far under the 5.3 evaluations per call that a start at q = 1/t needs on this band
    calls = []
    evaluate = halfplane._j_at

    def counting(q, unit):
        calls.append(q)
        return evaluate(q, unit)

    monkeypatch.setattr(halfplane, "_j_at", counting)
    rng = random.Random(41)
    ts = [cmath.rect(10 ** rng.uniform(4, 6), rng.uniform(-math.pi, math.pi)) for _ in range(2000)]
    for t in ts:
        invert_j(t)
    assert len(calls) / len(ts) <= 3.0


def _distance_to_inverse(t, tau):
    """Seam-aware |tau - tau*| for the exact tau* with j(tau*) = t, by 40-digit Newton
    in the nome on 25 exact terms of j, started at tau."""
    coeffs = j_series(24).coeffs[::-1]  # u = q*j, highest power first
    with mpmath.workdps(40):
        target = mpmath.mpc(t)
        q = mpmath.exp(2j * mpmath.pi * mpmath.mpc(tau))
        for _ in range(8):
            u = du = 0
            for c in coeffs:
                du = du * q + u
                u = u * q + c
            step = (u / q - target) / (du / q - u / q**2)
            q -= step
            if abs(step) <= abs(q) * mpmath.mpf(10) ** -35:
                break
        else:
            raise AssertionError(f"oracle Newton did not converge at t = {t}")
        exact = mpmath.log(q) / (2j * mpmath.pi)
        return min(float(abs(mpmath.mpc(tau) + s - exact)) for s in (-1, 0, 1))


def test_invert_j_within_one_rounding_of_a_40_digit_inversion():
    # bounds measured with Newton started at q = 1/t: worst error 0.968 eps |tau|, mean
    # 1.72e-16; any start that reaches the same rounding floor keeps both
    rng = random.Random(31)
    ts = [cmath.rect(10 ** rng.uniform(math.log10(2e3), 12), rng.uniform(-math.pi, math.pi))
          for _ in range(400)]
    errors = []
    for t in ts:
        tau = invert_j(t).tau
        errors.append(_distance_to_inverse(t, tau))
        assert errors[-1] <= sys.float_info.epsilon * abs(tau), t
    assert sum(errors) / len(errors) <= 1.8e-16


# --- reduction ---------------------------------------------------------------------


def test_reduce_translation():
    assert reduce_to_fundamental_domain(5 + 1j).tau == 1j


def test_reduce_inversion():
    assert abs(reduce_to_fundamental_domain(0.5j).tau - 2j) < 1e-15


def test_reduce_circle_corner_convention():
    rho = cmath.exp(2j * math.pi / 3)
    got = reduce_to_fundamental_domain(cmath.exp(1j * math.pi / 3))
    assert abs(got.tau - rho) < 1e-12
    assert in_fundamental_domain(got.tau)


def test_reduce_sends_the_right_half_of_the_arc_to_the_left():
    got = reduce_to_fundamental_domain(cmath.exp(1.2j))
    assert got.tau == complex(-0.3623577544766736, 0.9320390859672263)
    assert in_fundamental_domain(got.tau)


def test_reduce_idempotent_and_valid():
    rng = random.Random(29)
    for _ in range(200):
        tau = complex(rng.uniform(-8, 8), rng.uniform(0.02, 5.0))
        p = reduce_to_fundamental_domain(tau)
        assert in_fundamental_domain(p.tau)
        again = reduce_to_fundamental_domain(p.tau)
        assert abs(again.tau - p.tau) < 1e-12


def test_reduce_preserves_orbit():
    # the j-invariant agrees before and after reduction
    rng = random.Random(31)
    for _ in range(10):
        tau = complex(rng.uniform(-3, 3), rng.uniform(0.9, 1.4))
        p = reduce_to_fundamental_domain(tau)
        if p.tau.imag >= 0.9:
            assert abs(j_oracle(tau) - j_oracle(p.tau)) <= 1e-6 * max(1.0, abs(j_oracle(tau)))


def test_reduce_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        reduce_to_fundamental_domain(1 - 1j)


@pytest.mark.parametrize(
    "call",
    [
        lambda: reduce_to_fundamental_domain(complex(math.nan, 1)),
        lambda: reduce_to_fundamental_domain(complex(math.inf, 1)),
        lambda: reduce_to_fundamental_domain(complex(0, math.inf)),
        lambda: evaluate_j(complex(math.nan, 1)),
        lambda: evaluate_j(complex(0, math.nan)),
        lambda: evaluate_j(complex(0, math.inf)),
        lambda: predicted_zero(240000, math.inf),
        lambda: HalfPlanePoint(tau=complex(0, math.inf)),
    ],
    ids=[
        "reduce-nan-re",
        "reduce-inf-re",
        "reduce-inf-im",
        "evaluate_j-nan-re",
        "evaluate_j-nan-im",
        "evaluate_j-inf-im",
        "predicted_zero-inf-z",
        "HalfPlanePoint-inf-im",
    ],
)
def test_non_finite_tau_is_refused(call):
    with pytest.raises(DomainError, match="must lie in the upper half-plane"):
        call()


@pytest.mark.parametrize(
    "tau",
    [complex(0, math.nan), complex(0.1, math.nan), complex(0, math.inf)],
    ids=["nan-im", "nan-im-off-axis", "inf-im"],
)
def test_non_finite_height_is_not_in_fundamental_domain(tau):
    assert not in_fundamental_domain(tau)


# --- predicted zeros ------------------------------------------------------------------


def test_predicted_zero_on_imaginary_axis():
    p = predicted_zero(500, 1 + 0j)
    assert p.tau.real == 0
    assert abs(p.tau.imag - math.log(1000) / (2 * math.pi)) < 1e-15
    assert abs(p.tau.imag - 1.0994) < 1e-4


def test_predicted_zero_seam_convention():
    p = predicted_zero(1200, -1 + 0j)
    assert p.tau.real == -0.5
    assert abs(p.tau.imag - math.log(2400) / (2 * math.pi)) < 1e-15
    assert abs(p.tau.imag - 1.2387) < 1e-4


def test_predicted_zero_domain():
    with pytest.raises(DomainError):
        predicted_zero(1200, 0j)
    with pytest.raises(DomainError):
        predicted_zero(2, complex(0.1, 0))  # 2k|z| < 1


def _reference_tau(k: int, z: complex) -> complex:
    # the prediction formula as one expression, kept here as the reference
    theta = cmath.phase(z)
    if theta >= math.pi:
        theta = -math.pi
    x = -theta / (2 * math.pi)
    if x >= 0.5:
        x -= 1.0
    return complex(x, math.log(2 * k * abs(z)) / (2 * math.pi))


def _bits(tau: complex) -> tuple[str, str]:
    return tau.real.hex(), tau.imag.hex()


def test_predicted_zero_is_bitwise_the_reference_formula(capsys):
    from faberzeros.cli import main

    for d in range(1, 22):
        roots = truncated_exp_inverse_zeros(d).roots
        for z in roots:
            k0 = math.floor(1 / (2 * abs(z))) + 1  # the first k with 2k|z| > 1
            assert 2 * k0 * abs(z) > 1 >= 2 * (k0 - 1) * abs(z)
            for k in [k0 + 1] + [k0 * 10**e for e in range(300) if k0 * 10**e <= 10**300]:
                assert _bits(predicted_zero(k, z).tau) == _bits(_reference_tau(k, z)), (d, z, k)
        # the figure rows print exactly these values, k-major and r-minor
        k_even = 2 * max(math.floor(1 / (2 * abs(z))) + 1 for z in roots)
        for e in range(0, 300, 50):
            k = k_even * 10**e
            assert main(["figure", "--D", str(d), "--k-min", str(k), "--k-max", str(k)]) == 0
            rows = capsys.readouterr().out.strip().split("\n")[1:]
            assert len(rows) == d
            for r, (row, z) in enumerate(zip(rows, roots), 1):
                kk, rr, re_, im = row.split(",")
                assert (int(kk), int(rr)) == (k, r)
                assert _bits(complex(float(re_), float(im))) == _bits(_reference_tau(k, z))


def test_half_plane_point_requires_positive_imaginary():
    with pytest.raises(DomainError):
        HalfPlanePoint(tau=1 - 0.5j)


# --- zero reports --------------------------------------------------------------------


def test_nontrivial_zeros_degree_zero_empty():
    spec = miller_form_spec(24, 2)
    assert zero_report(spec).rows == ()


def test_verify_predictions_degree_zero_empty_report():
    report = zero_report(miller_form_spec(48, 4))
    assert report.degree == 0 and report.rows == ()


@pytest.mark.parametrize("k, m", [(48, 4), (24, 0), (12000, 999)], ids=["D=0", "D=2", "D=1"])
def test_zero_report_keeps_the_faber_polynomial_it_solved(k, m):
    spec = miller_form_spec(k, m)
    report = zero_report(spec, strict=False)
    assert report.faber == faber_polynomial(spec)
    assert (report.k, report.m, report.degree) == (spec.k, spec.m, spec.degree)
    assert [f.name for f in dataclasses.fields(report)] == ["faber", "rows"]


def test_nontrivial_zeros_penultimate_large_weight():
    k = 12000
    spec = miller_form_spec(k, decompose_weight(k).ell - 1)
    zeros = [row.tau for row in zero_report(spec).rows]
    assert len(zeros) == 1
    z = zeros[0]
    assert in_fundamental_domain(z.tau)
    # the crude nome estimate log(2k - 744)/2pi sits within ~5e-3 of the
    # true height log(2k + gamma(0) - 196884/(2k) + ...)/2pi
    crude = complex(-0.5, math.log(2 * k - 744) / (2 * math.pi))
    assert abs(z.tau - crude) < 6e-3
    assert abs(z.tau.real - (-0.5)) < 1e-12


def test_nontrivial_zeros_rejects_small_weight():
    with pytest.raises(DomainError, match=OUT_OF_REGIME):
        zero_report(miller_form_spec(24, 0))


def test_zero_report_flags_instead_when_not_strict():
    report = zero_report(miller_form_spec(24, 0), strict=False)
    assert report.degree == 2 and len(report.rows) == 2
    assert all(row.status == OUT_OF_REGIME and row.tau is None for row in report.rows)
    assert all(row.abs_err is None and row.k_times_err is None for row in report.rows)
    assert all(row.tau_hat is not None for row in report.rows)


def test_zero_report_refuses_the_limits_before_solving_f(monkeypatch):
    # D = 200: D! is past the double range, so the truncated exponential is refused
    # and the exact solve of F, seconds of work at this degree, never starts
    calls = []

    def counted(spec):
        calls.append(spec)
        return faber_polynomial(spec)

    monkeypatch.setattr(halfplane, "faber_polynomial", counted)
    message = "^truncated exponential of degree 200: coefficients must be finite"
    with pytest.raises(DomainError, match=message):
        zero_report(miller_form_spec(2400, 0), strict=False)
    assert calls == []
    zero_report(miller_form_spec(2400, decompose_weight(2400).ell - 2))
    assert len(calls) == 1  # the binding counted is the one zero_report calls


def test_zero_report_row_status_follows_tau():
    point = HalfPlanePoint(tau=0.1 + 1.2j)
    shared = dict(r=1, t=-23256 + 0j, tau_hat=point, t_gap=0.0)
    assert ZeroReportRow(tau=point, k_times_err=0.0, **shared).status == "ok"
    assert ZeroReportRow(tau=None, k_times_err=None, **shared).status == OUT_OF_REGIME
    assert "status" not in [f.name for f in dataclasses.fields(ZeroReportRow)]
    with pytest.raises(TypeError):
        ZeroReportRow(tau=None, k_times_err=None, status=OUT_OF_REGIME, **shared)


def test_zero_report_row_abs_err_follows_tau_and_tau_hat():
    # derived like status: the seam-aware |tau - tau_hat|, None without a tau
    shared = dict(r=1, t=-23256 + 0j, k_times_err=None, t_gap=0.0)
    near_seam = ZeroReportRow(
        tau=HalfPlanePoint(tau=-0.49 + 1.2j), tau_hat=HalfPlanePoint(tau=0.48 + 1.2j), **shared
    )
    assert abs(near_seam.abs_err - 0.03) < 1e-12
    point = HalfPlanePoint(tau=0.1 + 1.2j)
    assert ZeroReportRow(tau=None, tau_hat=point, **shared).abs_err is None
    assert "abs_err" not in [f.name for f in dataclasses.fields(ZeroReportRow)]
    with pytest.raises(TypeError):
        ZeroReportRow(tau=point, tau_hat=point, abs_err=0.0, **shared)


def test_half_plane_point_stores_the_complex_it_validated():
    point = HalfPlanePoint(tau="0.1+2j")
    assert type(point.tau) is complex and point.tau == complex(0.1, 2)
    assert point == HalfPlanePoint(tau=complex(0.1, 2))


def test_zero_report_conjugate_pair_degree_two():
    k = 6000
    report = zero_report(miller_form_spec(k, decompose_weight(k).ell - 2))
    assert report.degree == 2
    res = sorted(row.tau.tau.real for row in report.rows)
    assert abs(res[0] - (-0.375)) < 1e-3
    assert abs(res[1] - 0.375) < 1e-3
    assert abs(res[0] + res[1]) < 1e-9  # conjugate real parts


@pytest.mark.parametrize(
    ("d", "k"),
    [
        (1, 16628702), (2, 23774608), (3, 17535710), (4, 23336078), (5, 18505484), (6, 15928430),
        (7, 22018280), (8, 16478720), (9, 19668316), (10, 18429500), (11, 15156808),
        (12, 23083532), (13, 17573576), (14, 16369300), (15, 23932844), (16, 23574140),
        (17, 19164764), (18, 21342830), (19, 19656518), (20, 20723420), (21, 14141368),
    ],
)
def test_zero_report_row_r_holds_the_root_solved_from_limit_r(d, k):
    # the largest screened weight per degree; below k ~ 2e4 the bottleneck pairing
    # may still give limit r a root whose solve started at another limit
    report = zero_report(miller_form_spec(k, decompose_weight(k).ell - d))
    limits = truncated_exp_inverse_zeros(d).roots
    solved = scaled_faber_roots(report.faber, start=limits).roots
    assert [row.t for row in report.rows] == [2 * k * z for z in solved]
    assert [row.tau_hat for row in report.rows] == [predicted_zero(k, z) for z in limits]


def test_verify_predictions_row_contract():
    k = 9996
    spec = miller_form_spec(k, decompose_weight(k).ell - 3)
    report = zero_report(spec)
    assert report.degree == 3 and len(report.rows) == 3
    limits = truncated_exp_inverse_zeros(3)
    for row, z in zip(report.rows, limits.roots):
        assert row.k_times_err == k * row.abs_err
        assert row.t_gap == abs(row.t - 2 * k * z)
        assert row.abs_err < 0.01


def test_verify_predictions_error_decays_on_doubling():
    vals = []
    for k in (2400, 4800, 9600, 19200):
        spec = miller_form_spec(k, decompose_weight(k).ell - 1)
        report = zero_report(spec)
        vals.append(max(row.k_times_err for row in report.rows))
    assert all(b <= a for a, b in zip(vals, vals[1:]))  # non-increasing
    assert max(vals) <= 150


def test_line_clustering_and_height_law():
    # k |Re(tau_r) + arg(z_{D,r})/2pi| and k |Im(tau_r) - log(2k|z|)/2pi|
    # stay below C'/k with C' estimated at the smallest grid weight; the
    # 25% margin covers sequences that converge up toward their limit
    for d in (1, 2, 3, 4):
        limits = truncated_exp_inverse_zeros(d)
        args = []
        for z in limits.roots:
            ph = cmath.phase(z)
            args.append(-math.pi if ph >= math.pi else ph)
        re_seq, im_seq = [], []
        for i in range(5):
            k = 12000 * 2**i
            spec = miller_form_spec(k, decompose_weight(k).ell - d)
            report = zero_report(spec)
            re_errs, im_errs = [], []
            for row, z, arg in zip(report.rows, limits.roots, args):
                want_re = -arg / (2 * math.pi)
                if want_re >= 0.5:
                    want_re -= 1.0
                re_err = min(abs(row.tau.tau.real - want_re + s) for s in (-1, 0, 1))
                im_err = abs(row.tau.tau.imag - math.log(2 * k * abs(z)) / (2 * math.pi))
                re_errs.append(k * re_err)
                im_errs.append(k * im_err)
            re_seq.append(max(re_errs))
            im_seq.append(max(im_errs))
        assert all(v <= 1.25 * re_seq[0] + 1e-9 for v in re_seq), (d, re_seq)
        assert all(v <= 1.25 * im_seq[0] + 1e-9 for v in im_seq), (d, im_seq)


def test_j_real_on_imaginary_axis():
    for i in range(20):
        y = 1.0 + i / 19.0
        val = evaluate_j(complex(0.0, y))
        assert abs(val.imag) <= 1e-8 * abs(val)


# --- the j-coefficient cache --------------------------------------------------------


@pytest.mark.parametrize("counts", [(160, 32, 16), (16, 32, 160)])
def test_j_unit_descending_suffixes_in_any_call_order(counts):
    _j_unit_descending.cache_clear()
    got = {n: _j_unit_descending(n) for n in counts}
    for n, coeffs in got.items():
        assert len(coeffs) == n - 1 and all(type(c) is float for c in coeffs)
    shortest, middle, longest = (got[n] for n in sorted(counts))
    assert longest[-len(middle):] == middle and middle[-len(shortest):] == shortest
    assert longest[-2:] == (196884.0, 744.0)


def test_evaluate_j_with_32_terms_equals_160_terms_bitwise():
    # the tail left out above q^30 is below 3e-39 at Im(tau) >= MIN_IM_FOR_SERIES,
    # so a longer truncation cannot move a bit of evaluate_j
    rng = random.Random(41)
    unit = _j_unit_descending(160)
    for _ in range(2400):
        tau = complex(rng.uniform(-0.5, 0.5), MIN_IM_FOR_SERIES * 10 ** rng.uniform(0, 0.6))
        got, want = evaluate_j(tau), _j_at(cmath.exp(2j * math.pi * tau), unit)[0]
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), tau


def test_j_evaluation_and_inversion_safe_in_parallel():
    # evaluation (32 terms) and inversion (16 terms) fill the cache in an
    # arbitrary order across threads; every caller must still see exactly the serial results
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(7)
    ts = [cmath.rect(10 ** rng.uniform(3.4, 9), rng.uniform(-math.pi, math.pi)) for _ in range(24)]
    taus = [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 2.0)) for _ in range(24)]

    def task(i):
        return invert_j(ts[i]).tau, evaluate_j(taus[i])

    _j_unit_descending.cache_clear()
    serial = [task(i) for i in range(24)]
    _j_unit_descending.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(task, range(24), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial


def test_zero_report_safe_in_parallel_with_shared_limit_cache():
    # mixed degrees fill the truncated-exponential cache in an arbitrary
    # order across threads; every report must equal the serial one
    from concurrent.futures import ThreadPoolExecutor

    ks = [240000, 2400000]
    specs = [
        miller_form_spec(k, decompose_weight(k).ell - d) for d in (1, 5, 9, 3, 12, 7) for k in ks
    ]

    def task(spec):
        return zero_report(spec, strict=False)

    _exp_inverse_zeros.cache_clear()
    serial = [task(spec) for spec in specs]
    _exp_inverse_zeros.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(task, specs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial


def test_report_dataclasses_are_slotted_and_frozen():
    point = HalfPlanePoint(tau=0.1 + 1.2j)
    row = ZeroReportRow(
        r=1, t=-23256 + 0j, tau=point, tau_hat=point, k_times_err=0.0, t_gap=0.0
    )
    report = ZeroReport(faber=faber_polynomial(miller_form_spec(24, 1)), rows=(row,))
    for obj in (point, row, report):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        field = dataclasses.fields(obj)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, getattr(obj, field))
