"""Faber polynomial extraction: worked polynomials, closed forms, identities."""

import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from faberzeros.cli import _faber_json
from faberzeros import faber, qseries
from faberzeros.errors import DomainError
from faberzeros.faber import (
    FaberPoly,
    _eisenstein_inverse,
    faber_polynomial,
    j_power_table,
    principal_part,
    renormalized_coeffs,
)
from faberzeros.modforms import (
    ALLOWED_K_PRIME,
    ModularFormSpec,
    custom_form_spec,
    decompose_weight,
    miller_basis_series,
    miller_form_spec,
)
from faberzeros.qseries import (
    TruncatedSeries,
    delta_series,
    eisenstein_series,
    eta_unit,
    gamma_k,
    j_series,
)
from faberzeros.roots import ComplexPoly, find_roots, scaled_faber_roots
from oracles import (
    closed_form_check,
    closed_form_poly,
    column_solve_faber_polynomial,
    convolution_chain_j_power_table,
    evaluate_series,
    series_principal_part,
)


# --- j-power table -------------------------------------------------------------


def test_j_power_table_paper_entries():
    t = j_power_table(2)
    assert t[1][0] == 744
    assert t[2][1] == 1488
    # oracle: square the j-expansion directly
    assert 744**2 + 2 * 196884 == 947304
    assert t[2][0] == 947304


def test_j_power_table_invariants():
    # over the benchmark's degree range: c[r][r] = 1, c[r][r-1] = 744 r,
    # non-negative integer entries, row r of length r + 1
    t = j_power_table(40)
    assert len(t) == 41
    for r, row in enumerate(t):
        assert len(row) == r + 1
        assert row[r] == 1
        if r >= 1:
            assert row[r - 1] == 744 * r
        assert all(type(x) is int and x >= 0 for x in row)


def test_j_power_table_equals_the_convolution_chain():
    # one Miller power per row against d successive products with q*j
    for d in range(81):
        table = j_power_table(d)
        chain = convolution_chain_j_power_table(d)
        assert table == chain, d
        assert [[type(x) for x in row] for row in table] == [[type(x) for x in row] for row in chain], d


def test_j_power_table_memo_matches_the_uncached_build():
    j_power_table.cache_clear()
    for d in range(61):
        assert j_power_table(d) == j_power_table.__wrapped__(d), d


def test_j_power_table_keeps_only_the_last_table():
    table = j_power_table(7)
    assert j_power_table(7) is table
    j_power_table(5)
    j_power_table(6)
    assert j_power_table.cache_info().currsize == 1
    assert j_power_table(7) is not table and j_power_table(7) == table


def test_j_power_table_errors_are_not_cached():
    j_power_table.cache_clear()
    for _ in range(2):
        with pytest.raises(DomainError):
            j_power_table(-1)
    assert j_power_table.cache_info().currsize == 0


def test_j_power_table_against_series_square():
    # independent route: naive coefficientwise square of j truncated
    j = j_series(2)
    coeffs = {n: j.coeff(n) for n in range(-1, 2)}
    c20 = sum(coeffs[a] * coeffs[b] for a in range(-1, 2) for b in range(-1, 2) if a + b == 0)
    assert j_power_table(2)[2][0] == c20
    # every entry against the Laurent powers j^r by Miller's recurrence
    for d in range(41):
        table = j_power_table(d)
        js = j_series(d)
        for r in range(d + 1):
            power = js**r
            assert table[r] == tuple(power.coeff(-s) for s in range(r + 1)), (d, r)


# --- principal part --------------------------------------------------------------


def test_principal_part_leading_is_one_for_miller():
    for k, m in ((24, 0), (36, 2), (26, 0), (14, 0)):
        assert principal_part(miller_form_spec(k, m))[0] == 1


def test_principal_part_k24_m1():
    # hand expansion: 1/((1-q)^{48} E_0) = 1 + 48q + O(q^2)
    a = principal_part(miller_form_spec(24, 1))
    assert a == (1, 24 * 2 + gamma_k(0))
    assert a[1] == 48


def test_principal_part_k26_m0():
    # 24*ell + gamma(14) = 24 + 24
    a = principal_part(miller_form_spec(26, 0))
    assert a[1] == 24 * 1 + gamma_k(14) == 48


def test_eisenstein_inverse_memo_matches_the_uncached_build():
    _eisenstein_inverse.cache_clear()
    for k_prime in ALLOWED_K_PRIME:
        for order in range(1, 41):
            got = _eisenstein_inverse(k_prime, order)
            assert got == eisenstein_series(k_prime, order).inverse(), (k_prime, order)
            assert all(type(c) is int for c in got.coeffs), (k_prime, order)


def test_eisenstein_inverse_repeated_call_returns_the_same_object():
    assert _eisenstein_inverse(6, 25) is _eisenstein_inverse(6, 25)


def test_eisenstein_inverse_errors_are_not_cached():
    _eisenstein_inverse(4, 9)
    size = _eisenstein_inverse.cache_info().currsize
    for _ in range(2):
        with pytest.raises(DomainError):
            _eisenstein_inverse(2, 9)  # no tabulated gamma(2)
        with pytest.raises(DomainError):
            _eisenstein_inverse(4, 0)
    assert _eisenstein_inverse.cache_info().currsize == size


def _kernel_calls(spec):
    """The multiset of (kernel, argument lengths) one cold faber_polynomial(spec) makes."""
    calls = Counter()
    real_convolve, real_power = qseries._convolve, qseries._power

    def convolve(a, b, n):
        calls["convolve", len(a), len(b), n] += 1
        return real_convolve(a, b, n)

    def power(u, alpha, n):  # alpha = -24 ell depends on k, so it is left out
        calls["power", len(u), n] += 1
        return real_power(u, alpha, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qseries, "_convolve", convolve)
        mp.setattr(qseries, "_power", power)
        mp.setattr(faber, "_convolve", convolve)
        mp.setattr(faber, "_power", power)
        qseries._phi_coeffs.cache_clear()
        j_series.cache_clear()
        _eisenstein_inverse.cache_clear()
        j_power_table.cache_clear()
        faber_polynomial(spec)
    return calls


@pytest.mark.parametrize("k_prime", ALLOWED_K_PRIME)
def test_faber_kernel_calls_do_not_depend_on_the_weight(k_prime):
    # the north-star claim at D = 24: k = 2.4e5 and 2.4e7 run the same
    # products and powers on series of the same lengths, so only the size
    # of the phi-power coefficients can make the larger weight slower
    d = 24
    window = [Fraction(i % 7 - 3, 1 + i % 5) for i in range(d)]
    for make in (miller_form_spec, lambda k, m: custom_form_spec(k, m, window)):
        low, high = (
            _kernel_calls(make(k, decompose_weight(k).ell - d))
            for k in (240_000 + k_prime, 24_000_000 + k_prime)
        )
        assert low == high
        assert sum(n for (name, *_), n in low.items() if name == "power") >= d + 1


# --- faber_polynomial -------------------------------------------------------------


def test_faber_24_0_exact():
    poly = faber_polynomial(miller_form_spec(24, 0))
    assert poly.coeffs == (1, -1440, 125280)


def test_faber_36_0_exact():
    poly = faber_polynomial(miller_form_spec(36, 0))
    assert poly.coeffs == (1, -2160, 965520, -27302400)


def test_faber_24_1_two_routes():
    direct = faber_polynomial(miller_form_spec(24, 1))
    assert direct.coeffs == (1, -696)
    # closed form: t + (2k + gamma(k') - 744) at k = 24, gamma(0) = 0
    assert direct == closed_form_poly(24, 1)


def test_faber_degree_zero_cases():
    # E_{k'} and Delta^ell both have Faber polynomial 1
    for k, m in ((4, 0), (6, 0), (14, 0), (12, 1), (36, 3)):
        assert faber_polynomial(miller_form_spec(k, m)).coeffs == (1,)


def test_faber_integer_coefficients_for_miller_input():
    for k, m in ((48, 0), (48, 1), (50, 0), (120, 4)):
        poly = faber_polynomial(miller_form_spec(k, m))
        assert all(c.denominator == 1 for c in poly.coeffs)


def test_faber_coefficients_are_ints_when_integral():
    poly = faber_polynomial(miller_form_spec(240, 12))
    assert all(type(c) is int for c in poly.coeffs)
    # the same values built from Fractions normalize to ints
    as_fractions = FaberPoly(k=poly.k, m=poly.m, coeffs=tuple(Fraction(c) for c in poly.coeffs))
    assert as_fractions.coeffs == poly.coeffs and hash(as_fractions) == hash(poly)
    assert all(type(c) is int for c in as_fractions.coeffs)
    assert str(as_fractions) == str(poly)
    # rescaling divides by the Fraction 2k, so ints stay exact
    exact = [Fraction(c) / Fraction(480) ** s for s, c in enumerate(poly.coeffs)]
    rounded = ComplexPoly.from_coefficients([float(c) for c in exact])
    assert scaled_faber_roots(poly) == find_roots(rounded)

    custom = faber_polynomial(custom_form_spec(48, 1, [Fraction(1, 3), 2, 0]))
    assert any(type(c) is Fraction for c in custom.coeffs)
    assert all(type(c) is int for c in custom.coeffs if c.denominator == 1)
    assert all(c.denominator != 1 for c in custom.coeffs if type(c) is Fraction)


def test_faber_str_skips_zero_coefficients():
    assert str(FaberPoly(k=24, m=0, coeffs=(1, 0, 5))) == "t^2 + 5"


def test_faber_degree_law():
    for k in (12, 24, 36, 50, 120):
        ell = decompose_weight(k).ell
        for m in range(ell + 1):
            assert faber_polynomial(miller_form_spec(k, m)).degree == ell - m


# --- closed forms ------------------------------------------------------------------


def test_closed_form_36_1_coefficients():
    # t^2 + 24(3-62) t + 36(72 - 1485 + 4438)
    poly = closed_form_poly(36, 1)
    assert poly.coeffs == (1, -1416, 108900)
    assert closed_form_check(36, 1)


def test_closed_form_checks():
    assert closed_form_check(24, 1)
    assert closed_form_check(48, 1)  # the cubic at ell = 4, m = 1


def test_closed_form_checks_at_huge_weights():
    for k in (2400, 240_000, 2_400_000, 24_000_000):
        ell = decompose_weight(k).ell
        for m in (ell - 1, ell - 2, ell - 3):
            assert closed_form_check(k, m), (k, m)


def test_closed_form_domain():
    with pytest.raises(DomainError):
        closed_form_poly(26, 0)  # k not divisible by 12
    with pytest.raises(DomainError):
        closed_form_poly(60, 0)  # D = 5 unsupported


def test_closed_form_sweep_small():
    for ell in range(2, 12):
        k = 12 * ell
        assert closed_form_check(k, ell - 1)
        assert closed_form_check(k, ell - 2)
        if ell >= 3:
            assert closed_form_check(k, ell - 3)


def test_faber_poly_refuses_a_degree_that_is_not_ell_minus_m():
    # k = 24 has ell = 2, so m = 0 needs three coefficients
    with pytest.raises(DomainError, match="ell - m"):
        FaberPoly(k=24, m=0, coeffs=(1, 2))
    with pytest.raises(DomainError):
        FaberPoly(k=2, m=0, coeffs=(1,))  # weight 2 has no decomposition
    assert FaberPoly(k=24, m=1, coeffs=(1, 2)).degree == 1


# --- renormalized coefficients -------------------------------------------------------


def test_renormalized_leading_deviation_is_zero():
    poly = faber_polynomial(miller_form_spec(36, 0))
    assert renormalized_coeffs(poly)[0] == 0


def test_renormalized_miller_24_1():
    poly = faber_polynomial(miller_form_spec(24, 1))
    devs = renormalized_coeffs(poly)
    assert devs[1] == Fraction(-696, 48) - 1 == Fraction(-31, 2)


def test_renormalized_large_weight_closed_form():
    k = 12000
    spec = miller_form_spec(k, decompose_weight(k).ell - 1)
    devs = renormalized_coeffs(faber_polynomial(spec))
    assert abs(devs[1]) == Fraction(744, 2 * k) == Fraction(31, 1000)


def test_renormalized_coeffs_equal_the_fraction_formula():
    # one Fraction per coefficient from ints, against the Fraction power,
    # division and subtraction it replaced: same values, all Fractions
    rng = random.Random(1009)
    for trial in range(60):
        k = rng.choice([12, 24, 36, 240, 2400, 24000, 240000]) + rng.choice(ALLOWED_K_PRIME)
        ell = decompose_weight(k).ell
        d = rng.randint(0, min(ell, 30))
        if trial % 2:
            window = [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(d)]
            spec = custom_form_spec(k, ell - d, window)
        else:
            spec = miller_form_spec(k, ell - d)
        poly = faber_polynomial(spec)
        scale = Fraction(2 * k)
        expected = [x * factorial(s) / scale**s - 1 for s, x in enumerate(poly.coeffs)]
        got = renormalized_coeffs(poly)
        assert got == expected, (k, spec.m)
        assert all(type(v) is Fraction for v in got), (k, spec.m)


# --- invariants -----------------------------------------------------------------------


def test_delta_invariance():
    # multiplying f by Delta leaves F unchanged; the weight-(k+12) form
    # Delta * f has the window of f convolved with Delta's unit part
    rng = random.Random(7)
    for _ in range(20):
        k = 12 * rng.randint(1, 8)
        ell = decompose_weight(k).ell
        m = rng.randint(0, ell)
        d = ell - m
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)]
        spec = custom_form_spec(k, m, a)
        window = TruncatedSeries(0, spec.unit_coeffs, d + 1) * eta_unit(d + 1)
        shifted = ModularFormSpec(
            weight=decompose_weight(k + 12),
            m=m + 1,
            unit_coeffs=tuple(window.coeff(i) for i in range(d + 1)),
        )
        assert faber_polynomial(spec).coeffs == faber_polynomial(shifted).coeffs


def reconstruct(spec, poly, order):
    """Delta^ell * E_{k'} * F(j) as an exact series, valid modulo q^order."""
    js = j_series(order + poly.degree + 1)
    fj = evaluate_series(poly, js)
    if spec.ell:
        delta_pow = (delta_series(order + spec.ell + 1) ** spec.ell).truncate(order + spec.ell)
    else:
        delta_pow = TruncatedSeries.one(order)
    return delta_pow * eisenstein_series(spec.k_prime, order) * fj


def test_reconstruction_identity_through_weight_120():
    for k in range(0, 121, 2):
        if k == 2:
            continue
        ell = decompose_weight(k).ell
        for m in range(ell + 1):
            spec = miller_form_spec(k, m)
            rec = reconstruct(spec, faber_polynomial(spec), ell + 1)
            for n in range(ell + 1):
                expected = spec.unit_coeffs[n - m] if n >= m else 0
                assert rec.coeff(n) == expected, (k, m, n)


def test_reconstruction_against_full_miller_expansion():
    # strong oracle: the identity holds to every order for the true basis element
    for k, m in ((24, 0), (36, 1), (48, 2), (26, 1)):
        spec = miller_form_spec(k, m)
        ell = spec.ell
        order = ell + 6
        basis = miller_basis_series(k, order)
        rec = reconstruct(spec, faber_polynomial(spec), order - 1)
        for n in range(order - 1):
            assert rec.coeff(n) == basis[m].coeff(n), (k, m, n)


def test_faber_from_custom_window_matches_basis_combination():
    # f = f_{48,2} + 5 f_{48,3} + ... has window (1, 5, 0); the Faber polynomial
    # must reconstruct that window
    spec = custom_form_spec(48, 2, [5, 0])
    rec = reconstruct(spec, faber_polynomial(spec), spec.ell + 1)
    assert [rec.coeff(n) for n in range(2, 5)] == [1, 5, 0]


def test_reconstruction_for_random_custom_windows():
    rng = random.Random(2718)
    for _ in range(25):
        k = rng.choice([12, 24, 26, 36, 38, 48, 50, 60])
        ell = decompose_weight(k).ell
        m = rng.randint(0, ell)
        a = [Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(ell - m)]
        spec = custom_form_spec(k, m, a)
        rec = reconstruct(spec, faber_polynomial(spec), ell + 1)
        for n in range(ell + 1):
            expected = spec.unit_coeffs[n - m] if n >= m else 0
            assert rec.coeff(n) == expected, (k, m, n)


def two_step_principal_part(spec):
    """The principal part by the earlier route: U^ell E_{k'} first, then one inverse."""
    order = spec.degree + 1
    unit = eta_unit(order) ** spec.ell * eisenstein_series(spec.k_prime, order)
    a = TruncatedSeries(0, spec.unit_coeffs, order) * unit.truncate(order).inverse()
    return tuple(a.coeff(i) for i in range(order))


def test_principal_part_matches_two_step_route():
    rng = random.Random(1997)
    ells = sorted({0, 1, 2, 3, 299, 300} | {rng.randint(4, 298) for _ in range(10)})
    for ell in ells:
        for k_prime in (0, 4, 6, 8, 10, 14):
            k = 12 * ell + k_prime
            if k == 0:
                continue
            m = max(0, ell - rng.randint(0, 12))
            d = ell - m
            window = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)]
            for spec in (miller_form_spec(k, m), custom_form_spec(k, m, window)):
                assert principal_part(spec) == two_step_principal_part(spec), (k, m)
    # the benchmark's degrees, at a small and a large ell
    for d in (24, 39):
        for ell in (d, 2 * 10**6):
            for k_prime in (0, 4, 6, 8, 10, 14):
                k = 12 * ell + k_prime
                window = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)]
                for spec in (miller_form_spec(k, ell - d), custom_form_spec(k, ell - d, window)):
                    got, want = principal_part(spec), two_step_principal_part(spec)
                    assert got == want, (k, d)
                    assert [type(c) for c in got] == [type(c) for c in want], (k, d)


def _principal_part_specs(rng):
    """Seeded specs for every k', D <= 40 and ell up to 2e6 (k up to 2.4e7):
    Miller windows, int and Fraction custom windows, and a window
    (y0, 0, ..., 0) with a Fraction y0, whose cleared form is not 1."""
    for k_prime in ALLOWED_K_PRIME:
        for d in (0, 1, 2, 5, 12, 24, 31, 40):
            for ell in sorted({d, d + 1, rng.randint(d + 1, 10**4), 2 * 10**6}):
                k = 12 * ell + k_prime
                m = ell - d
                yield miller_form_spec(k, m)
                yield custom_form_spec(k, m, [rng.randint(-99, 99) for _ in range(d)])
                yield custom_form_spec(
                    k, m, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)]
                )
                yield ModularFormSpec(
                    weight=decompose_weight(k), m=m, unit_coeffs=(Fraction(2, 3),) + (0,) * d
                )


def test_principal_part_matches_series_oracle():
    # the integer-list path against the TruncatedSeries product
    rng = random.Random(4096)
    count = 0
    for spec in _principal_part_specs(rng):
        got, want = principal_part(spec), series_principal_part(spec)
        assert got == want, (spec.k, spec.m)
        assert [type(c) for c in got] == [type(c) for c in want], (spec.k, spec.m)
        count += 1
    assert count > 500


# --- the integer solve against the rational column solve, at benchmark sizes ----

SOLVE_DEGREES = (24, 31, 39)


def assert_same_poly(got, want):
    assert got == want
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


@pytest.mark.parametrize("d", SOLVE_DEGREES)
def test_solve_matches_column_solve_on_custom_windows(d):
    rng = random.Random(d)
    # numerators +-1 over every denominator 1..9 (lcm 2520), then random p/q
    every_denominator = [Fraction((-1) ** i, 1 + i % 9) for i in range(d)]
    random_window = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)]
    for k_prime, window in ((6, every_denominator), (14, random_window)):
        ell = rng.randint(10**4, 2 * 10**6)
        spec = custom_form_spec(12 * ell + k_prime, ell - d, window)
        assert any(type(c) is Fraction for c in principal_part(spec))
        got = faber_polynomial(spec)
        assert_same_poly(got, column_solve_faber_polynomial(spec))
        assert any(type(c) is Fraction for c in got.coeffs)


@pytest.mark.parametrize("d", SOLVE_DEGREES)
def test_solve_returns_ints_where_the_cleared_denominators_cancel(d):
    # x_s depends only on y(0..s): an integral head of the window gives
    # integral x_s, although the solve scales every x by the same lcm
    head = d // 2
    window = [(-1) ** i * (i + 3) for i in range(head)]
    window += [Fraction(-5, 4), Fraction(7, 9)] + [Fraction(i, 6) for i in range(d - head - 2)]
    ell = 123_457
    spec = custom_form_spec(12 * ell + 8, ell - d, window)
    got = faber_polynomial(spec)
    assert_same_poly(got, column_solve_faber_polynomial(spec))
    assert all(type(c) is int for c in got.coeffs[: head + 1])
    assert type(got.coeffs[head + 1]) is Fraction


@pytest.mark.parametrize("d", SOLVE_DEGREES)
def test_solve_matches_column_solve_on_miller_windows(d):
    for k_prime in (0, 4, 6, 8, 10, 14):
        ell = 10**4 + 97 * k_prime
        spec = miller_form_spec(12 * ell + k_prime, ell - d)
        got = faber_polynomial(spec)
        assert_same_poly(got, column_solve_faber_polynomial(spec))
        assert all(type(c) is int for c in got.coeffs)


def test_principal_part_convolution_equivalence():
    # the unit window y and the y-free reciprocal of U^ell E_{k'} convolve
    # to the principal part: A(i) = sum_n y(n) * inv(U^ell E)(i - n)
    rng = random.Random(321)
    for _ in range(10):
        k = rng.choice([24, 36, 38, 48])
        ell = decompose_weight(k).ell
        m = rng.randint(0, ell)
        d = ell - m
        a = [Fraction(rng.randint(-9, 9)) for _ in range(d)]
        spec = custom_form_spec(k, m, a)
        got = principal_part(spec)
        unit = eta_unit(d + 1) ** ell * eisenstein_series(spec.k_prime, d + 1)
        bare = unit.truncate(d + 1).inverse()
        for i in range(d + 1):
            conv = sum(spec.unit_coeffs[n] * bare.coeff(i - n) for n in range(i + 1))
            assert got[i] == conv, (k, m, i)


def test_asymptotic_deviations_monotone_bounded():
    # k |x_s s!/(2k)^s - 1| over doubling weights: monotone toward a finite
    # limit, hence bounded; exact rational arithmetic
    for d in (1, 2, 3, 4):
        sequences = {s: [] for s in range(1, d + 1)}
        for i in range(7):
            k = 1200 * 2**i
            spec = miller_form_spec(k, decompose_weight(k).ell - d)
            devs = renormalized_coeffs(faber_polynomial(spec))
            for s in range(1, d + 1):
                sequences[s].append(k * abs(devs[s]))
        for s, seq in sequences.items():
            diffs = [b - a for a, b in zip(seq, seq[1:])]
            assert all(x >= 0 for x in diffs) or all(x <= 0 for x in diffs), (d, s)
            assert max(seq) <= 4000  # finite, order-of-magnitude ceiling


def test_faber_json_round_trip():
    poly = faber_polynomial(miller_form_spec(24, 0))
    d = _faber_json(poly)
    assert d == {"k": 24, "m": 0, "D": 2, "coeffs_desc": ["1", "-1440", "125280"]}
