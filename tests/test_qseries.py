"""Exact series arithmetic: worked examples, independent oracles, ring axioms."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faberzeros.errors import DomainError
from faberzeros.qseries import (
    TruncatedSeries,
    delta_series,
    eisenstein_series,
    eta_unit,
    gamma_k,
    j_series,
    series_inv,
    series_mul,
    sigma,
)

S = TruncatedSeries


def series_equal_modulo(a, b):
    n = min(a.order, b.order)
    assert a.truncate(n) == b.truncate(n), f"{a} != {b} mod q^{n}"


# --- independent oracles -----------------------------------------------------


def poly_mul(a, b, order):
    """Plain list convolution over Fractions, truncated; no TruncatedSeries."""
    out = [Fraction(0)] * order
    for i, x in enumerate(a[:order]):
        for j, y in enumerate(b):
            if i + j >= order:
                break
            out[i + j] += x * y
    return out


def poly_inv_longdiv(a, order):
    """Reciprocal of a unit power series by the classical recurrence."""
    inv0 = Fraction(1) / a[0]
    out = [inv0]
    for n in range(1, order):
        acc = Fraction(0)
        for i in range(1, min(n, len(a) - 1) + 1):
            acc += a[i] * out[n - i]
        out.append(-inv0 * acc)
    return out


def eta24_bruteforce(order):
    """prod_{n< order} (1 - q^n)^24 by repeated naive multiplication."""
    out = [Fraction(1)] + [Fraction(0)] * (order - 1)
    for n in range(1, order):
        factor = [Fraction(0)] * order
        factor[0] = Fraction(1)
        if n < order:
            factor[n] = Fraction(-1)
        for _ in range(24):
            out = poly_mul(out, factor, order)
    return out


def bernoulli_numbers(n_max):
    """B_0..B_n by the defining recurrence sum_j C(m+1,j) B_j = 0."""
    bs = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * bs[j]
        bs.append(-acc / (m + 1))
    return bs


# --- constructors and invariants ---------------------------------------------


def test_normal_form_strips_leading_zeros():
    s = S(0, [0, 0, 3, 1], 4)
    assert s.valuation == 2 and s.coeffs == (3, 1) and s.order == 4


def test_zero_series_canonical():
    s = S(1, [0, 0], 3)
    assert s.is_zero() and s.valuation == 3 and s.coeffs == ()


def test_coeff_below_valuation_is_zero_and_beyond_order_raises():
    s = S(2, [5], 3)
    assert s.coeff(0) == 0 and s.coeff(2) == 5
    with pytest.raises(DomainError):
        s.coeff(3)


def test_length_mismatch_rejected():
    with pytest.raises(DomainError):
        S(0, [1, 2], 5)


# --- series_mul examples -------------------------------------------------------


def test_mul_difference_of_squares():
    a = S(0, [1, 1, 0], 3)
    b = S(0, [1, -1, 0], 3)
    assert series_mul(a, b) == S(0, [1, 0, -1], 3)


def test_mul_delta_times_inverse_is_one():
    d = delta_series(7)
    series_equal_modulo(series_mul(d, series_inv(d)), S.one(5))


def test_mul_matches_eta_product_paper_window():
    # q * prod_{n<=3}(1-q^n)^24 mod q^4 -> q - 24 q^2 + 252 q^3
    prod = S.one(3)
    for n in (1, 2, 3):
        prod = prod * S.from_terms({0: 1, n: -1}, 3) ** 24
        prod = prod.truncate(3)
    assert prod.shift(1) == S(1, [1, -24, 252], 4)


def test_mul_validity_bookkeeping():
    a = S(1, [1, 2], 3)  # known mod q^3
    b = S(0, [1, 1, 1, 1], 4)
    assert (a * b).order == min(1 + 4, 0 + 3)


# --- series_inv examples --------------------------------------------------------


def test_inv_geometric():
    a = S(0, [1, -1, 0, 0], 4)
    assert series_inv(a, 4) == S(0, [1, 1, 1, 1], 4)


def test_inv_delta_against_longdiv_oracle():
    d = delta_series(4)
    # oracle: invert the unit part by long division, shift back by q^-1
    unit = [d.coeff(n) for n in range(1, 4)]
    expected = poly_inv_longdiv(unit, 3)
    assert expected[:2] == [Fraction(1), Fraction(24)]
    inv = series_inv(d)
    assert inv.valuation == -1 and inv.order == 2
    assert [inv.coeff(n) for n in (-1, 0, 1)] == expected
    assert inv.coeff(1) == 324


def test_inv_e4_against_multiply_out():
    # 1/(1+240q+2160q^2) = 1 - 240q + (240^2 - 2160) q^2 mod q^3
    e4 = eisenstein_series(4, 3)
    assert series_inv(e4, 3) == S(0, [1, -240, 240**2 - 2160], 3)
    assert 240**2 - 2160 == 55440


def test_inv_of_zero_raises():
    with pytest.raises(DomainError, match="non-invertible"):
        series_inv(S.zero(3))


def test_inv_cannot_extend_precision():
    d = delta_series(4)  # valuation 1: at most order 2 provable for the inverse
    with pytest.raises(DomainError):
        series_inv(d, 3)


def test_inv_newton_path_matches_longdiv_oracle():
    # a long inverse (Miller's recurrence at alpha = -1) against long division
    n = 40
    u = eta_unit(n)
    got = series_inv(u, n)
    expected = poly_inv_longdiv(list(u.coeffs), n)
    assert list(got.coeffs) == expected


# --- powers (Miller's recurrence) -----------------------------------------------


def random_unit(rng, n, rational):
    """A unit (valuation 0) known to n terms, integral or with small denominators."""
    def draw():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rational else rng.randint(-9, 9)

    lead = rng.choice([1, -1, 2, -3, Fraction(2, 3)] if rational else [1, -1, 2, -3])
    return S(0, [lead] + [draw() for _ in range(n - 1)], n)


@pytest.mark.parametrize("rational", [False, True])
def test_negative_power_round_trip(rational):
    rng = random.Random(1729 + rational)
    for _ in range(40):
        n_terms = rng.randint(1, 12)
        u = random_unit(rng, n_terms, rational)
        e = rng.randint(1, 7)
        assert u**-e * u**e == S.one(n_terms), (u, e)
        assert u**-1 == u.inverse()


def test_integral_unit_powers_stay_on_ints():
    u = eta_unit(30)
    for e in (-5000, -1, 0, 3, 700):
        assert all(type(c) is int for c in (u**e).coeffs)


def test_negative_power_of_non_unit_raises():
    for s in (S(1, [1, 2], 3), S(-1, [1, 5, 7], 2), S.zero(4)):
        with pytest.raises(DomainError):
            s**-1
    with pytest.raises(DomainError):
        S.zero(4) ** 0


def eta24_factorwise(order):
    """prod_{n<order} (1 - q^n)^24 as integers, one factor (1 - q^n) at a time."""
    out = [1] + [0] * (order - 1)
    for n in range(1, order):
        for _ in range(24):
            for i in range(order - 1, n - 1, -1):
                out[i] -= out[i - n]
    return out


def test_eta_unit_matches_factorwise_product():
    oracle = eta24_factorwise(60)
    for n in range(1, 61):
        assert eta_unit(n) == S(0, oracle[:n], n), n


# --- sigma / gamma -------------------------------------------------------------


def test_sigma_examples():
    assert sigma(1, 3) == 1
    assert sigma(2, 3) == 1 + 8 == 9
    assert sigma(2, 5) == 1 + 32 == 33


def test_sigma_domain():
    with pytest.raises(DomainError):
        sigma(0, 3)


def test_gamma_table_values():
    assert gamma_k(4) == -240
    assert gamma_k(6) == 504
    assert gamma_k(8) == -480
    assert gamma_k(10) == 264
    assert gamma_k(12) == Fraction(-65520, 691)
    assert gamma_k(14) == 24
    assert gamma_k(0) == 0


def test_gamma_matches_bernoulli_recurrence():
    bs = bernoulli_numbers(14)
    for k in (4, 6, 8, 10, 12, 14):
        assert gamma_k(k) == Fraction(2 * k) / bs[k]


def test_gamma_domain():
    with pytest.raises(DomainError):
        gamma_k(16)
    with pytest.raises(DomainError):
        gamma_k(3)


# --- eisenstein ----------------------------------------------------------------


def test_eisenstein_examples():
    assert eisenstein_series(4, 3) == S(0, [1, 240, 2160], 3)
    assert eisenstein_series(6, 2) == S(0, [1, -504], 2)
    assert eisenstein_series(6, 3) == S(0, [1, -504, -504 * 33], 3)
    assert -504 * 33 == -16632


def test_eisenstein_integrality_for_kprime_weights():
    for k in (4, 6, 8, 10, 14):
        e = eisenstein_series(k, 12)
        assert all(c.denominator == 1 for c in e.coeffs)


def test_eisenstein_zero_weight_is_one():
    assert eisenstein_series(0, 5) == S.one(5)


# --- delta ---------------------------------------------------------------------


def test_delta_examples():
    assert delta_series(4) == S(1, [1, -24, 252], 4)
    assert delta_series(2) == S(1, [1], 2)


def test_delta_q4_coefficient_bruteforce():
    oracle = eta24_bruteforce(4)
    assert oracle[3] == -1472
    assert delta_series(5).coeff(4) == oracle[3]


def test_delta_two_evaluation_paths():
    # path B: prod (1-q^n) by naive multiplication, then ^24 by repeated squaring
    n = 16
    p = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for m in range(1, n):
        factor = [Fraction(0)] * n
        factor[0], factor[m] = Fraction(1), Fraction(-1)
        p = poly_mul(p, factor, n)
    p2 = poly_mul(p, p, n)
    p4 = poly_mul(p2, p2, n)
    p8 = poly_mul(p4, p4, n)
    p24 = poly_mul(poly_mul(p8, p8, n), p8, n)
    d = delta_series(n + 1)
    assert [d.coeff(i + 1) for i in range(n)] == p24


def test_delta_requires_order_two():
    with pytest.raises(DomainError):
        delta_series(1)


# --- j -------------------------------------------------------------------------


def test_j_leading_coefficients():
    j = j_series(3)
    assert [j.coeff(n) for n in (-1, 0, 1, 2)] == [1, 744, 196884, 21493760]


def test_j_times_delta_is_e4_cubed():
    n = 10
    j = j_series(n)
    lhs = j * delta_series(n + 2)
    rhs = eisenstein_series(4, n + 1) ** 3
    series_equal_modulo(lhs, rhs)


def test_j_coefficients_integral_and_nonnegative():
    j = j_series(20)
    for n in range(-1, 20):
        c = j.coeff(n)
        assert c.denominator == 1
        if n >= 1:
            assert c >= 0


# --- ring axioms (property-based) ----------------------------------------------

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=6)


def small_series():
    return st.builds(
        lambda v, cs: S(v, cs, v + len(cs)),
        st.integers(min_value=-3, max_value=3),
        st.lists(rationals, min_size=1, max_size=6),
    )


@settings(max_examples=150, deadline=None)
@given(small_series(), small_series(), small_series())
def test_multiplication_associative(a, b, c):
    series_equal_modulo((a * b) * c, a * (b * c))


@settings(max_examples=150, deadline=None)
@given(small_series(), small_series(), small_series())
def test_left_distributive(a, b, c):
    series_equal_modulo(a * (b + c), a * b + a * c)


@settings(max_examples=150, deadline=None)
@given(small_series())
def test_inverse_round_trip(a):
    if a.is_zero() or a.order - a.valuation <= 0:
        return
    inv = a.inverse()
    prod = a * inv
    one = S.one(max(prod.order, 1))
    series_equal_modulo(prod, one)


@settings(max_examples=100, deadline=None)
@given(small_series(), st.integers(min_value=1, max_value=5))
def test_power_matches_repeated_multiplication(a, n):
    by_mul = a
    for _ in range(n - 1):
        by_mul = by_mul * a
    series_equal_modulo(a**n, by_mul)


# --- serialization --------------------------------------------------------------


def test_json_round_trip():
    e12 = eisenstein_series(12, 4)
    d = e12.to_json_dict()
    assert d["coeffs"][0] == "1"
    assert d["coeffs"][1] == str(Fraction(65520, 691))
    assert S.from_json_dict(d) == e12


def test_plus_constant_keeps_validity():
    j = j_series(4)
    assert j.plus_constant(-744).order == j.order
    assert j.plus_constant(-744).coeff(0) == 0
