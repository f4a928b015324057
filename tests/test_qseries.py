"""Exact series arithmetic: worked examples, independent oracles, ring axioms."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faberzeros.cli import _series_json
from faberzeros.errors import DomainError
from faberzeros import qseries
from faberzeros.faber import _eisenstein_inverse, j_power_table
from faberzeros.qseries import (
    TruncatedSeries,
    _convolve,
    _phi_coeffs,
    _power,
    delta_series,
    eisenstein_series,
    eta_unit,
    euler_phi,
    gamma_k,
    j_series,
    sigma,
)
from oracles import (
    dense_miller_power,
    plus_constant,
    series_difference,
    series_scaled,
    series_sum,
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


def test_order_is_required():
    with pytest.raises(TypeError):
        S(0, [1])


@pytest.mark.parametrize("c", ["-65520/691", 0.5, None], ids=["str", "float", "none"])
def test_inexact_coefficients_rejected(c):
    with pytest.raises(DomainError, match="not an exact rational"):
        S(0, [1, c], 2)


# --- value-type contract ------------------------------------------------------


@pytest.mark.parametrize(
    "memo", [lambda: j_series(5), lambda: _eisenstein_inverse(4, 9)], ids=["j_series", "eisenstein_inverse"]
)
def test_memoized_series_are_immutable(memo):
    # each memo hands one object to every caller, so none of them may change it
    s = memo()
    for field in ("valuation", "coeffs", "order"):
        with pytest.raises(AttributeError):
            setattr(s, field, 0)
    # no __dict__ to take a new name, and the assignment is refused like a field's
    assert not hasattr(s, "__dict__")
    with pytest.raises(AttributeError):
        s.extra = 0
    assert s == memo() and s is memo()


def test_repr_names_the_fields_in_order():
    assert repr(S(-1, [0, 1, Fraction(2, 3), 5], 3)) == (
        "TruncatedSeries(valuation=0, coeffs=(1, Fraction(2, 3), 5), order=3)"
    )
    assert repr(S.zero(4)) == "TruncatedSeries(valuation=4, coeffs=(), order=4)"


def test_equal_series_hash_equal():
    a, b = S(0, [Fraction(1), 2], 2), S(-1, [0, 1, 2], 2)
    assert a == b and hash(a) == hash(b)
    assert a != S(0, [1, 2, 0], 3)  # the same terms, known to a higher order
    assert len({a, b, S.zero(2)}) == 2


@pytest.mark.parametrize("c", [3, Fraction(1, 2)], ids=["int", "Fraction"])
def test_scalar_product_is_refused(c):
    s = S(0, [1, 2], 2)
    with pytest.raises(TypeError):
        s * c
    with pytest.raises(TypeError):
        c * s


def test_series_has_products_powers_and_inverses_only():
    s = S(0, [1, 2], 2)
    for op in (lambda: s + s, lambda: s - s, lambda: -s):
        with pytest.raises(TypeError):
            op()
    assert not hasattr(S, "scale") and not hasattr(S, "from_terms")
    # perfbench's tracer wraps these by reading them from the class __dict__
    assert {"__mul__", "__rmul__", "__pow__", "inverse"} <= S.__dict__.keys()


# --- products -----------------------------------------------------------------


def test_mul_difference_of_squares():
    a = S(0, [1, 1, 0], 3)
    b = S(0, [1, -1, 0], 3)
    assert a * b == S(0, [1, 0, -1], 3)


def test_mul_delta_times_inverse_is_one():
    d = delta_series(7)
    series_equal_modulo(d * d.inverse(), S.one(5))


def test_mul_matches_eta_product_paper_window():
    # q * prod_{n<=3}(1-q^n)^24 mod q^4 -> q - 24 q^2 + 252 q^3
    prod = S.one(3)
    for n in (1, 2, 3):
        factor = [1, 0, 0]  # 1 - q^n modulo q^3
        if n < 3:
            factor[n] = -1
        prod = prod * S(0, factor, 3) ** 24
        prod = prod.truncate(3)
    assert prod.shift(1) == S(1, [1, -24, 252], 4)


def test_mul_validity_bookkeeping():
    a = S(1, [1, 2], 3)  # known mod q^3
    b = S(0, [1, 1, 1, 1], 4)
    assert (a * b).order == min(1 + 4, 0 + 3)


# --- inverses -----------------------------------------------------------------


def test_inv_geometric():
    a = S(0, [1, -1, 0, 0], 4)
    assert a.inverse() == S(0, [1, 1, 1, 1], 4)
    assert a.inverse().truncate(2) == S(0, [1, 1], 2)


def test_inv_delta_against_longdiv_oracle():
    d = delta_series(4)
    # oracle: invert the unit part by long division, shift back by q^-1
    unit = [d.coeff(n) for n in range(1, 4)]
    expected = poly_inv_longdiv(unit, 3)
    assert expected[:2] == [Fraction(1), Fraction(24)]
    inv = d.inverse()
    assert inv.valuation == -1 and inv.order == 2
    assert [inv.coeff(n) for n in (-1, 0, 1)] == expected
    assert inv.coeff(1) == 324


def test_inv_e4_against_multiply_out():
    # 1/(1+240q+2160q^2) = 1 - 240q + (240^2 - 2160) q^2 mod q^3
    e4 = eisenstein_series(4, 3)
    assert e4.inverse() == S(0, [1, -240, 240**2 - 2160], 3)
    assert 240**2 - 2160 == 55440


def test_inv_of_zero_raises():
    with pytest.raises(DomainError, match="non-invertible"):
        S.zero(3).inverse()


def test_inv_newton_path_matches_longdiv_oracle():
    # a long inverse (Miller's recurrence at alpha = -1) against long division
    n = 40
    u = eta_unit(n)
    got = u.inverse()
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


def test_integral_units_build_no_fraction(monkeypatch):
    # inputs first: j_series and eisenstein_series build Fractions of their own
    j_series(40)
    phi = _phi_coeffs(40)
    u = eta_unit(30)

    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")

    monkeypatch.setattr(qseries, "Fraction", NoFraction)
    assert j_power_table.__wrapped__(40)[40][39] == 744 * 40
    assert all(type(c) is int for c in _power(phi, -24 * 2 * 10**6, 40))
    assert all(type(c) is int for c in (u**-7).coeffs)


def naive_convolve(a, b, n):
    """Coefficients 0..n-1 of a * b by the double loop over all index pairs."""
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] += x * y
    return out


@pytest.mark.parametrize("rational", [False, True])
def test_convolve_matches_double_loop(rational):
    # past k = len(b) the window into b starts at the front of reversed b;
    # an off-by-one there drops or repeats a term without raising
    rng = random.Random(4711 + rational)

    def draw():
        if rational and rng.random() < 0.5:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return rng.randint(-9, 9)

    shapes = [(0, 0), (0, 4), (5, 0), (1, 1), (1, 6), (6, 1), (3, 7), (7, 3), (6, 6)]
    for len_a, len_b in shapes:
        a = tuple(draw() for _ in range(len_a))
        b = [draw() for _ in range(len_b)]
        for n in range(len_a + len_b + 3):
            got = _convolve(a, b, n)
            want = naive_convolve(a, b, n)
            assert got == want, (a, b, n)
            assert [type(c) for c in got] == [type(c) for c in want], (a, b, n)


@pytest.mark.parametrize("ell", [1, 7, 2 * 10**6])
def test_sparse_phi_power_matches_dense_recurrence(ell):
    phi = euler_phi(40)
    for e in (-24 * ell, 24):
        want = dense_miller_power(phi.coeffs, e, 40)
        got = phi**e
        assert got.coeffs == tuple(want), e
        assert all(type(c) is int for c in got.coeffs), e
        for n in (1, 2, 6, 23, 41):
            assert _power(phi.coeffs, e, n) == dense_miller_power(phi.coeffs, e, n), (e, n)


def test_powers_of_a_non_unit_leading_coefficient_are_exact_fractions():
    u = S(0, [2, 1, 3] + [0] * 13, 16)
    for e in (-1, -3):
        got = _power(u.coeffs, e, 16)
        assert got == dense_miller_power(u.coeffs, e, 16), e
        assert all(type(c) is Fraction for c in got), e
        assert u**e * u**-e == S.one(16), e
    assert u * u.inverse() == S.one(16)
    assert u.inverse().coeffs[:3] == (Fraction(1, 2), Fraction(-1, 4), Fraction(-5, 8))


def test_powers_of_a_minus_one_leading_unit_stay_on_ints():
    u = [-1, 2, 0, -1, 5, 0, 0, 3]
    for e in (-1, -3, -24, 2, 5):
        got = _power(u, e, 20)
        assert got == dense_miller_power(u, e, 20), e
        assert all(type(c) is int for c in got), e


POWER_BASES = {
    "j-unit": list(j_series(12).coeffs),  # dense, u_0 = 1, growing ints
    "E6": list(eisenstein_series(6, 10).coeffs),  # dense, u_0 = 1, signed ints
    "dense-minus-one": [-1, 2, 3, -1, 5, 7, 1, 3],
    "dense-fractions": [1, Fraction(1, 3), Fraction(-2, 5), 4, Fraction(7, 2)],
    "dense-fraction-lead": [Fraction(1, 2), Fraction(-3, 4), 2, Fraction(5, 3), 1],
    "zero-at-3": [1, 2, 3, 0, 5],  # dense below n = 3 only
    "sparse-minus-one": [-1, 2, 0, -1, 5, 0, 0, 3],
    "sparse-fractions": [Fraction(2, 3), 0, Fraction(1, 2), 0, 0, -1],
    # the int-only path is chosen by type: an int lead other than +-1 is rescaled
    # by u_0^alpha, and a Fraction(1) lead takes the rational path to int results
    "int-lead-seven": [7, -49, 42, -24, 28, -31],
    "fraction-one-lead": [Fraction(1), 2, -3, 4, 1, -2],
}


@pytest.mark.parametrize(
    ("base", "alpha"),
    [
        (base, alpha)
        for base in sorted(POWER_BASES)
        for alpha in (-3, -1, 0, 1, 5, 2 * 10**6)
        if alpha < 10 or abs(POWER_BASES[base][0]) == 1  # else u_0^alpha has 600000 digits
    ],
)
def test_dense_and_sparse_power_paths_match_the_dense_recurrence(base, alpha):
    u = POWER_BASES[base]
    for n in (1, 2, 3, len(u) - 1, len(u), len(u) + 7):
        got, want = _power(u, alpha, n), dense_miller_power(u, alpha, n)
        assert got == want, n
        assert [type(c) for c in got] == [type(c) for c in want], n


@pytest.mark.parametrize("base", sorted(POWER_BASES))
def test_power_to_no_terms_is_empty(base):
    for alpha in (-1, 0, 3):
        assert _power(POWER_BASES[base], alpha, 0) == []


def test_negative_power_of_non_unit_raises():
    for s in (S(1, [1, 2], 3), S(-1, [1, 5, 7], 2), S.zero(4)):
        with pytest.raises(DomainError):
            s**-1
    with pytest.raises(DomainError):
        S.zero(4) ** 0


def eta_factorwise(order, power):
    """prod_{n<order} (1 - q^n)^power as integers, one factor (1 - q^n) at a time."""
    out = [1] + [0] * (order - 1)
    for n in range(1, order):
        for _ in range(power):
            for i in range(order - 1, n - 1, -1):
                out[i] -= out[i - n]
    return out


def test_eta_unit_matches_factorwise_product():
    oracle = eta_factorwise(60, 24)
    phi_oracle = eta_factorwise(60, 1)
    for n in range(1, 61):
        assert eta_unit(n) == S(0, oracle[:n], n), n
        assert euler_phi(n) == S(0, phi_oracle[:n], n), n
    with pytest.raises(DomainError):
        euler_phi(0)


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


def test_eisenstein_identities():
    n = 40
    e4, e6 = eisenstein_series(4, n), eisenstein_series(6, n)
    assert eisenstein_series(8, n) == e4 * e4
    assert eisenstein_series(10, n) == e4 * e6
    assert eisenstein_series(14, n) == e4 * e4 * e6
    assert series_difference(e4**3, e6 * e6) == series_scaled(1728, delta_series(n))


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


def test_j_series_cache_matches_the_uncached_build():
    for n in range(61):
        assert j_series(n) == j_series.__wrapped__(n)


def test_j_series_repeated_call_returns_the_same_object():
    assert j_series(17) is j_series(17)


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
    series_equal_modulo(a * series_sum(b, c), series_sum(a * b, a * c))


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
    d = _series_json(e12)
    assert d["coeffs"][0] == "1"
    assert d["coeffs"][1] == str(Fraction(65520, 691))


@pytest.mark.parametrize(
    "a, b, total, difference, three_a",
    [
        # unequal valuations and orders: aligned at q^-1, cut at q^2
        (
            S(-1, [1, 2, 3], 2),
            S(1, [Fraction(1, 2), 7, 9], 4),
            S(-1, [1, 2, Fraction(7, 2)], 2),
            S(-1, [1, 2, Fraction(5, 2)], 2),
            S(-1, [3, 6, 9], 2),
        ),
        # b starts at a's order, so only a survives the cut
        (S(0, [4], 1), S(1, [1, 1, 1], 4), S(0, [4], 1), S(0, [4], 1), S(0, [12], 1)),
        # equal modulo q^2: the difference is the zero series O(q^2)
        (S(0, [1, 2, 3], 3), S(0, [1, 2], 2), S(0, [2, 4], 2), S.zero(2), S(0, [3, 6, 9], 3)),
        # b = -a, so the sum vanishes to a's order
        (
            S(-2, [1, Fraction(-1, 3)], 0),
            S(-2, [-1, Fraction(1, 3)], 0),
            S.zero(0),
            S(-2, [2, Fraction(-2, 3)], 0),
            S(-2, [3, -1], 0),
        ),
    ],
    ids=["unequal-valuations-and-orders", "b-at-a-order", "zero-modulo-order", "opposite"],
)
def test_list_helpers_against_hand_computed_series(a, b, total, difference, three_a):
    assert series_sum(a, b) == total
    assert series_difference(a, b) == difference
    assert series_scaled(3, a) == three_a
    assert series_scaled(0, a) == S.zero(a.order)


def test_plus_constant_keeps_validity():
    j = j_series(4)
    assert plus_constant(j, -744).order == j.order
    assert plus_constant(j, -744).coeff(0) == 0
