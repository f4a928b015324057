"""Weight decomposition, form windows, and the Miller basis oracle."""

from fractions import Fraction

import pytest

from faberzeros.errors import DomainError
from faberzeros.modforms import (
    ALLOWED_K_PRIME,
    ModularFormSpec,
    custom_form_spec,
    decompose_weight,
    miller_basis_series,
    miller_form_spec,
)
from faberzeros.qseries import delta_series, eisenstein_series
from oracles import series_difference, series_miller_basis, series_scaled


def test_decompose_examples():
    assert decompose_weight(0) == decompose_weight(0).__class__(k=0, ell=0, k_prime=0)
    d = decompose_weight(26)
    assert (d.ell, d.k_prime) == (1, 14)
    d = decompose_weight(36)
    assert (d.ell, d.k_prime) == (3, 0)


def test_decompose_rejects_odd_and_two():
    for bad in (13, 2, -4):
        with pytest.raises(DomainError):
            decompose_weight(bad)


def test_decompose_round_trip_up_to_2000():
    seen = set()
    for k in range(0, 2001, 2):
        if k == 2:
            continue
        d = decompose_weight(k)
        assert d.k_prime in ALLOWED_K_PRIME
        assert 12 * d.ell + d.k_prime == k
        seen.add((d.ell, d.k_prime))
    assert len(seen) == 1000  # distinct pairs: the map is a bijection


def test_miller_form_spec_examples():
    assert miller_form_spec(24, 0).unit_coeffs == (1, 0, 0)
    assert miller_form_spec(36, 1).unit_coeffs == (1, 0, 0)
    spec = miller_form_spec(12, 1)
    assert spec.unit_coeffs == (1,) and spec.degree == 0  # f = Delta


def test_miller_form_spec_range():
    # m = -1, m = ell + 1, and an m refused before a window of ell - m zeros is built
    for m in (-1, 3, -(10**18)):
        with pytest.raises(DomainError, match="out of range"):
            miller_form_spec(24, m)


@pytest.mark.parametrize(
    ("m", "a"),
    [
        (-1, [0, 0, 0]),  # m = -1
        (3, []),  # m = ell + 1
        (1, []),  # window too short for D = 1
        (1, [1, 2]),  # window too long for D = 1
        (1, [0.5]),  # float entry
        (0, [1, 2.0]),  # integral float entry
    ],
    ids=["m=-1", "m=ell+1", "short", "long", "float", "integral-float"],
)
def test_custom_form_spec_refuses_bad_input(m, a):
    with pytest.raises(DomainError):
        custom_form_spec(24, m, a)


def test_custom_form_spec_examples():
    with pytest.raises(DomainError):
        custom_form_spec(24, 1, [])  # D = 1 needs one entry
    assert custom_form_spec(24, 1, [5]).unit_coeffs == (1, 5)
    assert custom_form_spec(48, 2, [1, 1]).unit_coeffs == (1, 1, 1)
    assert custom_form_spec(36, 0, [0, 0, 0]) == miller_form_spec(36, 0)


def test_spec_rejects_zero_leading_coefficient():
    with pytest.raises(DomainError):
        ModularFormSpec(weight=decompose_weight(24), m=0, unit_coeffs=(0, 1, 1))


def test_basis_weight_12():
    basis = miller_basis_series(12, 8)
    e4_cubed = eisenstein_series(4, 8) ** 3
    delta = delta_series(8)
    # coefficient of q in E_4^3 is 3*240 = 720, so the gap form is E_4^3 - 720 Delta
    assert e4_cubed.coeff(1) == 720
    assert basis[0] == series_difference(e4_cubed, series_scaled(720, delta))
    assert basis[0].coeff(1) == 0
    assert basis[0].coeff(2) == 196560
    assert basis[1] == delta


def test_basis_weight_4_is_e4():
    basis = miller_basis_series(4, 6)
    assert basis == [eisenstein_series(4, 6)]


def test_basis_weight_24_second_element_gap():
    basis = miller_basis_series(24, 6)
    assert basis[1].coeff(1) == 1 and basis[1].coeff(2) == 0


def test_basis_echelon_identity_for_small_weights():
    for k in [0, 4, 6, 8, 10, 14, 12, 24, 36, 48, 60, 96, 120]:
        ell = decompose_weight(k).ell
        basis = miller_basis_series(k, ell + 1)
        assert len(basis) == ell + 1
        for i, series in enumerate(basis):
            for j in range(ell + 1):
                assert series.coeff(j) == (1 if i == j else 0), (k, i, j)


@pytest.mark.parametrize("extra", [1, 5])
def test_basis_matches_series_elimination_oracle(extra):
    # the list back-substitution against the TruncatedSeries one,
    # at orders ell + 1 and ell + 5; element i is q^i + O(q^(ell+1))
    for k in range(0, 301, 2):
        if k == 2:
            continue
        ell = decompose_weight(k).ell
        order = ell + extra
        basis = miller_basis_series(k, order)
        assert basis == series_miller_basis(k, order), k
        for i, series in enumerate(basis):
            assert series.order == order and series.valuation == i, (k, i)
            assert all(type(c) is int for c in series.coeffs), (k, i)
            assert [series.coeff(n) for n in range(i, ell + 1)] == [1] + [0] * (ell - i), (k, i)


def test_basis_requires_enough_order():
    with pytest.raises(DomainError):
        miller_basis_series(24, 2)


def test_spec_window_from_series_matches_shortcut():
    # reading the leading window off the genuine expansion reproduces the
    # shortcut spec exactly
    for k in (12, 24, 36, 48):
        ell = decompose_weight(k).ell
        basis = miller_basis_series(k, ell + 2)
        for m in range(ell + 1):
            window = [basis[m].coeff(m + i) for i in range(ell - m + 1)]
            spec = ModularFormSpec(weight=decompose_weight(k), m=m, unit_coeffs=tuple(window))
            assert spec == miller_form_spec(k, m)
