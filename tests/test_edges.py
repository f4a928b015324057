"""Cross-module edge cases: degenerate degrees, huge weights, CLI schemas."""

import copy
import dataclasses
import importlib
import json
import math
import pickle
import pkgutil
import time
from fractions import Fraction

import pytest

import faberzeros
from faberzeros.cli import EXIT_INVALID, EXIT_OK, main
from faberzeros.errors import DomainError
from faberzeros.faber import faber_polynomial, horner, principal_part
from faberzeros.halfplane import invert_j, zero_report
from faberzeros.modforms import decompose_weight, miller_basis_series, miller_form_spec
from faberzeros.qseries import TruncatedSeries, j_series
from faberzeros.roots import find_roots, scaled_faber_roots, truncated_exp_inverse_zeros, truncated_exp_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- huge weights stay cheap -----------------------------------------------------


def test_faber_extraction_independent_of_weight():
    # the unit-window design keeps the cost flat in k; a weight near 1e6
    # with D = 4 must be essentially instant and match the s = 1 pattern
    k = 999996  # 12 * 83333
    start = time.perf_counter()
    spec = miller_form_spec(k, decompose_weight(k).ell - 4)
    poly = faber_polynomial(spec)
    elapsed = time.perf_counter() - start
    assert poly.coeffs[1] == 2 * k - 744 * 4
    assert elapsed < 5.0


def test_zero_report_at_huge_weight():
    k = 999996
    spec = miller_form_spec(k, decompose_weight(k).ell - 2)
    report = zero_report(spec)
    assert len(report.rows) == 2
    for row in report.rows:
        assert row.abs_err < 1e-5
        assert abs(row.t_gap - 744) < 1


# --- degenerate degrees -----------------------------------------------------------


def test_principal_part_degree_zero():
    assert principal_part(miller_form_spec(14, 0)) == (Fraction(1),)


def test_basis_weight_zero_is_constant_one():
    basis = miller_basis_series(0, 3)
    assert len(basis) == 1
    assert basis[0] == TruncatedSeries.one(3)


def test_exp_zeros_degree_zero_rejected(capsys):
    code, _, err = run(capsys, "exp-zeros", "--D", "0")
    assert code == EXIT_INVALID and "degree" in err


def test_predict_rejects_odd_weight(capsys):
    code, _, _ = run(capsys, "predict", "--k", "999", "--D", "2")
    assert code == EXIT_INVALID


def test_verify_rejects_unreachable_degree(capsys):
    # ell = 1 at k = 12 cannot host D = 2
    code, _, err = run(capsys, "verify", "--D", "2", "--k-min", "12", "--k-max", "12")
    assert code == EXIT_INVALID and "ell" in err


# --- CLI schemas ---------------------------------------------------------------------


def test_zeros_json_schema(capsys):
    code, out, _ = run(capsys, "zeros", "--k", "24", "--m", "0", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert len(rows) == 2
    assert list(rows[0]) == [
        "k", "m", "D", "r",
        "t_re", "t_im", "tau_re", "tau_im", "pred_re", "pred_im",
        "abs_err", "k_times_err",
    ]
    assert rows[0]["tau_re"] == "outside inversion regime"


def test_verify_json_schema_with_flags(capsys):
    code, out, _ = run(capsys, "verify", "--D", "1", "--k-min", "1200", "--k-max", "2400", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["k_grid"] == [1200, 2400]
    metrics = {row["metric"]: row for row in payload["rows"]}
    assert metrics["coeff_dev[s=1]"]["values"] == [372, 372]
    assert metrics["zero_err[r=1]"]["values"][0] == "outside inversion regime"
    assert payload["all_bounded"] is True


def test_basis_csv_rows(capsys):
    code, out, _ = run(capsys, "basis", "--k", "12", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "k,i,n,coeff"
    cells = dict()
    for line in lines[1:]:
        k, i, n, coeff = line.split(",")
        cells[(int(i), int(n))] = coeff
    assert cells[(0, 0)] == "1" and cells[(0, 2)] == "196560"
    assert cells[(1, 1)] == "1" and cells[(1, 2)] == "-24"


def test_exp_zeros_pretty(capsys):
    code, out, _ = run(capsys, "exp-zeros", "--D", "1", "--format", "pretty")
    assert code == EXIT_OK
    assert "z_1 = -1" in out


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    capsys.readouterr()


# --- misc library edges ------------------------------------------------------------------


def test_series_str_formats():
    s = TruncatedSeries(-1, [1, 744, 196884], 2)
    assert str(s) == "1*q^-1 + 744 + 196884*q + O(q^2)"
    assert str(TruncatedSeries.zero(3)) == "O(q^3)"


def test_series_shift_moves_valuation_and_order():
    s = TruncatedSeries(-1, [Fraction(1, 3), 0, 0, 5, 0], 4)
    assert s.valuation == -1 and s.coeff(2) == 5
    shifted = s.shift(2)
    assert shifted.valuation == 1 and shifted.order == 6


def test_series_truncate_cannot_extend():
    s = TruncatedSeries(0, [1, 2], 2)
    with pytest.raises(DomainError):
        s.truncate(5)


def test_invert_j_tolerance_is_respected():
    t = 1e7 + 3e6j
    for tol in (1e-6, 1e-12):
        tau = invert_j(t, tol=tol).tau
        from faberzeros.halfplane import evaluate_j

        assert abs(evaluate_j(tau, terms=40) - t) <= tol * abs(t)


def test_faber_evaluate_both_scalar_types():
    poly = faber_polynomial(miller_form_spec(24, 0))
    assert horner(poly.coeffs, Fraction(0))[0] == 125280
    assert horner(poly.coeffs, Fraction(1))[0] == 1 - 1440 + 125280
    root = 720 + (720**2 - 125280) ** 0.5
    assert abs(horner(poly.coeffs, complex(root))[0]) < 1e-6 * 125280
    # int input stays exact, far beyond the range of a float
    big = 10**400
    value = horner(poly.coeffs, big)[0]
    assert type(value) is int
    assert value == big**2 - 1440 * big + 125280


def test_horner_returns_value_and_derivative_from_one_pass():
    poly = faber_polynomial(miller_form_spec(24, 0))  # F = t^2 - 1440 t + 125280
    big = 10**400
    value, slope = horner(poly.coeffs, big)
    assert type(value) is int and type(slope) is int
    assert (value, slope) == (big**2 - 1440 * big + 125280, 2 * big - 1440)
    x = Fraction(-7, 3)
    value, slope = horner(poly.coeffs, x)
    assert type(value) is Fraction and type(slope) is Fraction
    assert (value, slope) == (x**2 - 1440 * x + 125280, 2 * x - 1440)
    coeffs = (1, Fraction(1, 2), -3, 0, 5)  # x^4 + x^3/2 - 3x^2 + 5
    x = Fraction(2, 5)
    want = (x**4 + x**3 / 2 - 3 * x**2 + 5, 4 * x**3 + Fraction(3, 2) * x**2 - 6 * x)
    assert horner(coeffs, x) == want
    z = complex(0.5, -1.25)
    value, slope = horner(coeffs, z)
    assert abs(value - (z**4 + z**3 / 2 - 3 * z**2 + 5)) <= 1e-14 * 10
    assert abs(slope - (4 * z**3 + 1.5 * z**2 - 6 * z)) <= 1e-14 * 10
    assert horner((), z) == (0, 0) and horner((7,), z) == (7, 0)


# --- library tolerance contract ----------------------------------------------------

TOLERANCE_ENTRY_POINTS = {
    "find_roots": lambda tol: find_roots(truncated_exp_poly(5), tol=tol),
    "invert_j": lambda tol: invert_j(1e6, tol=tol),
    "truncated_exp_inverse_zeros": lambda tol: truncated_exp_inverse_zeros(3, tol=tol),
    "zero_report": lambda tol: zero_report(miller_form_spec(240000, 20000 - 2), tol=tol),
    # D = 0 returns before any root is found, but the tolerance is still checked
    "zero_report[D=0]": lambda tol: zero_report(miller_form_spec(24, 2), tol=tol),
    "scaled_faber_roots[D=0]": lambda tol: scaled_faber_roots(
        faber_polynomial(miller_form_spec(24, 2)), tol=tol
    ),
}


@pytest.mark.parametrize("entry", sorted(TOLERANCE_ENTRY_POINTS))
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf], ids=["0", "-1", "nan", "inf"])
def test_library_rejects_non_positive_or_non_finite_tolerance(entry, tol):
    # an infinite or nan tolerance would accept any root set; zero or a
    # negative one can never be met
    with pytest.raises(DomainError, match="tolerance must be positive and finite"):
        TOLERANCE_ENTRY_POINTS[entry](tol)


@pytest.mark.parametrize("entry", sorted(TOLERANCE_ENTRY_POINTS))
@pytest.mark.parametrize("tol", [1e-17, 1e-300])
def test_library_rejects_tolerance_below_double_precision(entry, tol):
    # no double-precision residual can certify a tolerance under machine epsilon
    with pytest.raises(DomainError, match="below the double-precision epsilon"):
        TOLERANCE_ENTRY_POINTS[entry](tol)


# --- slotted value types ------------------------------------------------------------


def _value(name):
    report = zero_report(miller_form_spec(240000, decompose_weight(240000).ell - 2))
    return {
        "TruncatedSeries": j_series(5),
        "FaberPoly": report.faber,
        "HalfPlanePoint": report.rows[0].tau,
        "ZeroReportRow": report.rows[0],
        "ZeroReport": report,
    }[name]


@pytest.mark.parametrize(
    "name", ["TruncatedSeries", "FaberPoly", "HalfPlanePoint", "ZeroReportRow", "ZeroReport"]
)
def test_value_types_refuse_every_name_and_copy_whole(name):
    obj = _value(name)
    assert type(obj).__name__ == name and not hasattr(obj, "__dict__")
    field = dataclasses.fields(obj)[0].name
    for attr in (field, "extra"):  # a name that is no field used to raise TypeError
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, attr, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, attr)
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj) and twin == obj


# --- exports ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "module",
    ["faberzeros"]
    + [f"faberzeros.{m.name}" for m in pkgutil.iter_modules(faberzeros.__path__) if m.name != "__main__"],
)
def test_every_exported_name_is_bound(module):
    mod = importlib.import_module(module)
    dangling = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not dangling, f"{module}.__all__ names unbound attributes: {dangling}"


SUBMODULES = ("errors", "faber", "halfplane", "modforms", "qseries", "roots")


def test_package_exports_are_the_submodule_exports():
    modules = [importlib.import_module(f"faberzeros.{m}") for m in SUBMODULES]
    declared = [name for mod in modules for name in mod.__all__]
    assert faberzeros.__all__ == declared + ["__version__"]
    assert len(set(faberzeros.__all__)) == len(faberzeros.__all__)


@pytest.mark.parametrize(
    ("module", "name"),
    [
        ("faber", "horner"),
        ("halfplane", "MIN_J_MODULUS"),
        ("halfplane", "MIN_IM_FOR_SERIES"),
        ("modforms", "ALLOWED_K_PRIME"),
    ],
)
def test_package_binds_the_submodule_object(module, name):
    assert getattr(faberzeros, name) is getattr(importlib.import_module(f"faberzeros.{module}"), name)
