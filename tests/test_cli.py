"""CLI contract: schemas, exit codes, aliases, determinism."""

import csv
import io
import json
import math
import random
import time
from fractions import Fraction

import pytest

from faberzeros import cli, halfplane
from faberzeros.cli import (
    EXIT_INVALID,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    _csv_cell,
    _csv_text,
    _fmt,
    _json_text,
    main,
)
from faberzeros.faber import j_power_table
from faberzeros.halfplane import _prediction_height, _prediction_line
from faberzeros.roots import truncated_exp_inverse_zeros


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_faber_24_0_json(capsys):
    code, out, _ = run(capsys, "faber", "--k", "24", "--m", "0")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == {"k": 24, "m": 0, "D": 2, "coeffs_desc": ["1", "-1440", "125280"]}


def test_faber_36_0_json(capsys):
    code, out, _ = run(capsys, "faber", "--k", "36", "--m", "0")
    assert json.loads(out)["coeffs_desc"] == ["1", "-2160", "965520", "-27302400"]
    assert code == EXIT_OK


def test_faber_constant_for_pure_delta_power(capsys):
    code, out, _ = run(capsys, "faber", "--k", "24", "--m", "2")
    assert code == EXIT_OK
    assert json.loads(out)["coeffs_desc"] == ["1"]


def test_faber_pretty(capsys):
    _, out, _ = run(capsys, "faber", "--k", "24", "--m", "0", "--format", "pretty")
    assert out == "F_{24,0}(t) = t^2 - 1440*t + 125280\n"


def test_zeros_small_weight_flags_inversion(capsys):
    code, out, _ = run(capsys, "zeros", "--k", "24", "--m", "0", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "k,m,D,r,t_re,t_im,tau_re,tau_im,pred_re,pred_im,abs_err,k_times_err"
    assert len(lines) == 3
    roots = sorted(float(line.split(",")[4]) for line in lines[1:])
    assert abs(roots[0] - 93.0072) < 1e-2
    assert abs(roots[1] - 1346.99) < 1e-2
    assert all("outside inversion regime" in line for line in lines[1:])


def test_zeros_large_weight_row(capsys):
    code, out, _ = run(capsys, "zeros", "--k", "12000", "--m", "last-1", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert len(lines) == 2
    cells = lines[1].split(",")
    row = dict(zip(lines[0].split(","), cells))
    assert row["k"] == "12000" and row["m"] == "999" and row["D"] == "1"
    assert abs(float(row["t_re"]) - (-23256)) < 1e-6
    assert float(row["tau_re"]) == -0.5
    # the k-scaled prediction error is small and positive (the honest value,
    # about 196884/(8 pi k); see the decisions notes on the claimed 59.2)
    k_err = float(row["k_times_err"])
    assert 0 < k_err < 150
    assert abs(k_err - 196884 / (8 * math.pi * 12000)) < 0.01


def test_zeros_rejects_odd_weight(capsys):
    code, _, err = run(capsys, "zeros", "--k", "13", "--m", "0")
    assert code == EXIT_INVALID
    assert "even" in err


def test_zeros_large_degree_fails_numerically_not_by_overflow(capsys):
    # F's coefficients at D = 49, k = 2.4e7 lie beyond the float range; no
    # step may convert them, and the failing degree-49 solve reports exit 3
    code, out, err = run(capsys, "zeros", "--k", "24000000", "--m", "last-49")
    assert code == EXIT_NUMERICAL and out == ""
    assert err.startswith("faberzeros: numerical failure:")


@pytest.mark.parametrize("degree", ["104", "170"])
def test_exp_zeros_nan_residual_fails_numerically(capsys, degree):
    # the Aberth iterates turn NaN here; the solve must not report them
    code, out, err = run(capsys, "exp-zeros", "--D", degree)
    assert code == EXIT_NUMERICAL and out == ""
    assert err.startswith("faberzeros: numerical failure:")


@pytest.mark.parametrize(
    "argv",
    [
        ("exp-zeros", "--D", "171"),
        ("figure", "--D", "200", "--k-min", "2400", "--k-max", "2400"),
    ],
    ids=["exp-zeros", "figure"],
)
def test_degree_beyond_double_range_is_invalid_input(capsys, argv):
    # D! no longer fits in a double from D = 171 on
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INVALID and out == ""
    assert err.startswith("faberzeros: invalid input:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("zeros", "--k", str(12 * 10**140), "--m", "last-3"),  # Faber coefficients overflow
        ("zeros", "--k", str(12 * 10**165), "--m", "last-1"),  # the nome would underflow
        ("predict", "--k", str(10**310), "--D", "2"),  # 2k|z| overflows
        ("figure", "--D", "2", "--k-min", str(10**310), "--k-max", str(10**310)),
        ("verify", "--D", "2", "--k-min", "2400", "--k-max", str(10**200)),
    ],
    ids=["zeros-overflow", "zeros-underflow", "predict", "figure", "verify"],
)
def test_huge_weight_is_invalid_input(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INVALID and out == ""
    assert err.startswith("faberzeros: invalid input:")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("figure", "--D", "12", "--k-min", "2", "--k-max", "8", "--k-step", "2"),
            "2k|z| = 0.950639 <= 1 gives a non-positive height",
        ),
        (
            ("predict", "--k", str(10**310), "--D", "2"),
            "2k|z| exceeds the double range: the weight is too large",
        ),
        # the first weight's first tracks pass; r = 6 (D = 12) and r = 4 (D = 8) fail
        (
            ("figure", "--D", "12", "--k-min", "4", "--k-max", "8", "--k-step", "2"),
            "2k|z| = 0.996512 <= 1 gives a non-positive height",
        ),
        (
            ("figure", "--D", "8", "--k-min", "2", "--k-max", "8", "--k-step", "2",
             "--format", "json"),
            "2k|z| = 0.778113 <= 1 gives a non-positive height",
        ),
        (("zeros", "--k", "2400", "--m", "abc"), "invalid --m value 'abc'"),
        (
            ("zeros", "--k", "2400", "--m", "0"),
            "truncated exponential of degree 200: "
            "coefficients must be finite: int too large to convert to float",
        ),
        (("verify", "--D", "2", "--k-min", "0", "--k-max", "2400"), "k-min must be positive, got 0"),
        (("verify", "--D", "2", "--k-min", "4800", "--k-max", "2400"), "k-min 4800 exceeds k-max 2400"),
        (
            ("figure", "--D", "2", "--k-min", "2400", "--k-max", "4800", "--k-step", "0"),
            "grid requires 0 < k-min <= k-max and k-step > 0",
        ),
    ],
    ids=[
        "figure-height", "predict-overflow", "figure-later-track", "figure-later-track-json",
        "zeros-bad-m", "zeros-degree-200", "verify-zero-k-min", "verify-k-min-above-k-max",
        "figure-zero-step",
    ],
)
def test_point_refusals_print_one_exact_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INVALID and out == ""
    assert err == f"faberzeros: invalid input: {message}\n"


def test_huge_degree_is_refused_at_once(capsys):
    # the first D!/(D - nu)! beyond a double is refused before the rest are built
    start = time.perf_counter()
    code, out, _ = run(capsys, "exp-zeros", "--D", "20000")
    assert code == EXIT_INVALID and out == ""
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize(
    "argv",
    [
        ("exp-zeros", "--D", "12", "--format", "pretty"),
        ("exp-zeros", "--D", "21", "--format", "csv"),
        ("predict", "--k", "240000", "--D", "9"),
        ("figure", "--D", "6", "--k-min", "2000", "--k-max", "2400", "--format", "json"),
    ],
    ids=lambda v: v[0],
)
def test_stdout_same_with_cold_and_warm_limit_cache(capsys, argv):
    from faberzeros.roots import _exp_inverse_zeros

    _exp_inverse_zeros.cache_clear()
    cold = run(capsys, *argv)
    warm = run(capsys, *argv)
    assert _exp_inverse_zeros.cache_info().hits >= 1
    assert cold[0] == EXIT_OK and cold == warm


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--D", "6", "--k-min", "2400", "--k-max", "9600", "--format", "json"),
        ("faber", "--k", "240", "--m", "0", "--format", "csv"),
    ],
    ids=lambda v: v[0],
)
def test_stdout_same_with_cold_and_warm_j_cache(capsys, argv):
    from faberzeros.qseries import j_series

    j_series.cache_clear()
    j_power_table.cache_clear()
    cold = run(capsys, *argv)
    j_power_table.cache_clear()  # so the warm run reads j from its memo
    warm = run(capsys, *argv)
    assert j_series.cache_info().hits >= 1
    assert cold[0] in (EXIT_OK, EXIT_VERIFY_FAILED) and cold == warm
    hits = j_power_table.cache_info().hits
    hot = run(capsys, *argv)  # the table built by the warm run is reused
    assert j_power_table.cache_info().hits > hits
    assert hot == cold


def test_verify_builds_the_j_power_table_once(capsys):
    # a doubling grid at one D: one build, then a hit at each later weight
    j_power_table.cache_clear()
    code, _, _ = run(capsys, "verify", "--D", "4", "--k-min", "2400", "--k-max", "19200")
    assert code in (EXIT_OK, EXIT_VERIFY_FAILED)
    info = j_power_table.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_degree_beyond_the_limits_is_refused_before_the_solve(capsys):
    # D = 320: the truncated exponential is refused before F (seconds of exact work) is solved
    start = time.perf_counter()
    code, out, err = run(capsys, "zeros", "--k", "3840", "--m", "0")
    assert code == EXIT_INVALID and out == ""
    assert err == (
        "faberzeros: invalid input: truncated exponential of degree 320: "
        "coefficients must be finite: int too large to convert to float\n"
    )
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_tolerance_must_be_positive_and_finite(capsys, tol):
    code, out, err = run(capsys, "zeros", "--k", "240000", "--m", "last-2", "--tol", tol)
    assert code == EXIT_INVALID and out == ""
    assert "tolerance must be positive and finite" in err


@pytest.mark.parametrize("tol", ["1e-17", "1e-300"])
@pytest.mark.parametrize(
    "argv",
    [("zeros", "--k", "240000", "--m", "last-8"), ("predict", "--k", "2400", "--D", "2")],
    ids=["zeros", "predict"],
)
def test_tolerance_below_double_precision_is_refused_up_front(capsys, argv, tol):
    code, out, err = run(capsys, *argv, "--tol", tol)
    assert code == EXIT_INVALID and out == ""
    assert "below the double-precision epsilon" in err


@pytest.mark.parametrize(
    "argv",
    [("zeros", "--k", "240000", "--m", "last-8"), ("verify", "--D", "4", "--k-min", "2400", "--k-max", "19200")],
    ids=["zeros", "verify"],
)
def test_tolerance_below_the_inversion_floor_is_refused_before_any_solve(capsys, monkeypatch, argv):
    # 3e-16 passes the epsilon check, but j-inversion needs at least 4 eps
    solved = []
    for name in ("truncated_exp_inverse_zeros", "faber_polynomial"):
        monkeypatch.setattr(halfplane, name, lambda *args, **kw: solved.append(args))
    code, out, err = run(capsys, *argv, "--tol", "3e-16")
    assert (code, out) == (EXIT_INVALID, "")
    assert err == (
        "faberzeros: invalid input: tolerance 3e-16 is below 8.88e-16 (4 x the "
        "double-precision epsilon): j-inversion cannot always reach it\n"
    )
    assert solved == []


def test_m_alias_last(capsys):
    code, out, _ = run(capsys, "faber", "--k", "24", "--m", "last")
    assert code == EXIT_OK and json.loads(out)["m"] == 2


def test_m_alias_out_of_range(capsys):
    code, _, err = run(capsys, "faber", "--k", "24", "--m", "last-5")
    assert code == EXIT_INVALID and "resolves" in err


def test_exp_zeros_json(capsys):
    code, out, _ = run(capsys, "exp-zeros", "--D", "2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["roots"] == [{"re": -0.5, "im": -0.5}, {"re": -0.5, "im": 0.5}]
    assert payload["residual"] <= 1e-10


def test_predict_rows(capsys):
    code, out, _ = run(capsys, "predict", "--k", "1000", "--D", "2", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "k,r,re,im"
    assert len(lines) == 3
    assert float(lines[1].split(",")[2]) == 0.375


def test_figure_point_count_and_tracks(capsys):
    code, out, _ = run(
        capsys, "figure", "--D", "4", "--k-min", "1000", "--k-max", "20000", "--k-step", "1000"
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "k,r,re,im"
    assert len(lines) == 81  # 20 weights x 4 tracks
    by_track = {}
    for line in lines[1:]:
        k, r, re, im = line.split(",")
        by_track.setdefault(r, []).append((int(k), float(re), float(im)))
    assert set(by_track) == {"1", "2", "3", "4"}
    for rows in by_track.values():
        res = {re for _, re, _ in rows}
        assert len(res) == 1  # constant real part along the track
        ims = [im for _, _, im in rows]
        assert ims == sorted(ims) and len(set(ims)) == len(ims)  # strictly increasing heights


def test_figure_single_point_on_seam(capsys):
    code, out, _ = run(capsys, "figure", "--D", "1", "--k-min", "1000", "--k-max", "1000")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert float(lines[1].split(",")[2]) == -0.5


def _generic_points_text(weights, degree, fmt):
    """The points text as the generic writers build it from (k, r, re, im) rows."""
    limits = truncated_exp_inverse_zeros(degree, tol=1e-10).roots
    tracks = [(r, *_prediction_line(z)) for r, z in enumerate(limits, 1)]
    rows = [(k, r, x, _prediction_height(k, z_abs)) for k in weights for r, x, z_abs in tracks]
    if fmt == "json":
        return _json_text([{"k": k, "r": r, "re": x, "im": im} for k, r, x, im in rows]) + "\n"
    if fmt == "csv":
        return _csv_text(("k", "r", "re", "im"), rows)
    return "\n".join(f"k={k} r={r}: {_fmt(x)} + {_fmt(im)}i" for k, r, x, im in rows) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("degree", [*range(1, 13), 21])
def test_points_writer_matches_generic_writers(capsys, degree, fmt):
    limits = truncated_exp_inverse_zeros(degree, tol=1e-10).roots
    runs = [(("predict", "--k", "240000"), [240000])]
    for k_min, count, step in [(8, 2, 2), (1000, 17, 1000), (8, 50, 2), (12000, 50, 240000)]:
        k_max = k_min + (count - 1) * step
        grid = ("figure", "--k-min", str(k_min), "--k-max", str(k_max), "--k-step", str(step))
        runs.append((grid, list(range(k_min, k_max + 1, step))))
    for argv, weights in runs:
        code, out, _ = run(capsys, *argv, "--D", str(degree), "--format", fmt)
        assert code == EXIT_OK and out == _generic_points_text(weights, degree, fmt)
        expected = [
            (k, r, _prediction_height(k, abs(z)).hex())
            for k in weights for r, z in enumerate(limits, 1)
        ]
        if fmt == "json":
            parsed = [(p["k"], p["r"], p["im"].hex()) for p in json.loads(out)]
            assert parsed == expected
        elif fmt == "csv":
            reader = csv.DictReader(io.StringIO(out))
            parsed = [(int(p["k"]), int(p["r"]), float(p["im"]).hex()) for p in reader]
            assert parsed == expected


def test_figure_rejects_degree_zero(capsys):
    code, _, err = run(capsys, "figure", "--D", "0", "--k-min", "1000", "--k-max", "2000")
    assert code == EXIT_INVALID and "D >= 1" in err


def test_figure_rejects_odd_grid(capsys):
    code, _, err = run(capsys, "figure", "--D", "1", "--k-min", "1001", "--k-max", "2000")
    assert code == EXIT_INVALID and "even" in err


def test_verify_d1_bounded(capsys):
    code, out, _ = run(capsys, "verify", "--D", "1", "--k-min", "1200", "--k-max", "19200")
    assert code == EXIT_OK
    assert "coeff_dev[s=1]: 372 372 372 372 372" in out
    assert "outside inversion regime" in out  # k = 1200 zero row is skipped
    assert "all bounded" in out


def test_verify_d2_bounded(capsys):
    code, out, _ = run(capsys, "verify", "--D", "2", "--k-min", "2400", "--k-max", "19200")
    assert code == EXIT_OK and "all bounded" in out


def test_verify_d4_short_grid_four_rows(capsys):
    # no inversion-regime entries at 1200/2400 with D = 4, so only the four
    # coefficient rows are monitored
    code, out, _ = run(capsys, "verify", "--D", "4", "--k-min", "1200", "--k-max", "2400", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert len(lines) == 5  # header + 4 rows
    assert all(line.startswith("coeff_dev") for line in lines[1:])


def test_verify_d4_long_grid_reports_unbounded(capsys):
    # over the full doubling grid the D=4 s=2 sequence converges to 2230.5,
    # which exceeds 1.5x its first entry (1174.8): honest exit 1
    code, out, _ = run(capsys, "verify", "--D", "4", "--k-min", "1200", "--k-max", "76800")
    assert code == EXIT_VERIFY_FAILED
    assert "UNBOUNDED" in out and "verification FAILED" in out


def test_verify_solves_each_faber_polynomial_once(capsys, monkeypatch):
    # the coefficient rows read the F that zero_report solved: one solve per grid weight
    solved = []

    def counting(spec, _solve=halfplane.faber_polynomial):
        solved.append(spec.k)
        return _solve(spec)

    monkeypatch.setattr(halfplane, "faber_polynomial", counting)
    monkeypatch.setattr(cli, "faber_polynomial", counting)
    code, _, _ = run(capsys, "verify", "--D", "4", "--k-min", "2400", "--k-max", "19200")
    assert code == EXIT_OK
    assert solved == [2400, 4800, 9600, 19200]


def test_verify_ratio_bound_is_the_fraction_rule():
    # rows hold k * |dev| as (n, d); "bounded" is v <= 3/2 v_0 on the exact values
    def fraction_rule(ratios):
        values = [Fraction(n, d) for n, d in ratios]
        return all(v <= Fraction(3, 2) * values[0] for v in values)

    rng = random.Random(13)
    cases = [[(2347, 2), (7041, 4)], [(2347, 2), (7042, 4)], [(2347, 2), (7040, 4)], [(0, 1), (0, 7)]]
    for _ in range(400):
        n0, d0 = rng.randrange(10**12), rng.randrange(1, 10**6)
        ratios = [(n0, d0)]
        for _ in range(rng.randrange(6)):
            d = rng.randrange(1, 10**6)
            ratios.append((3 * n0 * d // (2 * d0) + rng.randrange(-2, 3), d))  # near the bound
        cases.append([(max(n, 0), d) for n, d in ratios])
    assert cli._ratios_bounded(cases[0]) and not cli._ratios_bounded(cases[1])  # exactly 3/2, just past
    for ratios in cases:
        assert cli._ratios_bounded(ratios) == fraction_rule(ratios), ratios


def test_verify_rejects_large_degree(capsys):
    code, _, err = run(capsys, "verify", "--D", "9", "--k-min", "1200", "--k-max", "2400")
    assert code == EXIT_INVALID and "D <= 8" in err


def test_basis_json(capsys):
    code, out, _ = run(capsys, "basis", "--k", "12")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["k"] == 12 and len(payload["basis"]) == 2
    first = payload["basis"][0]
    assert first["valuation"] == 0 and first["coeffs"][2] == "196560"


def test_output_determinism(capsys):
    args = ("zeros", "--k", "9996", "--m", "last-2", "--format", "csv")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "faber.json"
    code, out, _ = run(capsys, "faber", "--k", "24", "--m", "0", "--out", str(target))
    assert code == EXIT_OK and out == ""
    assert json.loads(target.read_text())["coeffs_desc"] == ["1", "-1440", "125280"]


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_is_invalid_input(tmp_path, capsys, where):
    target = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    code, out, err = run(capsys, "faber", "--k", "24", "--m", "0", "--out", str(target))
    assert code == EXIT_INVALID and out == ""
    assert err.startswith("faberzeros: invalid input: cannot write --out")


def test_floats_have_17_significant_digits(capsys):
    _, out, _ = run(capsys, "figure", "--D", "2", "--k-min", "1000", "--k-max", "1000")
    im = out.strip().split("\n")[1].split(",")[3]
    assert im == f"{float(im):.17g}"


def test_exit_codes_stay_in_contract(capsys):
    # whatever the arguments, the reply is one of the four contract codes
    # (argparse itself raises SystemExit(2) on malformed flags)
    import random

    rng = random.Random(8)
    subs = ["faber", "zeros", "exp-zeros", "predict", "figure", "verify", "basis"]
    flags = ["--k", "--m", "--D", "--k-min", "--k-max", "--k-step", "--tol", "--format"]
    values = ["0", "2", "13", "24", "-4", "last", "last-9", "json", "bogus", "1e-3", "999999999999"]
    for _ in range(150):
        argv = [rng.choice(subs)]
        for flag in rng.sample(flags, rng.randint(0, 5)):
            argv += [flag, rng.choice(values)]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        capsys.readouterr()
        assert code in (0, 1, 2, 3), argv


def test_pure_functions_parallelize(capsys):
    # the whole pipeline is pure over immutable values; a thread pool must
    # reproduce the serial results exactly
    from concurrent.futures import ThreadPoolExecutor

    from faberzeros.faber import faber_polynomial
    from faberzeros.modforms import decompose_weight, miller_form_spec

    tasks = [(1200 * 2**i, d) for i in range(5) for d in (1, 2, 3)]

    def solve(task):
        k, d = task
        return faber_polynomial(miller_form_spec(k, decompose_weight(k).ell - d)).coeffs

    serial = [solve(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(solve, tasks))
    assert serial == parallel


@pytest.mark.parametrize(
    "argv, fmt",
    [
        (("faber", "--k", "24", "--m", "0"), "json"),
        (("zeros", "--k", "12000", "--m", "last-1"), "csv"),
        (("exp-zeros", "--D", "3"), "json"),
        (("predict", "--k", "240000", "--D", "2"), "csv"),
        (("figure", "--D", "2", "--k-min", "1000", "--k-max", "3000"), "csv"),
        (("verify", "--D", "1", "--k-min", "2400", "--k-max", "9600"), "pretty"),
        (("basis", "--k", "24"), "json"),
    ],
    ids=lambda v: v[0] if isinstance(v, tuple) else v,
)
def test_default_format_per_subcommand(capsys, argv, fmt):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert run(capsys, *argv, "--format", fmt) == (code, out, "")
    others = [f for f in ("json", "csv", "pretty") if f != fmt]
    assert all(run(capsys, *argv, "--format", f)[1] != out for f in others)


def test_json_writer_dispatch():
    assert _json_text(True) == "true" and _json_text(False) == "false"
    assert _json_text([True, 1, 1.0]) == "[\n  true,\n  1,\n  1\n]"
    assert _json_text(None) == "null"
    assert _json_text({"a": {}, "b": [[]]}) == '{\n  "a": {},\n  "b": [\n    []\n  ]\n}'
    assert _json_text('a\\b"c') == '"a\\\\b\\"c"'
    assert json.loads(_json_text({"s": 'a\\b"c'})) == {"s": 'a\\b"c'}
    with pytest.raises(TypeError):
        _json_text(Fraction(1, 3))
    with pytest.raises(TypeError):
        _json_text([Fraction(1, 3)])


@pytest.mark.parametrize(
    "text, cell",
    [("a,b", '"a,b"'), ('say "hi"', '"say ""hi"""'), ("a\nb", '"a\nb"'), ("plain", "plain")],
)
def test_csv_cell_quotes_only_strings_that_need_it(text, cell):
    assert _csv_cell(text) == cell


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -0.0, 1e300, 0.1, 7, -3, True])
def test_csv_cell_never_quotes_numbers(value):
    cell = _csv_cell(value)
    assert cell == (_fmt(value) if isinstance(value, float) else str(value))
    assert not any(ch in cell for ch in ',"\n')
