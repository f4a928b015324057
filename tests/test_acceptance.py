"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
are produced.  Every tolerance is pinned here; nothing is calibrated at
run time.  Two sub-assertions are knowingly red and kept faithful rather
than loosened:

* criterion 4: the D = 4 deviation sequences for s in {2, 3} converge to
  limits (exactly 4461/2 = 2230.5 and 4455/2 = 2227.5, the values of |c_s|
  for c_s = -372 s D + (1491/4) s (s-1) at D = 4, k' = 0) that exceed
  1.5x their first grid entry, so the stated 1.5x bound cannot hold (the
  sequences are bounded and monotone, which test_faber.py verifies);
* criterion 6: the stated D = 1 constant 744/(4 pi) presumes the crude
  inversion j ~ 1/q; the constant term 744 of j cancels the -744 in the
  Faber root exactly, so the true k-scaled error is ~196884/(8 pi k),
  decaying to zero rather than approaching 59.2.
"""

import cmath
import math
import random
import time
from fractions import Fraction

from faberzeros.cli import main as cli_main
from faberzeros.faber import faber_polynomial, renormalized_coeffs
from faberzeros.halfplane import evaluate_j, invert_j, zero_report
from faberzeros.modforms import decompose_weight, miller_basis_series, miller_form_spec
from faberzeros.qseries import (
    TruncatedSeries,
    delta_series,
    eisenstein_series,
    j_series,
)
from faberzeros.roots import (
    ComplexPoly,
    find_roots,
    match_roots,
    truncated_exp_inverse_zeros,
)
from oracles import bottleneck, closed_form_check, in_fundamental_domain, ostrowski_bound, series_sum


def run_criterion(num, description, budget_seconds, body):
    start = time.perf_counter()
    failure = None
    try:
        body()
    except AssertionError as exc:
        failure = exc
    elapsed = time.perf_counter() - start
    in_budget = elapsed < budget_seconds
    status = "PASS" if failure is None and in_budget else "FAIL"
    line = f"ACCEPTANCE {num}: {status} ({elapsed:.2f}s / budget {budget_seconds:g}s) {description}"
    if failure is not None:
        line += f" -- {failure}"
    elif not in_budget:
        line += " -- over budget"
    print(line)
    if failure is not None:
        raise failure
    assert in_budget, f"criterion {num} exceeded its runtime budget: {elapsed:.2f}s"


# --- 1: exact polynomial reproduction ----------------------------------------------


def test_criterion_1_exact_polynomials():
    def body():
        assert faber_polynomial(miller_form_spec(24, 0)).coeffs == (1, -1440, 125280)
        assert faber_polynomial(miller_form_spec(36, 0)).coeffs == (1, -2160, 965520, -27302400)

    run_criterion(1, "exact polynomial reproduction", 1.0, body)


# --- 2: printed-root reproduction ----------------------------------------------------


def test_criterion_2_printed_roots():
    def body():
        f24 = faber_polynomial(miller_form_spec(24, 0))
        roots24 = find_roots(ComplexPoly.from_coefficients([float(c) for c in f24.coeffs])).roots
        for got, printed in zip(roots24, (93.0072, 1346.99)):
            assert abs(got - printed) <= 1e-2, f"{got} vs {printed}"
        f36 = faber_polynomial(miller_form_spec(36, 0))
        roots36 = find_roots(ComplexPoly.from_coefficients([float(c) for c in f36.coeffs])).roots
        for got, printed in zip(roots36, (30.3029, 582.232, 1547.46)):
            assert abs(got - printed) <= 1e-2, f"{got} vs {printed}"

    run_criterion(2, "printed-root reproduction", 1.0, body)


# --- 3: closed-form sweep --------------------------------------------------------------


def test_criterion_3_closed_form_sweep():
    def body():
        for ell in range(2, 51):
            assert closed_form_check(12 * ell, ell - 1), (ell, 1)
            assert closed_form_check(12 * ell, ell - 2), (ell, 2)
        for ell in range(3, 51):
            assert closed_form_check(12 * ell, ell - 3), (ell, 3)

    run_criterion(3, "closed-form sweep", 10.0, body)


# --- 4: renormalized-coefficient convergence ---------------------------------------------


def test_criterion_4_coefficient_deviations():
    def body():
        grid = [1200 * 2**i for i in range(7)]
        sequences = {}
        for d in (1, 2, 3, 4):
            for i, k in enumerate(grid):
                spec = miller_form_spec(k, decompose_weight(k).ell - d)
                devs = renormalized_coeffs(faber_polynomial(spec))
                for s in range(d + 1):
                    sequences.setdefault((d, s), []).append(k * abs(devs[s]))
        violations = []
        for (d, s), seq in sequences.items():
            limit = seq[0] * Fraction(3, 2)
            if any(v > limit for v in seq):
                violations.append(
                    f"D={d} s={s}: sup {float(max(seq)):.1f} > 1.5 x first {float(seq[0]):.1f}"
                )
        # limit-value checks for D in {1, 2} against the closed-form constants
        last_d1 = sequences[(1, 1)][-1]
        assert abs(last_d1 / Fraction(372) - 1) <= Fraction(1, 100), f"D=1 limit {float(last_d1)}"
        last_d2 = sequences[(2, 2)][-1]
        assert abs(last_d2 / Fraction(742_5, 10) - 1) <= Fraction(1, 100), f"D=2 limit {float(last_d2)}"
        assert not violations, "; ".join(violations)

    run_criterion(4, "renormalized-coefficient convergence (1.5x first-entry bound)", 30.0, body)


# --- 5: root displacement stability ---------------------------------------------------


def test_criterion_5_root_displacement_stability():
    def body():
        # 9996 and 19992 are the weights divisible by 12 nearest 1e4 and
        # 2e4; on 12 | k the displacement constant is k'-independent and
        # the doubling comparison is meaningful (see decisions notes)
        for d in (1, 2, 3, 4):
            gaps = []
            for k in (9996, 19992):
                spec = miller_form_spec(k, decompose_weight(k).ell - d)
                report = zero_report(spec, strict=True)
                gaps.append(max(row.t_gap for row in report.rows))
            assert abs(gaps[1] - gaps[0]) <= 0.10 * gaps[0], (d, gaps)

    run_criterion(5, "Faber-root displacement stable under weight doubling", 30.0, body)


# --- 6: prediction error for the actual zeros -----------------------------------------------


def test_criterion_6_zero_prediction_error():
    def body():
        grid = [1200 * 2**i for i in range(7)]
        first_d1 = None
        for d in (1, 2, 3, 4):
            values = []
            for k in grid:
                spec = miller_form_spec(k, decompose_weight(k).ell - d)
                report = zero_report(spec, strict=False)
                errs = [row.k_times_err for row in report.rows if row.k_times_err is not None]
                if len(errs) == d:  # all roots invertible at this weight
                    values.append(max(errs))
            assert values, f"D={d}: no grid entry inside the inversion regime"
            assert all(v <= 1.5 * values[0] for v in values), (d, values)
            if d == 1:
                first_d1 = values[0]
        expected = 744 / (4 * math.pi)
        assert abs(first_d1 / expected - 1) <= 0.02, (
            f"D=1 k*err is {first_d1:.3f}, not {expected:.1f}: the 744 constant term of j "
            f"cancels the -744 in the Faber root, so the true error decays like 196884/(8 pi k)"
        )

    run_criterion(6, "zero prediction error bounded; D=1 constant 744/(4 pi)", 60.0, body)


# --- 7: figure reproduction -----------------------------------------------------------------


def test_criterion_7_figure(tmp_path):
    def body():
        out = tmp_path / "figure.csv"
        code = cli_main(
            ["figure", "--D", "4", "--k-min", "1000", "--k-max", "20000",
             "--k-step", "1000", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        points = [line.split(",") for line in lines[1:]]
        assert len(points) == 80
        limits = truncated_exp_inverse_zeros(4)
        tracks = {}
        for k_str, r_str, re_str, im_str in points:
            tracks.setdefault(int(r_str), []).append(
                (int(k_str), float(re_str), float(im_str))
            )
        for r, rows in tracks.items():
            z = limits.roots[r - 1]
            ph = cmath.phase(z)
            if ph >= math.pi:
                ph = -math.pi
            want_re = -ph / (2 * math.pi)
            if want_re >= 0.5:
                want_re -= 1.0
            for _, re_val, _ in rows:
                assert abs(re_val - want_re) < 1e-12, (r, re_val, want_re)
            heights = [im for _, _, im in sorted(rows)]
            assert all(b > a for a, b in zip(heights, heights[1:])), r
            for k, _, im in rows:
                assert abs(im - math.log(2 * k * abs(z)) / (2 * math.pi)) < 1e-12
        for _, re_val, im_val in (p for rows in tracks.values() for p in rows):
            assert in_fundamental_domain(complex(re_val, im_val))

    run_criterion(7, "figure point cloud reproduction", 5.0, body)


# --- 8: infrastructure batch ------------------------------------------------------------------


def test_criterion_8_infrastructure():
    def body():
        # series ring axioms on seeded random small series, exact
        rng = random.Random(12345)

        def random_series():
            v = rng.randint(-3, 3)
            n = rng.randint(1, 6)
            coeffs = [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(n)]
            return TruncatedSeries(v, coeffs, v + n)

        def agree(a, b):
            n = min(a.order, b.order)
            assert a.truncate(n) == b.truncate(n)

        for _ in range(200):
            a, b, c = random_series(), random_series(), random_series()
            agree((a * b) * c, a * (b * c))
            agree(a * series_sum(b, c), series_sum(a * b, a * c))
            if not a.is_zero():
                prod = a * a.inverse()
                agree(prod, TruncatedSeries.one(max(prod.order, 1)))

        # j * Delta = E_4^3 through order 20
        j20 = j_series(20)
        lhs = j20 * delta_series(22)
        rhs = (eisenstein_series(4, 21) ** 3).truncate(20)
        assert lhs.truncate(20) == rhs

        # Miller-basis echelon identity for k <= 120
        for k in range(0, 121, 2):
            if k == 2:
                continue
            ell = decompose_weight(k).ell
            basis = miller_basis_series(k, ell + 1)
            for i, series in enumerate(basis):
                for j in range(ell + 1):
                    assert series.coeff(j) == (1 if i == j else 0), (k, i, j)

        # j round trip on 100 reduced samples with |j| >= 2000
        rng = random.Random(777)
        checked = 0
        while checked < 100:
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(1.0, 3.0))
            if not in_fundamental_domain(tau):
                continue
            t = evaluate_j(tau)
            if abs(t) < 2000:
                continue
            assert abs(invert_j(t).tau - tau) <= 1e-8
            checked += 1

        # Ostrowski domination on 1000 random monic pairs, degrees 2..6
        rng = random.Random(31337)
        for _ in range(1000):
            deg = rng.randint(2, 6)
            base = [1.0] + [
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(deg)
            ]
            pert = [1.0] + [
                c + complex(rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3))
                for c in base[1:]
            ]
            p = ComplexPoly(coeffs=tuple(base))
            q = ComplexPoly(coeffs=tuple(pert))
            a, b = find_roots(p).roots, find_roots(q).roots
            assert bottleneck(a, b, match_roots(a, b)) <= ostrowski_bound(p, q) + 1e-12

        # Vieta checks for the inverse zeros through degree 10
        for d in range(1, 11):
            zs = truncated_exp_inverse_zeros(d).roots
            assert abs(sum(zs) + 1) <= 1e-10, d
            assert abs(math.prod(zs) - (-1) ** d / math.factorial(d)) <= 1e-10, d

    run_criterion(8, "infrastructure properties", 60.0, body)
