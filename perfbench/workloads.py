"""The benchmark's workloads: seeded inputs, the call each op makes, and output checks.

Each workload turns a seed into a fixed list of ops before any timing,
runs one op per call through the package's public functions, and checks
the recorded outputs afterwards.  Inputs are drawn in balanced blocks
(every degree once, every stratum of the log-weight range equally often,
in a fresh random order), and timed runs end on a block boundary, so
every run sees nearly the same mix of sizes whatever the seed.

The timed workloads contain no op that fails.  ``zero_report`` and
``verify`` ops draw their weights from fixed candidate lists that
``run.py --record-reference`` screened once (``cells.json``): candidates
that raised at the recording commit are left out of the timed draw and
kept as the failing-cell probe of the traced run instead.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import faberzeros as fz
from faberzeros import cli
from faberzeros.halfplane import OUT_OF_REGIME
from faberzeros.qseries import gamma_k

K_PRIMES = (0, 4, 6, 8, 10, 14)
POOL_SIZE = 4000  # ops generated per run, in whole blocks; the loop wraps around only past this
TAU_TOL = 1e-8  # allowed |tau - tau_ref| per component against the reference
CELLS = Path(__file__).resolve().parent / "cells.json"
ZERO_REPORT_DEGREES = range(1, 25)
VERIFY_DEGREES = range(1, 9)
CANDIDATES = 48  # screened weights per degree

# -- balanced draws ----------------------------------------------------------


def shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def log_uniform(rng: random.Random, lo: float, hi: float, stratum: int, strata: int) -> float:
    """A log-uniform draw on [lo, hi] inside the given one of ``strata`` equal log-width strata."""
    width = (math.log(hi) - math.log(lo)) / strata
    return math.exp(math.log(lo) + (stratum + rng.random()) * width)


def weight_near(x: float, k_prime: int) -> int:
    """The weight 12*ell + k' closest to x from below."""
    return 12 * int((x - k_prime) // 12) + k_prime


# -- screened cells ----------------------------------------------------------
# Candidate inputs are fixed, not seeded; the seed only picks among the
# candidates that completed when cells.json was recorded.


def zero_report_candidates(d: int) -> list[int]:
    """CANDIDATES weights for degree d, log-uniform in [2.4e3, 2.4e7]: an equal
    share in each of 8 log strata, k' cycling over all residues."""
    rng = random.Random(f"zero_report/candidates/{d}")
    return [
        weight_near(log_uniform(rng, 2.4e3, 2.4e7, i % 8, 8), K_PRIMES[i % len(K_PRIMES)])
        for i in range(CANDIDATES)
    ]


def verify_candidates(d: int) -> list[int]:
    """CANDIDATES even starting weights in [1200, 2400) for ``verify --D d``."""
    rng = random.Random(f"verify/candidates/{d}")
    return [2 * rng.randint(600, 1199) for _ in range(CANDIDATES)]


def zero_report_op(k: int, d: int) -> "Op":
    return Op("zeros", (k, fz.decompose_weight(k).ell - d, None))


def verify_op(k_min: int, d: int) -> "Op":
    return Op("verify", ("verify", "--D", str(d), "--k-min", str(k_min), "--k-max", "25000000"))


def load_cells() -> dict:
    """{"zero_report"|"verify": {"ok"|"failed": {D: [weight, ...]}}} from cells.json."""
    if not CELLS.is_file():
        raise SystemExit(f"perfbench: {CELLS.name} is missing; run run.py --record-reference")
    raw = json.loads(CELLS.read_text())
    return {
        kind: {status: {int(d): ks for d, ks in by_d.items()} for status, by_d in entry.items()}
        for kind, entry in raw.items()
    }


def zero_report_degrees() -> list[int]:
    ok = load_cells()["zero_report"]["ok"]
    return [d for d in ZERO_REPORT_DEGREES if ok.get(d)]


# -- ops ---------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    kind: str  # "faber", "zeros", or a CLI subcommand
    args: tuple  # (k, m, window) for library ops; argv for CLI ops

    def describe(self) -> str:
        if self.kind in ("faber", "zeros"):
            k, m, window = self.args
            kind = "miller" if window is None else "custom"
            return f"{self.kind} k={k} D={fz.decompose_weight(k).ell - m} {kind}"
        return " ".join(self.args)


class _Capture:
    """Collects what a command writes without copying it (a one-part join returns the part)."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass

    def text(self) -> str:
        return "".join(self.parts)


def spec_of(op: Op):
    k, m, window = op.args
    if window is None:
        return fz.miller_form_spec(k, m)
    return fz.custom_form_spec(k, m, window)


class CliFailure(Exception):
    """A CLI op that ended with exit 2 (invalid input) or 3 (numerical failure)."""

    def __init__(self, code: int):
        super().__init__(f"exit {code}")
        self.label = f"exit {code}"


def run_faber(op: Op):
    return fz.faber_polynomial(spec_of(op))


def run_zeros(op: Op):
    return fz.zero_report(spec_of(op), strict=False)


def run_cli(op: Op):
    out = _Capture()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(op.args))
    if code not in (0, 1):
        raise CliFailure(code)
    return code, out.text()


# -- generators --------------------------------------------------------------


def blocks(ops_per_block: int) -> range:
    return range(-(-POOL_SIZE // ops_per_block))


def gen_faber_large(seed: int) -> list[Op]:
    """faber_polynomial at D uniform in [24, 39], k log-uniform in [1.2e5, 2.4e7],
    k' uniform over all residues; three ops in four on Miller windows, one
    in four on a custom window of rationals p/q, |p| <= 9, 1 <= q <= 9.
    A block of 16 ops holds each D once and each of 8 k strata twice."""
    rng = random.Random(f"faber_large/{seed}")
    ops = []
    for _ in blocks(16):
        windows = shuffled(rng, ["miller"] * 12 + ["custom"] * 4)
        strata = shuffled(rng, list(range(8)) * 2)
        for d, stratum, window in zip(shuffled(rng, range(24, 40)), strata, windows):
            k = weight_near(log_uniform(rng, 1.2e5, 2.4e7, stratum, 8), rng.choice(K_PRIMES))
            a = None
            if window == "custom":
                a = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d))
            ops.append(Op("faber", (k, fz.decompose_weight(k).ell - d, a)))
    return ops


def gen_zero_report(seed: int) -> list[Op]:
    """zero_report(strict=False) on Miller windows, D in [1, 24], k from the
    degree's screened candidates (log-uniform in [2.4e3, 2.4e7]).  A block
    holds each degree that has a completing candidate once."""
    ok = load_cells()["zero_report"]["ok"]
    degrees = zero_report_degrees()
    rng = random.Random(f"zero_report/{seed}")
    ops = []
    for _ in blocks(len(degrees)):
        for d in shuffled(rng, degrees):
            ops.append(zero_report_op(rng.choice(ok[d]), d))
    return ops


def gen_sweep(seed: int) -> list[Op]:
    """CLI sweeps in-process.  A block of 34 ops holds 16 verify (each
    D in [1, 8] twice, doubling grid up to 2.5e7 from a screened k-min in
    [1.2e3, 2.4e3)), 12 figure (each D in [1, 12] once, 2000-4000 weights, half csv
    and half json) and 6 basis (one even k from each sixth of [48, 240])."""
    ok = load_cells()["verify"]["ok"]
    rng = random.Random(f"sweep/{seed}")
    ops = []
    for _ in blocks(34):
        verify_d = shuffled(rng, list(range(1, 9)) * 2)
        figure = list(zip(shuffled(rng, range(1, 13)), shuffled(rng, ["csv", "json"] * 6),
                          shuffled(rng, range(12))))
        basis_strata = shuffled(rng, range(6))
        for what in shuffled(rng, ["verify"] * 16 + ["figure"] * 12 + ["basis"] * 6):
            if what == "verify":
                d = verify_d.pop()
                ops.append(verify_op(rng.choice(ok[d]), d))
                continue
            elif what == "figure":
                d, fmt, stratum = figure.pop()
                count = 2000 + int((stratum + rng.random()) * 2000 / 12)
                step = 2 * rng.randint(1, 50)
                k_min = 2 * rng.randint(500, 10000)
                argv = (
                    "figure", "--D", str(d), "--k-min", str(k_min),
                    "--k-max", str(k_min + (count - 1) * step), "--k-step", str(step),
                    "--format", fmt,
                )
            else:
                # even k in [48, 240] is 2 * [24, 120]; six strata of 16 or 17 values
                stratum = basis_strata.pop()
                argv = ("basis", "--k", str(2 * rng.randint(24 + 16 * stratum, 39 + 16 * stratum + (stratum == 5))))
            ops.append(Op(what, argv))
    return ops


# -- checks ------------------------------------------------------------------
# Each check returns a list of problems (empty when the output is right).
# ``ref`` is the reference entry recorded at the seed commit for this op,
# or None when the op is outside the reference.


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def faber_digest(poly) -> str:
    return _digest(" ".join(str(c) for c in poly.coeffs))


def check_faber(op: Op, poly, ref) -> list[str]:
    k, m, window = op.args
    w = fz.decompose_weight(k)
    d = w.ell - m
    problems = []
    if poly.degree != d:
        problems.append(f"degree {poly.degree} != {d}")
    if poly.coeffs[0] != 1:
        problems.append(f"x_0 = {poly.coeffs[0]} != 1")
    # the q^{-(D-1)} match gives x_1 = a(1) + 24 ell + gamma(k') - 744 D in closed form
    a1 = 0 if window is None else window[0]
    if d >= 1 and poly.coeffs[1] != a1 + 24 * w.ell + gamma_k(w.k_prime) - 744 * d:
        problems.append("x_1 disagrees with its closed form")
    if window is None and any(c.denominator != 1 for c in poly.coeffs):
        problems.append("non-integer coefficient for a Miller window")
    if ref is not None and faber_digest(poly) != ref:
        problems.append("coefficients differ from the reference")
    return problems


def zeros_summary(report) -> list:
    """Per row: [tau.re, tau.im] when inverted, None when out of regime."""
    return [None if row.tau is None else [row.tau.tau.real, row.tau.tau.imag] for row in report.rows]


def _in_fundamental_domain(x: float, y: float, eps: float = 1e-9) -> bool:
    return y > 0 and -0.5 - eps <= x < 0.5 + eps and x * x + y * y >= 1.0 - eps


def check_zeros(op: Op, report, ref) -> list[str]:
    k, m, _ = op.args
    d = fz.decompose_weight(k).ell - m
    problems = []
    if report.degree != d or len(report.rows) != d:
        problems.append(f"{len(report.rows)} rows for D = {d}")
        return problems
    if [row.r for row in report.rows] != list(range(1, d + 1)):
        problems.append("rows not indexed 1..D")
    rows = zeros_summary(report)
    for r, (row, tau) in enumerate(zip(report.rows, rows), start=1):
        if (tau is None) != (row.status != "ok"):
            problems.append(f"row {r}: status {row.status!r} inconsistent with tau")
        elif tau is not None and not _in_fundamental_domain(*tau):
            problems.append(f"row {r}: tau {tau} outside the fundamental domain")
    if ref is not None:
        for r, (tau, tau_ref) in enumerate(zip(rows, ref), start=1):
            if tau_ref is None:
                continue
            if tau is None or max(abs(tau[0] - tau_ref[0]), abs(tau[1] - tau_ref[1])) > TAU_TOL:
                problems.append(f"row {r}: tau {tau} differs from reference {tau_ref}")
    return problems


def parse_verify(text: str) -> dict:
    """Split the pretty verify output into its grid and named value rows."""
    lines = text.rstrip("\n").split("\n")
    grid = [int(v) for v in lines[0].removeprefix("k grid: ").split()]
    rows = {}
    for line in lines[1:-1]:
        name, rest = line.split(": ", 1)
        rest = rest.replace(OUT_OF_REGIME, "outside")
        values, _, flag = rest.rpartition("  [")
        rows[name] = {"values": values.split(), "bounded": flag == "bounded]"}
    return {"grid": grid, "rows": rows, "verdict": lines[-1]}


def sweep_summary(op: Op, output) -> dict:
    code, text = output
    summary = {"code": code, "sha256": _digest(text), "bytes": len(text), "lines": text.count("\n")}
    if op.kind == "verify":
        summary["verify"] = parse_verify(text)
    elif op.kind == "basis":
        summary["problems"] = check_basis_text(op, text)
    return summary


def check_sweep(op: Op, summary, ref) -> list[str]:
    argv = op.args
    opt = dict(zip(argv[1::2], argv[2::2]))
    code = summary["code"]
    problems = []
    if op.kind == "verify":
        v = summary["verify"]
        d = int(opt["--D"])
        k = int(opt["--k-min"])
        grid = []
        while k <= int(opt["--k-max"]):
            grid.append(k)
            k *= 2
        if v["grid"] != grid:
            problems.append("k grid differs from the requested doubling grid")
        names = [f"coeff_dev[s={s}]" for s in range(1, d + 1)]
        if [n for n in v["rows"] if n.startswith("coeff_dev")] != names:
            problems.append("coefficient rows missing")
        if any(len(row["values"]) != len(grid) for row in v["rows"].values()):
            problems.append("row length differs from the grid")
        all_bounded = all(row["bounded"] for row in v["rows"].values())
        if (code == 0) != all_bounded or v["verdict"] != ("all bounded" if all_bounded else "verification FAILED"):
            problems.append(f"exit {code} disagrees with the verdict {v['verdict']!r}")
        if ref is not None:
            if code != ref["code"] or v["grid"] != ref["grid"]:
                problems.append("verify exit code or grid differs from the reference")
                return problems
            if coeff_digest(v) != ref["coeff_sha256"]:
                problems.append("coeff_dev rows differ from the reference")
            zero = zero_rows(v)
            if zero.keys() != ref["zero_err"].keys():
                problems.append("zero_err rows differ from the reference")
                return problems
            for name, values in zero.items():
                for k, got, exp in zip(grid, values, ref["zero_err"][name]):
                    if (got == "outside") != (exp == "outside"):
                        problems.append(f"{name} at k={k}: regime differs from the reference")
                    elif got != "outside" and abs(float(got) - exp) > k * TAU_TOL:
                        problems.append(f"{name} at k={k}: {got} vs reference {exp}")
        return problems
    if code != 0:
        problems.append(f"{op.kind} exited {code}")
    if op.kind == "figure":
        d = int(opt["--D"])
        n_k = (int(opt["--k-max"]) - int(opt["--k-min"])) // int(opt["--k-step"]) + 1
        want = d * n_k + 1 if opt["--format"] == "csv" else 6 * d * n_k + 2
        if summary["lines"] != want:
            problems.append(f"figure printed {summary['lines']} lines, expected {want}")
    problems += summary.get("problems", [])
    if ref is not None and (summary["sha256"] != ref["sha256"] or code != ref["code"]):
        problems.append("stdout differs from the reference bytes")
    return problems


def check_basis_text(op: Op, text: str) -> list[str]:
    """Miller echelon property of ``basis`` output: element i is q^i + O(q^{ell+1})."""
    k = int(op.args[2])
    ell = fz.decompose_weight(k).ell
    payload = json.loads(text)
    basis = payload["basis"]
    if len(basis) != ell + 1:
        return [f"basis has {len(basis)} elements, expected {ell + 1}"]
    for i, series in enumerate(basis):
        coeffs = [Fraction(c) for c in series["coeffs"]]
        window = coeffs[: ell + 1 - series["valuation"]]
        if series["valuation"] != i or window[0] != 1 or any(c != 0 for c in window[1:]):
            return [f"basis element {i} is not q^{i} + O(q^{ell + 1})"]
    return []


@dataclass(frozen=True)
class Workload:
    generate: object
    execute: object
    summarize: object  # output -> what the check and the reference keep
    check: object
    block: object  # () -> ops per balanced block; timed runs end on a block boundary
    warmup: Op  # fixed, seed-independent op that fills lazy caches before timing


WORKLOADS = {
    "faber_large": Workload(
        gen_faber_large, run_faber,
        lambda op, poly: poly, check_faber, lambda: 16,
        Op("faber", (120_000, fz.decompose_weight(120_000).ell - 24, None)),
    ),
    "zero_report": Workload(
        gen_zero_report, run_zeros,
        lambda op, report: report, check_zeros, lambda: len(zero_report_degrees()),
        Op("zeros", (240_000, fz.decompose_weight(240_000).ell - 12, None)),
    ),
    "sweep": Workload(
        gen_sweep, run_cli,
        sweep_summary, check_sweep, lambda: 34,
        Op("verify", ("verify", "--D", "4", "--k-min", "1200", "--k-max", "76800")),
    ),
}


def coeff_digest(v: dict) -> str:
    return _digest("\n".join(
        f"{name}: {' '.join(row['values'])}" for name, row in v["rows"].items() if name.startswith("coeff_dev")
    ))


def zero_rows(v: dict) -> dict:
    return {name: row["values"] for name, row in v["rows"].items() if name.startswith("zero_err")}


def _rounded(x: float) -> float:
    """10 significant digits: far inside TAU_TOL, and a third of the file size."""
    return float(f"{x:.10g}")


def reference_entry(workload: str, op: Op, kept):
    """What the reference file stores for one completed op."""
    if workload == "faber_large":
        return faber_digest(kept)
    if workload == "zero_report":
        return [None if tau is None else [_rounded(x) for x in tau] for tau in zeros_summary(kept)]
    if op.kind != "verify":
        return {"code": kept["code"], "sha256": kept["sha256"]}
    v = kept["verify"]
    return {
        "code": kept["code"],
        "grid": v["grid"],
        "coeff_sha256": coeff_digest(v),
        "zero_err": {
            name: [x if x == "outside" else _rounded(float(x)) for x in values]
            for name, values in zero_rows(v).items()
        },
    }
