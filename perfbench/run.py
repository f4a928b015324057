"""The faberzeros benchmark: one seeded workload, timed, checked and reported.

    python3 perfbench/run.py --workload faber_large --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/`` directory.  Load is one closed loop with one client in one
thread: each op starts when the previous one returns.  The seed selects
the inputs, which are generated before timing.  The loop runs ops until
their summed time reaches ``--seconds``; outputs are checked afterwards,
outside the timed region.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every op
twice, traced and untraced in alternating order, and reports per-layer
span metrics plus the tracing overhead.  The last line of stdout is one
JSON object; the lines above it are the same numbers for people.

``--record-reference`` re-screens the candidate cells into ``cells.json``
and recomputes ``reference.json``, the outputs of the first ops of each
workload at the reference seed.  Run it only on the commit whose outputs
define correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
REFERENCE_SEED = 0
REFERENCE_OPS = {"faber_large": 352, "zero_report": 600, "sweep": 510}  # about 2x a run at the reference commit
SETUP_PROBES = 3
# Reported times are reference times: wall time scaled to a machine on
# which calibration_work() takes CALIBRATION_REF_S.  On a shared host the
# same op's wall time swings by up to 2x over tens of seconds; timing the
# calibration next to every op cancels most of that swing.
CALIBRATION_REF_S = 0.004
CALIBRATION_WINDOW = 4  # calibration samples on each side of an op that set its speed
PROBE_CELLS = 12  # screened-out zero_report cells the traced run re-runs

# Spans each workload must reach at this commit; a zero count means the
# tracer lost a binding.  roots.polish_fallback is optional by design.
EXPECTED_SPANS = {
    "faber_large": (
        "qseries.mul", "qseries.pow", "qseries.inverse", "qseries.eta_unit",
        "qseries.j_series", "qseries.eisenstein_series",
        "faber.principal_part", "faber.j_power_table", "faber.faber_polynomial",
    ),
    "zero_report": (
        "qseries.mul", "qseries.pow", "qseries.inverse", "qseries.eta_unit",
        "qseries.j_series", "qseries.eisenstein_series",
        "faber.principal_part", "faber.j_power_table", "faber.faber_polynomial",
        "roots.find_roots", "roots.scaled_faber_roots", "roots.truncated_exp_inverse_zeros",
        "roots.match_roots", "halfplane.zero_report", "halfplane.invert_j",
        "halfplane.evaluate_j", "halfplane.predicted_zero",
    ),
    "sweep": (
        "qseries.mul", "qseries.pow", "qseries.inverse", "qseries.eta_unit",
        "qseries.j_series", "qseries.eisenstein_series",
        "faber.principal_part", "faber.j_power_table", "faber.faber_polynomial",
        "faber.renormalized_coeffs", "modforms.miller_basis_series",
        "roots.find_roots", "roots.scaled_faber_roots", "roots.truncated_exp_inverse_zeros",
        "roots.match_roots", "halfplane.zero_report", "halfplane.invert_j",
        "halfplane.evaluate_j", "halfplane.predicted_zero", "cli.main",
    ),
}


def load_package():
    """Import faberzeros from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "faberzeros" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {src}")
    sys.path.insert(0, str(src))
    import faberzeros

    if Path(faberzeros.__file__).resolve().parent != (src / "faberzeros").resolve():
        raise SystemExit(f"perfbench: imported faberzeros from {faberzeros.__file__}, not {src}")
    return faberzeros


def calibration_work():
    """A fixed slice of interpreter work: exact rational convolution, complex
    Horner loops and big-integer arithmetic, the three kinds of work the
    package does.  It never calls the package, so no change there moves it."""
    a = [Fraction(i * i + 1, i + 2) for i in range(40)]
    acc = [Fraction(0)] * 40
    for i, x in enumerate(a):
        for j in range(40 - i):
            acc[i + j] += x * a[j]
    z = 0.3 + 0.4j
    s = 0j
    for _ in range(200):
        for c in range(30):
            s = s * z + c
    n = 3**2000
    for _ in range(30):
        n = (n * 7919) // 13
    return acc, s, n


def calibrate() -> float:
    """Seconds the calibration work takes now, with the garbage collector
    paused so that the program's own heap cannot slow it down."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibration_work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def execute(wl, op):
    """One op: (failure label or None, seconds, output)."""
    t0 = time.perf_counter()
    try:
        output = wl.execute(op)
        failure = None
    except Exception as exc:  # every failure is counted by type, never fatal
        output = None
        failure = getattr(exc, "label", type(exc).__name__)
    return failure, time.perf_counter() - t0, output


def timed_loop(wl, ops, seconds, tracer=None):
    """Closed loop over ``ops`` until the ops' summed time reaches ``seconds``.

    An untraced run then finishes the current block, so that every run
    measures whole balanced blocks of the workload's input mix.

    Returns (records, busy seconds, untraced seconds, traced seconds); each
    record is (index, failure, latency, kept output, calibration seconds).
    Untraced, the calibration work is timed after every op, outside the
    op's time.  With a tracer each op runs untraced and traced, alternating
    which goes first; the traced execution's outcome is the one recorded.
    """
    records = []
    busy = untraced = traced = 0.0
    block = wl.block()
    i = 0
    while busy < seconds or (tracer is None and i % block):
        op = ops[i % len(ops)]
        cal = None
        if tracer is None:
            failure, dt, output = execute(wl, op)
            busy += dt
            cal = calibrate()
        else:
            for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
                if traced_now:
                    tracer.install()
                    try:
                        failure, dt, output = execute(wl, op)
                    finally:
                        tracer.uninstall()
                    traced += dt
                else:
                    untraced += execute(wl, op)[1]
            busy = traced + untraced
        kept = None if failure is not None else wl.summarize(op, output)
        records.append((i, failure, dt, kept, cal))
        i += 1
    return records, busy, untraced, traced


def setup_probe(workload: str, seed: int) -> float:
    """Reference seconds, in this fresh interpreter, to import the package,
    generate the inputs and run the warm-up op, scaled by calibrations timed
    just before and after."""
    cals = [calibrate() for _ in range(3)]
    t0 = time.perf_counter()
    load_package()
    import workloads

    wl = workloads.WORKLOADS[workload]
    wl.generate(seed)
    execute(wl, wl.warmup)
    seconds = time.perf_counter() - t0
    cals += [calibrate() for _ in range(3)]
    return seconds * CALIBRATION_REF_S / statistics.median(cals)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up time of SETUP_PROBES fresh interpreters, one after another."""
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        values.append(float(proc.stdout.strip().splitlines()[-1]))
    return values


def failure_probe():
    """Re-run an evenly spread, fixed sample of the zero_report cells that
    failed at screening, under a tracer of its own.  The timed draw holds
    no failing op, so this is where the roots and halfplane failure counts
    come from.  Returns (tracer, cells run, cells that failed)."""
    import tracing
    import workloads

    failed = workloads.load_cells()["zero_report"]["failed"]
    cells = [(d, k) for d in sorted(failed) for k in failed[d]]
    sample = cells[:: max(1, len(cells) // PROBE_CELLS)][:PROBE_CELLS]
    wl = workloads.WORKLOADS["zero_report"]
    probe = tracing.Tracer()
    probe.install()
    try:
        still_failing = sum(execute(wl, workloads.zero_report_op(k, d))[0] is not None for d, k in sample)
    finally:
        probe.uninstall()
    return probe, len(sample), still_failing


def load_reference(workload: str, seed: int):
    if seed != REFERENCE_SEED or not REFERENCE.is_file():
        return []
    return json.loads(REFERENCE.read_text())["workloads"][workload]


def check_outputs(wl, ops, records, reference) -> list[str]:
    problems = []
    for i, failure, _, kept, _ in records:
        if failure is not None:
            continue
        ref = reference[i] if i < len(reference) else None
        for problem in wl.check(ops[i % len(ops)], kept, ref):
            problems.append(f"op {i} ({ops[i % len(ops)].describe()}): {problem}")
    return problems


def screen_cells():
    """Run every candidate zero_report cell and verify start once and sort
    them into those that complete and those that fail; write cells.json."""
    import workloads

    kinds = {
        "zero_report": (workloads.WORKLOADS["zero_report"], workloads.zero_report_candidates,
                        workloads.zero_report_op, workloads.ZERO_REPORT_DEGREES),
        "verify": (workloads.WORKLOADS["sweep"], workloads.verify_candidates,
                   workloads.verify_op, workloads.VERIFY_DEGREES),
    }
    cells = {}
    for kind, (wl, candidates, make_op, degrees) in kinds.items():
        ok, failed = {}, {}
        for d in degrees:
            for k in sorted(set(candidates(d))):
                failure = execute(wl, make_op(k, d))[0]
                (ok if failure is None else failed).setdefault(str(d), []).append(k)
        cells[kind] = {"ok": ok, "failed": failed}
        print(f"{kind}: {sum(map(len, ok.values()))} cells complete, "
              f"{sum(map(len, failed.values()))} fail", file=sys.stderr)
    workloads.CELLS.write_text(json.dumps(cells, separators=(",", ":")) + "\n")


def record_reference():
    import workloads

    screen_cells()
    out = {"seed": REFERENCE_SEED, "workloads": {}}
    for name, count in REFERENCE_OPS.items():
        wl = workloads.WORKLOADS[name]
        ops = wl.generate(REFERENCE_SEED)
        entries = []
        for op in ops[:count]:
            failure, _, output = execute(wl, op)
            entries.append(None if failure else workloads.reference_entry(name, op, wl.summarize(op, output)))
        out["workloads"][name] = entries
        print(f"{name}: {count} ops, {sum(e is None for e in entries)} failed", file=sys.stderr)
    REFERENCE.write_text(json.dumps(out, separators=(",", ":")) + "\n")


def percentile_90(latencies):
    return statistics.quantiles(latencies, n=10, method="inclusive")[8]


def report(workload, seed, records, busy, failures, metrics, notes):
    attempted = len(records)
    failed = sum(failures.values())
    by_type = ", ".join(f"{kind}: {n}" for kind, n in sorted(failures.items())) or "none"
    print(f"workload {workload}, seed {seed}: {attempted} ops attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.4f}; {by_type}), {busy:.2f} s busy")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    for note in notes:
        print(f"  {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("faber_large", "zero_report", "sweep"))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    load_package()
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    ops = wl.generate(args.seed)
    execute(wl, wl.warmup)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    else:
        setup = measure_setup(args.workload, args.seed)

    records, busy, untraced, traced = timed_loop(wl, ops, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = check_outputs(wl, ops, records, load_reference(args.workload, args.seed))
    failures = Counter(r[1] for r in records if r[1] is not None)
    attempted = len(records)
    if attempted - sum(failures.values()) < 2:
        print(f"perfbench: only {attempted - sum(failures.values())} ops completed", file=sys.stderr)
        return 2
    notes = []

    if tracer is None:
        cals = [r[4] for r in records]
        w = CALIBRATION_WINDOW
        reference = [
            r[2] * CALIBRATION_REF_S / statistics.median(cals[max(0, i - w): i + w + 1])
            for i, r in enumerate(records)
        ]
        completed = sorted(t for t, r in zip(reference, records) if r[1] is None)
        raw = sorted(r[2] for r in records if r[1] is None)
        p90 = percentile_90(completed)
        metrics = {
            "ops_per_s": (len(completed) / sum(reference), "1/s"),
            "op_p50_ms": (statistics.median(completed) * 1e3, "ms"),
            "op_p90_ms": (p90 * 1e3, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        above = sum(t > p90 for t in completed)
        notes.append(f"latency samples: {len(completed)} completed ops, {above} above p90")
        if above < 10:
            notes.append("WARNING: fewer than 10 samples above p90; lengthen --seconds")
        notes.append(
            f"unscaled wall time: {len(raw) / busy:.4g} ops/s, p50 {statistics.median(raw) * 1e3:.4g} ms, "
            f"p90 {percentile_90(raw) * 1e3:.4g} ms; calibration median "
            f"{statistics.median(cals) * 1e3:.4g} ms against {CALIBRATION_REF_S * 1e3:g} ms reference"
        )
        notes.append("setup probes (s): " + " ".join(f"{v:.4f}" for v in setup))
    else:
        layer = tracer.layer_metrics()
        probe, probed, still_failing = failure_probe()
        for name in ("roots.fallback_ratio", "roots.numerical_errors", "halfplane.check_failures"):
            layer[name] = probe.layer_metrics()[name]
        notes.append(f"failure probe: {still_failing} of {probed} cells that failed at screening still fail")
        k_growth = tracer.k_growth()
        if k_growth is None:
            notes.append("faber.k_growth: no degree has calls in both k bands; reported as 0")
        metrics = {
            name: (value, "s" if name.endswith("_s") else "count")
            for name, value in layer.items()
        }
        metrics["roots.fallback_ratio"] = (layer["roots.fallback_ratio"], "1")
        metrics["faber.k_growth"] = (k_growth or 0.0, "1")
        metrics["cli.output_bytes"] = (
            sum(r[3]["bytes"] for r in records if r[1] is None and "bytes" in r[3])
            if args.workload == "sweep" else 0,
            "bytes",
        )
        metrics["trace.overhead_frac"] = ((traced - untraced) / untraced, "1")
        missing = [s for s in EXPECTED_SPANS[args.workload] if tracer.calls[s] == 0]
        if missing:
            print(f"perfbench: traced spans with no calls on {args.workload}: {', '.join(missing)}",
                  file=sys.stderr)
            return 3

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    report(args.workload, args.seed, records, busy, failures, metrics, notes)
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
