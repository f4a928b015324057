"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/baseline.py --workloads faber_large zero_report sweep --seeds 1-10
    python3 perfbench/baseline.py --seeds 1-10 --traced-seeds 1 --write

For each workload and end-to-end metric it prints the median, the
quartiles and the spread (interquartile distance over the median) of the
seeds' values, next to the bound in BENCHMARK.json.  ``--write`` stores
the summary, with the Python version, commit and CPU count, in
baseline.json beside this script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(config: dict, workload: str, seed: int, trace: int) -> dict:
    argv = config["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(argv)}: output check failed:\n{proc.stdout}")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--traced-seeds", type=seed_list, default=[])
    parser.add_argument("--write", action="store_true", help="store the summary in baseline.json")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    out = {
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "run_seconds": config["run_seconds"],
        "seeds": args.seeds,
        "end_to_end": {},
        "per_layer": {},
    }
    worst = 0.0
    for workload in args.workloads:
        t0 = time.perf_counter()
        runs = [run_once(config, workload, seed, 0) for seed in args.seeds]
        per_run = (time.perf_counter() - t0) / len(runs)
        summary = {}
        print(f"{workload}: {len(runs)} seeds, {per_run:.1f} s wall per run")
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            summary[name] = {"unit": runs[0]["metrics"][name]["unit"], **s}
            flag = ""
            if name != "setup_s":
                worst = max(worst, s["spread"] / bound)
                flag = "  over bound/3" if s["spread"] > bound / 3 else ""
            print(f"  {name:14s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}"
                  f"  spread {s['spread']:.4f} (bound {bound}){flag}")
        out["end_to_end"][workload] = summary
        if args.traced_seeds:
            traced = [run_once(config, workload, seed, 1) for seed in args.traced_seeds]
            out["per_layer"][workload] = {
                name: {"unit": m["unit"],
                       "median": statistics.median(r["metrics"][name]["value"] for r in traced)}
                for name, m in traced[0]["metrics"].items()
            }
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.write:
        (BENCH_DIR / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
