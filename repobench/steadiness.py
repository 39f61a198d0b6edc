"""Steadiness report: run-to-run spread of every end-to-end metric.

Runs ``run.py`` once per seed for each workload, sequentially, and
prints for every end-to-end metric the spread (inter-quartile distance
as a share of the median, as ``statistics.quantiles(values, n=4)``
gives the quartiles) both host-normalised (the reported metric) and raw
(the same quantity in unnormalised wall time), next to the metric's
bound from ``BENCHMARK.json``, followed by each run's ``host.calib_s``.

Usage (from the repository root)::

    python3 repobench/steadiness.py --runs 10 [--workloads des_ff_packed ...]

The full report is also written to ``repobench/out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness import quartiles, spread  # noqa: E402

#: Raw (unnormalised) counterpart of each end-to-end metric in the
#: ``# diag`` line; metrics without one are not host times.
RAW = {"items_per_s": "raw.items_per_s", "setup_s": "raw.setup_s"}


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    diag = json.loads(next(l for l in lines if l.startswith("# diag "))[7:])
    result = json.loads(lines[-1])
    return {"seed": seed, "result": result, "diag": diag}


def summarise(runs: list, bounds: dict) -> dict:
    out = {}
    for name, bound in bounds.items():
        norm = [r["result"]["metrics"][name]["value"] for r in runs]
        row = {"bound": bound, "values": norm, "quartiles": quartiles(norm),
               "spread": spread(norm)}
        if name in RAW:
            raw = [r["diag"][RAW[name]] for r in runs]
            row.update(raw_values=raw, raw_spread=spread(raw))
        out[name] = row
    out["host.calib_s"] = [r["diag"]["host.calib_s"] for r in runs]
    out["runs"] = runs
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="*",
                   default=[w["name"] for w in bench["workloads"]])
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for wl in args.workloads:
        runs = [one_run(wl, args.first_seed + i, bench["run_seconds"])
                for i in range(args.runs)]
        report[wl] = summarise(runs, bounds)
        print(f"\n{wl} ({args.runs} runs)")
        print(f"  {'metric':<14} {'bound':>6} {'spread':>8} {'raw':>8}   median")
        for name in bounds:
            row = report[wl][name]
            raw = f"{row['raw_spread']:8.4f}" if "raw_spread" in row else f"{'-':>8}"
            print(f"  {name:<14} {row['bound']:6.3f} {row['spread']:8.4f} {raw}"
                  f"   {row['quartiles'][1]:.6g}")
        calib = report[wl]["host.calib_s"]
        print("  host.calib_s  " + " ".join(f"{c * 1e3:.3f}ms" for c in calib))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steadiness.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
