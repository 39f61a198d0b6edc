"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 repobench/run.py --workload des_ff_packed --seed 1 --seconds 10 --trace 0

``--trace 0`` times whole units untraced for ``--seconds`` and reports
the end-to-end metrics.  ``--trace 1`` reruns one unit untraced and two
traced under the layer ledger and reports the per-layer metrics.  The
last line of standard output is one JSON object; the line before it,
prefixed ``# diag``, carries raw diagnostics (unnormalised times, each
unit's calibration, the model-output metrics).  The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

WORKLOAD_NAMES = (
    "des_ff_packed", "des_pd_coupled", "compile_paper_suite", "table1_sequences",
)

#: End-to-end metrics: name -> unit.
END_TO_END = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}

#: Test-only corruptions of a captured output, applied after the timed
#: region and before the checks; each must make the run fail.
CORRUPTIONS = ("ciphertext", "trace")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "small"), default="full",
                   help="'small' shrinks every workload (for the tests)")
    p.add_argument("--corrupt", choices=CORRUPTIONS, default=None,
                   help="corrupt a captured output before the checks (tests)")
    return p.parse_args(argv)


def per_layer_units():
    """Per-layer metrics: name -> unit, in report order."""
    from ledger import LAYERS, TIMED_LAYERS

    units = {f"{layer}.s": "s" for layer in TIMED_LAYERS}
    for layer in dict.fromkeys(spec[0] for spec in LAYERS):
        units[f"{layer}.calls"] = "count"
    units.update({
        "sim.compiled.replay.evals": "count",
        "sim.compiled.replay.evals_per_s": "1/s",
        "sim.compiled.compile_schedule.lazy_calls": "count",
        "sim.compiled.compile_schedule.setup_s": "s",
        "leakage.supervisor.save_checkpoint.bytes": "B",
        "ge_total": "GE",
        "fresh_bits_total": "bits",
        "tvla_t3_err": "ratio",
        "paper_mismatches": "count",
        "trace.overhead": "ratio",
        "trace.unit_s": "s",
        "host.calib_s": "s",
        "host.wall_unit_s": "s",
    })
    return units


def corrupt(wl, what: str) -> None:
    cap = wl.capture
    if what == "ciphertext" and cap.batches:
        ct = cap.batches[0][2]
        ct[0, 0] = not ct[0, 0]
    elif what == "trace" and cap.campaigns:
        traces = cap.campaigns[0][0][0][0]
        traces[0] += 1000.0


def timed_unit(wl, cal, label, fn):
    """One unit between calibration points; ``(output, piece, schedule
    compiles inside the unit)``."""
    from workloads import compiles

    c0 = compiles()
    out, piece = cal.timed(label, fn)
    return out, piece, compiles() - c0


def measure(wl, cal, args, checks):
    """``--trace 0``: timed units until ``--seconds`` have passed."""
    units = []
    t_end = time.perf_counter() + args.seconds
    wl.capture.active = True
    while not units or time.perf_counter() < t_end:
        units.append(timed_unit(wl, cal, "unit", wl.unit))
        wl.capture.active = False
        wl.digests.append(wl.unit_digest(units[-1][0]))
    if wl.warm_cache:
        checks += [(f"unit{i}.lazy_compiles", u[2] == 0) for i, u in enumerate(units)]
    norm = [u[1].norm_s for u in units]
    wall = [u[1].wall_s for u in units]
    metrics = {
        "items_per_s": wl.items / statistics.median(norm),
        "setup_s": statistics.median(s[0] for s in wl.setups),
    }
    diag = {
        "units": len(units),
        "items_per_unit": wl.items,
        "raw.items_per_s": wl.items / statistics.median(wall),
        "raw.setup_s": statistics.median(s[1] for s in wl.setups),
        "host.calib_s": cal.calib_s,
        "host.wall_unit_s": statistics.median(wall),
        "unit.norm_s": norm,
        "unit.wall_s": wall,
        "unit.calib_s": [u[1].calib_s for u in units],
        "setup.norm_s": [s[0] for s in wl.setups],
        "setup.wall_s": [s[1] for s in wl.setups],
    }
    return metrics, diag, [u[0] for u in units]


def traced(wl, cal, args, checks):
    """``--trace 1``: one untraced unit, then two under the ledger."""
    from harness import C_REF, Calibrator
    from ledger import TIMED_LAYERS, Ledger

    CALIB = "bench.calib"

    wl.capture.active = True
    out, base, lazy = timed_unit(wl, cal, "unit.untraced", wl.unit)
    wl.capture.active = False
    wl.digests.append(wl.unit_digest(out))
    lazies = [lazy]
    ledger = Ledger()

    def traced_unit():
        res, dt = ledger.root(wl.unit)
        calib = ledger.self_s.pop(CALIB, 0.0)
        ledger.calls.pop(CALIB, None)
        return res, {
            "seconds": dt - calib, "calib_inside_s": calib,
            "self_s": dict(ledger.self_s), "calls": dict(ledger.calls),
            "counts": dict(ledger.counts), "edges": ledger.edges(),
        }

    snaps = []
    ledger.install()
    # in-unit kernel samples get a span of their own, kept out of the
    # layers they interrupt
    cal.sample = ledger.timed(CALIB, Calibrator.sample.__get__(cal))
    try:
        for _ in range(2):
            (res, snap), piece, lazy = timed_unit(wl, cal, "unit.traced", traced_unit)
            snap["calib_s"] = piece.calib_s
            snaps.append(snap)
            wl.digests.append(wl.unit_digest(res))
            lazies.append(lazy)
    finally:
        del cal.sample
        ledger.uninstall()

    if wl.warm_cache:
        checks += [(f"unit{i}.lazy_compiles", n == 0) for i, n in enumerate(lazies)]
    a, b = snaps
    checks.append(("trace.counts_repeat", a["calls"] == b["calls"] and a["counts"] == b["counts"]))
    for i, s in enumerate(snaps):
        total = sum(s["self_s"].values())
        checks.append((f"trace{i}.self_sum", abs(total - s["seconds"]) <= 1e-6 * s["seconds"]))

    def norm(s, seconds):
        return seconds * C_REF / s["calib_s"]

    metrics = {
        f"{layer}.s": statistics.mean(norm(s, s["self_s"].get(layer, 0.0)) for s in snaps)
        for layer in TIMED_LAYERS
    }
    for name in per_layer_units():
        if name.endswith(".calls"):
            metrics[name] = a["calls"].get(name[: -len(".calls")], 0)
    for key in ("sim.compiled.replay.evals", "leakage.supervisor.save_checkpoint.bytes"):
        metrics[key] = a["counts"].get(key, 0)
    replay_s = metrics.get("sim.compiled.replay.s", 0.0)
    metrics["sim.compiled.replay.evals_per_s"] = (
        metrics["sim.compiled.replay.evals"] / replay_s if replay_s else 0.0)
    lazy_calls = a["calls"].get("sim.compiled.compile_schedule", 0)
    metrics["sim.compiled.compile_schedule.lazy_calls"] = lazy_calls
    metrics["sim.compiled.compile_schedule.calls"] = wl.setup_compiles + lazy_calls
    metrics["sim.compiled.compile_schedule.setup_s"] = wl.setup_compile_s
    unit_s = statistics.mean(norm(s, s["seconds"]) for s in snaps)
    metrics["trace.unit_s"] = unit_s
    metrics["trace.overhead"] = unit_s / base.norm_s - 1.0
    metrics["host.calib_s"] = cal.calib_s
    metrics["host.wall_unit_s"] = base.wall_s

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace.json")
    with open(path, "w") as fh:
        json.dump({"workload": wl.name, "seed": args.seed, "c_ref": C_REF,
                   "untraced_unit_s": base.wall_s, "traced_units": snaps}, fh, indent=1)
    diag = {"trace_file": os.path.relpath(path, ROOT),
            "untraced.wall_s": base.wall_s, "untraced.norm_s": base.norm_s}
    return metrics, diag, [out]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from the root of "
              "a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from harness import Calibrator, peak_rss_mb
    from workloads import WORKLOADS, install_ticks

    wl = WORKLOADS[args.workload](args.seed, args.scale == "small", OUT_DIR)
    cal = Calibrator()
    untick = install_ticks(cal)
    try:
        # setup_s is an end-to-end metric; a traced run sets up once
        wl.setups = wl.setup(cal, 1 if args.trace else wl.setup_reps)
        cal.invalidate()
        if wl.warm_output is not None:
            wl.digests.append(wl.unit_digest(wl.warm_output))
        checks = []
        run = traced if args.trace else measure
        metrics, diag, outputs = run(wl, cal, args, checks)
        if args.corrupt:
            corrupt(wl, args.corrupt)
        checks += wl.checks(outputs)
        checks += [(f"repeat{i}.bitwise", d == wl.digests[0])
                   for i, d in enumerate(wl.digests[1:])]
        quality = wl.quality(outputs[0])
    finally:
        untick()
        wl.close()

    if args.trace:
        metrics.update(quality)
        units = per_layer_units()
    else:
        metrics["peak_rss_mb"] = peak_rss_mb()
        diag.update(quality)
        units = END_TO_END
    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"check failed: {name}", file=sys.stderr)
    diag["failed_checks"] = failed
    print("# diag " + json.dumps(diag))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
