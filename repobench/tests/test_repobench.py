"""Tests of the benchmark itself (not collected by the repository's
tier-1 suite; run with ``python3 -m pytest repobench/tests -q``).

The scaled-down runs use ``--scale small`` (fewer traces, fewer
targets, four arrival orders); the masked-DES runs still simulate all
sixteen rounds, so each takes tens of seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import harness  # noqa: E402
import run  # noqa: E402
from ledger import ROOT as LEDGER_ROOT, Ledger  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "repobench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def small(workload, *extra):
    return bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--scale", "small", *extra)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_small_run_passes_its_checks(workload):
    code, result, err = small(workload, "--trace", "0")
    assert code == 0, err
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, unit in run.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0


def test_small_traced_run_reports_every_layer():
    code, result, err = small("table1_sequences", "--trace", "1")
    assert code == 0, err
    metrics = result["metrics"]
    assert set(metrics) == set(run.per_layer_units())
    # 4 arrival orders, one schedule each, compiled inside the unit
    assert metrics["sim.compiled.compile_schedule.lazy_calls"]["value"] == 4
    assert metrics["core.sequences.acquire.calls"]["value"] > 0
    assert metrics["paper_mismatches"]["value"] == 0


def test_flipped_ciphertext_bit_fails_the_run():
    code, result, _ = small("des_ff_packed", "--corrupt", "ciphertext")
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1


def test_perturbed_trace_fails_the_run():
    code, result, _ = small("table1_sequences", "--corrupt", "trace")
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "repobench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, result, err = bench("--workload", "table1_sequences", "--seed", "1",
                              "--seconds", "1", cwd=str(tmp_path))
    assert code != 0 and result is None
    assert "repro" in err


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


# ----------------------------------------------------------------------
# fake-clock tests: normalisation and per-piece statistics
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_normalisation_uses_samples_around_and_inside_the_piece():
    clock = FakeClock()
    costs = iter([0.002] * 3 + [0.004, 0.004] + [0.006] * 3)
    cal = harness.Calibrator(
        clock=clock, kernel_fn=lambda: clock.advance(next(costs)),
        samples_per_point=3, interval_s=1.0, c_ref=0.003,
    )

    def piece():
        clock.advance(0.5)
        cal.tick()  # too early: interval not reached
        clock.advance(1.0)
        cal.tick()  # samples (0.004 s, taken off the piece)
        clock.advance(1.0)
        cal.tick()  # 1.0 s since the last sample ended: samples again
        clock.advance(0.5)
        return "done"

    out, p = cal.timed("unit", piece)
    assert out == "done"
    assert p.n_inside == 2
    assert p.wall_s == pytest.approx(3.0)
    # median of 0.002 x3, 0.004 x2, 0.006 x3
    assert p.calib_s == pytest.approx(0.004)
    assert p.norm_s == pytest.approx(3.0 * 0.003 / 0.004)
    assert cal.samples == pytest.approx([0.002] * 3 + [0.004] * 2 + [0.006] * 3)
    # no piece running: ticks are ignored
    cal.tick()
    assert len(cal.samples) == 8


def test_point_after_a_piece_is_reused_before_the_next():
    clock = FakeClock()
    costs = iter([0.001] * 3 + [0.002] * 3 + [0.003] * 3)
    cal = harness.Calibrator(clock=clock, kernel_fn=lambda: clock.advance(next(costs)),
                             samples_per_point=3, c_ref=0.002)
    _, a = cal.timed("a", clock.advance, 1.0)
    _, b = cal.timed("b", clock.advance, 2.0)
    assert a.calib_s == pytest.approx(0.0015)
    assert b.calib_s == pytest.approx(0.0025)
    assert b.norm_s == pytest.approx(2.0 * 0.002 / 0.0025)
    assert harness.spread([a.norm_s, b.norm_s]) > 0
    assert harness.quartiles([1.0, 2.0, 3.0, 4.0]) == [1.25, 2.5, 3.75]


def test_ledger_self_times_sum_to_the_root():
    clock = FakeClock()
    ledger = Ledger(clock=clock)

    def leaf():
        clock.advance(0.25)

    leaf_w = ledger.timed("leaf", leaf)
    counted = ledger.counted("tick", lambda: None)

    def mid():
        clock.advance(1.0)
        leaf_w()
        counted()
        leaf_w()

    mid_w = ledger.timed("mid", mid)

    def unit():
        clock.advance(0.5)
        mid_w()
        leaf_w()

    _, dt = ledger.root(unit)
    assert dt == pytest.approx(2.25)
    assert ledger.self_s["leaf"] == pytest.approx(0.75)
    assert ledger.self_s["mid"] == pytest.approx(1.0)
    assert ledger.self_s[LEDGER_ROOT] == pytest.approx(0.5)
    assert sum(ledger.self_s.values()) == pytest.approx(dt)
    assert ledger.calls == {"leaf": 3, "mid": 1, "tick": 1}
    assert {(e["parent"], e["layer"]): e["calls"] for e in ledger.edges()} == {
        ("mid", "leaf"): 2, (LEDGER_ROOT, "leaf"): 1, (LEDGER_ROOT, "mid"): 1,
    }
    # a rerun starts from zero
    ledger.root(unit)
    assert ledger.calls["leaf"] == 3
