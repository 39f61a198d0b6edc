"""The benchmark's four workloads, their set-up and their checks.

Every unit of a workload repeats the same campaign or compiler pass on
inputs derived from the run's seed, so units do identical work and must
produce bitwise-identical results.  Everything is in-process and serial
(``n_workers=1``).

* ``des_ff_packed`` — the FF masked-DES engine at the Fig. 14
  geometry: one 4000-trace bit-packed batch per unit, sigma = 2.0.
* ``des_pd_coupled`` — the PD engine with Fig. 17 coupling (c = 2.0,
  sigma = 2.0) through the supervisor, 2 x 256 traces per unit with a
  checkpoint after every batch.  Coupling declines packing, so this is
  the boolean replay path.
* ``compile_paper_suite`` — ``compile_spec`` + ``certify()`` over the
  ten targets of ``python -m repro compile --suite paper``.
* ``table1_sequences`` — ``run_table1`` over all 24 secAND2 arrival
  orders at the Table I budget (30k traces each).

Checks run outside the timed region, on inputs and outputs captured by
wrappers around the functions that produce them.
"""

from __future__ import annotations

import hashlib
import os
import random
import statistics
import warnings
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from harness import Calibrator, Piece
from ledger import patch

from repro.compile import certify, compile_spec, model
from repro.compile.cli import SUITE_PAPER, _target_spec
from repro.core import sequences
from repro.des.engines import DESTraceSource, MaskedDESNetlistEngine
from repro.des.reference import des_encrypt_bits
from repro.leakage import acquisition, supervisor
from repro.leakage.acquisition import CampaignConfig
from repro.leakage.tvla import TTestAccumulator
from repro.netlist.area import report as area_report
from repro.sim import compiled, vectorsim
from repro.sim.bitpack import AutoPackFallbackWarning
from repro.sim.compiled import schedule_cache_counters

#: Check tolerances against the two-pass reference, as a share of
#: ``max(1, |t_ref|)``.  Raw-moment t1/t2 lose about eps * mu^4 / var^2
#: to cancellation, far below these; t3 is reported, not checked.
T1_TOL = 1e-7
T2_TOL = 1e-5


# ----------------------------------------------------------------------
# capture and reference checks
# ----------------------------------------------------------------------
class Capture:
    """Inputs and outputs of campaign units, taken by wrappers.

    Results are always recorded (digests of every unit); ciphertexts and
    traces only while :attr:`active` (the first timed unit).
    """

    def __init__(self):
        self.active = False
        self.results: list = []
        self.batches: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.campaigns: List[Tuple[list, object]] = []
        self._updates: list = []
        self._restore: List[Callable[[], None]] = []

    def install(self, des: bool) -> None:
        cap = self

        def on_update(fn):
            def update(acc, traces, fixed_mask):
                if cap.active:
                    cap._updates.append((traces, fixed_mask))
                return fn(acc, traces, fixed_mask)
            return update

        def on_result(fn):
            def result(acc, *args, **kwargs):
                out = fn(acc, *args, **kwargs)
                cap.results.append(out)
                if cap.active:
                    cap.campaigns.append((cap._updates, out))
                cap._updates = []
                return out
            return result

        def on_run_batch(fn):
            def run_batch(engine, pt_bits, key_bits, *args, **kwargs):
                out = fn(engine, pt_bits, key_bits, *args, **kwargs)
                if cap.active:
                    cap.batches.append((pt_bits, key_bits, out[0]))
                return out
            return run_batch

        self._restore.append(patch(TTestAccumulator, "update", on_update))
        self._restore.append(patch(TTestAccumulator, "result", on_result))
        if des:
            self._restore.append(
                patch(MaskedDESNetlistEngine, "run_batch", on_run_batch)
            )

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def take_results(self) -> list:
        out, self.results = self.results, []
        return out


def _welch(a: Tuple[np.ndarray, np.ndarray, int], b) -> np.ndarray:
    (ma, va, na), (mb, vb, nb) = a, b
    denom = np.sqrt(va / na + vb / nb)
    t = np.zeros_like(ma)
    ok = denom > 0
    t[ok] = (ma[ok] - mb[ok]) / denom[ok]
    return t


def two_pass_t(traces: np.ndarray, fixed_mask: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Orders 1..3 Welch t from centred two-pass float64 statistics
    (population variances, as the streaming accumulator defines them)."""
    per_class = []
    for sel in (fixed_mask, ~fixed_mask):
        x = traces[sel].astype(np.float64)
        n = x.shape[0]
        d = x - x.mean(axis=0)
        var = (d * d).mean(axis=0)
        y2 = d * d
        m2 = y2.mean(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = d / np.sqrt(var)
        z[:, var == 0] = 0.0
        y3 = z * z * z
        m3 = y3.mean(axis=0)
        per_class.append((
            (x.mean(axis=0), var, n),
            (m2, ((y2 - m2) ** 2).mean(axis=0), n),
            (m3, ((y3 - m3) ** 2).mean(axis=0), n),
        ))
    f, r = per_class
    return tuple(_welch(f[k], r[k]) for k in range(3))


def rel_err(t: np.ndarray, ref: np.ndarray) -> float:
    """Max error of ``t`` against ``ref`` as a share of ``max(1, |ref|)``."""
    return float(np.max(np.abs(t - ref) / np.maximum(1.0, np.abs(ref))))


def check_campaigns(capture: Capture) -> Tuple[List[Tuple[str, bool]], float]:
    """t1/t2 of every captured campaign against the two-pass reference.

    Returns the checks and the largest relative t3 error (reported as
    ``tvla_t3_err``; the raw-moment t3 is a known defect, not a check).
    """
    checks = []
    t3_err = 0.0
    for i, (updates, result) in enumerate(capture.campaigns):
        traces = np.concatenate([u[0] for u in updates])
        mask = np.concatenate([u[1] for u in updates]).astype(bool)
        r1, r2, r3 = two_pass_t(traces, mask)
        checks.append((f"campaign{i}.t1", rel_err(result.t1, r1) <= T1_TOL))
        checks.append((f"campaign{i}.t2", rel_err(result.t2, r2) <= T2_TOL))
        t3_err = max(t3_err, rel_err(result.t3, r3))
    return checks, t3_err


def tvla_digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(str(r.n_traces).encode())
        for t in (r.t1, r.t2, r.t3):
            h.update(np.ascontiguousarray(t).tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """One workload: set-up, the timed unit, digests and checks."""

    name = ""
    why = ""
    #: Items (traces or certified targets) one unit produces.
    items = 0
    #: Whole set-ups timed per run (``setup_s`` is their median).
    setup_reps = 25
    #: Whether timed units must not compile schedules.
    warm_cache = False
    #: Schedule compiles of one set-up, and their normalised seconds.
    setup_compiles = 0
    setup_compile_s = 0.0

    def __init__(self, seed: int, small: bool, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.capture = Capture()
        #: Output of a unit run during set-up (checked for repeats).
        self.warm_output = None
        #: Result digest of every unit, in order.
        self.digests: List[str] = []
        #: ``(normalised, wall)`` seconds of each set-up.
        self.setups: List[Tuple[float, float]] = []

    def setup(self, cal: Calibrator, reps: int) -> List[Tuple[float, float]]:
        """Run the set-up ``reps`` times; ``(normalised, wall)`` seconds
        of each."""
        totals = []
        for _ in range(reps):
            _, piece = cal.timed("setup.build", self.build, collect=False)
            totals.append((piece.norm_s, piece.wall_s))
        return totals

    def build(self):
        raise NotImplementedError

    def unit(self):
        raise NotImplementedError

    def unit_digest(self, output) -> str:
        raise NotImplementedError

    def checks(self, outputs: list) -> List[Tuple[str, bool]]:
        """Checks of the captured outputs; run after the timed region."""
        raise NotImplementedError

    def quality(self, output) -> Dict[str, float]:
        """Model-output metrics of one unit (deterministic): ``ge_total``,
        ``fresh_bits_total``, ``tvla_t3_err`` and ``paper_mismatches``."""
        raise NotImplementedError

    def close(self) -> None:
        self.capture.uninstall()


class _DesWorkload(Workload):
    """Shared set-up and checks of the two masked-DES workloads."""

    warm_cache = True
    setup_reps = 3
    variant = ""
    coupling = 0.0

    def __init__(self, seed: int, small: bool, out_dir: str):
        super().__init__(seed, small, out_dir)
        rng = np.random.default_rng([seed, 0xDE5])
        self.fixed_plaintext = int(rng.integers(0, 2**63)) << 1 | 1
        self.key = int(rng.integers(0, 2**63)) << 1
        self.capture.install(des=True)
        self.engine: Optional[MaskedDESNetlistEngine] = None

    def build(self) -> MaskedDESNetlistEngine:
        """Netlist construction and STA (the engine's constructor)."""
        if self.variant == "pd":
            return MaskedDESNetlistEngine("pd", n_luts=10)
        return MaskedDESNetlistEngine("ff")

    def setup(self, cal: Calibrator, reps: int) -> List[Tuple[float, float]]:
        """Build the engine, then warm it with one full unit.

        ``DESTraceSource.warmup()`` simulates one trace and misses
        schedules a full batch needs, so the set-up runs the unit
        itself; its compiles are timed as set-up pieces (the simulation
        between them is not).  Further set-ups rebuild the netlist and
        recompile the captured patterns.
        """
        engine, build = cal.timed("setup.build", self.build, collect=False)
        self.engine = engine
        self.source = DESTraceSource(
            engine, self.fixed_plaintext, self.key,
            coupling_coefficient=self.coupling,
        )
        calls: list = []
        pieces: List[Piece] = []

        def timed_compile(fn):
            def compile_schedule(*args, **kwargs):
                out, piece = cal.timed("setup.compile", fn, *args, collect=False, **kwargs)
                calls.append(args)
                pieces.append(piece)
                return out
            return compile_schedule

        restore = patch(compiled, "compile_schedule", timed_compile)
        try:
            self.warm_output = self.unit()
        finally:
            restore()
        self.capture.take_results()
        cal.invalidate()
        self.setup_compiles = len(calls)
        sets = [[build] + pieces]
        for _ in range(1, reps):
            _, build = cal.timed("setup.build", self.build, collect=False)
            sets.append([build] + [
                cal.timed("setup.compile", compiled.compile_schedule, *args,
                          collect=False)[1]
                for args in calls
            ])
        self.setup_compile_s = statistics.median(
            sum(p.norm_s for p in s[1:]) for s in sets
        )
        return [(sum(p.norm_s for p in s), sum(p.wall_s for p in s)) for s in sets]

    def unit_digest(self, output) -> str:
        self.capture.take_results()
        return tvla_digest([output])

    def checks(self, outputs: list) -> List[Tuple[str, bool]]:
        out = []
        for i, (pt, key, ct) in enumerate(self.capture.batches):
            out.append((f"batch{i}.ciphertexts", np.array_equal(ct, des_encrypt_bits(pt, key))))
        campaign_checks, self.t3_err = check_campaigns(self.capture)
        return out + campaign_checks

    def quality(self, output) -> Dict[str, float]:
        return {
            "ge_total": area_report(self.engine.circuit).area_ge,
            "fresh_bits_total": float(len(self.engine.rand_wires)),
            "tvla_t3_err": self.t3_err,
            "paper_mismatches": 0.0,
        }


class DesFFPacked(_DesWorkload):
    name = "des_ff_packed"
    why = ("FF masked DES, one 4000-trace packed batch per unit: compiled "
           "replay, packed counter planes and FF sampling")
    variant = "ff"

    def __init__(self, seed: int, small: bool, out_dir: str):
        super().__init__(seed, small, out_dir)
        n = 128 if small else 4000
        self.items = n
        self.config = CampaignConfig(
            n_traces=n, batch_size=n, noise_sigma=2.0, seed=seed,
            label="bench des_ff_packed", pack_traces="auto",
        )

    def unit(self):
        return acquisition.run_campaign(self.source, self.config, n_workers=1)


class DesPDCoupled(_DesWorkload):
    name = "des_pd_coupled"
    why = ("PD masked DES with Fig. 17 coupling under the supervisor: boolean "
           "replay, per-wire power recording, checkpoints")
    variant = "pd"
    coupling = 2.0
    #: each set-up recompiles 36 schedules (~4.5 s); two keep the run short
    setup_reps = 2

    def __init__(self, seed: int, small: bool, out_dir: str):
        super().__init__(seed, small, out_dir)
        batch = 32 if small else 256
        self.items = 2 * batch
        self.config = CampaignConfig(
            n_traces=2 * batch, batch_size=batch, noise_sigma=2.0, seed=seed,
            label="bench des_pd_coupled", pack_traces="auto",
        )
        self.checkpoint = os.path.join(out_dir, f"des_pd_{os.getpid()}.npz")
        warnings.simplefilter("ignore", AutoPackFallbackWarning)

    def unit(self):
        os.makedirs(self.out_dir, exist_ok=True)
        return supervisor.run_campaign_supervised(
            self.source, self.config, self.checkpoint, n_workers=1,
            checkpoint_every=1, resume=False, cleanup=True,
        )


class CompilePaperSuite(Workload):
    name = "compile_paper_suite"
    why = ("compile_spec + certify over the 10 paper targets: no campaign, "
           "no event replay; refresh search dominates")

    def __init__(self, seed: int, small: bool, out_dir: str):
        super().__init__(seed, small, out_dir)
        names = ["des0", "present"] if small else list(SUITE_PAPER)
        random.Random(seed).shuffle(names)
        self.names = names
        self.items = len(names)

    def build(self):
        """The suite's truth-table specs."""
        return [(n, _target_spec(n)) for n in self.names]

    def setup(self, cal: Calibrator, reps: int) -> List[Tuple[float, float]]:
        totals = super().setup(cal, reps)
        self.targets = self.build()
        return totals

    def unit(self):
        out = []
        for name, spec in self.targets:
            result = compile_spec(spec, style="pd", margin_ps=50)
            cert = result.certify()
            out.append((name, cert.ok, cert.cost.area_ge, cert.cost.fresh_bits,
                        cert.cost.n_ff, cert.cost.n_lut, result.n_luts))
        return out

    def unit_digest(self, output) -> str:
        return hashlib.sha256(repr(output).encode()).hexdigest()

    def checks(self, outputs: list) -> List[Tuple[str, bool]]:
        return [(f"{row[0]}.certified", bool(row[1])) for row in outputs[0]]

    def quality(self, output) -> Dict[str, float]:
        return {
            "ge_total": float(sum(row[2] for row in output)),
            "fresh_bits_total": float(sum(row[3] for row in output)),
            "tvla_t3_err": 0.0,
            "paper_mismatches": 0.0,
        }


class Table1Sequences(Workload):
    name = "table1_sequences"
    why = ("Table I: 24 secAND2 arrival orders x 30k traces; campaign "
           "runner, noise and t-test updates dominate")

    def __init__(self, seed: int, small: bool, out_dir: str):
        super().__init__(seed, small, out_dir)
        seqs = sequences.ALL_SEQUENCES
        self.sequences = (seqs[0], seqs[1], seqs[-2], seqs[-1]) if small else seqs
        self.items = 30000 * len(self.sequences)
        self.capture.install(des=False)

    def build(self):
        """The per-order gadget banks ``run_table1`` builds."""
        return [sequences.SequenceSource(s) for s in self.sequences]

    def unit(self):
        return sequences.run_table1(self.sequences, seed=self.seed)

    def unit_digest(self, output) -> str:
        return tvla_digest(self.capture.take_results()) + hashlib.sha256(
            repr(output).encode()).hexdigest()

    def checks(self, outputs: list) -> List[Tuple[str, bool]]:
        out = [(">".join(v.sequence) + ".verdict", v.matches_paper)
               for v in outputs[0]]
        campaign_checks, self.t3_err = check_campaigns(self.capture)
        return out + campaign_checks

    def quality(self, output) -> Dict[str, float]:
        return {
            "ge_total": 0.0,
            "fresh_bits_total": 0.0,
            "tvla_t3_err": self.t3_err,
            "paper_mismatches": float(sum(not v.matches_paper for v in output)),
        }


#: Layer boundaries where a running unit takes its in-unit kernel
#: samples (see :class:`harness.Calibrator`): every cycle of the
#: simulator, and every uniformity check of the compiler.
TICK_SITES = (
    (vectorsim.VectorSimulator, "settle"),
    (model, "uniformity_defect"),
    (certify, "uniformity_defect"),
)


def install_ticks(cal: Calibrator) -> Callable[[], None]:
    """Call ``cal.tick()`` at every tick site; returns the undo."""

    def ticking(fn):
        def wrapper(*args, **kwargs):
            cal.tick()
            return fn(*args, **kwargs)
        return wrapper

    undo = [patch(owner, attr, ticking) for owner, attr in TICK_SITES]
    return lambda: [u() for u in reversed(undo)]


WORKLOADS = {
    w.name: w
    for w in (DesFFPacked, DesPDCoupled, CompilePaperSuite, Table1Sequences)
}


def compiles() -> int:
    """Process-wide schedule compiles so far (the repo's own counter)."""
    return schedule_cache_counters()["compiles"]
