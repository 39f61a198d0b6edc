"""Per-layer ledger: self time and work counts of each ``repro`` module.

The benchmark does not instrument ``src/``.  Instead it wraps the
public functions of each layer where their callers look them up (a
module global for functions imported by name, the class attribute for
methods) and keeps, per layer, the call count and the *self* time: the
span's duration minus the time spent in wrapped layers it called.  The
benchmark's own unit call is the root span, so the self times of all
layers plus the root's residual (``bench.other``) sum to the unit time.

Spans are aggregated in memory as ``(parent layer, layer)`` edges and
written out once, after the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

ROOT = "bench.other"


def _evals(counts, args, kwargs, out) -> None:
    counts["sim.compiled.replay.evals"] += int(out[1])


def _checkpoint_bytes(counts, args, kwargs, out) -> None:
    counts["leakage.supervisor.save_checkpoint.bytes"] += os.path.getsize(args[0])


#: (layer, module, class or None, attribute names, mode, result hook).
#: Functions imported by name are patched in the module that calls
#: them, so the wrapper sits on the caller's lookup path.
LAYERS: Tuple[Tuple, ...] = (
    ("sim.compiled.replay", "repro.sim.vectorsim", None, ("replay",), "time", _evals),
    ("sim.compiled.compile_schedule", "repro.sim.compiled", None,
     ("compile_schedule",), "time", None),
    ("sim.vectorsim.settle", "repro.sim.vectorsim", "VectorSimulator",
     ("settle",), "time", None),
    ("sim.clocking.step", "repro.sim.clocking", "ClockedHarness", ("step",), "time", None),
    ("sim.power.packed_add", "repro.sim.power", "PackedToggleAccumulator",
     ("add",), "time", None),
    ("sim.bitpack.counter_add", "repro.sim.power", None, ("counter_add",), "count", None),
    ("sim.power.flush", "repro.sim.power", "PackedToggleAccumulator",
     ("flush",), "time", None),
    ("sim.power.record_wire", "repro.sim.power", "PowerRecorder",
     ("record_wire",), "time", None),
    ("des.engines.run_batch", "repro.des.engines", "MaskedDESNetlistEngine",
     ("run_batch",), "time", None),
    ("core.sequences.acquire", "repro.core.sequences", "SequenceSource",
     ("acquire",), "time", None),
    ("leakage.acquisition.run_campaign", "repro.leakage.acquisition", None,
     ("run_campaign",), "time", None),
    ("leakage.acquisition.run_campaign", "repro.core.sequences", None,
     ("run_campaign",), "time", None),
    ("leakage.supervisor.run_campaign_supervised", "repro.leakage.supervisor",
     None, ("run_campaign_supervised",), "time", None),
    ("leakage.tvla.update", "repro.leakage.tvla", "TTestAccumulator", ("update",), "time", None),
    ("leakage.tvla.merge", "repro.leakage.tvla", "TTestAccumulator", ("merge",), "time", None),
    ("leakage.tvla.result", "repro.leakage.tvla", "TTestAccumulator", ("result",), "time", None),
    ("leakage.supervisor.save_checkpoint", "repro.leakage.supervisor", None,
     ("save_checkpoint_supervised",), "time", _checkpoint_bytes),
    ("compile.model.uniformity_defect", "repro.compile.model", None,
     ("uniformity_defect",), "time", None),
    ("compile.model.uniformity_defect", "repro.compile.certify", None,
     ("uniformity_defect",), "time", None),
    ("compile.refresh.plan_refresh", "repro.compile", None, ("plan_refresh",), "time", None),
    ("compile.lower", "repro.compile", None, ("lower",), "time", None),
    ("compile.schedule", "repro.compile", None,
     ("solve_pd_n_luts", "pd_schedule"), "time", None),
    ("compile.emit", "repro.compile", None, ("emit_pd", "emit_ff"), "time", None),
    ("compile.certify", "repro.compile", None, ("certify_netlist",), "time", None),
)

#: Layers whose self time is reported (``<layer>.s``), in report order.
TIMED_LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(spec[0] for spec in LAYERS if spec[4] == "time")
) + (ROOT,)


class Ledger:
    """Call counts, self times and span edges of wrapped layers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._undo: List[Callable[[], None]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.edge_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.edge_n: Counter = Counter()
        self._stack: List[list] = [[ROOT, 0.0]]

    def reset(self) -> None:
        """Clear every tally in place (wrappers keep their references)."""
        for tally in (self.self_s, self.calls, self.counts, self.edge_s, self.edge_n):
            tally.clear()
        self._stack[:] = [[ROOT, 0.0]]

    # ------------------------------------------------------------------
    def timed(self, name: str, fn: Callable, on_result=None) -> Callable:
        """``fn`` wrapped as a span of layer ``name``."""
        clock = self.clock
        ledger = self

        def wrapper(*args, **kwargs):
            stack = ledger._stack
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dt
                ledger.self_s[name] += dt - frame[1]
                ledger.calls[name] += 1
                edge = (parent[0], name)
                ledger.edge_s[edge] += dt
                ledger.edge_n[edge] += 1
            if on_result is not None:
                on_result(ledger.counts, args, kwargs, out)
            return out

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count calls only (too hot to time)."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def root(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` as the root span; returns ``(result, seconds)``.

        The root's self time is everything not inside a wrapped layer.
        """
        self.reset()
        frame = self._stack[0]
        t0 = self.clock()
        out = fn(*args, **kwargs)
        dt = self.clock() - t0
        self.self_s[ROOT] += dt - frame[1]
        return out, dt

    # ------------------------------------------------------------------
    def install(self, layers=LAYERS) -> None:
        """Patch every layer's lookup sites with wrappers."""
        for name, module, owner, attrs, mode, hook in layers:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            if mode == "time":
                wrap = functools.partial(self.timed, name, on_result=hook)
            else:
                wrap = functools.partial(self.counted, name)
            self._undo.extend(patch(target, attr, wrap) for attr in attrs)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def edges(self) -> List[dict]:
        """The aggregated span tree: one record per (parent, layer)."""
        return [
            {"parent": p, "layer": c, "calls": self.edge_n[(p, c)],
             "seconds": self.edge_s[(p, c)]}
            for (p, c) in sorted(self.edge_s)
        ]


def patch(target, attr: str, wrapper_factory: Callable) -> Callable[[], None]:
    """Replace ``target.attr`` with ``wrapper_factory(original)``;
    returns the function that restores it."""
    original = target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)
    setattr(target, attr, wrapper_factory(original))
    return lambda: setattr(target, attr, original)
