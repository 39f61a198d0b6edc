"""Toggle-count power model with optional coupling.

The paper measures the (amplified) power consumption of a Spartan-6
while the masked DES runs, and feeds the samples to TVLA.  Dynamic CMOS
power is dominated by switching activity, and every leakage argument in
the paper (Sec. II-B, II-C, II-D) is a Hamming-distance/toggle argument.
We therefore model instantaneous power as the fanout-weighted number of
signal transitions falling into each time bin:

    P[trace, bin] = sum over transitions (wire w toggles at time t)
                    of weight(w),   bin = t // bin_ps

*Coupling* (Sec. VII-C): the paper attributes the residual first-order
leakage of the secAND2-PD engine to physical coupling between the long
delay lines.  Capacitive (Miller) coupling makes the switching energy of
two adjacent lines depend on whether they switch in the same or opposite
direction.  :class:`CouplingModel` reproduces this: for configured wire
pairs, coincident transitions add an energy term

    c * s_i * s_j,   s = (new - old) ∈ {-1, 0, +1}

which is exactly the mechanism that makes 2-share implementations leak
in the first order even when probing-secure (cf. De Cnudde et al.,
"Does Coupling Affect the Security of Masked Implementations?").
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs.log import get_logger
from ..obs.trace import trace
from .bitpack import COUNTER_EXACT_BITS, counter_add

_LOG = get_logger("sim.power")

__all__ = [
    "CouplingModel",
    "PowerRecorder",
    "PackedToggleAccumulator",
    "NullRecorder",
    "TransientRecorder",
    "default_weights",
    "ClampedEventWarning",
    "PackedAccumulatorOverflowWarning",
    "packed_accumulator_counters",
    "reset_packed_accumulator_counters",
    "toggle_sink",
]


class ClampedEventWarning(RuntimeWarning):
    """A transition fell past the recorder's time window and was clamped
    into the last bin.  Emitted once per recorder (i.e. once per batch —
    engines build a fresh recorder per batch); every clamped event is
    counted in ``recorder.stats["clamped_events"]``."""


class PackedAccumulatorOverflowWarning(RuntimeWarning):
    """A packed counter bin reached ``2**COUNTER_EXACT_BITS``: float32
    can no longer represent every integer count exactly, so bitwise
    equality with the boolean engine's sequential adds is off the
    table.  The flush still deposits the correctly-rounded value (one
    exact-integer -> float32 conversion) instead of drifting."""


#: Registry metric names for the process-wide packed-accumulation
#: telemetry (backed by :mod:`repro.obs.metrics`), surfaced by the
#: throughput bench.  ``max_planes`` is a high-water gauge; the rest
#: are monotone counters — snapshot with
#: :func:`packed_accumulator_counters` and diff around a region.
_M_ACCUMULATORS = "packed_accumulator.accumulators"
_M_FLUSHES = "packed_accumulator.flushes"
_M_MAX_PLANES = "packed_accumulator.max_planes"
_M_OVERFLOW_BINS = "packed_accumulator.overflow_bins"
_M_CLAMPED = "power.clamped_events"
_PACKED_METRIC_NAMES = (
    _M_ACCUMULATORS,
    _M_FLUSHES,
    _M_MAX_PLANES,
    _M_OVERFLOW_BINS,
)


def packed_accumulator_counters() -> Dict[str, int]:
    """Snapshot of the process-wide packed-accumulation counters.

    A stable re-export of the :mod:`repro.obs.metrics` registry
    entries (``packed_accumulator.*``): ``accumulators`` instances
    created, ``flushes`` end-of-batch count deposits, ``max_planes``
    bit-planes of the largest per-bin count seen and ``overflow_bins``
    that crossed the 2^24 exactness bound.
    """
    return {
        "accumulators": int(obs_metrics.counter_value(_M_ACCUMULATORS)),
        "flushes": int(obs_metrics.counter_value(_M_FLUSHES)),
        "max_planes": int(obs_metrics.gauge_value(_M_MAX_PLANES)),
        "overflow_bins": int(obs_metrics.counter_value(_M_OVERFLOW_BINS)),
    }


def reset_packed_accumulator_counters() -> None:
    """Zero the packed-accumulation counters (tests / bench prep)."""
    obs_metrics.reset_metrics(_PACKED_METRIC_NAMES)


@dataclass
class CouplingModel:
    """Pairwise transition coupling between wires.

    Attributes:
        pairs: Wire-id pairs that are physically adjacent (e.g. the
            delay lines of the two shares of one variable in the PD
            S-box delay block, Fig. 11).
        coefficient: Energy added per coincident transition product;
            small relative to the unit toggle energy (physical coupling
            is a second-order effect, which is why the paper only sees
            it after millions of traces).
    """

    pairs: Sequence[Tuple[int, int]]
    coefficient: float = 0.05
    #: Two transitions couple when they happen within this window
    #: (routing skew means "simultaneous" switching is never exact).
    window_ps: int = 150

    def partner_map(self) -> Dict[int, List[int]]:
        pm: Dict[int, List[int]] = {}
        for a, b in self.pairs:
            pm.setdefault(a, []).append(b)
            pm.setdefault(b, []).append(a)
        return pm


def default_weights(fanout: Dict[int, List[int]], n_wires: int) -> np.ndarray:
    """Per-wire toggle energy: 1 + fanout count (capacitance proxy)."""
    w = np.ones(n_wires, dtype=np.float32)
    for wire, readers in fanout.items():
        w[wire] += len(readers)
    return w


class PowerRecorder:
    """Accumulates transition energy into a (n_traces, n_bins) matrix.

    The simulation engines feed it one of two ways (see
    :func:`toggle_sink`): a counting recorder (:attr:`accepts_packed`)
    receives whole toggle-mask batches through its
    :class:`PackedToggleAccumulator`; otherwise every toggling wire
    arrives through :meth:`record_wire` in simulation order, so
    coincident-transition coupling can be evaluated exactly.
    """

    def __init__(
        self,
        n_traces: int,
        total_time_ps: int,
        bin_ps: int = 250,
        weights: Optional[np.ndarray] = None,
        coupling: Optional[CouplingModel] = None,
    ):
        if bin_ps <= 0:
            raise ValueError("bin_ps must be positive")
        self.n_traces = n_traces
        self.bin_ps = bin_ps
        self.n_bins = max(1, -(-total_time_ps // bin_ps))
        self._power = np.zeros((n_traces, self.n_bins), dtype=np.float32)
        self._weights = weights
        self._coupling = coupling
        self._partners = coupling.partner_map() if coupling else {}
        # last transition of each coupled wire: wire -> (t_ps, sign array)
        self._last_transition: Dict[int, Tuple[int, np.ndarray]] = {}
        #: Observability counters; ``clamped_events`` counts recorded
        #: calls whose time fell past the window (see
        #: :class:`ClampedEventWarning`), the ``overflow_bins`` /
        #: ``max_counter_planes`` pair mirrors the packed accumulator.
        self.stats: Dict[str, int] = {
            "clamped_events": 0,
            "overflow_bins": 0,
            "max_counter_planes": 0,
        }
        self._clamp_warned = False
        self._packed_acc: Optional["PackedToggleAccumulator"] = None

    @property
    def power(self) -> np.ndarray:
        """The accumulated (n_traces, n_bins) power matrix.

        Reading it flushes any pending packed counts first, so
        callers always see the complete batch.
        """
        if self._packed_acc is not None:
            self._packed_acc.flush()
        return self._power

    @property
    def accepts_packed(self) -> bool:
        """Whether this is a *counting* recorder: engines may hand it
        whole toggle masks through :meth:`packed_accumulator` instead of
        the ordered per-wire :meth:`record_wire` stream.

        Requires toggle-count-only semantics (no coupling partners —
        coupling needs per-trace transition *signs* in order) and
        weights that are small non-negative integers, so integer
        accumulation stays bitwise-equal to sequential float32 adds
        (see ``COUNTER_EXACT_BITS``).
        """
        if self._partners:
            return False
        if self._weights is not None:
            w = self._weights
            if (
                not np.all(w == np.floor(w))
                or np.any(w < 0)
                or np.any(w >= 2**COUNTER_EXACT_BITS)
            ):
                return False
        return True

    def packed_accumulator(
        self, n_traces: int, lanes: Optional[int] = None
    ) -> Optional["PackedToggleAccumulator"]:
        """The counting sink for this recorder, or ``None``.

        Engines call this once per settle/replay; the accumulator is
        reused across calls within a batch and flushed lazily when
        :attr:`power` / :meth:`samples` is read.  Returns ``None`` when
        :attr:`accepts_packed` is false — callers must then use the
        ordered :meth:`record_wire` stream.  ``lanes`` (the masks' lane
        count) is not needed: counts are kept per trace.
        """
        if not self.accepts_packed:
            return None
        if n_traces != self.n_traces:
            raise ValueError(
                f"recorder holds {self.n_traces} traces, "
                f"packed batch has {n_traces}"
            )
        if self._packed_acc is None:
            self._packed_acc = PackedToggleAccumulator(self)
        return self._packed_acc

    def _note_clamped(self, t_ps, count: int = 1) -> None:
        self.stats["clamped_events"] += count
        obs_metrics.inc(_M_CLAMPED, count)
        if not self._clamp_warned:
            self._clamp_warned = True
            msg = (
                f"transition at t={t_ps} ps falls past the recorder "
                f"window ({self.n_bins * self.bin_ps} ps); clamping "
                "into the last bin (all such events are counted in "
                "stats['clamped_events'])"
            )
            _LOG.warning("%s", msg)
            warnings.warn(msg, ClampedEventWarning, stacklevel=4)

    def _weight(self, wire: int) -> float:
        if self._weights is None:
            return 1.0
        return float(self._weights[wire])

    def record_wire(
        self, t_ps, wire: int, toggled: np.ndarray, new: np.ndarray
    ) -> None:
        """Fast path: one wire's (pre-computed) transitions at ``t_ps``.

        ``toggled`` must be ``old ^ new`` and already known non-zero.
        """
        b = int(t_ps // self.bin_ps)
        if b >= self.n_bins:
            self._note_clamped(t_ps)
            b = self.n_bins - 1
        self._power[:, b] += toggled * np.float32(self._weight(wire))
        if self._partners and wire in self._partners:
            old = new ^ toggled
            sign = new.astype(np.int8) - old.astype(np.int8)
            self._couple_wire(self._power[:, b], t_ps, wire, sign)

    def _couple_wire(
        self, col: np.ndarray, t_ps, wire: int, sign: np.ndarray
    ) -> None:
        window = self._coupling.window_ps
        c = self._coupling.coefficient
        for partner in self._partners[wire]:
            last = self._last_transition.get(partner)
            if last is None or t_ps - last[0] > window:
                continue
            # Opposite-direction switching charges the Miller cap:
            # more energy; same direction: less.  Sign convention is
            # irrelevant for TVLA; magnitude is what leaks.
            col -= c * (sign * last[1]).astype(np.float32)
        self._last_transition[wire] = (t_ps, sign)

    def add_energy(self, t_ps, energy: np.ndarray) -> None:
        """Deposit pre-summed energy ``(n_traces,)`` at ``t_ps``.

        A direct column add for callers that compute their own energy;
        the simulation engines record through :meth:`record_wire` or
        :meth:`packed_accumulator` instead.
        """
        b = int(t_ps // self.bin_ps)
        if b >= self.n_bins:
            self._note_clamped(t_ps)
            b = self.n_bins - 1
        self._power[:, b] += energy

    def record_batch(
        self, t_ps: int, changes: Dict[int, Tuple[np.ndarray, np.ndarray]]
    ) -> None:
        """Record several wires' transitions at time ``t_ps``.

        Args:
            t_ps: Absolute simulation time of the transitions.
            changes: wire id -> (old_values, new_values) boolean arrays;
                only traces where old != new toggled.
        """
        for wire, (old, new) in changes.items():
            toggled = old ^ new
            if toggled.any():
                self.record_wire(t_ps, wire, toggled, new)

    def samples(self) -> np.ndarray:
        """Alias of :attr:`power` (TVLA vocabulary)."""
        return self.power


class PackedToggleAccumulator:
    """Exact integer power accumulation for counting recorders.

    Each engine call hands over *all* its live toggle rows at once —
    ``(k, n_lanes)`` uint64 masks, or ``(k, n_traces)`` boolean rows
    from the boolean engine — with their times and wires.  :meth:`add`
    maps times to bins and lets :func:`repro.sim.bitpack.counter_add`
    sum the rows weighted by ``1 + fanout`` (a packed segmented
    carry-save adder per (bin, weight bit) for large batches) into
    exact int64 per-bin, per-trace counts.  :meth:`flush` casts
    the counts to float32 into the recorder's power matrix exactly once
    per batch — bitwise-identical to the boolean engine's sequential
    float32 adds while per-bin counts stay below
    ``2**COUNTER_EXACT_BITS`` (guarded loudly, see
    :class:`PackedAccumulatorOverflowWarning`).

    Obtain instances via :meth:`PowerRecorder.packed_accumulator`, not
    directly — the recorder owns flushing and the compatibility check.
    """

    def __init__(self, recorder: PowerRecorder):
        # A proxy, not a reference: the recorder already holds its
        # accumulator, and a reference cycle would keep every batch's
        # power matrix alive until the cyclic garbage collector runs.
        self.recorder = weakref.proxy(recorder)
        self.bin_ps = recorder.bin_ps
        self.n_bins = recorder.n_bins
        w = recorder._weights
        self._weights = None if w is None else w.astype(np.int64)
        #: (n_bins, n_traces) exact counts, allocated on the first add
        self._counts: Optional[np.ndarray] = None
        self._touched = np.zeros(self.n_bins, dtype=bool)
        obs_metrics.inc(_M_ACCUMULATORS)

    def add(self, t_ps, wires, toggled, rows=None) -> None:
        """Accumulate toggle masks: mask ``toggled[rows[i]]`` is wire
        ``wires[i]``'s ``old ^ new`` at absolute time ``t_ps[i]``.

        ``rows`` defaults to every row of ``toggled`` in order; scalars
        are accepted for a single row.  ``toggled`` holds uint64 lanes
        (pad bits ride along harmlessly — they are dropped when counts
        are unpacked) or boolean per-trace rows.
        """
        t = np.atleast_1d(np.asarray(t_ps, dtype=np.float64))
        wires = np.atleast_1d(np.asarray(wires, dtype=np.intp))
        if not len(wires):
            return
        masks = np.asarray(toggled)
        masks = masks.reshape(-1, masks.shape[-1])
        if rows is None:
            rows = np.arange(len(wires))
        bins = (t // self.bin_ps).astype(np.intp)
        clamped = bins >= self.n_bins
        if clamped.any():
            self.recorder._note_clamped(
                t[clamped][0].item(), int(np.count_nonzero(clamped))
            )
            bins[clamped] = self.n_bins - 1
        if self._counts is None:
            self._counts = np.zeros(
                (self.n_bins, self.recorder.n_traces), dtype=np.int64
            )
        self._touched[bins] = True
        counter_add(
            self._counts,
            masks,
            bins,
            None if self._weights is None else self._weights[wires],
            rows,
        )

    def flush(self) -> None:
        """Deposit every pending bin count into the recorder's float32
        power matrix and release the counts.  Idempotent."""
        touched = np.flatnonzero(self._touched)
        if not len(touched):
            return
        with trace("power.flush", bins=len(touched)):
            rec = self.recorder
            obs_metrics.inc(_M_FLUSHES)
            # Bins between the first and last touched one are flushed
            # as one slice; untouched bins in it add exact zeros.
            span = slice(touched[0], touched[-1] + 1)
            counts = self._counts[span]
            top = counts.max(axis=1)
            depth = int(top.max()).bit_length()
            rec.stats["max_counter_planes"] = max(
                rec.stats["max_counter_planes"], depth
            )
            obs_metrics.max_gauge(_M_MAX_PLANES, depth)
            for b in np.flatnonzero(top >= (1 << COUNTER_EXACT_BITS)):
                obs_metrics.inc(_M_OVERFLOW_BINS)
                rec.stats["overflow_bins"] += 1
                msg = (
                    f"packed counter for bin {span.start + b} reached "
                    f"{int(top[b])} >= 2^{COUNTER_EXACT_BITS}: "
                    "beyond the float32 exactness bound.  The flushed "
                    "value is correctly rounded (single int->float32 "
                    "conversion) but may differ bitwise from the "
                    "boolean engine's sequential accumulation"
                )
                _LOG.warning("%s", msg)
                warnings.warn(
                    msg, PackedAccumulatorOverflowWarning, stacklevel=3
                )
            # int64 -> float32 is a single correct rounding; below the
            # exactness bound it is the exact integer either way.
            rec._power[:, span] += counts.T.astype(np.float32)
            # Released, not zeroed: the counts are as large as the
            # power matrix and a batch flushes once.
            self._counts = None
            self._touched[:] = False


def toggle_sink(recorder, n_traces: int):
    """Where an engine call sends its toggles: ``(accumulator,
    record_wire)``, at most one of them set.

    Counting recorders (:attr:`PowerRecorder.accepts_packed`) get their
    :class:`PackedToggleAccumulator`; every other recorder gets its
    ordered per-update ``record_wire`` stream; ``None`` and null
    recorders get neither.
    """
    if recorder is None or getattr(recorder, "is_null", False):
        return None, None
    if getattr(recorder, "accepts_packed", False):
        acc = recorder.packed_accumulator(n_traces)
        if acc is not None:
            return acc, None
    return None, recorder.record_wire


class TransientRecorder:
    """Captures every wire transition verbatim instead of binning energy.

    Where :class:`PowerRecorder` collapses transitions into a power
    trace, this recorder keeps the full ``(time, wire, toggled, new)``
    event stream — the raw material of a *glitch-extended probe*
    (:mod:`repro.verify`): the complete transient value sequence each
    wire takes while the logic settles.

    It is not a counting recorder, so both boolean engines (interpreted
    and compiled replay) hand it the ordered per-wire ``record_wire``
    stream.  The bit-packed engine (``pack_traces=True``) is refused —
    the simulator checks :attr:`requires_transients` and raises before
    simulating (see :mod:`repro.sim.bitpack`).
    """

    #: The simulator keeps the exact boolean transient path for this
    #: recorder: packed simulation raises instead of silently handing
    #: it lane words.
    requires_transients = True

    def __init__(self) -> None:
        #: ``(t_ps, wire, toggled, new)`` in simulation order; ``toggled``
        #: and ``new`` are per-trace boolean arrays (copies).
        self.events: List[Tuple[float, int, np.ndarray, np.ndarray]] = []

    def record_wire(
        self, t_ps, wire: int, toggled: np.ndarray, new: np.ndarray
    ) -> None:
        self.events.append((t_ps, int(wire), toggled.copy(), new.copy()))

    def record_batch(
        self, t_ps: int, changes: Dict[int, Tuple[np.ndarray, np.ndarray]]
    ) -> None:
        for wire, (old, new) in changes.items():
            toggled = old ^ new
            if toggled.any():
                self.record_wire(t_ps, wire, toggled, new)


class NullRecorder:
    """A recorder that discards everything (pure functional simulation).

    Both simulation engines check :attr:`is_null` and skip *all*
    recording work for this recorder — no toggle-energy arithmetic, no
    unpacking of packed lanes — so functional replay with a
    ``NullRecorder`` costs exactly as much as passing no recorder while
    keeping a recorder-shaped object in APIs that require one.
    """

    #: Engines treat the recorder as absent: transitions are neither
    #: unpacked nor weighted.  The no-op methods below still exist for
    #: callers that record unconditionally.
    is_null = True

    n_bins = 0

    def record_batch(self, t_ps: int, changes) -> None:
        pass

    def record_wire(self, t_ps, wire, toggled, new) -> None:
        pass

    def add_energy(self, t_ps, energy) -> None:
        pass
