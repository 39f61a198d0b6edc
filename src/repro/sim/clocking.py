"""Multi-cycle clocked simulation harness.

Drives a circuit containing flip-flops through clock cycles on top of
the vectorised glitch simulator:

* at each rising edge, every FF samples the D (and EN) value that had
  settled by the end of the previous cycle; changed Q outputs are
  injected as events at ``CLK_TO_Q_PS``;
* primary-input changes are injected according to a per-cycle schedule
  (this is how the paper's controlled input sequences — one share per
  cycle, Sec. II-B — and the PD design's staggered arrivals are driven);
* all transitions of the cycle are recorded into the shared power trace
  at absolute time ``cycle * period + t``.

The harness also supports synchronous FF reset (secAND2-FF "must be
reset between successive computations", Sec. II-C) and checks that the
combinational logic settles within the clock period (the PD design's
DelayUnits push the period up — Table III's 21 MHz).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..netlist.circuit import Circuit, Gate
from ..netlist.timing import CLK_TO_Q_PS
from .bitpack import pack_scalar, unpack_bool
from .power import PowerRecorder
from .vectorsim import InputEvent, VectorSimulator

__all__ = ["ClockedHarness", "TimingViolation"]


class TimingViolation(RuntimeError):
    """Combinational logic did not settle within the clock period."""


class ClockedHarness:
    """Cycle-driver around :class:`VectorSimulator`.

    Args:
        circuit: Netlist (may contain DFF/DFFE cells).
        n_traces: Number of parallel stimuli.
        period_ps: Clock period; transitions later than this within a
            cycle raise :class:`TimingViolation` when ``check_timing``.
        check_timing: Enforce the period (default True).
        period_schedule: Optional per-cycle clock periods (ps) — cycle
            ``i`` lasts ``period_schedule[i]``, modelling clock jitter
            (see :func:`repro.faults.models.clock_jitter_periods`).
            Cycles beyond the schedule fall back to ``period_ps``.
            Event times stay relative to each cycle's own edge; the
            absolute power-trace offset accumulates the actual periods.
        compile_schedules: Record each cycle's event schedule on first
            use and replay it for subsequent batches (default True; see
            :mod:`repro.sim.compiled`).  Cycles driven with the same
            input-event timing pattern — the common case in campaigns,
            where every batch replays the same control sequence — then
            skip the interpreted event loop entirely.
        pack_traces: Bit-packed execution mode, forwarded to
            :class:`VectorSimulator` (``False`` / ``True`` / ``"auto"``;
            see :mod:`repro.sim.bitpack`).  FF state is then held as
            ``uint64`` lanes too, and clock-edge sampling runs bitwise.
    """

    def __init__(
        self,
        circuit: Circuit,
        n_traces: int,
        period_ps: int,
        check_timing: bool = True,
        compile_schedules: bool = True,
        period_schedule: Optional[Sequence[int]] = None,
        pack_traces: "bool | str" = False,
    ):
        self.sim = VectorSimulator(
            circuit,
            n_traces,
            compile_schedules=compile_schedules,
            pack_traces=pack_traces,
        )
        self.period_ps = period_ps
        self.period_schedule = (
            None if period_schedule is None else [int(p) for p in period_schedule]
        )
        if self.period_schedule is not None and any(
            p <= 0 for p in self.period_schedule
        ):
            raise ValueError("period_schedule entries must be positive")
        self.check_timing = check_timing
        self.cycle = 0
        self._t_offset_ps = 0
        self._ffs: List[Gate] = circuit.ff_gates()
        self._ff_index = {g.name: i for i, g in enumerate(self._ffs)}
        # Clock-edge gather tables: every FF's D and output wire, and
        # the FFs with an enable pin (DFFE) with their EN wire.
        self._ff_d = np.asarray([g.inputs[0] for g in self._ffs], np.intp)
        self._ff_out = [g.output for g in self._ffs]
        self._ffe = np.asarray(
            [i for i, g in enumerate(self._ffs) if g.cell.name == "DFFE"],
            dtype=np.intp,
        )
        self._ffe_en = np.asarray(
            [self._ffs[i].inputs[1] for i in self._ffe], dtype=np.intp
        )
        if self.sim.packed:
            self._ff_q = np.zeros(
                (len(self._ffs), self.sim.n_lanes), dtype=np.uint64
            )
        else:
            self._ff_q = np.zeros((len(self._ffs), n_traces), dtype=bool)
        # FFs may declare a reset_group param; step() can synchronously
        # reset whole groups (the paper resets the secAND2-FF gadget
        # flip-flops between computations, Sec. II-C).
        self._reset_groups: Dict[str, List[int]] = {}
        for i, g in enumerate(self._ffs):
            group = g.params.get("reset_group")
            if group is not None:
                self._reset_groups.setdefault(str(group), []).append(i)
        self.last_settle_ps = 0

    @property
    def circuit(self) -> Circuit:
        return self.sim.circuit

    @property
    def n_traces(self) -> int:
        return self.sim.n_traces

    def total_time_ps(self, n_cycles: int) -> int:
        """Trace length for a :class:`PowerRecorder` covering n cycles."""
        if self.period_schedule is None:
            return n_cycles * self.period_ps
        sched = self.period_schedule[:n_cycles]
        return sum(sched) + max(0, n_cycles - len(sched)) * self.period_ps

    def cycle_period_ps(self, cycle: int) -> int:
        """Actual period of the given cycle (schedule-aware)."""
        if self.period_schedule is not None and cycle < len(self.period_schedule):
            return self.period_schedule[cycle]
        return self.period_ps

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Asynchronous global reset: all wires and FF state to 0."""
        self.sim.reset_state(False)
        self._ff_q[:] = False
        self.cycle = 0
        self._t_offset_ps = 0

    def force_ffs(self, value: bool = False) -> None:
        """Synchronously force every FF's stored state (no events)."""
        if self.sim.packed:
            self._ff_q[:] = pack_scalar(value, 1)[0]
        else:
            self._ff_q[:] = value

    def preload(
        self,
        ff_values: Dict[str, np.ndarray],
        input_values: Optional[Dict[int, np.ndarray]] = None,
    ) -> None:
        """Initialise register contents and primary inputs *silently*.

        Sets FF state (by gate name) and input wires, then evaluates the
        combinational logic once with zero delay so every wire holds a
        consistent value.  No events, no power — this models the
        untraced load phase before the measured operation starts.
        """
        for name, vals in ff_values.items():
            i = self._ff_index[name]
            v = np.asarray(vals, dtype=bool)
            coerced = self.sim._coerce(v if v.ndim else bool(v))
            self._ff_q[i] = coerced
            self.sim.values[self._ffs[i].output] = coerced
        inputs = dict(input_values or {})
        self.sim.evaluate_combinational(inputs)

    def ff_state(self, name: str) -> np.ndarray:
        """Current stored boolean value of the named FF (copy)."""
        i = self._ff_index[name]
        if self.sim.packed:
            return unpack_bool(self._ff_q[i], self.n_traces)
        return self._ff_q[i].copy()

    # ------------------------------------------------------------------
    def _sample_ffs(
        self, reset: bool, reset_groups: Iterable[str]
    ) -> List[InputEvent]:
        """Clock edge: sample D/EN, emit Q-change events at CLK_TO_Q.

        One gather of every D (and DFFE EN) row, a bitwise DFFE mux
        ``(en & d) | (~en & q)`` — bitwise in packed mode too, so pad
        bits keep shadowing the last real trace — and one changed-row
        test.  Events come out in FF index order.
        """
        q = self._ff_q
        vals = self.sim.values
        new_q = vals[self._ff_d]
        if len(self._ffe):
            en = vals[self._ffe_en]
            held = q[self._ffe]
            new_q[self._ffe] = (en & new_q[self._ffe]) | (~en & held)
        if reset:
            new_q[:] = 0
        else:
            for grp in reset_groups:
                new_q[self._reset_groups.get(grp, [])] = 0
        changed = np.flatnonzero((new_q != q).any(axis=1))
        q[changed] = new_q[changed]
        return [
            (CLK_TO_Q_PS, self._ff_out[i], new_q[i]) for i in changed.tolist()
        ]

    def step(
        self,
        input_events: Iterable[InputEvent] = (),
        recorder: Optional[PowerRecorder] = None,
        reset_ffs: bool = False,
        reset_groups: Iterable[str] = (),
    ) -> None:
        """Advance one clock cycle.

        Args:
            input_events: ``(t_ps, wire, values)`` with ``t_ps`` relative
                to this cycle's clock edge.
            recorder: Power recorder (absolute-time binning).
            reset_ffs: Apply synchronous reset this edge (all FFs -> 0).
            reset_groups: Names of FF reset groups (``reset_group``
                gate param) to reset this edge — e.g. the secAND2-FF
                gadget flip-flops at the start of each round.
        """
        events = self._sample_ffs(reset=reset_ffs, reset_groups=reset_groups)
        events.extend(input_events)
        period = self.cycle_period_ps(self.cycle)
        settle = self.sim.settle(
            events, recorder=recorder, t_offset=self._t_offset_ps
        )
        self.last_settle_ps = settle
        if self.check_timing and settle >= period:
            raise TimingViolation(
                f"cycle {self.cycle}: logic settled at {settle} ps "
                f">= period {period} ps"
            )
        self.cycle += 1
        self._t_offset_ps += period

    def run(
        self,
        schedule: Sequence[Iterable[InputEvent]],
        recorder: Optional[PowerRecorder] = None,
    ) -> None:
        """Run one cycle per entry of ``schedule``."""
        for cycle_events in schedule:
            self.step(cycle_events, recorder=recorder)

    # ------------------------------------------------------------------
    def wire_values(self, wire: int) -> np.ndarray:
        return self.sim.wire_values(wire)

    def output_values(self) -> Dict[str, np.ndarray]:
        return self.sim.output_values()
