"""Schedule compiler + level-parallel replay engine.

Every leakage campaign re-simulates the *same* circuit with the *same*
input-event timing pattern thousands of times — only the per-trace data
changes.  Because cell delays are data-independent, the whole
event-driven control flow of :meth:`VectorSimulator.settle` (which gate
re-evaluates at which instant, where its output lands) is identical
across batches.  The interpreted loop nevertheless re-derives it every
call through a heap and per-event dicts, which is pure-Python overhead.

This module removes that overhead:

* :func:`compile_schedule` runs the scheduling algorithm **once**,
  symbolically, over every *potential* event, and records the result as
  a flat *level program*: each potential gate evaluation reads its
  input pins from the update (or start-of-call wire value) that pin
  sees, and evaluations are grouped by (DAG level, cell function) into
  index arrays.  Jittered delays make nearly every instant unique, but
  the evaluation DAG of a clock cycle stays as shallow as the logic
  (at most 11 levels for the masked DES).
* :func:`replay` evaluates **every** potential evaluation with one
  numpy call per (level, cell) group into an ``(n_rows, n_lanes)``
  value matrix, derives every toggle mask with one gather (each update
  XOR the previous value of the same wire), and reads liveness, event
  counts and the settle time off those masks.

Exactness
---------
Replay is *transition-for-transition identical* to the interpreted
loop: same final wire values, same ordered stream of toggling updates,
same ``events_processed``, same settle time, same budget errors.  The
interpreter evaluates a gate only when one of its inputs toggled in at
least one trace; replay evaluates it unconditionally.  That is safe
because a skipped evaluation is a no-op:

* if gate ``g`` is potentially evaluated at ``t`` but none of its
  inputs toggled there, its inputs still hold the values of its last
  real evaluation (any later toggle would have triggered a real one),
  or the start-of-call values if it never ran;
* so the skipped evaluation recomputes the value that evaluation
  scheduled — or, with no real evaluation, the gate's current output,
  because the gate started *consistent*;
* with a single driver per wire and fixed delays, that value lands on
  a wire already holding it: a phantom update that toggles nothing, is
  never recorded and makes no fanout evaluation live.

Liveness follows from the toggle masks: an evaluation is live iff one
of the updates triggering it toggled in some trace, and an update is
real iff it is an input event or its producer is live.  The live count
is ``events_processed``; the last real update is the settle time.

Preconditions, checked rather than assumed:

* **single driver, fixed delays** — structural properties of every
  :class:`~repro.netlist.circuit.Circuit` (delays are baked in at
  build time, see "Cache invalidation");
* **no input event on a gate output** — :func:`compile_schedule`
  returns ``None`` (interpret) for patterns that drive the output of a
  gate they also evaluate;
* **consistent start** — every gate the program evaluates must output
  ``f(inputs)`` when the call starts.  Replay checks this with one numpy
  call per cell function; a stale gate (e.g. after
  :meth:`~repro.sim.vectorsim.VectorSimulator.reset_state`) makes that
  call run the interpreted loop instead, which feeds the same recorder
  sink.  A settle that ran to quiescence leaves every gate it touched
  consistent, so campaigns replay every cycle after the first preload.

Order: updates of one instant are listed in the interpreter's
scheduling order, which follows the fanout of the updates that
*toggled*.  Where a live evaluation was first reached through an update
that did not toggle, the interpreter orders that instant's outputs
differently; counting recorders do not care, but a call that feeds an
ordered ``record_wire`` stream then runs the interpreted loop.

If the event budget runs out, the call also runs the interpreted loop,
which raises its :class:`~repro.sim.vectorsim.SimulationError` at the
same instant, naming the same wires.

Cache invalidation
------------------
Compiled programs are cached per circuit, keyed by the input-event
timing pattern ``((t0, wire0), (t1, wire1), ...)``.  The cache is
dropped whenever the circuit's structural token changes
(:meth:`Circuit.structural_token` — gate count, wire count *and* a
per-gate delay fingerprint) and is bounded LRU.  Per-instance routing
jitter is baked into the gate delays at build time, so a compiled
schedule stays valid for the lifetime of a build, exactly like a
placed-and-routed bitstream; a delay edit (a fault-perturbed copy from
:mod:`repro.faults`) changes the token and starts from an empty cache.

Process model
-------------
The cache lives in a module-level registry keyed by circuit *identity*
(a ``WeakKeyDictionary``), never as circuit state.  That makes it

* **fork-safe** — a forked campaign worker inherits the parent's warm
  cache through copy-on-write memory, so batches replay instead of
  recompiling (see :func:`repro.leakage.acquisition._init_worker`);
* **spawn-safe** — pickling a circuit (e.g. the trace source shipped
  to a ``spawn`` pool) never drags compiled programs, which hold
  unpicklable numpy/closure state, through the pickle stream; a
  spawned worker simply starts cold and warms itself once.

Campaign runners can :func:`pin_schedule_cache` a warmed circuit: any
structural edit afterwards makes the next lookup raise
:class:`StaleScheduleError` instead of silently recompiling — a
mid-campaign netlist edit is a bug (the shards would mix two different
devices), not a cache miss.
"""

from __future__ import annotations

import heapq
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics as obs_metrics

__all__ = [
    "CompiledSchedule",
    "StaleScheduleError",
    "compile_schedule",
    "lookup_or_compile",
    "schedule_cache_info",
    "schedule_cache_counters",
    "pin_schedule_cache",
    "unpin_schedule_cache",
    "replay",
]

#: Bound on the number of *potential* gate evaluations a compiled
#: schedule may contain, as a multiple of the interpreter's default
#: event budget.  Patterns exceeding it fall back to interpretation.
_COMPILE_BUDGET_FACTOR = 1

#: Maximum number of distinct timing patterns cached per circuit.
_CACHE_CAPACITY = 128

#: Updates per gather when replay XORs toggle masks.
_CHUNK = 2048


def _scratch(workspace: dict, name: str, shape, dtype) -> np.ndarray:
    """A ``shape`` buffer named ``name`` in ``workspace``, grown on
    demand and reused by later calls."""
    size = int(np.prod(shape))
    buf = workspace.get(name)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = workspace[name] = np.empty(size, dtype=dtype)
    return buf[:size].reshape(shape)


def _gather(workspace: dict, name: str, source, index) -> np.ndarray:
    """``source[index]`` into the workspace buffer ``name``."""
    shape = index.shape + source.shape[1:]
    out = _scratch(workspace, name, shape, source.dtype)
    return np.take(source, index, axis=0, out=out, mode="clip")


@dataclass
class _EvalGroup:
    """Every potential evaluation of one cell function at one DAG level.

    Its outputs fill the contiguous value rows ``lo:hi``.
    """

    evaluate: Callable[..., np.ndarray]
    pins: np.ndarray  #: (n_pins, g) value rows read by each input pin
    lo: int
    hi: int


@dataclass
class _GateCheck:
    """The program's gates of one cell function (consistency check)."""

    evaluate: Callable[..., np.ndarray]
    in_wires: np.ndarray  #: (n_pins, g)
    out_wires: np.ndarray  #: (g,)


@dataclass
class CompiledSchedule:
    """A replayable level program for one timing pattern.

    Value rows: ``[0, n_start)`` hold the start-of-call values of
    ``start_wires``, the next ``len(pattern)`` rows the input events in
    event order, the rest the outputs of the evaluation groups.
    Updates are listed in the interpreter's processing order (time,
    then scheduling order within an instant).
    """

    pattern: Tuple[Tuple[float, int], ...]
    comb_fanout: Dict[int, List[int]]
    n_rows: int
    start_wires: np.ndarray  #: (n_start,) wires read at their call-start value
    groups: List[_EvalGroup]  #: in level order
    checks: List[_GateCheck]
    upd_times: List[float]  #: time of each update (the pattern's own types)
    upd_t: np.ndarray  #: the same times as float64
    upd_wire: np.ndarray  #: (n_upd,) wire written by each update
    upd_new: np.ndarray  #: (n_upd,) value row written
    upd_old: np.ndarray  #: (n_upd,) value row the wire held before
    upd_eval: np.ndarray  #: (n_upd,) producing evaluation, -1 for inputs
    trig_eval: np.ndarray  #: (n_trig,) evaluation triggered ...
    trig_upd: np.ndarray  #: ... by this same-instant update of an input
    #: (n_evals,) the first update of its instant that triggers each
    #: evaluation — what placed it in the fanout-dedup order
    first_trig: np.ndarray
    final_wires: np.ndarray  #: wires updated by the program ...
    final_rows: np.ndarray  #: ... and the row of their last update
    n_levels: int  #: depth of the evaluation DAG
    n_potential_evals: int  #: size of the conservative schedule

    @property
    def n_dispatches(self) -> int:
        """Numpy evaluation calls per replay: one per (level, cell)."""
        return len(self.groups)

    def is_consistent(
        self, values: np.ndarray, workspace: Optional[dict] = None
    ) -> bool:
        """Whether every gate the program evaluates outputs ``f(inputs)``
        in ``values`` — the precondition of unconditional evaluation."""
        ws = {} if workspace is None else workspace
        for chk in self.checks:
            ins = _gather(ws, "pins", values, chk.in_wires)
            if not np.array_equal(chk.evaluate(*ins), values[chk.out_wires]):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"CompiledSchedule({self.n_potential_evals} potential evals in "
            f"{self.n_levels} levels / {self.n_dispatches} dispatches, "
            f"{len(self.upd_times)} updates)"
        )


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
def compile_schedule(
    circuit,
    comb_fanout: Dict[int, List[int]],
    pattern: Sequence[Tuple[float, int]],
    max_evals: Optional[int] = None,
) -> Optional[CompiledSchedule]:
    """Run the event scheduler symbolically and record its level program.

    Mirrors ``VectorSimulator.settle`` exactly — same heap order, same
    pending-update overwrite rule (last write wins, original insertion
    position kept), same fanout-dedup order — but propagates *potential*
    changes instead of values.

    Args:
        circuit: The netlist (delays already include routing jitter).
        comb_fanout: wire id -> combinational reader gate indices (FF
            inputs excluded, as in the simulator).
        pattern: ``(time, wire)`` of each input event, in event order.
        max_evals: Abort threshold; returns ``None`` when the
            conservative schedule grows past it (oscillating or
            pathological patterns fall back to interpretation).

    Returns:
        The compiled program, or ``None`` if compilation was abandoned
        (budget exceeded, or an input event drives the output of a gate
        the program evaluates).
    """
    gates = circuit.gates
    if max_evals is None:
        max_evals = _COMPILE_BUDGET_FACTOR * (64 * max(1, len(gates)) + 64)
    pattern = tuple(pattern)
    n_wires = circuit.n_wires
    # Source ids: wire w's start-of-call value is w, input event i is
    # n_wires + i, evaluation e is base + e.
    base = n_wires + len(pattern)
    event_wires = {w for _, w in pattern}

    # pending[t] = {wire: source} — dict preserves the interpreter's
    # insertion order; overwriting keeps the original position, exactly
    # like the interpreter's ``slot[wire] = vals``.
    pending: Dict[float, Dict[int, int]] = {}
    heap: List[float] = []
    queued: set = set()
    for i, (t, wire) in enumerate(pattern):
        pending.setdefault(t, {})[wire] = n_wires + i
        if t not in queued:
            queued.add(t)
            heapq.heappush(heap, t)

    cur: Dict[int, int] = {}  # wire -> source of its latest update
    upd_times: List[float] = []
    upd_wire: List[int] = []
    upd_new: List[int] = []
    upd_old: List[int] = []
    e_gate: List[int] = []
    e_pins: List[List[int]] = []
    e_level: List[int] = []
    trig_eval: List[int] = []
    trig_upd: List[int] = []
    e_first: List[int] = []
    while heap:
        t = heapq.heappop(heap)
        queued.discard(t)
        updates = pending.pop(t)
        pos: Dict[int, int] = {}
        affected: List[int] = []
        for wire, src in updates.items():
            pos[wire] = len(upd_times)
            upd_times.append(t)
            upd_wire.append(wire)
            upd_new.append(src)
            upd_old.append(cur.get(wire, wire))
            cur[wire] = src
            readers = comb_fanout.get(wire)
            if readers:
                affected.extend(readers)
        for gi in dict.fromkeys(affected):
            e = len(e_gate)
            if e >= max_evals:
                return None
            g = gates[gi]
            if g.output in event_wires:
                return None
            pins = [cur.get(w, w) for w in g.inputs]
            level = 0
            for src in pins:
                if src >= base:
                    lv = e_level[src - base]
                    if lv > level:
                        level = lv
            e_gate.append(gi)
            e_pins.append(pins)
            e_level.append(level + 1)
            first = len(upd_times)
            for w in g.inputs:
                u = pos.get(w)
                if u is not None:
                    trig_eval.append(e)
                    trig_upd.append(u)
                    first = min(first, u)
            e_first.append(first)
            tn = t + g.delay_ps
            d = pending.get(tn)
            if d is None:
                pending[tn] = {g.output: base + e}
            else:
                d[g.output] = base + e
            if tn not in queued:
                queued.add(tn)
                heapq.heappush(heap, tn)
    return _assemble(
        circuit, comb_fanout, pattern, base, cur, upd_times, upd_wire,
        upd_new, upd_old, e_gate, e_pins, e_level, e_first, trig_eval,
        trig_upd,
    )


def _assemble(
    circuit, comb_fanout, pattern, base, cur, upd_times, upd_wire,
    upd_new, upd_old, e_gate, e_pins, e_level, e_first, trig_eval, trig_upd,
) -> CompiledSchedule:
    """Turn the symbolic run's lists into the flat level program."""
    gates = circuit.gates
    n_wires = circuit.n_wires
    n_events = len(pattern)
    n_evals = len(e_gate)
    intp = np.intp

    # (level, cell function) groups, in level order.
    funcs: Dict[Callable, int] = {}
    e_func = [
        funcs.setdefault(gates[gi].cell.evaluate, len(funcs)) for gi in e_gate
    ]
    key = np.asarray(e_level, dtype=intp) * max(1, len(funcs))
    key += np.asarray(e_func, dtype=intp)
    order = np.argsort(key, kind="stable")
    bounds = (np.flatnonzero(np.diff(key[order])) + 1).tolist()
    lo_hi = list(zip([0, *bounds], [*bounds, n_evals])) if n_evals else []
    evaluates = list(funcs)
    order_list = order.tolist()
    group_pins = [
        np.asarray([e_pins[e] for e in order_list[lo:hi]], dtype=intp).T
        for lo, hi in lo_hi
    ]

    # Source id -> value row.  Only wires actually read at their
    # start-of-call value get a start row.
    upd_old_a = np.asarray(upd_old, dtype=intp)
    used = np.zeros(n_wires, dtype=bool)
    used[upd_old_a[upd_old_a < n_wires]] = True
    for pins in group_pins:
        used[pins[pins < n_wires]] = True
    start_wires = np.flatnonzero(used)
    n_start = len(start_wires)
    row_of = np.empty(base + n_evals, dtype=intp)
    row_of[start_wires] = np.arange(n_start)
    row_of[n_wires:base] = np.arange(n_start, n_start + n_events)
    first_eval_row = n_start + n_events
    row_of[base + order] = np.arange(first_eval_row, first_eval_row + n_evals)

    groups = [
        _EvalGroup(
            evaluate=evaluates[int(key[order[lo]]) % len(evaluates)],
            pins=row_of[pins],
            lo=first_eval_row + lo,
            hi=first_eval_row + hi,
        )
        for (lo, hi), pins in zip(lo_hi, group_pins)
    ]

    by_func: Dict[Callable, List[int]] = {}
    for gi in dict.fromkeys(e_gate):
        by_func.setdefault(gates[gi].cell.evaluate, []).append(gi)
    checks = [
        _GateCheck(
            evaluate=fn,
            in_wires=np.asarray([gates[g].inputs for g in gis], dtype=intp).T,
            out_wires=np.asarray([gates[g].output for g in gis], dtype=intp),
        )
        for fn, gis in by_func.items()
    ]

    upd_new_a = np.asarray(upd_new, dtype=intp)
    upd_eval = upd_new_a - base
    upd_eval[upd_eval < 0] = -1
    return CompiledSchedule(
        pattern=pattern,
        comb_fanout=comb_fanout,
        n_rows=first_eval_row + n_evals,
        start_wires=start_wires,
        groups=groups,
        checks=checks,
        upd_times=upd_times,
        upd_t=np.asarray(upd_times, dtype=np.float64),
        upd_wire=np.asarray(upd_wire, dtype=intp),
        upd_new=row_of[upd_new_a],
        upd_old=row_of[upd_old_a],
        upd_eval=upd_eval,
        trig_eval=np.asarray(trig_eval, dtype=intp),
        trig_upd=np.asarray(trig_upd, dtype=intp),
        first_trig=np.asarray(e_first, dtype=intp),
        final_wires=np.asarray(list(cur), dtype=intp),
        final_rows=row_of[np.asarray(list(cur.values()), dtype=intp)],
        n_levels=max(e_level, default=0),
        n_potential_evals=n_evals,
    )


# ----------------------------------------------------------------------
# per-circuit cache (process-local registry)
# ----------------------------------------------------------------------
class StaleScheduleError(RuntimeError):
    """A pinned schedule cache was invalidated by a structural edit.

    Raised by :func:`lookup_or_compile` when a circuit that was pinned
    (typically by a campaign warm-up) no longer matches its structural
    token: silently recompiling would let a campaign mix shards from
    two *different* devices under test.
    """


@dataclass
class _CircuitCache:
    """Schedule cache of one circuit build, plus usage counters."""

    token: Tuple
    programs: "OrderedDict" = field(default_factory=OrderedDict)
    hits: int = 0
    compiles: int = 0
    pinned: bool = False


#: circuit identity -> its schedule cache.  Keyed weakly so dropping a
#: circuit drops its programs; never stored on the circuit itself (see
#: "Process model" in the module docstring).
_CACHES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

#: Registry metric names for the per-process totals across all
#: circuits (backed by :mod:`repro.obs.metrics`).  Campaign workers
#: snapshot these around each batch to report compile-vs-replay
#: behaviour.
_METRIC_HITS = "schedule_cache.hits"
_METRIC_COMPILES = "schedule_cache.compiles"


def _structural_token(circuit):
    token = getattr(circuit, "structural_token", None)
    if token is not None:
        return token()
    return (len(circuit.gates), circuit.n_wires)  # pragma: no cover


def _cache_for(circuit) -> _CircuitCache:
    """The circuit's schedule cache, invalidated on structural change."""
    token = _structural_token(circuit)
    cache = _CACHES.get(circuit)
    if cache is None or cache.token != token:
        if cache is not None and cache.pinned:
            raise StaleScheduleError(
                f"circuit {getattr(circuit, 'name', '?')!r} was "
                "structurally edited after its schedule cache was pinned "
                "(mid-campaign netlist edit?); refusing to recompile — "
                "unpin_schedule_cache() to accept the new structure"
            )
        cache = _CircuitCache(token)
        _CACHES[circuit] = cache
    return cache


def lookup_or_compile(
    circuit,
    comb_fanout: Dict[int, List[int]],
    pattern: Tuple[Tuple[float, int], ...],
) -> Optional[CompiledSchedule]:
    """Cached :func:`compile_schedule`; ``None`` means "interpret this".

    Failed compilations are cached too, so a pathological pattern costs
    the compile attempt only once.

    Raises:
        StaleScheduleError: The circuit's cache is pinned and its
            structural token no longer matches (see
            :func:`pin_schedule_cache`).
    """
    cache = _cache_for(circuit)
    programs = cache.programs
    if pattern in programs:
        programs.move_to_end(pattern)
        cache.hits += 1
        obs_metrics.inc(_METRIC_HITS)
        return programs[pattern]
    schedule = compile_schedule(circuit, comb_fanout, pattern)
    cache.compiles += 1
    obs_metrics.inc(_METRIC_COMPILES)
    programs[pattern] = schedule
    if len(programs) > _CACHE_CAPACITY:
        programs.popitem(last=False)
    return schedule


def pin_schedule_cache(circuit) -> None:
    """Pin the circuit's (possibly still empty) schedule cache.

    After pinning, a structural edit of the circuit turns the next
    :func:`lookup_or_compile` into a :class:`StaleScheduleError` instead
    of a silent recompile.  Campaign warm-ups pin the circuits they
    warmed so a mid-campaign netlist edit cannot produce shards of two
    different devices.
    """
    _cache_for(circuit).pinned = True


def unpin_schedule_cache(circuit) -> None:
    """Undo :func:`pin_schedule_cache` (no-op if never pinned)."""
    cache = _CACHES.get(circuit)
    if cache is not None:
        cache.pinned = False


def schedule_cache_info(circuit) -> Dict[str, int]:
    """Diagnostics: cached patterns / programs and usage counters.

    Returns ``patterns`` (cached timing patterns), ``compiled``
    (patterns with a compiled program; the rest fell back to the
    interpreter), ``hits`` / ``compiles`` (lifetime lookup counters of
    this build) and ``pinned``.  A cache built for an older structure
    of the circuit counts as empty (it will be dropped — or, if pinned,
    refused — on the next lookup).
    """
    cache = _CACHES.get(circuit)
    if cache is None or cache.token != _structural_token(circuit):
        return {"patterns": 0, "compiled": 0, "hits": 0, "compiles": 0,
                "pinned": False}
    return {
        "patterns": len(cache.programs),
        "compiled": sum(1 for s in cache.programs.values() if s is not None),
        "hits": cache.hits,
        "compiles": cache.compiles,
        "pinned": cache.pinned,
    }


def schedule_cache_counters() -> Dict[str, int]:
    """Per-process totals: schedule-cache ``hits`` and ``compiles``.

    Campaign workers snapshot this before and after each batch; the
    deltas travel back with the shard, so
    :class:`repro.leakage.stats.CampaignStats` can prove that workers
    replayed warm schedules instead of recompiling them.

    Backed by the :mod:`repro.obs.metrics` registry (metric names
    ``schedule_cache.hits`` / ``schedule_cache.compiles``); this
    function is a stable re-export.  Campaign warm-ups re-attribute
    their lookups to ``schedule_cache.warmup_*`` so the batch-time
    counters reconcile exactly with ``CampaignStats``.
    """
    return {
        "hits": int(obs_metrics.counter_value(_METRIC_HITS)),
        "compiles": int(obs_metrics.counter_value(_METRIC_COMPILES)),
    }


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def replay(
    schedule: CompiledSchedule,
    values: np.ndarray,
    events: Sequence[Tuple[float, int, np.ndarray]],
    recorder,
    t_offset: float,
    max_events: int,
    circuit=None,
    n_traces: Optional[int] = None,
    workspace: Optional[dict] = None,
) -> Tuple[float, int]:
    """Execute a compiled program over ``(n_wires, n_traces)`` state.

    Args:
        schedule: Program from :func:`compile_schedule`.
        values: The simulator's wire-value matrix (mutated in place):
            ``(n_wires, n_traces)`` bool, or ``(n_wires, n_lanes)``
            ``uint64`` in packed mode (:mod:`repro.sim.bitpack`).
        events: The ``(time, wire, values)`` input events of the
            compiled pattern, in its order, with coerced values —
            ``(n_traces,)`` bool, or ``(n_lanes,)`` uint64 in packed
            mode.
        recorder: Optional power recorder, fed through
            :func:`repro.sim.power.toggle_sink`: counting recorders get
            one :meth:`~repro.sim.power.PackedToggleAccumulator.add` of
            every live toggle row, all others the ordered
            :meth:`record_wire` stream; a null recorder gets nothing.
        t_offset: Absolute time of this call's t=0.
        max_events: Gate-evaluation budget (same semantics as the
            interpreter's).
        circuit: The owning circuit (diagnostics in budget errors, and
            the interpreted fallback).
        n_traces: Real trace count in packed mode (pad bits are
            stripped before anything reaches a ``record_wire`` stream);
            ``None`` means boolean state.
        workspace: A dict the caller keeps across calls; replay reuses
            the value, gather and toggle buffers it finds there instead
            of allocating (and page-faulting) fresh ones every cycle
            (not for ``record_wire`` streams, which get row views).

    If a gate of the program is stale (see "Exactness" in the module
    docstring) the call runs the interpreted loop instead.

    Returns:
        ``(settle_time, n_gate_evaluations)``.
    """
    from .bitpack import unpack_bool
    from .power import toggle_sink
    from .vectorsim import interpret

    acc, record_wire = toggle_sink(
        recorder, values.shape[1] if n_traces is None else n_traces
    )
    # A record_wire stream receives views of the value and toggle rows
    # and may keep them, so such calls get buffers of their own.
    ws = {} if workspace is None or record_wire is not None else workspace
    if not schedule.is_consistent(values, ws):
        return interpret(
            circuit, schedule.comb_fanout, values, events, recorder,
            t_offset, max_events, n_traces,
        )

    shape = (schedule.n_rows,) + values.shape[1:]
    rows = _scratch(ws, "rows", shape, values.dtype)
    n_start = len(schedule.start_wires)
    rows[:n_start] = _gather(ws, "pins", values, schedule.start_wires)
    for i, (_, _, vals) in enumerate(events, n_start):
        rows[i] = vals
    for grp in schedule.groups:
        pins = _gather(ws, "pins", rows, grp.pins)
        rows[grp.lo : grp.hi] = grp.evaluate(*pins)

    # Toggle masks: each update XOR the wire's previous value (in
    # chunks, so the gathered previous values stay small).
    toggles = _gather(ws, "toggles", rows, schedule.upd_new)
    old = schedule.upd_old
    for lo in range(0, len(old), _CHUNK):
        chunk = old[lo : lo + _CHUNK]
        toggles[lo : lo + len(chunk)] ^= _gather(ws, "old", rows, chunk)
    live_upd = toggles.any(axis=1)
    # live[e]: evaluation e had a toggling trigger; the extra last
    # entry stands for "input event" (upd_eval == -1), always real.
    live = np.zeros(schedule.n_potential_evals + 1, dtype=bool)
    live[schedule.trig_eval[live_upd[schedule.trig_upd]]] = True
    live[-1] = True
    n_evals = int(np.count_nonzero(live)) - 1
    # Two cases need the interpreter's own order of an instant's
    # updates, so the call interprets (``values`` is still untouched):
    # an exhausted budget (its error names the updates of the failing
    # instant), and an ordered stream where a live evaluation was first
    # reached through an update that did not toggle — the interpreter
    # only fans out from toggles, so it orders that instant's
    # evaluations, and the outputs they schedule together, differently.
    if n_evals > max_events or (
        record_wire is not None
        and np.any(live[:-1] & ~live_upd[schedule.first_trig])
    ):
        return interpret(
            circuit, schedule.comb_fanout, values, events, recorder,
            t_offset, max_events, n_traces,
        )
    real_idx = np.flatnonzero(live[schedule.upd_eval])
    last_t = schedule.upd_times[real_idx[-1]] if len(real_idx) else 0

    values[schedule.final_wires] = rows[schedule.final_rows]
    if acc is not None:
        live_idx = np.flatnonzero(live_upd)
        acc.add(
            t_offset + schedule.upd_t[live_idx],
            schedule.upd_wire[live_idx],
            toggles,
            live_idx,
        )
    elif record_wire is not None:
        times = schedule.upd_times
        wires = schedule.upd_wire
        new = schedule.upd_new
        for u in np.flatnonzero(live_upd).tolist():
            if n_traces is None:
                record_wire(t_offset + times[u], int(wires[u]), toggles[u],
                            rows[new[u]])
            else:
                record_wire(
                    t_offset + times[u],
                    int(wires[u]),
                    unpack_bool(toggles[u], n_traces),
                    unpack_bool(rows[new[u]], n_traces),
                )
    return last_t, n_evals
