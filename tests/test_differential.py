"""One differential oracle for every simulation engine.

The interpreted boolean event loop (``compile_schedules=False``,
``pack_traces=False``) is the oracle.  Compiled level-parallel replay
and bit-packed lanes — alone and combined — must reproduce it exactly
on generated netlists: settle times, ``events_processed``, final wire
values, the ordered ``record_wire`` stream, bitwise float32 power and
budget errors.

Generated inputs cover every cell family (2-input gates, INV, MUX2,
DelayUnits, secAND2 LUTs, DFFE flip-flops driven by
:class:`~repro.sim.clocking.ClockedHarness`), routing jitter,
reconvergent fanout, consistent and ``reset_state`` (stale) starts,
input events that toggle nothing, ragged lane counts and every recorder
kind (none, null, plain, integer-weighted, non-integer-weighted,
coupling, logging).

The ``random_circuit`` / ``random_events`` helpers here are also the
fixed-seed generators of ``tests/test_compiled.py`` and
``tests/test_packed_equivalence.py``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gadgets import SharePair, secand2
from repro.netlist.circuit import Circuit
from repro.sim import bitpack
from repro.sim.clocking import ClockedHarness
from repro.sim.power import CouplingModel, NullRecorder, PowerRecorder
from repro.sim.vectorsim import SimulationError, VectorSimulator


# ----------------------------------------------------------------------
# shared fixed-seed helpers
# ----------------------------------------------------------------------
class LoggingRecorder:
    """Records every transition verbatim, in order.

    It is not a counting recorder (no ``accepts_packed``), so every
    engine hands it the ordered per-update ``record_wire`` stream.
    """

    def __init__(self):
        self.log = []

    def record_wire(self, t_ps, wire, toggled, new):
        self.log.append((t_ps, wire, toggled.copy(), new.copy()))


def assert_logs_equal(log_a, log_b):
    assert len(log_a) == len(log_b)
    for (ta, wa, ga, na), (tb, wb, gb, nb) in zip(log_a, log_b):
        assert ta == tb
        assert wa == wb
        assert np.array_equal(ga, gb)
        assert np.array_equal(na, nb)


def random_circuit(seed, jitter=False):
    rng = np.random.default_rng(seed)
    c = Circuit(f"rand{seed}")
    if jitter:
        c.enable_routing_jitter(
            seed + 100, gate_sigma_ps=60.0, delay_sigma_ps=150.0
        )
    wires = [c.add_input(f"i{k}") for k in range(4)]
    cells = ["AND2", "OR2", "XOR2", "NAND2", "NOR2", "XNOR2"]
    for _ in range(25):
        r = int(rng.integers(0, 8))
        if r == 6:
            wires.append(c.inv(wires[int(rng.integers(0, len(wires)))]))
        elif r == 7:
            s, a, b = rng.choice(len(wires), 3)
            wires.append(c.mux2(wires[s], wires[a], wires[b]))
        else:
            a, b = rng.choice(len(wires), 2)
            wires.append(c.add_gate(cells[r], [wires[a], wires[b]]))
    wires.append(
        c.delay_line(wires[int(rng.integers(0, len(wires)))], 2, 2)
    )
    c.mark_output("z", wires[-1])
    c.check()
    return c


def random_events(c, rng, n):
    """Four input events with partially coinciding times."""
    return [
        (int(rng.integers(0, 4)) * 500, c.wire(f"i{k}"),
         rng.integers(0, 2, n).astype(bool))
        for k in range(4)
    ]


# ----------------------------------------------------------------------
# generated netlists
# ----------------------------------------------------------------------
GATES2 = ["AND2", "OR2", "XOR2", "NAND2", "NOR2", "XNOR2", "ANDN2", "ORN2"]
N_INPUTS = 5
LANE_COUNTS = (1, 63, 64, 65, 130)


def build_netlist(seed: int, jitter: bool, n_ffs: int) -> Circuit:
    """A random glitchy netlist over every cell family.

    Readers pick recent wires more often, so cones reconverge; ``n_ffs``
    DFFE flip-flops (enabled by input ``en``) sample internal wires and
    feed their outputs back into the logic.
    """
    rng = np.random.default_rng(seed)
    c = Circuit(f"diff{seed}")
    if jitter:
        c.enable_routing_jitter(seed, gate_sigma_ps=40.0, delay_sigma_ps=120.0)
    wires = [c.add_input(f"i{k}") for k in range(N_INPUTS)]
    en = c.add_input("en")
    ff_outs = [c.add_wire(f"q{k}") for k in range(n_ffs)]
    wires += ff_outs

    def pick():
        lo = max(0, len(wires) - 12) if rng.random() < 0.6 else 0
        return wires[int(rng.integers(lo, len(wires)))]

    for _ in range(int(rng.integers(8, 30))):
        r = int(rng.integers(0, 12))
        if r < 6:
            wires.append(c.add_gate(GATES2[int(rng.integers(0, 8))], [pick(), pick()]))
        elif r < 8:
            wires.append(c.inv(pick()))
        elif r == 8:
            wires.append(c.mux2(pick(), pick(), pick()))
        elif r == 9:
            wires.append(c.delay_line(pick(), 1, int(rng.integers(1, 3))))
        else:
            z = secand2(
                c, SharePair(pick(), pick()), SharePair(pick(), pick()),
                tag=f"g{len(wires)}",
            )
            wires += [z.s0, z.s1]
    for k, q in enumerate(ff_outs):
        c.add_gate("DFFE", [pick(), en], output=q, name=f"ff{k}")
    c.mark_output("z", wires[-1])
    c.check()
    return c


class StreamPowerRecorder(PowerRecorder):
    """A :class:`PowerRecorder` that declines the counting sink, so its
    power comes from the ordered ``record_wire`` float32 adds — the
    oracle for what counting recorders must reproduce bitwise."""

    @property
    def accepts_packed(self):
        return False


def make_recorder(kind, n, total_ps, weights, circuit, oracle):
    """A fresh recorder of the given kind (``oracle`` = stream power)."""
    if kind == "none":
        return None
    if kind == "null":
        return NullRecorder()
    if kind == "log":
        return LoggingRecorder()
    cls = StreamPowerRecorder if oracle else PowerRecorder
    kw = {"bin_ps": 100}
    if kind == "int":
        kw["weights"] = weights
    elif kind == "float":
        kw["weights"] = weights * np.float32(0.37) + np.float32(0.11)
    elif kind == "coupling":
        kw["weights"] = weights
        kw["coupling"] = CouplingModel(
            pairs=[(w, w + 1) for w in range(N_INPUTS, circuit.n_wires - 1, 3)],
            coefficient=0.3,
            window_ps=120,
        )
    return cls(n, total_ps, **kw)


def recorder_output(rec):
    if isinstance(rec, LoggingRecorder):
        return rec.log
    if isinstance(rec, PowerRecorder):
        return rec.power.copy()
    return None


def assert_outputs_equal(a, b):
    if isinstance(a, list):
        assert_logs_equal(a, b)
    elif a is not None:
        # float32 power, bit for bit
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32))


ENGINES = [(False, True), (True, False), (True, True)]  # (compiled, packed)


def drive_harness(circuit, engine, n, start, cycles, recorder_kind):
    """Run ``cycles`` through a ClockedHarness; returns what to compare."""
    compiled, packed = engine
    h = ClockedHarness(
        circuit, n, period_ps=2_000, check_timing=False,
        compile_schedules=compiled, pack_traces=packed,
    )
    if start == "consistent":
        h.preload({}, {w: False for w in circuit.inputs})
    else:  # every wire 0: inverting gates start stale
        h.reset()
    rec = make_recorder(
        recorder_kind, n, h.total_time_ps(len(cycles)), h.sim.weights,
        circuit, oracle=engine == (False, False),
    )
    settles = []
    for events in cycles:
        h.step(events, recorder=rec)
        settles.append(h.last_settle_ps)
    values = np.stack([h.sim.wire_values(w) for w in range(circuit.n_wires)])
    return settles, h.sim.events_processed, values, recorder_output(rec)


@st.composite
def harness_cases(draw):
    seed = draw(st.integers(0, 10_000))
    circuit = build_netlist(
        seed, jitter=draw(st.booleans()), n_ffs=draw(st.integers(0, 3))
    )
    n = draw(st.sampled_from(LANE_COUNTS))
    rng = np.random.default_rng(seed)
    current = {w: np.zeros(n, dtype=bool) for w in circuit.inputs}
    cycles = []
    for _ in range(draw(st.integers(1, 3))):
        events = []
        for w in circuit.inputs:
            how = draw(st.sampled_from(["skip", "random", "same", "flip"]))
            if how == "skip":
                continue
            if how == "random":
                vals = rng.integers(0, 2, n).astype(bool)
            elif how == "same":  # an event that toggles nothing
                vals = current[w].copy()
            else:
                vals = ~current[w]
            current[w] = vals
            t = draw(st.sampled_from([0, 0, 40, 150, 400]))
            events.append((t, w, vals))
        cycles.append(events)
    start = draw(st.sampled_from(["consistent", "reset"]))
    kind = draw(
        st.sampled_from(["none", "null", "log", "plain", "int", "float", "coupling"])
    )
    return circuit, n, start, cycles, kind


@given(harness_cases(), st.sampled_from([0, bitpack.COUNTER_DIRECT_BITS]))
@settings(max_examples=60, deadline=None)
def test_engines_match_interpreted_oracle(case, direct_bits):
    """``direct_bits=0`` routes every counting add through the
    carry-save adder, which real batches only reach at scale."""
    circuit, n, start, cycles, kind = case
    oracle = drive_harness(circuit, (False, False), n, start, cycles, kind)
    for engine in ENGINES:
        with mock.patch.object(bitpack, "COUNTER_DIRECT_BITS", direct_bits):
            got = drive_harness(circuit, engine, n, start, cycles, kind)
        assert got[0] == oracle[0], engine  # settle times
        assert got[1] == oracle[1], engine  # events_processed
        assert np.array_equal(got[2], oracle[2]), engine
        assert_outputs_equal(oracle[3], got[3])


@given(
    st.integers(0, 10_000),
    st.booleans(),
    st.sampled_from(LANE_COUNTS),
    st.integers(0, 60),
)
@settings(max_examples=40, deadline=None)
def test_budget_errors_match(seed, jitter, n, max_events):
    """Both engines fail at the same instant naming the same wires, or
    both finish with the same results."""
    circuit = build_netlist(seed, jitter=jitter, n_ffs=0)
    rng = np.random.default_rng(seed)
    events = [
        (int(rng.integers(0, 3)) * 100, w, rng.integers(0, 2, n).astype(bool))
        for w in circuit.inputs
    ]
    outcomes = []
    for compiled, packed in [(False, False), *ENGINES]:
        sim = VectorSimulator(
            circuit, n, compile_schedules=compiled, pack_traces=packed
        )
        sim.evaluate_combinational({w: False for w in circuit.inputs})
        try:
            t = sim.settle(events, max_events=max_events)
        except SimulationError as err:
            outcomes.append(("error", err.time_ps, err.wires, err.budget))
        else:
            outcomes.append(("ok", t, sim.events_processed))
    assert all(o == outcomes[0] for o in outcomes), outcomes


# ----------------------------------------------------------------------
# regression: non-integer weights
# ----------------------------------------------------------------------
def test_non_integer_weights_power_bitwise():
    """Compiled replay used to pre-sum the energy of one instant with a
    float32 dot product, which is not bitwise-equal to the interpreter's
    per-wire adds once weights are not integers.  Non-counting
    recorders now get the ordered per-wire stream on every engine."""
    for seed in range(40):
        c = random_circuit(seed, jitter=True)
        rng = np.random.default_rng(seed + 7)
        n = 48
        events = random_events(c, rng, n)
        weights = rng.uniform(0.5, 3.0, c.n_wires).astype(np.float32)
        powers = []
        for compiled in (False, True):
            sim = VectorSimulator(c, n, compile_schedules=compiled)
            sim.evaluate_combinational({w: False for w in c.inputs})
            rec = PowerRecorder(n, 4000, bin_ps=1000, weights=weights)
            assert not rec.accepts_packed
            sim.settle(events, recorder=rec)
            powers.append(rec.power.view(np.uint32).copy())
        assert np.array_equal(powers[0], powers[1]), seed


@pytest.mark.parametrize("n", LANE_COUNTS)
def test_stale_start_falls_back_to_interpreter(n):
    """A fresh simulator holds all-zero wires, so inverting gates are
    stale: replay must detect it and interpret, reproducing the
    oracle's non-repairs of gates whose inputs never toggle."""
    c = build_netlist(3, jitter=True, n_ffs=0)
    rng = np.random.default_rng(n)
    events = [(0, w, rng.integers(0, 2, n).astype(bool)) for w in c.inputs[:2]]
    out = []
    for compiled, packed in [(False, False), *ENGINES]:
        sim = VectorSimulator(c, n, compile_schedules=compiled, pack_traces=packed)
        t = sim.settle(events)
        values = np.stack([sim.wire_values(w) for w in range(c.n_wires)])
        out.append((t, sim.events_processed, values))
    for t, processed, values in out[1:]:
        assert t == out[0][0] and processed == out[0][1]
        assert np.array_equal(values, out[0][2])
