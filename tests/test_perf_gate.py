"""Timing-free performance gate for level-parallel replay.

Replay cost is dominated by Python-level numpy dispatch, so the gate
counts dispatches instead of timing them: on a small FF masked-DES
batch every cycle's evaluation DAG stays at most 11 levels deep, the
whole batch needs at most 2,000 (level, cell) evaluation calls, and
power accumulation runs once per replay rather than once per toggle.
"""

import numpy as np

from repro.des.bits import int_to_bitarray
from repro.des.engines import MaskedDESNetlistEngine
from repro.leakage.prng import RandomnessSource
from repro.sim import power, vectorsim

MAX_LEVELS = 11
MAX_DISPATCHES = 2_000


def test_masked_des_batch_dispatch_budget(monkeypatch):
    engine = MaskedDESNetlistEngine("ff")
    n = 64
    rng = np.random.default_rng(4)
    pt = int_to_bitarray(rng.integers(0, 2**63, n, dtype=np.uint64), 64)
    key = int_to_bitarray(rng.integers(0, 2**63, n, dtype=np.uint64), 64)

    programs = []
    adds = []
    replay = vectorsim.replay
    add = power.PackedToggleAccumulator.add

    def counting_replay(program, *args, **kwargs):
        programs.append(program)
        return replay(program, *args, **kwargs)

    def counting_add(self, *args, **kwargs):
        adds.append(len(np.atleast_1d(args[1])))
        return add(self, *args, **kwargs)

    monkeypatch.setattr(vectorsim, "replay", counting_replay)
    monkeypatch.setattr(power.PackedToggleAccumulator, "add", counting_add)
    engine.run_batch(pt, key, RandomnessSource(1), pack_traces=True)

    assert len(programs) == engine.total_cycles
    assert max(p.n_levels for p in programs) <= MAX_LEVELS
    assert sum(p.n_dispatches for p in programs) <= MAX_DISPATCHES
    assert len(adds) == len(programs)  # one add per replay ...
    assert sum(adds) > 10 * len(adds)  # ... carrying many toggle rows
