"""Timing-free performance gates.

Replay cost is dominated by Python-level numpy dispatch, so the gate
counts dispatches instead of timing them: on a small FF masked-DES
batch every cycle's evaluation DAG stays at most 11 levels deep, the
whole batch needs at most 2,000 (level, cell) evaluation calls, and
power accumulation runs once per replay rather than once per toggle.

The compiler's uniformity sampler is call-bound the same way: one
``uniformity_defect`` call evaluates the golden model once for all
``2^n`` inputs, so its gadget calls do not grow with ``2^n``.
"""

import numpy as np

from repro.compile import PlanModel, des_sbox_spec, lower
from repro.compile import model as compile_model
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


def test_uniformity_defect_is_one_model_call(monkeypatch):
    model = PlanModel(lower(des_sbox_spec(0)))
    model_calls = []
    gadget_calls = []
    call = PlanModel.__call__
    secand2 = compile_model.secand2_func

    def counting_call(self, *args, **kwargs):
        model_calls.append(1)
        return call(self, *args, **kwargs)

    def counting_secand2(*args):
        gadget_calls.append(1)
        return secand2(*args)

    monkeypatch.setattr(PlanModel, "__call__", counting_call)
    monkeypatch.setattr(compile_model, "secand2_func", counting_secand2)

    # gadget calls of one evaluation, on a single sample
    one = np.zeros((6, 1), dtype=bool)
    model(one, one, np.zeros((model.n_rand, 1), dtype=bool))
    per_evaluation = len(gadget_calls)
    model_calls.clear()
    gadget_calls.clear()

    compile_model.uniformity_defect(
        model, [True] * model.n_rand, n_per_input=64, seed=0
    )
    assert len(model_calls) == 1
    assert len(gadget_calls) == per_evaluation  # not 2^6 times that
