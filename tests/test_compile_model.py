"""The compiler's golden model and its batched uniformity sampler.

``uniformity_defect`` evaluates all ``2^n`` unshared inputs in one
packed ``PlanModel`` call; the per-value loop it replaced is kept here
as the oracle, and the two must agree exactly (``==`` on the float).
"""

import numpy as np
import pytest

from repro.compile import (
    FunctionSpec,
    PlanModel,
    aes_sbox_spec,
    compile_spec,
    des_sbox_spec,
    lower,
    present_sbox_spec,
    uniformity_defect,
)
from repro.sim.bitpack import pack_bool, unpack_bool


def reference_uniformity_defect(model, refresh_mask, n_per_input, seed):
    """The historical per-value sampler: one model call per input."""
    spec = model.plan.spec
    rng = np.random.default_rng(seed)
    worst = 0.0

    def group_defect(bit_arrays):
        width = len(bit_arrays)
        word = np.zeros(bit_arrays[0].shape[0], dtype=np.int64)
        for a in bit_arrays:
            word = (word << 1) | a.astype(np.int64)
        counts = np.bincount(word, minlength=1 << width) / word.shape[0]
        return float(np.max(np.abs(counts - 1.0 / (1 << width))))

    for value in range(1 << spec.n_inputs):
        bits = np.stack(
            [
                np.full(
                    n_per_input,
                    bool((value >> (spec.n_inputs - 1 - i)) & 1),
                )
                for i in range(spec.n_inputs)
            ]
        )
        s1 = rng.integers(0, 2, bits.shape).astype(bool)
        rand = rng.integers(
            0, 2, (max(1, model.n_rand), n_per_input)
        ).astype(bool)
        o0, _, rows_out, _ = model(
            bits ^ s1,
            s1,
            rand,
            refresh_mask=refresh_mask,
            expose_intermediates=True,
        )
        worst = max(
            worst, group_defect([o0[b] for b in range(spec.n_outputs)])
        )
        for bits_r in rows_out:
            present = [p[0] for p in bits_r if p is not None]
            if present:
                worst = max(worst, group_defect(present))
    return worst


def generated_spec(n_inputs: int, n_outputs: int, seed: int) -> FunctionSpec:
    """A random table with no constant output bit (those cannot be
    masked)."""
    rng = np.random.default_rng(seed)
    table = [int(v) for v in rng.integers(0, 1 << n_outputs, 1 << n_inputs)]
    for b in range(n_outputs):
        if len({(v >> b) & 1 for v in table}) == 1:
            table[0] ^= 1 << b
    return FunctionSpec.from_truth_table(
        table, name=f"gen{n_inputs}x{n_outputs}", n_outputs=n_outputs
    )


PAPER_TARGETS = {f"des{i}": des_sbox_spec(i) for i in range(8)}
PAPER_TARGETS["present"] = present_sbox_spec()
GENERATED = {
    f"gen{n}": generated_spec(n, 1 + n % 3, seed=100 + n) for n in range(1, 7)
}
TARGETS = {**PAPER_TARGETS, **GENERATED}


@pytest.fixture(scope="module")
def models():
    return {name: PlanModel(lower(spec)) for name, spec in TARGETS.items()}


def test_targets_cover_both_plan_shapes(models):
    shapes = {name: m.plan.n_select > 0 for name, m in models.items()}
    assert shapes["present"] is False and shapes["des0"] is True
    assert {shapes[f"gen{n}"] for n in range(1, 7)} == {False, True}
    assert max(m.plan.spec.n_inputs for m in models.values()) == 6


# ----------------------------------------------------------------------
# batched sampler == per-value oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_per_input", [1, 7, 63, 64, 65, 800])
@pytest.mark.parametrize("name", list(TARGETS))
def test_batched_defect_equals_per_value_oracle(models, name, n_per_input):
    model = models[name]
    rng = np.random.default_rng([list(TARGETS).index(name), n_per_input])
    for seed in (0, 3):
        mask = [bool(b) for b in rng.integers(0, 2, model.n_rand)]
        got = uniformity_defect(model, mask, n_per_input=n_per_input, seed=seed)
        want = reference_uniformity_defect(model, mask, n_per_input, seed)
        assert got == want, (name, n_per_input, seed, mask)


def test_batched_defect_equals_oracle_at_extreme_masks(models):
    for name in ("des3", "present", "gen5"):
        model = models[name]
        for mask in ([True] * model.n_rand, [False] * model.n_rand):
            got = uniformity_defect(model, mask, n_per_input=200, seed=7)
            assert got == reference_uniformity_defect(model, mask, 200, 7)


# ----------------------------------------------------------------------
# golden pin: suite refresh choices (recorded before batching)
# ----------------------------------------------------------------------
GOLDEN_REFRESH = {
    "des0": (["prod_0x5", "prod_0x6", "prod_0x9"], 3,
             0.028749999999999998, 0.041249999999999995),
    "des1": (["prod_0x3", "prod_0x9", "prod_0xc"], 3,
             0.036250000000000004, 0.03),
    "des2": (["prod_0x5", "prod_0x6"], 2,
             0.036250000000000004, 0.03125),
    "des3": (["sel_1"], 1,
             0.10375000000000001, 0.08249999999999999),
    "des4": (["prod_0x3", "prod_0xc"], 2, 0.03375, 0.03125),
    "des5": (["prod_0x3", "prod_0xa", "prod_0xc"], 3, 0.03125, 0.03125),
    "des6": (["prod_0xa", "prod_0xb"], 2,
             0.03375, 0.041249999999999995),
    "des7": (["prod_0x3", "prod_0xa", "prod_0xc"], 3, 0.0325, 0.03375),
    "present": (["prod_0x3"], 1, 0.025, 0.024999999999999994),
}


@pytest.mark.parametrize("name", list(GOLDEN_REFRESH))
def test_suite_refresh_choice_golden(name):
    result = compile_spec(PAPER_TARGETS[name], style="pd", margin_ps=50)
    got = result.netlist.refresh.to_json_dict()
    kept, bits_used, defect, floor = GOLDEN_REFRESH[name]
    assert got["mode"] == "selective"
    assert got["kept"] == kept
    assert got["bits_used"] == bits_used
    assert got["defect"] == defect
    assert got["floor"] == floor


# ----------------------------------------------------------------------
# PlanModel is lane-generic
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec",
    [des_sbox_spec(2), present_sbox_spec(), aes_sbox_spec()]
    + [GENERATED[f"gen{n}"] for n in (1, 3, 5, 6)],
    ids=lambda s: s.name,
)
def test_plan_model_on_packed_lanes_matches_boolean(spec):
    model = PlanModel(lower(spec))
    n = 130  # two full lanes + a ragged one
    rng = np.random.default_rng(spec.n_inputs)
    s0 = rng.integers(0, 2, (spec.n_inputs, n)).astype(bool)
    s1 = rng.integers(0, 2, (spec.n_inputs, n)).astype(bool)
    rand = rng.integers(0, 2, (max(1, model.n_rand), n)).astype(bool)
    mask = [bool(b) for b in rng.integers(0, 2, model.n_rand)]

    want = model(s0, s1, rand, refresh_mask=mask, expose_intermediates=True)
    got = model(
        pack_bool(s0), pack_bool(s1), pack_bool(rand),
        refresh_mask=mask, expose_intermediates=True,
    )
    o0, o1, rows, sels = want
    p0, p1, prows, psels = got
    assert np.array_equal(unpack_bool(p0, n), o0)
    assert np.array_equal(unpack_bool(p1, n), o1)
    assert len(prows) == len(rows)
    for row, prow in zip(rows, prows):
        for bit, pbit in zip(row, prow):
            assert (bit is None) == (pbit is None)
            if bit is not None:
                for share in (0, 1):
                    assert np.array_equal(
                        unpack_bool(pbit[share], n), bit[share]
                    )
    assert (sels is None) == (model.plan.n_select == 0)
    if sels is not None:
        for sel, psel in zip(sels, psels):
            for share in (0, 1):
                assert np.array_equal(unpack_bool(psel[share], n), sel[share])
