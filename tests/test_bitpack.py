"""Unit tests of the uint64 trace-lane packing primitives."""

import numpy as np
import pytest

from repro.sim import bitpack
from repro.sim.bitpack import (
    LANE_BITS,
    n_lanes,
    pack_bool,
    pack_scalar,
    popcount,
    resolve_pack_traces,
    unpack_bool,
    unpack_u8,
)


# ----------------------------------------------------------------------
# lane geometry
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n,expected",
    [(1, 1), (63, 1), (64, 1), (65, 2), (128, 2), (129, 3), (1000, 16)],
)
def test_n_lanes(n, expected):
    assert n_lanes(n) == expected


@pytest.mark.parametrize("bad", [0, -1])
def test_n_lanes_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        n_lanes(bad)


# ----------------------------------------------------------------------
# pack / unpack roundtrip
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 7, 63, 64, 65, 100, 128, 321])
def test_roundtrip_1d(n):
    rng = np.random.default_rng(n)
    values = rng.integers(0, 2, n).astype(bool)
    packed = pack_bool(values)
    assert packed.dtype == np.uint64
    assert packed.shape == (n_lanes(n),)
    assert np.array_equal(unpack_bool(packed, n), values)
    u8 = unpack_u8(packed, n)
    assert u8.dtype == np.uint8
    assert np.array_equal(u8, values.astype(np.uint8))


@pytest.mark.parametrize("n", [64, 100, 200])
def test_roundtrip_2d(n):
    rng = np.random.default_rng(n)
    values = rng.integers(0, 2, (5, n)).astype(bool)
    packed = pack_bool(values)
    assert packed.shape == (5, n_lanes(n))
    assert np.array_equal(unpack_bool(packed, n), values)


def test_trace_to_bit_mapping():
    """Trace i lives in lane i//64, bit i%64 (little bitorder)."""
    for i in [0, 1, 63, 64, 70, 127]:
        values = np.zeros(128, dtype=bool)
        values[i] = True
        packed = pack_bool(values)
        expect = np.zeros(2, dtype=np.uint64)
        expect[i // 64] = np.uint64(1) << np.uint64(i % 64)
        assert np.array_equal(packed, expect), i


def test_ragged_pad_copies_last_trace():
    """Pad bits must shadow the last real trace, never be zero.

    A zero pad would raise phantom toggles through inverting gates in
    traces that do not exist (see the module docstring); copying the
    last trace keeps pad bits pointwise identical to a real trace
    forever, so liveness guards and event accounting match the boolean
    engine exactly.
    """
    values = np.array([True] * 5, dtype=bool)  # n=5, last trace True
    packed = pack_bool(values)
    # bits 5..63 replicate trace 4 (True): the whole lane is ones
    assert packed[0] == np.uint64(0xFFFFFFFFFFFFFFFF)
    values[-1] = False
    packed = pack_bool(values)
    # pad now replicates False: only bits 0..3 set
    assert packed[0] == np.uint64(0b01111)


def test_pack_bool_bitwise_ops_match_boolean():
    """& | ^ ~ on lanes == the same ops on the unpacked booleans."""
    rng = np.random.default_rng(0)
    n = 100  # ragged on purpose
    a = rng.integers(0, 2, n).astype(bool)
    b = rng.integers(0, 2, n).astype(bool)
    pa, pb = pack_bool(a), pack_bool(b)
    assert np.array_equal(unpack_bool(pa & pb, n), a & b)
    assert np.array_equal(unpack_bool(pa | pb, n), a | b)
    assert np.array_equal(unpack_bool(pa ^ pb, n), a ^ b)
    assert np.array_equal(unpack_bool(~pa, n), ~a)


def test_pack_scalar():
    ones = pack_scalar(True, 3)
    zeros = pack_scalar(False, 3)
    assert ones.shape == zeros.shape == (3,)
    assert (ones == np.uint64(0xFFFFFFFFFFFFFFFF)).all()
    assert (zeros == 0).all()
    # the packed image of a broadcast scalar, pad included
    assert np.array_equal(pack_scalar(True, 2), pack_bool(np.ones(128, bool)))
    assert np.array_equal(unpack_bool(pack_scalar(True, 2), 90), np.ones(90, bool))


# ----------------------------------------------------------------------
# resolve_pack_traces
# ----------------------------------------------------------------------
def test_resolve_pack_traces():
    assert resolve_pack_traces(True, 1) is True
    assert resolve_pack_traces(False, 10_000) is False
    assert resolve_pack_traces("auto", 63) is False
    assert resolve_pack_traces("auto", 64) is True
    assert resolve_pack_traces("auto", 10_000) is True
    assert resolve_pack_traces(np.True_, 1) is True


@pytest.mark.parametrize("bad", ["yes", 1, None, "AUTO"])
def test_resolve_pack_traces_rejects_garbage(bad):
    with pytest.raises(ValueError):
        resolve_pack_traces(bad, 64)


# ----------------------------------------------------------------------
# popcount (both backends)
# ----------------------------------------------------------------------
def _reference_popcount(lanes):
    return np.array(
        [bin(int(x)).count("1") for x in np.ravel(lanes)]
    ).reshape(np.shape(lanes))


@pytest.mark.parametrize("force_lut", [False, True])
def test_popcount_backends_agree(monkeypatch, force_lut):
    if force_lut:
        monkeypatch.setattr(bitpack, "HAVE_BITWISE_COUNT", False)
    rng = np.random.default_rng(1)
    lanes = rng.integers(0, 2**64, (4, 7), dtype=np.uint64)
    lanes[0, 0] = 0
    lanes[0, 1] = np.uint64(0xFFFFFFFFFFFFFFFF)
    counts = popcount(lanes)
    assert counts.shape == lanes.shape
    assert np.array_equal(counts, _reference_popcount(lanes))
    assert counts[0, 0] == 0
    assert counts[0, 1] == 64


def test_popcount_lut_matches_bitwise_count(monkeypatch):
    """The numpy<2 LUT path must be value-identical to bitwise_count."""
    if not bitpack.HAVE_BITWISE_COUNT:
        pytest.skip("numpy<2: native backend unavailable")
    rng = np.random.default_rng(2)
    lanes = rng.integers(0, 2**64, 1000, dtype=np.uint64)
    native = popcount(lanes)
    monkeypatch.setattr(bitpack, "HAVE_BITWISE_COUNT", False)
    assert np.array_equal(popcount(lanes), native)


def test_popcount_of_packed_traces():
    """popcount over pack_bool counts set traces (plus any pad)."""
    rng = np.random.default_rng(3)
    values = rng.integers(0, 2, 256).astype(bool)  # lane-aligned: no pad
    assert popcount(pack_bool(values)).sum() == values.sum()


# ----------------------------------------------------------------------
# counter planes (packed-domain power accumulation kernel)
# ----------------------------------------------------------------------
def _counts(n_bins, n):
    return np.zeros((n_bins, n), dtype=np.int64)


def _budgets(monkeypatch):
    """Yield twice: once forcing the carry-save adder (budget 0), once
    with the default direct-unpack budget."""
    for budget in (0, bitpack.COUNTER_DIRECT_BITS):
        monkeypatch.setattr(bitpack, "COUNTER_DIRECT_BITS", budget)
        yield budget


def test_pack_bool_preserves_bit_positions():
    """Trace i's bit sits at bit i % 64 of lane i // 64 — the layout the
    counter kernel's unpacking relies on."""
    for i in [0, 1, 63, 64, 70, 127]:
        values = np.zeros(128, dtype=bool)
        values[i] = True
        lanes = pack_bool(values)
        assert int(lanes[i // 64]) == 1 << (i % 64)
        assert np.count_nonzero(lanes) == 1


def test_counter_add_matches_integer_sums(monkeypatch):
    """Accumulating many rows == per-trace integer sums."""
    rng = np.random.default_rng(10)
    n = 100  # ragged: 2 lanes, 28 pad bits
    for _ in _budgets(monkeypatch):
        for k in (50, 500):
            rows = rng.integers(0, 2, (k, n)).astype(bool)
            counts = _counts(1, n)
            bitpack.counter_add(counts, pack_bool(rows), np.zeros(k, dtype=int))
            assert np.array_equal(counts[0], rows.sum(axis=0))


def test_counter_add_shift_scales_by_power_of_two(monkeypatch):
    """A weight contributes mask * weight — binary weight decomposition:
    weight 5 = bit planes (0, 2)."""
    rng = np.random.default_rng(11)
    n = 70
    for _ in _budgets(monkeypatch):
        for k in (20, 300):
            rows = rng.integers(0, 2, (k, n)).astype(bool)
            counts = _counts(1, n)
            bitpack.counter_add(
                counts, pack_bool(rows), np.zeros(k, dtype=int), np.full(k, 5)
            )
            assert np.array_equal(counts[0], rows.sum(axis=0) * 5)


def test_counter_add_grows_planes_on_demand(monkeypatch):
    """Carries ripple past every input plane: 8 + 8 = 16, 255 ones."""
    one = pack_bool(np.ones(1, dtype=bool))
    for _ in _budgets(monkeypatch):
        counts = _counts(1, 1)
        bitpack.counter_add(counts, np.repeat(one[None], 2, 0), [0, 0], [8, 8])
        assert counts[0, 0] == 16
        counts = _counts(1, 1)
        bitpack.counter_add(
            counts, np.repeat(one[None], 255, 0), np.zeros(255, int)
        )
        assert counts[0, 0] == 255


def test_counter_add_drops_pad_bits(monkeypatch):
    n = 5
    row = np.ones(n, dtype=bool)  # pad replicates trace 4 (True)
    for _ in _budgets(monkeypatch):
        counts = _counts(1, n)
        bitpack.counter_add(counts, np.repeat(pack_bool(row)[None], 4, 0), [0] * 4)
        assert counts.shape == (1, n)
        assert np.array_equal(counts[0], np.full(n, 4, dtype=np.int64))


def test_counter_add_routes_rows_to_bins(monkeypatch):
    """Entries name their bin and mask row; a row may enter twice, and
    boolean rows count like packed lanes."""
    rng = np.random.default_rng(12)
    n = 130
    rows = rng.integers(0, 2, (400, n)).astype(bool)
    entries = rng.integers(0, 400, 900)
    bins = rng.integers(0, 7, 900)
    weights = rng.integers(0, 40, 900)
    expect = _counts(7, n)
    for e, b, w in zip(entries, bins, weights):
        expect[b] += rows[e] * w
    for _ in _budgets(monkeypatch):
        for masks in (pack_bool(rows), rows):
            counts = _counts(7, n)
            bitpack.counter_add(counts, masks, bins, weights, entries)
            assert np.array_equal(counts, expect)
            bitpack.counter_add(counts, masks, bins, 0 * weights, entries)
            assert np.array_equal(counts, expect)


# ----------------------------------------------------------------------
# recorder-aware "auto" resolution
# ----------------------------------------------------------------------
class _RecorderStub:
    pass


def test_recorder_accepts_packed_duck_typing():
    from repro.sim.power import CouplingModel, PowerRecorder, NullRecorder
    from repro.sim.power import TransientRecorder

    assert bitpack.recorder_accepts_packed(None) is True
    assert bitpack.recorder_accepts_packed(NullRecorder()) is True
    assert bitpack.recorder_accepts_packed(TransientRecorder()) is False
    # a recorder-shaped object without accepts_packed: no packed path
    assert bitpack.recorder_accepts_packed(_RecorderStub()) is False
    plain = PowerRecorder(8, 1000)
    assert bitpack.recorder_accepts_packed(plain) is True
    coupled = PowerRecorder(
        8, 1000, coupling=CouplingModel(pairs=[(0, 1)])
    )
    assert bitpack.recorder_accepts_packed(coupled) is False


def test_resolve_auto_declines_for_unpackable_recorder():
    from repro.sim.power import CouplingModel, PowerRecorder

    coupled = PowerRecorder(
        128, 1000, coupling=CouplingModel(pairs=[(0, 1)])
    )
    bitpack.reset_auto_pack_warning()
    with pytest.warns(bitpack.AutoPackFallbackWarning):
        assert resolve_pack_traces("auto", 128, coupled) is False
    # one-shot: the second resolution stays silent
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        assert resolve_pack_traces("auto", 128, coupled) is False
    bitpack.reset_auto_pack_warning()
    # explicit True is still honoured (slow unpack leg, but correct)
    assert resolve_pack_traces(True, 128, coupled) is True
    # a packable recorder keeps the size-only behaviour
    plain = PowerRecorder(128, 1000)
    assert resolve_pack_traces("auto", 128, plain) is True
    assert resolve_pack_traces("auto", 63, plain) is False
