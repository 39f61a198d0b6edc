"""Property-based tests of the packed counter kernel.

The packed power engine's exactness claim rests on three properties of
:func:`repro.sim.bitpack.counter_add` and the accumulator built on it:

* arbitrary weighted adds of packed masks (or boolean rows) into
  arbitrary bins equal the per-trace integer totals, whether the
  carry-save adder runs or the rows are unpacked directly;
* :func:`repro.sim.bitpack.pack_bool` keeps trace ``i`` at bit
  ``i % 64`` of lane ``i // 64`` and zero pads never count;
* accumulation is exact at and below ``2**COUNTER_EXACT_BITS`` and the
  :class:`~repro.sim.power.PackedAccumulatorOverflowWarning` fires
  exactly when a flushed count *reaches* the bound — never one below.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import bitpack
from repro.sim.bitpack import (
    COUNTER_EXACT_BITS,
    LANE_BITS,
    counter_add,
    n_lanes,
    pack_bool,
)
from repro.sim.power import PackedAccumulatorOverflowWarning, PowerRecorder


# ----------------------------------------------------------------------
# roundtrip properties
# ----------------------------------------------------------------------
@given(
    st.integers(1, 200).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(0, (1 << n) - 1),  # toggle mask
                    st.integers(0, 6),  # weight-bit shift
                ),
                min_size=0,
                max_size=24,
            ),
        )
    )
)
@settings(max_examples=80, deadline=None)
def test_counter_add_unpack_roundtrip(case):
    """Arbitrary shifted adds read back as the per-trace integer totals."""
    n, adds = case
    expect = np.zeros(n, dtype=np.int64)
    bits = np.zeros((len(adds), n), dtype=bool)
    for r, (mask, shift) in enumerate(adds):
        for i in range(n):
            bits[r, i] = (mask >> i) & 1
        expect += bits[r].astype(np.int64) << shift
    counts = np.zeros((1, n), dtype=np.int64)
    with mock.patch.object(bitpack, "COUNTER_DIRECT_BITS", 0):
        counter_add(
            counts,
            pack_bool(bits).reshape(len(adds), n_lanes(n)),
            np.zeros(len(adds), dtype=int),
            [1 << shift for _, shift in adds],
        )
    assert np.array_equal(counts[0], expect)


@given(st.integers(1, 300))
@settings(max_examples=60, deadline=None)
def test_pack_bool_bit_layout(n):
    """Trace ``i``'s boolean lands at bit ``i % 64`` of lane ``i // 64``."""
    rng = np.random.default_rng(n)
    bits = rng.integers(0, 2, n).astype(bool)
    lanes = pack_bool(bits)
    assert lanes.shape == (n_lanes(n),)
    for i in range(n):
        assert (int(lanes[i // LANE_BITS]) >> (i % LANE_BITS)) & 1 == bits[i]
    # pad bits shadow the last real trace
    pad = int(lanes[-1]) >> (n % LANE_BITS) if n % LANE_BITS else 0
    assert pad in (0, (1 << (LANE_BITS - n % LANE_BITS)) - 1)


@given(
    st.integers(0, 40),
    st.integers(1, 65),
    st.integers(1, 300),
    st.sampled_from([0, 1 << 10, bitpack.COUNTER_DIRECT_BITS]),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_counter_add_matches_big_int_arithmetic(seed, n, k, direct_bits, packed):
    """Many rows into several bins with weights up to 2^10: the counts
    equal plain integer column sums, whichever path the kernel takes
    (all carry-save, carry-save then unpack, or unpack only) and for
    packed lanes and boolean rows alike."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2, (k, n)).astype(bool)
    bins = np.sort(rng.integers(0, 4, k))
    weights = rng.integers(0, 1 << 10, k)
    counts = np.zeros((4, n), dtype=np.int64)
    with mock.patch.object(bitpack, "COUNTER_DIRECT_BITS", direct_bits):
        counter_add(counts, pack_bool(rows) if packed else rows, bins, weights)
    expect = np.zeros((4, n), dtype=np.int64)
    np.add.at(expect, bins, rows * weights[:, None])
    assert np.array_equal(counts, expect)


# ----------------------------------------------------------------------
# overflow warning boundary
# ----------------------------------------------------------------------
def _drive_exact(count: int) -> PowerRecorder:
    """A recorder whose single trace accumulated exactly ``count``.

    Wire ``j`` weighs ``2**j``; the count enters as one toggle per set
    bit below 2^24 plus two weight-2^23 toggles per 2^24.
    """
    weights = np.array([float(1 << j) for j in range(COUNTER_EXACT_BITS)])
    rec = PowerRecorder(1, 250, bin_ps=250, weights=weights)
    acc = rec.packed_accumulator(1, 1)
    assert acc is not None
    top = COUNTER_EXACT_BITS - 1
    wires = [j for j in range(COUNTER_EXACT_BITS) if (count >> j) & 1]
    wires += [top] * (2 * (count >> COUNTER_EXACT_BITS))
    ones = np.ones((len(wires), 1), dtype=np.uint64)
    acc.add(np.zeros(len(wires)), wires, ones)
    return rec


def test_no_warning_strictly_below_bound():
    """2^24 - 1 in a bin: exact, silent."""
    bound = 1 << COUNTER_EXACT_BITS
    rec = _drive_exact(bound - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", PackedAccumulatorOverflowWarning)
        power = rec.power
    assert power[0, 0] == float(bound - 1)
    assert rec.stats["overflow_bins"] == 0


def test_warning_fires_exactly_at_bound():
    """2^24 in a bin: one PackedAccumulatorOverflowWarning, correctly
    rounded value either way."""
    bound = 1 << COUNTER_EXACT_BITS
    rec = _drive_exact(bound)
    with pytest.warns(PackedAccumulatorOverflowWarning):
        power = rec.power
    assert power[0, 0] == float(bound)
    assert rec.stats["overflow_bins"] == 1


@given(st.integers(1, 1 << 10))
@settings(max_examples=40, deadline=None)
def test_small_counts_never_warn(count):
    """No count below the bound ever trips the warning."""
    rec = _drive_exact(count)
    with warnings.catch_warnings():
        warnings.simplefilter("error", PackedAccumulatorOverflowWarning)
        power = rec.power
    assert power[0, 0] == float(count)
