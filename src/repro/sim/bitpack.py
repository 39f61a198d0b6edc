"""Bit-packed trace lanes: 64 traces per ``uint64`` word.

The vectorised simulator's hot loops are pure boolean algebra over
``(n_wires, n_traces)`` arrays — one full *byte* of memory traffic per
trace-bit per op.  Packing the trace axis 64-to-a-``uint64`` turns every
gate evaluation, toggle mask and state update into the same bitwise
expression over ``(n_wires, n_lanes)`` words: a 64x reduction in bytes
moved per logic op, which is where simulation-based verifiers
(aLEAKator-style HDL simulation, bitsliced cipher evaluation) get their
throughput.

The packing convention is fixed by :func:`numpy.packbits` with
``bitorder="little"`` applied to the little-endian ``uint8`` view of the
lanes: trace ``i`` lives in lane ``i // 64``, and the whole codebase
only ever manipulates lanes with position-agnostic bitwise operators
(``& | ^ ~``) plus this module's pack/unpack/popcount, so the mapping of
traces to bit positions never leaks out.

Padding
-------
A ragged batch (``n_traces % 64 != 0``) pads the final lane with copies
of the **last real trace**, not with zeros.  Every gate is a pointwise
function and all simulator state starts uniform, so by induction the pad
bits shadow the last trace through the whole simulation.  That keeps the
packed engine's data-dependent control flow — "did any trace toggle?" —
*exactly* equal to the boolean engine's: a zero pad would raise phantom
toggles (e.g. through INV) in traces that do not exist, changing event
accounting and liveness guards.  Pad bits are stripped again on unpack,
so they never reach power samples or outputs.

Popcount
--------
:func:`popcount` uses :func:`numpy.bitwise_count` where available
(numpy >= 2.0) and falls back to an 8-bit lookup table over the
``uint8`` view on older numpy — same values, a few times slower.

Counter planes
--------------
Counting recorders never unpack toggle masks one by one.
:func:`counter_add` takes every live toggle row of a settle at once —
``(k, n_lanes)`` uint64 masks, each tagged with a power bin and an
integer weight — splits each weight ``1 + fanout`` into its set bits
and sums the rows of each (bin, weight bit) segment with a segmented
carry-save adder: full adders ``s = a ^ b ^ c``, ``carry = maj(a, b,
c)`` turn three rows of one segment into a sum row and a carry row one
bit-plane up.  Once no segment holds three rows, the few remaining
vertical counter *planes* (bit ``j`` of every trace's count) are
unpacked and folded into exact int64 per-bin counts by one weighted
vector-matrix product per bin; batches below ``COUNTER_DIRECT_BITS``
skip the adder and fold their rows directly.  The counts are cast to
float32 once per batch —
bitwise-identical to the boolean engine's sequential adds while every
per-bin count stays below ``2**COUNTER_EXACT_BITS`` (all addends are
non-negative integers, and integer-valued float32 sums below 2^24 are
exact in any order).
"""

from __future__ import annotations

import warnings

import numpy as np

from ..obs.log import get_logger

_LOG = get_logger("sim.bitpack")

__all__ = [
    "LANE_BITS",
    "HAVE_BITWISE_COUNT",
    "COUNTER_EXACT_BITS",
    "n_lanes",
    "pack_bool",
    "pack_scalar",
    "unpack_u8",
    "unpack_bool",
    "popcount",
    "counter_add",
    "recorder_accepts_packed",
    "resolve_pack_traces",
    "AutoPackFallbackWarning",
    "reset_auto_pack_warning",
]

#: Traces per packed lane (one ``uint64`` word).
LANE_BITS = 64

#: True when :func:`numpy.bitwise_count` exists (numpy >= 2.0); False
#: means :func:`popcount` runs on the 8-bit LUT fallback.
HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: byte value -> number of set bits, for the numpy<2 popcount fallback.
_POPCOUNT_LUT = np.array(
    [bin(i).count("1") for i in range(256)], dtype=np.uint8
)

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def n_lanes(n_traces: int) -> int:
    """Number of ``uint64`` lanes covering ``n_traces`` trace bits."""
    if n_traces < 1:
        raise ValueError(f"n_traces must be >= 1, got {n_traces}")
    return -(-n_traces // LANE_BITS)


def pack_bool(values: np.ndarray) -> np.ndarray:
    """Pack a boolean array along its last axis into ``uint64`` lanes.

    ``(..., n_traces)`` bool -> ``(..., n_lanes)`` uint64.  A ragged
    final lane is padded with the last trace's value (see the module
    docstring for why zero-padding would be wrong).
    """
    values = np.asarray(values, dtype=bool)
    n = values.shape[-1]
    pad = (-n) % LANE_BITS
    if pad:
        values = np.concatenate(
            [values, np.repeat(values[..., -1:], pad, axis=-1)], axis=-1
        )
    packed = np.packbits(
        np.ascontiguousarray(values), axis=-1, bitorder="little"
    )
    return packed.view(np.uint64)


def pack_scalar(value: bool, lanes: int) -> np.ndarray:
    """A ``(lanes,)`` lane vector with every trace (and pad) bit set to
    ``value`` — the packed image of a scalar broadcast."""
    return np.full(lanes, _ONES if value else np.uint64(0), dtype=np.uint64)


def unpack_u8(packed: np.ndarray, count: int) -> np.ndarray:
    """Unpack lanes to 0/1 ``uint8`` bits, dropping the padding.

    ``(..., n_lanes)`` uint64 -> ``(..., count)`` uint8.  The uint8
    result feeds float energy accumulation directly (the boolean engine
    reads its toggle masks through a ``uint8`` view the same way, so
    downstream float arithmetic is bit-identical).
    """
    return np.unpackbits(
        np.ascontiguousarray(packed).view(np.uint8),
        axis=-1,
        count=count,
        bitorder="little",
    )


def unpack_bool(packed: np.ndarray, count: int) -> np.ndarray:
    """Unpack lanes to a boolean array, dropping the padding."""
    return unpack_u8(packed, count).view(bool)


class AutoPackFallbackWarning(RuntimeWarning):
    """``pack_traces="auto"`` declined to pack because the attached
    recorder has no packed-domain accumulation path (coupling partners,
    transient capture, or a custom recorder without
    ``accepts_packed``) — the batch runs on the boolean engine instead
    of silently landing in the slow per-event unpack leg."""


#: One-shot latch for :class:`AutoPackFallbackWarning` (warn once per
#: process, not once per batch — campaigns resolve per batch).
_auto_fallback_warned = False


def reset_auto_pack_warning() -> None:
    """Re-arm the one-shot :class:`AutoPackFallbackWarning` (tests)."""
    global _auto_fallback_warned
    _auto_fallback_warned = False


def recorder_accepts_packed(recorder) -> bool:
    """Whether a recorder can consume packed lanes without per-event
    unpacking.

    ``None`` and null recorders trivially qualify (nothing to record).
    Recorders that demand the exact boolean transient stream
    (``requires_transients``) never do.  Everything else must advertise
    a truthy ``accepts_packed`` — :class:`repro.sim.power.PowerRecorder`
    does so exactly when it has no coupling partners and its weights
    are small non-negative integers (see ``COUNTER_EXACT_BITS``).
    """
    if recorder is None or getattr(recorder, "is_null", False):
        return True
    if getattr(recorder, "requires_transients", False):
        return False
    return bool(getattr(recorder, "accepts_packed", False))


def resolve_pack_traces(
    pack_traces: "bool | str", n_traces: int, recorder=None
) -> bool:
    """Resolve a ``pack_traces`` request against a batch size (and,
    optionally, the recorder that will observe the batch).

    ``True`` / ``False`` are honoured verbatim (packing tiny batches is
    allowed — a single ragged lane — just rarely worth it; an explicit
    ``True`` with an unpackable recorder runs the per-event unpack leg,
    still bitwise-correct).  ``"auto"`` packs once a batch fills at
    least one full lane (``n_traces >= 64``) **and** the recorder — if
    one is given — accepts packed lanes; otherwise the boolean engine
    is both smaller and faster, and a one-shot
    :class:`AutoPackFallbackWarning` explains the recorder-driven
    fallback.
    """
    if pack_traces == "auto":
        if n_traces < LANE_BITS:
            return False
        if recorder_accepts_packed(recorder):
            return True
        global _auto_fallback_warned
        if not _auto_fallback_warned:
            _auto_fallback_warned = True
            msg = (
                f"pack_traces='auto': recorder "
                f"{type(recorder).__name__} has no packed accumulation "
                "path (coupling partners, transient capture, or no "
                "accepts_packed) — falling back to the boolean engine "
                "for this and similar batches"
            )
            _LOG.info("%s", msg)
            warnings.warn(msg, AutoPackFallbackWarning, stacklevel=2)
        return False
    if isinstance(pack_traces, (bool, np.bool_)):
        return bool(pack_traces)
    raise ValueError(
        f"pack_traces must be True, False or 'auto', got {pack_traces!r}"
    )


def popcount(lanes: np.ndarray) -> np.ndarray:
    """Per-element set-bit count of an unsigned integer array.

    Uses :func:`numpy.bitwise_count` when numpy provides it; otherwise
    an 8-bit LUT over the ``uint8`` view (numpy < 2).  Either way the
    result counts pad bits too — mask or slice first when counting
    toggling *traces* of a ragged final lane.
    """
    if HAVE_BITWISE_COUNT:
        return np.bitwise_count(lanes)
    lanes = np.ascontiguousarray(lanes)
    per_byte = _POPCOUNT_LUT[lanes.view(np.uint8)]
    return per_byte.reshape(lanes.shape + (lanes.dtype.itemsize,)).sum(
        axis=-1, dtype=np.uint8
    )


#: Per-bin per-trace counts below ``2**COUNTER_EXACT_BITS`` are exact
#: as float32 in *any* summation order, so integer count accumulation
#: is bitwise-identical to the boolean engine's sequential float32
#: adds.  At or above it, a flush still produces the correctly-rounded
#: value (one int->float32 rounding) but warns loudly — the boolean
#: engine itself would have drifted by then.
COUNTER_EXACT_BITS = 24


#: Bit-planes reserved per power bin in the carry-save adder's segment
#: keys (``bin * COUNTER_KEY_PLANES + plane``): weights below 2^24 plus
#: the carries of any realistic row count stay far below it.
COUNTER_KEY_PLANES = 64

#: Entry-trace bits (entries x traces) up to which :func:`counter_add`
#: skips the carry-save adder and unpacks every entry: below it, the
#: adder's fixed per-round cost exceeds the unpacking it saves.
COUNTER_DIRECT_BITS = 1 << 21

#: Row-trace bits at which the carry-save adder stops early: the rounds
#: that would remain cost more than unpacking the rows left.
COUNTER_TAIL_BITS = 1 << 18


def counter_add(
    counts: np.ndarray,
    masks: np.ndarray,
    bins: np.ndarray,
    weights: "np.ndarray | None" = None,
    rows: "np.ndarray | None" = None,
) -> None:
    """Add weighted toggle masks into per-bin integer counters.

    ``counts[bins[i]] += weights[i] * bits(masks[rows[i]])`` for every
    entry ``i``, exactly: ``counts`` is ``(n_bins, n_traces)`` int64,
    ``masks`` either ``(k, n_lanes)`` uint64 lanes (pad bits beyond
    ``n_traces`` are dropped) or ``(k, n_traces)`` bool rows,
    ``weights`` non-negative integers (default 1) and ``rows`` the mask
    row of each entry (default: entry ``i`` is row ``i``).  Beyond
    :data:`COUNTER_DIRECT_BITS`, a segmented carry-save adder first sums
    the rows of each (bin, weight bit) in the packed domain, so only a
    few rows per bin are ever unpacked.
    """
    bins = np.asarray(bins, dtype=np.intp)
    if len(bins) == 0:
        return
    if rows is None:
        rows = np.arange(len(bins))
    if weights is None:
        weights = np.ones(len(bins), dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    n = counts.shape[1]
    if len(bins) * n > COUNTER_DIRECT_BITS:
        if masks.dtype == bool:
            masks = pack_bool(masks)
        bins, weights, masks = _carry_save(masks, bins, weights, rows, n)
        rows = np.arange(len(bins))
    elif np.any(bins[1:] < bins[:-1]):
        order = np.argsort(bins, kind="stable")
        bins, weights, rows = bins[order], weights[order], rows[order]
    # Each bin's total is a weighted sum of 0/1 rows: a vector-matrix
    # product, exact in float32 while every partial sum (at most the
    # bin's weight total) stays below 2^24, else in float64.
    starts = np.flatnonzero(np.diff(bins, prepend=-1)).tolist()
    for lo, hi in zip(starts, starts[1:] + [len(bins)]):
        sel = masks[rows[lo:hi]]
        bits = sel.view(np.uint8) if sel.dtype == bool else unpack_u8(sel, n)
        w = weights[lo:hi]
        exact32 = int(w.sum()) < (1 << COUNTER_EXACT_BITS)
        total = w.astype(np.float32 if exact32 else np.float64) @ bits
        counts[bins[lo]] += total.astype(np.int64)


def _carry_save(masks, bins, weights, rows, n_traces):
    """Compress weighted rows to a few power-of-two rows per bin.

    Every entry enters once per set bit ``j`` of its weight, under the
    key ``bin * COUNTER_KEY_PLANES + j``.  Each round applies a full
    adder to every whole triple of rows of one key — the sum stays at
    the key, the carry moves to ``key + 1`` — and a half adder to keys
    holding exactly two rows; leftovers wait for the next round.
    Rounds stop once no key holds three rows, or once the rows left
    fit :data:`COUNTER_TAIL_BITS` when unpacked.

    Returns ``(bins, weights, planes)`` of the remaining rows, sorted
    by bin, with weights ``2**j``: the same weighted per-trace totals
    per bin.
    """
    per_bit = [
        np.flatnonzero((weights >> j) & 1)
        for j in range(int(weights.max()).bit_length())
    ]
    if not per_bit:  # every weight is zero
        return bins[:0], weights[:0], masks[:0]
    key = np.concatenate(
        [bins[e] * COUNTER_KEY_PLANES + j for j, e in enumerate(per_bit)]
    )
    order = np.concatenate(per_bit)
    sort = np.argsort(key, kind="stable")
    key = key[sort]
    order = rows[order[sort]]
    data = masks
    width = masks.shape[1]
    while True:
        n = len(key)
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(key[1:], key[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        sizes = np.diff(starts, append=n)
        if sizes.max() < 3 or n * n_traces <= COUNTER_TAIL_BITS:
            level = key % COUNTER_KEY_PLANES
            return key // COUNTER_KEY_PLANES, 1 << level, data[order]
        size = np.repeat(sizes, sizes)
        rank = np.arange(n) - np.repeat(starts, sizes)
        in_fa = rank < size - size % 3
        fa = np.flatnonzero(in_fa)
        ha = np.flatnonzero((size == 2) & (rank == 0))
        rest = np.flatnonzero(~in_fa & (size != 2))
        m, h = len(fa) // 3, len(ha)
        # next rows: full-adder sums, carries, half-adder sums, carries, rest
        nxt = np.empty((2 * m + 2 * h + len(rest), width), dtype=data.dtype)
        triples = data[order[fa]].reshape(m, 3, width)
        a, b, c = triples[:, 0], triples[:, 1], triples[:, 2]
        fa_sum, fa_carry = nxt[:m], nxt[m : 2 * m]
        np.bitwise_xor(a, b, out=fa_sum)
        np.bitwise_and(a, b, out=fa_carry)
        fa_carry |= np.bitwise_and(fa_sum, c, out=a)
        fa_sum ^= c
        if h:
            a, b = data[order[ha]], data[order[ha + 1]]
            np.bitwise_xor(a, b, out=nxt[2 * m : 2 * m + h])
            np.bitwise_and(a, b, out=nxt[2 * m + h : 2 * m + 2 * h])
        nxt[2 * m + 2 * h :] = data[order[rest]]
        key_fa, key_ha = key[fa[::3]], key[ha]
        key = np.concatenate(
            [key_fa, key_fa + 1, key_ha, key_ha + 1, key[rest]]
        )
        order = np.argsort(key, kind="stable")
        key = key[order]
        data = nxt
