"""Greedy minimal-refresh search, factored out of ``des.selective_refresh``.

The search itself is gadget-agnostic: given a *defect function* that
measures how far a masked design's share distribution is from uniform
under an arbitrary subset of refresh positions, drop positions one at a
time and keep a drop only while the defect stays within a tolerance of
the full-refresh statistical floor.  The DES exploration
(:mod:`repro.des.selective_refresh`) and the compiler's refresh pass
(:mod:`repro.compile.refresh`) both run this exact loop — only the
defect function differs.

The defect function receives ``(mask, salt)``.  ``salt`` is a small
integer the caller folds into its RNG seed so every evaluation draws an
independent sample: ``0`` for the full-refresh floor, ``pos + 1`` for
the trial that drops position ``pos``, and ``FINAL_SALT`` for the
confirmation run on the final mask.  These values are pinned so the
factored search reproduces the historical ``des.selective_refresh``
numerics bit-for-bit.

Both defect functions also share their sampler: :func:`sample_all_inputs`
draws masked samples of every unshared input value in one batch (in the
historical per-value draw order), and :func:`max_group_defect` measures
the worst deviation from uniform of each value's share-0 bit groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FINAL_SALT",
    "GreedySearchResult",
    "greedy_minimize",
    "sample_all_inputs",
    "max_group_defect",
]

#: Salt of the confirmation evaluation on the final mask (historical
#: constant from the original DES search; changing it would shift the
#: reported defect of every pinned plan).
FINAL_SALT = 99

DefectFn = Callable[[Sequence[bool], int], float]


@dataclass(frozen=True)
class GreedySearchResult:
    """Outcome of one greedy minimisation."""

    mask: Tuple[bool, ...]
    defect: float
    floor: float
    threshold: float

    @property
    def bits_used(self) -> int:
        return sum(self.mask)

    @property
    def bits_saved(self) -> int:
        return len(self.mask) - self.bits_used

    @property
    def kept(self) -> Tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.mask) if m)


def greedy_minimize(
    defect_fn: DefectFn,
    n_positions: int,
    tolerance_factor: float = 2.0,
    order: Optional[Sequence[int]] = None,
    threshold_slack: float = 1e-4,
) -> GreedySearchResult:
    """Greedily drop refresh positions while the defect stays bounded.

    Starts from the all-kept mask, measures the full-refresh floor,
    then visits positions in ``order`` (default: highest index first,
    the historical DES order — MUX selects before product terms) and
    drops each one whose removal keeps ``defect_fn`` within
    ``floor * tolerance_factor + threshold_slack``.

    This is an *empirical first-order uniformity* criterion — it bounds
    the distribution of the output shares, which is the property the
    refresh layer restores; it is not a proof of composable security
    (neither is the paper's refresh-everything baseline).
    """
    if n_positions < 0:
        raise ValueError("n_positions must be >= 0")
    mask = [True] * n_positions
    floor = float(defect_fn(mask, 0))
    threshold = floor * tolerance_factor + threshold_slack
    if order is None:
        order = range(n_positions - 1, -1, -1)
    for pos in order:
        mask[pos] = False
        defect = float(defect_fn(mask, pos + 1))
        if defect > threshold:
            mask[pos] = True
    final = float(defect_fn(mask, FINAL_SALT))
    return GreedySearchResult(
        mask=tuple(mask), defect=final, floor=floor, threshold=threshold
    )


def sample_all_inputs(
    rng: np.random.Generator, n_inputs: int, n_rand: int, n_per_input: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masked samples of all ``2**n_inputs`` unshared inputs at once.

    Value ``v`` owns columns ``v * n_per_input`` up to
    ``(v + 1) * n_per_input``.  The draws keep the historical
    per-value order — for each value in turn, the ``(n_inputs,
    n_per_input)`` share-1 bits, then the ``(n_rand, n_per_input)``
    refresh bits — so every sample is the one the per-value samplers
    drew.  Returns boolean ``(s0, s1, rand)`` of shape ``(rows,
    2**n_inputs * n_per_input)``; input bit ``i`` of ``v`` is the
    MSB-first bit ``(v >> (n_inputs - 1 - i)) & 1``.
    """
    size = 1 << n_inputs
    s1 = np.empty((n_inputs, size, n_per_input), dtype=bool)
    rand = np.empty((n_rand, size, n_per_input), dtype=bool)
    for v in range(size):
        s1[:, v] = rng.integers(0, 2, (n_inputs, n_per_input))
        rand[:, v] = rng.integers(0, 2, (n_rand, n_per_input))
    shifts = np.arange(n_inputs - 1, -1, -1)[:, None]
    bits = ((np.arange(size) >> shifts) & 1).astype(bool)
    s0 = bits[:, :, None] ^ s1
    return (
        s0.reshape(n_inputs, -1),
        s1.reshape(n_inputs, -1),
        rand.reshape(n_rand, -1),
    )


def max_group_defect(groups: Iterable[np.ndarray], n_values: int) -> float:
    """Worst deviation from uniform of any bit group, per input value.

    Each group is a ``(width, n_values * n)`` 0/1 array (or a sequence
    of ``width`` such rows) laid out like :func:`sample_all_inputs`'
    columns; its rows are the bits (MSB first) of a ``width``-bit word.
    Returns the maximum over groups, values and words of
    ``|P(word | value) - 2**-width|`` — one ``bincount`` per group,
    with a per-value offset.
    """
    worst = 0.0
    for bits in groups:
        width = len(bits)
        dtype = np.min_scalar_type((1 << width) - 1)
        word = np.zeros(len(bits[0]), dtype=dtype)
        for row in bits:
            word <<= 1
            word |= row
        words = word.reshape(n_values, -1)
        offsets = np.arange(n_values)[:, None] << width
        counts = np.bincount(
            (words + offsets).ravel(), minlength=n_values << width
        ) / words.shape[1]
        deviation = np.abs(counts - 1.0 / (1 << width))
        worst = max(worst, float(np.max(deviation)))
    return worst
