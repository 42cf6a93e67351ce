"""The NumPy baseline backend: PR 5's fast-engine hot loops, extracted.

This is the reference implementation every other backend is compared
against (and falls back to, per-op, for anything outside its
``native_ops``).  The code is the vectorized rewrite that bought the
original ~2x serial speedup — fused pair keys through the pooled
arena, presence masks with prefix sums — moved verbatim behind the
backend interface.  Grouped minima use a dense presence mask plus one
``np.minimum.at`` over the target range: O(n + size) with no sort.
"""

from __future__ import annotations

import numpy as np

from ..perf import arena
from .base import KERNEL_OPS, KernelBackend

__all__ = ["NumpyKernels", "group_minima_numpy"]


def group_minima_numpy(idx: np.ndarray, vals: np.ndarray, size: "int | None" = None):
    """Grouped minimum over duplicate targets: returns ``(targets,
    minima)`` with ``targets`` the ascending unique indices and
    ``minima`` the minimum value proposed for each, adjudicated by
    ``np.minimum.at`` in input order like the legacy engine.  ``size``
    bounds the targets (``idx < size``): callers that already
    bounds-checked pass it, otherwise the kernel scans ``idx.max()``.
    Module-level so the sharding workers can call it without
    instantiating a backend."""
    if size is None:
        size = int(idx.max()) + 1 if idx.size else 0
    present = np.zeros(size, dtype=bool)
    present[idx] = True
    targets = np.flatnonzero(present)
    identity = np.inf if vals.dtype.kind == "f" else np.iinfo(vals.dtype).max
    buf = np.full(size, identity, dtype=vals.dtype)
    # NaN proposals propagate (np.minimum semantics) without a warning.
    with np.errstate(invalid="ignore"):
        np.minimum.at(buf, idx, vals)
    return targets, buf[targets]


class NumpyKernels(KernelBackend):
    """Pure-NumPy kernels — always available, the bit-identity reference."""

    name = "numpy"
    requires = None
    native_ops = KERNEL_OPS

    def group_minima(self, idx, vals, size=None):
        return group_minima_numpy(idx, vals, size)

    def exchange_matrix(self, requesters, owners, s):
        # Fused key build into pooled scratch (this runs once per
        # collective call on a vector the size of the request buffer).
        with arena.lease(owners.size, np.int64) as keys:
            np.multiply(owners, np.int64(s), out=keys)
            keys += requesters
            return np.bincount(keys, minlength=s * s).reshape(s, s)

    def owner_distinct(self, idx, size, block, s):
        # Presence mask + prefix sums over the blocked layout instead of
        # sorting the (much larger) request vector with np.unique: the
        # distinct count for thread t is the number of marked slots in
        # its affinity range.
        with arena.lease(size, np.int8, clear=True) as present:
            present[idx] = 1
            with arena.lease(size + 1, np.int64) as cum:
                cum[0] = 0
                np.cumsum(present, out=cum[1:])
                tids = np.arange(s, dtype=np.int64)
                starts = np.minimum(tids * block, size)
                ends = np.minimum((tids + 1) * block, size)
                ends[-1] = size
                return cum[ends] - cum[starts]

    def segment_distinct(self, tids, vals, parts, vmin, vrange):
        # Presence mask instead of sorting: mark each (thread, value)
        # slot, then count marks per thread row.
        with arena.lease(parts * vrange, np.int8, clear=True) as present:
            key = tids * np.int64(vrange) + (vals - vmin)
            present[key] = 1
            return present.reshape(parts, vrange).sum(axis=1, dtype=np.int64)

    def concat_segments(self, a_data, a_offsets, b_data, b_offsets, offsets):
        # One scatter per input instead of a Python loop of per-segment
        # concatenations: place segment i of `a` at the interleaved
        # output offset, then segment i of `b` right after it.
        sa = np.diff(a_offsets)
        sb = np.diff(b_offsets)
        out = np.empty(
            int(offsets[-1]), dtype=np.result_type(a_data.dtype, b_data.dtype)
        )
        shift_a = np.repeat(offsets[:-1] - a_offsets[:-1], sa)
        out[np.arange(a_data.shape[0], dtype=np.int64) + shift_a] = a_data
        shift_b = np.repeat(offsets[:-1] + sa - b_offsets[:-1], sb)
        out[np.arange(b_data.shape[0], dtype=np.int64) + shift_b] = b_data
        return out
