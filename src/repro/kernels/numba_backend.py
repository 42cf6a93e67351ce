"""Optional Numba backend: ``@njit``-compiled scalar loops.

The UPC address-mapping study (Serres et al.) attributes much of PGAS
overhead to per-element translation work that a compiled kernel
eliminates; this backend is that experiment for the simulator's hot
loops.  Where NumPy pays for fused key vectors and full presence-mask
scans, the compiled loops stream each input once with no temporaries.

Numba is **not** a dependency of this tree: the backend registers
itself as unavailable (with the import error as the reason) when the
package is missing, and :func:`repro.kernels.resolve_backend` falls
back to NumPy with a one-line warning — never a crash.  Compilation is
lazy (first call per signature); the JIT'd results are bit-identical to
the baseline because every loop computes the same count/presence
reduction in the same integer domain.

Grouped minima are inherited from the baseline: its dense
``np.minimum.at`` kernel has no sort left for a compiled loop to
remove, and it keeps ``np.minimum``'s IEEE NaN propagation for free.
"""

from __future__ import annotations

import numpy as np

from .base import KernelBackend
from .numpy_backend import NumpyKernels

__all__ = ["NumbaKernels"]

_missing: "str | None" = None
try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit
except ImportError as exc:  # the common case in this tree's base image
    _missing = f"python package 'numba' is not installed ({exc})"

    def njit(*args, **kwargs):  # pragma: no cover - never called when missing
        raise RuntimeError("numba backend used while unavailable")


if _missing is None:  # pragma: no cover - exercised only where numba is installed

    @njit(cache=False, nogil=True)
    def _count_pairs(requesters, owners, out_flat, s):
        for i in range(owners.shape[0]):
            out_flat[owners[i] * s + requesters[i]] += 1

    @njit(cache=False, nogil=True)
    def _owner_distinct(idx, present, counts, size, block, s):
        for i in range(idx.shape[0]):
            present[idx[i]] = 1
        for t in range(s):
            lo = min(t * block, size)
            hi = min((t + 1) * block, size)
            if t == s - 1:
                hi = size
            c = 0
            for j in range(lo, hi):
                c += present[j]
            counts[t] = c

    @njit(cache=False, nogil=True)
    def _segment_distinct(tids, vals, present, counts, vmin, vrange):
        for i in range(tids.shape[0]):
            present[tids[i] * vrange + (vals[i] - vmin)] = 1
        for p in range(counts.shape[0]):
            c = 0
            base = p * vrange
            for j in range(vrange):
                c += present[base + j]
            counts[p] = c


class NumbaKernels(NumpyKernels):
    """Compiled scalar-loop kernels; NumPy baseline for everything else."""

    name = "numba"
    requires = "numba"
    native_ops = ("exchange_matrix", "owner_distinct", "segment_distinct")

    @classmethod
    def missing_reason(cls):
        return _missing

    # pragma-free: the methods below only run where numba imports, and
    # the golden matrix in tests/test_kernels.py covers them there.

    def exchange_matrix(self, requesters, owners, s):  # pragma: no cover - needs numba
        out = np.zeros(s * s, dtype=np.int64)
        _count_pairs(
            np.ascontiguousarray(requesters, dtype=np.int64),
            np.ascontiguousarray(owners, dtype=np.int64),
            out,
            s,
        )
        return out.reshape(s, s)

    def owner_distinct(self, idx, size, block, s):  # pragma: no cover - needs numba
        present = np.zeros(size, dtype=np.uint8)
        counts = np.empty(s, dtype=np.int64)
        _owner_distinct(np.ascontiguousarray(idx), present, counts, size, block, s)
        return counts

    def segment_distinct(self, tids, vals, parts, vmin, vrange):  # pragma: no cover - needs numba
        present = np.zeros(parts * vrange, dtype=np.uint8)
        counts = np.empty(parts, dtype=np.int64)
        _segment_distinct(
            np.ascontiguousarray(tids, dtype=np.int64),
            np.ascontiguousarray(vals, dtype=np.int64),
            present,
            counts,
            vmin,
            vrange,
        )
        return counts
