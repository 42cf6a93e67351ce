"""The kernel-backend layer: dispatch, validation, and bit-identity.

Two contracts are enforced here.  First, every backend importable on
this host must reproduce the golden fingerprint matrix *bit*-identically
— a backend that is fast but wrong is not a backend, it is a bug with a
flag.  Second, selection must fail the way the CLI contract says:
unknown names raise :class:`~repro.errors.UsageError` (exit 2 through
``main``), known-but-unavailable backends fall back to numpy with a
one-line warning, and never a crash.
"""

from __future__ import annotations

import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import kernels
from repro.cli import main
from repro.errors import UsageError
from repro.kernels import state as kernel_state
from repro.kernels.base import KERNEL_OPS, KernelBackend
from repro.kernels.numpy_backend import NumpyKernels, group_minima_numpy
from repro.perf import clear_derived_caches, global_arena
from repro.perf import state as perf_state
from repro.perf.golden import SCENARIOS, Scenario, scenario_fingerprint
from repro.runtime import SharedArray, hps_cluster


def _scenario_id(scenario: Scenario) -> str:
    return scenario.name


def _other_backends() -> list:
    return [n for n in kernels.available_backends() if n != "numpy"]


@pytest.fixture(autouse=True)
def _clean_state():
    """Every test starts and ends on the default backend with cold pools."""
    previous = kernel_state.set_current("numpy")
    clear_derived_caches()
    global_arena().clear()
    yield
    kernel_state.set_current(previous)
    clear_derived_caches()
    global_arena().clear()


# -- golden bit-identity across backends --------------------------------------


_reference_fp: dict = {}


def _numpy_fingerprint(scenario: Scenario) -> dict:
    fp = _reference_fp.get(scenario.name)
    if fp is None:
        with kernels.use_backend("numpy"):
            fp = scenario_fingerprint(scenario)
        _reference_fp[scenario.name] = fp
    return fp


@pytest.mark.parametrize("backend", _other_backends())
@pytest.mark.parametrize("scenario", SCENARIOS, ids=_scenario_id)
def test_backend_is_bit_identical_on_golden_matrix(scenario, backend):
    golden = _numpy_fingerprint(scenario)
    clear_derived_caches()
    global_arena().clear()
    with kernels.use_backend(backend):
        fp = scenario_fingerprint(scenario)
    assert fp == golden, f"{scenario.name}: backend {backend!r} diverged from numpy"


@pytest.mark.skipif(not _other_backends(), reason="only the numpy baseline importable")
def test_mid_process_backend_switch_is_safe(rng):
    """Alternating backends per call must never corrupt pooled scratch
    (the arena keys pools by backend) or the answers."""
    idx = rng.integers(0, 500, size=4000, dtype=np.int64)
    vals = rng.integers(0, 10_000, size=4000, dtype=np.int64)
    expected = group_minima_numpy(idx, vals)
    for _ in range(3):
        for name in kernels.available_backends():
            with kernels.use_backend(name) as backend:
                got = backend.group_minima(idx, vals)
                np.testing.assert_array_equal(got[0], expected[0])
                np.testing.assert_array_equal(got[1], expected[1])


# -- per-op unit tests vs naive references ------------------------------------


def _all_backends():
    return [kernels._load(n) for n in kernels.available_backends()]


@pytest.mark.parametrize("backend", _all_backends(), ids=lambda b: b.name)
class TestOps:
    def test_group_minima_matches_minimum_at(self, backend, rng):
        idx = rng.integers(0, 100, size=2000, dtype=np.int64)
        vals = rng.integers(-50, 10_000, size=2000, dtype=np.int64)
        naive = np.full(100, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(naive, idx, vals)
        targets, minima = backend.group_minima(idx, vals)
        np.testing.assert_array_equal(targets, np.unique(idx))
        np.testing.assert_array_equal(minima, naive[targets])

    def test_group_minima_single_target(self, backend):
        idx = np.zeros(7, dtype=np.int64)
        vals = np.array([5, 3, 9, 3, 8, 4, 6], dtype=np.int64)
        targets, minima = backend.group_minima(idx, vals)
        np.testing.assert_array_equal(targets, [0])
        np.testing.assert_array_equal(minima, [3])

    def test_group_minima_float_nan_propagates_like_minimum_at(self, backend):
        # np.minimum propagates NaN, and the kernel must do so silently:
        # a RuntimeWarning here would surface in every NaN-carrying solve.
        idx = np.array([0, 0, 1, 1], dtype=np.int64)
        vals = np.array([1.0, np.nan, 2.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            targets, minima = backend.group_minima(idx, vals)
        np.testing.assert_array_equal(targets, [0, 1])
        assert np.isnan(minima[0]) and minima[1] == 2.0

    def test_exchange_matrix_matches_histogram(self, backend, rng):
        s = 8
        requesters = rng.integers(0, s, size=300, dtype=np.int64)
        owners = rng.integers(0, s, size=300, dtype=np.int64)
        naive = np.zeros((s, s), dtype=np.int64)
        for o, r in zip(owners, requesters):
            naive[o, r] += 1
        got = np.asarray(backend.exchange_matrix(requesters, owners, s))
        np.testing.assert_array_equal(got, naive)

    def test_exchange_matrix_empty(self, backend):
        got = np.asarray(
            backend.exchange_matrix(
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 4
            )
        )
        np.testing.assert_array_equal(got, np.zeros((4, 4), dtype=np.int64))

    def test_owner_distinct_matches_unique_per_block(self, backend, rng):
        size, s = 103, 8  # ragged final block on purpose
        block = -(-size // s)
        idx = rng.integers(0, size, size=400, dtype=np.int64)
        naive = np.zeros(s, dtype=np.int64)
        for t in range(s):
            lo, hi = t * block, min((t + 1) * block, size) if t < s - 1 else size
            naive[t] = np.unique(idx[(idx >= lo) & (idx < hi)]).size
        got = backend.owner_distinct(idx, size, block, s)
        np.testing.assert_array_equal(got, naive)

    def test_segment_distinct_matches_unique_per_thread(self, backend, rng):
        parts = 6
        tids = np.sort(rng.integers(0, parts, size=300, dtype=np.int64))
        vals = rng.integers(10, 60, size=300, dtype=np.int64)
        vmin, vrange = 10, 50
        naive = np.array(
            [np.unique(vals[tids == t]).size for t in range(parts)], dtype=np.int64
        )
        got = backend.segment_distinct(tids, vals, parts, vmin, vrange)
        np.testing.assert_array_equal(got, naive)

    def test_concat_segments_interleaves(self, backend):
        a_off = np.array([0, 2, 3, 6], dtype=np.int64)
        b_off = np.array([0, 1, 4, 4], dtype=np.int64)  # empty final b-segment
        a = np.array([10, 11, 20, 30, 31, 32], dtype=np.int64)
        b = np.array([100, 200, 201, 202], dtype=np.int64)
        sizes = np.diff(a_off) + np.diff(b_off)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        got = backend.concat_segments(a, a_off, b, b_off, offsets)
        np.testing.assert_array_equal(
            got, [10, 11, 100, 20, 200, 201, 202, 30, 31, 32]
        )


# -- dense grouped-minimum kernel vs np.minimum.at ----------------------------

_I64_MAX = np.iinfo(np.int64).max
_FLOAT_VALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from([np.inf, -np.inf, np.nan]),
)


def _int_vals(dtype, extremes_only):
    info = np.iinfo(dtype)
    extremes = st.sampled_from([int(info.max), int(info.min), 0])
    if extremes_only:
        return extremes
    return st.one_of(st.integers(int(info.min), int(info.max)), st.integers(-5, 5), extremes)


@st.composite
def _scatter_inputs(draw):
    dtype = draw(st.sampled_from([np.int64, np.int32, np.float64]))
    n = draw(st.integers(1, 64))
    shape = draw(st.sampled_from(["spread", "duplicate-heavy", "single-target"]))
    span = {"spread": 64, "duplicate-heavy": 3, "single-target": 1}[shape]
    base = draw(st.integers(0, 40))
    idx = draw(st.lists(st.integers(base, base + span - 1), min_size=n, max_size=n))
    if dtype is np.float64:
        elems = _FLOAT_VALS
    else:
        elems = _int_vals(dtype, extremes_only=draw(st.booleans()))
    vals = draw(st.lists(elems, min_size=n, max_size=n))
    extra = draw(st.sampled_from([None, 0, 1, 17]))
    return np.array(idx, dtype=np.int64), np.array(vals, dtype=dtype), extra


# Pinned edge cases: a target whose only proposals are the dtype's max
# (the kernel's identity must not leak out), and float ±inf / NaN.
@example((np.array([3, 3, 1]), np.array([_I64_MAX, _I64_MAX, 7]), None))
@example((np.array([2, 0]), np.array([2**31 - 1, -(2**31)], dtype=np.int32), 0))
@example((np.array([1, 1, 2, 2, 4]), np.array([np.inf, np.nan, -np.inf, np.inf, np.inf]), 17))
@given(_scatter_inputs())
def test_property_group_minima_matches_minimum_at(inputs):
    idx, vals, extra = inputs
    hi = int(idx.max()) + 1
    fill = np.inf if vals.dtype.kind == "f" else np.iinfo(vals.dtype).max
    naive = np.full(hi, fill, dtype=vals.dtype)
    with np.errstate(invalid="ignore"):
        np.minimum.at(naive, idx, vals)
    expected_targets = np.unique(idx)
    size = None if extra is None else hi + extra
    for name in kernels.available_backends():
        with kernels.use_backend(name) as backend:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                targets, minima = backend.group_minima(idx, vals, size)
        np.testing.assert_array_equal(targets, expected_targets)
        assert minima.dtype == vals.dtype
        np.testing.assert_array_equal(minima, naive[expected_targets])


@st.composite
def _shared_scatter_inputs(draw):
    size = draw(st.integers(1, 60))
    n = draw(st.integers(1, 150))
    span = draw(st.sampled_from([size, min(size, 3), 1]))
    idx = draw(st.lists(st.integers(0, span - 1), min_size=n, max_size=n))
    small = st.integers(-1000, 1000)
    # "all": every proposal is the sentinel, which scatter_store_min
    # must drop entirely.
    sentinels = draw(st.sampled_from(["none", "some", "all"]))
    proposal = {
        "none": small,
        "some": st.one_of(small, st.just(_I64_MAX)),
        "all": st.just(_I64_MAX),
    }[sentinels]
    vals = draw(st.lists(proposal, min_size=n, max_size=n))
    data = draw(st.lists(st.one_of(small, st.just(_I64_MAX)), min_size=size, max_size=size))
    return np.array(data, np.int64), np.array(idx, np.int64), np.array(vals, np.int64)


@given(_shared_scatter_inputs(), st.sampled_from(["scatter_min", "scatter_store_min"]))
def test_property_shared_scatters_match_legacy_engine(inputs, op):
    """The dense fast path reproduces the legacy ``np.minimum.at`` paths
    exactly — changed count and array bytes — including proposals equal
    to ``iinfo(int64).max``, which ``scatter_store_min`` drops as
    "untouched" on both paths."""
    data, idx, vals = inputs
    machine = hps_cluster(2, 2)
    fast = SharedArray(machine, data.copy())
    legacy = SharedArray(machine, data.copy())
    fast_changed = getattr(fast, op)(idx, vals)
    with perf_state.legacy_engine():
        legacy_changed = getattr(legacy, op)(idx, vals)
    assert fast_changed == legacy_changed
    np.testing.assert_array_equal(fast.data, legacy.data)


def test_scatter_store_min_drops_int64_max_proposals():
    machine = hps_cluster(2, 2)
    for engine in (contextlib.nullcontext, perf_state.legacy_engine):
        arr = SharedArray(machine, np.array([5, 6, 7, 8], dtype=np.int64))
        with engine():
            changed = arr.scatter_store_min(
                np.array([0, 1, 1], dtype=np.int64),
                np.array([_I64_MAX, _I64_MAX, 9], dtype=np.int64),
            )
        assert changed == 1
        np.testing.assert_array_equal(arr.data, [5, 9, 7, 8])


# -- selection / validation ---------------------------------------------------


def test_resolve_backend_defaults_to_numpy():
    assert kernels.resolve_backend(None) == "numpy"
    assert kernels.resolve_backend("") == "numpy"
    assert kernels.resolve_backend("  NumPy  ") == "numpy"


def test_resolve_backend_rejects_unknown_names():
    with pytest.raises(UsageError, match="unknown kernel backend 'bogus'"):
        kernels.resolve_backend("bogus")
    with pytest.raises(UsageError, match=r"\(from --backend\)"):
        kernels.resolve_backend("bogus", source="--backend")


def test_missing_reason_rejects_unknown_names():
    with pytest.raises(UsageError, match="unknown kernel backend"):
        kernels.missing_reason("bogus")


def test_unavailable_backend_falls_back_with_one_warning(monkeypatch, capsys):
    monkeypatch.setattr(
        kernels, "missing_reason", lambda name: "python package 'numba' is not installed"
    )
    monkeypatch.setattr(kernels, "_warned", set())
    assert kernels.resolve_backend("numba") == "numpy"
    assert kernels.resolve_backend("numba") == "numpy"
    err = capsys.readouterr().err
    assert err.count("falling back to 'numpy'") == 1
    assert "numba" in err


def test_available_backends_always_includes_numpy():
    names = kernels.available_backends()
    assert "numpy" in names
    for name in names:
        assert kernels.missing_reason(name) is None


def test_set_backend_returns_previous():
    previous = kernels.set_backend("numpy")
    assert kernels.backend_name() == "numpy"
    assert kernels.set_backend(previous) == "numpy"


def test_use_backend_restores_unresolved_state():
    kernel_state.set_current(None)
    with kernels.use_backend("numpy"):
        assert kernel_state.current_name() == "numpy"
    assert kernel_state.current_name() is None
    kernel_state.set_current("numpy")


def test_env_selection_is_lazy(monkeypatch):
    monkeypatch.setenv("REPRO_PERF_BACKEND", "bogus")
    kernel_state.set_current(None)
    # Import-time / idle state: nothing raised yet.
    with pytest.raises(UsageError, match="REPRO_PERF_BACKEND"):
        kernels.backend_name()
    kernel_state.set_current("numpy")


def test_backend_capabilities_shape():
    caps = {c["backend"]: c for c in kernels.backend_capabilities()}
    assert set(caps) == {"numpy", "numba", "scipy"}
    assert caps["numpy"]["available"] and caps["numpy"]["requires"] is None
    assert caps["numpy"]["native_ops"] == KERNEL_OPS
    for cap in caps.values():
        assert set(cap["native_ops"]) | set(cap["delegated_ops"]) == set(KERNEL_OPS)
        if not cap["available"]:
            assert cap["reason"]


def test_calibrate_backends_records():
    records = {r["backend"]: r for r in kernels.calibrate_backends(repeats=1, scale=0.02)}
    assert set(records) == {"numpy", "numba", "scipy"}
    assert records["numpy"]["seconds"] > 0
    assert records["numpy"]["speedup_vs_numpy"] == 1.0
    for rec in records.values():
        assert rec["available"] == (rec["seconds"] is not None)


def test_recommend_backend_is_an_available_backend():
    assert kernels.recommend_backend() in kernels.available_backends()


def test_tuning_reexports_calibrate_backends():
    from repro.tuning import calibrate_backends

    records = calibrate_backends(repeats=1, scale=0.02)
    assert {r["backend"] for r in records} == {"numpy", "numba", "scipy"}


def test_base_backend_ops_are_abstract():
    base = KernelBackend()
    with pytest.raises(NotImplementedError):
        base.group_minima(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))
    assert KernelBackend.available()


# -- CLI contract -------------------------------------------------------------


def test_cli_rejects_unknown_backend(capsys):
    assert main(["cc", "--n", "200", "--machine", "2x2", "--backend", "bogus"]) == 2
    assert "unknown kernel backend 'bogus'" in capsys.readouterr().err


def test_cli_runs_each_available_backend():
    for name in kernels.available_backends():
        assert (
            main(["cc", "--n", "500", "--machine", "2x2", "--backend", name]) == 0
        )
    kernel_state.set_current("numpy")


# -- arena pools are keyed by backend -----------------------------------------


def test_arena_pools_are_backend_keyed():
    arena = global_arena()
    arena.clear()
    kernel_state.set_current("numpy")
    buf = arena.take(1000, np.int64)
    base_numpy = buf.base
    arena.give(buf)
    # Same request under another backend name must not see numpy's pool.
    kernel_state.set_current("scipy")
    other = arena.take(1000, np.int64)
    assert other.base is not base_numpy
    arena.give(other)
    # Back on numpy, the pooled buffer is reused.
    kernel_state.set_current("numpy")
    again = arena.take(1000, np.int64)
    assert again.base is base_numpy
    arena.give(again)
    arena.clear()


def test_numpy_backend_is_the_default_dispatch():
    assert isinstance(kernels.active_backend(), NumpyKernels)
