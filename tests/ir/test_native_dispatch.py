"""Kernel dispatcher: entry tier, numba promotion, shared cache, crosscheck."""

import numpy as np
import pytest

from repro.errors import NativeMismatch
from repro.ir import ArrayStorage
from repro.ir.columnar import log_differences
from repro.ir.native import (
    KernelCache,
    KernelDispatcher,
    TIER_NUMBA,
    TIER_SRC,
    TierPolicy,
)
from repro.obs import Instrumentation

from ..conftest import lowered

SRC = """
class T { static void f(double[] a, double[] b, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) {
    if (a[i] > 0.0) { b[i] = a[i] * 2.0; } else { b[i] = -a[i]; }
  }
} }
"""


def _fn():
    return lowered(SRC)[1]


def _storage(n=16):
    return ArrayStorage(
        {"a": np.arange(-4, n - 4, dtype=np.float64), "b": np.zeros(n)}
    )


class TestPromotion:
    def test_first_launch_compiles_src(self):
        cache = KernelCache()
        d = KernelDispatcher(cache=cache)
        fn = _fn()
        d.run_direct(fn, [0, 1], {}, _storage())
        assert cache.compiles["src"] == 1
        assert cache.compiles["interp"] == 0
        ref = KernelDispatcher(cache=KernelCache(), native=False)
        ref.run_direct(fn, [0, 1], {}, _storage())
        assert d.take_counts(fn) == ref.take_counts(fn)

    def test_repeat_launches_reuse_one_src_compile(self):
        cache = KernelCache()
        d = KernelDispatcher(cache=cache)
        fn = _fn()
        d.run_direct(fn, list(range(8)), {}, _storage())
        d.run_direct(fn, list(range(8)), {}, _storage())
        assert cache.compiles["src"] == 1
        assert cache.compiles["interp"] == 0

    def test_native_off_never_promotes(self):
        cache = KernelCache()
        d = KernelDispatcher(cache=cache, native=False)
        fn = _fn()
        d.run_direct(fn, list(range(16)), {}, _storage())
        assert cache.compiles["src"] == 0
        assert cache.compiles["interp"] == 1

    def test_src_entry_emits_no_promote_span(self):
        obs = Instrumentation.recording()
        d = KernelDispatcher(cache=KernelCache(), obs=obs)
        fn = _fn()
        d.run_direct(fn, [0, 1], {}, _storage())
        assert not [
            s for s in obs.tracer.finished_spans()
            if s.name.startswith("promote:")
        ]

    def test_one_large_launch_promotes_immediately(self):
        # the one remaining rung: a span marks src -> numba, and the
        # launch still runs (on src when numba is absent)
        obs = Instrumentation.recording()
        d = KernelDispatcher(
            cache=KernelCache(), policy=TierPolicy(numba_threshold=16), obs=obs
        )
        fn = _fn()
        d.run_direct(fn, list(range(16)), {}, _storage())
        d.run_direct(fn, list(range(16)), {}, _storage())
        spans = [
            s for s in obs.tracer.finished_spans()
            if s.name.startswith("promote:")
        ]
        assert len(spans) == 1
        assert spans[0].attrs["tier"] == TIER_NUMBA
        assert spans[0].attrs["from_tier"] == TIER_SRC
        assert spans[0].attrs["hot_iterations"] == 16

    def test_tier_counters_recorded(self):
        obs = Instrumentation.recording()
        d = KernelDispatcher(cache=KernelCache(), obs=obs)
        fn = _fn()
        d.run_direct(fn, list(range(8)), {}, _storage())
        d.run_direct(fn, list(range(8)), {}, _storage())
        m = obs.metrics
        assert m.counter("kernel.tier.interp").value == 0
        assert m.counter("kernel.tier.src").value == 2
        assert m.counter("kernel.tier.src.iterations").value == 16
        assert m.counter("kernel.compile_s.src").value > 0


class TestSharedCache:
    def test_two_dispatchers_share_compiles(self):
        # N devices / executors of one process compile each kernel once
        cache = KernelCache()
        d1 = KernelDispatcher(cache=cache)
        d2 = KernelDispatcher(cache=cache)
        fn = _fn()
        d1.run_direct(fn, list(range(8)), {}, _storage())
        d2.run_direct(fn, list(range(8)), {}, _storage())
        assert cache.compiles["src"] == 1

    def test_counters_are_per_dispatcher(self):
        cache = KernelCache()
        d1 = KernelDispatcher(cache=cache)
        d2 = KernelDispatcher(cache=cache)
        fn = _fn()
        d1.run_direct(fn, list(range(8)), {}, _storage())
        assert d1.peek_counts(fn).instructions > 0
        assert d2.peek_counts(fn).instructions == 0

    def test_take_counts_drains(self):
        d = KernelDispatcher(cache=KernelCache())
        fn = _fn()
        d.run_direct(fn, list(range(4)), {}, _storage())
        first = d.take_counts(fn)
        assert first.instructions > 0
        assert d.take_counts(fn).instructions == 0


class TestTierEquivalence:
    @pytest.mark.parametrize("flavor", ["direct", "buffered"])
    def test_src_tier_bitwise_equal(self, flavor):
        fn = _fn()
        runs = {}
        for native in (False, True):
            d = KernelDispatcher(cache=KernelCache(), native=native)
            storage = _storage()
            run = getattr(d, f"run_{flavor}")
            out = run(fn, list(range(16)), {}, storage)
            runs[native] = (out, d.take_counts(fn), storage)
            # each flavor runs in exactly one tier from its first launch
            assert d.cache.compiles["src"] == int(native)
            assert d.cache.compiles["interp"] == int(not native)
        out_i, counts_i, st_i = runs[False]
        out_n, counts_n, st_n = runs[True]
        if flavor == "buffered":
            (out_i, log_i), (out_n, log_n) = out_i, out_n
            assert log_differences(log_i, log_n) == []
        assert out_i == out_n
        assert counts_i == counts_n
        for name in st_i.arrays:
            assert np.array_equal(st_i.arrays[name], st_n.arrays[name])


class TestCrosscheck:
    def test_clean_kernel_passes(self):
        obs = Instrumentation.recording()
        d = KernelDispatcher(
            cache=KernelCache(),
            crosscheck=True,
            obs=obs,
        )
        fn = _fn()
        d.run_direct(fn, list(range(16)), {}, _storage())
        assert obs.metrics.counter("kernel.crosscheck.ok").value == 1
        assert obs.metrics.counter("kernel.crosscheck.mismatch").value == 0

    def test_two_index_launch_is_crosschecked(self):
        obs = Instrumentation.recording()
        d = KernelDispatcher(cache=KernelCache(), crosscheck=True, obs=obs)
        d.run_direct(_fn(), [0, 1], {}, _storage())
        assert obs.metrics.counter("kernel.crosscheck.ok").value == 1

    def test_divergence_raises_mismatch(self):
        d = KernelDispatcher(
            cache=KernelCache(),
            crosscheck=True,
        )
        fn = _fn()
        # sabotage the cached src kernel so the tiers disagree
        broken = d.cache.src(fn, "direct")

        class Broken:
            def run(self, indices, env, storage, raw, per_lane):
                out = broken.run(indices, env, storage, raw, per_lane)
                storage.arrays["b"][0] += 1.0
                return out

        d.cache._src[(fn.fingerprint(), "direct")] = Broken()
        with pytest.raises(NativeMismatch, match="diverged"):
            d.run_direct(fn, list(range(16)), {}, _storage())

    def test_flipped_flat_in_buffered_log_raises(self):
        d = KernelDispatcher(
            cache=KernelCache(),
            crosscheck=True,
        )
        fn = _fn()
        broken = d.cache.src(fn, "buffered")

        class Broken:
            def run(self, indices, env, storage, raw, per_lane):
                log = broken.run(indices, env, storage, raw, per_lane)
                log.w_flat[3] ^= 1
                return log

        d.cache._src[(fn.fingerprint(), "buffered")] = Broken()
        with pytest.raises(NativeMismatch, match="write flat column"):
            d.run_buffered(fn, list(range(16)), {}, _storage())

    def test_nan_buffer_values_pass(self):
        src = """
        class T { static void f(double[] a, double[] b, int n) {
          /* acc parallel */
          for (int i = 0; i < n; i++) { b[i] = a[i] * 0.0 / 0.0; }
        } }
        """
        obs = Instrumentation.recording()
        d = KernelDispatcher(
            cache=KernelCache(),
            crosscheck=True,
            obs=obs,
        )
        fn = lowered(src)[1]
        _, log = d.run_buffered(fn, list(range(16)), {}, _storage())
        _pos, _flat, values = log.buffers[log.names.index("b")]
        assert np.isnan(values).all()
        assert obs.metrics.counter("kernel.crosscheck.ok").value == 1
        assert obs.metrics.counter("kernel.crosscheck.mismatch").value == 0

    def test_interpreter_effects_win(self):
        d = KernelDispatcher(
            cache=KernelCache(),
            crosscheck=True,
        )
        fn = _fn()
        storage = _storage()
        expect = _storage()
        KernelDispatcher(cache=KernelCache(), native=False).run_direct(
            fn, list(range(16)), {}, expect
        )
        d.run_direct(fn, list(range(16)), {}, storage)
        assert np.array_equal(storage.arrays["b"], expect.arrays["b"])


class TestNumbaAbsent:
    def test_numba_tier_falls_back_silently(self):
        # this container has no numba: the dispatcher must serve the
        # src tier at numba heat without errors or retries
        from repro.ir.native import numba_backend

        d = KernelDispatcher(
            cache=KernelCache(),
            policy=TierPolicy(numba_threshold=4),
        )
        fn = _fn()
        d.run_direct(fn, list(range(16)), {}, _storage())
        if not numba_backend.available():
            assert d.cache.compiles["numba"] == 0
            assert d.cache._numba[fn.fingerprint()] is None
        # either way the run succeeded and counters accumulated
        assert d.take_counts(fn).instructions > 0
