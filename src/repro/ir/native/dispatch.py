"""Tier selection and execution fronting for compiled kernels.

``KernelDispatcher`` owns the per-context work counters and hotness
state; the compiled artifacts themselves live in a process-wide
``KernelCache`` shared by every device and executor, so an N-device
pool compiles each kernel once:

* stateless tiers (generated-source ``NativeKernel``, numba, the
  NumPy ``VectorizedKernel``) are cached globally under a lock, keyed
  ``(ir_fingerprint, flavor)``;
* the stateful scalar interpreter (``CompiledKernel`` closures capture
  their counters and backend) is cached per *thread*, which still
  deduplicates the per-device copies of the old per-instance caches.

``_select`` is the one place a launch's tier is chosen.  A non-empty
launch of a straight-line kernel runs on ``vector`` (all lanes at once,
both flavors, with ``native`` on or off) unless the caller says
iteration order matters.  Otherwise, with ``native`` on, every kernel
runs on ``src`` from its first launch; the scalar interpreter serves
``native=False`` and is the crosscheck oracle.  The one promotion is
``src`` → ``numba``, by a cumulative iteration count (one large launch
promotes immediately); it applies to the direct flavor only and is
skipped silently when numba is not importable or its compile fails.
``crosscheck`` mode replays every vector, src and numba execution
through the interpreter oracle and compares results bitwise — the
oracle's effects always win.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ...errors import NativeMismatch
from ...obs.metrics import NULL_INSTRUMENTATION, Instrumentation
from ..columnar import log_differences
from ..instructions import IRFunction
from ..interpreter import (
    ArrayStorage,
    C_TOTAL,
    CompiledKernel,
    Counts,
    DirectBackend,
    N_COUNTERS,
    SpeculativeBackend,
)
from ..vectorizer import VectorizedKernel, can_vectorize
from .codegen import DEFAULT_FUEL, NativeKernel

TIER_INTERP = "interp"
TIER_VECTOR = "vector"
TIER_SRC = "src"
TIER_NUMBA = "numba"

_BACKENDS = {
    "direct": DirectBackend,
    "buffered": SpeculativeBackend,
}


@dataclass
class TierPolicy:
    """The numba promotion threshold, in cumulative iterations per kernel."""

    #: iterations before the numba tier is attempted (direct flavor only)
    numba_threshold: int = 65536


class KernelCache:
    """Process-wide cache of compiled kernel artifacts.

    Stateless artifacts (src/numba/vectorized kernels) are shared across
    threads; interpreter kernels are stateful and cached thread-locally.
    ``compiles`` counts real compilations per tier (test observability).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._src: dict[tuple[str, str], NativeKernel] = {}
        self._numba: dict[str, object] = {}
        self._vector: dict[tuple[str, str], VectorizedKernel] = {}
        self._local = threading.local()
        self.compiles = {"interp": 0, "src": 0, "numba": 0, "vector": 0}

    # -- interpreter tier (thread-local, stateful) ----------------------

    def interp(self, fn: IRFunction) -> CompiledKernel:
        kernels = getattr(self._local, "kernels", None)
        if kernels is None:
            kernels = self._local.kernels = {}
        key = fn.fingerprint()
        kern = kernels.get(key)
        if kern is None:
            kern = kernels[key] = CompiledKernel(fn)
            with self._lock:
                self.compiles["interp"] += 1
        return kern

    # -- stateless tiers ------------------------------------------------

    def src(
        self,
        fn: IRFunction,
        flavor: str,
        obs: Instrumentation = NULL_INSTRUMENTATION,
        fuel: int = DEFAULT_FUEL,
    ) -> NativeKernel:
        key = (fn.fingerprint(), flavor)
        kern = self._src.get(key)
        if kern is not None:
            return kern
        with self._lock:
            kern = self._src.get(key)
            if kern is None:
                started = time.perf_counter()
                kern = NativeKernel(fn, flavor, fuel)
                self.compiles["src"] += 1
                obs.metrics.counter("kernel.compile_s.src").inc(
                    time.perf_counter() - started
                )
                self._src[key] = kern
        return kern

    def numba(
        self,
        fn: IRFunction,
        obs: Instrumentation = NULL_INSTRUMENTATION,
        fuel: int = DEFAULT_FUEL,
    ):
        """The numba-tier kernel, or None when unavailable/failed."""
        key = fn.fingerprint()
        if key in self._numba:
            return self._numba[key]
        with self._lock:
            if key in self._numba:
                return self._numba[key]
            from . import numba_backend

            kern = None
            if numba_backend.available():
                started = time.perf_counter()
                kern = numba_backend.compile_kernel(fn, fuel)
                if kern is not None:
                    self.compiles["numba"] += 1
                    obs.metrics.counter("kernel.compile_s.numba").inc(
                        time.perf_counter() - started
                    )
            self._numba[key] = kern
        return kern

    def numba_failed(self, fn: IRFunction) -> None:
        """Permanently disable the numba tier for one kernel."""
        with self._lock:
            self._numba[fn.fingerprint()] = None

    def vector(self, fn: IRFunction, flavor: str) -> VectorizedKernel:
        key = (fn.fingerprint(), flavor)
        kern = self._vector.get(key)
        if kern is None:
            with self._lock:
                kern = self._vector.get(key)
                if kern is None:
                    kern = self._vector[key] = VectorizedKernel(fn, flavor)
                    self.compiles["vector"] += 1
        return kern

    def clear(self) -> None:
        with self._lock:
            self._src.clear()
            self._numba.clear()
            self._vector.clear()
            self._local = threading.local()
            for k in self.compiles:
                self.compiles[k] = 0


#: The default process-wide cache every context shares.
GLOBAL_KERNEL_CACHE = KernelCache()


class KernelDispatcher:
    """Runs kernels through the hottest correct tier.

    One dispatcher is shared by all devices and the CPU executor of an
    execution context; it owns the per-kernel raw work counters (so
    partial counts from faulted attempts accumulate exactly as the old
    per-device ``CompiledKernel`` counters did) and the hotness state
    driving numba promotion.
    """

    def __init__(
        self,
        cache: Optional[KernelCache] = None,
        policy: Optional[TierPolicy] = None,
        obs: Optional[Instrumentation] = None,
        native: bool = True,
        crosscheck: bool = False,
        fuel: int = DEFAULT_FUEL,
    ):
        self.cache = cache or GLOBAL_KERNEL_CACHE
        self.policy = policy or TierPolicy()
        self.obs = obs or NULL_INSTRUMENTATION
        self.native = native
        self.crosscheck = crosscheck
        self.fuel = fuel
        self._raw: dict[str, list[int]] = {}
        self._hot: dict[str, int] = {}
        self._promoted: set[str] = set()

    # -- counters -------------------------------------------------------

    def counters(self, fn: IRFunction) -> list[int]:
        key = fn.fingerprint()
        raw = self._raw.get(key)
        if raw is None:
            raw = self._raw[key] = [0] * N_COUNTERS
        return raw

    def take_counts(self, fn: IRFunction) -> Counts:
        """Return and reset the kernel's accumulated work counters."""
        raw = self.counters(fn)
        counts = Counts.from_raw(raw)
        for k in range(N_COUNTERS):
            raw[k] = 0
        return counts

    def peek_counts(self, fn: IRFunction) -> Counts:
        return Counts.from_raw(self.counters(fn))

    # -- tier selection -------------------------------------------------

    def vectorizes(
        self, fn: IRFunction, n: int, ordered: bool = False
    ) -> bool:
        """True when a launch of ``n`` indices runs on the vector tier.

        ``ordered`` marks runs whose iteration order matters (sequential
        fallbacks, loops with false dependences); they run lane by lane.
        """
        return n > 0 and not ordered and can_vectorize(fn)

    def _select(
        self, fn: IRFunction, flavor: str, n: int, ordered: bool
    ) -> str:
        if self.vectorizes(fn, n, ordered):
            return TIER_VECTOR
        if not self.native:
            return TIER_INTERP
        key = fn.fingerprint()
        hot = self._hot.get(key, 0) + n
        self._hot[key] = hot
        if flavor != "direct" or hot < self.policy.numba_threshold:
            return TIER_SRC
        if key not in self._promoted:
            self._promoted.add(key)
            with self.obs.tracer.span(
                f"promote:{fn.name}",
                "kernel",
                tier=TIER_NUMBA,
                from_tier=TIER_SRC,
                hot_iterations=hot,
            ):
                pass
        return TIER_NUMBA

    def _record(self, tier: str, flavor: str, n: int) -> None:
        m = self.obs.metrics
        m.counter(f"kernel.tier.{tier}").inc()
        m.counter(f"kernel.tier.{tier}.iterations").inc(n)
        m.counter(f"kernel.dispatch.{flavor}").inc()

    # -- execution ------------------------------------------------------

    def run_direct(
        self,
        fn: IRFunction,
        indices: Sequence[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
        ordered: bool = False,
    ) -> Optional[list[int]]:
        """Run indices in order, writes straight to storage.

        Returns the per-index instruction totals (the divergence input),
        or None when the launch ran on the vector tier, whose lanes are
        uniform.  ``ordered`` keeps the launch off the vector tier.
        """
        return self._run(fn, "direct", indices, scalar_env, storage, ordered)

    def run_buffered(
        self,
        fn: IRFunction,
        indices: Sequence[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
    ):
        """SE-phase run: per-lane write buffers + read/write logs.

        Returns ``(per_lane, ColumnarLanes)``; ``per_lane`` is None on the
        vector tier, as for :meth:`run_direct`.
        """
        return self._run(fn, "buffered", indices, scalar_env, storage, False)

    def _run(self, fn, flavor, indices, scalar_env, storage, ordered):
        indices = list(indices)
        tier = self._select(fn, flavor, len(indices), ordered)
        if tier != TIER_INTERP and self.crosscheck:
            self._record(tier, flavor, len(indices))
            return self._run_crosschecked(
                fn, flavor, tier, indices, scalar_env, storage
            )
        if tier == TIER_VECTOR:
            self._record(TIER_VECTOR, flavor, len(indices))
            lanes = self._run_vector(
                fn, flavor, indices, scalar_env, storage, self.counters(fn)
            )
            return None if flavor == "direct" else (None, lanes)
        if tier == TIER_NUMBA:
            result = self._run_numba(fn, indices, scalar_env, storage)
            if result is not None:
                self._record(TIER_NUMBA, flavor, len(indices))
                return result
            tier = TIER_SRC
        if tier == TIER_SRC:
            self._record(TIER_SRC, flavor, len(indices))
            return self._run_src(fn, flavor, indices, scalar_env, storage)
        self._record(TIER_INTERP, flavor, len(indices))
        return self._run_interp(fn, flavor, indices, scalar_env, storage)

    def _run_interp(self, fn, flavor, indices, scalar_env, storage):
        kern = self.cache.interp(fn)
        backend = _BACKENDS[flavor](storage)
        per_lane: list[int] = []
        counters = kern.counters
        try:
            for i in indices:
                before = counters[C_TOTAL]
                kern.run_index(i, scalar_env, backend)
                per_lane.append(counters[C_TOTAL] - before)
        finally:
            # drain into the dispatcher-owned counters so the shared,
            # thread-local CompiledKernel stays clean between callers
            # and partial counts survive exceptions
            kern.take_counts().add_to_raw(self.counters(fn))
        if flavor == "buffered":
            return per_lane, backend.finish(indices)
        return per_lane

    def _run_vector(self, fn, flavor, indices, scalar_env, storage, raw):
        """All lanes at once; returns the buffered log (None if direct)."""
        counts, lanes = self.cache.vector(fn, flavor).run_range(
            storage, scalar_env, np.asarray(indices, dtype=np.int64)
        )
        counts.add_to_raw(raw)
        return lanes

    def _run_src(self, fn, flavor, indices, scalar_env, storage):
        kern = self.cache.src(fn, flavor, self.obs, self.fuel)
        per_lane: list[int] = []
        aux = kern.run(
            indices, scalar_env, storage, self.counters(fn), per_lane
        )
        if flavor == "direct":
            return per_lane
        return per_lane, aux

    def _run_numba(self, fn, indices, scalar_env, storage):
        kern = self.cache.numba(fn, self.obs, self.fuel)
        if kern is None:
            return None
        from . import numba_backend

        per_lane: list[int] = []
        try:
            kern.run(indices, scalar_env, storage, self.counters(fn), per_lane)
        except numba_backend.NumbaFallback as fb:
            if fb.permanent:
                self.cache.numba_failed(fn)
            return None
        return per_lane

    # -- crosscheck mode ------------------------------------------------

    def _run_crosschecked(
        self, fn, flavor, tier, indices, scalar_env, storage
    ):
        """Replay through the interpreter oracle and compare bitwise.

        The native tier runs against a scratch copy of memory; the
        interpreter runs against the real storage so its effects (and
        its counts) are the ones the caller keeps.
        """
        scratch = ArrayStorage(storage.snapshot())
        native_raw = [0] * N_COUNTERS
        native_pl: list[int] = []
        native_aux = native_err = None
        try:
            if tier == TIER_NUMBA:
                kern = self.cache.numba(fn, self.obs, self.fuel)
                if kern is None:
                    tier = TIER_SRC
            if tier == TIER_NUMBA:
                kern.run(indices, scalar_env, scratch, native_raw, native_pl)
            elif tier == TIER_VECTOR:
                native_aux = self._run_vector(
                    fn, flavor, indices, scalar_env, scratch, native_raw
                )
                # uniform lanes: each ran the whole block once
                n = len(indices)
                native_pl = [native_raw[C_TOTAL] // n] * n
            else:
                kern = self.cache.src(fn, flavor, self.obs, self.fuel)
                native_aux = kern.run(
                    indices, scalar_env, scratch, native_raw, native_pl
                )
        except Exception as exc:  # noqa: BLE001 - compared to the oracle
            native_err = exc

        interp_raw_before = list(self.counters(fn))
        interp_aux = interp_err = None
        try:
            result = self._run_interp(fn, flavor, indices, scalar_env, storage)
        except Exception as exc:  # noqa: BLE001
            interp_err = exc
        else:
            if flavor == "direct":
                interp_pl = result
            else:
                interp_pl, interp_aux = result

        diffs: list[str] = []
        if (native_err is None) != (interp_err is None) or (
            interp_err is not None
            and (
                type(native_err) is not type(interp_err)
                or str(native_err) != str(interp_err)
            )
        ):
            diffs.append(
                f"exception: interp={interp_err!r} native={native_err!r}"
            )
        if interp_err is None and native_err is None:
            if native_pl != interp_pl:
                diffs.append("per-lane instruction totals differ")
            delta = [
                after - before
                for before, after in zip(
                    interp_raw_before, self.counters(fn)
                )
            ]
            if native_raw != delta:
                diffs.append(
                    f"work counters differ: interp={delta} native={native_raw}"
                )
            for name, arr in storage.arrays.items():
                other = scratch.arrays.get(name)
                if (
                    other is None
                    or other.dtype != arr.dtype
                    or not np.array_equal(arr, other)
                ):
                    diffs.append(f"array {name!r} differs")
            if flavor == "buffered":
                diffs.extend(
                    f"buffered log {col} differs"
                    for col in log_differences(native_aux, interp_aux)
                )
        if diffs:
            self.obs.metrics.counter("kernel.crosscheck.mismatch").inc()
            raise NativeMismatch(
                f"native tier {tier!r} diverged from the interpreter on "
                f"kernel {fn.name!r} ({flavor}): " + "; ".join(diffs)
            )
        self.obs.metrics.counter("kernel.crosscheck.ok").inc()
        if interp_err is not None:
            raise interp_err
        if tier == TIER_VECTOR:
            interp_pl = None
        if flavor == "direct":
            return interp_pl
        return interp_pl, interp_aux
