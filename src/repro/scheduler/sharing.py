"""The task-sharing scheme (paper §V-A).

One loop's iteration space is split at the global boundary
``Cg*Fg / (Cg*Fg + Cc*Fc)``: the left part runs on the GPU in ascending
uniform chunks with data prefetched "in advance and asynchronously with
the kernel execution to avoid cyclic communication and to hide some
latency"; the right part runs on the CPU in descending order.  The
execution mode (A/B/C/D/D') decides what "runs on" means on each side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cpusim.threads import block_partition, descending
from ..errors import RuntimeFaultError, UnrecoverableFaultError
from ..faults.plane import SITE_TRANSFER_D2H, SITE_TRANSFER_H2D
from ..faults.resilience import (
    is_recoverable_fault,
    restore_arrays,
    snapshot_arrays,
)
from ..ir.interpreter import N_COUNTERS, ArrayStorage, Counts
from ..obs.tracer import PHASE_SCHEDULE
from ..profiler.report import DependencyProfile
from ..runtime.clock import LANE_CPU, LANE_DMA, LANE_GPU, Timeline
from ..runtime.result import ExecutionResult
from ..tls.engine import GpuTlsEngine
from ..tls.privatize import run_privatized
from ..translate.translator import TranslatedLoop
from .boundary import split_at_boundary
from .context import ExecutionContext
from .modes import RUNG_CPU_MT, RUNG_CPU_SEQ, ExecMode, decide_mode, downgrade_ladder
from .task import Task


@dataclass
class ShareOutcome:
    """Per-side bookkeeping of a shared execution (for tests/reports)."""

    mode: ExecMode
    gpu_iterations: int
    cpu_iterations: int
    profile: Optional[DependencyProfile]


class TaskSharingScheduler:
    """Executes one task cooperatively across the CPU-GPU border."""

    def __init__(self, ctx: ExecutionContext):
        self.ctx = ctx

    # -- public API ----------------------------------------------------------

    def execute(
        self,
        task: Task,
        storage: ArrayStorage,
        scalar_env: dict[str, object],
        timeline: Optional[Timeline] = None,
    ) -> ExecutionResult:
        loop = task.loop
        indices = task.indices(scalar_env)
        tl = timeline if timeline is not None else Timeline()
        faults = self.ctx.faults
        mark = faults.recorder.mark()
        obs = self.ctx.obs

        with obs.tracer.span(
            f"share:{loop.id}", PHASE_SCHEDULE,
            loop=loop.id, iterations=len(indices),
        ) as sp:
            profile, mode = self._plan(loop, indices, scalar_env, storage, tl)
            coalescing = (
                profile.coalescing if profile else loop.static_coalescing
            )

            result, label = self._run_ladder(
                mode, loop, indices, scalar_env, storage, tl, profile,
                coalescing,
            )
            sp.annotate(mode=label)
            sp.set_sim(0.0, result.sim_time_s)
        m = obs.metrics
        m.counter("scheduler.sharing.dispatches").inc()
        m.gauge("scheduler.boundary").set(self.ctx.boundary())
        m.counter("scheduler.gpu_iterations").inc(
            result.detail.get("gpu_iterations", 0)
        )
        m.counter("scheduler.cpu_iterations").inc(
            result.detail.get("cpu_iterations", 0)
        )
        result.mode = label
        result.detail["profile"] = profile
        if faults.enabled:
            result.resilience = faults.recorder.report(since=mark)
        return result

    def _plan(
        self,
        loop: TranslatedLoop,
        indices: list[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
        tl: Timeline,
    ) -> tuple[Optional[DependencyProfile], ExecMode]:
        """Profile (when needed) and pick the execution mode.

        A profiling run killed by injected faults degrades straight to
        mode C: with no dependency information the only safe plan is
        sequential CPU execution.  (Profiling runs against scratch
        memory, so a dead profile leaves no state to roll back.)
        """
        profile: Optional[DependencyProfile] = None
        if not loop.is_static_doall and not loop.cpu_only:
            try:
                profile = self.ctx.ensure_profile(
                    loop, indices, scalar_env, storage
                )
            except RuntimeFaultError as err:
                if not is_recoverable_fault(err):
                    raise
                self.ctx.faults.degraded(
                    err.site, "profile->cpu-seq",
                    detail="profiling failed; falling back to sequential",
                )
                return None, ExecMode.C
            if self.ctx.config.include_profile_time:
                tl.schedule(LANE_GPU, profile.profile_time_s, label="profiling")
        return profile, decide_mode(loop, profile, self.ctx.config.dd_threshold)

    # -- degradation ladder ------------------------------------------------

    def _run_ladder(
        self,
        mode: ExecMode,
        loop: TranslatedLoop,
        indices: list[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
        tl: Timeline,
        profile: Optional[DependencyProfile],
        coalescing: float,
    ) -> tuple[ExecutionResult, str]:
        """Run the mode, degrading rung-by-rung on recoverable faults.

        Each failed rung's partial writes are rolled back from a
        pre-rung snapshot (device copies of rolled-back arrays become
        fully stale), so every rung starts from clean state.  Simulated
        time already scheduled by the failed attempt stays on the
        timeline — failure costs time, never correctness.  Returns the
        result plus its mode label (``"A"`` natively, ``"A->cpu-mt"``
        degraded); raises :class:`UnrecoverableFaultError` when even the
        sequential last resort keeps dying.
        """
        faults = self.ctx.faults
        rungs = downgrade_ladder(mode)
        if not faults.enabled:
            # fault-free fast path: no snapshots, no ladder
            result = self._run_rung(
                rungs[0], loop, indices, scalar_env, storage, tl,
                profile, coalescing,
            )
            return result, mode.value
        written = loop.analysis.arrays_written()
        last_err: Optional[RuntimeFaultError] = None
        for pos, rung in enumerate(rungs):
            snapshot = snapshot_arrays(storage, written)
            try:
                result = self._run_rung(
                    rung, loop, indices, scalar_env, storage, tl,
                    profile, coalescing,
                )
                if pos > 0 and rung == RUNG_CPU_SEQ:
                    # a degraded sequential run rewrote the outputs on
                    # the host; any device copy is now fully stale
                    self._cpu_wrote(loop, 1.0)
                label = mode.value if pos == 0 else f"{mode.value}->{rung}"
                return result, label
            except RuntimeFaultError as err:
                if not is_recoverable_fault(err):
                    raise
                restore_arrays(storage, snapshot)
                self._invalidate_device(written)
                faults.recorder.clock_s = tl.makespan
                last_err = err
                nxt = rungs[pos + 1] if pos + 1 < len(rungs) else None
                if nxt is not None:
                    faults.degraded(err.site, f"{rung}->{nxt}", detail=str(err))
        raise UnrecoverableFaultError(
            f"degradation ladder exhausted for loop {loop.id!r}: {last_err}",
            site=last_err.site if last_err else "",
            at_s=faults.recorder.clock_s,
        )

    def _run_rung(
        self,
        rung: str,
        loop: TranslatedLoop,
        indices: list[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
        tl: Timeline,
        profile: Optional[DependencyProfile],
        coalescing: float,
    ) -> ExecutionResult:
        if rung == RUNG_CPU_SEQ:
            return self._mode_c(loop, indices, scalar_env, storage, tl)
        if rung == RUNG_CPU_MT:
            return self._mode_cpu_mt(
                loop, indices, scalar_env, storage, tl, profile
            )
        mode = ExecMode(rung)
        if mode is ExecMode.B:
            return self._mode_b(
                loop, indices, scalar_env, storage, tl, profile, coalescing
            )
        if mode is ExecMode.D:
            return self._mode_d(
                loop, indices, scalar_env, storage, tl, coalescing
            )
        # A and D' both run fully parallel on both sides; the profile
        # (for D') or static analysis (for A) guarantees direct
        # stores cannot conflict
        return self._mode_a(
            loop, indices, scalar_env, storage, tl, coalescing
        )

    def _invalidate_device(self, names) -> None:
        """After a rollback the host is authoritative again: any device
        copy of a rolled-back array (on any pool device) is fully stale."""
        for dev in self.ctx.pool.devices:
            mem = dev.memory
            for name in names:
                alloc = mem.allocations.get(name)
                if alloc is not None:
                    alloc.stale_fraction = 1.0

    # -- transfer helpers -------------------------------------------------

    def _register_device_data(
        self,
        loop: TranslatedLoop,
        storage: ArrayStorage,
        scalar_env: dict[str, object],
    ) -> tuple[float, int]:
        """Allocate/refresh device copies; return (in_bytes, out_bytes).

        The communication optimizer keeps arrays resident across loop
        dispatches: only the *stale fraction* of each copyin operand is
        actually moved (stale = never transferred, or partially
        overwritten by the CPU side of an earlier dispatch).  This is the
        paper's cyclic-communication removal; the GPU-alone baseline has
        no such tracking and re-pays full transfers every time.
        """
        mem = self.ctx.device.memory
        faults = self.ctx.faults
        b_in = 0.0
        for move in loop.data_plan.copyin:
            arr = storage.arrays[move.array]
            alloc = mem.allocations.get(move.array)
            if alloc is None:
                nbytes = move.nbytes(scalar_env, arr)
                # copyin's return already includes any fault re-issues
                b_in += mem.copyin(move.array, arr.shape, arr.dtype, nbytes)
                alloc = mem.allocations[move.array]
            else:
                nbytes = move.nbytes(scalar_env, arr)
                refreshed = faults.charge_transfer(
                    SITE_TRANSFER_H2D, nbytes * alloc.stale_fraction
                )
                b_in += refreshed
                if refreshed:
                    m = self.ctx.obs.metrics
                    m.counter("transfer.h2d.bytes").inc(refreshed)
                    m.counter("transfer.h2d.count").inc()
                alloc.valid = True
            alloc.stale_fraction = 0.0
        for move in loop.data_plan.create:
            arr = storage.arrays[move.array]
            if move.array not in mem.allocations:
                mem.alloc(move.array, arr.shape, arr.dtype)
        b_out = 0
        for move in loop.data_plan.copyout:
            arr = storage.arrays[move.array]
            if move.array not in mem.allocations:
                mem.alloc(move.array, arr.shape, arr.dtype)
            b_out += move.nbytes(scalar_env, arr)
        return b_in, b_out

    def _count_d2h(self, nbytes: float) -> None:
        """Device->host bytes leave through charge_transfer here (not
        DeviceMemory.copyout), so mirror them into the metrics."""
        if nbytes:
            m = self.ctx.obs.metrics
            m.counter("transfer.d2h.bytes").inc(nbytes)
            m.counter("transfer.d2h.count").inc()

    def _cpu_wrote(self, loop: TranslatedLoop, fraction: float) -> None:
        """The CPU side wrote ``fraction`` of the loop's output arrays:
        that share of any device copy (on any pool device) is now stale."""
        if fraction <= 0:
            return
        for dev in self.ctx.pool.devices:
            mem = dev.memory
            for name in loop.analysis.arrays_written():
                alloc = mem.allocations.get(name)
                if alloc is not None:
                    alloc.stale_fraction = min(
                        1.0, alloc.stale_fraction + fraction
                    )

    # -- mode implementations ----------------------------------------------

    def _mode_a(
        self,
        loop: TranslatedLoop,
        indices: list[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
        tl: Timeline,
        coalescing: float,
        buffered: bool = False,
    ) -> ExecutionResult:
        """DOALL (A) and profiled-clean (D'): PE on GPU + MT on CPU."""
        if self.ctx.pool.size > 1:
            from .sharding import run_sharded_mode_a

            return run_sharded_mode_a(
                self, loop, indices, scalar_env, storage, tl, coalescing,
                buffered=buffered,
            )
        cfg = self.ctx.config
        gpu_idx, cpu_idx = split_at_boundary(indices, self.ctx.boundary())
        b_in, b_out = self._register_device_data(loop, storage, scalar_env)
        frac_gpu = len(gpu_idx) / max(1, len(indices))

        raw = [0] * N_COUNTERS  # hot loop: accumulate raw, fold at the end
        nchunks = max(1, min(cfg.sharing_chunks, len(gpu_idx)))
        chunks = [c for c in block_partition(gpu_idx, nchunks) if c]

        if cfg.async_prefetch:
            # pipeline: DMA chunk k+1 overlaps kernel chunk k
            per_chunk_in = (b_in * frac_gpu) / max(1, len(chunks))
            kernel_events = []
            for k, chunk in enumerate(chunks):
                dma = tl.schedule(
                    LANE_DMA,
                    self.ctx.cost.transfer_time(per_chunk_in, asynchronous=True),
                    label=f"h2d#{k}",
                )
                launch = self.ctx.device.launch(
                    loop.fn,
                    chunk,
                    scalar_env,
                    storage,
                    mode="buffered" if buffered else "direct",
                    coalescing=coalescing,
                    elem_bytes=loop.elem_bytes,
                    block_size=loop.annotation.threads,
                )
                if buffered:
                    self.ctx.device.commit_lanes(launch.lanes, storage, chunk)
                launch.counts.add_to_raw(raw)
                kernel_events.append(
                    tl.schedule(
                        LANE_GPU, launch.sim_time_s, after=[dma],
                        label=f"kernel#{k}",
                    )
                )
            if kernel_events:
                out_bytes = self.ctx.faults.charge_transfer(
                    SITE_TRANSFER_D2H, b_out * frac_gpu
                )
                self._count_d2h(out_bytes)
                tl.schedule(
                    LANE_DMA,
                    self.ctx.cost.transfer_time(out_bytes, asynchronous=True),
                    after=[kernel_events[-1]],
                    label="d2h",
                )
        else:
            # no prefetch: one synchronous in, kernels, synchronous out
            dma_in = tl.schedule(
                LANE_DMA,
                self.ctx.cost.transfer_time(b_in * frac_gpu, asynchronous=False),
                label="h2d-sync",
            )
            last = dma_in
            for k, chunk in enumerate(chunks):
                launch = self.ctx.device.launch(
                    loop.fn,
                    chunk,
                    scalar_env,
                    storage,
                    mode="buffered" if buffered else "direct",
                    coalescing=coalescing,
                    elem_bytes=loop.elem_bytes,
                    block_size=loop.annotation.threads,
                )
                if buffered:
                    self.ctx.device.commit_lanes(launch.lanes, storage, chunk)
                launch.counts.add_to_raw(raw)
                last = tl.schedule(
                    LANE_GPU, launch.sim_time_s, after=[last],
                    label=f"kernel#{k}",
                )
            out_bytes = self.ctx.faults.charge_transfer(
                SITE_TRANSFER_D2H, b_out * frac_gpu
            )
            self._count_d2h(out_bytes)
            tl.schedule(
                LANE_DMA,
                self.ctx.cost.transfer_time(out_bytes, asynchronous=False),
                after=[last],
                label="d2h-sync",
            )

        # CPU side: the right part, multithreaded, walked descending
        if cpu_idx:
            cpu_run = self.ctx.cpu.run_parallel(
                loop.fn,
                storage,
                scalar_env,
                descending(cpu_idx),
                threads=cfg.cpu_threads,
                elem_bytes=loop.elem_bytes,
            )
            cpu_run.counts.add_to_raw(raw)
            tl.schedule(LANE_CPU, cpu_run.sim_time_s, label="cpu-mt")
            self._cpu_wrote(loop, 1.0 - frac_gpu)

        return ExecutionResult(
            arrays=storage.arrays,
            sim_time_s=tl.makespan,
            counts=Counts.from_raw(raw),
            timeline=tl,
            detail={
                "gpu_iterations": len(gpu_idx),
                "cpu_iterations": len(cpu_idx),
            },
        )

    def _mode_b(
        self,
        loop: TranslatedLoop,
        indices: list[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
        tl: Timeline,
        profile: Optional[DependencyProfile],
        coalescing: float,
    ) -> ExecutionResult:
        """Low TD density: GPU-TLS across the loop, CPU handles violations."""
        b_in, b_out = self._register_device_data(loop, storage, scalar_env)
        dma_in = tl.schedule(
            LANE_DMA,
            self.ctx.cost.transfer_time(b_in, asynchronous=True),
            label="h2d",
        )
        tl.schedule(LANE_GPU, 0.0, after=[dma_in])

        engine = GpuTlsEngine(
            self.ctx.device, self.ctx.cpu, self.ctx.config.tls,
            obs=self.ctx.obs,
        )
        tls = engine.execute(
            loop.fn,
            indices,
            scalar_env,
            storage,
            profile=profile,
            coalescing=coalescing,
            elem_bytes=loop.elem_bytes,
            timeline=tl,
        )
        out_bytes = self.ctx.faults.charge_transfer(SITE_TRANSFER_D2H, b_out)
        self._count_d2h(out_bytes)
        tl.schedule(
            LANE_DMA,
            self.ctx.cost.transfer_time(out_bytes, asynchronous=True),
            not_before=tl.barrier([LANE_GPU, LANE_CPU]),
            label="d2h",
        )
        return ExecutionResult(
            arrays=storage.arrays,
            sim_time_s=tl.makespan,
            counts=tls.counts,
            timeline=tl,
            detail={"tls": tls.stats},
        )

    def _mode_cpu_mt(
        self,
        loop: TranslatedLoop,
        indices: list[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
        tl: Timeline,
        profile: Optional[DependencyProfile],
    ) -> ExecutionResult:
        """Degraded rung below A/D': every iteration on the CPU pool.

        Only reachable for loops with no true dependency (statically
        DOALL or profiled clean), so a thread-pool run is always
        correct; vectorization is withheld if the profile saw false
        dependencies, to keep write ordering deterministic.
        """
        run = self.ctx.cpu.run_parallel(
            loop.fn,
            storage,
            scalar_env,
            indices,
            threads=self.ctx.config.cpu_threads,
            elem_bytes=loop.elem_bytes,
            ordered=profile is not None and profile.has_false,
        )
        tl.schedule(LANE_CPU, run.sim_time_s, label="cpu-mt-degraded")
        self._cpu_wrote(loop, 1.0)
        return ExecutionResult(
            arrays=storage.arrays,
            sim_time_s=tl.makespan,
            counts=run.counts,
            timeline=tl,
        )

    def _mode_c(
        self,
        loop: TranslatedLoop,
        indices: list[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
        tl: Timeline,
    ) -> ExecutionResult:
        """High TD density (or unloweable loop): CPU sequential."""
        if loop.fn is not None:
            run = self.ctx.cpu.run_serial(
                loop.fn, storage, scalar_env, indices,
                elem_bytes=loop.elem_bytes,
            )
            counts, time_s = run.counts, run.sim_time_s
        else:
            from ..runtime.hosteval import run_loop_sequential_host

            counts, time_s = run_loop_sequential_host(
                loop, storage, scalar_env, self.ctx.cost
            )
        tl.schedule(LANE_CPU, time_s, label="cpu-seq")
        return ExecutionResult(
            arrays=storage.arrays,
            sim_time_s=tl.makespan,
            counts=counts,
            timeline=tl,
        )

    def _mode_d(
        self,
        loop: TranslatedLoop,
        indices: list[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
        tl: Timeline,
        coalescing: float,
    ) -> ExecutionResult:
        """FD only: GPU privatized PE(V); CPU part sequential.

        The GPU's buffers commit before the CPU part executes so the
        privatized variables end with the sequentially-last values.
        """
        gpu_idx, cpu_idx = split_at_boundary(indices, self.ctx.boundary())
        b_in, b_out = self._register_device_data(loop, storage, scalar_env)
        frac_gpu = len(gpu_idx) / max(1, len(indices))

        dma_in = tl.schedule(
            LANE_DMA,
            self.ctx.cost.transfer_time(b_in * frac_gpu, asynchronous=True),
            label="h2d",
        )
        profile = self.ctx.profiles.get(loop.id)
        priv = run_privatized(
            self.ctx.device,
            loop.fn,
            gpu_idx,
            scalar_env,
            storage,
            coalescing=coalescing,
            elem_bytes=loop.elem_bytes,
            profile=profile,
        )
        kernel_evt = tl.schedule(
            LANE_GPU, priv.kernel_time_s, after=[dma_in], label="pe(v)"
        )
        tl.schedule(LANE_GPU, priv.commit_time_s, label="commit")
        out_bytes = self.ctx.faults.charge_transfer(
            SITE_TRANSFER_D2H, b_out * frac_gpu
        )
        self._count_d2h(out_bytes)
        tl.schedule(
            LANE_DMA,
            self.ctx.cost.transfer_time(out_bytes, asynchronous=True),
            after=[kernel_evt],
            label="d2h",
        )

        total = priv.counts
        if cpu_idx:
            # sequential (ascending) so privatized cells end sequentially-last
            cpu_run = self.ctx.cpu.run_serial(
                loop.fn, storage, scalar_env, cpu_idx,
                elem_bytes=loop.elem_bytes,
            )
            total = total + cpu_run.counts
            tl.schedule(LANE_CPU, cpu_run.sim_time_s, label="cpu-seq")
            self._cpu_wrote(loop, 1.0 - frac_gpu)

        return ExecutionResult(
            arrays=storage.arrays,
            sim_time_s=tl.makespan,
            counts=total,
            timeline=tl,
            detail={
                "gpu_iterations": len(gpu_idx),
                "cpu_iterations": len(cpu_idx),
                "privatized_cells": priv.cells_committed,
            },
        )
