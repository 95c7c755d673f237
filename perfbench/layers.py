"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public entry points of the system's layers where
their callers look them up (a class attribute, or a module attribute for
functions imported by name) and records one span per call: name, start,
end, parent and a tag (the suite round or the serve job the span belongs
to).  Spans stay in memory until the run ends.  Nothing under ``src/`` is
edited; :meth:`Recorder.uninstall` restores every original attribute.

Parents come from a per-thread stack for synchronous calls.  The serve
plane crosses threads and asyncio tasks (client thread -> event loop ->
dispatcher task -> worker thread), where no stack survives, so those hops
link by job id instead: each serve span registers itself under
``(job_id, span name)`` and the next hop looks its parent up there.

Self time is a span's duration minus the part of it its children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time

#: (module, attribute path, span name).  Functions imported by name are
#: patched in every module that looks them up at call time.
ENTRY_POINTS = (
    ("repro.translate.translator", "Translator.translate", "translate"),
    ("repro.translate.translator", "parse_program", "parse"),
    ("repro.lang.parser", "parse_program", "parse"),
    ("repro.lang", "parse_program", "parse"),
    ("repro.analysis.infer", "infer_class", "infer"),
    ("repro.frontend.pyjit.jit", "JitFunction.specialize", "lift"),
    ("repro.cache.artifacts", "ArtifactCache.get", "cache.get"),
    ("repro.cache.artifacts", "ArtifactCache.put", "cache.put"),
    ("repro.scheduler.context", "ExecutionContext.ensure_profile", "profile"),
    ("repro.scheduler.context", "profile_loop", "profile_loop"),
    ("repro.profiler.trace", "analyze_lanes", "analyze_lanes"),
    ("repro.profiler.trace", "estimate_coalescing", "estimate_coalescing"),
    ("repro.ir.columnar", "ColumnarLanes.from_states", "from_states"),
    ("repro.scheduler.sharing", "TaskSharingScheduler.execute", "sharing"),
    ("repro.scheduler.stealing", "TaskStealingScheduler.execute", "stealing"),
    ("repro.gpusim.device", "GpuDevice.launch", "launch"),
    ("repro.gpusim.device", "partition_warps", "partition_warps"),
    ("repro.ir.native.dispatch", "KernelDispatcher.run_direct", "run_direct"),
    ("repro.ir.native.dispatch", "KernelDispatcher.run_buffered",
     "run_buffered"),
    ("repro.ir.native.dispatch", "KernelDispatcher.run_tracing",
     "run_tracing"),
    ("repro.ir.vectorizer", "VectorizedKernel.run_range", "run_range"),
    ("repro.ir.specvec", "VectorizedSpecKernel.run_buffered", "specvec"),
    ("repro.tls.engine", "GpuTlsEngine.execute", "tls"),
    ("repro.cpusim.executor", "CpuExecutor.run_parallel", "cpu_parallel"),
    ("repro.cpusim.executor", "CpuExecutor.run_serial", "cpu_serial"),
    ("repro.workloads.base", "Workload.bindings", "bindings"),
    ("repro.workloads.base", "Workload.verify", "verify"),
    ("repro.workloads.base", "Workload.make_context", "make_context"),
)

#: Serve-plane entry points; their parents are found by job id.
SERVE_ENTRY_POINTS = (
    ("repro.serve.service", "CompilationService.submit", "submit", "request"),
    ("repro.serve.pool", "WorkerPool.run", "pool.run", "submit"),
    ("repro.serve.worker", "WorkerRuntime.execute", "worker", "pool.run"),
)

#: span name -> per-layer time metric fed by the span's self time.
SELF_TIME_METRICS = {
    "parse": "lang.parse_ms",
    "translate": "translate.self_ms",
    "infer": "analysis.infer_ms",
    "lift": "pyjit.lift_ms",
    "cache.get": "cache.get_ms",
    "cache.put": "cache.put_ms",
    "profile": "profiler.self_ms",
    "profile_loop": "profiler.self_ms",
    "analyze_lanes": "profiler.analysis_ms",
    "estimate_coalescing": "profiler.analysis_ms",
    "from_states": "columnar.log_build_ms",
    "sharing": "scheduler.sharing_self_ms",
    "stealing": "scheduler.stealing_self_ms",
    "launch": "gpusim.launch_self_ms",
    "partition_warps": "gpusim.partition_warps_ms",
    "run_direct": "native.direct_ms",
    "run_buffered": "native.buffered_ms",
    "run_tracing": "native.tracing_ms",
    "run_range": "native.vectorized_ms",
    "specvec": "native.vectorized_ms",
    "tls": "tls.self_ms",
    "cpu_parallel": "cpusim.self_ms",
    "cpu_serial": "cpusim.self_ms",
    "bindings": "workloads.inputs_ms",
    "verify": "workloads.verify_ms",
    "request": "serve.http_ms",
    "worker": "serve.worker_ms",
}

#: span name -> per-layer count metric (one per call).
COUNT_METRICS = {
    "profile_loop": "profiler.runs",
    "sharing": "scheduler.dispatches",
    "stealing": "scheduler.dispatches",
    "launch": "gpusim.launches",
}

# span record fields
NAME, START, END, PARENT, TAG, FLAG = range(6)


def _resolve(module: str, path: str):
    """(owner, attribute) of an entry point, or None if it does not exist."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1]


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        #: tag given to spans that have no parent (suite round, "setup")
        self.tag = None
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._links: dict[tuple, int] = {}
        self._patches: list[tuple] = []
        #: entry points the system no longer has (their layers read 0)
        self.missing: set[str] = set()

    # -- span store -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def open(self, name: str, parent=None, tag=None) -> int:
        if tag is None:
            tag = self.spans[parent][TAG] if parent is not None else self.tag
        with self._lock:
            self.spans.append([name, time.perf_counter(), None, parent, tag,
                               None])
            return len(self.spans) - 1

    def close(self, idx: int, flag=None) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[FLAG] = flag

    def link(self, job_id: str, name: str, idx: int) -> None:
        self._links[(job_id, name)] = idx

    def linked(self, job_id: str, name: str):
        return self._links.get((job_id, name))

    # -- wrappers ---------------------------------------------------------

    def _wrap_sync(self, fn, name: str, link_from=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            parent = stack[-1] if stack else None
            job_id = None
            if link_from is not None:
                job_id = args[1].job_id
                if parent is None:
                    parent = rec.linked(job_id, link_from)
            idx = rec.open(name, parent)
            if job_id is not None:
                rec.link(job_id, name, idx)
            stack.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                stack.pop()
                rec.close(idx, flag=result is None)

        return wrapper

    def _wrap_async(self, fn, name: str, link_from: str):
        rec = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            job_id = args[1].job_id
            idx = rec.open(name, rec.linked(job_id, link_from))
            rec.link(job_id, name, idx)
            try:
                return await fn(*args, **kwargs)
            finally:
                rec.close(idx)

        return wrapper

    def _patch(self, module: str, path: str, name: str, link_from=None):
        found = _resolve(module, path)
        if found is None:
            self.missing.add(f"{module}.{path}")
            return
        owner, attr = found
        original = inspect.getattr_static(owner, attr)
        func = original
        rewrap = None
        if isinstance(original, (classmethod, staticmethod)):
            func, rewrap = original.__func__, type(original)
        if inspect.iscoroutinefunction(func):
            wrapped = self._wrap_async(func, name, link_from)
        else:
            wrapped = self._wrap_sync(func, name, link_from)
        setattr(owner, attr, rewrap(wrapped) if rewrap else wrapped)
        self._patches.append((owner, attr, original))

    def install(self, serve: bool = False) -> None:
        """Wrap every layer entry point (and the serve hops with ``serve``)."""
        for module, path, name in ENTRY_POINTS:
            self._patch(module, path, name)
        if serve:
            for module, path, name, link_from in SERVE_ENTRY_POINTS:
                self._patch(module, path, name, link_from)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Seconds of each span not covered by its children."""
        children: dict[int, list[int]] = {}
        for idx, span in enumerate(self.spans):
            if span[PARENT] is not None:
                children.setdefault(span[PARENT], []).append(idx)
        out = []
        for idx, span in enumerate(self.spans):
            start, end = span[START], span[END]
            covered = 0.0
            cursor = start
            kids = sorted(
                (self.spans[k][START], self.spans[k][END])
                for k in children.get(idx, ())
            )
            for k_start, k_end in kids:
                lo, hi = max(k_start, cursor), min(k_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(end - start - covered)
        return out

    def by_tag(self) -> dict:
        """tag -> {metric: value} from self times and call counts."""
        selfs = self.self_times()
        out: dict = {}
        for span, self_s in zip(self.spans, selfs):
            row = out.setdefault(span[TAG], {"_self_s": 0.0})
            name = span[NAME]
            row["_self_s"] += self_s
            metric = SELF_TIME_METRICS.get(name)
            if metric is not None:
                row[metric] = row.get(metric, 0.0) + self_s * 1e3
            metric = COUNT_METRICS.get(name)
            if metric is not None:
                row[metric] = row.get(metric, 0) + 1
            if name == "cache.get":
                key = "cache.misses" if span[FLAG] else "cache.hits"
                row[key] = row.get(key, 0) + 1
            elif name in ("make_context", "submit", "pool.run"):
                row[name] = row.get(name, 0) + 1
                row[f"_{name}_s"] = row.get(f"_{name}_s", 0.0) + self_s
        return out

    def dump(self) -> list[list]:
        """Spans as plain lists (written out when the run ends)."""
        return [list(s) for s in self.spans]
