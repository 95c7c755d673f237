"""Workload ``serve-unique``: ``repro serve`` traffic on the write path.

The service boots in-process with its default config (2 thread workers)
behind its HTTP listener and is driven from this process by ``nproc``
(2) client threads, each holding one connection at a time, so two
requests can be in flight on the two workers at once; the benchmark pins
itself to one CPU, so they share that core.  Tenants follow a zipfian
mix.  A
run spends ``OPEN_SHARE`` of its seconds in an open loop (arrivals on a
seeded schedule at a fixed rate, each request timed from its due time) and
the rest in a closed loop that sends fixed batches back to back
(``round_s`` is one batch's wall time).

Jobs are ``run`` jobs for VectorAdd, MVT, BFS and Sepia at ``n=1`` with
``verify: true`` and a fresh input seed on every job (profile-cache and
context-pool misses), and, for a third of the requests, ``compile`` jobs,
each on a seeded variant of a Table-II source that no other request
carries (artifact-cache misses and writes).

Every ``compile`` answer is checked against ``expected_compile.json``, and
``/v1/stats`` must show a ledger with no lost and no duplicated entry.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import itertools
import math
import os
import random
import re
import statistics
import threading
import time

from common import Tally, cli_cold, percentile, probe_setup, slowdown
from suite import load_expected

RUN_SHAPES = ("VectorAdd", "MVT", "BFS", "Sepia")
#: tenants, drawn with Zipf's law in its classic form (weight of rank r
#: proportional to 1/r; G. K. Zipf, "Human Behavior and the Principle of
#: Least Effort", 1949).  At this load no tenant reaches its quota
#: (``ServeConfig.quota_rate``), so the mix only spreads the per-tenant
#: bookkeeping.
TENANTS = 8
ZIPF_S = 1.0
#: share of ``--seconds`` spent in the open loop (the rest: closed loop)
OPEN_SHARE = 0.8
#: open-loop segments per run, each between two calibrations
SEGMENTS = 16
#: closed-loop batches per run, one after every SEGMENTS // BATCHES
#: segments, each followed (untraced) by one cold CLI sample
BATCHES = 8
#: open-loop arrival rate (requests/s at the reference machine speed),
#: well below the capacity the closed loop measures at the commit that
#: defined the benchmark (about 8.6 requests/s)
RATE = 3.3
#: latency limit of ``slo_frac`` (ms, from the request's due time)
SLO_MS = 1000.0
REQUEST_TIMEOUT_S = 60.0

_DECL = re.compile(r"\b(?:int|long|float|double|boolean)\s+([A-Za-z_]\w*)\s*=")
_FLOAT = re.compile(r"(?<![\w.])\d+\.\d+")
_COMMENT = re.compile(r"(/\*.*?\*/|//[^\n]*)", re.S)


def connections() -> int:
    """Client connections: the machine's CPUs, at most one per worker."""
    from repro.serve import ServeConfig

    return max(1, min(os.cpu_count() or 1, ServeConfig().workers))


# -- seeded inputs ------------------------------------------------------------

def source_variant(source: str, rng: random.Random, tag: str) -> str:
    """Rename one local and lengthen one float constant of ``source``.

    Neither edit touches a subscript, a loop bound or an annotation, so
    every loop keeps its classification; ``tag`` makes the text unique.
    """
    parts = _COMMENT.split(source)
    code = "".join(parts[0::2])
    comments = "".join(parts[1::2])
    names = sorted({m.group(1) for m in _DECL.finditer(code)}
                   - set(re.findall(r"\w+", comments)))
    name = rng.choice(names)
    rename = re.compile(rf"(?<![\w.]){name}\b")
    parts[0::2] = [rename.sub(f"{name}_{tag}", p) for p in parts[0::2]]
    floats = [(i, m) for i, p in enumerate(parts) if i % 2 == 0
              for m in _FLOAT.finditer(p)]
    if floats:
        i, m = rng.choice(floats)
        digit = str(rng.randrange(1, 10))
        parts[i] = parts[i][:m.end()] + digit + parts[i][m.end():]
    return "".join(parts)


class JobMaker:
    """Seeded job documents of the serve workload."""

    def __init__(self, seed: int):
        from repro.workloads import ALL_WORKLOADS

        self.seed = seed
        self.rng = random.Random(f"serve-unique:{seed}")
        self.sources = {w.name: w.source for w in ALL_WORKLOADS}
        self.tenant_weights = [1.0 / rank ** ZIPF_S
                               for rank in range(1, TENANTS + 1)]
        self._ids = itertools.count()
        self._compile_order: list[str] = []

    def cycle(self) -> list[str]:
        """One round of job shapes: compile, VectorAdd, then a heavier shape.

        A third of the jobs are compiles and a third are VectorAdd runs;
        MVT, Sepia and BFS take turns in the last slot.  With the four run
        shapes at equal weight the median latency falls in the gap between
        two shapes' latency clusters and jumps between them from seed to
        seed; with VectorAdd as common as compiles it lies inside the
        VectorAdd cluster.  The heavy shapes are spread out, so how often
        two of them overlap on the two workers does not depend on the seed.
        """
        return [shape for heavy in ("MVT", "Sepia", "BFS", "MVT", "Sepia",
                                    "BFS")
                for shape in ("compile", "VectorAdd", heavy)]

    def kinds(self, count: int) -> list[str]:
        """``count`` shapes: the cycle repeated from a seeded starting point."""
        shapes = self.cycle()
        start = self.rng.randrange(len(shapes))
        return [shapes[(start + i) % len(shapes)] for i in range(count)]

    def job(self, kind: str, phase: str, source: str = None) -> dict:
        i = next(self._ids)
        doc = {
            "job_id": f"pb-{phase}-{i}",
            "tenant": "tenant-%d" % self.rng.choices(
                range(TENANTS), weights=self.tenant_weights)[0],
        }
        if kind == "compile":
            # every source once per cycle, so each run compiles the same mix
            if not self._compile_order:
                self._compile_order = sorted(self.sources)
                self.rng.shuffle(self._compile_order)
            name = source or self._compile_order.pop()
            doc.update(kind="compile", source=source_variant(
                self.sources[name], self.rng, f"v{self.seed}x{i}"))
            doc["_expect"] = name
            return doc
        doc.update(kind="run", workload=kind, n=1,
                   seed=self.seed * 1_000_000 + i, verify=True)
        return doc

    def setup_jobs(self, workers: int) -> list[list[dict]]:
        """One batch per shape, one job per worker.

        Each worker keeps its own artifact cache and context pool, so a
        shape is warm only once every worker has run it.  The compile jobs
        all compile VectorAdd, so the set-up work does not depend on the
        seed.
        """
        return [[self.job(k, "setup", "VectorAdd" if k == "compile" else None)
                 for _ in range(workers)]
                for k in RUN_SHAPES + ("compile",)]

    def open_loop(self, seconds: float, rate: float,
                  segments: int) -> list[list[tuple]]:
        """The open loop's arrivals, split into ``segments`` schedules.

        Whole cycles of shapes, one arrival per 1/rate slot at a seeded
        point of its middle half; each schedule is a list of (due offset s,
        job) pairs.
        """
        cycle = len(self.cycle())
        count = max(1, round(seconds * rate / cycle)) * cycle
        kinds = self.kinds(count)
        cuts = [round(k * count / segments) for k in range(segments + 1)]
        return [[((i + self.rng.uniform(0.25, 0.75)) / rate,
                  self.job(kind, "open"))
                 for i, kind in enumerate(kinds[a:b])]
                for a, b in zip(cuts, cuts[1:])]

    def batch(self, r: int) -> list[dict]:
        """Closed-loop batch ``r``: one cycle.

        Compile jobs take the sources in a fixed rotation, so every run's
        batches hold the same sources whatever the seed; batches 2k and
        2k+1 hold the same ones, so a traced run can compare them.
        """
        kinds = self.kinds(len(self.cycle()))
        names = sorted(self.sources)
        per_batch = kinds.count("compile")
        compiles = iter(names[(r // 2 * per_batch + j) % len(names)]
                        for j in range(per_batch))
        return [self.job(k, f"closed{r}",
                         next(compiles) if k == "compile" else None)
                for k in kinds]


def shape_of(doc: dict) -> str:
    return doc["workload"] if doc["kind"] == "run" else "compile"


# -- the server ---------------------------------------------------------------

class Server:
    """``repro serve`` on its own event loop thread, port chosen by the OS."""

    def __init__(self):
        from repro.serve import CompilationService, ServeConfig, ServeServer

        self.server = ServeServer(CompilationService(ServeConfig()), port=0)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def serve():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=serve, name="serve-loop")
        self.thread.start()
        if not started.wait(timeout=60):
            raise RuntimeError("serve did not start")
        self.port = self.server.port

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop).result(timeout=120)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()


class Client:
    """Submits jobs, checks each answer, keeps the per-request rows."""

    def __init__(self, port: int, tally: Tally, expected: dict):
        from repro.serve.client import ServeClient

        self.http = ServeClient(port=port, timeout=REQUEST_TIMEOUT_S)
        self.tally = tally
        self.expected = expected
        self.submitted = 0
        self._lock = threading.Lock()

    def send(self, doc: dict, recorder=None) -> dict:
        body = {k: v for k, v in doc.items() if not k.startswith("_")}
        span = None
        if recorder is not None:
            span = recorder.open("request", tag=doc["job_id"])
            recorder.link(doc["job_id"], "request", span)
        t0 = time.perf_counter()
        try:
            status, answer = self.http.submit(body)
            error = None
        except (OSError, http.client.HTTPException) as exc:
            status, answer, error = 0, {}, f"transport: {exc!r}"
        done = time.perf_counter()
        if span is not None:
            recorder.close(span)
        if error is None:
            error = self._check(doc, status, answer)
        with self._lock:
            self.submitted += 1
            self.tally.check(error is None, f"{doc['job_id']}: {error}")
        return {"t_sent": t0, "t_done": done, "ok": error is None,
                "shape": shape_of(doc), "job_id": doc["job_id"]}

    def _check(self, doc: dict, status: int, answer: dict):
        if status != 200 or answer.get("status") != "ok":
            return f"HTTP {status} {answer.get('status')}: " \
                   f"{answer.get('error')}"
        if doc["kind"] == "compile":
            want = self.expected[doc["_expect"]]
            if answer.get("compile") != want:
                return f"compile answer {answer.get('compile')} != {want}"
        elif not answer.get("modes"):
            return "run answer without execution modes"
        return None

    def check_ledger(self) -> dict:
        """Count lost or duplicated ledger entries as failed operations."""
        ledger = self.http.stats()["ledger"]
        settled = sum(ledger["counts"].values())
        lost = ledger["unsettled"] + max(0, self.submitted - settled)
        dup = ledger["duplicate_settlements"] + max(0, settled - self.submitted)
        self.tally.check(lost == 0 and dup == 0,
                         f"ledger: {lost} lost, {dup} duplicated of "
                         f"{self.submitted} submitted")
        return ledger


def run_open_loop(client: Client, schedule: list, conns: int,
                  recorder=None) -> list[dict]:
    """Send each job at its due time from ``conns`` threads."""
    rows: list = [None] * len(schedule)
    order = itertools.count()
    lock = threading.Lock()
    t0 = time.perf_counter() + 0.1

    def sender():
        while True:
            with lock:
                i = next(order)
            if i >= len(schedule):
                return
            due = t0 + schedule[i][0]
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            row = client.send(schedule[i][1], recorder)
            row["due"] = due
            rows[i] = row

    run_threads(sender, conns)
    return rows


def run_batch(client: Client, jobs: list, conns: int, recorder=None) -> float:
    """Closed loop: every connection sends its next job when one returns."""
    pending = iter(jobs)
    lock = threading.Lock()

    def sender():
        while True:
            with lock:
                doc = next(pending, None)
            if doc is None:
                return
            client.send(doc, recorder)

    t0 = time.perf_counter()
    run_threads(sender, conns)
    return time.perf_counter() - t0


def run_threads(target, count: int) -> None:
    """Run ``target`` on ``count`` threads; re-raise the first error."""
    errors: list = []

    def guarded():
        try:
            target()
        except BaseException as exc:  # handed to the caller below
            errors.append(exc)

    threads = [threading.Thread(target=guarded) for _ in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=150)
        if t.is_alive():
            raise RuntimeError("load generator thread did not finish")
    if errors:
        raise errors[0]


def boot(seed: int, tally: Tally):
    """Server boot plus each shape once on every worker (``setup_s``)."""
    server = Server()
    try:
        client = Client(server.port, tally, load_expected())
        maker = JobMaker(seed)
        conns = connections()
        for jobs in maker.setup_jobs(conns):
            run_batch(client, jobs, conns)
    except BaseException:
        server.stop()
        raise
    return server, client, maker


def setup(seed: int, tally: Tally, t_start: float):
    """Fresh interpreter to ready; returns the timings and the server.

    ``setup_scaled`` is scaled by a calibration taken right after it.
    """
    t0 = time.perf_counter()
    import repro.serve  # noqa: F401

    import_s = time.perf_counter() - t0
    server, client, maker = boot(seed, tally)
    setup_s = time.perf_counter() - t_start
    factor = slowdown()
    return {"import_s": import_s, "setup_s": setup_s,
            "import_scaled": import_s / factor,
            "setup_scaled": setup_s / factor}, (server, client, maker)


def probe(seed: int, tally: Tally, t_start: float) -> dict:
    timing, (server, _, _) = setup(seed, tally, t_start)
    server.stop()
    return timing


def run(args, tally: Tally, t_start: float):
    timing, (server, client, maker) = setup(args.seed, tally, t_start)
    try:
        timings = [timing] + probe_setup("serve-unique", args.seed, tally)
        samples: dict = {}
        raw: dict = {"setup_s": [t["setup_s"] for t in timings],
                     "cli_cold_s": [], "round_s": []}
        if not args.trace:
            samples["setup_s"] = [t["setup_scaled"] for t in timings]
            samples["cli_cold_s"] = []
        conns = connections()
        recorder = enqueued = None
        if args.trace:
            from layers import Recorder

            recorder = Recorder()
            enqueued = watch_queue(server.server.service)
        rows: list = []
        batches = {False: [], True: []}
        schedules = maker.open_loop(args.seconds * OPEN_SHARE, RATE,
                                    SEGMENTS)
        if not args.trace:
            cli_sample(tally, raw, samples)
        # open-loop segments, closed-loop batches and cold CLI samples take
        # turns, so each metric samples the whole run.  A calibration
        # brackets every phase; each segment's arrivals are stretched by the
        # slowdown measured before it, so the offered load stays the same
        # share of the server's capacity when the machine is slow.
        before = slowdown()
        for seg, schedule in enumerate(schedules):
            stretched = [(due * before, job) for due, job in schedule]
            with installed(recorder):
                segment = run_open_loop(client, stretched, conns, recorder)
            after = slowdown()
            for row in segment:
                row["factor"] = (before + after) / 2
            rows += segment
            before = after
            if (seg + 1) % (SEGMENTS // BATCHES):
                continue
            r = seg // (SEGMENTS // BATCHES)
            # traced runs alternate untraced and traced batches
            traced = bool(args.trace) and r % 2 == 1
            with installed(recorder if traced else None):
                wall = run_batch(client, maker.batch(r), conns,
                                 recorder if traced else None)
            after = slowdown()
            raw["round_s"].append(wall)
            batches[traced].append(wall / ((before + after) / 2))
            before = after
            if not args.trace:
                cli_sample(tally, raw, samples)
                before = slowdown()
        client.check_ledger()
    finally:
        server.stop()

    lat = [(r["t_done"] - r["due"]) * 1e3 for r in rows if r["ok"]]
    raw["op_p50_ms"] = percentile(lat, 0.5)
    raw["op_p85_ms"] = percentile(lat, 0.85)
    extra = {"raw": raw, "latency_ms": [
        [r["shape"], (r["t_done"] - r["due"]) * 1e3 / r["factor"]]
        for r in rows if r["ok"]]}
    if not args.trace:
        return e2e_metrics(samples, rows, batches[False], tally), extra
    imports = [t["import_scaled"] for t in timings]
    extra["spans"] = recorder.dump()
    extra["missing_entry_points"] = sorted(recorder.missing)
    return layer_metrics(recorder, enqueued, rows, batches, imports), extra


def cli_sample(tally: Tally, raw: dict, samples: dict) -> None:
    cli_raw, cli_scaled = cli_cold(tally)
    raw["cli_cold_s"].append(cli_raw)
    samples["cli_cold_s"].append(cli_scaled)


@contextlib.contextmanager
def installed(recorder):
    """Wrap the layer entry points for the duration (no-op for None)."""
    if recorder is None:
        yield
        return
    recorder.install(serve=True)
    try:
        yield
    finally:
        recorder.uninstall()


def watch_queue(service) -> dict:
    """Record when each job enters the service's dispatch queue.

    The queue is internal to the service; without it the gates/queue split
    is not reported.
    """
    enqueued: dict = {}
    queue = getattr(service, "_queue", None)
    if queue is None:
        return enqueued
    put = queue.put_nowait

    def timed_put(item):
        enqueued[item[2].job_id] = time.perf_counter()
        put(item)

    queue.put_nowait = timed_put
    return enqueued


def e2e_metrics(samples: dict, rows: list, batches: list,
                tally: Tally) -> dict:
    lat = {}
    for row in rows:
        if row["ok"]:
            lat.setdefault(row["shape"], []).append(
                (row["t_done"] - row["due"]) * 1e3 / row["factor"])
    every = sorted(v for vals in lat.values() for v in vals)
    medians = [statistics.median(v) for v in lat.values()]
    good = sum(1 for v in every if v <= SLO_MS)
    samples["round_s"] = batches
    samples["op_gmean_ms"] = {
        "value": math.exp(sum(map(math.log, medians)) / len(medians)),
        "n": len(medians)}
    samples["op_p50_ms"] = {"value": percentile(every, 0.5), "n": len(every)}
    samples["op_p85_ms"] = {"value": percentile(every, 0.85),
                            "n": len(every)}
    samples["slo_frac"] = {"value": good / len(rows), "n": len(rows)}
    samples["ok_frac"] = {
        "value": 1.0 - tally.failed / max(1, tally.attempted),
        "n": tally.attempted}
    return samples


LAYER_METRICS = (
    "lang.parse_ms", "translate.self_ms", "analysis.infer_ms",
    "cache.get_ms", "cache.put_ms", "cache.hits", "cache.misses",
    "profiler.self_ms", "profiler.analysis_ms", "profiler.runs",
    "columnar.log_build_ms", "scheduler.sharing_self_ms",
    "scheduler.stealing_self_ms", "scheduler.dispatches",
    "gpusim.launch_self_ms", "gpusim.partition_warps_ms", "gpusim.launches",
    "native.direct_ms", "native.buffered_ms", "native.tracing_ms",
    "native.vectorized_ms", "tls.self_ms", "cpusim.self_ms",
    "workloads.inputs_ms", "workloads.verify_ms", "serve.http_ms",
    "serve.worker_ms",
)


def layer_metrics(recorder, enqueued: dict, rows: list, rounds: dict,
                  imports: list) -> dict:
    """Per-job medians over the open-loop jobs that entered each layer."""
    from layers import END, START

    tags = recorder.by_tag()
    samples: dict = {"import.repro_s": imports}
    for metric in LAYER_METRICS:
        scale = metric.endswith("_ms")
        samples[metric] = [
            tags[r["job_id"]][metric] / (r["factor"] if scale else 1.0)
            for r in rows if metric in tags.get(r["job_id"], {})]
    gates, queue, unattributed, wall = [], [], 0.0, 0.0
    hits = gets = contexts = run_jobs = 0
    for row in rows:
        j = row["job_id"]
        tag = tags.get(j, {})
        submit = recorder.linked(j, "submit")
        pool = recorder.linked(j, "pool.run")
        if submit is not None and pool is not None and j in enqueued:
            waited = recorder.spans[pool][START] - enqueued[j]
            queue.append((waited + tag["_pool.run_s"]) * 1e3 / row["factor"])
            gates.append((tag["_submit_s"] - waited) * 1e3 / row["factor"])
        request = recorder.spans[recorder.linked(j, "request")]
        wall += request[END] - request[START]
        unattributed += request[END] - request[START] - tag.get("_self_s", 0)
        hits += tag.get("cache.hits", 0)
        gets += tag.get("cache.hits", 0) + tag.get("cache.misses", 0)
        if row["shape"] != "compile":
            run_jobs += 1
            contexts += tag.get("make_context", 0)
    samples["serve.gates_ms"] = gates
    samples["serve.queue_ms"] = queue
    samples["serve.cache_hit_frac"] = {"value": hits / max(1, gets),
                                       "n": gets}
    samples["serve.context_reuse_frac"] = {
        "value": 1.0 - contexts / max(1, run_jobs), "n": run_jobs}
    samples["loadgen.late_p90_ms"] = {
        "value": percentile([(r["t_sent"] - r["due"]) * 1e3 for r in rows],
                            0.9),
        "n": len(rows)}
    samples["trace.overhead_frac"] = {
        "value": statistics.median(rounds[True])
        / statistics.median(rounds[False]) - 1.0,
        "n": len(rounds[True])}
    samples["trace.unattributed_frac"] = {"value": unattributed / wall,
                                          "n": len(rows)}
    samples["machine.slowdown"] = [r["factor"] for r in rows]
    return samples
