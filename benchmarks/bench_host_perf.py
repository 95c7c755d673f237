"""Host-performance harness: wall-clock of the host-side pipeline.

Measures the two things the host-performance plane optimizes and writes
them to ``BENCH_HOSTPERF.json`` so the perf trajectory has data:

1. **profiling phase** — wall-clock of ``profile_loop`` over a large
   straight-line kernel (VectorAdd-shaped, default 256Ki iterations,
   full-window sample) through the vectorized SE kernel and the
   columnar analyses;
2. **cold vs. warm artifact cache** — wall-clock of compile and run for
   a runtime-profiling workload with a shared on-disk cache: the warm
   pass must hit the cache for both the translation unit and the
   dependency profile;
3. **multi-device scaling** — simulated makespan of saturated DOALL
   workloads at pool sizes 1/2/4: sharding across more devices must
   improve the makespan monotonically (and never change results — the
   identity suite covers that part);
4. **insight summaries** — a per-workload trace-insight report (critical
   path, slack, bottleneck lane) over the full suite, the same numbers
   ``python -m repro report`` emits, so the perf trajectory records
   where the simulated time goes, not just how much of it there is;
5. **kernel tiers** — wall-clock of one hot kernel launch through the
   interpreter vs. the generated-source tier (and the numba tier when
   numba is importable), with the tiers' outputs checked bit-identical.
   The source tier must clear 5x over the interpreter at the full size.

Run standalone (the CI ``perf-smoke`` job uses ``--n 32768``)::

    PYTHONPATH=src python benchmarks/bench_host_perf.py \
        --out BENCH_HOSTPERF.json

``--check BASELINE`` compares the measured warm-cache wall-clock against
a committed baseline and exits nonzero on a >``--tolerance``x
regression, normalized by the cold-run ratio so a slower CI machine does
not trip the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

SCHEMA = "repro.hostperf/v5"

#: Saturated DOALL workloads whose makespan must improve with pool size.
MULTIDEVICE_WORKLOADS = ("VectorAdd", "BFS", "MVT")
DEVICE_COUNTS = (1, 2, 4)

VECADD_SRC = """
class Vec {
  static void run(double[] a, double[] b, double[] c, int n) {
    /* acc parallel copyin(a[0:n-1], b[0:n-1]) copyout(c[0:n-1]) */
    for (int i = 0; i < n; i++) {
      c[i] = a[i] * 2.0 + b[i];
    }
  }
}
"""

CACHE_WORKLOAD = "Guass-Seidel"  # DOACROSS: profiles at runtime


def measure_profiling(n: int) -> dict:
    """Profile a straight-line kernel; wall-clock the whole pass."""
    import numpy as np

    from repro.api import Japonica
    from repro.ir.interpreter import ArrayStorage
    from repro.profiler.trace import profile_loop
    from repro.scheduler.context import ExecutionContext

    program = Japonica().compile(VECADD_SRC)
    fn = program.unit.methods["run"].loops[0].fn
    rng = np.random.default_rng(42)

    def storage():
        return ArrayStorage({
            "a": rng.standard_normal(n),
            "b": rng.standard_normal(n),
            "c": np.zeros(n),
        })

    ctx = ExecutionContext()
    stg = storage()
    t0 = time.perf_counter()
    run = profile_loop(ctx.device, fn, range(n), {"n": n}, stg, max_sample=n)
    return {
        "columnar_s": time.perf_counter() - t0,
        "columnar_profile_time_s": run.profile.profile_time_s,
    }


def _timed_pass(workload, cache_dir: str) -> dict:
    """One compile+run pass against the shared on-disk artifact cache."""
    from repro.api import Japonica
    from repro.cache import ArtifactCache

    cache = ArtifactCache(cache_dir=cache_dir)
    japonica = Japonica(cache=cache)
    t0 = time.perf_counter()
    program = japonica.compile(workload.source)
    compile_s = time.perf_counter() - t0

    ctx = workload.make_context(cache=cache)
    binds = workload.bindings()
    t0 = time.perf_counter()
    result = program.run(workload.method, strategy="japonica", context=ctx,
                         **binds)
    run_s = time.perf_counter() - t0
    return {
        "compile_s": compile_s,
        "run_s": run_s,
        "total_s": compile_s + run_s,
        "sim_time_s": result.sim_time_s,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
    }


def measure_cache() -> dict:
    """Cold then warm pipeline pass sharing one on-disk cache."""
    from repro.workloads import get

    workload = get(CACHE_WORKLOAD)
    with tempfile.TemporaryDirectory() as d:
        cold = _timed_pass(workload, d)
        warm = _timed_pass(workload, d)  # fresh cache object, same dir
    return {"workload": CACHE_WORKLOAD, "cold": cold, "warm": warm}


def measure_multidevice() -> dict:
    """Simulated makespan of DOALL workloads across pool sizes."""
    from repro.workloads import get

    out = {}
    for name in MULTIDEVICE_WORKLOADS:
        w = get(name)
        times = {}
        for devices in DEVICE_COUNTS:
            result = w.run("japonica", devices=devices)
            times[str(devices)] = result.sim_time_s
        ordered = [times[str(d)] for d in DEVICE_COUNTS]
        out[name] = {
            "sim_time_s": times,
            "monotone": all(
                a > b for a, b in zip(ordered, ordered[1:])
            ),
            "speedup_at_max": ordered[0] / ordered[-1],
        }
    return out


def measure_insight() -> dict:
    """Trace-insight summary per workload: where the simulated time goes.

    Runs the full suite traced and reduces each workload's RunReport
    section to the numbers worth trending: simulated time, critical-path
    length and slack, and the bottleneck lane (highest utilization).
    All quantities are simulated, so this section is deterministic.
    """
    from repro.api import Japonica
    from repro.obs import Instrumentation
    from repro.obs.insight import analyze_run
    from repro.workloads import ALL_WORKLOADS

    out = {}
    for workload in ALL_WORKLOADS:
        obs = Instrumentation.recording()
        program = Japonica(obs=obs).compile(workload.source)
        result = program.run(
            workload.method, strategy="japonica", scheme=workload.scheme,
            context=workload.make_context(obs=obs), **workload.bindings(),
        )
        timelines = [
            (f"japonica:{lid}", res.timeline)
            for lid, res in result.loop_results
            if res.timeline is not None
        ]
        section = analyze_run(
            timelines, metrics=obs.metrics, tracer=obs.tracer,
            sim_time_s=result.sim_time_s,
        )
        totals = section["totals"]
        bottleneck = {"lane": "", "utilization": 0.0}
        for doc in section["timelines"].values():
            for lane, row in doc["lanes"].items():
                if row["utilization"] > bottleneck["utilization"]:
                    bottleneck = {
                        "lane": lane, "utilization": row["utilization"],
                    }
        out[workload.name] = {
            "sim_time_s": result.sim_time_s,
            "critical_path_s": totals["critical_path_s"],
            "slack_s": totals["slack_s"],
            "bottleneck": bottleneck,
        }
    return out


def measure_kernel_tiers(n: int) -> dict:
    """One hot launch per tier; wall-clock each and compare outputs.

    The dispatcher is driven directly so each leg runs entirely in one
    tier (``native`` off for the interpreter, on for src, the numba
    threshold at 1 for numba): a warm launch first to pay compiles,
    then the timed launch.  The numba leg only appears when numba is
    importable and its self-test passes.
    """
    import numpy as np

    from repro.api import Japonica
    from repro.ir.interpreter import ArrayStorage
    from repro.ir.native import KernelCache, KernelDispatcher, TierPolicy
    from repro.ir.native import numba_backend

    program = Japonica().compile(VECADD_SRC)
    fn = program.unit.methods["run"].loops[0].fn
    rng = np.random.default_rng(7)
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    env = {"n": n}
    indices = list(range(n))

    def timed(native: bool, policy: TierPolicy) -> tuple[float, object]:
        disp = KernelDispatcher(
            cache=KernelCache(), policy=policy, native=native
        )

        def launch():
            stg = ArrayStorage(
                {"a": a.copy(), "b": b.copy(), "c": np.zeros(n)}
            )
            t0 = time.perf_counter()
            disp.run_direct(fn, indices, env, stg)
            dt = time.perf_counter() - t0
            disp.take_counts(fn)
            return dt, stg.arrays["c"]

        launch()  # warm: pay the compile
        return launch()

    interp_s, c_interp = timed(False, TierPolicy())
    src_s, c_src = timed(True, TierPolicy())
    out = {
        "interp_s": interp_s,
        "src_s": src_s,
        "src_speedup": interp_s / src_s,
        "identical": c_interp.tobytes() == c_src.tobytes(),
        "numba": None,
    }
    if numba_backend.available():
        numba_s, c_numba = timed(True, TierPolicy(numba_threshold=1))
        out["numba"] = {
            "numba_s": numba_s,
            "numba_speedup": interp_s / numba_s,
            "identical": c_interp.tobytes() == c_numba.tobytes(),
        }
    return out


def check_against(report: dict, baseline_path: str, tolerance: float) -> int:
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    base_cold = baseline["cache"]["cold"]["total_s"]
    base_warm = baseline["cache"]["warm"]["total_s"]
    cold = report["cache"]["cold"]["total_s"]
    warm = report["cache"]["warm"]["total_s"]
    # normalize by the cold-pass ratio: a uniformly slower machine scales
    # both passes, only a warm-specific regression should trip the gate
    machine = cold / base_cold if base_cold > 0 else 1.0
    allowed = base_warm * tolerance * machine
    print(f"warm-cache check: measured {warm:.3f}s, "
          f"allowed {allowed:.3f}s "
          f"(baseline {base_warm:.3f}s x {tolerance:g} "
          f"x machine ratio {machine:.2f})")
    if warm > allowed:
        print("FAIL: warm-cache wall-clock regressed", file=sys.stderr)
        return 1
    warm_hits = report["cache"]["warm"]["cache_hits"]
    if warm_hits < 2:
        print(f"FAIL: warm pass hit the cache only {warm_hits} times "
              f"(expected unit + profile)", file=sys.stderr)
        return 1
    print("OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=256 * 1024,
                        help="iterations of the straight-line profiling "
                             "kernel (default 256Ki)")
    parser.add_argument("--out", default="BENCH_HOSTPERF.json",
                        help="output JSON path")
    parser.add_argument("--check", metavar="BASELINE", default=None,
                        help="compare against a baseline JSON and fail on "
                             "a warm-cache regression")
    parser.add_argument("--tolerance", type=float, default=2.0,
                        help="allowed warm-cache slowdown vs baseline")
    parser.add_argument("--min-kernel-speedup", type=float, default=None,
                        help="fail unless the generated-source kernel "
                             "tier reaches this speedup over the "
                             "interpreter (default: 5 when n is the "
                             "full 256Ki size, off otherwise)")
    args = parser.parse_args(argv)

    print(f"profiling phase: straight-line kernel, n={args.n} ...")
    profiling = measure_profiling(args.n)
    print(f"  columnar {profiling['columnar_s']:8.3f}s")

    print(f"artifact cache: {CACHE_WORKLOAD} cold vs warm ...")
    cache = measure_cache()
    for label in ("cold", "warm"):
        row = cache[label]
        print(f"  {label:4s} compile {row['compile_s']:6.3f}s  "
              f"run {row['run_s']:6.3f}s  "
              f"cache {row['cache_hits']} hits / "
              f"{row['cache_misses']} misses")

    print("multi-device scaling: DOALL makespan at pool sizes "
          + "/".join(str(d) for d in DEVICE_COUNTS) + " ...")
    multidevice = measure_multidevice()
    for name, row in multidevice.items():
        times = "  ".join(
            f"d={d} {row['sim_time_s'][str(d)] * 1e3:8.3f}ms"
            for d in DEVICE_COUNTS
        )
        flag = "" if row["monotone"] else "  NOT MONOTONE"
        print(f"  {name:10s} {times}  "
              f"({row['speedup_at_max']:.2f}x at {DEVICE_COUNTS[-1]} "
              f"devices){flag}")

    print(f"kernel tiers: hot launch, n={args.n} ...")
    kernel_tiers = measure_kernel_tiers(args.n)
    print(f"  interp   {kernel_tiers['interp_s']:8.3f}s")
    print(f"  src      {kernel_tiers['src_s']:8.3f}s  "
          f"({kernel_tiers['src_speedup']:.1f}x, "
          f"identical={kernel_tiers['identical']})")
    if kernel_tiers["numba"] is not None:
        nb = kernel_tiers["numba"]
        print(f"  numba    {nb['numba_s']:8.3f}s  "
              f"({nb['numba_speedup']:.1f}x, "
              f"identical={nb['identical']})")
    else:
        print("  numba    (not importable; tier skipped)")

    print("trace insight: critical path and bottleneck lane per workload ...")
    insight = measure_insight()
    print(f"  {'workload':14s} {'sim':>12s} {'crit-path':>12s} "
          f"{'slack':>10s}  bottleneck")
    for name, row in insight.items():
        b = row["bottleneck"]
        print(f"  {name:14s} {row['sim_time_s'] * 1e3:10.3f}ms "
              f"{row['critical_path_s'] * 1e3:10.3f}ms "
              f"{row['slack_s'] * 1e3:8.3f}ms  "
              f"{b['lane']} at {b['utilization'] * 100:.1f}%")

    report = {
        "schema": SCHEMA,
        "n": args.n,
        "profiling": profiling,
        "cache": cache,
        "multidevice": multidevice,
        "kernel_tiers": kernel_tiers,
        "insight": insight,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"report written to {args.out}")

    if not kernel_tiers["identical"] or (
        kernel_tiers["numba"] is not None
        and not kernel_tiers["numba"]["identical"]
    ):
        print("FAIL: kernel tiers disagree on results", file=sys.stderr)
        return 1
    min_kernel = args.min_kernel_speedup
    if min_kernel is None and args.n >= 256 * 1024:
        min_kernel = 5.0
    if min_kernel is not None and kernel_tiers["src_speedup"] < min_kernel:
        print(f"FAIL: kernel src-tier speedup "
              f"{kernel_tiers['src_speedup']:.1f}x "
              f"< required {min_kernel:g}x", file=sys.stderr)
        return 1
    if cache["warm"]["cache_misses"] != 0:
        print("FAIL: warm pass missed the cache", file=sys.stderr)
        return 1
    bad = [n for n, row in multidevice.items() if not row["monotone"]]
    if bad:
        print(f"FAIL: makespan not monotone with device count for "
              f"{', '.join(bad)}", file=sys.stderr)
        return 1
    if args.check:
        return check_against(report, args.check, args.tolerance)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
