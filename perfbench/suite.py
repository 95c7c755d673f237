"""Workload ``suite``: a warm, in-process ``repro run`` loop.

One round runs all 11 Table-II applications with ``strategy="japonica"``
under the scheme the paper assigns each, on inputs drawn from the round's
seed, and verifies every result against its NumPy reference.  Round k of
workload seed s uses input seed ``s * 1000 + k``.

Set-up (timed as ``setup_s``) is what a fresh interpreter does before the
loop is warm: ``import repro``, cold compiles of the 11 sources, their
stripped forms compiled with annotation inference on, the three
``examples/jit_*.py`` lifts, then one warm-up round.  The warm-up round
runs on the fixed input seed ``REFERENCE_SEED``; its simulated times must
equal those recorded in ``expected_sim.json``.
"""

from __future__ import annotations

import glob
import importlib.util
import json
import math
import os
import statistics
import time

from common import (
    CLI_SAMPLES,
    HERE,
    ROOT,
    cli_cold,
    percentile,
    probe_setup,
    slowdown,
)

#: input seed of the warm-up round
REFERENCE_SEED = 0
#: run-plus-verify limit of one application for ``slo_frac`` (ms)
SLO_MS = 4000.0
#: per-round layer metrics (time metrics are scaled by the round's factor)
ROUND_LAYERS = (
    "profiler.self_ms", "profiler.analysis_ms", "profiler.runs",
    "columnar.log_build_ms", "scheduler.sharing_self_ms",
    "scheduler.stealing_self_ms", "scheduler.dispatches",
    "gpusim.launch_self_ms", "gpusim.partition_warps_ms", "gpusim.launches",
    "native.direct_ms", "native.buffered_ms", "native.tracing_ms",
    "native.vectorized_ms", "tls.self_ms", "cpusim.self_ms",
    "workloads.inputs_ms", "workloads.verify_ms",
)
SETUP_LAYERS = (
    "lang.parse_ms", "translate.self_ms", "analysis.infer_ms",
    "pyjit.lift_ms",
)


def round_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected_compile.json")) as fh:
        return json.load(fh)["workloads"]


def load_expected_sim() -> dict:
    with open(os.path.join(HERE, "expected_sim.json")) as fh:
        doc = json.load(fh)
    assert doc["seed"] == REFERENCE_SEED
    return doc["sim_ms"]


def compile_answer(program) -> dict:
    """The per-loop verdicts a ``compile`` job answers with."""
    loops = []
    for method, mt in program.unit.methods.items():
        for tl in mt.loops:
            loops.append({"method": method, "loop": tl.id,
                          "status": tl.analysis.status.value,
                          "cpu_only": tl.cpu_only})
    return {"methods": program.methods, "loops": loops}


def lift_examples(tally, seed: int) -> None:
    """Lift and run each ``examples/jit_*.py`` function; bitwise-check it."""
    import numpy as np

    from repro.frontend.pyjit import JitFunction

    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "jit_*.py"))):
        name = os.path.splitext(os.path.basename(path))[0]
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for fname, fargs in module.make_inputs(n=1, seed=seed).items():
            fn = getattr(module, fname)
            if not tally.check(isinstance(fn, JitFunction),
                               f"{name}.{fname} is not @repro.jit"):
                continue
            report = fn.specialize(*fargs)
            ret = fn(*fargs)
            oracle = module.make_inputs(n=1, seed=seed)[fname]
            oracle_ret = fn.__wrapped__(*oracle)
            same = all(
                np.array_equal(a.view(np.uint8), b.view(np.uint8))
                for a, b in zip(fargs, oracle) if isinstance(a, np.ndarray)
            ) and ret == oracle_ret
            tally.check(report.lifted and same,
                        f"{name}.{fname}: lifted={report.lifted} "
                        f"bitwise={same}")


def cold_setup(tally, seed: int) -> None:
    """Cold compiles, inferred compiles of stripped sources, jit lifts."""
    from repro import Japonica
    from repro.workloads import ALL_WORKLOADS

    expected = load_expected()
    for w in ALL_WORKLOADS:
        got = compile_answer(w.compile())
        tally.check(got == expected[w.name], f"compile {w.name}: {got}")
    for w in ALL_WORKLOADS:
        program = Japonica(infer_annotations=True).compile(
            w.stripped_source())
        got = compile_answer(program)
        tally.check(got == expected[w.name],
                    f"inferred compile {w.name}: {got}")
    lift_examples(tally, seed)


def run_app(w, seed: int, obs=None):
    """One ``repro run``: bindings, a fresh context, run, verify."""
    binds = w.bindings(seed=seed)
    result = w.compile().run(
        w.method, strategy="japonica", scheme=w.scheme,
        context=w.make_context(obs=obs), **binds,
    )
    w.verify(result, binds)
    return result


def run_round(seed: int, tally, traced: bool = False) -> dict:
    """Run every app once, each between two machine-speed calibrations.

    Per app: raw and scaled wall ms (run plus verify), simulated ms, and in
    a traced round the native-tier counters of its recording context.
    """
    from repro.obs import Instrumentation
    from repro.workloads import ALL_WORKLOADS

    out = {"wall_ms": {}, "scaled_ms": {}, "sim_ms": {}, "ok": {},
           "iterations": {}, "codegen_ms": 0.0}
    factors = [slowdown()]
    for w in ALL_WORKLOADS:
        obs = Instrumentation.recording() if traced else None
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            result = run_app(w, seed, obs)
            out["sim_ms"][w.name] = result.sim_time_ms
        except Exception as exc:  # any failure is a failed operation
            tally.fail(f"{w.name} seed {seed}: {type(exc).__name__}: {exc}")
        wall_ms = (time.perf_counter() - t0) * 1e3
        factors.append(slowdown())
        out["wall_ms"][w.name] = wall_ms
        out["scaled_ms"][w.name] = wall_ms / statistics.mean(factors[-2:])
        out["ok"][w.name] = w.name in out["sim_ms"]
        if obs is not None:
            for tier in ("interp", "src"):
                c = obs.metrics.counter(f"kernel.tier.{tier}.iterations")
                out["iterations"][tier] = (
                    out["iterations"].get(tier, 0) + c.value)
            out["codegen_ms"] += 1e3 * sum(
                obs.metrics.counter(f"kernel.compile_s.{t}").value
                for t in ("src", "numba"))
    out["round_s"] = sum(out["wall_ms"].values()) / 1e3
    out["scaled_s"] = sum(out["scaled_ms"].values()) / 1e3
    out["factor"] = statistics.mean(factors)
    return out


def check_sims(tally, got: dict, want: dict, what: str) -> None:
    for name, sim in want.items():
        tally.check(got.get(name) == sim,
                    f"{name} sim_ms {what}: {got.get(name)!r} != {sim!r}")


def setup(seed: int, tally, t_start: float, recorder=None):
    """Fresh interpreter to ready; returns the timings and the warm-up round.

    ``setup_scaled`` is the cold part scaled by a calibration taken right
    after it, plus the warm-up round scaled app by app.
    """
    t0 = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - t0
    if recorder is not None:
        recorder.tag = "setup"
        recorder.install()
    cold_setup(tally, seed)
    cold_s = time.perf_counter() - t_start
    factor = slowdown()
    warm = run_round(REFERENCE_SEED, tally, traced=recorder is not None)
    if recorder is not None:
        recorder.uninstall()
    check_sims(tally, warm["sim_ms"], load_expected_sim(),
               "of the warm-up round")
    return {"import_s": import_s, "setup_s": cold_s + warm["round_s"],
            "import_scaled": import_s / factor,
            "setup_scaled": cold_s / factor + warm["scaled_s"],
            "factor": factor}, warm


def probe(seed: int, tally, t_start: float) -> dict:
    return setup(seed, tally, t_start)[0]


def run(args, tally, t_start: float):
    recorder = None
    if args.trace:
        from layers import Recorder

        recorder = Recorder()
    timing, warm = setup(args.seed, tally, t_start, recorder)
    timings = [timing] + probe_setup("suite", args.seed, tally)
    samples: dict = {}
    extra: dict = {"raw": {"setup_s": [t["setup_s"] for t in timings],
                           "cli_cold_s": [], "round_s": []}}
    if not args.trace:
        samples["setup_s"] = [t["setup_scaled"] for t in timings]
        samples["cli_cold_s"] = []
        raw, scaled = cli_cold(tally)
        extra["raw"]["cli_cold_s"].append(raw)
        samples["cli_cold_s"].append(scaled)
    reference = None
    if args.trace:
        # untraced reference round on the first measured seed: the
        # traced round on the same seed gives trace.overhead_frac
        reference = run_round(round_seed(args.seed, 0), tally)
    rounds = []
    while True:
        k = len(rounds)
        if recorder is not None:
            recorder.tag = k
            recorder.install()
        rounds.append(run_round(round_seed(args.seed, k), tally,
                                traced=bool(args.trace)))
        if recorder is not None:
            recorder.uninstall()
        extra["raw"]["round_s"].append(rounds[-1]["round_s"])
        if not args.trace and len(samples["cli_cold_s"]) < CLI_SAMPLES:
            raw, scaled = cli_cold(tally)
            extra["raw"]["cli_cold_s"].append(raw)
            samples["cli_cold_s"].append(scaled)
        elapsed = sum(r["round_s"] for r in rounds)
        typical = statistics.median(r["round_s"] for r in rounds)
        if len(rounds) >= 2 and elapsed + typical > args.seconds:
            break
    if reference is not None:
        check_sims(tally, rounds[0]["sim_ms"], reference["sim_ms"],
                   "of a traced round against the untraced one")
    extra["scaled_ms"] = [r["scaled_ms"] for r in rounds]

    if not args.trace:
        return e2e_metrics(samples, rounds, tally), extra
    extra["spans"] = recorder.dump()
    extra["missing_entry_points"] = sorted(recorder.missing)
    return layer_metrics(recorder, warm, reference, rounds,
                         [t["import_scaled"] for t in timings],
                         timing["factor"]), extra


def e2e_metrics(samples: dict, rounds: list, tally) -> dict:
    ops = [(ms, r["ok"][name]) for r in rounds
           for name, ms in r["scaled_ms"].items()]
    lat = [ms for ms, _ in ops]
    per_app = [statistics.median(r["scaled_ms"][n] for r in rounds)
               for n in rounds[0]["scaled_ms"]]
    samples["round_s"] = [r["scaled_s"] for r in rounds]
    samples["op_gmean_ms"] = {
        "value": math.exp(sum(math.log(v) for v in per_app) / len(per_app)),
        "n": len(per_app)}
    samples["op_p50_ms"] = {"value": percentile(lat, 0.5), "n": len(lat)}
    samples["op_p85_ms"] = {"value": percentile(lat, 0.85), "n": len(lat)}
    good = sum(1 for ms, ok in ops if ok and ms <= SLO_MS)
    samples["slo_frac"] = {"value": good / len(ops), "n": len(ops)}
    samples["ok_frac"] = {
        "value": 1.0 - tally.failed / max(1, tally.attempted),
        "n": tally.attempted}
    return samples


def layer_metrics(recorder, warm, reference, rounds, imports,
                  setup_factor) -> dict:
    """Per-round sums of layer self times (scaled) and counts."""
    rows = recorder.by_tag()
    samples: dict = {"import.repro_s": imports}
    setup = rows.get("setup", {})
    for metric in SETUP_LAYERS:
        samples[metric] = [setup.get(metric, 0.0) / setup_factor]
    samples["native.codegen_ms"] = [warm["codegen_ms"] / warm["factor"]]
    for metric in ROUND_LAYERS:
        scale = metric.endswith("_ms")
        samples[metric] = [
            rows[k][metric] / (r["factor"] if scale else 1.0)
            for k, r in enumerate(rounds) if metric in rows.get(k, {})]
    for tier in ("interp", "src"):
        samples[f"native.iterations.{tier}"] = [
            r["iterations"].get(tier, 0) for r in rounds]
    for name in rounds[0]["scaled_ms"]:
        samples[f"app.{name}.run_ms"] = [r["scaled_ms"][name] for r in rounds]
        samples[f"app.{name}.sim_ms"] = [warm["sim_ms"].get(name, 0.0)]
    samples["trace.overhead_frac"] = [
        rounds[0]["scaled_s"] / reference["scaled_s"] - 1.0]
    samples["trace.unattributed_frac"] = [
        (r["round_s"] - rows.get(k, {}).get("_self_s", 0.0)) / r["round_s"]
        for k, r in enumerate(rounds)]
    samples["machine.slowdown"] = [r["factor"] for r in rounds]
    return samples
