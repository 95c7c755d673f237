"""Run one benchmark workload and report every metric of BENCHMARK.json.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 38 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is the separate traced run of the same workload and seeds that gives
the per-layer metrics.  Every metric is printed by name with its unit,
median, quartiles and sample count; the same data goes to
``.perfbench/<workload>-seed<seed>-trace<t>.json`` (plus the raw spans in
a traced run), and the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
nonzero when any operation failed its correctness check.

The system is driven only through its public Python API, its CLI and its
HTTP surface; it is imported from ``src/`` of the checkout.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from common import (  # noqa: E402
    OUT_DIR,
    ROOT,
    SRC,
    WORKLOADS,
    Tally,
    peak_rss_mb,
    summary,
)


def workload_module(name: str):
    if name == "suite":
        import suite
        return suite
    import serving
    return serving


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def report(args, spec: dict, tally: Tally, samples: dict,
           extra: dict) -> int:
    """Print the metric table, write the JSON file, print the last line."""
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    rows = {}
    for m in listed:
        name = m["name"]
        rows[name] = dict(summary(samples.get(name, [])), unit=m["unit"])
    unknown = sorted(set(samples) - set(rows))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")

    mode = "traced" if args.trace else "untraced"
    print(f"== perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} ({mode}) ==")
    print(f"{'metric':34s} {'unit':>7s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'n':>5s}")
    for name, row in rows.items():
        print(f"{name:34s} {row['unit']:>7s} {row['median']:12.4f} "
              f"{row['q1']:12.4f} {row['q3']:12.4f} {row['n']:5d}")
    fail_frac = tally.failed / max(1, tally.attempted)
    print(f"attempted={tally.attempted} failed={tally.failed} "
          f"fail_frac={fail_frac:.4f}")
    for note in tally.notes:
        print(f"FAILED: {note}")

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = extra.pop("spans", None)
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "attempted": tally.attempted, "failed": tally.failed,
            "fail_frac": fail_frac, "failures": tally.notes,
            "metrics": rows, "samples": samples,
            **extra,
        }, fh, indent=1, sort_keys=True)
    if spans is not None:
        with open(os.path.join(OUT_DIR, stem + ".spans.json"), "w") as fh:
            json.dump(spans, fh)

    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": row["median"], "unit": row["unit"]}
                    for name, row in rows.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", choices=WORKLOADS,
                    help="time one fresh-interpreter setup and exit")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # one CPU for this process and the ones it starts: the machine-speed
    # calibration then measures the core the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.probe:
        tally = Tally()
        timing = workload_module(args.probe).probe(args.seed, tally, _T0)
        print(json.dumps(dict(timing, attempted=tally.attempted,
                              failed=tally.failed, failures=tally.notes)))
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    tally = Tally()
    samples, extra = workload_module(args.workload).run(args, tally, _T0)
    if not args.trace:
        samples["peak_rss_mb"] = [peak_rss_mb()]
    return report(args, spec, tally, samples, extra)


if __name__ == "__main__":
    sys.exit(main())
