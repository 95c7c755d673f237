"""Helpers shared by the benchmark's workloads: paths, statistics, the
failure tally, the machine-speed calibration, fresh-interpreter set-up
probes and the cold-CLI timing.

Machine speed.  On a shared host the same pure-Python loop runs up to 30%
slower for seconds to minutes at a time, with no CPU steal to show for it.
Every timing the benchmark reports is therefore taken between two
calibrations (:func:`slowdown`: the time of a fixed pure-Python unit of
work over its reference time) and divided by their mean, which expresses
it in seconds at the reference machine speed.  Raw wall times are kept
next to the scaled ones in the written result file, and the calibration
factors are reported as the ``machine.slowdown`` layer.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("suite", "serve-unique")

#: fresh-interpreter setups per run (this process is one of them)
SETUP_SAMPLES = 3
#: cold CLI processes per run (at most)
CLI_SAMPLES = 5
CLI_TIMEOUT_S = 60

#: seconds one calibration unit takes at the reference speed: the median
#: on the 2-vCPU 2.0 GHz x86-64 VM the benchmark was defined on
REFERENCE_UNIT_S = 1.6e-3
#: length of one calibration
CALIBRATION_S = 0.05


def summary(values) -> dict:
    """Median, quartiles and count of a sample (empty -> zeros, n=0).

    A ``{"value": v, "n": n}`` entry is one statistic computed over n
    operations (a percentile, a fraction); it has no quartiles of its own.
    """
    if isinstance(values, dict):
        v = float(values["value"])
        return {"median": v, "q1": v, "q3": v, "n": int(values["n"])}
    vals = sorted(float(v) for v in values)
    if not vals:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(vals) == 1:
        return {"median": vals[0], "q1": vals[0], "q3": vals[0], "n": 1}
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3,
            "n": len(vals)}


def percentile(values, q: float) -> float:
    """The q-quantile (0 < q < 1) by linear interpolation."""
    vals = sorted(values)
    if not vals:
        return 0.0
    pos = q * (len(vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _unit() -> int:
    s = 0
    for i in range(20_000):
        s += i * i
    return s


def slowdown() -> float:
    """Current time of the calibration unit over its reference time."""
    t0 = time.perf_counter()
    n = 0
    while True:
        _unit()
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= CALIBRATION_S:
            return elapsed / n / REFERENCE_UNIT_S


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class Tally:
    """Attempted/failed operation counts with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)


def probe_setup(workload: str, seed: int, tally: Tally) -> list[dict]:
    """Time SETUP_SAMPLES - 1 more setups, each in a fresh interpreter.

    Each probe reports the timings of the workload's ``setup`` and the
    correctness checks it made, which count in ``tally``.
    """
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--probe",
             workload, "--seed", str(seed)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=120, check=True,
        )
        doc = json.loads(out.stdout.strip().splitlines()[-1])
        tally.attempted += doc.pop("attempted")
        notes = doc.pop("failures")
        for note in notes:
            tally.fail(f"setup probe: {note}")
        tally.failed += doc.pop("failed") - len(notes)
        samples.append(doc)
    return samples


def cli_cold(tally: Tally) -> tuple[float, float]:
    """(raw, scaled) wall seconds of one fresh ``python -m repro run``.

    Workloads take one sample between measured phases, so the samples
    spread over the run instead of meeting one moment of machine noise.
    """
    before = slowdown()
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "repro", "run", "VectorAdd",
         "--strategies", "japonica"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CLI_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    tally.check(out.returncode == 0 and "verified" in out.stdout,
                f"cli run exited {out.returncode}: {out.stdout[-200:]}")
    return wall, wall / ((before + slowdown()) / 2)
