"""End-to-end benchmark of the paper campaign and the interference matrix.

Run from the repository root::

    python3 perfbench/run.py --workload matrix-cold --seed 1 --seconds 28 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen and what it should
move; ``perfbench/expected.json`` holds the recorded outputs and counts):

* ``campaign-tiny``  the 12 paper experiments at tiny/quick, no cache
* ``matrix-cold``    the 4-archetype matrix into an empty cache, jobs=1
* ``matrix-warm``    reruns of the 8-archetype matrix, 100% cache hits

One run sets up once (imports are timed 15 times in fresh interpreters
and the median is kept), then repeats the workload's iteration for
``--seconds``, starting another only while it is expected to end in time,
and checks every iteration's outputs.  ``--trace 0`` reports the end-to-end
metrics without the layer wrappers; its times are in reference seconds, scaled
by the host speed sampled during each measurement
(``perfbench/hostspeed.py``), and standard error shows the raw median wall
time beside them.  ``--trace 1`` spends half the time untraced and half
with every layer's entry points wrapped in a self-time ledger
(``perfbench/ledger.py``), and reports the per-layer metrics per iteration
(in raw seconds), checked for self-consistency.

``--seed`` 0 runs the canonical inputs, whose outputs must match the
recorded digests; any other seed is passed to the matrix workloads as the
``seed`` option, and their outputs must be complete, free of failures and
identical across the run's iterations.  ``campaign-tiny`` has a fixed
experiment set and ignores the seed.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: What one run imports before its workload's set-up.
IMPORTS = (
    "repro.analysis.campaign", "repro.analysis.comparison",
    "repro.experiments.registry", "repro.model.batch", "repro.model.simulator",
    "repro.runner.cache", "repro.runner.executor", "repro.runner.store",
    "repro.scenarios.archetypes", "repro.scenarios.matrix",
)
IMPORT_SAMPLES = 15


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reap_children(timeout_s: float = 60.0) -> None:
    """Wait for every child process to end, so its CPU is counted."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.terminate()
                child.join(5.0)
            return
        time.sleep(0.005)


def import_seconds() -> float:
    """Median time to import the program in a fresh interpreter.

    Each interpreter samples the host's speed around its own imports and
    reports reference seconds (:mod:`hostspeed`).
    """
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:3]; "
        "from hostspeed import HostSpeed; speed = HostSpeed(); speed.burst(); "
        "t = time.perf_counter(); "
        + "; ".join(f"import {m}" for m in IMPORTS)
        + "; took = time.perf_counter() - t; speed.burst(); "
        "print(speed.scale(took))"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(HERE)], cwd=str(ROOT),
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class Runner:
    """Times a workload's iterations and tallies its checked outputs."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.iterations = 0
        self.all_checked = True

    def loop(self, seconds: float, on_iteration=None,
             scaled: bool = False) -> Tuple[List[float], List[float], List[float]]:
        """Iterate within ``seconds`` (at least once); walls, CPUs, raw walls.

        Another iteration starts only if one of median length still ends
        in time, so a run of long iterations does not overshoot by one.
        With ``scaled``, each iteration's wall and CPU time leave out the
        host-speed samples taken during it and are in reference seconds.
        """
        walls: List[float] = []
        cpus: List[float] = []
        raw: List[float] = []
        end = time.perf_counter() + seconds
        while not raw or time.perf_counter() + statistics.median(raw) <= end:
            i = self.iterations
            speed = HostSpeed()
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            with speed if scaled else contextlib.nullcontext():
                out = self.workload.iterate(i)
            wall = time.perf_counter() - t0
            reap_children()
            cpu = cpu_seconds() - cpu0
            raw.append(wall)
            if scaled:
                sampled = speed.sampled_s()
                speed.burst()  # so that a short iteration has samples too
                wall = speed.scale(wall - sampled)
                cpu = speed.scale(cpu - sampled)
            walls.append(wall)
            cpus.append(cpu)
            self.iterations += 1
            self.all_checked &= self.workload.check(i, out)
            if on_iteration is not None:
                on_iteration()
        return walls, cpus, raw


def end_to_end(runner: Runner, setup_s: float, seconds: float) -> Dict[str, float]:
    walls, cpus, raw = runner.loop(seconds, scaled=True)
    print(f"perfbench: {runner.workload.name}: raw median wall "
          f"{statistics.median(raw):.4f} s over {len(raw)} iterations",
          file=sys.stderr)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    wall = statistics.median(walls)
    # Medians throughout: on a shared host the mean follows preemption bursts.
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": statistics.median(cpus),
        "rerun_ms.p50": wall * 1e3,
        "peak_rss_mb": max(own, kids) / 1024.0,
    }


def per_layer(runner: Runner, seconds: float) -> Tuple[Dict[str, float], List[str]]:
    from layers import consistency_problems, install, layer_metrics
    from ledger import Ledger

    _, _, untraced = runner.loop(seconds / 2)
    ledger = Ledger()
    extras: Dict[str, float] = {}

    def collect() -> None:
        for name, value in runner.workload.layer_extras().items():
            extras[name] = extras.get(name, 0.0) + value

    install(ledger)
    try:
        _, _, traced = runner.loop(seconds / 2, on_iteration=collect)
    finally:
        ledger.uninstall()
    metrics = layer_metrics(ledger, len(traced), sum(traced))
    metrics.update({name: total / len(traced) for name, total in extras.items()})
    metrics["ledger.trace_overhead"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
    )
    return metrics, consistency_problems(metrics, runner.workload.simulations)


def departures(metrics: Dict[str, float], expected: dict,
               canonical: bool) -> List[str]:
    """Where a traced run departs from the recorded counts and predicted zeros.

    These are records for later changes to cite, not checks: a change that
    moves a count is expected to show it here.
    """
    notes = []
    if canonical:
        for name, value in expected["counts"].items():
            if abs(metrics[name] - value) > 1e-3 * max(1.0, abs(value)):
                notes.append(f"{name} = {metrics[name]:g}, recorded {value:g}")
    for pattern in expected["stays_zero"]:
        for name in fnmatch.filter(sorted(metrics), pattern):
            if metrics[name]:
                notes.append(f"{name} = {metrics[name]:g}, predicted 0")
    return notes


def run(args: argparse.Namespace, bench: dict, work: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import importlib

    from workloads import WORKLOADS

    for module in IMPORTS:
        importlib.import_module(module)
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    workload = WORKLOADS[args.workload](work, args.seed, expected)
    setup_s = import_seconds()
    speed = HostSpeed()
    speed.burst()
    t0 = time.perf_counter()
    workload.setup()
    reap_children()
    took = time.perf_counter() - t0
    speed.burst()
    setup_s += speed.scale(took)

    runner = Runner(workload)
    problems: List[str] = []
    if args.trace:
        values, problems = per_layer(runner, args.seconds)
        declared = bench["per_layer"]
    else:
        values = end_to_end(runner, setup_s, args.seconds)
        declared = bench["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(
            f"perfbench: metrics {sorted(set(values) ^ {m['name'] for m in declared})}"
            " are measured but not declared, or declared but not measured"
        )
    if args.trace:
        for note in departures(values, expected, workload.canonical):
            print(f"perfbench: {args.workload}: note: {note}", file=sys.stderr)
    # A run whose output check fails counts all of its tasks as failed.
    checked = workload.finish() and runner.all_checked
    for message in (workload.problems + problems)[:10]:
        print(f"perfbench: {args.workload}: {message}", file=sys.stderr)
    attempted = workload.tasks * runner.iterations
    return {
        "correct": checked and not problems,
        "attempted": attempted,
        "failed": 0 if checked else attempted,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, bench, work)
    finally:
        reap_children()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
