"""Which public calls of the program make up each benchmark layer.

:func:`install` wraps them in a :class:`~ledger.Ledger`; :func:`layer_metrics`
turns the ledger into the per-layer metrics ``BENCHMARK.json`` names, per
iteration of the workload; :func:`consistency_problems` lists every ledger
invariant that does not hold.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ledger import Ledger


def _count_sim_steps(ledger: Ledger, args: Tuple[Any, ...], result: Any,
                     duration: float) -> None:
    ledger.counts["model.simulator.steps"] += result.n_steps


def _count_bucket_width(ledger: Ledger, width: int) -> None:
    ledger.counts["model.batch.buckets"] += 1
    ledger.counts["model.batch.member_runs"] += width
    ledger.counts["model.batch.width1"] += width == 1


def _count_bucket(ledger: Ledger, args: Tuple[Any, ...], results: Any,
                  duration: float) -> None:
    _count_bucket_width(ledger, len(args[0]))
    ledger.counts["model.batch.steps"] += sum(r.n_steps for r in results)


def _count_probe(ledger: Ledger, args: Tuple[Any, ...], found: Any,
                 duration: float) -> None:
    ledger.counts["runner.cache.probe.keys"] += len(args[1])
    ledger.counts["runner.cache.probe.hits"] += len(found)


def _count_map(ledger: Ledger, args: Tuple[Any, ...], outs: Any,
               duration: float) -> None:
    executor, tasks = args[0], args[1]
    ledger.counts["runner.executor.failed"] += sum(out is None for out in outs)
    for task, out in zip(tasks, outs):
        if task.kind != "matrix-bucket" or out is None:
            continue
        # A bucket work unit ran in a pool worker: its kernel time is only
        # visible here, as the wall time the unit reports back.
        ledger.counts["runner.executor.worker_busy_s"] += float(out["wall_s"])
        _count_bucket_width(ledger, len(task.payload["tasks"]))
    if executor.jobs > 1:
        ledger.counts["runner.executor.pool_capacity_s"] += duration * executor.jobs


def install(ledger: Ledger) -> None:
    """Wrap every layer's entry points (the modules must be imported)."""
    from repro.analysis import campaign, comparison
    from repro.experiments.registry import ExperimentEntry
    from repro.model import batch, simulator, stepper
    from repro.runner import cache, executor
    from repro.scenarios import matrix, spec

    ledger.wrap_function(simulator, "simulate_scenario", "model.simulator",
                         _count_sim_steps)
    ledger.wrap_method(stepper.ModelStepper, "step", "model.stepper")
    ledger.wrap_function(batch, "plan_buckets", "model.batch.plan")
    ledger.wrap_function(batch, "run_bucket", "model.batch.run", _count_bucket)
    ledger.wrap_method(batch.BatchedStepper, "step_batch", "model.batch.kernel")
    ledger.wrap_function(spec, "build_scenario", "scenarios.build")
    ledger.wrap_method(ExperimentEntry, "run", "experiments.run")
    ledger.wrap_function(comparison, "check_experiment", "analysis.comparison.check")
    ledger.wrap_function(cache, "fingerprint", "runner.cache.fingerprint")
    ledger.wrap_function(cache, "fingerprint_payload", "runner.cache.fingerprint")
    ledger.wrap_method(cache.ResultCache, "get_many", "runner.cache.probe",
                       _count_probe)
    ledger.wrap_method(cache.ResultCache, "put", "runner.cache.put")
    ledger.wrap_function(executor, "execute_cached",
                         "runner.executor.execute_cached")
    ledger.wrap_method(executor.ParallelExecutor, "map", "runner.executor.map",
                       _count_map)
    ledger.wrap_function(matrix, "matrix_artifacts", "scenarios.matrix.render")
    ledger.wrap_function(matrix, "store_matrix", "runner.store.persist")
    ledger.wrap_function(campaign, "campaign_to_markdown",
                         "analysis.campaign.render")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ledger: Ledger, iterations: int,
                  wall_s: float) -> Dict[str, float]:
    """Per-iteration layer metrics of ``iterations`` traced iterations.

    ``wall_s`` is their summed wall time.  Utilization divides the busy time
    pool workers report by ``map wall x jobs`` of the maps that could use a
    pool, so it cannot exceed 1 unless a unit's time is counted twice.
    """
    per = 1.0 / iterations
    s, c, n = ledger.self_s, ledger.calls, ledger.counts
    sims = c["model.simulator"] + n["model.batch.member_runs"]
    batch_run_s = s["model.batch.run"] + s["model.batch.kernel"]
    attributed = ledger.total_self_s()
    return {
        "model.simulator.calls": c["model.simulator"] * per,
        "model.simulator.steps": n["model.simulator.steps"] * per,
        "model.simulator.self_s": s["model.simulator"] * per,
        "model.stepper.calls": c["model.stepper"] * per,
        "model.stepper.self_s": s["model.stepper"] * per,
        "model.stepper.us_per_step": _ratio(s["model.stepper"] * 1e6,
                                            c["model.stepper"]),
        "model.batch.plan.self_s": s["model.batch.plan"] * per,
        "model.batch.buckets": n["model.batch.buckets"] * per,
        "model.batch.member_runs": n["model.batch.member_runs"] * per,
        "model.batch.occupancy_mean": _ratio(n["model.batch.member_runs"],
                                             n["model.batch.buckets"]),
        "model.batch.width1_share": _ratio(n["model.batch.width1"],
                                           n["model.batch.buckets"]),
        "model.batch.run.self_s": s["model.batch.run"] * per,
        "model.batch.kernel.calls": c["model.batch.kernel"] * per,
        "model.batch.kernel.self_s": s["model.batch.kernel"] * per,
        "model.batch.steps": n["model.batch.steps"] * per,
        "model.batch.member_steps_per_s": _ratio(n["model.batch.steps"],
                                                 batch_run_s),
        "scenarios.build.calls": c["scenarios.build"] * per,
        "scenarios.build.self_s": s["scenarios.build"] * per,
        "scenarios.build.per_sim": _ratio(c["scenarios.build"], sims),
        "experiments.run.self_s": s["experiments.run"] * per,
        "analysis.comparison.check.self_s": s["analysis.comparison.check"] * per,
        "runner.cache.fingerprint.calls": c["runner.cache.fingerprint"] * per,
        "runner.cache.fingerprint.self_s": s["runner.cache.fingerprint"] * per,
        "runner.cache.probe.calls": c["runner.cache.probe"] * per,
        "runner.cache.probe.keys": n["runner.cache.probe.keys"] * per,
        "runner.cache.probe.hits": n["runner.cache.probe.hits"] * per,
        # Every probed key the cache did not hold is computed and stored.
        "runner.cache.probe.misses": c["runner.cache.put"] * per,
        "runner.cache.probe.self_s": s["runner.cache.probe"] * per,
        "runner.cache.hit_ratio": _ratio(n["runner.cache.probe.hits"],
                                         n["runner.cache.probe.keys"]),
        "runner.cache.put.calls": c["runner.cache.put"] * per,
        "runner.cache.put.self_s": s["runner.cache.put"] * per,
        "runner.executor.execute_cached.self_s":
            s["runner.executor.execute_cached"] * per,
        "runner.executor.map.calls": c["runner.executor.map"] * per,
        "runner.executor.map.self_s": s["runner.executor.map"] * per,
        "runner.executor.worker_busy_s": n["runner.executor.worker_busy_s"] * per,
        "runner.executor.utilization": _ratio(
            n["runner.executor.worker_busy_s"],
            n["runner.executor.pool_capacity_s"]),
        "runner.executor.failed": n["runner.executor.failed"] * per,
        "scenarios.matrix.render.self_s": s["scenarios.matrix.render"] * per,
        "runner.store.persist.self_s": s["runner.store.persist"] * per,
        "analysis.campaign.render.self_s": s["analysis.campaign.render"] * per,
        "ledger.wall_s": wall_s * per,
        "ledger.attributed_s": attributed * per,
        "ledger.unattributed_share": _ratio(wall_s - attributed, wall_s),
    }


def consistency_problems(m: Dict[str, float], sims_per_iteration: int) -> List[str]:
    """The ledger invariants a traced run must satisfy, as failure messages."""
    problems = []
    if m["runner.executor.utilization"] > 1.0:
        problems.append(
            f"runner.executor.utilization {m['runner.executor.utilization']:.4f} > 1"
        )
    keys = m["runner.cache.probe.keys"]
    hits, misses = m["runner.cache.probe.hits"], m["runner.cache.probe.misses"]
    if abs(keys - (hits + misses)) > 1e-9 * max(1.0, keys):
        problems.append(
            f"runner.cache.probe.keys {keys:g} != hits {hits:g} + misses {misses:g}"
        )
    sims = m["model.batch.member_runs"] + m["model.simulator.calls"]
    if abs(sims - sims_per_iteration) > 1e-9 * max(1.0, sims):
        problems.append(
            f"model.batch.member_runs + model.simulator.calls = {sims:g} per "
            f"iteration, the workload implies {sims_per_iteration}"
        )
    if m["ledger.attributed_s"] > m["ledger.wall_s"] * (1 + 1e-9):
        problems.append(
            f"sum of layer self times {m['ledger.attributed_s']:.6f} s exceeds "
            f"wall {m['ledger.wall_s']:.6f} s"
        )
    return problems
