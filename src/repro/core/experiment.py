"""The canonical two-application experiment.

:class:`TwoApplicationExperiment` wraps the scenario construction of
:func:`repro.config.presets.make_scenario` together with the Δ-graph sweep of
:mod:`repro.core.delta` and the interference-free baseline, so a complete
paper-style experiment reads:

.. code-block:: python

    exp = TwoApplicationExperiment("reduced", device="hdd", sync_mode="sync-on")
    sweep = exp.run_sweep()
    print(sweep.peak_interference_factor(), sweep.asymmetry_index())

A figure with several configurations builds all of its experiments first and
hands them to :func:`run_sweeps`, which simulates every baseline in one
batched call and every Δ point in one more.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.config.presets import make_scenario
from repro.config.scenario import ScenarioConfig
from repro.core.delta import (
    DeltaSweep,
    assemble_sweep,
    default_deltas,
    run_delta_sweep,
)
from repro.errors import ExperimentError
from repro.model.batch import simulate_many
from repro.model.results import RunResult
from repro.model.simulator import simulate_scenario

__all__ = ["TwoApplicationExperiment", "run_sweeps"]


class TwoApplicationExperiment:
    """Two identical applications contending on one PVFS deployment.

    Parameters
    ----------
    scale:
        Scale preset name (``"tiny"``, ``"reduced"``, ``"paper"``) or a
        :class:`~repro.config.presets.ScalePreset`.
    scenario:
        Optional fully built scenario; when given, ``scale`` and the keyword
        arguments are ignored.
    **scenario_kwargs:
        Passed straight to :func:`repro.config.presets.make_scenario`
        (device, sync_mode, pattern, stripe_size, network, ...).
    """

    def __init__(
        self,
        scale: str = "reduced",
        scenario: Optional[ScenarioConfig] = None,
        **scenario_kwargs: Any,
    ) -> None:
        if scenario is not None:
            if len(scenario.applications) < 2:
                raise ExperimentError(
                    "TwoApplicationExperiment needs a scenario with two applications"
                )
            self.scenario = scenario
        else:
            self.scenario = make_scenario(scale, **scenario_kwargs)
        self._alone_result: Optional[RunResult] = None
        self._seed = self.scenario.control.seed

    # ------------------------------------------------------------------ #
    # Building blocks
    # ------------------------------------------------------------------ #

    def baseline(self, force: bool = False) -> RunResult:
        """Interference-free run of the first application (cached)."""
        if self._alone_result is None or force:
            self._alone_result = simulate_scenario(self._alone_scenario(), seed=self._seed)
        return self._alone_result

    def _alone_scenario(self) -> ScenarioConfig:
        return self.scenario.with_applications(self.scenario.applications[:1])

    def alone_time(self) -> float:
        """Interference-free write time of one application."""
        first = self.scenario.applications[0].name
        return self.baseline().write_time(first)

    def run_point(self, delay: float) -> RunResult:
        """Run both applications with the given start delay."""
        return simulate_scenario(self.scenario.with_delay(float(delay)), seed=self._seed)

    # ------------------------------------------------------------------ #
    # Sweeps
    # ------------------------------------------------------------------ #

    def pick_deltas(self, n_points: int = 9) -> List[float]:
        """Delays spanning the interference window of this configuration."""
        return default_deltas(self.alone_time(), n_points=n_points)

    def run_sweep(
        self,
        deltas: Optional[Sequence[float]] = None,
        n_points: int = 9,
        label: str = "",
        jobs: int = 1,
    ) -> DeltaSweep:
        """Run a full Δ-graph sweep (delays default to :meth:`pick_deltas`).

        ``jobs > 1`` fans the individual sweep points across worker
        processes (useful at the ``paper`` scale, where each point is an
        expensive simulation); the result is identical to the serial sweep.
        """
        if deltas is None:
            deltas = self.pick_deltas(n_points=n_points)
        if jobs > 1:
            # Imported here: repro.runner depends on repro.core, not vice versa.
            from repro.runner.executor import run_delta_sweep_parallel

            return run_delta_sweep_parallel(
                self.scenario,
                deltas,
                jobs=jobs,
                alone_result=self.baseline(),
                seed=self._seed,
                label=label or self.scenario.label,
            )
        return run_delta_sweep(
            self.scenario,
            deltas,
            alone_result=self.baseline(),
            seed=self._seed,
            label=label or self.scenario.label,
        )

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #

    def headline_metrics(
        self, deltas: Optional[Sequence[float]] = None, n_points: int = 7
    ) -> Dict[str, float]:
        """Peak interference factor, asymmetry and flatness for this setup."""
        sweep = self.run_sweep(deltas=deltas, n_points=n_points)
        summary = sweep.summary()
        summary["alone_time"] = self.alone_time()
        return summary

    def describe(self) -> str:
        """Multi-line description of the experiment configuration."""
        return self.scenario.describe()


def run_sweeps(
    experiments: Sequence[TwoApplicationExperiment],
    n_points: int = 9,
    labels: Optional[Sequence[str]] = None,
) -> List[DeltaSweep]:
    """Run the default Δ-graph sweep of every experiment, batched.

    Equivalent to ``[e.run_sweep(n_points=n_points, label=l) for e, l in
    zip(experiments, labels)]`` — the sweeps are identical — but simulated
    in two :func:`~repro.model.batch.simulate_many` calls: stage 1 runs
    every baseline not yet simulated (the delays depend on it), stage 2
    every experiment's :meth:`~TwoApplicationExperiment.pick_deltas`
    points.  Experiments that share a deployment advance together in the
    batched kernel.
    """
    experiments = list(experiments)
    labels = list(labels) if labels is not None else [""] * len(experiments)
    if len(labels) != len(experiments):
        raise ExperimentError("run_sweeps needs one label per experiment")

    pending = list({
        id(e): e for e in experiments if e._alone_result is None
    }.values())
    baselines = simulate_many(
        [e._alone_scenario() for e in pending], [e._seed for e in pending]
    )
    for experiment, result in zip(pending, baselines):
        experiment._alone_result = result

    plans = [(e, e.pick_deltas(n_points=n_points)) for e in experiments]
    runs = [e.scenario.with_delay(float(d)) for e, deltas in plans for d in deltas]
    seeds = [e._seed for e, deltas in plans for _ in deltas]
    results = simulate_many(runs, seeds)
    sweeps = []
    offset = 0
    for (experiment, deltas), label in zip(plans, labels):
        points = results[offset:offset + len(deltas)]
        offset += len(deltas)
        sweeps.append(assemble_sweep(
            experiment.scenario, deltas, points, experiment.baseline(),
            label,
        ))
    return sweeps
