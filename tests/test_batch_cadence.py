"""Property-based tests for the batched kernel's per-member cadence.

The lockstep kernel advances the members of one bucket in step-index
lockstep, each on its own clock: its own step length, start anchor and
horizon.  These tests verify the invariants that make that safe to route
every simulation through.

Member Equivalence Properties:
- For any fleet of members on one deployment — mixed delays (a negative
  delay moves the start anchor below zero), seed overrides, bytes per
  process (so mixed step lengths and horizons), one- and two-application
  members, traced and untraced members — ``simulate_many`` gives every
  member exactly the result of ``simulate_scenario(member, seed)``: every
  phase boundary, byte and collapse count, component statistic, step count,
  end time, trace series sample and trace mark.  The deployments cover
  every branch of the storage commit: sync ON, sync OFF with a cache that
  has room and one that fills, and null-aio.
- Results come back in input order.

Planner Properties:
- One Δ-sweep's points plan into one bucket, although their step lengths
  and start anchors differ.
- The tiny 4-archetype matrix plans into at most three buckets.
- Adaptive stepping has no fixed step sequence: it still falls back to the
  scalar kernel, with results identical to it.

The property compares the golden harness's full-precision fingerprint
payload (everything but wall time) plus the recorder's complete dump;
``RunResult`` has no serializer of its own.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.config.control import SteppingMode, SteppingPolicy
from repro.config.presets import make_scenario
from repro.core.delta import default_deltas
from repro.model.batch import BatchSimulator, cadence_of, plan_buckets, simulate_many
from repro.model.simulator import simulate_scenario
from repro.obs.telemetry import telemetry_session
from repro.scenarios.spec import build_scenario
from repro.sim.tracing import TraceConfig

from tests._golden_utils import fingerprint_payload_of

# =============================================================================
# Strategies
# =============================================================================

#: Dense traces (window series on, fine sampling) or none at all.
TRACED = TraceConfig(series_sample_period=0.02, record_windows=True)
UNTRACED = TraceConfig(
    record_progress=False, record_server_state=False, record_marks=False
)

#: Between them, these reach every branch of the storage commit law: the
#: device queue (sync ON), the write-back cache with room and — with a
#: 4 MiB page cache per server — full (sync OFF), and the null-aio bypass.
DEPLOYMENTS = [
    dict(device="hdd", sync_mode="sync-on"),
    dict(device="ssd", sync_mode="sync-off"),
    dict(device="hdd", sync_mode="sync-on", pattern="strided"),
    dict(device="hdd", sync_mode="null-aio"),
    dict(device="hdd", sync_mode="sync-off", page_cache_mib=4),
]
deployments = st.sampled_from(DEPLOYMENTS)

members = st.fixed_dictionaries({
    "delta": st.sampled_from([-0.6, -0.25, -0.05, 0.0, 0.05, 0.3, 0.8]),
    "seed": st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
    "mib": st.sampled_from([1, 4, 6, 8]),
    "two_apps": st.booleans(),
    "traced": st.booleans(),
})


def _member_scenario(deployment, member):
    deployment = dict(deployment)
    page_cache_mib = deployment.pop("page_cache_mib", None)
    scenario = make_scenario(
        "tiny",
        bytes_per_process=member["mib"] * units.MiB,
        trace=TRACED if member["traced"] else UNTRACED,
        **deployment,
    ).with_delay(member["delta"])
    if page_cache_mib is not None:
        fs = scenario.filesystem
        server = replace(fs.server, page_cache_bytes=page_cache_mib * units.MiB)
        scenario = scenario.with_filesystem(replace(fs, server=server))
    if not member["two_apps"]:
        scenario = scenario.with_applications(scenario.applications[:1])
    return scenario


def _full_result(result):
    return json.dumps(
        [fingerprint_payload_of(result), result.recorder.to_dict()],
        sort_keys=True,
    )


# =============================================================================
# Member equivalence
# =============================================================================


class TestPerMemberCadenceEquivalence:
    @given(deployment=deployments,
           fleet=st.lists(members, min_size=2, max_size=5))
    @settings(max_examples=12, deadline=None)
    def test_simulate_many_matches_scalar_per_member(self, deployment, fleet):
        """Property: every bucket member equals its scalar run, bit for bit."""
        scenarios = [_member_scenario(deployment, m) for m in fleet]
        seeds = [m["seed"] for m in fleet]
        buckets, fallback = plan_buckets(scenarios)
        assert len(buckets) == 1 and not fallback
        batched = simulate_many(scenarios, seeds)
        for scenario, seed, result in zip(scenarios, seeds, batched):
            alone = simulate_scenario(scenario, seed=seed)
            assert _full_result(result) == _full_result(alone)

    @pytest.mark.parametrize("deployment", DEPLOYMENTS,
                             ids=lambda d: "-".join(str(v) for v in d.values()))
    def test_every_commit_branch_matches_scalar(self, deployment):
        """Every deployment of the strategy, whatever hypothesis draws: a
        fixed mixed fleet equals its scalar runs member by member."""
        fleet = [
            dict(delta=-0.25, seed=None, mib=4, two_apps=True, traced=True),
            dict(delta=0.3, seed=7, mib=1, two_apps=False, traced=False),
            dict(delta=0.0, seed=None, mib=8, two_apps=True, traced=False),
        ]
        scenarios = [_member_scenario(deployment, m) for m in fleet]
        seeds = [m["seed"] for m in fleet]
        batch = BatchSimulator(scenarios, seeds)
        batched = batch.run()
        for scenario, seed, result in zip(scenarios, seeds, batched):
            alone = simulate_scenario(scenario, seed=seed)
            assert _full_result(result) == _full_result(alone)
        if "page_cache_mib" in deployment:
            # The small page cache really fills: only a (nearly) full cache
            # absorbs fewer bytes than the servers drained.
            assert any(
                (m.sim.state.deployment.cache.total_absorbed
                 < m.sim.state.deployment.drained_bytes).any()
                for m in batch.members
            )

    def test_mixed_cadence_fleet_really_mixes(self):
        """The strategy space covers distinct steps and start anchors."""
        deployment = dict(device="hdd", sync_mode="sync-on")
        cadences = {
            cadence_of(_member_scenario(deployment, dict(
                delta=delta, seed=None, mib=mib, two_apps=True, traced=False,
            )))
            for delta, mib in itertools.product((-0.6, 0.3), (1, 8))
        }
        assert len({dt for dt, _ in cadences}) > 1
        assert len({t0 for _, t0 in cadences}) > 1


# =============================================================================
# Planner
# =============================================================================


class TestCadenceFreePlanning:
    def test_delta_sweep_points_plan_into_one_bucket(self):
        """Property: a Δ-sweep's points share one bucket despite distinct
        cadences."""
        scenario = make_scenario("tiny", device="hdd", sync_mode="sync-on")
        alone = simulate_scenario(
            scenario.with_applications(scenario.applications[:1])
        )
        deltas = default_deltas(alone.applications["A"].write_time, n_points=9)
        points = [scenario.with_delay(d) for d in deltas]
        assert len({cadence_of(p) for p in points}) > 1
        buckets, fallback = plan_buckets(points)
        assert not fallback
        assert [b.indices for b in buckets] == [list(range(len(points)))]

    def test_tiny_four_archetype_matrix_plans_into_few_buckets(self):
        """Property: the tiny 4-archetype matrix needs at most 3 buckets."""
        names = ["checkpoint", "analytics", "smallfile", "incast"]
        specs = [[a] for a in names] + [
            [a, b] for a, b in itertools.combinations_with_replacement(names, 2)
        ]
        scenarios = [build_scenario(s, "tiny").scenario for s in specs]
        buckets, fallback = plan_buckets(scenarios, min_batch=1)
        assert len(scenarios) == 14
        assert not fallback
        assert len(buckets) <= 3

    def test_adaptive_stepping_still_runs_scalar(self):
        """Property: adaptive members fall back, fixed members batch, and
        both match their scalar runs."""
        policy = SteppingPolicy(mode=SteppingMode.ADAPTIVE)
        fixed = make_scenario("tiny", bytes_per_process=2 * units.MiB)
        adaptive = make_scenario(
            "tiny", bytes_per_process=2 * units.MiB, stepping=policy
        )
        scenarios = [
            adaptive, fixed.with_delay(0.1), adaptive.with_delay(-0.1), fixed,
        ]
        with telemetry_session("cadence-test") as telemetry:
            results = simulate_many(scenarios)
            counters = telemetry.snapshot()["counters"]
        assert counters["batch.fallback.adaptive"] == 2
        assert counters["batch.member_runs"] == 2
        for scenario, result in zip(scenarios, results):
            assert _full_result(result) == _full_result(simulate_scenario(scenario))
