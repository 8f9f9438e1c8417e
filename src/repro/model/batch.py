"""Batched lockstep stepping: advance B simulations of one deployment per NumPy call.

The scalar kernel (:mod:`repro.model.stepper`) is dispatch-bound at small
scale: each phase is a handful of vectorized ops over a few hundred elements,
so Python/NumPy call overhead dominates the step.  Every campaign this repo
runs (Δ-graph sweeps, interference matrices, parameter grids, seed
replications) is embarrassingly many *independent* simulations of the same
deployment, which makes the batch axis free: concatenate the per-connection,
per-server and per-node state of B member simulations into flat arrays and
run the same seven phases once per step over ``B * N`` elements.

Exactness
---------
The batched kernel is bit-for-bit identical to running every member alone,
by construction rather than by tolerance:

* every elementwise ufunc is trivially independent per lane — including the
  ones that read the step's time and length, which arrive as per-lane
  arrays holding each member's own ``now`` and ``dt`` (the dt-scaled
  node/NIC caps, the stall test, ``potential * dt``, the drain budget,
  window dynamics and link accounting);
* ``bincount`` accumulates per bin in input order, and each member's
  connections occupy a contiguous flat range in their original relative
  order, so per-bin partial-sum order is unchanged;
* the admission water-filling operates row-per-server on a ``(B*S, k)``
  matrix; row reductions only combine elements of one member's server, and
  dead rows are frozen exactly (``take[~live] = 0.0``), so extra iterations
  driven by *other* members' rows are exact no-ops;
* RNG draw order is preserved per member: the burst-escape gate draws from
  each member's own admission stream, and ``WindowState.update`` receives
  ``rng_sites`` so hazard draws (with the paced-timeout probability of the
  member's own ``dt``) and collapse jitter come from each member's own
  transport stream, gated and sized exactly as a member-alone run;
* the storage servers are flat lanes too: one deployment of ``B * S`` lanes
  (the members' deployments view their slices) takes one drain-rate query
  and one backend commit per step, and the buffers record every member's
  pressure statistics in one call;
* member-local work — forced timeouts, trace marks, completion handling —
  runs per member with that member's own scalar ``now``, and only for the
  members a flat test flags (gated or collapsed connections; apps whose
  outstanding bytes let them complete or issue);
* a finished member steps on as an exact no-op (zero outstanding bytes means
  zero offers, zero admissions, no window motion — the post-step invariant
  ``starved_time < rto`` rules out late timeouts); the accounting that would
  still advance is masked by a zero step length on its server lanes (drain
  budget, backend commit, pressure weight) and in its observed link time,
  so its lanes freeze exactly at its finish.

Driver
------
Each member keeps its own discrete-event engine for the control plane
(application starts, operation issues, trace sampling) — those are exact
scalar code paths on member-local state.  A periodic NORMAL-priority marker
event (the same ``schedule_periodic`` arithmetic the scalar simulator uses,
with the member's own step and start anchor) stops each engine at every one
of its step boundaries.  Members therefore advance in *step-index*
lockstep: the batch loop runs every live engine to its own next marker, the
batched kernel advances all of them at once, each at its own time, and the
engines resume.
Event ordering within a step instant (CONTROL < NORMAL < OBSERVE) is
identical to the scalar run, including trace samples observing post-step
state.  Members with different step lengths, start anchors (a negative Δ
starts a run before zero) or horizons share one bucket; a member that
finishes leaves the live set and costs only its idle lanes.

Bucketing
---------
:func:`plan_buckets` groups scenarios that can share a flat state: the same
platform and filesystem configuration (they fix the stepper's cached
constants).  Cadence is per member, and connection counts and per-server
group sizes are free to differ — the admission water-filling pads ragged
groups into width classes (:class:`~repro.network.incast.ServerBuffers`),
so mixed deployments batch together and ``batch.padded_slots`` accounts the
masked waste.  Only adaptive stepping (no fixed step sequence) and buckets
smaller than ``min_batch`` fall back to the scalar kernel.
:func:`simulate_many` is the front end: it plans, runs each bucket through
:func:`run_bucket`, runs the fallbacks through
:func:`~repro.model.simulator.simulate_scenario`, and emits ``batch.*``
telemetry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config.filesystem import FileSystemConfig
from repro.config.platform import PlatformConfig
from repro.config.scenario import ScenarioConfig
from repro.errors import SimulationError
from repro.model.results import RunResult
from repro.model.simulator import IOPathSimulator, simulate_scenario
from repro.model.stepper import ModelStepper, StepContext
from repro.network.congestion import WindowState
from repro.network.incast import ServerBuffers
from repro.network.topology import StarTopology
from repro.obs.telemetry import get_telemetry
from repro.pfs.filesystem import PVFSDeployment
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority
from repro.sim.rng import RandomStreams

__all__ = [
    "BatchSimulator",
    "BatchedStepper",
    "BucketShape",
    "cadence_of",
    "count_fallback",
    "plan_buckets",
    "run_bucket",
    "simulate_many",
]

#: Member arrays re-pointed at flat slices (state stays bitwise equal because
#: both sides are freshly constructed with identical initial values).
_WINDOW_ARRAYS = (
    "cwnd", "stall_until", "backoff", "starved_time", "last_delivery",
    "collapse_count", "delivered_bytes", "paced", "ever_paced",
)
_BUFFER_SERVER_ARRAYS = ("fill", "total_admitted", "total_drained", "full_steps",
                         "step_weight")
#: Member process bookkeeping re-pointed at flat process lanes.
_PROCESS_ARRAYS = ("proc_current_op", "proc_next_issue")


# ---------------------------------------------------------------------- #
# Shape bucketing
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class BucketShape:
    """The deployment a batch bucket's members share.

    Members of one bucket run on equal platform and filesystem
    configurations (frozen dataclasses; they feed the stepper's cached
    constants).  Everything else is per member: step length, start anchor
    and horizon (members advance in step-index lockstep, each on its own
    clock), seeds, workloads, trace configs, connection counts and
    per-server group sizes (ragged and mixed-width members pad into one
    bucket).
    """

    platform: PlatformConfig
    filesystem: FileSystemConfig

    @property
    def n_servers(self) -> int:
        return self.filesystem.n_servers


@dataclass
class _Bucket:
    shape: BucketShape
    indices: List[int] = field(default_factory=list)


def _shape_of(scenario: ScenarioConfig) -> Optional[BucketShape]:
    """Deployment shape of ``scenario``, or ``None`` when it cannot batch
    (adaptive stepping has no fixed step sequence)."""
    if scenario.control.resolve_stepping().is_adaptive:
        return None
    return BucketShape(platform=scenario.platform, filesystem=scenario.filesystem)


def cadence_of(scenario: ScenarioConfig) -> Tuple[float, float]:
    """``(dt, t0)``: a fixed-step scenario's step length and start anchor.

    The same arithmetic :class:`~repro.model.simulator.IOPathSimulator` uses
    (the anchor is the earliest application start, or zero).
    """
    dt = scenario.control.resolve_step(scenario.estimate_duration())
    return dt, _start_anchor(scenario)


def _start_anchor(scenario: ScenarioConfig) -> float:
    return min(0.0, min(app.start_time for app in scenario.applications))


def plan_buckets(
    scenarios: Sequence[ScenarioConfig], *, min_batch: int = 2
) -> Tuple[List[_Bucket], List[Tuple[int, str]]]:
    """Group ``scenarios`` into batchable buckets, in first-seen order.

    Returns ``(buckets, fallback)`` where every input index appears in
    exactly one bucket's ``indices`` or once in ``fallback`` as an
    ``(index, reason)`` pair with reason ``"adaptive"`` or ``"singleton"``
    (bucket smaller than ``min_batch``).
    """
    by_shape: Dict[BucketShape, _Bucket] = {}
    fallback: List[Tuple[int, str]] = []
    for i, scenario in enumerate(scenarios):
        shape = _shape_of(scenario)
        if shape is None:
            fallback.append((i, "adaptive"))
            continue
        by_shape.setdefault(shape, _Bucket(shape=shape)).indices.append(i)
    full: List[_Bucket] = []
    for bucket in by_shape.values():
        if len(bucket.indices) >= max(min_batch, 1):
            full.append(bucket)
        else:
            fallback.extend((i, "singleton") for i in bucket.indices)
    fallback.sort()
    return full, fallback


# ---------------------------------------------------------------------- #
# Flat-state facades
# ---------------------------------------------------------------------- #


@dataclass
class _BatchMember:
    """One member simulation, its lanes in the flat state and its cadence."""

    index: int
    sim: IOPathSimulator
    engine: Simulator
    conn_sl: slice
    srv_sl: slice
    node_sl: slice
    proc_sl: slice
    app_sl: slice
    dt: float
    until: float
    admission_rng: np.random.Generator
    live: bool = True
    n_steps: int = 0
    end_time: float = float("nan")


@dataclass(frozen=True)
class _Lanes:
    """One per-member value expanded onto the connection, server and node
    lanes (built once per bucket)."""

    conn: np.ndarray
    srv: np.ndarray
    node: np.ndarray


class _BatchedTopology:
    """Flat per-link accounting shared by every member.

    Busy/transferred arrays are the storage the members' own topologies view
    into; ``observed_time`` holds each member's utilization denominator,
    advanced by its live-masked step length (so it freezes at member finish)
    and handed to the member's topology when it finishes.
    """

    def __init__(self, node_capacity: np.ndarray, server_capacity: np.ndarray,
                 n_members: int) -> None:
        self._node_capacity = node_capacity
        self._server_capacity = server_capacity
        self.observed_time = np.zeros(n_members, dtype=np.float64)
        n_nodes = node_capacity.shape[0]
        n_servers = server_capacity.shape[0]
        self.node_busy = np.zeros(n_nodes, dtype=np.float64)
        self.node_transferred = np.zeros(n_nodes, dtype=np.float64)
        self.server_busy = np.zeros(n_servers, dtype=np.float64)
        self.server_transferred = np.zeros(n_servers, dtype=np.float64)
        self._scratch_node = np.empty(n_nodes, dtype=np.float64)
        self._scratch_node2 = np.empty(n_nodes, dtype=np.float64)
        self._scratch_server = np.empty(n_servers, dtype=np.float64)
        self._scratch_server2 = np.empty(n_servers, dtype=np.float64)

    @property
    def n_client_nodes(self) -> int:
        return self._node_capacity.shape[0]

    def node_capacities(self) -> np.ndarray:
        return self._node_capacity.copy()

    def server_capacities(self) -> np.ndarray:
        return self._server_capacity.copy()

    def record_step_flat(self, per_node: np.ndarray, per_server: np.ndarray,
                         dt: _Lanes, member_dt: np.ndarray) -> None:
        """``StarTopology.record_step`` over every member at once.

        Validation is skipped (the batched kernel feeds its own bincounts).
        Dead members contribute exact zeros to the link groups, and their
        ``member_dt`` entry is zero, so flat accumulation is exact.
        """
        self.observed_time += member_dt
        StarTopology._record_group(
            per_node, self._node_capacity, self.node_transferred,
            self.node_busy, self._scratch_node, self._scratch_node2, dt.node,
        )
        StarTopology._record_group(
            per_server, self._server_capacity, self.server_transferred,
            self.server_busy, self._scratch_server, self._scratch_server2, dt.srv,
        )


class _BatchedState:
    """Duck-typed ``ModelState`` facade over the flat batch arrays.

    Carries exactly the attributes the inherited stepping phases read; the
    control plane (operation issue, completion, results) never sees it — it
    runs on the members' own ``ModelState`` objects, whose hot arrays are
    views into the flat storage below.
    """

    def __init__(
        self,
        members: Sequence[_BatchMember],
        topology: _BatchedTopology,
        conn_server: np.ndarray,
        conn_node: np.ndarray,
    ) -> None:
        scenario = members[0].sim.scenario
        self.scenario = scenario
        #: Dummy stream source: the batched kernel never draws from it (the
        #: burst-escape gate override draws from each member's own streams).
        self.streams = RandomStreams(0)
        self.recorder = None  # the batched phases never mark; members do
        self.topology = topology
        self.conn_server = conn_server
        self.conn_node = conn_node
        self.n_connections = int(conn_server.shape[0])
        self.n_servers = int(topology.server_capacities().shape[0])
        self.n_apps = sum(m.sim.state.n_apps for m in members)
        transport = scenario.platform.network.transport
        #: Flat transport/buffer state.  Freshly constructed flat arrays have
        #: the same initial values as each member's own fresh arrays, so
        #: re-pointing members at slices preserves bitwise state.  The flat
        #: WindowState's rng is a dummy: update() receives rng_sites and
        #: force_timeout is only ever called on member WindowState objects.
        self.windows = WindowState(
            self.n_connections, transport, rng=np.random.default_rng(0)
        )
        self.buffers = ServerBuffers(
            n_servers=self.n_servers,
            capacity_bytes=scenario.filesystem.server.buffer_bytes,
            conn_server=conn_server,
        )
        self.deployment = PVFSDeployment(
            scenario.filesystem, scenario.platform.network.server_nic_bw,
            n_lanes=self.n_servers,
        )
        self.send_remaining = np.zeros(self.n_connections, dtype=np.float64)
        self.frag_size = np.zeros(self.n_connections, dtype=np.float64)
        self.last_drain_rate = np.full(
            self.n_servers, scenario.filesystem.server.ingest_bw, dtype=np.float64
        )
        self.last_admission_rate = np.zeros(self.n_servers, dtype=np.float64)
        #: Flat process and application lanes of the completion prefilter.
        self.conn_proc = np.concatenate(
            [m.sim.state.conn_proc + m.proc_sl.start for m in members]
        )
        self.conn_app = np.concatenate(
            [m.sim.state.conn_app + m.app_sl.start for m in members]
        )
        self.n_processes = members[-1].proc_sl.stop
        self.proc_current_op = np.full(self.n_processes, -1, dtype=np.int64)
        self.proc_next_issue = np.zeros(self.n_processes, dtype=np.float64)
        self.app_active = np.zeros(self.n_apps, dtype=bool)


# ---------------------------------------------------------------------- #
# The batched stepper
# ---------------------------------------------------------------------- #


class BatchedStepper(ModelStepper):
    """The seven-phase kernel over the flat batch state.

    Inherits the data-plane phases unchanged (they are pure array code over
    the facade state, reading the step's time and length from per-lane
    arrays) and overrides the four places that touch RNG streams or
    member-local bookkeeping: the burst-escape gate, window dynamics,
    accounting, and completion.

    Every member's step length is expanded per connection, server and node
    lane; it is fixed for the bucket's lifetime, so the dt-scaled node/NIC
    caps are computed once here.  The server lanes' step length as the
    drain, the backend commit and the pressure statistics see it
    (``ctx.dt_server``) is zero on the lanes of finished members, which
    freezes those lanes exactly; :meth:`retire` re-derives it whenever a
    member finishes.
    """

    def __init__(self, state: _BatchedState, members: Sequence[_BatchMember]) -> None:
        super().__init__(state)  # type: ignore[arg-type]
        self._members = list(members)
        n_members = len(self._members)
        member_ids = np.arange(n_members)
        member_dt = np.array([m.dt for m in members], dtype=np.float64)

        def lanes(name: str) -> np.ndarray:
            sizes = [getattr(m, name).stop - getattr(m, name).start for m in members]
            return np.repeat(member_ids, np.asarray(sizes, dtype=np.int64))

        self._conn_member = lanes("conn_sl")
        self._srv_member = lanes("srv_sl")
        self._proc_member = lanes("proc_sl")
        self._app_member = lanes("app_sl")
        self._member_dt = member_dt
        self._dt = _Lanes(
            conn=member_dt[self._conn_member],
            srv=member_dt[self._srv_member],
            node=member_dt[lanes("node_sl")],
        )
        np.multiply(self._node_caps, self._dt.node, out=self._node_caps_dt)
        np.multiply(self._server_nic, self._dt.srv, out=self._server_nic_dt)
        # Live-masked step lengths and pressure weights (see retire()).
        self._member_dt_live = np.empty(n_members, dtype=np.float64)
        self._step_weight = np.empty(state.n_servers, dtype=np.float64)
        self._ctx = StepContext(
            now=np.zeros(state.n_connections, dtype=np.float64),
            dt=self._dt.conn,
            dt_server=np.empty(state.n_servers, dtype=np.float64),
        )
        self._member_now = np.zeros(n_members, dtype=np.float64)

        # Static lanes of the completion prefilter.
        apps = [app for m in members for app in m.sim.state.applications]
        self._collective = np.array(
            [app.spec.pattern.collective for app in apps], dtype=bool
        )
        self._independent = ~self._collective
        self._proc_app = np.concatenate(
            [m.sim.state.proc_app + m.app_sl.start for m in members]
        )
        app_last_op = np.array([app.n_operations - 1 for app in apps], dtype=np.int64)
        self._proc_last_op = app_last_op[self._proc_app]
        self._app_n_procs = np.bincount(self._proc_app, minlength=len(apps))
        self.retire()

    def retire(self) -> None:
        """Re-derive the live masks after the live set changed.

        Finished members' server lanes get a zero step length and pressure
        weight, and their observed link time stops.  Hazard draws and
        collapse jitter come from each live member's own transport stream,
        sliced to its lanes, with its own step length; dead members never
        have candidates (their connections are inactive and their post-step
        starvation clocks sit below the RTO), so their sites can go.
        """
        live = np.array([m.live for m in self._members], dtype=bool)
        self._live = live
        srv_live = live[self._srv_member]
        np.multiply(self._dt.srv, srv_live, out=self._ctx.dt_server)
        np.copyto(self._step_weight, srv_live)
        np.multiply(self._member_dt, live, out=self._member_dt_live)
        self._rng_sites = tuple(
            (m.conn_sl, m.sim.state.windows._rng, m.dt) for m in self._members if m.live
        )

    def _live_members_of(self, lane_member: np.ndarray) -> List[_BatchMember]:
        """The live members owning any of the lanes ``lane_member`` names."""
        hit = np.zeros(len(self._members), dtype=bool)
        hit[lane_member] = True
        return [self._members[k] for k in np.flatnonzero(hit & self._live)]

    # -- phase overrides ------------------------------------------------ #

    def _burst_escape_gate(self, ctx: StepContext) -> None:
        """Per-member burst-escape gate.

        Mirrors the scalar gate slice by slice so every member with a gated
        connection consumes exactly the draws (one full-lane ``random`` per
        step with any gated connection) a member-alone run would, from its
        own admission stream.
        """
        ws = self.workspace
        transport = self._transport
        if not ws.tmp_bool_a.any():
            return
        ever_paced = self.state.windows.ever_paced
        gated_members = self._conn_member[ws.tmp_bool_a]
        for member in self._live_members_of(gated_members):
            sl = member.conn_sl
            gated = ws.tmp_bool_a[sl]
            draws = ws.draws[sl]
            member.admission_rng.random(out=draws)
            probs = ws.tmp_conn_a[sl]
            probs.fill(transport.burst_escape_probability)
            np.copyto(probs, transport.burst_reentry_probability,
                      where=ever_paced[sl])
            failed = ws.tmp_bool_b[sl]
            np.greater_equal(draws, probs, out=failed)
            np.logical_and(gated, failed, out=failed)
            if failed.any():
                local_idx = np.flatnonzero(failed)
                mstate = member.sim.state
                now = member.engine.now
                mstate.windows.force_timeout(local_idx, now)
                ws.desired[sl][local_idx] = 0.0
                mstate.collapses_per_app += np.bincount(
                    mstate.conn_app[local_idx], minlength=mstate.n_apps
                )
                mstate.recorder.mark(
                    now, "incast", "burst-loss",
                    data={"count": int(local_idx.size)},
                )

    def _phase_window_dynamics(self, ctx: StepContext) -> None:
        state = self.state
        update = state.windows.update(
            now=ctx.now,
            dt=ctx.dt,
            requested=ctx.desired,
            admitted=ctx.admitted,
            rtt_eff=ctx.rtt_eff,
            oversubscribed=ctx.oversubscribed,
            loss_prone=ctx.loss_prone,
            collect_stats=False,
            rng_sites=self._rng_sites,
        )
        if update.n_collapsed:
            # Collapsed indices are ascending, so each member's share is one
            # contiguous run; split it per member for the local statistics.
            idx = update.collapsed_indices
            for member in self._live_members_of(self._conn_member[idx]):
                sl = member.conn_sl
                a = int(np.searchsorted(idx, sl.start, side="left"))
                b = int(np.searchsorted(idx, sl.stop, side="left"))
                mstate = member.sim.state
                local_idx = idx[a:b] - sl.start
                mstate.collapses_per_app += np.bincount(
                    mstate.conn_app[local_idx], minlength=mstate.n_apps
                )
                mstate.recorder.mark(
                    member.engine.now, "incast", "window-collapse",
                    data={"count": int(b - a)},
                )

    def _phase_accounting(self, ctx: StepContext) -> None:
        state = self.state
        per_node = np.bincount(
            state.conn_node, weights=ctx.admitted, minlength=self._n_nodes
        )
        per_server = np.bincount(
            state.conn_server, weights=ctx.admitted, minlength=self._n_servers
        )
        # Observed link time and pressure steps stop advancing at member
        # finish, exactly like a scalar run ending.
        state.topology.record_step_flat(per_node, per_server, self._dt,
                                        self._member_dt_live)
        state.buffers.note_step(weight=self._step_weight)
        np.divide(per_server, self._dt.srv, out=state.last_admission_rate)

    def _phase_completion(self, sim: Optional[Simulator]) -> None:
        """Run completion handling for the members that need it this step.

        One flat outstanding-bytes pass finds the apps that can act: a
        collective app whose bytes are all handled, or a non-collective app
        with a process ready to issue or with every process done — exactly
        the cases in which ``_handle_completions`` changes anything.  Only
        active apps (started, unfinished, not waiting for an issue) count.
        """
        state = self.state
        ws = self.workspace
        eps = self._completion_epsilon
        np.add(state.send_remaining, state.buffers.conn_bytes, out=ws.tmp_conn_a)
        per_app = np.bincount(state.conn_app, weights=ws.tmp_conn_a,
                              minlength=state.n_apps)
        due = self._collective & state.app_active & (per_app <= eps)
        independent = self._independent & state.app_active
        if independent.any():
            idle = np.bincount(state.conn_proc, weights=ws.tmp_conn_a,
                               minlength=state.n_processes) <= eps
            exhausted = state.proc_current_op >= self._proc_last_op
            ready = idle & ~exhausted & (
                state.proc_next_issue <= self._member_now[self._proc_member]
            )
            issuing = np.bincount(self._proc_app, weights=ready,
                                  minlength=state.n_apps) > 0
            done = np.bincount(self._proc_app, weights=idle & exhausted,
                               minlength=state.n_apps) == self._app_n_procs
            due |= independent & (issuing | done)
        if due.any():
            for member in self._live_members_of(self._app_member[due]):
                member.sim.stepper._handle_completions(member.engine)

    # -- the batched step ----------------------------------------------- #

    def step_batch(self, now: np.ndarray) -> None:
        """Advance every live member by its own ``dt``.

        ``now`` holds each member's clock (indexed like the members); the
        kernel expands it onto the connection lanes.  Dead members' entries
        are never read by anything that changes state.
        """
        ctx = self._ctx
        self._member_now[:] = now
        np.take(now, self._conn_member, out=ctx.now)
        profiler = self.profiler
        if profiler is None:
            self._phase_workload_mix(ctx)
            self._phase_drain(ctx)
            self._phase_offer(ctx)
            self._phase_admission(ctx)
            self._phase_window_dynamics(ctx)
            self._phase_accounting(ctx)
            self._phase_completion(None)
            return
        with profiler.phase("workload_mix"):
            self._phase_workload_mix(ctx)
        with profiler.phase("drain"):
            self._phase_drain(ctx)
        with profiler.phase("offer"):
            self._phase_offer(ctx)
        with profiler.phase("admission"):
            self._phase_admission(ctx)
        with profiler.phase("window_dynamics"):
            self._phase_window_dynamics(ctx)
        with profiler.phase("accounting"):
            self._phase_accounting(ctx)
        with profiler.phase("completion"):
            self._phase_completion(None)


# ---------------------------------------------------------------------- #
# The lockstep driver
# ---------------------------------------------------------------------- #


class BatchSimulator:
    """Runs B fixed-step scenarios of one deployment in step-index lockstep.

    ``seeds`` optionally overrides each member's master seed, exactly like
    the ``seed`` argument of :func:`~repro.model.simulator.simulate_scenario`.
    Build from *fresh* scenarios only: member state is re-pointed at the flat
    arrays right after construction, before any event runs.
    """

    def __init__(
        self,
        scenarios: Sequence[ScenarioConfig],
        seeds: Optional[Sequence[Optional[int]]] = None,
    ) -> None:
        if not scenarios:
            raise SimulationError("a batch needs at least one scenario")
        if seeds is None:
            seeds = [None] * len(scenarios)
        elif len(seeds) != len(scenarios):
            raise SimulationError("a batch needs one seed per scenario")
        sims = [IOPathSimulator(s, seed=seed) for s, seed in zip(scenarios, seeds)]
        if any(sim.stepping.is_adaptive for sim in sims):
            raise SimulationError("adaptive stepping cannot run batched")
        reference = sims[0].scenario
        for sim in sims:
            if (
                sim.scenario.platform != reference.platform
                or sim.scenario.filesystem != reference.filesystem
            ):
                raise SimulationError(
                    "batch members must share their platform/filesystem "
                    "configuration"
                )

        # Lanes and per-member cadence.
        members: List[_BatchMember] = []
        conn_off = srv_off = node_off = proc_off = app_off = 0
        for k, sim in enumerate(sims):
            st = sim.state
            n_c = st.n_connections
            n_s = st.n_servers
            n_n = st.topology.n_client_nodes
            t0 = _start_anchor(sim.scenario)
            max_time = sim.scenario.control.max_time
            members.append(
                _BatchMember(
                    index=k,
                    sim=sim,
                    engine=Simulator(start_time=t0, horizon=t0 + max_time * 2 + 1.0),
                    conn_sl=slice(conn_off, conn_off + n_c),
                    srv_sl=slice(srv_off, srv_off + n_s),
                    node_sl=slice(node_off, node_off + n_n),
                    proc_sl=slice(proc_off, proc_off + st.n_processes),
                    app_sl=slice(app_off, app_off + st.n_apps),
                    dt=sim.step_size,
                    until=t0 + max_time,
                    admission_rng=sim.stepper._rng,
                )
            )
            conn_off += n_c
            srv_off += n_s
            node_off += n_n
            proc_off += st.n_processes
            app_off += st.n_apps
        self.members = members
        #: Unfinished members, in member order.
        self.live: List[_BatchMember] = list(members)
        #: Each member's clock at its current step boundary.
        self._now = np.array(
            [m.engine.now for m in members], dtype=np.float64
        )

        # Flat index maps and facade state.
        conn_server = np.concatenate(
            [m.sim.state.conn_server + m.srv_sl.start for m in members]
        )
        conn_node = np.concatenate(
            [m.sim.state.conn_node + m.node_sl.start for m in members]
        )
        topology = _BatchedTopology(
            np.concatenate([m.sim.state.topology.node_capacities() for m in members]),
            np.concatenate([m.sim.state.topology.server_capacities() for m in members]),
            len(members),
        )
        state = _BatchedState(members, topology, conn_server, conn_node)
        self.state = state
        self._repoint_members()
        self.stepper = BatchedStepper(state, members)
        self._schedule_control_plane()
        self.n_batch_steps = 0

    # ------------------------------------------------------------------ #

    def _repoint_members(self) -> None:
        """Point every member's hot arrays at its lanes of the flat state.

        Both sides are freshly constructed (identical initial values), so
        this changes storage, not state.  Member-local state — collapse
        statistics, application runtimes, observed link time — stays where
        it is.
        """
        state = self.state
        for member in self.members:
            st = member.sim.state
            for name in _WINDOW_ARRAYS:
                setattr(st.windows, name, getattr(state.windows, name)[member.conn_sl])
            for name in _BUFFER_SERVER_ARRAYS:
                setattr(st.buffers, name, getattr(state.buffers, name)[member.srv_sl])
            st.deployment.share_lanes(state.deployment, member.srv_sl)
            for name in _PROCESS_ARRAYS:
                setattr(st, name, getattr(state, name)[member.proc_sl])
            st.app_active = state.app_active[member.app_sl]
            st.buffers.conn_bytes = state.buffers.conn_bytes[member.conn_sl]
            st.send_remaining = state.send_remaining[member.conn_sl]
            st.frag_size = state.frag_size[member.conn_sl]
            st.last_drain_rate = state.last_drain_rate[member.srv_sl]
            st.last_admission_rate = state.last_admission_rate[member.srv_sl]
            topo = st.topology
            topo._node_busy = state.topology.node_busy[member.node_sl]
            topo._node_transferred = state.topology.node_transferred[member.node_sl]
            topo._server_busy = state.topology.server_busy[member.srv_sl]
            topo._server_transferred = state.topology.server_transferred[member.srv_sl]

    def _schedule_control_plane(self) -> None:
        """Schedule each member's starts, step markers and trace sampling.

        The step marker is a periodic NORMAL event that merely stops the
        member's engine at every one of its step boundaries; it uses the
        same ``schedule_periodic`` arithmetic as the scalar simulator's tick
        (member step, member start anchor), so marker times match the scalar
        step times bitwise.
        """
        for member in self.members:
            sim = member.sim
            engine = member.engine
            st = sim.state
            t0 = engine.now
            for app in st.applications:
                engine.schedule(
                    app.start_time,
                    sim._make_start_callback(app.index),
                    priority=EventPriority.CONTROL,
                    label=f"start.{app.name}",
                )
            # No finished probe: the batch loop clears a member's engine as
            # soon as the step that finished it returns.
            engine.schedule_periodic(
                member.dt,
                _stop_for_batch_step,
                start=t0 + member.dt,
                priority=EventPriority.NORMAL,
                label="model.step",
            )
            if sim.recorder.config.records_series:
                sample_period = sim.scenario.control.trace.series_sample_period
                engine.schedule_periodic(
                    sample_period,
                    sim._sample,
                    start=t0 + sample_period,
                    priority=EventPriority.OBSERVE,
                    label="trace.sample",
                    stop_when=_make_finished_probe(st),
                )

    # ------------------------------------------------------------------ #

    def _advance_one_step(self) -> None:
        now = self._now
        for member in self.live:
            engine = member.engine
            engine.run(until=member.until)
            if engine.stop_reason != "batch-step":
                unfinished = [
                    rt.app.name
                    for rt in member.sim.state.app_runtime
                    if not rt.finished
                ]
                raise SimulationError(
                    "simulation reached max_time="
                    f"{member.sim.scenario.control.max_time}s with "
                    f"unfinished applications {unfinished}; check the "
                    "scenario configuration"
                )
            now[member.index] = engine.now
        self.stepper.step_batch(now)
        self.n_batch_steps += 1
        finished = False
        for member in self.live:
            member.n_steps += 1
            if member.sim.state.all_finished():
                member.live = False
                member.end_time = member.engine.now
                member.engine.clear()
                member.sim.state.topology._observed_time = float(
                    self.state.topology.observed_time[member.index]
                )
                finished = True
        if finished:
            self.live[:] = [m for m in self.live if m.live]
            self.stepper.retire()

    def run(self) -> List[RunResult]:
        """Run every member to completion; results in member order."""
        wall_start = time.perf_counter()
        while self.live:
            self._advance_one_step()
        wall_time = time.perf_counter() - wall_start
        results = []
        for member in self.members:
            member.sim._n_steps = member.n_steps
            results.append(member.sim._build_result(member.end_time, wall_time))
        return results


def _stop_for_batch_step(sim: Simulator) -> None:
    sim.stop("batch-step")


def _make_finished_probe(state):
    def _finished(sim: Simulator) -> bool:
        return state.all_finished()

    return _finished


# ---------------------------------------------------------------------- #
# Front end
# ---------------------------------------------------------------------- #


def run_bucket(
    scenarios: Sequence[ScenarioConfig],
    shape: Optional[BucketShape] = None,
    *,
    seeds: Optional[Sequence[Optional[int]]] = None,
) -> List[RunResult]:
    """Run one bucket through the batched kernel, with telemetry.

    Emits the per-bucket ``simulation``-track span (with synthetic ``phase``
    child spans and ``step.phase.*`` counters from the kernel profiler, like
    a scalar run), the ``batch.buckets`` / ``batch.member_runs`` /
    ``batch.padded_slots`` / ``batch.group_slots`` counters, and the
    ``batch.occupancy`` observation — the single place that accounting
    lives, shared by :func:`simulate_many` and the executor-level batchers.
    Observational only: the batch kernel never reads the profiler, so
    results stay byte-identical with telemetry on or off.  ``shape`` is
    informational (span labelling); pool workers omit it.  ``seeds``
    overrides the members' master seeds (see :class:`BatchSimulator`).
    """
    from repro.perf.counters import StepProfiler

    telemetry = get_telemetry()
    n_servers = scenarios[0].filesystem.n_servers if shape is None else shape.n_servers
    label = f"batch:b{len(scenarios)}x{n_servers}s"
    with telemetry.span(
        label,
        category="simulation",
        track="batch",
        members=len(scenarios),
        n_servers=n_servers,
    ) as bucket_span:
        batch = BatchSimulator(scenarios, seeds)
        profiler = None
        if telemetry.enabled and batch.stepper.profiler is None:
            profiler = StepProfiler()
            batch.stepper.profiler = profiler
        try:
            start_us = telemetry.now_us()
            results = batch.run()
        finally:
            if profiler is not None:
                batch.stepper.profiler = None
    if profiler is not None:
        cursor = start_us
        for phase, row in profiler.report().items():
            phase_us = row["ns"] / 1000.0
            telemetry.add_span(
                phase,
                "phase",
                cursor,
                phase_us,
                parent=bucket_span,
                track="batch",
                args={"calls": row["calls"],
                      "ns_per_call": round(row["ns_per_call"], 1),
                      "alloc_blocks": row["alloc_blocks"]},
            )
            cursor += phase_us
            telemetry.count(f"step.phase.{phase}.ns", row["ns"])
            telemetry.count(f"step.phase.{phase}.calls", row["calls"])
            telemetry.observe(f"step.phase.{phase}.ns_per_call", row["ns_per_call"])
    for member in batch.members:
        for name, value in member.engine.stats().items():
            telemetry.count(name, value)
    telemetry.count("batch.buckets")
    telemetry.count("batch.member_runs", len(scenarios))
    telemetry.observe("batch.occupancy", float(len(scenarios)))
    telemetry.count("batch.padded_slots", batch.state.buffers.padded_slots)
    telemetry.count("batch.group_slots", batch.state.buffers.group_slots)
    telemetry.count("sim.steps", sum(m.n_steps for m in batch.members))
    return results


def count_fallback(reason: str) -> None:
    """Record one scenario taking the scalar path instead of a bucket."""
    telemetry = get_telemetry()
    telemetry.count("batch.ragged_fallbacks")
    telemetry.count(f"batch.fallback.{reason}")


def simulate_many(
    scenarios: Sequence[ScenarioConfig],
    seeds: Optional[Sequence[Optional[int]]] = None,
    *,
    min_batch: int = 2,
) -> List[RunResult]:
    """Simulate ``scenarios``, batching those that share a deployment.

    ``seeds`` optionally gives each scenario's seed override (``None``
    entries keep the scenario's own seed).  Results come back in input
    order and are bitwise identical to running each scenario through
    :func:`~repro.model.simulator.simulate_scenario` alone with its seed.
    Buckets run through :func:`run_bucket`; adaptive and singleton
    scenarios take exactly that scalar path.  Both are called through this
    module's bindings, so instrumentation that wraps them sees every
    simulation.  Emits ``batch.*`` telemetry: one ``simulation``-track span
    plus an occupancy observation per bucket, and fallback counters.
    """
    scenarios = list(scenarios)
    if seeds is None:
        seeds = [None] * len(scenarios)
    elif len(seeds) != len(scenarios):
        raise SimulationError("simulate_many needs one seed per scenario")
    buckets, fallback = plan_buckets(scenarios, min_batch=min_batch)
    results: List[Optional[RunResult]] = [None] * len(scenarios)
    for bucket in buckets:
        outs = run_bucket(
            [scenarios[i] for i in bucket.indices],
            bucket.shape,
            seeds=[seeds[i] for i in bucket.indices],
        )
        for i, result in zip(bucket.indices, outs):
            results[i] = result
    for i, reason in fallback:
        count_fallback(reason)
        results[i] = simulate_scenario(scenarios[i], seed=seeds[i])
    return results  # type: ignore[return-value]
