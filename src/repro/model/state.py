"""Vectorized model state.

:class:`ModelState` is built once per run from a
:class:`~repro.config.scenario.ScenarioConfig`.  It holds:

* the :class:`~repro.workload.application.Application` objects (placement,
  per-operation extents),
* one *connection* per (process, target server) pair with the transport
  state (:class:`~repro.network.congestion.WindowState`) and the server
  receive buffers (:class:`~repro.network.incast.ServerBuffers`),
* the per-connection "bytes still to send for the current operation" array
  the stepper updates,
* per-application progress bookkeeping (current operation, completion
  times).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.config.scenario import ScenarioConfig
from repro.errors import SimulationError
from repro.network.congestion import WindowState
from repro.network.incast import ServerBuffers
from repro.network.topology import StarTopology
from repro.pfs.filesystem import PVFSDeployment
from repro.pfs.striping import extents_to_server_matrix
from repro.sim.rng import RandomStreams
from repro.sim.tracing import TraceRecorder
from repro.workload.application import Application

__all__ = ["AppRuntime", "ModelState"]


@dataclass
class AppRuntime:
    """Mutable per-application bookkeeping."""

    app: Application
    started: bool = False
    finished: bool = False
    waiting_issue: bool = False
    current_op: int = -1
    ops_completed: int = 0
    actual_start_time: float = 0.0
    end_time: float = float("nan")
    issued_bytes: float = 0.0
    completed_bytes: float = 0.0

    @property
    def write_time(self) -> float:
        """Duration of the application's I/O phase (NaN until finished)."""
        if not self.finished:
            return float("nan")
        return self.end_time - self.actual_start_time


class ModelState:
    """All mutable arrays of one simulation run."""

    def __init__(self, scenario: ScenarioConfig, streams: RandomStreams,
                 recorder: Optional[TraceRecorder] = None) -> None:
        self.scenario = scenario
        self.streams = streams
        self.recorder = recorder or TraceRecorder(scenario.control.trace)

        fs = scenario.filesystem
        platform = scenario.platform
        self.deployment = PVFSDeployment(fs, server_nic_bw=platform.network.server_nic_bw)
        self.topology = StarTopology(
            n_client_nodes=platform.n_client_nodes,
            n_servers=fs.n_servers,
            network=platform.network,
        )

        # ---------------- applications and processes ---------------------
        self.applications: List[Application] = []
        node_ranges = scenario.node_ranges()
        first_proc = 0
        for idx, (spec, node_range) in enumerate(zip(scenario.applications, node_ranges)):
            app = Application(
                index=idx,
                spec=spec,
                node_range=node_range,
                servers=scenario.app_servers(spec),
                first_proc_id=first_proc,
            )
            self.applications.append(app)
            first_proc += app.n_processes
        self.n_processes = first_proc
        self.n_servers = fs.n_servers
        self.n_apps = len(self.applications)

        self.proc_app = np.empty(self.n_processes, dtype=np.int64)
        self.proc_node = np.empty(self.n_processes, dtype=np.int64)
        for app in self.applications:
            ids = app.proc_ids()
            self.proc_app[ids] = app.index
            self.proc_node[ids] = app.node_of_rank()

        # ---------------- connections -------------------------------------
        conn_proc: List[np.ndarray] = []
        conn_server: List[np.ndarray] = []
        self.conn_matrix = np.full((self.n_processes, self.n_servers), -1, dtype=np.int64)
        offset = 0
        for app in self.applications:
            ids = app.proc_ids()
            servers = np.asarray(app.servers, dtype=np.int64)
            procs_rep = np.repeat(ids, servers.shape[0])
            servers_rep = np.tile(servers, ids.shape[0])
            count = procs_rep.shape[0]
            conn_proc.append(procs_rep)
            conn_server.append(servers_rep)
            self.conn_matrix[procs_rep, servers_rep] = offset + np.arange(count)
            offset += count
        self.n_connections = offset
        self.conn_proc = np.concatenate(conn_proc) if conn_proc else np.zeros(0, dtype=np.int64)
        self.conn_server = (
            np.concatenate(conn_server) if conn_server else np.zeros(0, dtype=np.int64)
        )
        self.conn_app = self.proc_app[self.conn_proc]
        self.conn_node = self.proc_node[self.conn_proc]

        # Step-invariant index groups, computed once so the hot path (stepper
        # completion phase, trace sampling) never rebuilds them:
        #: Global process indices per application, in rank order.
        self.app_proc_ids: List[np.ndarray] = [app.proc_ids() for app in self.applications]
        #: Connection indices per application (every process/server pair).
        self._app_conn_ids: List[np.ndarray] = [
            self.conn_matrix[np.ix_(self.app_proc_ids[app.index],
                                    np.asarray(app.servers, dtype=np.int64))].reshape(-1)
            for app in self.applications
        ]

        # Transport and buffer state.
        transport = platform.network.transport
        self.windows = WindowState(
            self.n_connections, transport, rng=streams.stream("transport")
        )
        self.buffers = ServerBuffers(
            n_servers=self.n_servers,
            capacity_bytes=fs.server.buffer_bytes,
            conn_server=self.conn_server,
        )

        #: Bytes of the current operation still to be sent, per connection.
        self.send_remaining = np.zeros(self.n_connections, dtype=np.float64)
        #: Size of the current operation's fragment on each connection.
        self.frag_size = np.zeros(self.n_connections, dtype=np.float64)

        # Per-application runtime bookkeeping.
        self.app_runtime: List[AppRuntime] = [AppRuntime(app=app) for app in self.applications]
        #: Apps whose completion the stepper checks each step: set once an
        #: app has started and whenever an operation is issued, cleared
        #: while it waits for its next collective issue and at its finish.
        #: Never False for a started, unfinished, non-waiting app.
        self.app_active = np.zeros(self.n_apps, dtype=bool)

        # Per-process bookkeeping for the non-collective mode.
        self.proc_current_op = np.full(self.n_processes, -1, dtype=np.int64)
        self.proc_next_issue = np.zeros(self.n_processes, dtype=np.float64)

        # Cached per-server drain rate of the previous step (for RTT estimates).
        self.last_drain_rate = np.full(
            self.n_servers, fs.server.ingest_bw, dtype=np.float64
        )
        # Cached per-server admission rate (B/s) of the previous step; the
        # adaptive stepper derives buffer fill/empty horizons from it.
        self.last_admission_rate = np.zeros(self.n_servers, dtype=np.float64)

        # Collapse statistics per application (Incast detection).
        self.collapses_per_app = np.zeros(self.n_apps, dtype=np.int64)

        # Traced connections (window figures): first connection of each app.
        limit = self.recorder.config.window_connection_limit
        self.traced_connections: Dict[int, str] = {}
        if self.recorder.config.record_windows and limit > 0:
            for app in self.applications:
                ids = app.proc_ids()
                count = 0
                for proc in ids[: max(limit, 1)]:
                    for server in app.servers[:1]:
                        conn = int(self.conn_matrix[proc, server])
                        if conn >= 0:
                            self.traced_connections[conn] = (
                                f"window.{app.name}.rank{int(proc - app.first_proc_id)}"
                                f".server{int(server)}"
                            )
                            count += 1
                    if count >= limit:
                        break

    # ------------------------------------------------------------------ #
    # Operation issue
    # ------------------------------------------------------------------ #

    def app_connection_ids(self, app: Application) -> np.ndarray:
        """Connection indices of every (process, server) pair of ``app``.

        Returns the precomputed (step-invariant) index array; treat it as
        read-only.
        """
        return self._app_conn_ids[app.index]

    def issue_operation(self, app: Application, op_index: int) -> float:
        """Load operation ``op_index`` of ``app`` onto its connections.

        Returns the number of bytes issued.  Used for collective operations
        (all processes issue together).
        """
        if op_index < 0 or op_index >= app.n_operations:
            raise SimulationError(
                f"application {app.name!r} has no operation {op_index}"
            )
        offsets, lengths = app.operation_extents(op_index)
        per_rank = self._load_extents(app, self.app_proc_ids[app.index], offsets, lengths)
        # Summed rank by rank from zero, then added to the running total.
        issued = float(np.cumsum(per_rank)[-1])
        runtime = self.app_runtime[app.index]
        runtime.issued_bytes += issued
        runtime.current_op = op_index
        runtime.waiting_issue = False
        self.app_active[app.index] = True
        return issued

    def issue_process_operations(self, app: Application, ranks: np.ndarray,
                                 ops: np.ndarray) -> float:
        """Load operation ``ops[i]`` of local rank ``ranks[i]`` of ``app``, for
        every ``i`` in order (non-collective mode); returns the bytes issued.
        """
        ranks = np.asarray(ranks, dtype=np.int64)
        ops = np.asarray(ops, dtype=np.int64)
        offsets = np.empty(ranks.shape[0], dtype=np.float64)
        lengths = np.empty(ranks.shape[0], dtype=np.float64)
        for op in np.unique(ops):
            pick = ops == op
            op_offsets, op_lengths = app.operation_extents(int(op))
            offsets[pick] = op_offsets[ranks[pick]]
            lengths[pick] = op_lengths[ranks[pick]]
        procs = self.app_proc_ids[app.index][ranks]
        per_proc = self._load_extents(app, procs, offsets, lengths)
        # Added to the running total process by process.
        runtime = self.app_runtime[app.index]
        runtime.issued_bytes = float(np.cumsum(np.r_[runtime.issued_bytes, per_proc])[-1])
        self.proc_current_op[procs] = ops
        return float(per_proc.sum())

    def _load_extents(self, app: Application, procs: np.ndarray,
                      offsets: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Stripe one extent per process onto its connections.

        Adds each process's per-server bytes to ``send_remaining``, records
        them as the fragment sizes, and returns every process's issued bytes:
        the sum over the servers it touches, in server order, with the same
        summation tree as a 1-D sum of just those values (rows are grouped by
        their touched count, so no zero padding enters a sum).
        """
        per_server = extents_to_server_matrix(
            offsets, lengths, self.scenario.filesystem.stripe_size,
            app.servers, self.n_servers,
        )
        touched = per_server > 0
        conns = self.conn_matrix[procs][touched]
        if np.any(conns < 0):  # pragma: no cover - defensive
            raise SimulationError(
                f"a process of {app.name!r} has no connection to a server it writes to"
            )
        values = per_server[touched]
        self.send_remaining[conns] += values
        self.frag_size[conns] = values
        counts = touched.sum(axis=1)
        if counts.min() == counts.max():
            return values.reshape(counts.shape[0], -1).sum(axis=1)
        starts = np.cumsum(counts) - counts
        sums = np.zeros(counts.shape[0], dtype=np.float64)
        widths = np.flatnonzero(np.bincount(counts))
        for width in widths[widths > 0]:
            rows = np.flatnonzero(counts == width)
            sums[rows] = values[starts[rows, None] + np.arange(width)].sum(axis=1)
        return sums

    # ------------------------------------------------------------------ #
    # Aggregations used by the stepper
    # ------------------------------------------------------------------ #

    def outstanding_per_connection(self) -> np.ndarray:
        """Bytes not yet durably handled per connection (in flight + to send)."""
        return self.send_remaining + self.buffers.conn_bytes

    def outstanding_per_app(self) -> np.ndarray:
        """Bytes not yet durably handled per application."""
        return np.bincount(
            self.conn_app, weights=self.outstanding_per_connection(), minlength=self.n_apps
        )

    def outstanding_per_process(self) -> np.ndarray:
        """Bytes not yet durably handled per process."""
        return np.bincount(
            self.conn_proc, weights=self.outstanding_per_connection(), minlength=self.n_processes
        )

    def all_finished(self) -> bool:
        """True when every application has completed its I/O phase."""
        for runtime in self.app_runtime:
            if not runtime.finished:
                return False
        return True

    def completed_bytes_per_app(self) -> np.ndarray:
        """Bytes durably handled so far, per application."""
        issued = np.array([rt.issued_bytes for rt in self.app_runtime])
        outstanding = self.outstanding_per_app()
        return np.maximum(issued - outstanding, 0.0)
