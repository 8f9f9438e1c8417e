"""A PVFS deployment: the storage servers of one file system, as flat arrays.

A server's write path has two halves:

* the **ingest** half (network stack + request processing + Trove): limited
  by a byte rate (:attr:`~repro.config.server.ServerConfig.ingest_bw`) and a
  per-fragment CPU cost, and — crucially — with *no flow control of its own*:
  it accepts whatever the receive buffer holds and relies on TCP to throttle
  the clients, which is the design weakness the paper identifies;
* the **backend** half: with sync ON every byte must reach the device before
  it is acknowledged, so the device's effective bandwidth (which degrades
  under interleaving and small granularity) is on the critical path; with
  sync OFF bytes only have to reach the write-back cache; with null-aio they
  are discarded.

Lane layout
-----------
:class:`PVFSDeployment` holds every server's state in per-server *lanes*:
``drained_bytes``, ``busy_time`` and ``observed_time`` here, the write-back
cache's dirty/absorbed/flushed bytes in :class:`~repro.storage.writeback.WritebackCache`
and the device queue's pending/written bytes and busy/observed time in
:class:`~repro.storage.queueing.DeviceQueue`, one array element per server.
The capacity laws (:meth:`~PVFSDeployment.processing_unit`,
:meth:`~PVFSDeployment.backend_rate`, :meth:`~PVFSDeployment.ingest_rate`,
:meth:`~PVFSDeployment.drain_rates`) and :meth:`~PVFSDeployment.commit` are
elementwise over the lanes, so one call serves every server of a scalar run —
and, for the batched kernel, every server of every member of a bucket: the
bucket builds one deployment with ``members x servers`` lanes, and each
member's own deployment views its slice (:meth:`~PVFSDeployment.share_lanes`).
A lane whose step length is zero (a finished batch member) is left exactly
unchanged by :meth:`~PVFSDeployment.commit`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro import units
from repro.config.filesystem import FileSystemConfig, SyncMode
from repro.errors import ConfigurationError, SimulationError
from repro.storage.queueing import DeviceQueue
from repro.storage.writeback import WritebackCache

__all__ = ["FLOW_BUFFER_BYTES", "PVFSDeployment"]

#: Size of the flow buffers PVFS uses to move data between the network and
#: Trove; request processing happens at (multiples of) this granularity.
FLOW_BUFFER_BYTES = 256 * units.KiB


class PVFSDeployment:
    """All servers of one file-system deployment.

    Parameters
    ----------
    config:
        The file-system configuration.
    server_nic_bw:
        Downlink bandwidth of each server (bytes/s), taken from the network
        configuration of the scenario.
    n_lanes:
        Number of server lanes; defaults to ``config.n_servers``.  The
        batched kernel passes ``members x n_servers``.
    """

    #: This deployment's own per-lane state arrays (updated in place).
    LANE_ARRAYS = ("drained_bytes", "busy_time", "observed_time")

    def __init__(self, config: FileSystemConfig, server_nic_bw: float,
                 n_lanes: Optional[int] = None) -> None:
        if server_nic_bw <= 0:
            raise ConfigurationError("server_nic_bw must be positive")
        n = config.n_servers if n_lanes is None else int(n_lanes)
        self.config = config
        self.sync_mode = config.sync_mode
        self.server_nic_bw = float(server_nic_bw)
        server = config.server
        self.cache = WritebackCache(
            capacity_bytes=server.page_cache_bytes,
            memory_bw=server.memory_bw,
            device=config.device,
            flush_bw_fraction=server.flush_bw_fraction,
            n_lanes=n,
        )
        self.device_queue = DeviceQueue(device=config.device, n_lanes=n)
        for name in self.LANE_ARRAYS:
            setattr(self, name, np.zeros(n, dtype=np.float64))

    @property
    def n_servers(self) -> int:
        """Number of server lanes in the deployment."""
        return self.drained_bytes.shape[0]

    def share_lanes(self, flat: "PVFSDeployment", lanes: slice) -> None:
        """Re-point every per-lane array at ``lanes`` of ``flat``'s arrays.

        Both deployments must be freshly constructed (identical initial
        values), so this changes storage, not state.
        """
        for name in self.LANE_ARRAYS:
            setattr(self, name, getattr(flat, name)[lanes])
        for part in ("cache", "device_queue"):
            mine, theirs = getattr(self, part), getattr(flat, part)
            for name in mine.LANE_ARRAYS:
                setattr(mine, name, getattr(theirs, name)[lanes])

    # ------------------------------------------------------------------ #
    # Capacity laws (elementwise over lanes)
    # ------------------------------------------------------------------ #

    def processing_unit(self, avg_fragment_size):
        """Granularity (bytes) at which the servers process incoming data.

        Requests are handled in flow-buffer-sized pieces, but never larger
        than the fragments actually arriving (small strided fragments are
        processed one by one).
        """
        unit = max(self.config.stripe_size, FLOW_BUFFER_BYTES)
        unit = np.where(avg_fragment_size > 0, np.minimum(unit, avg_fragment_size), unit)
        return np.maximum(unit, 1.0)

    def backend_rate(self, n_streams, granularity):
        """Byte rate of the backend half of the write path.

        * sync ON  — the device's effective bandwidth for the current
          interleaving and granularity;
        * sync OFF — the write-back cache absorb rate (memory speed until the
          cache fills, then the flush rate);
        * null-aio — unbounded.
        """
        granularity = np.maximum(granularity, 1.0)
        if self.sync_mode is SyncMode.NULL_AIO:
            return float("inf")
        if self.sync_mode is SyncMode.SYNC_OFF:
            return self.cache.absorb_rate(n_streams, granularity)
        return self.config.device.effective_write_bw(n_streams, granularity)

    def ingest_rate(self) -> float:
        """Byte rate of the ingest half (request processing ceiling).

        The null-aio method bypasses the data-copy path (data is thrown away
        before it would be staged for Trove), so only the NIC limits it.
        """
        if self.sync_mode is SyncMode.NULL_AIO:
            return self.server_nic_bw
        return min(self.config.server.ingest_bw, self.server_nic_bw)

    def drain_rates(self, n_streams: np.ndarray, avg_fragment_sizes: np.ndarray) -> np.ndarray:
        """Per-lane sustainable drain bandwidth (bytes/s) for the workload mix.

        Combines the byte-rate ceiling (ingest and backend in series: the
        slower of the two) with the per-fragment CPU cost, charged once per
        processing unit:

            rate = 1 / (1 / byte_rate + op_cost / unit)
        """
        if len(n_streams) != self.n_servers or len(avg_fragment_sizes) != self.n_servers:
            raise ConfigurationError("per-server arrays have the wrong length")
        return self._drain_rate(self.backend_rate(n_streams, avg_fragment_sizes),
                                avg_fragment_sizes)

    def _drain_rate(self, backend_rate, avg_fragment_size) -> np.ndarray:
        """The :meth:`drain_rates` law given this step's backend rate."""
        byte_rate = np.minimum(self.ingest_rate(), backend_rate)
        op_cost = self.config.server.fragment_op_cost
        if op_cost <= 0:
            return byte_rate
        return 1.0 / (1.0 / byte_rate + op_cost / self.processing_unit(avg_fragment_size))

    # ------------------------------------------------------------------ #
    # Per-step state update
    # ------------------------------------------------------------------ #

    def commit(
        self,
        drained: np.ndarray,
        dt,
        n_streams: np.ndarray,
        avg_fragment_sizes: np.ndarray,
    ) -> None:
        """Account for one step of ``drained`` bytes on every lane.

        With sync ON the bytes go straight to the device queue; with sync OFF
        the background flusher runs and they enter the write-back cache;
        with null-aio they vanish.  ``dt`` is the step length, one value or
        one per lane; a lane with zero ``dt`` (and hence nothing drained)
        does not advance.
        """
        if (drained < 0).any():
            raise SimulationError("cannot commit a negative number of bytes")
        granularity = np.maximum(avg_fragment_sizes, 1.0)
        self.observed_time += dt
        self.drained_bytes += drained
        if self.sync_mode is SyncMode.NULL_AIO:
            return
        cache = self.cache
        if self.sync_mode is SyncMode.SYNC_OFF:
            flush_rate = cache.flush_rate(n_streams, granularity)
            cache.flush_step(dt, flush_rate)
            cache.absorb_step(drained, dt, flush_rate)
            # The absorb rate after this step's update: a cache that just
            # filled drains at the flush rate.
            backend = cache.absorb_rate_at(flush_rate)
        else:
            backend = self.config.device.effective_write_bw(n_streams, granularity)
            self.device_queue.commit_step(drained, dt, backend)
        capacity = self._drain_rate(backend, granularity) * dt
        # A lane that drained bytes had a positive step length and hence a
        # positive capacity.
        load = np.divide(drained, capacity, out=np.zeros(self.n_servers),
                         where=drained > 0)
        np.minimum(load, 1.0, out=load)
        self.busy_time += dt * load

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def utilizations(self) -> np.ndarray:
        """Per-server drain-path utilization."""
        fraction = np.divide(self.busy_time, self.observed_time,
                             out=np.zeros(self.n_servers), where=self.observed_time != 0)
        return np.minimum(fraction, 1.0)

    def device_utilizations(self) -> np.ndarray:
        """Per-server backend-device utilization (sync ON path)."""
        return self.device_queue.utilization()

    def total_drained(self) -> float:
        """Total bytes drained by all servers."""
        return float(self.drained_bytes.sum())

    def utilization_report(self) -> Dict[str, float]:
        """Utilization keyed by server name."""
        return {f"server{s}": float(u) for s, u in enumerate(self.utilizations())}

    def reset(self) -> None:
        """Reset every server's accounting state."""
        for name in self.LANE_ARRAYS:
            getattr(self, name)[:] = 0.0
        self.cache.reset()
        self.device_queue.reset()

    def describe(self) -> Tuple[str, ...]:
        """Per-server one-line descriptions."""
        server = self.config.server
        return tuple(
            f"server {s}: {self.config.device.name}, {self.sync_mode.label}, "
            f"ingest {units.bandwidth_to_human(server.ingest_bw)}, "
            f"buffer {units.bytes_to_human(server.buffer_bytes)}"
            for s in range(self.n_servers)
        )
