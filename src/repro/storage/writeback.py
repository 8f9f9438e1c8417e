"""Write-back page cache (the "Sync OFF" path).

With synchronization disabled, OrangeFS lets incoming data sit in
kernel-provided buffers and flushes it to the backend device later.  The
paper relies on this to rule the device out of the I/O path: as long as the
working set fits in memory the device never throttles the clients.

:class:`WritebackCache` models that behaviour:

* while the cache has room, it absorbs data at memory-copy speed;
* a background flusher continuously writes dirty data to the device at a
  configurable fraction of the device bandwidth;
* once the cache is full, the absorb rate degrades to the flush rate
  (write-through behaviour under memory pressure).

One cache object holds the state of ``n_lanes`` servers as flat arrays (one
lane per server) and updates every lane with one elementwise step; see
:class:`~repro.pfs.filesystem.PVFSDeployment` for the lane layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.storage.device import DeviceSpec

__all__ = ["WritebackCache"]


@dataclass
class WritebackCache:
    """Stateful write-back caches in front of the devices of ``n_lanes`` servers.

    Attributes
    ----------
    capacity_bytes:
        Maximum amount of dirty data each cache may hold.
    memory_bw:
        Rate at which data can be copied into a cache (bytes/s).
    device:
        Backend device receiving flushed data.
    flush_bw_fraction:
        Fraction of the device's effective bandwidth the background flusher
        uses while clients are still writing.
    n_lanes:
        Number of servers (lanes); the state arrays hold one value per lane.
    """

    #: The per-lane state arrays (updated in place, so they may be views).
    LANE_ARRAYS = ("dirty_bytes", "total_absorbed", "total_flushed")

    capacity_bytes: float
    memory_bw: float
    device: DeviceSpec
    flush_bw_fraction: float = 0.7
    n_lanes: int = 1
    dirty_bytes: np.ndarray = field(init=False)
    total_absorbed: np.ndarray = field(init=False)
    total_flushed: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.capacity_bytes < 0:
            raise ConfigurationError("capacity_bytes must be non-negative")
        if self.memory_bw <= 0:
            raise ConfigurationError("memory_bw must be positive")
        if not 0.0 < self.flush_bw_fraction <= 1.0:
            raise ConfigurationError("flush_bw_fraction must be in (0, 1]")
        for name in self.LANE_ARRAYS:
            setattr(self, name, np.zeros(self.n_lanes, dtype=np.float64))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def free_bytes(self) -> np.ndarray:
        """Remaining capacity per lane."""
        return np.maximum(self.capacity_bytes - self.dirty_bytes, 0.0)

    @property
    def is_full(self) -> np.ndarray:
        """Per lane, True when the cache cannot absorb at memory speed anymore."""
        return self.dirty_bytes >= self.capacity_bytes

    def absorb_rate(self, n_streams=1, granularity=4 * 1024 * 1024) -> np.ndarray:
        """Rate (bytes/s) at which each cache can currently absorb new data.

        While there is room, data is absorbed at memory speed.  When the
        cache is full the absorb rate collapses to the flush rate: new data
        can only come in as fast as old data goes out.
        """
        return self.absorb_rate_at(self.flush_rate(n_streams, granularity))

    def absorb_rate_at(self, flush_rate) -> np.ndarray:
        """:meth:`absorb_rate` given the current :meth:`flush_rate`."""
        return np.where(self.is_full, flush_rate, self.memory_bw)

    def flush_rate(self, n_streams=1, granularity=4 * 1024 * 1024):
        """Rate (bytes/s) of the background flusher for the current layout."""
        if self.device.is_unlimited:
            return self.memory_bw
        return self.device.effective_write_bw(n_streams, granularity) * self.flush_bw_fraction

    # ------------------------------------------------------------------ #
    # State updates (called once per simulation step)
    # ------------------------------------------------------------------ #

    def absorb(self, nbytes, dt, n_streams=1, granularity=4 * 1024 * 1024) -> np.ndarray:
        """Absorb up to ``nbytes`` per lane during a step of length ``dt``.

        Returns the amount actually absorbed per lane (limited by the absorb
        rate and by the room freed by flushing during the same step).
        """
        if np.min(nbytes) < 0:
            raise SimulationError("cannot absorb a negative number of bytes")
        if np.min(dt) <= 0:
            raise SimulationError("dt must be positive")
        return self.absorb_step(nbytes, dt, self.flush_rate(n_streams, granularity))

    def absorb_step(self, nbytes, dt, flush_rate) -> np.ndarray:
        """:meth:`absorb` without validation, for the per-step hot path,
        given this step's :meth:`flush_rate`.

        A lane offered zero bytes is left exactly unchanged.
        """
        rate_limit = self.absorb_rate_at(flush_rate) * dt
        # Room available after this step's flushing is accounted by the
        # caller invoking flush() first; here we only respect current room
        # plus write-through at the flush rate when full.
        room = self.free_bytes
        accepted = np.minimum(nbytes, rate_limit)
        np.minimum(accepted, room + flush_rate * dt, out=accepted, where=room > 0)
        np.minimum(self.dirty_bytes + accepted, self.capacity_bytes, out=self.dirty_bytes)
        self.total_absorbed += accepted
        return accepted

    def flush(self, dt, n_streams=1, granularity=4 * 1024 * 1024) -> np.ndarray:
        """Run the background flusher for ``dt`` seconds; return bytes flushed
        per lane."""
        if np.min(dt) <= 0:
            raise SimulationError("dt must be positive")
        return self.flush_step(dt, self.flush_rate(n_streams, granularity))

    def flush_step(self, dt, flush_rate) -> np.ndarray:
        """:meth:`flush` without validation, for the per-step hot path,
        given this step's :meth:`flush_rate`.

        A lane with zero ``dt`` is left exactly unchanged.
        """
        flushed = np.minimum(self.dirty_bytes, flush_rate * dt)
        self.dirty_bytes -= flushed
        self.total_flushed += flushed
        return flushed

    def drain_remaining_time(self, n_streams=1, granularity=4 * 1024 * 1024) -> np.ndarray:
        """Per lane, the time needed to flush all dirty data at the full
        device rate."""
        if self.device.is_unlimited:
            return np.zeros(self.n_lanes)
        return self.dirty_bytes / self.device.effective_write_bw(n_streams, granularity)

    def reset(self) -> None:
        """Drop all state (used between experiment repetitions)."""
        for name in self.LANE_ARRAYS:
            getattr(self, name)[:] = 0.0
