"""Device-level queue accounting.

The integrated model tracks, per server, how much data is waiting for the
backend and how busy the backend has been.  :class:`DeviceQueue` wraps a
:class:`~repro.storage.device.DeviceSpec` with that accounting so the
root-cause analysis in :mod:`repro.core.rootcause` can report device
utilization and identify the device as (or rule it out as) the bottleneck.

One queue holds the accounting of ``n_lanes`` servers as flat arrays (one
lane per server) and updates every lane with one elementwise step; see
:class:`~repro.pfs.filesystem.PVFSDeployment` for the lane layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.storage.device import DeviceSpec

__all__ = ["DeviceQueue"]


@dataclass
class DeviceQueue:
    """Accounting wrapper around the backend devices of ``n_lanes`` servers.

    Attributes
    ----------
    device:
        The device specification (bandwidth law) every lane shares.
    n_lanes:
        Number of servers (lanes) accounted.
    pending_bytes:
        Per lane, bytes accepted by the server but not yet written to the
        device.
    """

    #: The per-lane state arrays (updated in place, so they may be views).
    LANE_ARRAYS = ("pending_bytes", "written_bytes", "busy_time", "observed_time")

    device: DeviceSpec
    n_lanes: int = 1
    pending_bytes: np.ndarray = field(init=False)
    written_bytes: np.ndarray = field(init=False)
    busy_time: np.ndarray = field(init=False)
    observed_time: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        for name in self.LANE_ARRAYS:
            setattr(self, name, np.zeros(self.n_lanes, dtype=np.float64))

    def enqueue(self, nbytes) -> None:
        """Add bytes (per lane, or one value for every lane) to the queue."""
        if np.min(nbytes) < 0:
            raise SimulationError("cannot enqueue a negative number of bytes")
        self.pending_bytes += nbytes

    def drain(self, dt: float, n_streams=1, granularity=4 * 1024 * 1024) -> np.ndarray:
        """Write pending data for ``dt`` seconds; return bytes written per lane.

        Also accumulates busy/observed time so that :meth:`utilization`
        reflects the fraction of time the device had work to do.
        """
        if np.min(dt) <= 0:
            raise SimulationError("dt must be positive")
        rate = self.device.effective_write_bw(n_streams, granularity)
        return self.commit_step(0.0, dt, rate)

    def commit_step(self, nbytes, dt, rate) -> np.ndarray:
        """Fused enqueue + drain for the per-step hot path; returns the bytes
        written per lane.

        Same arithmetic as :meth:`enqueue` followed by :meth:`drain` (whose
        validation the caller has already performed), given the device's
        effective bandwidth ``rate`` for this step's layout.  A lane with
        zero ``nbytes`` and zero ``dt`` is left exactly unchanged.
        """
        self.pending_bytes += nbytes
        self.observed_time += dt
        if self.device.is_unlimited:
            # The null device writes everything at once and is never busy.
            written = self.pending_bytes.copy()
            self.written_bytes += written
            self.pending_bytes[:] = 0.0
            return written
        capacity = rate * dt
        written = np.minimum(self.pending_bytes, capacity)
        self.pending_bytes -= written
        self.written_bytes += written
        fraction = np.divide(written, capacity, out=np.zeros_like(written),
                             where=capacity > 0)
        self.busy_time += dt * fraction
        return written

    def utilization(self) -> np.ndarray:
        """Per lane, the fraction of observed time the device spent writing
        (0 where unobserved)."""
        fraction = np.divide(self.busy_time, self.observed_time,
                             out=np.zeros(self.n_lanes), where=self.observed_time != 0)
        return np.minimum(fraction, 1.0)

    def reset(self) -> None:
        """Drop all accounting state."""
        for name in self.LANE_ARRAYS:
            getattr(self, name)[:] = 0.0
