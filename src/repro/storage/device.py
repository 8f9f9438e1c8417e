"""Generic storage-device model.

A device is described by a small set of parameters (sequential write
bandwidth, positioning cost, how much contiguous data the host writes per
stream before switching) and exposes one law:

    :meth:`DeviceSpec.effective_write_bw` — the aggregate write bandwidth the
    device delivers given the number of interleaved streams and the access
    granularity.

This single law is what produces, in the full model:

* Table I — the HDD loses bandwidth when two local applications interleave
  writes to two files, so the slowdown exceeds 2x, while the RAM backend
  shares fairly;
* Figures 2/3 — strided workloads with small stripe units push an HDD into
  its positioning-cost-dominated regime and interference is amplified;
* Figure 8 — larger stripe sizes increase the effective granularity at the
  device and recover bandwidth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from repro import units
from repro.errors import ConfigurationError

__all__ = ["DeviceKind", "DeviceSpec"]


class DeviceKind(enum.Enum):
    """Broad device categories used for reporting."""

    HDD = "hdd"
    SSD = "ssd"
    RAM = "ram"
    NULL = "null"


@dataclass(frozen=True)
class DeviceSpec:
    """Parameters of a backend storage device.

    Attributes
    ----------
    kind:
        Device category.
    name:
        Human-readable label used in reports ("HDD", "SSD", "RAM").
    write_bw:
        Sequential write bandwidth (bytes/s).  ``float("inf")`` models the
        PVFS ``null-aio`` method that discards data.
    positioning_cost:
        Time (seconds) lost whenever the device has to reposition between
        two non-contiguous accesses: head seek plus rotational latency for an
        HDD, translation/erase overheads for an SSD, zero for RAM.
    interleave_granule_cap:
        Maximum amount of contiguous data (bytes) the server writes from one
        stream before switching to another when several streams are active;
        bounds how much locality survives interleaving even for very large
        requests (it corresponds to the size of the server's flow buffers).
    sync_flush_cost:
        Additional fixed time (seconds) per synchronous flush when the file
        system runs with "Sync ON" (fsync-like barrier per write unit).
    """

    kind: DeviceKind
    name: str
    write_bw: float
    positioning_cost: float = 0.0
    interleave_granule_cap: float = 4 * units.MiB
    sync_flush_cost: float = 0.0

    def __post_init__(self) -> None:
        if self.write_bw <= 0:
            raise ConfigurationError("write_bw must be positive")
        if self.positioning_cost < 0:
            raise ConfigurationError("positioning_cost must be non-negative")
        if self.interleave_granule_cap <= 0:
            raise ConfigurationError("interleave_granule_cap must be positive")
        if self.sync_flush_cost < 0:
            raise ConfigurationError("sync_flush_cost must be non-negative")

    # ------------------------------------------------------------------ #
    # Bandwidth law
    # ------------------------------------------------------------------ #

    @property
    def is_unlimited(self) -> bool:
        """True for the null-aio pseudo device."""
        return self.write_bw == float("inf")

    def effective_write_bw(self, n_streams, granularity):
        """Aggregate write bandwidth with ``n_streams`` interleaved streams.

        Parameters
        ----------
        n_streams:
            Number of distinct write streams (files or well-separated file
            regions) the device serves concurrently.  ``0`` or ``1`` means a
            single sequential stream.
        granularity:
            Amount of contiguous data (bytes) written per stream between
            switches — in the full model this is the fragment size arriving
            at the server, capped by :attr:`interleave_granule_cap`.

        Both arguments may be scalars (a ``float`` comes back) or arrays of
        per-server values (evaluated elementwise, bit for bit the scalar
        law on every element).

        Returns
        -------
        float or numpy.ndarray
            Aggregate bytes/s the device sustains (to be shared among the
            streams by the caller).

        Notes
        -----
        The law charges one :attr:`positioning_cost` per ``granularity``
        bytes whenever the access stream is not purely sequential::

            eff = write_bw / (1 + switch_fraction * positioning_cost * write_bw / granule)

        where ``switch_fraction`` is 0 for a single stream and approaches 1
        as the number of interleaved streams grows.  A zero switch fraction
        or positioning cost makes the penalty an exact zero, so the
        sequential case is ``write_bw`` itself.
        """
        if self.is_unlimited:
            return float("inf")
        if np.less_equal(granularity, 0).any():
            raise ConfigurationError("granularity must be positive")
        switch_fraction = 1.0 - 1.0 / np.maximum(n_streams, 1)
        granule = np.minimum(granularity, self.interleave_granule_cap)
        penalty = switch_fraction * self.positioning_cost * self.write_bw / granule
        result = self.write_bw / (1.0 + penalty)
        return result if np.ndim(result) else float(result)

    def effective_random_bw(self, granularity: float) -> float:
        """Bandwidth for fully random accesses of ``granularity`` bytes each.

        Equivalent to :meth:`effective_write_bw` with an infinite number of
        streams (every access pays the positioning cost).
        """
        if self.is_unlimited:
            return float("inf")
        if granularity <= 0:
            raise ConfigurationError("granularity must be positive")
        granule = min(float(granularity), self.interleave_granule_cap)
        if self.positioning_cost == 0.0:
            return self.write_bw
        return granule / (granule / self.write_bw + self.positioning_cost)

    def write_time(self, nbytes: float, n_streams: int = 1, granularity: float | None = None) -> float:
        """Time to write ``nbytes`` at the effective bandwidth."""
        if nbytes < 0:
            raise ConfigurationError("nbytes must be non-negative")
        if self.is_unlimited:
            return 0.0
        granule = self.interleave_granule_cap if granularity is None else granularity
        return nbytes / self.effective_write_bw(n_streams, granule)

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #

    def with_write_bw(self, write_bw: float) -> "DeviceSpec":
        """Return a copy with a different sequential bandwidth."""
        return replace(self, write_bw=float(write_bw))

    def describe(self) -> str:
        """One-line human-readable description."""
        if self.is_unlimited:
            return f"{self.name}: discards data (null-aio)"
        return (
            f"{self.name}: {units.bandwidth_to_human(self.write_bw)} sequential, "
            f"{units.seconds_to_human(self.positioning_cost)} positioning cost"
        )
