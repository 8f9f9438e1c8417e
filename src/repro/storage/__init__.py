"""Backend storage device models.

The paper compares three backend devices (HDD, SSD, RAM disk) plus the
``null-aio`` PVFS method that discards data.  The behaviours that matter for
interference are:

* the sequential bandwidth of the device,
* the cost of switching between interleaved streams (head seeks on HDD,
  much smaller penalties on SSD, none for RAM),
* the sensitivity to the access granularity (small strided writes on an HDD
  pay a positioning cost per access).

:class:`repro.storage.device.DeviceSpec` captures these parameters and
implements the effective-bandwidth law (for one value or elementwise over
arrays); :mod:`repro.storage.writeback` implements the sync-OFF page-cache
path and :mod:`repro.storage.queueing` the sync-ON device queue, each as
flat per-server lane arrays that one call updates for every server.
"""

from repro.storage.device import DeviceKind, DeviceSpec
from repro.storage.hdd import hdd_7200rpm
from repro.storage.ssd import sata_ssd
from repro.storage.ram import ram_disk
from repro.storage.nullaio import null_aio
from repro.storage.writeback import WritebackCache
from repro.storage.queueing import DeviceQueue

__all__ = [
    "DeviceKind",
    "DeviceSpec",
    "hdd_7200rpm",
    "sata_ssd",
    "ram_disk",
    "null_aio",
    "WritebackCache",
    "DeviceQueue",
    "device_by_name",
    "DEVICE_PRESETS",
]


def device_by_name(name: str) -> DeviceSpec:
    """Look up a device preset by name (``"hdd"``, ``"ssd"``, ``"ram"``, ``"null"``)."""
    key = name.strip().lower()
    if key not in DEVICE_PRESETS:
        raise KeyError(
            f"unknown device preset {name!r}; available: {sorted(DEVICE_PRESETS)}"
        )
    return DEVICE_PRESETS[key]()


DEVICE_PRESETS = {
    "hdd": hdd_7200rpm,
    "disk": hdd_7200rpm,
    "ssd": sata_ssd,
    "ram": ram_disk,
    "memory": ram_disk,
    "null": null_aio,
    "null-aio": null_aio,
}
