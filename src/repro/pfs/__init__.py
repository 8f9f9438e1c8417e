"""Parallel-file-system substrate (an OrangeFS/PVFS2-like system).

* :mod:`repro.pfs.striping`   — round-robin striping arithmetic (file offsets
  to per-server byte counts, one extent or a batch of them at once),
* :mod:`repro.pfs.filesystem` — a deployment: every server's capacity laws
  (Trove-like ingest with per-fragment costs, sync ON/OFF/null backends) and
  accounting, held as flat per-server lanes and updated elementwise.
"""

from repro.pfs.striping import (
    extent_to_server_bytes,
    extents_to_server_matrix,
    server_of_stripe,
    stripe_span,
)
from repro.pfs.filesystem import PVFSDeployment

__all__ = [
    "server_of_stripe",
    "stripe_span",
    "extent_to_server_bytes",
    "extents_to_server_matrix",
    "PVFSDeployment",
]
