"""Conservation checks on the storage half of the model.

Byte identity proves a refactor changed nothing; these checks test the
modelled physics instead.  After every golden scenario — run alone on the
scalar path, and as a member of one batched bucket — the server lanes must
balance:

- every byte the receive buffers admitted was either drained or is still
  buffered, and the deployment committed exactly what the buffers drained;
- sync ON: every drained byte is written to the device or still pending;
- sync OFF: the page cache holds between zero and its capacity, and never
  more than it absorbed minus what it flushed;
- null-aio: neither the device nor the cache ever sees a byte;
- every utilization and pressure fraction lies in [0, 1].

Known approximation (see DESIGN.md, "Storage conservation"): a Sync OFF
cache that is nearly full absorbs fewer bytes than the step drained, and
the ``min(dirty + accepted, capacity)`` clamp can drop part of what it did
absorb.  Those bytes leave the buffer but never reach the cache, so only
the bounds ``absorbed <= drained`` and ``absorbed - flushed >= dirty`` hold,
with equality while the cache has room.  The extra ``sync-off/small-cache``
case makes the cache fill so the bound is exercised.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import units
from repro.config.filesystem import SyncMode
from repro.config.presets import make_scenario
from repro.model.batch import BatchSimulator, plan_buckets
from repro.model.simulator import IOPathSimulator

from tests._golden_utils import golden_cases


def _small_cache_scenario():
    scenario = make_scenario("tiny", device="hdd", sync_mode="sync-off",
                             bytes_per_process=4 * units.MiB)
    fs = scenario.filesystem
    return scenario.with_filesystem(
        replace(fs, server=replace(fs.server, page_cache_bytes=4 * units.MiB))
    )


CASES = dict(golden_cases())
CASES["sync-off/small-cache"] = _small_cache_scenario

RTOL = 1e-9
ATOL = 1e-3  # bytes


def _assert_fraction(values):
    values = np.asarray(values, dtype=np.float64)
    assert np.all((values >= 0.0) & (values <= 1.0)), values


def check_storage_conservation(state) -> None:
    """Assert every conservation law on one finished run's state."""
    deployment = state.deployment
    buffers = state.buffers
    drained = deployment.drained_bytes
    assert np.array_equal(drained, buffers.total_drained)
    np.testing.assert_allclose(
        buffers.total_admitted - buffers.total_drained, buffers.fill,
        rtol=RTOL, atol=ATOL,
    )
    assert np.all(buffers.fill >= 0.0)
    queue = deployment.device_queue
    cache = deployment.cache
    mode = deployment.sync_mode
    if mode is SyncMode.SYNC_ON:
        np.testing.assert_allclose(queue.written_bytes + queue.pending_bytes,
                                   drained, rtol=RTOL, atol=ATOL)
        assert np.all(queue.pending_bytes >= 0.0)
    if mode is SyncMode.SYNC_OFF:
        assert np.all(cache.dirty_bytes >= 0.0)
        assert np.all(cache.dirty_bytes <= cache.capacity_bytes)
        assert np.all(cache.total_absorbed <= drained * (1 + RTOL) + ATOL)
        held = cache.total_absorbed - cache.total_flushed
        assert np.all(held >= cache.dirty_bytes * (1 - RTOL) - ATOL)
        lossless = cache.total_absorbed >= drained * (1 - RTOL) - ATOL
        np.testing.assert_allclose(held[lossless], cache.dirty_bytes[lossless],
                                   rtol=RTOL, atol=ATOL)
    if mode is not SyncMode.SYNC_ON:
        assert not queue.written_bytes.any() and not queue.pending_bytes.any()
    if mode is SyncMode.NULL_AIO:
        assert not cache.total_absorbed.any()
    _assert_fraction(deployment.utilizations())
    _assert_fraction(deployment.device_utilizations())
    _assert_fraction(buffers.pressure_fraction())
    _assert_fraction([state.topology.max_client_utilization(),
                      state.topology.max_server_utilization()])


@pytest.mark.parametrize("name", sorted(CASES))
def test_scalar_run_conserves_storage_bytes(name):
    sim = IOPathSimulator(CASES[name]())
    sim.run()
    check_storage_conservation(sim.state)


def test_small_cache_case_fills_and_loses_bytes():
    """The extra case really drives the cache into the lossy regime."""
    sim = IOPathSimulator(_small_cache_scenario())
    sim.run()
    cache = sim.state.deployment.cache
    assert cache.total_flushed.max() > cache.capacity_bytes
    assert np.any(cache.total_absorbed < sim.state.deployment.drained_bytes)


def test_batched_bucket_conserves_storage_bytes():
    """The widest bucket of the golden scenarios balances member by member."""
    scenarios = [factory() for factory in CASES.values()]
    buckets, _ = plan_buckets(scenarios)
    bucket = max(buckets, key=lambda b: len(b.indices))
    assert len(bucket.indices) >= 2
    batch = BatchSimulator([scenarios[i] for i in bucket.indices])
    batch.run()
    for member in batch.members:
        check_storage_conservation(member.sim.state)
