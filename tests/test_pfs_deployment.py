"""Tests for the PVFS deployment: per-server capacity laws and accounting.

The server cases run on one-server deployments (one lane); the deployment
cases check the elementwise laws across lanes.
"""

import numpy as np
import pytest

from repro import units
from repro.config.filesystem import FileSystemConfig, SyncMode
from repro.config.server import ServerConfig
from repro.errors import ConfigurationError
from repro.pfs.filesystem import FLOW_BUFFER_BYTES, PVFSDeployment
from repro.storage import device_by_name

KIB = units.KiB
MIB = units.MiB


def make_server(sync_mode=SyncMode.SYNC_ON, device="hdd", **server_kwargs):
    fs = FileSystemConfig(
        n_servers=1,
        stripe_size=64 * KIB,
        sync_mode=sync_mode,
        device=device_by_name(device),
        server=ServerConfig(**server_kwargs),
    )
    return PVFSDeployment(fs, server_nic_bw=1.25e9)


def drain_rate(server, n_streams, avg_fragment_size):
    return float(server.drain_rates(np.array([n_streams]), np.array([avg_fragment_size]))[0])


class TestServer:
    def test_sync_on_drain_follows_device(self):
        hdd = make_server(SyncMode.SYNC_ON, "hdd")
        ram = make_server(SyncMode.SYNC_ON, "ram")
        assert drain_rate(hdd, 32, 64 * KIB) < drain_rate(ram, 32, 64 * KIB)

    def test_sync_off_hides_the_device(self):
        hdd_off = make_server(SyncMode.SYNC_OFF, "hdd")
        ram_off = make_server(SyncMode.SYNC_OFF, "ram")
        assert drain_rate(hdd_off, 32, 64 * KIB) == pytest.approx(
            drain_rate(ram_off, 32, 64 * KIB), rel=0.01
        )

    def test_null_aio_bypasses_ingest_limit(self):
        null = make_server(SyncMode.NULL_AIO)
        regular = make_server(SyncMode.SYNC_OFF)
        assert null.ingest_rate() > regular.ingest_rate()

    def test_small_fragments_are_op_bound(self):
        server = make_server(SyncMode.SYNC_OFF)
        small = drain_rate(server, 32, 16 * KIB)
        large = drain_rate(server, 32, 4 * MIB)
        assert small < large

    def test_processing_unit_bounds(self):
        server = make_server()
        assert server.processing_unit(16 * KIB) == 16 * KIB
        assert server.processing_unit(10 * MIB) == FLOW_BUFFER_BYTES

    def test_commit_accounting(self):
        server = make_server(SyncMode.SYNC_ON, "hdd")
        rate = drain_rate(server, 8, 1 * MIB)
        server.commit(np.array([rate * 0.1]), 0.1, np.array([8]), np.array([1 * MIB]))
        assert server.drained_bytes[0] == pytest.approx(rate * 0.1)
        assert 0.5 < server.utilizations()[0] <= 1.0
        server.reset()
        assert server.utilizations()[0] == 0.0

    def test_commit_sync_off_uses_cache(self):
        server = make_server(SyncMode.SYNC_OFF, "hdd")
        server.commit(np.array([10 * MIB]), 0.1, np.array([4]), np.array([1 * MIB]))
        assert server.cache.dirty_bytes[0] > 0

    def test_describe(self):
        assert "Sync ON" in make_server().describe()[0]


class TestDeployment:
    def make_deployment(self, n_servers=3):
        fs = FileSystemConfig(
            n_servers=n_servers, device=device_by_name("hdd"), server=ServerConfig()
        )
        return PVFSDeployment(fs, server_nic_bw=1.25e9)

    def test_servers_created(self):
        dep = self.make_deployment()
        assert dep.n_servers == 3
        assert len(dep.describe()) == 3

    def test_drain_rates_vectorized(self):
        dep = self.make_deployment()
        rates = dep.drain_rates(np.array([1, 8, 64]), np.full(3, 1 * MIB))
        assert rates.shape == (3,)
        assert rates[0] >= rates[1] >= rates[2]

    def test_commit_and_reports(self):
        dep = self.make_deployment()
        dep.commit(np.array([1e6, 2e6, 0.0]), 0.1, np.array([4, 4, 4]), np.full(3, 1 * MIB))
        assert dep.total_drained() == pytest.approx(3e6)
        assert dep.utilizations().shape == (3,)
        assert len(dep.utilization_report()) == 3
        dep.reset()
        assert dep.total_drained() == 0.0

    def test_wrong_shapes_rejected(self):
        dep = self.make_deployment()
        with pytest.raises(ConfigurationError):
            dep.drain_rates(np.array([1]), np.array([1.0]))

    def test_lanes_match_one_server_deployments(self):
        """The elementwise laws give every lane exactly what a one-server
        deployment computes for it alone, in every sync mode."""
        n_streams = np.array([1, 8, 64, 3])
        avg = np.array([0.5, 16 * KIB, 1 * MIB, 4 * MIB])
        drained = np.array([0.0, 3e5, 2e6, 7.5e5])
        for mode in SyncMode:
            fs = FileSystemConfig(n_servers=4, sync_mode=mode, device=device_by_name("hdd"),
                                  server=ServerConfig(page_cache_bytes=1 * MIB))
            lanes = PVFSDeployment(fs, server_nic_bw=1.25e9)
            alone = [make_server(mode, "hdd", page_cache_bytes=1 * MIB) for _ in range(4)]
            for _ in range(5):
                rates = lanes.drain_rates(n_streams, avg)
                lanes.commit(drained, 0.01, n_streams, avg)
                for i, server in enumerate(alone):
                    assert rates[i] == drain_rate(server, n_streams[i], avg[i])
                    server.commit(drained[i:i + 1], 0.01, n_streams[i:i + 1], avg[i:i + 1])
            for i, server in enumerate(alone):
                pairs = ((lanes, server), (lanes.cache, server.cache),
                         (lanes.device_queue, server.device_queue))
                for flat, one in pairs:
                    for name in flat.LANE_ARRAYS:
                        assert getattr(flat, name)[i] == getattr(one, name)[0], (mode, name)

    def test_zero_dt_lane_is_frozen(self):
        dep = self.make_deployment()
        dep.commit(np.array([1e6, 2e6, 3e6]), 0.1, np.array([4, 4, 4]), np.full(3, 1 * MIB))
        before = {name: getattr(dep, name).copy() for name in dep.LANE_ARRAYS}
        queue = dep.device_queue.pending_bytes.copy()
        dep.commit(np.array([1e6, 0.0, 1e6]), np.array([0.1, 0.0, 0.1]),
                   np.array([4, 4, 4]), np.full(3, 1 * MIB))
        for name, values in before.items():
            assert getattr(dep, name)[1] == values[1]
            assert getattr(dep, name)[0] > values[0]
        assert dep.device_queue.pending_bytes[1] == queue[1]

    def test_share_lanes_views_the_flat_arrays(self):
        fs = FileSystemConfig(n_servers=2, device=device_by_name("hdd"), server=ServerConfig())
        flat = PVFSDeployment(fs, server_nic_bw=1.25e9, n_lanes=6)
        member = PVFSDeployment(fs, server_nic_bw=1.25e9)
        member.share_lanes(flat, slice(2, 4))
        flat.commit(np.arange(6) * 1e5, 0.1, np.full(6, 4), np.full(6, 1 * MIB))
        assert member.drained_bytes.tolist() == [2e5, 3e5]
        assert np.shares_memory(member.device_queue.pending_bytes,
                                flat.device_queue.pending_bytes)
        assert np.shares_memory(member.cache.dirty_bytes, flat.cache.dirty_bytes)
