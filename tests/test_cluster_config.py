"""Tests for configuration validation and cluster assembly."""

import pathlib
import re

import pytest

from repro.cluster.config import SEAMS, CacheConfig, ClusterConfig, CostModel
from tests.conftest import make_cluster, run_app

ROOT = pathlib.Path(__file__).resolve().parents[1]


# -- CostModel -----------------------------------------------------------


def test_cost_model_defaults_respect_paper_bound():
    costs = CostModel()
    assert costs.cache_block_service_s < 400e-6


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel(fabric="token-ring")
    with pytest.raises(ValueError):
        CostModel(bandwidth_bps=0)
    with pytest.raises(ValueError):
        CostModel(disk_bytes_per_s=-1)


# -- CacheConfig ---------------------------------------------------------


def test_cache_config_paper_defaults():
    cache = CacheConfig()
    assert cache.size_bytes == 1_200 * 1024  # 1.2 MB
    assert cache.block_size == 4096
    assert cache.n_blocks == 300


def test_cache_config_watermarks():
    cache = CacheConfig(low_watermark=0.1, high_watermark=0.25)
    assert cache.low_blocks == 30
    assert cache.high_blocks == 75
    with pytest.raises(ValueError):
        CacheConfig(low_watermark=0.5, high_watermark=0.25)
    with pytest.raises(ValueError):
        CacheConfig(low_watermark=-0.1)


def test_cache_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(block_size=0)
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=100, block_size=4096)
    with pytest.raises(ValueError):
        CacheConfig(replacement="fifo")


def test_cache_config_segments():
    cache = CacheConfig()
    assert cache.effective_segment_blocks == 300 // 8
    assert CacheConfig(segment_blocks=10).effective_segment_blocks == 10
    with pytest.raises(ValueError):
        _ = CacheConfig(segment_blocks=0).effective_segment_blocks
    # tiny caches still get a sane floor
    tiny = CacheConfig(size_bytes=16 * 4096)
    assert tiny.effective_segment_blocks == 8


# -- ClusterConfig -------------------------------------------------------


def test_cluster_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(compute_nodes=0)
    with pytest.raises(ValueError):
        ClusterConfig(iod_nodes=0)
    with pytest.raises(ValueError):
        ClusterConfig(stripe_size=0)
    with pytest.raises(ValueError):
        ClusterConfig(stripe_size=5000)  # not multiple of block size


# -- model/engine seams ----------------------------------------------------

#: Per seam: a raw environment value and what it resolves to, a valid
#: explicit value that differs from it, bad raw environment values and
#: bad explicit values.  Any non-empty path is a valid ``REPRO_TRACE``.
SEAM_CASES = {
    "net_model": ("fluid", "fluid", "frames", ["smoke-signals"], ["ssd"]),
    "disk_model": ("queued", "queued", "mech", ["punch-cards"], ["ssd"]),
    "engine_macro": ("1", True, False, ["false", "yes", "2"], ["on", 1]),
    "engine_shards": ("3", 3, 2, ["zero", "0", "-1"], [0, -2, True]),
    "shard_backend": ("inline", "inline", "process", ["threads"], ["threads"]),
    "mgr_shards": ("4", 4, 2, ["0", "many"], [0]),
    "trace_source": ("a.jsonl", "a.jsonl", "b.jsonl", [], ["", 5]),
}


@pytest.mark.parametrize("seam", SEAMS, ids=lambda seam: seam.name)
def test_seam_resolution(seam, monkeypatch):
    raw, from_env, explicit, bad_env, bad_explicit = SEAM_CASES[seam.name]

    def resolved(**fields):
        return getattr(ClusterConfig(**fields).resolved(), seam.name)

    # Unset or empty: the default.
    monkeypatch.delenv(seam.env, raising=False)
    assert resolved() == seam.default
    assert resolved(**{seam.name: from_env}) == from_env
    monkeypatch.setenv(seam.env, "")
    assert resolved() == seam.default
    # The environment beats the default; an explicit field beats both.
    monkeypatch.setenv(seam.env, raw)
    assert resolved() == from_env
    assert resolved(**{seam.name: explicit}) == explicit
    for value in bad_env:
        monkeypatch.setenv(seam.env, value)
        with pytest.raises(ValueError, match=seam.env):
            ClusterConfig().resolved()
        # An explicit field never reads the environment.
        assert resolved(**{seam.name: explicit}) == explicit
    for value in bad_explicit:
        with pytest.raises(ValueError, match=seam.name):
            ClusterConfig(**{seam.name: value})
    # The seam names its oracle and the test file holding it there.
    path = re.search(r"tests/\w+\.py", seam.oracle)
    assert path and (ROOT / path.group()).is_file(), seam.oracle


def test_boolean_seam_env_zero_is_off(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_MACRO", "0")
    assert ClusterConfig().resolved().engine_macro is False


#: Per flagged seam: a valid CLI value with the environment text it
#: exports, and an invalid CLI argument list.
FLAG_CASES = {
    "net_model": (["--net-model", "fluid"], "fluid", ["--net-model", "x"]),
    "disk_model": (["--disk-model", "queued"], "queued", ["--disk-model", "x"]),
    "engine_macro": (["--engine-macro"], "1", ["--engine-macro=yes"]),
    "engine_shards": (["--engine-shards", "4"], "4", ["--engine-shards", "0"]),
    "mgr_shards": (["--mgr-shards", "2"], "2", ["--mgr-shards", "0"]),
    "trace_source": (["--trace", "run.jsonl"], "run.jsonl", ["--trace", ""]),
}


@pytest.mark.parametrize(
    "seam", [seam for seam in SEAMS if seam.flag], ids=lambda seam: seam.name
)
def test_seam_cli_flag(seam, monkeypatch):
    import os

    import repro.experiments.report as report

    good, exported, bad = FLAG_CASES[seam.name]
    monkeypatch.setattr(report, "run_all", lambda **kwargs: [])
    monkeypatch.setenv(seam.env, "sentinel")
    with pytest.raises(SystemExit) as exc:
        report.main(bad)
    assert exc.value.code == 2
    assert os.environ[seam.env] == "sentinel"
    assert report.main(good) == 0
    assert os.environ[seam.env] == exported


def test_cluster_resolves_seams_once(monkeypatch):
    from repro.cluster.cluster import Cluster
    from repro.disk import QueuedDiskModel

    monkeypatch.setenv("REPRO_DISK_MODEL", "queued")
    cluster = Cluster(
        ClusterConfig(compute_nodes=1, iod_nodes=1, separate_iod_nodes=True)
    )
    assert cluster.config.disk_model == "queued"
    # A later change of the environment cannot split the cluster.
    monkeypatch.setenv("REPRO_DISK_MODEL", "mech")
    compute = cluster.node("node0")
    assert compute.disk is None
    compute.attach_disk()
    assert isinstance(compute.disk, QueuedDiskModel)


def test_node_naming_colocated():
    config = ClusterConfig(compute_nodes=4, iod_nodes=4)
    assert config.compute_node_names() == ["node0", "node1", "node2", "node3"]
    assert config.iod_node_names() == ["node0", "node1", "node2", "node3"]


def test_node_naming_separate():
    config = ClusterConfig(compute_nodes=2, iod_nodes=3, separate_iod_nodes=True)
    assert config.compute_node_names() == ["node0", "node1"]
    assert config.iod_node_names() == ["node2", "node3", "node4"]


# -- Cluster assembly ----------------------------------------------------


def test_cluster_builds_colocated_nodes_once():
    cluster = make_cluster(compute_nodes=2, iod_nodes=2)
    assert set(cluster.nodes) == {"node0", "node1"}
    assert all(n.disk is not None for n in cluster.nodes.values())
    assert len(cluster.iods) == 2
    assert len(cluster.cache_modules) == 2


def test_cluster_separate_iod_nodes():
    cluster = make_cluster(
        compute_nodes=2, iod_nodes=2, separate_iod_nodes=True
    )
    assert set(cluster.nodes) == {"node0", "node1", "node2", "node3"}
    assert cluster.nodes["node0"].disk is None
    assert cluster.nodes["node2"].disk is not None
    assert "node0" in cluster.cache_modules
    assert "node2" not in cluster.cache_modules


def test_cluster_no_caching_has_no_modules():
    cluster = make_cluster(caching=False)
    assert cluster.cache_modules == {}
    assert cluster.nodes["node0"].cache_module is None


def test_cluster_hub_fabric_option():
    from repro.net import SharedHubFabric

    # Pin the contention model: this test is about topology selection,
    # and must hold even when REPRO_NET_MODEL=fluid (the fluid CI
    # shard) would otherwise swap the fabric class.
    config = ClusterConfig(
        costs=CostModel(fabric="hub"), net_model="frames"
    )
    from repro.cluster.cluster import Cluster

    cluster = Cluster(config)
    assert isinstance(cluster.network.fabric, SharedHubFabric)


def test_cluster_node_repr_and_accessors():
    cluster = make_cluster()
    node = cluster.node("node0")
    assert "node0" in repr(node)
    assert cluster.compute_nodes == ["node0", "node1"]
    assert cluster.iod_nodes == ["node0", "node1"]


def test_node_compute_validation():
    cluster = make_cluster()
    node = cluster.node("node0")

    def bad(env):
        yield from node.compute(-1)

    proc = cluster.env.process(bad(cluster.env))
    # bounded run: cluster daemons (flusher) reschedule forever
    cluster.env.run(until=0.001)
    assert proc.triggered and not proc.ok


def test_node_compute_zero_is_free():
    cluster = make_cluster()
    node = cluster.node("node0")

    def app(env):
        yield from node.compute(0)
        return env.now

    assert run_app(cluster, app(cluster.env)) == 0.0


def test_drain_caches_helper():
    cluster = make_cluster()
    client = cluster.client("node0")

    def app(env):
        f = yield from client.open("/f")
        yield from client.write(f, 0, 8192, None)
        yield from cluster.drain_caches()
        assert all(
            m.manager.n_dirty == 0 for m in cluster.cache_modules.values()
        )

    run_app(cluster, app(cluster.env))
