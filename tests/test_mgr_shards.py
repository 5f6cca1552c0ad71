"""The sharded metadata service: routing, placement, determinism.

The contract has three parts: (1) path → shard routing is a pure
function of the path bytes (never Python's seeded ``hash``), (2) a
file's owning shard is recoverable from its id alone, and (3) one
shard is *exactly* the paper's single mgr — same label, same id
sequence, bit-identical schedule hashes.
"""

import pytest

from repro.cluster.config import ClusterConfig
from repro.pvfs import protocol
from repro.sim.parallel import run_sharded_replay
from tests.conftest import make_cluster, run_app
from tests.test_engine_shards import make_trace, small_config

# -- routing -----------------------------------------------------------------

#: Pinned routing assignments: these may only change if the hash
#: function changes, which would strand every persisted deployment map.
GOLDEN_ROUTES = {
    ("/data/shared", 2): 1,
    ("/data/shared", 4): 3,
    ("/shared/f0", 4): 2,
    ("/shared/f1", 4): 1,
    ("/p0/new0", 4): 1,
    ("/p1/new0", 4): 0,
}


def test_mgr_shard_of_golden_routes():
    for (path, n), expected in GOLDEN_ROUTES.items():
        assert protocol.mgr_shard_of(path, n) == expected


def test_mgr_shard_of_single_shard_is_zero():
    assert protocol.mgr_shard_of("/anything", 1) == 0


def test_mgr_shard_of_in_range_and_covers_shards():
    paths = [f"/f{i}" for i in range(256)]
    shards = {protocol.mgr_shard_of(p, 4) for p in paths}
    assert all(0 <= protocol.mgr_shard_of(p, 4) < 4 for p in paths)
    assert shards == {0, 1, 2, 3}  # no shard starves


def test_mgr_shard_of_rejects_bad_count():
    with pytest.raises(ValueError):
        protocol.mgr_shard_of("/x", 0)


def test_owning_mgr_shard_inverts_id_allocation():
    import itertools

    for n_shards in (1, 2, 4, 8):
        for shard in range(n_shards):
            ids = itertools.count(shard + 1, n_shards)
            for _ in range(5):
                assert (
                    protocol.owning_mgr_shard(next(ids), n_shards) == shard
                )


# -- cluster assembly -------------------------------------------------------------


def test_single_shard_keeps_plain_mgr_label():
    cluster = make_cluster()
    assert cluster.mgr is cluster.mgr_servers[0]
    assert cluster.mgr.name == "mgr"
    assert cluster.mgr_placements == [("node0", cluster.config.MGR_PORT)]


def test_shards_round_robin_over_iod_nodes():
    cluster = make_cluster(compute_nodes=4, iod_nodes=2, mgr_shards=4)
    port = cluster.config.MGR_PORT
    assert cluster.mgr_placements == [
        ("node0", port),
        ("node1", port),
        ("node0", port + 1),
        ("node1", port + 1),
    ]
    assert [s.name for s in cluster.mgr_servers] == [
        "mgr0", "mgr1", "mgr2", "mgr3"
    ]


def test_placement_matches_parallel_partitions():
    """Shard k's node is partition (k % n) of plan_shards' order."""
    from repro.sim.mailbox import plan_shards

    config = ClusterConfig(compute_nodes=4, iod_nodes=4, mgr_shards=4)
    from repro.cluster.cluster import Cluster

    cluster = Cluster(config)
    plan = plan_shards(
        config.compute_node_names(), config.iod_node_names(), shards=4
    )
    for k, (node, _port) in enumerate(cluster.mgr_placements):
        assert plan.shard_of(node) == k % 4


# -- end-to-end routing --------------------------------------------------------


def test_opens_route_to_owning_shard():
    cluster = make_cluster(compute_nodes=4, iod_nodes=4, mgr_shards=4)
    client = cluster.client("node0")
    paths = [f"/routes/f{i}" for i in range(8)]

    def app(env):
        handles = []
        for path in paths:
            handles.append((yield from client.open(path)))
        return handles

    handles = run_app(cluster, app(cluster.env))
    for path, handle in zip(paths, handles):
        shard = protocol.mgr_shard_of(path, 4)
        # The file id encodes its allocator; only the owning shard
        # knows the path.
        assert protocol.owning_mgr_shard(handle.file_id, 4) == shard
        assert cluster.mgr_servers[shard].lookup(path) is not None
        for other in range(4):
            if other != shard:
                assert cluster.mgr_servers[other].lookup(path) is None


def test_listdir_merges_all_shards_sorted():
    cluster = make_cluster(compute_nodes=2, iod_nodes=2, mgr_shards=4)
    client = cluster.client("node0")
    paths = [f"/ls/f{i}" for i in range(10)]

    def app(env):
        for path in paths:
            yield from client.open(path)
        return (yield from client.listdir())

    listed = run_app(cluster, app(cluster.env))
    assert listed == sorted(paths)


def test_stat_and_unlink_route_to_owner():
    cluster = make_cluster(compute_nodes=2, iod_nodes=2, mgr_shards=3)
    client = cluster.client("node0")

    def app(env):
        yield from client.open("/route/stat-me")
        reply = yield from client.stat("/route/stat-me")
        missing = yield from client.stat("/route/never-made")
        existed = yield from client.unlink("/route/stat-me")
        gone = yield from client.stat("/route/stat-me")
        return reply, missing, existed, gone

    reply, missing, existed, gone = run_app(cluster, app(cluster.env))
    assert reply is not None
    assert missing is None
    assert existed
    assert gone is None


def test_sync_write_invalidates_across_shard_directories():
    """Coherence still works when the owning shard is not shard 0."""
    cluster = make_cluster(compute_nodes=2, iod_nodes=2, mgr_shards=4)
    path = "/data/shared"  # routes to shard 3 under 4 shards
    assert protocol.mgr_shard_of(path, 4) == 3
    reader = cluster.client("node1")
    writer = cluster.client("node0")

    def read_side(env):
        handle = yield from reader.open(path)
        yield from reader.read(handle, 0, 64 * 1024)

    def write_side(env):
        handle = yield from writer.open(path)
        yield from writer.sync_write(handle, 0, 64 * 1024)

    run_app(cluster, read_side(cluster.env))
    before = cluster.metrics.count("cache.invalidations_received")
    run_app(cluster, write_side(cluster.env))
    assert cluster.metrics.count("cache.invalidations_received") > before


def test_iod_directory_view_merges_partitions():
    cluster = make_cluster(compute_nodes=2, iod_nodes=2, mgr_shards=2)
    iod = cluster.iods[0]
    iod.directories[0][(1, 0)] = {"node0"}
    iod.directories[1][(2, 0)] = {"node1"}
    merged = iod.directory
    assert merged == {(1, 0): {"node0"}, (2, 0): {"node1"}}
    # Re-assignment re-routes entries by owning shard of the file id.
    iod.directory = {(1, 5): {"node0"}, (2, 7): {"node1"}}
    assert iod.directories[0] == {(1, 5): {"node0"}}
    assert iod.directories[1] == {(2, 7): {"node1"}}


# -- determinism -----------------------------------------------------------------


def test_explicit_single_shard_hash_matches_default():
    """mgr_shards=1 is bit-identical to the unset default."""
    trace = make_trace()
    default = run_sharded_replay(
        small_config(), trace, shards=1, hash_enabled=True
    )
    explicit = run_sharded_replay(
        small_config(mgr_shards=1), trace, shards=1, hash_enabled=True
    )
    assert default.trace_hash == explicit.trace_hash


def test_sharded_mgr_changes_the_schedule():
    trace = make_trace()
    one = run_sharded_replay(
        small_config(), trace, shards=1, hash_enabled=True
    )
    four = run_sharded_replay(
        small_config(mgr_shards=4), trace, shards=1, hash_enabled=True
    )
    assert one.trace_hash != four.trace_hash


def test_sharded_mgr_is_run_to_run_deterministic():
    trace = make_trace()
    first = run_sharded_replay(
        small_config(mgr_shards=4), trace, shards=1, hash_enabled=True
    )
    second = run_sharded_replay(
        small_config(mgr_shards=4), trace, shards=1, hash_enabled=True
    )
    assert first.trace_hash == second.trace_hash


def test_sharded_mgr_composes_with_engine_shards():
    """mgr shards compose with the conservative parallel engine:
    both backends agree bit-for-bit and runs repeat exactly.  (The
    engine's conservative timing differs from serial by design, so
    serial-vs-sharded equality is *not* the contract — backend
    equivalence and determinism are.)"""
    trace = make_trace()
    inline = run_sharded_replay(
        small_config(mgr_shards=2),
        trace,
        shards=2,
        backend="inline",
        hash_enabled=True,
    )
    process = run_sharded_replay(
        small_config(mgr_shards=2),
        trace,
        shards=2,
        backend="process",
        hash_enabled=True,
    )
    again = run_sharded_replay(
        small_config(mgr_shards=2),
        trace,
        shards=2,
        backend="inline",
        hash_enabled=True,
    )
    assert inline.shards == 2
    assert inline.trace_hash == process.trace_hash == again.trace_hash
    assert inline.completion == process.completion


def test_open_loop_knee_moves_serially_and_under_engine_shards():
    """A saturating open-loop workload completes measurably more
    ops/s with a sharded mgr — under both execution modes (the p=256
    version with the ≥2x floor is the bench gate)."""
    from repro.workload.openloop import OpenLoopParams, generate

    params = OpenLoopParams(
        processes=16,
        duration_s=0.1,
        rate_ops_s=16000,
        churn=1.0,
        read_fraction=0.0,
        write_fraction=1.0,
        access="uniform",
        file_bytes=4 << 20,
        seed=11,
    )
    trace = generate(params)
    rates = {}
    for mgr_shards in (1, 4):
        config = ClusterConfig(
            compute_nodes=16, iod_nodes=16, mgr_shards=mgr_shards
        )
        serial = run_sharded_replay(
            config, trace, shards=1, preserve_timing=True
        )
        engine = run_sharded_replay(
            config, trace, shards=2, preserve_timing=True
        )
        again = run_sharded_replay(
            config, trace, shards=2, preserve_timing=True
        )
        assert engine.total_time == again.total_time  # deterministic
        rates[mgr_shards] = (
            len(trace) / serial.total_time,
            len(trace) / engine.total_time,
        )
    assert rates[4][0] > 1.5 * rates[1][0]  # serial
    assert rates[4][1] > 1.5 * rates[1][1]  # engine-sharded
