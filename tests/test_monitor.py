"""Tests for the scheduler counters, the daemon monitor and the
reproduction validator."""

from repro.sim import Environment
from tests.conftest import make_cluster


# -- barrier/lookahead scheduler counters ------------------------------------


def test_sched_stats_exposes_barrier_counters():
    env = Environment()
    stats = env.sched_stats()
    assert stats["barriers_crossed"] == 0
    assert stats["cross_shard_msgs"] == 0
    assert stats["max_shard_skew_us"] == 0


def test_note_barrier_and_cross_shard_counters():
    env = Environment()
    env.note_barrier(skew_s=150e-6)
    env.note_barrier(skew_s=50e-6)  # lower skew: high-water unchanged
    env.note_cross_shard_msg()
    env.note_cross_shard_msg(3)
    stats = env.sched_stats()
    assert stats["barriers_crossed"] == 2
    assert stats["cross_shard_msgs"] == 4
    assert stats["max_shard_skew_us"] == 150


def test_barrier_counters_fold_into_sim_metrics():
    cluster = make_cluster()
    cluster.env.note_barrier(skew_s=1e-3)
    cluster.env.note_cross_shard_msg(2)
    cluster.record_scheduler_metrics()
    assert cluster.metrics.counters["sim.barriers_crossed"] == 1
    assert cluster.metrics.counters["sim.cross_shard_msgs"] == 2
    assert cluster.metrics.counters["sim.max_shard_skew_us"] == 1000


def test_daemon_summary_scheduler_line_has_barrier_counters():
    import io

    from repro.experiments.report import daemon_summary

    stream = io.StringIO()
    daemon_summary(stream=stream)
    out = stream.getvalue()
    assert "barriers" in out
    assert "cross-shard msgs" in out
    assert "shard skew" in out


# -- per-mgr-shard instrumentation -------------------------------------------


def _staggered_share(cluster):
    """node1 reads a file, then node0 sync_writes it (forces fan-out)."""
    client1 = cluster.client("node1")
    client0 = cluster.client("node0")

    def reader(env):
        handle = yield from client1.open("/data/shared")
        yield from client1.read(handle, 0, 256 * 1024)

    def writer(env):
        handle = yield from client0.open("/data/shared")
        yield from client0.sync_write(handle, 0, 64 * 1024)

    cluster.env.run(until=cluster.env.process(reader(cluster.env)))
    cluster.env.run(until=cluster.env.process(writer(cluster.env)))


def test_daemon_monitor_tracks_metadata_ops_per_shard():
    from repro.metrics import DaemonMonitor
    from repro.pvfs import protocol
    from repro.svc import get_bus

    cluster = make_cluster(mgr_shards=2)
    monitor = DaemonMonitor(get_bus(cluster.env))
    _staggered_share(cluster)
    owner = protocol.mgr_shard_of("/data/shared", 2)
    # Both opens hit the owning shard; the other shard saw nothing.
    assert monitor.metadata_ops == {owner: 2}
    monitor.close()


def test_daemon_monitor_attributes_invalidation_fanout_to_owner():
    from repro.metrics import DaemonMonitor
    from repro.pvfs import protocol
    from repro.svc import get_bus

    cluster = make_cluster(mgr_shards=2)
    monitor = DaemonMonitor(get_bus(cluster.env))
    _staggered_share(cluster)
    owner = protocol.mgr_shard_of("/data/shared", 2)
    # The sync_write invalidated node1's cached copy; the fan-out is
    # charged to the owning shard only — the cache module's
    # receive-side invalidation record must not leak into shard 0.
    assert monitor.invalidation_fanout == {owner: 1}
    monitor.close()


def test_mgr_shard_table_one_row_per_shard():
    from repro.metrics import DaemonMonitor
    from repro.svc import get_bus

    cluster = make_cluster(mgr_shards=4)
    monitor = DaemonMonitor(get_bus(cluster.env))
    _staggered_share(cluster)
    table = monitor.mgr_shard_table(duration_s=cluster.env.now)
    lines = table.splitlines()
    assert lines[0].split() == [
        "shard", "node", "meta-ops", "ops/s", "q-high", "inval-out"
    ]
    assert len(lines) == 5  # header + 4 shards
    assert [line.split()[0] for line in lines[1:]] == ["0", "1", "2", "3"]
    monitor.close()


def test_mgr_shard_table_single_shard_is_plain_mgr():
    from repro.metrics import DaemonMonitor
    from repro.svc import get_bus

    cluster = make_cluster()
    monitor = DaemonMonitor(get_bus(cluster.env))
    _staggered_share(cluster)
    table = monitor.mgr_shard_table(duration_s=cluster.env.now)
    lines = table.splitlines()
    assert len(lines) == 2
    row = lines[1].split()
    assert row[0] == "0"
    assert int(row[2]) == 2  # both opens
    assert float(row[3]) > 0  # ops/s computed from duration
    monitor.close()


def test_mgr_shard_table_no_cluster():
    from repro.metrics import DaemonMonitor
    from repro.svc import get_bus

    env = Environment()
    monitor = DaemonMonitor(get_bus(env))
    assert monitor.mgr_shard_table() == "(no mgr shards registered)"
    monitor.close()


def test_daemon_summary_prints_mgr_shard_rows():
    import io

    from repro.experiments.report import daemon_summary

    stream = io.StringIO()
    daemon_summary(stream=stream)
    out = stream.getvalue()
    assert "metadata shards:" in out
    assert "inval-out" in out


# -- validator ---------------------------------------------------------------


def test_validator_check_dataclass():
    from repro.experiments.validate import Check

    c = Check(claim="x", passed=True, detail="d")
    assert c.passed


def test_validator_main_smoke(capsys):
    """The full checklist runs and reports (slow-ish: ~1 min)."""
    from repro.experiments.validate import main

    rc = main()
    out = capsys.readouterr().out
    assert "claims reproduced" in out
    assert rc == 0
    assert "FAIL" not in out.replace("FAILED", "")
