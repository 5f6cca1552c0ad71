"""Conservative parallel engine (DESIGN.md §17): equivalence + edges.

The determinism oracle is the BLAKE2b schedule hash: a sharded replay
must merge to the *same* canonical hash whether the shards interleave
in this process (``inline``) or run in worker processes (``process``),
and a single-shard run must hash identically to the plain serial
replayer.  Shard-boundary edge cases — loopback sends, a timer
cancelled in the quantum it would cross a barrier, an empty shard —
get their own coverage.
"""

from __future__ import annotations

import pytest

from repro.analysis.reset import reset_all
from repro.cluster.config import CacheConfig, ClusterConfig
from repro.sim import Environment
from repro.sim.mailbox import Envelope, ShardPlan, plan_shards
from repro.sim.parallel import merged_trace_hash, run_sharded_replay
from repro.workload.trace import Trace, TraceEvent


def make_trace(procs: int = 4, events_per: int = 6) -> Trace:
    """A small deterministic multi-process workload with sharing."""
    events = []
    for i in range(procs):
        process = f"app-{i:02d}"
        for j in range(events_per):
            t = (j * procs + i) * 1e-4
            if j % 3 == 2:
                events.append(
                    TraceEvent(
                        time=t,
                        process=process,
                        path="/shared",
                        op="write",
                        offset=((i * events_per + j) % 8) * 4096,
                        nbytes=4096,
                    )
                )
            else:
                events.append(
                    TraceEvent(
                        time=t,
                        process=process,
                        path="/shared",
                        op="read",
                        offset=((j * 7 + i) % 16) * 4096,
                        nbytes=8192,
                    )
                )
    return Trace(events=events)


def small_config(**overrides) -> ClusterConfig:
    return ClusterConfig(
        compute_nodes=4,
        iod_nodes=4,
        caching=True,
        cache=CacheConfig(size_bytes=64 * 4096),
        **overrides,
    )


# -- shard planning ----------------------------------------------------------
def test_plan_shards_co_locates_iods_with_compute():
    plan = plan_shards(
        ["node0", "node1", "node2", "node3"],
        ["node0", "node1", "node2", "node3"],
        2,
    )
    assert plan.shards == 2
    # compute i and iod i share node names here, so one entry each;
    # round-robin: even nodes shard 0, odd nodes shard 1.
    assert plan.shard_of("node0") == 0
    assert plan.shard_of("node1") == 1
    assert plan.local_nodes(0) == ["node0", "node2"]
    assert plan.local_nodes(1) == ["node1", "node3"]


def test_plan_shards_separate_iod_pool():
    plan = plan_shards(["node0", "node1"], ["node2", "node3"], 2)
    # iod j rides with compute j: node2 with node0, node3 with node1.
    assert plan.shard_of("node2") == plan.shard_of("node0")
    assert plan.shard_of("node3") == plan.shard_of("node1")


def test_plan_allows_empty_shard():
    plan = plan_shards(["node0"], ["node0"], 3)
    assert plan.local_nodes(0) == ["node0"]
    assert plan.local_nodes(1) == []
    assert plan.local_nodes(2) == []


def test_shard_plan_validates():
    with pytest.raises(ValueError):
        ShardPlan(shards=0, assignment={})
    with pytest.raises(ValueError):
        ShardPlan(shards=2, assignment={"node0": 5})


# -- engine horizon stepping -------------------------------------------------
def test_run_horizon_is_exclusive():
    env = Environment()
    seen: list[float] = []

    def body(env):
        seen.append(env.now)
        yield env.timeout(100e-6)
        seen.append(env.now)

    env.process(body(env))
    # The event *at* the horizon must NOT run (exclusive bound): an
    # envelope injected for exactly t=h must still be in the future.
    assert env.run_horizon(100e-6) is False
    assert seen == [0.0]
    assert env.now == 100e-6
    env.run_horizon(200e-6)
    assert seen == [0.0, 100e-6]


def test_run_horizon_rejects_past_horizons():
    env = Environment()
    env.run_horizon(1.0)
    with pytest.raises(ValueError):
        env.run_horizon(0.5)


def test_run_horizon_stop_event_short_circuits():
    env = Environment()

    def body(env):
        yield env.timeout(10e-6)

    proc = env.process(body(env))
    assert env.run_horizon(1.0, stop_event=proc) is True
    assert env.now == pytest.approx(10e-6)


def test_timer_cancelled_in_quantum_it_would_cross_a_barrier():
    """A Timer armed past the horizon and cancelled before the barrier
    must never fire in any later quantum."""
    env = Environment()
    fired: list[float] = []
    timer = env.timer(lambda t: fired.append(env.now))
    timer.arm(150e-6)  # deadline inside the *next* 100us quantum

    def canceller(env):
        yield env.timeout(50e-6)
        timer.cancel()

    env.process(canceller(env))
    env.run_horizon(100e-6)
    assert not timer.armed
    env.run_horizon(200e-6)
    env.run_horizon(300e-6)
    assert fired == []
    assert env.now == 300e-6


# -- hash equivalence --------------------------------------------------------
def test_single_shard_hash_equals_serial_replay():
    from repro.workload.replay import replay_trace_hash

    trace = make_trace()
    serial = replay_trace_hash(
        trace.dumps(), compute_nodes=4, iod_nodes=4, caching=True
    )
    reset_all()
    one = run_sharded_replay(
        ClusterConfig(compute_nodes=4, iod_nodes=4, caching=True),
        trace,
        shards=1,
        hash_enabled=True,
    )
    assert one.trace_hash == serial
    assert one.shard_hashes == [serial]
    assert one.barriers == 0


@pytest.mark.parametrize("net_model", ["frames", "fluid"])
@pytest.mark.parametrize("disk_model", ["mech", "queued"])
def test_inline_and_process_backends_hash_identically(net_model, disk_model):
    """The equivalence table: frames/fluid x mech/queued, macro off."""
    trace = make_trace()
    config = small_config(
        net_model=net_model, disk_model=disk_model, engine_macro=False
    )
    inline = run_sharded_replay(
        config, trace, shards=2, backend="inline", hash_enabled=True
    )
    process = run_sharded_replay(
        config, trace, shards=2, backend="process", hash_enabled=True
    )
    assert inline.trace_hash == process.trace_hash
    assert inline.shard_hashes == process.shard_hashes
    assert inline.barriers == process.barriers
    assert inline.completion == process.completion
    assert inline.counters == process.counters


def test_inline_backend_is_run_to_run_deterministic():
    trace = make_trace()
    config = small_config(engine_macro=False)
    first = run_sharded_replay(
        config, trace, shards=2, backend="inline", hash_enabled=True
    )
    second = run_sharded_replay(
        config, trace, shards=2, backend="inline", hash_enabled=True
    )
    assert first.trace_hash == second.trace_hash
    assert first.barriers > 0
    assert first.counters["sim.cross_shard_msgs"] > 0


def test_sharded_run_reports_barrier_observability():
    trace = make_trace()
    out = run_sharded_replay(
        small_config(engine_macro=False),
        trace,
        shards=2,
        backend="inline",
        hash_enabled=False,
    )
    assert out.trace_hash is None
    for sched in out.shard_sched:
        assert sched["barriers_crossed"] == out.barriers
    assert out.events_processed >= out.max_shard_events
    assert out.total_time == max(out.completion.values())


# -- shard-boundary edge cases -----------------------------------------------
def test_loopback_sends_stay_intra_shard():
    """Co-located iod traffic (loopback, latency below the lookahead)
    never crosses the mailbox: node i's iod is always in node i's
    shard, so sub-lookahead local sends cannot violate the barrier."""
    trace = make_trace(procs=2, events_per=4)
    config = ClusterConfig(compute_nodes=2, iod_nodes=2, caching=True)
    inline = run_sharded_replay(
        config, trace, shards=2, backend="inline", hash_enabled=True
    )
    process = run_sharded_replay(
        config, trace, shards=2, backend="process", hash_enabled=True
    )
    assert inline.trace_hash == process.trace_hash
    # Loopback iod reads happened (each proc reads its own node's
    # stripes for some offsets) and the run completed every process.
    assert set(inline.completion) == {"app-00", "app-01"}


def test_empty_shard_when_nodes_fewer_than_shards():
    trace = make_trace(procs=2, events_per=3)
    config = ClusterConfig(compute_nodes=2, iod_nodes=2, caching=True)
    inline = run_sharded_replay(
        config, trace, shards=3, backend="inline", hash_enabled=True
    )
    process = run_sharded_replay(
        config, trace, shards=3, backend="process", hash_enabled=True
    )
    assert inline.trace_hash == process.trace_hash
    assert len(inline.shard_hashes) == 3
    # The empty shard processed nothing.
    assert min(s["events_processed"] for s in inline.shard_sched) == 0


def test_global_cache_refuses_sharding():
    config = ClusterConfig(
        compute_nodes=2,
        iod_nodes=2,
        caching=True,
        cache=CacheConfig(global_cache=True),
    )
    with pytest.raises(ValueError, match="global_cache"):
        run_sharded_replay(
            config, make_trace(procs=2, events_per=2),
            shards=2, backend="inline",
        )


# -- mailbox ordering --------------------------------------------------------
def test_merged_hash_is_identity_for_one_shard():
    assert merged_trace_hash(["abc"]) == "abc"
    assert merged_trace_hash(["a", "b"]) != merged_trace_hash(["b", "a"])


def test_envelope_sort_key_orders_time_shard_seq():
    envs = [
        Envelope(deliver_time=2e-4, src_shard=1, dst_shard=0, seq=1,
                 conn_uid=(1, 1)),
        Envelope(deliver_time=1e-4, src_shard=1, dst_shard=0, seq=2,
                 conn_uid=(1, 1)),
        Envelope(deliver_time=1e-4, src_shard=0, dst_shard=1, seq=9,
                 conn_uid=(0, 1)),
    ]
    ordered = sorted(envs, key=lambda e: e.sort_key)
    assert [e.sort_key for e in ordered] == [
        (1e-4, 0, 9), (1e-4, 1, 2), (2e-4, 1, 1)
    ]


def test_mailbox_fifo_clamp_and_barrier_violation_guard():
    from repro.net.message import Message
    from repro.sim.mailbox import InterShardMailbox, RemoteHalfConnection

    env = Environment()
    plan = plan_shards(["node0", "node1"], ["node0", "node1"], 2)
    # Latency shrinks between calls: the second message would overtake
    # the first without the per-direction FIFO clamp.
    latencies = iter([200e-6, 100e-6])
    mailbox = InterShardMailbox(
        env, 0, plan, network=object(), latency=lambda n: next(latencies)
    )
    half = RemoteHalfConnection(
        mailbox, (0, 1), "node0", "node1", "client", peer_shard=1
    )
    half._send("client", Message(kind="req", size_bytes=0))
    half._send("client", Message(kind="req", size_bytes=0))
    first, second = mailbox.collect()
    assert second.deliver_time >= first.deliver_time
    assert mailbox.outbox == []
    # Injecting an envelope into the shard's past is a protocol bug.
    env.run_horizon(1.0)
    stale = Envelope(
        deliver_time=0.5, src_shard=1, dst_shard=0, seq=1, conn_uid=(1, 1)
    )
    with pytest.raises(RuntimeError, match="past"):
        mailbox.inject([stale])


# -- config / runner / CLI wiring --------------------------------------------
def test_config_validates_shard_fields():
    with pytest.raises(ValueError):
        ClusterConfig(engine_shards=0)
    with pytest.raises(ValueError):
        ClusterConfig(shard_backend="threads")


def test_run_instances_routes_sharded_replay(tmp_path, monkeypatch):
    from repro.workload.runner import run_instances

    trace_file = tmp_path / "workload.jsonl"
    trace_file.write_text(make_trace(procs=2, events_per=3).dumps())
    config = ClusterConfig(
        compute_nodes=2,
        iod_nodes=2,
        caching=True,
        trace_source=str(trace_file),
        engine_shards=2,
        shard_backend="inline",
    )
    outcome = run_instances(config, [])
    assert outcome.cluster is None
    assert outcome.trace is None
    assert outcome.total_time > 0
    assert outcome.counters["client.reads"] > 0
    assert len(outcome.instances) == 1
    assert set(outcome.instances[0].per_rank) == {0, 1}


def test_run_instances_sharded_refuses_recording(tmp_path):
    from repro.workload.runner import run_instances

    trace_file = tmp_path / "workload.jsonl"
    trace_file.write_text(make_trace(procs=2, events_per=2).dumps())
    config = ClusterConfig(
        compute_nodes=2,
        iod_nodes=2,
        trace_source=str(trace_file),
        engine_shards=2,
        shard_backend="inline",
    )
    with pytest.raises(ValueError, match="record"):
        run_instances(config, [], record=True)
