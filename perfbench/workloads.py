"""The benchmark's three workloads, driven through public library calls.

Each workload turns a seed into inputs, builds a cluster on the
default seams, runs its client processes to completion and then
reports what the simulated cluster did (:class:`SimResult`).  Nothing
here reads the host clock: every number in :class:`SimResult` is in
simulated time and repeats exactly for a given seed.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cluster import Cluster, ClusterConfig
from repro.workload.microbench import MicroBenchmark, MicroBenchParams
from repro.workload.openloop import OpenLoopParams, generate

#: The seams every run uses, pinned explicitly so no environment
#: variable can pick another model (validated defaults, serial engine,
#: the paper's single mgr).
SEAMS: dict[str, _t.Any] = {
    "net_model": "frames",
    "disk_model": "mech",
    "engine_macro": False,
    "engine_shards": 1,
    "mgr_shards": 1,
    "trace_source": None,
}

OPS = ("read", "write", "sync_write")


@dataclasses.dataclass
class SimResult:
    """What one run of a workload did, in simulated time."""

    #: Ops the workload defined and ops that completed.
    ops_defined: int
    ops_completed: int
    #: Bytes the workload asked to read, and bytes the client read.
    read_bytes_requested: int
    read_bytes_done: int
    #: Seconds from the first measured op to the last completion.
    makespan_s: float
    #: Open loop only: how far the last completion ran behind the last
    #: scheduled arrival.
    lag_s: float | None
    #: Per-op latency samples (seconds) by op kind.
    latencies: dict[str, list[float]]
    #: Engine events of the whole run, warm-up included, drain not.
    events: int
    counters: dict[str, int]

    def fingerprint(self) -> tuple:
        """Every simulated figure of the run, for exact comparison."""
        return (
            self.ops_defined,
            self.ops_completed,
            self.read_bytes_done,
            self.makespan_s,
            self.lag_s,
            tuple((op, tuple(v)) for op, v in sorted(self.latencies.items())),
            self.events,
            tuple(sorted(self.counters.items())),
        )


class Workload:
    """One benchmark workload: inputs from a seed, then a cluster run.

    :meth:`generate` and :meth:`build` are the set-up; :meth:`warm`
    and :meth:`run` are the simulated work.  The runner times the two
    apart.
    """

    name = ""
    why = ""
    loop = "closed"
    #: Independent runs, on seeds derived from the benchmark seed,
    #: whose simulated results are pooled: enough simulated work that
    #: the figures move little from one seed to the next.
    subruns = 1
    #: The op kind whose latency the end-to-end percentiles report.
    primary_op = "read"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale
        self.cluster: Cluster | None = None

    def config(self) -> ClusterConfig:
        raise NotImplementedError

    def generate(self) -> None:
        """Make the run's inputs from the seed."""
        raise NotImplementedError

    def build(self) -> Cluster:
        """Build the cluster (services started, no client yet)."""
        self.cluster = Cluster(self.config())
        return self.cluster

    def warm(self) -> None:
        """Run the warm-up phase, then mark where the measured phase
        starts: its clock and the counters it starts from.  Warm-up
        ops count in host time but in none of the simulated figures."""
        cluster = self.cluster
        procs = self.warm_up()
        if procs:
            cluster.env.run(until=cluster.env.all_of(procs))
        self.start = cluster.env.now
        self.base_counters = dict(cluster.metrics.counters)
        self.base_disk = _disk_busy_s(cluster)
        self.base_net = _net_totals(cluster)

    def warm_up(self) -> list:
        """Start warm-up processes, if the workload has any."""
        return []

    def spawn(self) -> list:
        """Start the client processes; returns them."""
        raise NotImplementedError

    def run(self) -> None:
        """Run every client process to completion."""
        env = self.cluster.env
        env.run(until=env.all_of(self.spawn()))

    def window(self) -> dict[str, float]:
        """The measured phase's length, and the disk and network work
        done in it."""
        cluster = self.cluster
        return {
            "duration_s": cluster.env.now - self.start,
            "disk_busy_s": _disk_busy_s(cluster) - self.base_disk,
            "disks": sum(1 for n in cluster.nodes.values() if n.disk is not None),
            "nodes": len(cluster.nodes),
            **{
                key: value - self.base_net[key]
                for key, value in _net_totals(cluster).items()
            },
        }

    def result(self) -> SimResult:
        raise NotImplementedError

    def _counters(self) -> dict[str, int]:
        """Counters of the measured phase (warm-up subtracted)."""
        base = self.base_counters
        return {
            name: value - base.get(name, 0)
            for name, value in self.cluster.metrics.counters.items()
            if value != base.get(name, 0)
        }


def _net_totals(cluster: Cluster) -> dict[str, float]:
    """Messages delivered, frames sent and wire-busy seconds so far."""
    fabric = cluster.network.fabric.stats_snapshot()
    return {
        "messages": cluster.network.messages_delivered,
        "frames": fabric.get("frames_transferred", 0),
        "wire_busy_s": fabric["wire_busy_s"],
    }


def _disk_busy_s(cluster: Cluster) -> float:
    """Seconds the cluster's disks have spent positioning and transferring."""
    return sum(
        d.seeks * (d.avg_seek_s + d.half_rotation_s)
        + (d.bytes_read + d.bytes_written) / d.transfer_bytes_per_s
        for d in (n.disk for n in cluster.nodes.values())
        if d is not None
    )


class _MicroBenchWorkload(Workload):
    """Two co-scheduled micro-benchmark instances on the same 4 nodes."""

    nodes = 4
    request_size = 4096
    iterations = 1
    mode = "read"
    locality = 0.0
    sharing = 0.5
    warmup = False
    sync_fraction = 0.0
    partition_bytes = 4 * 2**20

    def config(self) -> ClusterConfig:
        return ClusterConfig(
            compute_nodes=self.nodes, iod_nodes=self.nodes, **SEAMS
        )

    def generate(self) -> None:
        names = [f"node{i}" for i in range(self.nodes)]
        iterations = max(2, round(self.iterations * self.scale))
        self.params = [
            MicroBenchParams(
                nodes=names,
                request_size=self.request_size,
                iterations=iterations,
                mode=self.mode,
                locality=self.locality,
                sharing=self.sharing,
                instance=i,
                partition_bytes=self.partition_bytes,
                sync_fraction=self.sync_fraction,
                seed=self.seed,
            )
            for i in range(2)
        ]

    def warm_up(self) -> list:
        """With ``warmup``, read every partition once through uncached
        clients so the iod page caches start warm, as in the paper's
        steady-state figures.  All ranks finish warming before any
        measured request, so the measured phase sees no cold disk."""
        if not self.warmup:
            return []
        env = self.cluster.env
        return [
            env.process(self._warm_rank(node, rank), name=f"bench-warm-{node}")
            for rank, node in enumerate(self.params[0].nodes)
        ]

    def _warm_rank(self, node: str, rank: int) -> _t.Generator:
        params = self.params[0]
        client = self.cluster.client(node, use_cache=False)
        client.record_metrics = False
        chunk = 2**20
        paths = [p.private_path for p in self.params]
        if params.sharing:
            paths.append(params.shared_path)
        base = rank * self.partition_bytes
        for path in paths:
            handle = yield from client.open(path)
            for pos in range(0, self.partition_bytes, chunk):
                yield from client.read(
                    handle, base + pos, min(chunk, self.partition_bytes - pos)
                )

    def spawn(self) -> list:
        self.benches = [MicroBenchmark(p) for p in self.params]
        procs = []
        for bench in self.benches:
            procs.extend(bench.spawn(self.cluster))
        return procs

    def result(self) -> SimResult:
        metrics = self.cluster.metrics
        defined = sum(p.iterations * p.p for p in self.params)
        completed = sum(metrics.count(f"client.{op}s") for op in OPS)
        read_requested = defined * self.request_size if self.mode == "read" else 0
        return SimResult(
            ops_defined=defined,
            ops_completed=completed,
            read_bytes_requested=read_requested,
            read_bytes_done=metrics.count("client.read_bytes"),
            makespan_s=max(b.makespan for b in self.benches),
            lag_s=None,
            latencies={
                op: list(metrics.samples(f"client.{op}_latency")) for op in OPS
            },
            events=self.cluster.env.sched_stats()["events_processed"],
            counters=self._counters(),
        )


class ShareRead(_MicroBenchWorkload):
    """The paper's Fig. 6 point: one instance's misses serve the other."""

    name = "share_read"
    why = (
        "Fig. 6 point: two readers share half their data on 4 nodes, so "
        "one's misses serve the other's reads (cache read path, engine)"
    )
    request_size = 4096
    iterations = 1500
    locality = 0.5
    warmup = True
    subruns = 8


class WriteSync(_MicroBenchWorkload):
    """Two writers with coherent writes: write-behind and eviction."""

    name = "write_sync"
    why = (
        "two writers, 64 KB, 25% sync_write: write-behind, harvester and "
        "CLOCK eviction, flusher and iod writeback; no read path"
    )
    mode = "write"
    request_size = 65536
    iterations = 200
    sync_fraction = 0.25
    subruns = 8
    primary_op = "write"


class OpenLoopMix(Workload):
    """Poisson arrivals from 16 independent clients on 16 nodes.

    The driver is the benchmark's own: each client issues its stream
    through the public :class:`~repro.pvfs.client.PVFSClient` calls,
    waits for each op's scheduled arrival, and times the op from that
    arrival, so a stalled stream's queueing counts against every
    later request.
    """

    name = "openloop_mix"
    why = (
        "open loop near 80% of capacity, 16 nodes: reads beside writes on "
        "one cache, sync_write invalidation, disk-bound misses, mgr opens"
    )
    loop = "open"
    nodes = 16
    rate_ops_s = 700.0
    duration_s = 16.0
    subruns = 5

    def config(self) -> ClusterConfig:
        return ClusterConfig(
            compute_nodes=self.nodes, iod_nodes=self.nodes, **SEAMS
        )

    def generate(self) -> None:
        self.trace = generate(
            OpenLoopParams(
                processes=self.nodes,
                duration_s=max(0.05, self.duration_s * self.scale),
                rate_ops_s=self.rate_ops_s,
                n_files=64,
                zipf_alpha=1.3,
                sharing=0.5,
                read_fraction=0.65,
                write_fraction=0.25,
                request_bytes=4096,
                access="uniform",
                seed=self.seed,
            )
        )

    def spawn(self) -> list:
        env = self.cluster.env
        self.latencies: dict[str, list[float]] = {op: [] for op in OPS}
        self.last_done = 0.0
        streams = self.trace.by_process()
        nodes = self.cluster.compute_nodes
        return [
            env.process(
                self._client(process, streams[process], nodes[i % len(nodes)]),
                name=f"bench-{process}",
            )
            for i, process in enumerate(sorted(streams))
        ]

    def _client(self, process: str, events, node: str) -> _t.Generator:
        env = self.cluster.env
        client = self.cluster.client(node)
        client.process_name = process
        handles: dict[str, _t.Any] = {}
        for event in events:
            delay = event.time - env.now
            if delay > 0:
                yield env.timeout(delay)
            handle = handles.get(event.path)
            if handle is None:
                handle = yield from client.open(event.path)
                handles[event.path] = handle
            if event.op == "read":
                yield from client.read(handle, event.offset, event.nbytes)
            elif event.op == "write":
                yield from client.write(handle, event.offset, event.nbytes)
            else:
                yield from client.sync_write(handle, event.offset, event.nbytes)
            self.latencies[event.op].append(env.now - event.time)
        self.last_done = max(self.last_done, env.now)

    def result(self) -> SimResult:
        metrics = self.cluster.metrics
        events = self.trace.events
        return SimResult(
            ops_defined=len(events),
            ops_completed=sum(len(v) for v in self.latencies.values()),
            read_bytes_requested=sum(e.nbytes for e in events if e.op == "read"),
            read_bytes_done=metrics.count("client.read_bytes"),
            makespan_s=self.last_done - self.start,
            lag_s=self.last_done - self.start - events[-1].time,
            latencies=self.latencies,
            events=self.cluster.env.sched_stats()["events_processed"],
            counters=self._counters(),
        )


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (ShareRead, WriteSync, OpenLoopMix)
}


def check_teardown(cluster: Cluster) -> list[str]:
    """Drain every cache and every node, then stop every service strictly.

    Returns the failed checks: dirty blocks left after the drain,
    work a strict stop dropped, or a pending RPC it found.
    """
    from repro.svc import PendingCallLeak

    problems = []
    env = cluster.env

    def drain_all() -> _t.Generator:
        # Caches first, cluster-wide: a node's flusher feeds other
        # nodes' iods, so draining node by node alone could hand a
        # writeback daemon new work after its own drain.
        yield from cluster.drain_caches()
        for name in sorted(cluster.nodes):
            yield from cluster.drain_node(name)

    env.run(until=env.process(drain_all(), name="bench-drain"))
    for name, module in sorted(cluster.cache_modules.items()):
        if module.manager.n_dirty:
            problems.append(f"{name}: {module.manager.n_dirty} dirty blocks after drain")
    try:
        reports = cluster.stop_services(strict=True)
    except PendingCallLeak as leak:
        problems.append(f"pending call leak: {leak}")
    else:
        for report in reports:
            if report.total_dropped:
                problems.append(
                    f"{report.service}@{report.node} dropped work on stop"
                )
    return problems
