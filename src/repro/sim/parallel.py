"""Conservative parallel DES: shard one replay across workers.

One large topology is still one Python event loop — the bottleneck the
ROADMAP names before the 100–1000-node scale the paper never reached.
This module splits a cluster's nodes into *shards* (DESIGN.md §17),
runs each shard as its own :class:`~repro.sim.engine.Environment` —
one worker process per shard by default, or all in this process with
the ``inline`` backend — and lets shards advance independently inside
*lookahead quanta*: windows no cross-shard message can cross, because
every fabric charges at least its fixed ``base_latency_s`` per
message (:attr:`repro.net.fabric.Fabric.lookahead_s`).

The barrier protocol per quantum (classic Chandy–Misra–Bryant
conservatism, reduced to a synchronous horizon loop):

1. **Exchange** — envelopes produced in the previous quantum are
   routed to their destination shards and injected in canonical
   ``(deliver_time, src_shard, seq)`` order.
2. **Horizon** — with ``T_min`` the global minimum next-event time
   after injection, every shard runs events strictly before
   ``h = T_min + L`` (``L`` = minimum fabric lookahead).  Any event a
   shard processes has ``t >= T_min``, so a message it emits delivers
   at ``t + latency >= T_min + L = h`` — never inside the quantum
   already executed.  That is the whole correctness argument.

Determinism: per-shard schedules are hashed exactly like serial runs
(BLAKE2b over ``(seq, time, identity)``), per-shard module-global id
counters are swapped via :class:`_CounterScope` so names never depend
on backend or interleaving, and the per-shard digests merge into one
canonical hash — bit-identical between the inline and process
backends.  With ``shards == 1`` the run *is* the serial run and the
hash equals :func:`repro.workload.replay.replay_trace_hash`'s.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import multiprocessing
import typing as _t

from repro.sim.engine import Environment
from repro.sim.mailbox import Envelope, ShardPlan, plan_shards

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.config import ClusterConfig
    from repro.workload.trace import Trace

_INF = float("inf")


class _CounterScope:
    """Per-shard instances of the module-global id counters.

    Message ids, connection ids, and RPC channel ids are module-global
    ``itertools.count`` objects whose values reach trace-visible names
    (``xmit-read-17``, ``rpc-dispatch-...``).  Interleaving shards in
    one process — or forking workers from a parent whose counters have
    advanced — would make those names depend on the backend.  Each
    shard therefore owns fresh counters, swapped in around every
    segment of that shard's execution and swapped back out after, so
    every backend sees each shard count from 1 in isolation.
    """

    _TARGETS = (
        ("repro.net.message", "_msg_ids"),
        ("repro.net.sockets", "_conn_ids"),
        ("repro.svc.rpc", "_channel_ids"),
    )

    def __init__(self) -> None:
        import importlib

        self._modules = [
            (importlib.import_module(mod), attr)
            for mod, attr in self._TARGETS
        ]
        self._counters: list[_t.Any] = [
            itertools.count(1) for _ in self._modules
        ]
        self._saved: list[_t.Any] = []

    def __enter__(self) -> "_CounterScope":
        self._saved = [getattr(m, a) for m, a in self._modules]
        for (module, attr), counter in zip(self._modules, self._counters):
            setattr(module, attr, counter)
        return self

    def __exit__(self, *_exc: object) -> None:
        # Capture the advanced counters so the next segment resumes.
        self._counters = [getattr(m, a) for m, a in self._modules]
        for (module, attr), saved in zip(self._modules, self._saved):
            setattr(module, attr, saved)
        self._saved = []


def shard_placement(
    config: "ClusterConfig", trace: "Trace"
) -> dict[str, str]:
    """The replayer's global process-to-node placement, precomputed.

    Must equal what :class:`~repro.workload.replay.TraceReplayer`
    derives for the whole trace on the whole cluster — each shard sees
    only its local slice of the trace, so the global round-robin over
    *all* sorted process names has to be computed here and passed down
    explicitly.
    """
    nodes = config.compute_node_names()
    return {
        process: nodes[i % len(nodes)]
        for i, process in enumerate(trace.processes)
    }


class _ShardRun:
    """One shard's environment, cluster slice, and replay processes."""

    def __init__(
        self,
        config: "ClusterConfig",
        plan: ShardPlan,
        shard_id: int,
        trace: "Trace",
        preserve_timing: bool,
        hash_enabled: bool,
    ) -> None:
        from repro.cluster.cluster import Cluster
        from repro.workload.replay import TraceReplayer
        from repro.workload.trace import Trace as _Trace

        self.shard_id = shard_id
        self.scope = _CounterScope()
        with self.scope:
            self.env = Environment()
            if hash_enabled:
                self.env.enable_trace_hash()
            self.hash_enabled = hash_enabled
            self.cluster = Cluster(
                config, env=self.env, shard_plan=plan, shard_id=shard_id
            )
            placement = shard_placement(config, trace)
            local = [
                p
                for p in trace.processes
                if plan.shard_of(placement[p]) == shard_id
            ]
            events = [e for e in trace.events if e.process in set(local)]
            self.replayer = TraceReplayer(
                self.cluster,
                _Trace(events=events, meta=dict(trace.meta)),
                placement={p: placement[p] for p in local},
                preserve_timing=preserve_timing,
            )
            procs = self.replayer.spawn()
            self._done_event = (
                self.env.all_of(procs) if procs else None
            )
        self.mailbox = self.cluster.mailbox

    @property
    def lookahead_s(self) -> float:
        return self.cluster.network.fabric.lookahead_s

    @property
    def done(self) -> bool:
        """Every local replay process has finished (or none existed)."""
        return self._done_event is None or self._done_event.triggered

    def exchange(self, envelopes: _t.Sequence[Envelope]) -> tuple[float, bool]:
        """Inject inbound envelopes; report (next event time, done)."""
        if envelopes:
            assert self.mailbox is not None
            with self.scope:
                self.mailbox.inject(envelopes)
        return (self.env.peek(), self.done)

    def run(self, horizon: float, skew_s: float) -> list[Envelope]:
        """Run one quantum to ``horizon``; return produced envelopes."""
        with self.scope:
            self.env.note_barrier(skew_s)
            self.env.run_horizon(horizon)
        return self.mailbox.collect() if self.mailbox is not None else []

    def run_serial(self) -> None:
        """Single-shard mode: run to replay completion, exactly like
        the serial replayer (no horizons, no barriers)."""
        if self._done_event is not None:
            with self.scope:
                self.env.run(until=self._done_event)

    def finish(self) -> dict[str, _t.Any]:
        """Terminal per-shard result (everything picklable)."""
        with self.scope:
            self.cluster.record_network_metrics()
            self.cluster.record_scheduler_metrics()
        metrics = self.cluster.metrics
        return {
            "shard": self.shard_id,
            "digest": (
                self.env.trace_hash() if self.hash_enabled else None
            ),
            "sched": self.env.sched_stats(),
            "counters": dict(metrics.counters),
            "series": {k: list(v) for k, v in metrics.series.items()},
            "completion": dict(self.replayer.completion),
            "mailbox": (
                self.mailbox.stats_snapshot()
                if self.mailbox is not None
                else {}
            ),
        }


# -- backends ---------------------------------------------------------------
class _InlineShard:
    """Same-process shard handle (tests, CI, free-threaded builds)."""

    def __init__(self, *args: _t.Any) -> None:
        self._run = _ShardRun(*args)
        self.lookahead_s = self._run.lookahead_s
        self._state: tuple[float, bool] = (0.0, False)
        self._outbox: list[Envelope] = []

    def post_exchange(self, envelopes: list[Envelope]) -> None:
        self._state = self._run.exchange(envelopes)

    def wait_exchange(self) -> tuple[float, bool]:
        return self._state

    def post_run(self, horizon: float, skew_s: float) -> None:
        self._outbox = self._run.run(horizon, skew_s)

    def wait_run(self) -> list[Envelope]:
        return self._outbox

    def finish(self) -> dict[str, _t.Any]:
        return self._run.finish()

    def close(self) -> None:
        pass


def _shard_worker_main(
    conn: _t.Any,
    config: "ClusterConfig",
    plan: ShardPlan,
    shard_id: int,
    trace_text: str,
    preserve_timing: bool,
    hash_enabled: bool,
) -> None:
    """Worker-process entry point: serve one shard over a Pipe.

    The protocol is lock-step with the coordinator's barrier loop:
    ``("exchange", envelopes)`` → ``("state", next_t, done)``;
    ``("run", horizon, skew)`` → ``("out", envelopes)``;
    ``("finish",)`` → ``("result", dict)`` and exit.  Any exception is
    reported as ``("error", traceback_text)``.
    """
    import traceback

    from repro.workload.trace import loads

    try:
        run = _ShardRun(
            config, plan, shard_id, loads(trace_text),
            preserve_timing, hash_enabled,
        )
        conn.send(("ready", run.lookahead_s))
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "exchange":
                conn.send(("state", *run.exchange(msg[1])))
            elif op == "run":
                conn.send(("out", run.run(msg[1], msg[2])))
            elif op == "finish":
                conn.send(("result", run.finish()))
                return
            else:  # pragma: no cover - protocol error
                raise RuntimeError(f"unknown shard op {op!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
        raise


class _ProcessShard:
    """Worker-process shard handle (the default backend)."""

    def __init__(
        self,
        config: "ClusterConfig",
        plan: ShardPlan,
        shard_id: int,
        trace: "Trace",
        preserve_timing: bool,
        hash_enabled: bool,
    ) -> None:
        self.shard_id = shard_id
        ctx = multiprocessing.get_context()
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_shard_worker_main,
            args=(
                child, config, plan, shard_id, trace.dumps(),
                preserve_timing, hash_enabled,
            ),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        self._proc.start()
        child.close()
        kind, payload = self._recv()
        assert kind == "ready"
        self.lookahead_s = float(payload)

    def _recv(self) -> tuple[str, _t.Any]:
        try:
            msg = self._conn.recv()
        except EOFError:
            raise RuntimeError(
                f"shard worker {self.shard_id} exited unexpectedly "
                f"(exitcode={self._proc.exitcode})"
            ) from None
        if msg[0] == "error":
            raise RuntimeError(
                f"shard worker {self.shard_id} failed:\n{msg[1]}"
            )
        return msg[0], msg[1] if len(msg) == 2 else msg[1:]

    def post_exchange(self, envelopes: list[Envelope]) -> None:
        self._conn.send(("exchange", envelopes))

    def wait_exchange(self) -> tuple[float, bool]:
        kind, payload = self._recv()
        assert kind == "state"
        return (float(payload[0]), bool(payload[1]))

    def post_run(self, horizon: float, skew_s: float) -> None:
        self._conn.send(("run", horizon, skew_s))

    def wait_run(self) -> list[Envelope]:
        kind, payload = self._recv()
        assert kind == "out"
        return payload

    def finish(self) -> dict[str, _t.Any]:
        self._conn.send(("finish",))
        kind, payload = self._recv()
        assert kind == "result"
        return payload

    def close(self) -> None:
        self._conn.close()
        self._proc.join(timeout=10)
        if self._proc.is_alive():  # pragma: no cover - hung worker
            self._proc.terminate()
            self._proc.join(timeout=10)


# -- results ----------------------------------------------------------------
def merged_trace_hash(shard_hashes: _t.Sequence[str]) -> str:
    """Canonical merge of per-shard schedule digests.

    With one shard this is that shard's digest unchanged — a
    single-shard "parallel" run hashes identically to the serial
    engine.
    """
    if len(shard_hashes) == 1:
        return shard_hashes[0]
    acc = hashlib.blake2b(digest_size=16)
    for i, digest in enumerate(shard_hashes):
        acc.update(f"{i}:{digest}\n".encode())
    return acc.hexdigest()


@dataclasses.dataclass
class ShardedOutcome:
    """Merged result of one sharded (or single-shard) replay."""

    shards: int
    backend: str
    #: Canonical schedule hash (``None`` unless hashing was enabled).
    trace_hash: str | None
    #: Per-shard schedule digests, shard order.
    shard_hashes: list[str] | None
    #: Slowest process's elapsed replay time (the serial makespan).
    total_time: float
    #: Per-process elapsed replay times, merged across shards.
    completion: dict[str, float]
    #: Metric counters summed across shards.
    counters: dict[str, int]
    #: Metric series concatenated in shard order.
    series: dict[str, list[float]]
    #: Per-shard ``sched_stats()`` snapshots, shard order.
    shard_sched: list[dict[str, int]]
    #: Lookahead barriers the coordinator crossed.
    barriers: int

    @property
    def events_processed(self) -> int:
        """Events processed across all shards."""
        return sum(s["events_processed"] for s in self.shard_sched)

    @property
    def max_shard_events(self) -> int:
        """Largest per-shard event count (the parallel critical path)."""
        return max(s["events_processed"] for s in self.shard_sched)

    def mean_series(self, name: str) -> float:
        """Mean of a merged metric series (NaN when empty, matching
        :meth:`repro.metrics.collector.Metrics.mean`)."""
        values = self.series.get(name, [])
        return sum(values) / len(values) if values else math.nan


# -- driver -----------------------------------------------------------------
def run_sharded_replay(
    config: "ClusterConfig",
    trace: "Trace",
    shards: int | None = None,
    backend: str | None = None,
    preserve_timing: bool = False,
    hash_enabled: bool | None = None,
) -> ShardedOutcome:
    """Replay ``trace`` on ``config``'s cluster across shard workers.

    ``shards``/``backend`` default to the config's resolved values;
    ``hash_enabled`` defaults to whether ``REPRO_TRACE_HASH`` is set
    (matching serial :class:`Environment` construction).  The returned
    outcome carries the merged canonical trace hash, per-process
    completions, and summed metrics — everything the serial
    ``run_instances`` path reports, minus the live ``Cluster`` object
    (each shard's cluster dies with its worker).
    """
    import os

    from repro.sim.engine import TRACE_HASH_ENV_VAR

    config = config.resolved()  # its seams are never None
    n: int = config.engine_shards if shards is None else shards
    if n < 1:
        raise ValueError(f"need at least one shard, got {n}")
    mode: str = config.shard_backend if backend is None else backend
    if hash_enabled is None:
        hash_enabled = os.environ.get(
            TRACE_HASH_ENV_VAR, ""
        ) not in ("", "0")

    # The shards see the resolved seams, so a worker never re-resolves
    # (differently); it must also never recurse into sharding or
    # re-load the trace source.
    config = dataclasses.replace(
        config, trace_source=None, engine_shards=1, shard_backend=None
    )
    plan = plan_shards(
        config.compute_node_names(), config.iod_node_names(), n
    )

    if n == 1:
        # Degenerate case: one shard is the serial engine, run without
        # horizons so the schedule (and hash) is exactly serial.
        run = _ShardRun(config, plan, 0, trace, preserve_timing, hash_enabled)
        run.run_serial()
        return _assemble([run.finish()], n, "inline", barriers=0)

    if mode == "inline":
        handles: list[_t.Any] = [
            _InlineShard(config, plan, i, trace, preserve_timing, hash_enabled)
            for i in range(n)
        ]
    elif mode == "process":
        handles = [
            _ProcessShard(config, plan, i, trace, preserve_timing, hash_enabled)
            for i in range(n)
        ]
    else:
        raise ValueError(f"unknown shard backend {mode!r}")

    try:
        barriers = _drive(handles)
        results = [h.finish() for h in handles]
    finally:
        for h in handles:
            h.close()
    return _assemble(results, n, mode, barriers=barriers)


def _drive(handles: _t.Sequence[_t.Any]) -> int:
    """The coordinator's barrier loop; returns barriers crossed.

    Every decision is a pure function of deterministic shard state
    (next-event times, done flags, outboxes), so the loop executes the
    same quantum sequence on every backend and every run.
    """
    lookahead = min(h.lookahead_s for h in handles)
    if lookahead <= 0:
        raise ValueError(
            "conservative sharding needs a positive fabric lookahead "
            f"(min base latency), got {lookahead}"
        )
    barriers = 0
    pending: list[Envelope] = []
    while True:
        routed: list[list[Envelope]] = [[] for _ in handles]
        for envelope in pending:
            routed[envelope.dst_shard].append(envelope)
        pending = []
        for handle, envelopes in zip(handles, routed):
            handle.post_exchange(envelopes)
        states = [handle.wait_exchange() for handle in handles]
        if all(done for _next, done in states):
            return barriers
        frontiers = [t for t, _done in states if t != _INF]
        if not frontiers:  # pragma: no cover - protocol invariant
            raise RuntimeError(
                "sharded replay deadlocked: unfinished shards but no "
                "scheduled events or in-flight envelopes"
            )
        t_min = min(frontiers)
        horizon = t_min + lookahead
        skew = max(frontiers) - t_min
        for handle in handles:
            handle.post_run(horizon, skew)
        for handle in handles:
            pending.extend(handle.wait_run())
        barriers += 1


def _assemble(
    results: list[dict[str, _t.Any]],
    shards: int,
    backend: str,
    barriers: int,
) -> ShardedOutcome:
    results = sorted(results, key=lambda r: r["shard"])
    digests = [r["digest"] for r in results]
    hashed = all(d is not None for d in digests)
    counters: dict[str, int] = {}
    series: dict[str, list[float]] = {}
    completion: dict[str, float] = {}
    for result in results:
        for key, value in result["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, values in result["series"].items():
            series.setdefault(key, []).extend(values)
        completion.update(result["completion"])
    return ShardedOutcome(
        shards=shards,
        backend=backend,
        trace_hash=merged_trace_hash(digests) if hashed else None,
        shard_hashes=list(digests) if hashed else None,
        total_time=max(completion.values(), default=0.0),
        completion=completion,
        counters=counters,
        series=series,
        shard_sched=[r["sched"] for r in results],
        barriers=barriers,
    )
