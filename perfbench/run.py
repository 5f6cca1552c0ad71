"""End-to-end benchmark of the simulated cluster and of the simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload share_read --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload's sub-runs, repeats them until
``--seconds`` have passed and reports the end-to-end metrics;
``--trace 1`` makes one separate traced run and reports the per-layer
metrics.  Every run checks the simulated outputs.  The last line of standard output is one JSON
object; the lines above it are a readable table.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import typing as _t

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Variables that would change what is measured: a trace replacing
#: the workload, the engine's instrumented loop, or extra processes.
#: The model seams are pinned in the cluster config instead.
REFUSED_ENV = (
    "REPRO_TRACE",
    "REPRO_TRACE_HASH",
    "REPRO_SANITIZE",
    "REPRO_SANITIZE_EVERY",
    "REPRO_SWEEP_WORKERS",
    "REPRO_ENGINE_SHARDS",
)

#: (name, unit) of every end-to-end metric, reported with --trace 0.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("makespan_s", "s"),
    ("completed_ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
)

#: (name, unit) of every per-layer metric, reported with --trace 1.
PER_LAYER = (
    *((f"{pkg}.host_self_s", "s") for pkg in (
        "sim", "cache", "net", "disk", "pvfs", "svc", "cluster", "workload",
        "metrics", "other",
    )),
    ("sim.events", "count"),
    ("sim.host_us_per_event", "us"),
    ("sim.queue_depth_hw", "count"),
    ("sim.timers_cancelled", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.pending_waits", "count"),
    ("cache.fetch_bytes_per_read_byte", "ratio"),
    ("cache.select_victims.calls", "count"),
    ("cache.select_victims.host_us_per_call", "us"),
    ("cache.victims_per_call", "count"),
    ("cache.evictions", "count"),
    ("harvester.activations", "count"),
    ("harvester.dirty_flushes", "count"),
    ("cache.alloc_wait_ms.p99", "ms"),
    ("flusher.bytes_per_batch", "B"),
    ("cache.invalidations_received", "count"),
    ("iod.invalidations_sent", "count"),
    ("iod.sync_writes", "count"),
    ("net.messages", "count"),
    ("net.frames", "count"),
    ("net.wire_busy_frac", "ratio"),
    ("net.deliver_ms.p50", "ms"),
    ("net.deliver_ms.p99", "ms"),
    ("disk.io_ms.p50", "ms"),
    ("disk.io_ms.p99", "ms"),
    ("disk.busy_frac", "ratio"),
    ("iod.pagecache_hit_ratio", "ratio"),
    ("iod.flushed_bytes", "B"),
    ("mgr.ops", "count"),
    ("client.open_ms.p99", "ms"),
    ("iod.reads", "count"),
    ("svc.bus_events", "count"),
    ("workload.generate_s", "s"),
    ("cluster.build_s", "s"),
    ("metrics.samples", "count"),
    ("trace.overhead_frac", "ratio"),
)


#: Host seconds of one :func:`reference_seconds` slice at the
#: reference speed: a round figure within the 10 to 27 ms the slice
#: took on the 2.1 GHz 2-vCPU VM the workloads were sized on.
REFERENCE_SLICE_S = 0.015

#: Seconds of timed work between two reference slices.
SAMPLE_PERIOD_S = 0.25


def reference_seconds(processes: int = 16, steps: int = 500) -> float:
    """Host time of a fixed pure-Python event loop: one reference slice.

    Generator processes exchange timeouts through a heap of small
    event objects, with dict and list traffic: the simulator's kind of
    work, sharing none of its code.  :class:`HostClock` times slices
    of it during a timed section to measure how fast the host runs
    Python at that moment.
    """
    import heapq

    class Entry:
        __slots__ = ("time", "seq", "gen")

        def __init__(self, time: float, seq: int, gen: _t.Generator) -> None:
            self.time = time
            self.seq = seq
            self.gen = gen

        def __lt__(self, other: "Entry") -> bool:
            return (self.time, self.seq) < (other.time, other.seq)

    start = time.perf_counter()
    table: dict[int, int] = {}
    log: list[float] = []

    def process(seed: int) -> _t.Generator:
        x = seed
        for _ in range(steps):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            table[x & 255] = table.get(x & 255, 0) + 1
            log.append((yield (x % 1000) / 1e6))

    heap: list[Entry] = []
    for seq in range(processes):
        gen = process(seq)
        heapq.heappush(heap, Entry(next(gen), seq, gen))
    seq = processes
    while heap:
        entry = heapq.heappop(heap)
        try:
            delay = entry.gen.send(entry.time)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(heap, Entry(entry.time + delay, seq, entry.gen))
    return time.perf_counter() - start


class HostClock:
    """Times a section in reference seconds, tracking host speed inside it.

    On a shared host the speed at which Python runs changes by up to a
    factor of two from one second to the next.  So a reference slice
    runs when the section starts, when it ends and, from a ``SIGALRM``
    interval timer, every ``period`` seconds in between.  Each
    stretch of the section between two slices is divided by the mean
    of those two slices' times and multiplied by
    :data:`REFERENCE_SLICE_S`; :attr:`seconds` sums the stretches, so
    it reads as seconds on a host running at the reference speed.
    :attr:`raw_s` is the section's plain host time, slices left out.
    The slices only spend host time: the simulation is not touched.
    With ``period=None`` slices run at the ends only, for a section
    that waits on a child process; with ``sample=False`` none run and
    :attr:`raw_s` is the plain host time.
    """

    def __init__(self, sample: bool = True, period: float | None = SAMPLE_PERIOD_S) -> None:
        self.sample = sample
        self.period = period
        self.seconds = 0.0
        self.raw_s = 0.0
        self.slices: list[float] = []
        self._last: tuple[float, float] | None = None
        self._busy = False

    def _slice(self) -> None:
        if self._busy:
            return
        self._busy = True
        began = time.perf_counter()
        took = reference_seconds()
        if self._last is not None:
            ended, before = self._last
            stretch = began - ended
            self.raw_s += stretch
            self.seconds += stretch * REFERENCE_SLICE_S * 2 / (before + took)
        self.slices.append(took)
        self._last = (time.perf_counter(), took)
        self._busy = False

    def __enter__(self) -> "HostClock":
        if not self.sample:
            self._start = time.perf_counter()
            return self
        self._slice()
        if self.period is not None:
            self._handler = signal.signal(signal.SIGALRM, lambda _s, _f: self._slice())
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *_exc: object) -> None:
        if not self.sample:
            self.raw_s = time.perf_counter() - self._start
            return
        if self.period is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._handler)
        self._slice()


class Rep:
    """One run of a workload: host timings, its result, failed checks.

    Untraced, every host time is taken with a sampling
    :class:`HostClock`; traced, with a plain one, so the profile and
    the overhead figure see no reference slice.
    """

    def __init__(self, workload: _t.Any, traced: bool) -> None:
        from layers import BusCounter, SpanTracer

        self.seed = workload.seed
        with HostClock(sample=not traced) as generate:
            workload.generate()
        with HostClock(sample=not traced) as build:
            cluster = workload.build()
        self.setup_s = generate.seconds + build.seconds
        self.generate_s = generate.raw_s
        self.build_s = build.raw_s
        self.tracer = self.bus = self.profile = None
        if traced:
            import cProfile

            self.bus = BusCounter(cluster.env)
            self.profile = cProfile.Profile()
            self.profile.enable()
        with HostClock(sample=not traced) as clock:
            workload.warm()
            if traced:
                # Spans cover the measured phase only, like the counters.
                self.tracer = SpanTracer(cluster)
            workload.run()
        if self.profile is not None:
            self.profile.disable()
        self.host_s = clock.seconds
        self.wall_s = clock.raw_s
        self.slices = clock.slices
        self.window = workload.window()
        self.result = workload.result()
        self.cluster = cluster
        self.problems = _check(self.result)

    def teardown(self) -> None:
        """Drain and stop the cluster, adding any failed check."""
        from workloads import check_teardown

        self.problems += check_teardown(self.cluster)
        self.cluster = None


def _check(result: _t.Any) -> list[str]:
    problems = []
    if result.ops_completed != result.ops_defined:
        problems.append(
            f"{result.ops_completed} of {result.ops_defined} ops completed"
        )
    if result.read_bytes_done != result.read_bytes_requested:
        problems.append(
            f"client read {result.read_bytes_done} bytes of "
            f"{result.read_bytes_requested} requested"
        )
    return problems


def import_seconds(runs: int = 7) -> float:
    """Median time, in reference seconds, for a fresh interpreter to
    start and import the simulator and the benchmark."""
    code = f"import sys; sys.path[:0] = {[HERE, SRC]!r}; import workloads, layers"
    times = []
    for _ in range(runs):
        with HostClock(period=None) as clock:
            subprocess.run([sys.executable, "-c", code], check=True)
        times.append(clock.seconds)
    return statistics.median(times)


def _execute(cls: _t.Any, seed: int, scale: float) -> Rep:
    """One untraced run, torn down and checked."""
    gc.collect()
    rep = Rep(cls(seed, scale), traced=False)
    rep.teardown()
    return rep


def _pooled(results: list[_t.Any]) -> tuple[dict[str, list[float]], int, int]:
    """Latencies by op kind over several runs, ops defined, ops done."""
    latencies: dict[str, list[float]] = {}
    for result in results:
        for op, samples in result.latencies.items():
            latencies.setdefault(op, []).extend(samples)
    return (
        latencies,
        sum(r.ops_defined for r in results),
        sum(r.ops_completed for r in results),
    )


def end_to_end(
    cls: _t.Any, seeds: list[int], first: list[Rep], runs: list[Rep]
) -> dict[str, float]:
    """The end-to-end metrics: simulated ones pooled over the
    workload's sub-runs; host times in reference seconds, as the mean
    over the sub-runs of each sub-run's median over its executions."""
    from layers import percentile

    results = [r.result for r in first]
    latencies, _defined, completed = _pooled(results)
    primary = latencies[cls.primary_op]
    makespans = [r.makespan_s for r in results]

    def per_subrun(value: _t.Callable[[Rep], float]) -> float:
        by_seed: dict[int, list[float]] = {}
        for rep in runs:
            by_seed.setdefault(rep.seed, []).append(value(rep))
        return statistics.fmean(statistics.median(by_seed[s]) for s in seeds)

    return {
        "wall_s": per_subrun(lambda r: r.host_s),
        "setup_s": import_seconds() + per_subrun(lambda r: r.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "makespan_s": statistics.fmean(makespans),
        "completed_ops_per_s": completed / sum(makespans),
        "op_p50_ms": percentile(primary, 50) * 1e3,
        "op_p99_ms": percentile(primary, 99) * 1e3,
    }


def by_op(results: list[_t.Any]) -> list[tuple[str, float, str, int]]:
    """Per-op-kind latency percentiles, lag and failures, pooled over
    sub-runs: the end-to-end figures that apply to some workloads only."""
    from layers import percentile

    latencies, defined, completed = _pooled(results)
    rows = []
    for op, tail in (("read", 99), ("write", 99), ("sync_write", 95)):
        samples = latencies.get(op, [])
        if samples:
            rows.append((f"{op}_p50_ms", percentile(samples, 50) * 1e3, "ms", len(samples)))
            rows.append((f"{op}_p{tail}_ms", percentile(samples, tail) * 1e3, "ms", len(samples)))
    lags = [r.lag_s for r in results if r.lag_s is not None]
    if lags:
        rows.append(("lag_s", max(lags), "s", len(lags)))
    rows.append(("failed_ops_frac", (defined - completed) / defined, "ratio", defined))
    return rows


def per_layer(traced: Rep, baseline: list[Rep]) -> dict[str, float]:
    """The per-layer metrics of one traced run against untraced ones."""
    import pstats

    from layers import host_self_by_package, percentile, profile_entry

    cluster = traced.cluster
    stats = pstats.Stats(traced.profile)
    result = traced.result
    counters = result.counters
    tracer = traced.tracer

    def count(name: str) -> int:
        return counters.get(name, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: dict[str, float] = {
        f"{pkg}.host_self_s": seconds
        for pkg, seconds in host_self_by_package(stats).items()
    }
    base_wall = statistics.median(r.wall_s for r in baseline)
    sched = cluster.env.sched_stats()
    victim_calls, victim_cum = profile_entry(stats, "cache/clock.py", "select_victims")
    window = traced.window
    duration = window["duration_s"]
    metrics.update({
        "sim.events": result.events,
        "sim.host_us_per_event": base_wall / result.events * 1e6,
        "sim.queue_depth_hw": sched["queue_depth_hw"],
        "sim.timers_cancelled": sched["timers_cancelled"],
        "cache.hit_ratio": ratio(count("cache.hits"), count("cache.hits") + count("cache.misses")),
        "cache.pending_waits": count("cache.pending_waits"),
        "cache.fetch_bytes_per_read_byte": ratio(count("cache.fetched_bytes"), count("client.read_bytes")),
        "cache.select_victims.calls": tracer.victim_calls,
        "cache.select_victims.host_us_per_call": ratio(victim_cum, victim_calls) * 1e6,
        "cache.victims_per_call": ratio(tracer.victims, tracer.victim_calls),
        "cache.evictions": count("cache.evictions"),
        "harvester.activations": count("harvester.activations"),
        "harvester.dirty_flushes": count("harvester.dirty_flushes"),
        "cache.alloc_wait_ms.p99": percentile(tracer.durations("alloc.get_or_allocate"), 99) * 1e3,
        "flusher.bytes_per_batch": ratio(count("flusher.bytes"), count("flusher.batches")),
        "cache.invalidations_received": count("cache.invalidations_received"),
        "iod.invalidations_sent": count("iod.invalidations_sent"),
        "iod.sync_writes": count("iod.sync_writes"),
        "net.messages": window["messages"],
        "net.frames": window["frames"],
        "net.wire_busy_frac": ratio(window["wire_busy_s"], duration * window["nodes"]),
        "net.deliver_ms.p50": percentile(tracer.durations("net.deliver"), 50) * 1e3,
        "net.deliver_ms.p99": percentile(tracer.durations("net.deliver"), 99) * 1e3,
        "disk.io_ms.p50": percentile(tracer.durations("disk.io"), 50) * 1e3,
        "disk.io_ms.p99": percentile(tracer.durations("disk.io"), 99) * 1e3,
        "disk.busy_frac": ratio(window["disk_busy_s"], duration * window["disks"]),
        "iod.pagecache_hit_ratio": ratio(
            count("iod.pagecache_hits"),
            count("iod.pagecache_hits") + count("iod.pagecache_misses"),
        ),
        "iod.flushed_bytes": count("iod.flushed_bytes"),
        "mgr.ops": sum(count(f"mgr.{k}") for k in ("opens", "stats", "lists", "unlinks")),
        "client.open_ms.p99": percentile(tracer.durations("client.open"), 99) * 1e3,
        "iod.reads": count("iod.reads"),
        "svc.bus_events": traced.bus.events,
        "workload.generate_s": statistics.median(r.generate_s for r in (*baseline, traced)),
        "cluster.build_s": statistics.median(r.build_s for r in (*baseline, traced)),
        "metrics.samples": sum(len(v) for v in cluster.metrics.series.values()),
        "trace.overhead_frac": traced.wall_s / base_wall - 1.0,
    })
    return metrics


def subrun_seeds(cls: _t.Any, seed: int) -> list[int]:
    """The seeds of a workload's sub-runs, derived from ``seed``."""
    return [seed * 1000 + k for k in range(cls.subruns)]


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
) -> dict[str, _t.Any]:
    """Run one benchmark measurement; returns the result object.

    Untraced: every sub-run once (the simulated metrics pool these),
    then sub-runs again, in turn, until ``seconds`` have passed; each
    repeat must reproduce its first run exactly.  Traced: the first
    sub-run twice untraced, then once traced, which must reproduce
    them.  ``scale`` shrinks the workload (tests use a tiny one); the
    benchmark itself always runs at 1.
    """
    from workloads import WORKLOADS

    start = time.perf_counter()
    cls = WORKLOADS[name]
    seeds = subrun_seeds(cls, seed)
    if trace:
        first = [_execute(cls, seeds[0], scale) for _ in range(2)]
        gc.collect()
        traced = Rep(cls(seeds[0], scale), traced=True)
        values = per_layer(traced, first)
        traced.teardown()
        repeats = [(0, first[1]), (0, traced)]
        first = first[:1]
    else:
        first = [_execute(cls, s, scale) for s in seeds]
        repeats = []
        while not repeats or time.perf_counter() - start < seconds:
            k = len(repeats) % len(seeds)
            repeats.append((k, _execute(cls, seeds[k], scale)))
    runs = [*first, *(rep for _k, rep in repeats)]
    problems = [p for r in runs for p in r.problems]
    for k, rep in repeats:
        if rep.result.fingerprint() != first[k].result.fingerprint():
            what = "traced run" if rep.tracer is not None else "repeat"
            problems.append(f"{what} of seed {seeds[k]} differs in simulated results")
    if not trace:
        values = end_to_end(cls, seeds, first, runs)
    units = dict(PER_LAYER if trace else END_TO_END)
    return {
        "correct": not problems,
        "attempted": sum(r.result.ops_defined for r in runs),
        "failed": sum(r.result.ops_defined - r.result.ops_completed for r in runs),
        "metrics": {
            key: {"value": values[key], "unit": unit} for key, unit in units.items()
        },
        "_problems": problems,
        "_first": first,
        "_runs": runs,
    }


def _report(name: str, seed: int, out: dict[str, _t.Any], trace: bool) -> None:
    from workloads import SEAMS, WORKLOADS

    cls = WORKLOADS[name]
    print(f"workload {name}  seed {seed}  loop {cls.loop}  runs {len(out['_runs'])}  "
          f"sub-run seeds {subrun_seeds(cls, seed)}")
    print("seams " + " ".join(f"{k}={v}" for k, v in SEAMS.items()))
    for key, entry in out["metrics"].items():
        print(f"  {key:40s} {entry['value']:>16.6g} {entry['unit']}")
    if not trace:
        for key, value, unit, n in by_op([r.result for r in out["_first"]]):
            print(f"  {key:40s} {value:>16.6g} {unit}  (n={n})")
        runs = out["_runs"]
        slices = [t for r in runs for t in r.slices]
        print(f"  host speed: median reference slice {statistics.median(slices) * 1e3:.2f} ms "
              f"over {len(slices)} slices (reference {REFERENCE_SLICE_S * 1e3:g} ms); "
              f"median host time per sub-run {statistics.median(r.wall_s for r in runs):.4f} s")
    else:
        traced = out["_runs"][-1]
        print("  simulated-time spans (traced run):")
        print(f"    {'span':26s} {'count':>8s} {'total_s':>10s} {'self_s':>10s} "
              f"{'p50_ms':>9s} {'p99_ms':>9s}")
        for span, row in traced.tracer.table().items():
            print(f"    {span:26s} {row['count']:8d} {row['total_s']:10.4f} "
                  f"{row['self_s']:10.4f} {row['p50_ms']:9.3f} {row['p99_ms']:9.3f}")
    for problem in out["_problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    refused = [v for v in REFUSED_ENV if os.environ.get(v)]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    _report(args.workload, args.seed, out, bool(args.trace))
    print(json.dumps({k: v for k, v in out.items() if not k.startswith("_")}))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
