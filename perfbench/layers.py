"""Per-layer measurement for the traced run.

Three recorders, all attached from outside the library:

* :func:`host_self_by_package` folds a cProfile run into host self
  time per ``repro`` package.
* :class:`SpanTracer` wraps public layer entry points of one cluster
  by delegation and records simulated-time spans.  A generator entry
  point is wrapped by a generator that ``yield from``\\ s the original,
  and an event-returning one gets a callback on its done event, so
  tracing adds no scheduled event and leaves the schedule untouched.
* :class:`BusCounter` counts svc bus records.
"""

from __future__ import annotations

import math
import os
import pstats
import typing as _t

import repro

#: The ``src/repro`` packages on a benchmark run's path.
PACKAGES = (
    "sim", "cache", "net", "disk", "pvfs", "svc", "cluster", "workload",
    "metrics",
)

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def package_of(filename: str) -> str | None:
    """The listed ``repro`` package a source file belongs to, if any."""
    if not filename.startswith(_REPRO_DIR):
        return None
    head = filename[len(_REPRO_DIR):].split(os.sep, 1)[0]
    return head if head in PACKAGES else None


def host_self_by_package(stats: pstats.Stats) -> dict[str, float]:
    """Host self seconds per package, plus ``other``.

    Code outside the listed packages (built-ins, the standard library,
    helpers such as ``repro.analysis``'s no-op critical sections) is
    charged to the package of its immediate caller, so a C call made
    by the engine counts as engine time.  What is left, mostly the
    benchmark's own driver and tracing wrappers, is ``other``.
    """
    totals = dict.fromkeys((*PACKAGES, "other"), 0.0)
    for (filename, _line, _name), entry in stats.stats.items():  # type: ignore[attr-defined]
        tottime, callers = entry[2], entry[4]
        pkg = package_of(filename)
        if pkg is not None:
            totals[pkg] += tottime
            continue
        charged = 0.0
        for (caller_file, _l, _n), caller_entry in callers.items():
            caller_pkg = package_of(caller_file) or "other"
            totals[caller_pkg] += caller_entry[2]
            charged += caller_entry[2]
        totals["other"] += max(0.0, tottime - charged)
    return totals


def profile_entry(
    stats: pstats.Stats, module_suffix: str, func: str
) -> tuple[int, float]:
    """``(calls, cumulative seconds)`` of one profiled function."""
    suffix = os.sep + module_suffix.replace("/", os.sep)
    calls, cum = 0, 0.0
    for (filename, _line, name), entry in stats.stats.items():  # type: ignore[attr-defined]
        if name == func and filename.endswith(suffix):
            calls += entry[1]
            cum += entry[3]
    return calls, cum


def percentile(data: _t.Sequence[float], q: float) -> float:
    """Nearest-rank percentile (as ``Metrics.percentile``); 0 if empty."""
    if not data:
        return 0.0
    ordered = sorted(data)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


class Span:
    """One traced call: simulated start/end and the span that caused it."""

    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: float, parent: "Span | None") -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        #: Spans under one client call share the root span's op id.
        self.op = parent.op if parent is not None else id(self)


class SpanTracer:
    """Simulated-time spans around a cluster's layer entry points."""

    #: (span name prefix, which objects, their generator methods).
    GENERATOR_POINTS = (
        ("cache", "cache_modules", ("read", "write", "sync_write")),
        ("alloc", "managers", ("get_or_allocate",)),
        ("disk", "disks", ("io", "io_batch")),
    )

    def __init__(self, cluster: _t.Any) -> None:
        self.env = cluster.env
        self.spans: list[Span] = []
        self.victim_calls = 0
        self.victims = 0
        self._stacks: dict[_t.Any, list[Span]] = {}
        modules = list(cluster.cache_modules.values())
        targets = {
            "cache_modules": modules,
            "managers": [m.manager for m in modules],
            "disks": [n.disk for n in cluster.nodes.values() if n.disk is not None],
        }
        for name, where, methods in self.GENERATOR_POINTS:
            for obj in targets[where]:
                for method in methods:
                    self._wrap_generator(obj, method, f"{name}.{method}")
        for manager in targets["managers"]:
            self._wrap_select_victims(manager)
        self._wrap_deliver(cluster.network)
        make_client = cluster.client

        def client(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
            instance = make_client(*args, **kwargs)
            for method in ("open", "read", "write", "sync_write"):
                self._wrap_generator(instance, method, f"client.{method}")
            return instance

        cluster.client = client

    # -- recording ---------------------------------------------------------
    def _top(self) -> Span | None:
        stack = self._stacks.get(self.env.active_process)
        return stack[-1] if stack else None

    def _wrap_generator(self, obj: _t.Any, method: str, name: str) -> None:
        original = getattr(obj, method)
        tracer = self

        def traced(*args: _t.Any, **kwargs: _t.Any) -> _t.Generator:
            return tracer._delegate(
                original(*args, **kwargs), name, tracer._top()
            )

        setattr(obj, method, traced)

    def _delegate(
        self, inner: _t.Generator, name: str, parent: Span | None
    ) -> _t.Generator:
        env = self.env
        span = Span(name, env.now, parent)
        process = env.active_process
        stack = self._stacks.setdefault(process, [])
        stack.append(span)
        try:
            return (yield from inner)
        finally:
            stack.pop()
            if not stack:
                del self._stacks[process]
            span.end = env.now
            self.spans.append(span)

    def _wrap_deliver(self, network: _t.Any) -> None:
        original = network.deliver
        tracer = self

        def deliver(message: _t.Any, inbox: _t.Any) -> _t.Any:
            span = Span("net.deliver", tracer.env.now, tracer._top())
            done = original(message, inbox)

            def finish(_event: _t.Any) -> None:
                span.end = tracer.env.now
                tracer.spans.append(span)

            done.add_callback(finish)
            return done

        network.deliver = deliver

    def _wrap_select_victims(self, manager: _t.Any) -> None:
        original = manager.select_victims
        tracer = self

        def select_victims(n: int) -> list:
            victims = original(n)
            tracer.victim_calls += 1
            tracer.victims += len(victims)
            return victims

        manager.select_victims = select_victims

    # -- summaries ---------------------------------------------------------
    def self_times(self) -> dict[Span, float]:
        """Each span's duration minus the part its child spans cover."""
        children: dict[Span, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(
                    (max(span.start, span.parent.start),
                     min(span.end, span.parent.end))
                )
        result = {}
        for span in self.spans:
            covered = 0.0
            reach = -math.inf
            for start, end in sorted(children.get(span, ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            result[span] = span.end - span.start - covered
        return result

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total and self seconds, p50/p99 ms."""
        selfs = self.self_times()
        by_name: dict[str, list[Span]] = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)
        rows = {}
        for name, spans in sorted(by_name.items()):
            durations = [s.end - s.start for s in spans]
            rows[name] = {
                "count": len(spans),
                "total_s": sum(durations),
                "self_s": sum(selfs[s] for s in spans),
                "p50_ms": percentile(durations, 50) * 1e3,
                "p99_ms": percentile(durations, 99) * 1e3,
            }
        return rows

    def durations(self, *names: str) -> list[float]:
        """Durations of every span with one of ``names``."""
        return [s.end - s.start for s in self.spans if s.name in names]


class BusCounter:
    """Counts the records published on a cluster's svc bus."""

    def __init__(self, env: _t.Any) -> None:
        from repro.svc.events import get_bus

        self.events = 0
        self.detach = get_bus(env).subscribe(self._count)

    def _count(self, _record: _t.Any) -> None:
        self.events += 1
