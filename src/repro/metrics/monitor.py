"""Monitoring of simulated daemons.

:class:`DaemonMonitor` subscribes to the service runtime's
instrumentation bus (:mod:`repro.svc.events`) — no polling — and
aggregates the typed event records each daemon emits.  The per-daemon
summary table (messages handled, queue-depth high-water mark, busy
time) comes from :func:`daemon_table`.

Example::

    from repro.svc import get_bus
    print(daemon_table(get_bus(cluster.env)))
"""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.svc.events import InstrumentationBus, ServiceEvent


class DaemonMonitor:
    """Event-driven view of the cluster's daemons.

    Subscribes to the instrumentation bus (push, not poll): every
    record a service emits lands here the moment it happens, so the
    monitor sees short-lived spikes that interval sampling would miss.
    """

    def __init__(self, bus: "InstrumentationBus", keep_records: int = 0) -> None:
        self.bus = bus
        #: (service, kind) -> count of observed event records.
        self.event_counts: dict[tuple[str, str], int] = {}
        #: mgr shard -> count of ``metadata_op`` records it served.
        self.metadata_ops: dict[int, int] = {}
        #: mgr shard -> invalidation notices the iods fanned out for
        #: files that shard owns (its slice of coherence traffic).
        self.invalidation_fanout: dict[int, int] = {}
        #: Ring of the most recent records (0 == counting only).
        self.keep_records = keep_records
        self.records: list["ServiceEvent"] = []
        self._detach = bus.subscribe(self._on_event)

    def _on_event(self, record: "ServiceEvent") -> None:
        key = (record.service, record.kind)
        self.event_counts[key] = self.event_counts.get(key, 0) + 1
        # Per-mgr-shard aggregation: the shard number rides in the
        # record detail because always-on ServiceStats only count by
        # kind (mgr.py tags metadata_op, iod.py tags invalidation).
        if record.kind == "metadata_op":
            shard = int(record.detail.get("shard", 0))
            self.metadata_ops[shard] = self.metadata_ops.get(shard, 0) + 1
        elif record.kind == "invalidation" and "mgr_shard" in record.detail:
            # Only the iod's fan-out records carry the owning shard;
            # the cache module's receive-side records do not and must
            # not be double-counted here.
            shard = int(record.detail["mgr_shard"])
            self.invalidation_fanout[shard] = (
                self.invalidation_fanout.get(shard, 0) + 1
            )
        if self.keep_records:
            self.records.append(record)
            if len(self.records) > self.keep_records:
                del self.records[: -self.keep_records]

    def close(self) -> None:
        """Unsubscribe from the bus."""
        self._detach()

    def count(self, service: str, kind: str) -> int:
        """Observed records of ``kind`` from ``service``."""
        return self.event_counts.get((service, kind), 0)

    def table(self) -> str:
        """The per-daemon summary table (see :func:`daemon_table`)."""
        return daemon_table(self.bus)

    def mgr_shard_table(self, duration_s: float | None = None) -> str:
        """Per-metadata-shard summary (one row per mgr shard).

        Columns: shard, node, metadata ops served, ops/sec of
        simulated time (when ``duration_s`` is given), queue-depth
        high-water mark, and the invalidation fan-out charged to the
        files that shard owns.  Shard 0 of a single-shard cluster is
        the plain ``mgr`` daemon.
        """
        shards: dict[int, _t.Any] = {}
        for stats in self.bus.stats.values():
            name = stats.service
            if name == "mgr":
                shards[0] = stats
            elif name.startswith("mgr") and name[3:].isdigit():
                shards[int(name[3:])] = stats
        if not shards:
            return "(no mgr shards registered)"
        header = ["shard", "node", "meta-ops", "ops/s", "q-high", "inval-out"]
        rows = []
        for shard in sorted(shards):
            stats = shards[shard]
            ops = self.metadata_ops.get(shard, 0)
            rate = (
                f"{ops / duration_s:.1f}"
                if duration_s and duration_s > 0
                else "-"
            )
            rows.append(
                [
                    str(shard),
                    stats.node or "-",
                    str(ops),
                    rate,
                    str(stats.queue_high_water),
                    str(self.invalidation_fanout.get(shard, 0)),
                ]
            )
        widths = [
            max(len(header[c]), *(len(r[c]) for r in rows))
            for c in range(len(header))
        ]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


def daemon_table(bus: "InstrumentationBus") -> str:
    """Render every registered daemon's always-on stats as a table.

    Columns: daemon, node, lifecycle state, messages handled, queue
    depth high-water mark, simulated busy time, and dropped work.
    """
    header = ["daemon", "node", "state", "handled", "q-high", "busy(s)", "dropped"]
    rows = []
    for stats in bus.stats.values():
        rows.append(
            [
                stats.service,
                stats.node or "-",
                stats.state,
                str(stats.messages_handled),
                str(stats.queue_high_water),
                f"{stats.busy_s:.4f}",
                str(stats.total_dropped),
            ]
        )
    if not rows:
        return "(no services registered)"
    widths = [
        max(len(header[c]), *(len(r[c]) for r in rows))
        for c in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
