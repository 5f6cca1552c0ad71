"""Statistics collection for simulated runs."""

from repro.metrics.collector import Metrics
from repro.metrics.monitor import DaemonMonitor, daemon_table

__all__ = ["DaemonMonitor", "Metrics", "daemon_table"]
