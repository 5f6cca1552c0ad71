"""Configuration and calibration constants.

Everything here is calibrated to the paper's testbed (Section 4.1): a
6-node Linux cluster of 800 MHz Pentium-III boxes with 128 MB RAM,
20 GB Maxtor IDE disks, and 100 Mbps Ethernet, with a 1.2 MB cache of
4 KB blocks at each node.

The constants are grouped into one :class:`CostModel` so that every
timing assumption is visible, overridable, and sweepable in ablation
benchmarks.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import typing as _t


@dataclasses.dataclass(frozen=True)
class Seam:
    """One model/engine seam: a :class:`ClusterConfig` field whose
    alternatives are checked against a validated reference (the oracle).

    A seam field left ``None`` defers: :meth:`ClusterConfig.resolved`
    fills it from the environment variable ``env`` when that is set and
    non-empty, else from ``default``.  The environment is how a CLI
    flag reaches clusters built inside parallel sweep workers.
    """

    #: The ``ClusterConfig`` field.
    name: str
    #: Environment variable consulted when the field is ``None``.
    env: str
    #: ``str``; ``int`` (a count, >= 1); or ``bool`` (env ``"0"``/``"1"``).
    type: type
    #: Values a ``str`` seam accepts; empty means any non-empty string.
    choices: tuple[str, ...]
    default: _t.Any
    #: The validated reference, and the tests holding the seam to it.
    oracle: str
    #: Flag of ``python -m repro.experiments``, or ``None`` for none.
    flag: str | None = None
    help: str = ""
    metavar: str | None = None

    def check(self, value: _t.Any, source: str) -> None:
        """Raise ``ValueError`` naming ``source`` unless ``value`` is
        a valid setting of this seam."""
        if self.type is bool:
            ok, expects = isinstance(value, bool), "a bool"
        elif self.type is int:
            ok = type(value) is int and value >= 1
            expects = "an integer >= 1"
        elif self.choices:
            ok, expects = value in self.choices, f"one of {self.choices}"
        else:
            ok = isinstance(value, str) and value != ""
            expects = "a non-empty string"
        if not ok:
            raise ValueError(f"{source}={value!r} is not {expects}")

    def from_env(self) -> _t.Any:
        """The value ``env`` selects, or ``None`` when unset or empty."""
        raw = os.environ.get(self.env, "")
        if not raw:
            return None
        if self.type is bool:
            if raw not in ("0", "1"):
                raise ValueError(f"{self.env}={raw!r} is not '', '0' or '1'")
            return raw == "1"
        value: _t.Any = raw
        if self.type is int:
            with contextlib.suppress(ValueError):  # check() reports it
                value = int(raw)
        self.check(value, self.env)
        return value

    def resolve(self, value: _t.Any) -> _t.Any:
        """An explicit ``value`` wins, then ``env``, then ``default``."""
        if value is None:
            value = self.from_env()
        return self.default if value is None else value


#: Every model/engine seam, in CLI order (README "Seams").
SEAMS: tuple[Seam, ...] = (
    Seam(
        "net_model", "REPRO_NET_MODEL", str, ("frames", "fluid"), "frames",
        oracle="frames: every frame on the wire (tests/test_net_fluid.py)",
        flag="--net-model",
        help=(
            "network contention model: 'frames' (validated default) or "
            "'fluid' (analytic bandwidth sharing, much faster sweeps)"
        ),
    ),
    Seam(
        "disk_model", "REPRO_DISK_MODEL", str, ("mech", "queued"), "mech",
        oracle="mech: per-request spindle (tests/test_disk_queued.py)",
        flag="--disk-model",
        help=(
            "disk service model: 'mech' (per-request spindle "
            "simulation, validated default) or 'queued' (analytic FIFO "
            "batch service, much faster disk-bound sweeps)"
        ),
    ),
    Seam(
        "engine_macro", "REPRO_ENGINE_MACRO", bool, (), False,
        oracle="off: the event-level schedule (tests/test_engine_macro.py)",
        flag="--engine-macro",
        help=(
            "coalesce fully-resident cache-hit read bursts into one "
            "scheduled event each (DESIGN.md §14); off preserves the "
            "validated event-level schedule bit-for-bit"
        ),
    ),
    Seam(
        "engine_shards", "REPRO_ENGINE_SHARDS", int, (), 1,
        oracle="1: the serial engine (tests/test_engine_shards.py)",
        flag="--engine-shards", metavar="N",
        help=(
            "split each trace replay across N conservative parallel "
            "engine shards (DESIGN.md §17); only replayed runs "
            "(--trace / REPRO_TRACE) honor shards > 1"
        ),
    ),
    Seam(
        "shard_backend", "REPRO_ENGINE_SHARD_BACKEND", str,
        ("process", "inline"), "process",
        oracle="the serial engine's hash (tests/test_engine_shards.py)",
    ),
    Seam(
        "mgr_shards", "REPRO_MGR_SHARDS", int, (), 1,
        oracle="1: the paper's single mgr (tests/test_mgr_shards.py)",
        flag="--mgr-shards", metavar="N",
        help=(
            "hash-partition the PVFS metadata namespace across N mgr "
            "shards (DESIGN.md §18); 1 (the default) is the paper's "
            "single mgr, bit-identical to before"
        ),
    ),
    Seam(
        "trace_source", "REPRO_TRACE", str, (), None,
        oracle="the recorded live run (tests/test_trace_ir.py)",
        flag="--trace", metavar="FILE",
        help=(
            "replay this workload trace (JSONL/CSV, see "
            "'python -m repro.workload record') instead of each "
            "experiment's synthetic benchmark — every run_instances "
            "call, including in sweep workers, replays it closed-loop "
            "on that point's cluster configuration"
        ),
    ),
)


@dataclasses.dataclass
class CostModel:
    """All timing constants of the simulation, in seconds/bytes."""

    # -- network -----------------------------------------------------------
    #: Link (or hub) bandwidth, bits per second.
    bandwidth_bps: float = 100e6
    #: Fragmentation quantum for fair sharing of a channel.
    frame_bytes: int = 65536
    #: Fixed per-message cost: interrupt + protocol stack + propagation.
    net_latency_s: float = 100e-6
    #: "hub" for one shared collision domain, "switch" for per-port links.
    fabric: str = "switch"

    # -- disk ----------------------------------------------------------------
    avg_seek_s: float = 8.5e-3
    half_rotation_s: float = 5.6e-3
    disk_bytes_per_s: float = 20e6

    # -- CPU costs (800 MHz P-III era) --------------------------------------
    #: Entering/leaving the kernel for a socket call.
    syscall_s: float = 10e-6
    #: iod per-request processing (parse, index stripe file, setup).
    iod_request_cpu_s: float = 60e-6
    #: mgr per-request processing (metadata lookup).
    mgr_request_cpu_s: float = 150e-6
    #: Cache-module hash lookup per block (a failed probe on the miss
    #: path costs only this; the paper's < 400 us bound is dominated
    #: by the copy below).
    cache_lookup_s: float = 5e-6
    #: Copying one 4 KB cache block between kernel and user space
    #: (with bookkeeping; calibrated so the full hit path lands at
    #: ~100 us/block, the value implied by the paper's Figure 5a).
    cache_copy_block_s: float = 85e-6
    #: Extra bookkeeping when the module splits / marks pending requests.
    cache_fsm_s: float = 10e-6

    def __post_init__(self) -> None:
        if self.fabric not in ("hub", "switch"):
            raise ValueError(f"unknown fabric {self.fabric!r}")
        if self.bandwidth_bps <= 0 or self.disk_bytes_per_s <= 0:
            raise ValueError("rates must be positive")

    @property
    def cache_block_service_s(self) -> float:
        """Cost of serving one 4 KB block from the cache (lookup+copy).

        The paper reports this envelope as "< 400 microseconds for a
        block of 4K bytes" including module entry; our default is
        ~105 us which respects that bound.
        """
        return self.cache_lookup_s + self.cache_copy_block_s + self.cache_fsm_s


@dataclasses.dataclass
class CacheConfig:
    """Configuration of the per-node kernel cache module (Section 3.2)."""

    #: Total cache size per node; the paper uses 1.2 MB everywhere.
    size_bytes: int = 1_200 * 1024
    #: Cache block size; 4 KB "to make it equal to page size".
    block_size: int = 4096
    #: Flusher wakeup period (dirty blocks older than one period reach
    #: the iods within the next wakeup).
    flush_period_s: float = 30e-3
    #: Harvester trigger: refill when free blocks drop below this
    #: fraction of the cache ...
    low_watermark: float = 0.10
    #: ... and stop once this fraction is free.
    high_watermark: float = 0.25
    #: Replacement policy: "clock" (paper's approximate LRU) or
    #: "exact-lru" (ablation).
    replacement: str = "clock"
    #: Whether a cached block in the middle of a contiguous run splits
    #: the miss request (paper's behaviour).  Ablation: off treats the
    #: whole run as a miss.
    split_on_cached_block: bool = True
    #: Prefer evicting clean blocks over dirty ones (paper's policy).
    prefer_clean_eviction: bool = True
    #: Blocks pinned at once per request; large requests are processed
    #: in segments of this many blocks so concurrent requests cannot
    #: pin the whole cache (None = n_blocks // 8, min 8).
    segment_blocks: int | None = None
    #: Cooperative cluster-wide cache (the paper's "ongoing work"
    #: extension): on a local miss, ask the block's home cache node
    #: before going to the iod.
    global_cache: bool = False
    #: Sequential readahead (the paper's "prefetching" future-work
    #: item): detect per-file sequential runs and prefetch ahead into
    #: the shared cache.
    readahead: bool = False

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError("block size must be positive")
        if self.size_bytes < self.block_size:
            raise ValueError("cache smaller than one block")
        if not (0 <= self.low_watermark <= self.high_watermark <= 1):
            raise ValueError(
                "need 0 <= low_watermark <= high_watermark <= 1, got "
                f"{self.low_watermark}/{self.high_watermark}"
            )
        if self.replacement not in ("clock", "exact-lru"):
            raise ValueError(f"unknown replacement {self.replacement!r}")

    @property
    def n_blocks(self) -> int:
        """Cache frames per node (size // block size)."""
        return self.size_bytes // self.block_size

    @property
    def low_blocks(self) -> int:
        """Low watermark in blocks."""
        return max(1, int(self.n_blocks * self.low_watermark))

    @property
    def high_blocks(self) -> int:
        """High watermark in blocks."""
        return max(2, int(self.n_blocks * self.high_watermark))

    @property
    def effective_segment_blocks(self) -> int:
        """Blocks pinned at once per request segment."""
        if self.segment_blocks is not None:
            if self.segment_blocks < 1:
                raise ValueError("segment_blocks must be >= 1")
            return self.segment_blocks
        return max(8, self.n_blocks // 8)


@dataclasses.dataclass
class ClusterConfig:
    """Topology + component sizing for one simulated cluster."""

    #: Compute nodes (run application processes + the cache module).
    compute_nodes: int = 4
    #: Nodes whose disk stores stripe data (iod daemons).  In the
    #: paper's 6-node testbed the same boxes serve both roles; set
    #: ``separate_iod_nodes=True`` for a disjoint server pool.
    iod_nodes: int = 4
    separate_iod_nodes: bool = False
    #: PVFS stripe unit (PVFS 1.x default is 64 KB).
    stripe_size: int = 65536
    #: iod OS page cache, in blocks of ``CacheConfig.block_size``
    #: (16384 x 4 KB = 64 MB, about half of a 128 MB node's RAM).
    pagecache_blocks: int = 16384
    #: Whether compute nodes run the kernel cache module.
    caching: bool = True
    # -- model/engine seams (``SEAMS``): ``None`` defers to the seam's
    # environment variable, then its default; see :meth:`resolved`.
    #: Network contention model, ``"frames"`` or ``"fluid"`` (DESIGN.md
    #: §12).  Orthogonal to ``CostModel.fabric``: that picks the
    #: topology (hub/switch), this picks how contention on it is
    #: simulated.
    net_model: str | None = None
    #: Disk model, ``"mech"`` or ``"queued"`` (DESIGN.md §13).
    disk_model: str | None = None
    #: Macro-event fast path for fully-hit read bursts (DESIGN.md §14).
    engine_macro: bool | None = None
    #: Workload trace (JSONL or CSV dialect) to replay instead of the
    #: synthetic benchmark; see ``repro.workload.runner``.
    trace_source: str | None = None
    #: Conservative parallel engine shards (DESIGN.md §17); only trace
    #: replays honor shards > 1.
    engine_shards: int | None = None
    #: Shard execution backend, ``"process"`` or ``"inline"`` (every
    #: shard environment in this process).
    shard_backend: str | None = None
    #: Hash-partitioned metadata server shards (DESIGN.md §18).
    mgr_shards: int | None = None
    cache: CacheConfig = dataclasses.field(default_factory=CacheConfig)
    costs: CostModel = dataclasses.field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.compute_nodes < 1 or self.iod_nodes < 1:
            raise ValueError("need at least one compute and one iod node")
        for seam in SEAMS:
            value = getattr(self, seam.name)
            if value is not None:
                seam.check(value, seam.name)
        if self.stripe_size <= 0:
            raise ValueError("stripe size must be positive")
        if self.stripe_size % self.cache.block_size != 0:
            raise ValueError(
                "stripe size must be a multiple of the cache block size "
                f"({self.stripe_size} % {self.cache.block_size} != 0)"
            )

    def resolved(self) -> ClusterConfig:
        """A copy with every deferred (``None``) seam filled in: the
        explicit field wins, then the seam's environment variable,
        then its default.  A cluster resolves once, at build time."""
        return dataclasses.replace(
            self,
            **{s.name: s.resolve(getattr(self, s.name)) for s in SEAMS},
        )

    def compute_node_names(self) -> list[str]:
        """Names of the compute nodes."""
        return [f"node{i}" for i in range(self.compute_nodes)]

    def iod_node_names(self) -> list[str]:
        """Names of the iod nodes (co-located or separate)."""
        if self.separate_iod_nodes:
            base = self.compute_nodes
            return [f"node{base + i}" for i in range(self.iod_nodes)]
        # Co-located (paper's testbed): iods run on node0, node1, ...,
        # overlapping the compute nodes where the ranges intersect.
        return [f"node{i}" for i in range(self.iod_nodes)]

    #: Well-known ports.
    MGR_PORT = 3000
    IOD_PORT = 7000
    FLUSH_PORT = 7001
