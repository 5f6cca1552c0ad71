"""Trace-driven cache sizing: record, analyze, predict, verify.

The paper fixes its cache at 1.2 MB and probes locality empirically.
This example shows the principled workflow the library enables:

1. **record** the block trace of a real workload mix;
2. **analyze** it with Mattson stack distances — one pass predicts the
   LRU hit ratio for *every* candidate cache size;
3. **pick** the knee of the curve;
4. **verify** by replaying the identical trace against simulated
   clusters with each cache size.

Run:  python examples/cache_sizing.py
"""

from repro.cluster.cluster import Cluster
from repro.cluster.config import CacheConfig, ClusterConfig
from repro.workload import TraceRecorder, TraceReplayer
from repro.workload.analysis import analyze_trace
from repro.workload.apps import AssociationMiningScan, ArchiveMaintainer, run_app_mix

CANDIDATE_BLOCKS = [32, 75, 150, 300, 600]  # 128 KB .. 2.4 MB


def record_trace():
    """A miner re-scanning a dataset while an archiver appends."""
    cluster = Cluster(ClusterConfig(compute_nodes=2, iod_nodes=2))
    recorder = TraceRecorder(cluster)
    miner = AssociationMiningScan(
        cluster, "node0", dataset_bytes=600 * 1024, passes=3, name="miner"
    )
    archiver = ArchiveMaintainer(cluster, "node0", batches=12, name="arch")
    recorder.attach(miner.client, "miner")
    recorder.attach(archiver.client, "archiver")
    run_app_mix(cluster, [miner, archiver])
    return recorder.events


def main() -> None:
    events = record_trace()
    summary = analyze_trace(events, cache_sizes=CANDIDATE_BLOCKS)
    print(
        f"trace: {summary['accesses']} block accesses over "
        f"{summary['distinct_blocks']} distinct blocks "
        f"({summary['compulsory_misses']} compulsory misses)\n"
    )
    print("  cache size   predicted hit ratio   replayed makespan")
    curve = summary["hit_ratio_by_cache_blocks"]
    for blocks in CANDIDATE_BLOCKS:
        config = ClusterConfig(
            compute_nodes=2,
            iod_nodes=2,
            caching=True,
            cache=CacheConfig(size_bytes=blocks * 4096),
        )
        makespan = TraceReplayer(
            Cluster(config), events, preserve_timing=False
        ).run()
        print(
            f"  {blocks * 4 :>7} KB   {curve[blocks]:>12.1%}"
            f"   {makespan * 1e3:>13.1f} ms"
        )
    # the knee: smallest size within 2 points of the best hit ratio
    best = max(curve.values())
    knee = min(b for b in CANDIDATE_BLOCKS if curve[b] >= best - 0.02)
    print(
        f"\nknee of the curve: {knee * 4} KB — the working set the"
        "\nstack analysis found without simulating a single size."
    )


if __name__ == "__main__":
    main()
