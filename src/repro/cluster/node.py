"""A cluster node: CPU, NIC/socket API, and optional storage stack."""

from __future__ import annotations

import typing as _t

from repro.cluster.config import ClusterConfig, CostModel
from repro.disk import DiskModel, LocalFileStore, PageCache, QueuedDiskModel
from repro.disk.writeback import WritebackDaemon
from repro.net import Network, SocketAPI
from repro.sim import Environment, Resource

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.cache.module import CacheModule


class Node:
    """One box of the cluster.

    Every node has a CPU (a unit resource — processes time-share it
    FIFO, which is how the multiprogramming cost of Section 4.2.4
    arises) and a socket API.  Nodes hosting an iod additionally carry
    the disk stack; compute nodes may carry the kernel cache module.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        network: Network,
        costs: CostModel,
        config: ClusterConfig | None = None,
        with_disk: bool = False,
    ) -> None:
        self.env = env
        self.name = name
        self.costs = costs
        self.config = config
        self.cpu = Resource(env, capacity=1)
        self.sockets = SocketAPI(network, name)
        self.disk: DiskModel | None = None
        self.filestore: LocalFileStore | None = None
        self.pagecache: PageCache | None = None
        self.writeback: WritebackDaemon | None = None
        #: Installed by the cluster builder when caching is enabled.
        self.cache_module: "CacheModule | None" = None
        if with_disk:
            self.attach_disk()

    def attach_disk(self) -> None:
        """Add the iod storage stack (idempotent)."""
        if self.disk is not None:
            return
        cfg = self.config
        block_size = cfg.cache.block_size if cfg else 4096
        pagecache_blocks = cfg.pagecache_blocks if cfg else 16384
        queued = cfg is not None and cfg.disk_model == "queued"
        disk_cls = QueuedDiskModel if queued else DiskModel
        self.disk = disk_cls(
            self.env,
            avg_seek_s=self.costs.avg_seek_s,
            half_rotation_s=self.costs.half_rotation_s,
            transfer_bytes_per_s=self.costs.disk_bytes_per_s,
        )
        self.filestore = LocalFileStore(block_size=block_size)
        self.pagecache = PageCache(capacity_blocks=pagecache_blocks)
        self.writeback = WritebackDaemon(self.env, self.disk, node=self)
        self.writeback.start()

    def compute(self, seconds: float) -> _t.Generator:
        """Process body: occupy this node's CPU for ``seconds``.

        Queueing behind other runnable work on the node is how CPU
        time-sharing costs appear.
        """
        if seconds < 0:
            raise ValueError(f"negative compute time {seconds}")
        if seconds == 0:
            return
        with self.cpu.request() as req:
            yield req
            yield self.env.timeout(seconds)

    def __repr__(self) -> str:
        roles = []
        if self.disk is not None:
            roles.append("iod-capable")
        if self.cache_module is not None:
            roles.append("cached")
        return f"<Node {self.name} {' '.join(roles) or 'compute'}>"
