"""Cluster assembly: nodes, the storage node, and the shared fabric.

Mirrors the paper's testbed (Table 3 / §5.1): one master + storage node
and seven worker nodes, each with 8 cores and 32 GB, connected through a
network whose storage-node bandwidth is the configurable bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..obs.spans import NULL_SPANS
from ..obs.telemetry import NULL_TELEMETRY
from .container import ContainerPool, ContainerSpec
from .kernel import Environment, SimulationError
from .network import MB, Network, NetworkConfig, NIC
from .resources import CPUAllocator, MemoryAccount
from .storage import LocalMemStore, RemoteKVStore

__all__ = ["NodeConfig", "ClusterConfig", "Node", "Cluster", "GB"]

GB = 1024.0 * 1024.0 * 1024.0


@dataclass(frozen=True)
class NodeConfig:
    """Hardware of one node (paper Table 3: ecs.g7.2xlarge)."""

    cores: int = 8
    memory: float = 32 * GB
    bandwidth: float = 100 * MB  # NIC speed, bytes/second

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise SimulationError("cores must be >= 1")
        if self.memory <= 0:
            raise SimulationError("memory must be > 0")
        if self.bandwidth <= 0:
            raise SimulationError("bandwidth must be > 0")


@dataclass
class ClusterConfig:
    """Whole-testbed shape (defaults follow the paper's §5.1 setup)."""

    workers: int = 7
    worker: NodeConfig = field(default_factory=NodeConfig)
    storage: NodeConfig = field(
        default_factory=lambda: NodeConfig(cores=16, memory=64 * GB)
    )
    storage_bandwidth: float = 50 * MB  # the §5.4 sweep axis
    container: ContainerSpec = field(default_factory=ContainerSpec)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    db_op_latency: float = 0.002
    # CouchDB on the 3000-IOPS disk serves a handful of bulk requests
    # at once; the rest queue.
    db_concurrency: int = 4

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise SimulationError("need at least one worker")
        if self.storage_bandwidth <= 0:
            raise SimulationError("storage_bandwidth must be > 0")


class Node:
    """One machine: cores, memory, NIC, container pool, local store."""

    def __init__(
        self,
        env: Environment,
        name: str,
        config: NodeConfig,
        network: Network,
        container_spec: ContainerSpec,
        bandwidth: Optional[float] = None,
    ):
        self.env = env
        self.name = name
        self.config = config
        self.cpu = CPUAllocator(env, config.cores)
        self.memory = MemoryAccount(env, config.memory)
        self.nic = network.attach(name, bandwidth or config.bandwidth)
        self.containers = ContainerPool(
            env, name, self.cpu, self.memory, container_spec
        )
        self.memstore = LocalMemStore(env, name)
        self._up = True
        self._faastore_pool_handle: Optional[int] = None
        self._faastore_pools: dict[str, float] = {}

    @property
    def up(self) -> bool:
        return self._up

    def fail(self) -> int:
        """Crash this node: every container dies, nothing new starts.

        Returns the number of containers destroyed.  Interrupting the
        processes that were using them is the workflow system's job
        (via its :class:`~repro.core.faults.ProcessRegistry`) — the
        substrate only models the hardware going away.
        """
        if not self._up:
            return 0
        self._up = False
        self.containers.set_offline(True)
        return self.containers.fail_all()

    def recover(self) -> None:
        """Bring the node back empty: everything cold-starts again."""
        if self._up:
            return
        self._up = True
        self.containers.set_offline(False)

    def set_faastore_quota(self, quota: float, workflow: str = "_default") -> None:
        """Pin a workflow's reclaimed FaaStore pool on this node.

        Each deployed workflow contributes its own pool (paper §4.3.2
        attaches the reclaimed memory to a WorkflowID); the node's
        memory store is sized to the sum of all pools.
        """
        if quota > 0:
            self._faastore_pools[workflow] = quota
        else:
            self._faastore_pools.pop(workflow, None)
        total = sum(self._faastore_pools.values())
        if self._faastore_pool_handle is not None:
            self.memory.free(self._faastore_pool_handle)
            self._faastore_pool_handle = None
        if total > 0:
            self._faastore_pool_handle = self.memory.reserve(
                total, tag="faastore-pool"
            )
        self.memstore.set_quota(total)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.name} cores={self.config.cores}>"


class Cluster:
    """The full testbed: workers + storage node + network + remote store."""

    def __init__(self, env: Environment, config: Optional[ClusterConfig] = None):
        self.env = env
        self.config = config or ClusterConfig()
        self.network = Network(env, self.config.network)
        self.workers: list[Node] = [
            Node(
                env,
                f"worker-{i}",
                self.config.worker,
                self.network,
                self.config.container,
            )
            for i in range(self.config.workers)
        ]
        self.storage_node = Node(
            env,
            "storage",
            self.config.storage,
            self.network,
            self.config.container,
            bandwidth=self.config.storage_bandwidth,
        )
        self.remote_store = RemoteKVStore(
            env,
            self.network,
            self.storage_node.nic,
            op_latency=self.config.db_op_latency,
            concurrency=self.config.db_concurrency,
        )
        self._by_name: dict[str, Node] = {n.name: n for n in self.workers}
        self._by_name[self.storage_node.name] = self.storage_node
        self.spans = NULL_SPANS
        self.telemetry = NULL_TELEMETRY

    def install_spans(self, spans) -> None:
        """Attach a span tracer to every producer in the substrate.

        The network (transfer spans with contention slowdown) and each
        node's container pool (cold-start / warm-reuse / evict events)
        record into ``spans``; engines built on this cluster pick it up
        as their default tracer too.
        """
        self.spans = spans
        self.network.spans = spans
        for node in [*self.workers, self.storage_node]:
            node.containers.spans = spans

    def install_telemetry(self, telemetry) -> None:
        """Attach a metrics registry to every producer in the substrate.

        Mirrors :meth:`install_spans`: the network (per-node transfer
        counters) and each node's container pool (lifecycle counters)
        emit into ``telemetry``; engines built on this cluster pick it
        up as their default registry too.  Must be installed before
        systems are constructed, same as span tracers.
        """
        self.telemetry = telemetry
        self.network.telemetry = telemetry
        for node in [*self.workers, self.storage_node]:
            node.containers.telemetry = telemetry

    def node(self, name: str) -> Node:
        try:
            return self._by_name[name]
        except KeyError:
            raise SimulationError(f"unknown node {name!r}") from None

    def worker_names(self) -> list[str]:
        return [n.name for n in self.workers]

    def set_storage_bandwidth(self, bandwidth: float) -> None:
        """Throttle the storage node's NIC (wondershaper equivalent)."""
        self.storage_node.nic.set_bandwidth(bandwidth)

    @property
    def total_data_moved(self) -> float:
        """Bytes that crossed any NIC (excludes node-local copies)."""
        return self.network.nonlocal_bytes
