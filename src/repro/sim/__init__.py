"""Discrete-event cluster simulation substrate.

Everything FaaSFlow runs on: the event kernel, synchronization
primitives, the fluid network model, node resources, container
lifecycle, storage backends, and cluster assembly.
"""

from .cluster import GB, Cluster, ClusterConfig, Node, NodeConfig
from .container import Container, ContainerPool, ContainerSpec, ContainerState
from .kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    StopProcess,
    Timeout,
)
from .network import KB, MB, NIC, Network, NetworkConfig
from .resources import (
    CPUAllocator,
    MemoryAccount,
    OutOfMemoryError,
    UsageSampler,
)
from .shard import (
    run_network_sharded,
    run_network_single,
    run_workflow_cells,
)
from .storage import KeyNotFoundError, LocalMemStore, RemoteKVStore, StorageStats
from .sync import Level, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "run_network_sharded",
    "run_network_single",
    "run_workflow_cells",
    "Cluster",
    "ClusterConfig",
    "Container",
    "ContainerPool",
    "ContainerSpec",
    "ContainerState",
    "CPUAllocator",
    "Environment",
    "Event",
    "GB",
    "Interrupt",
    "KB",
    "KeyNotFoundError",
    "Level",
    "LocalMemStore",
    "MB",
    "MemoryAccount",
    "Network",
    "NetworkConfig",
    "NIC",
    "Node",
    "NodeConfig",
    "OutOfMemoryError",
    "Process",
    "RemoteKVStore",
    "Resource",
    "SimulationError",
    "StopProcess",
    "StorageStats",
    "Store",
    "Timeout",
    "UsageSampler",
]
