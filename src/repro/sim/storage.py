"""Storage substrates: remote key-value store and node-local memory store.

:class:`RemoteKVStore` stands in for the paper's CouchDB instance on the
storage node — every put/get crosses the network to the storage node's
NIC (which is exactly the bottleneck §5.4 sweeps) plus a database
operation latency.

:class:`LocalMemStore` stands in for the per-node Redis that FaaStore
uses for co-located functions: puts and gets are memory-speed and bounded
by the FaaStore quota reclaimed from containers (Eq. 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .kernel import Environment, Event, SimulationError
from .network import NIC, Network
from .sync import Resource

__all__ = ["RemoteKVStore", "LocalMemStore", "StorageStats", "KeyNotFoundError"]


class KeyNotFoundError(KeyError):
    """Lookup of a key that was never stored (or already deleted)."""


@dataclass
class StorageStats:
    """Byte/op counters for one storage backend."""

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    bytes_in: float = 0.0
    bytes_out: float = 0.0

    @property
    def total_bytes(self) -> float:
        return self.bytes_in + self.bytes_out


class RemoteKVStore:
    """A CouchDB-like store living behind the storage node's NIC."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        nic: NIC,
        op_latency: float = 0.002,
        concurrency: int = 8,
    ):
        if op_latency < 0:
            raise SimulationError("op_latency must be >= 0")
        self.env = env
        self.network = network
        self.nic = nic
        self.op_latency = op_latency
        # The database serves a bounded number of requests at once
        # (worker threads / disk IOPS); excess requests queue FIFO.
        self._slots = Resource(env, capacity=concurrency)
        self._data: dict[str, float] = {}
        self.stats = StorageStats()

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def size_of(self, key: str) -> float:
        try:
            return self._data[key]
        except KeyError:
            raise KeyNotFoundError(key) from None

    def put(self, key: str, size: float, src: NIC, tag: str = "") -> Event:
        """Ship ``size`` bytes from ``src`` into the store.

        Fires when the write is durable (transfer + db-op latency).
        """
        if size < 0:
            raise SimulationError(f"negative object size {size}")
        done = self.env.event()
        # Queued, never granted in place: the slot is waited on through
        # the callback below, not by a yielding process.
        slot = self._slots._queued_request()

        def _start(_: Event) -> None:
            transfer = self.network.transfer(
                src, self.nic, size, tag=tag or f"put:{key}"
            )
            transfer.callbacks.append(_after_transfer)

        def _after_transfer(_: Event) -> None:
            op = self.env.timeout(self.op_latency)
            op.callbacks.append(
                lambda __: self._commit_put(key, size, done, slot)
            )

        slot.callbacks.append(_start)
        return done

    def _commit_put(self, key: str, size: float, done: Event, slot) -> None:
        self._slots.release(slot)
        self._data[key] = size
        self.stats.puts += 1
        self.stats.bytes_in += size
        done.succeed()

    def get(self, key: str, dst: NIC, tag: str = "") -> Event:
        """Fetch ``key`` to ``dst``; fires with the object size."""
        if key not in self._data:
            done = self.env.event()
            done.fail(KeyNotFoundError(key))
            return done
        size = self._data[key]
        done = self.env.event()
        slot = self._slots._queued_request()

        def _start(_: Event) -> None:
            op = self.env.timeout(self.op_latency)
            op.callbacks.append(_after_op)

        def _after_op(_: Event) -> None:
            transfer = self.network.transfer(
                self.nic, dst, size, tag=tag or f"get:{key}"
            )
            transfer.callbacks.append(
                lambda __: self._commit_get(size, done, slot)
            )

        slot.callbacks.append(_start)
        return done

    def _commit_get(self, size: float, done: Event, slot) -> None:
        self._slots.release(slot)
        self.stats.gets += 1
        self.stats.bytes_out += size
        done.succeed(size)

    def delete(self, key: str) -> None:
        if self._data.pop(key, None) is not None:
            self.stats.deletes += 1

    @property
    def stored_bytes(self) -> float:
        return sum(self._data.values())

    @property
    def key_count(self) -> int:
        return len(self._data)


class LocalMemStore:
    """A Redis-like in-memory store local to one worker node.

    Capacity is the FaaStore quota (Eq. 2): :meth:`try_put` refuses
    objects that would overflow it, and FaaStore falls back to the remote
    store in that case.  Access latency is a per-op constant (loopback
    RPC to the co-located store process).
    """

    def __init__(
        self,
        env: Environment,
        node_name: str,
        quota: float = 0.0,
        op_latency: float = 0.0002,
        copy_rate: float = 4096 * 1024 * 1024,
    ):
        if quota < 0:
            raise SimulationError("quota must be >= 0")
        self.env = env
        self.node_name = node_name
        self.quota = float(quota)
        self.op_latency = op_latency
        self.copy_rate = copy_rate
        self._data: dict[str, float] = {}
        self._used = 0.0
        self.stats = StorageStats()
        self.rejected_puts = 0

    def __contains__(self, key: str) -> bool:
        return key in self._data

    @property
    def used(self) -> float:
        return self._used

    @property
    def free(self) -> float:
        return self.quota - self._used

    def set_quota(self, quota: float) -> None:
        """Update the quota (a new reclamation round may grow or shrink it).

        Shrinking below current usage is allowed — existing objects stay
        until consumed, but new puts are refused.
        """
        if quota < 0:
            raise SimulationError("quota must be >= 0")
        self.quota = float(quota)

    def try_put(self, key: str, size: float) -> Optional[Event]:
        """Store locally if the quota allows; ``None`` means caller must
        fall back to the remote store.  Re-putting an existing key is an
        idempotent no-op (concurrent read-through misses may race)."""
        if size < 0:
            raise SimulationError(f"negative object size {size}")
        if key in self._data:
            done = self.env.event()
            done.succeed()
            return done
        if self._used + size > self.quota + 1e-9:
            self.rejected_puts += 1
            return None
        self._used += size
        self._data[key] = size
        self.stats.puts += 1
        self.stats.bytes_in += size
        done = self.env.event()
        timer = self.env.timeout(self.op_latency + size / self.copy_rate)
        timer.callbacks.append(lambda _: done.succeed())
        return done

    def get(self, key: str) -> Event:
        """Fires with the object size; fails if the key is absent."""
        done = self.env.event()
        if key not in self._data:
            done.fail(KeyNotFoundError(key))
            return done
        size = self._data[key]
        self.stats.gets += 1
        self.stats.bytes_out += size
        timer = self.env.timeout(self.op_latency + size / self.copy_rate)
        timer.callbacks.append(lambda _: done.succeed(size))
        return done

    def delete(self, key: str) -> None:
        size = self._data.pop(key, None)
        if size is not None:
            # Clamp: float accumulation must never leave phantom usage.
            self._used = max(0.0, self._used - size)
            self.stats.deletes += 1

    def clear(self) -> None:
        self._data.clear()
        self._used = 0.0

    @property
    def key_count(self) -> int:
        return len(self._data)
