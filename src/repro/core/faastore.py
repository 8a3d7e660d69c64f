"""FaaStore: adaptive hybrid storage for intermediate workflow data.

Paper §3.2/§4.3: when a function's consumers all run on the same worker
node, its output can stay in node-local memory (reclaimed from
over-provisioned containers) instead of round-tripping through the
remote store.  :class:`FaaStorePolicy` implements that decision; the
:class:`RemoteStorePolicy` baseline always uses the remote store
(HyperFlow-serverless' data-shipping pattern, §2.4).

Both policies expose the same generator-based API — the function
runtime drives them as simulation processes — and record every
operation in the metrics collector so Table 4 / Fig. 5 can be
regenerated.

Object keys are ``{workflow}/{invocation}/{producer}/{chunk}``; mapped
(foreach) producers write one chunk per data-plane executor.  Local
objects are reference-counted and freed once every consumer has fetched
them, returning quota for subsequent invocations.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..dag import WorkflowDAG
from ..metrics import MetricsCollector, TransferEvent
from ..obs.spans import SpanKind
from ..sim import Cluster, KeyNotFoundError, Node
from .state import InvocationID, Placement

__all__ = ["DataPolicy", "RemoteStorePolicy", "FaaStorePolicy", "object_key"]


def object_key(
    workflow: str, invocation_id: InvocationID, producer: str, chunk: int
) -> str:
    return f"{workflow}/{invocation_id}/{producer}/{chunk}"


class DataPolicy:
    """Common machinery for the two storage policies."""

    name = "abstract"

    # Whether the policy can accept dataflow-style eager pushes
    # (producer-initiated worker-to-worker shipping into a consumer
    # node's cache).  Engines must check this before spawning pushes.
    supports_eager_push = False

    def __init__(self, cluster: Cluster, metrics: MetricsCollector):
        self.cluster = cluster
        self.metrics = metrics
        self.env = cluster.env
        # (workflow, invocation) -> (producer, chunk) -> every store the
        # object was put into: cleanup deletes exactly these.
        self._stored: dict[tuple, dict[tuple, list]] = {}

    # -- API driven by the function runtime (as sim processes) -----------
    def save_output(
        self,
        node: Node,
        dag: WorkflowDAG,
        placement: Placement,
        invocation_id: InvocationID,
        function: str,
        chunk: int,
        size: float,
    ) -> Generator:
        raise NotImplementedError

    def fetch_input(
        self,
        node: Node,
        dag: WorkflowDAG,
        placement: Placement,
        invocation_id: InvocationID,
        producer: str,
        consumer: str,
        chunk: int,
        size: float,
    ) -> Generator:
        raise NotImplementedError

    def cleanup_invocation(
        self, dag: WorkflowDAG, invocation_id: InvocationID
    ) -> None:
        """Drop any remaining objects of a finished invocation."""
        stored = self._stored.pop((dag.name, invocation_id), None)
        if not stored:
            return
        objects = list(stored)
        if len(objects) > 1:
            # DAG-node then chunk order: each memory store sees its
            # deletions in one fixed order, so its float usage total
            # does not depend on which put finished first.
            position = {name: i for i, name in enumerate(dag.node_names)}
            objects.sort(key=lambda obj: (position[obj[0]], obj[1]))
        for producer, chunk in objects:
            key = object_key(dag.name, invocation_id, producer, chunk)
            for store in stored[producer, chunk]:
                store.delete(key)

    def _note_put(self, store, dag, invocation_id, producer, chunk) -> None:
        """Index an object of the invocation for :meth:`cleanup_invocation`."""
        stored = self._stored.get((dag.name, invocation_id))
        if stored is None:
            stored = self._stored[dag.name, invocation_id] = {}
        stores = stored.get((producer, chunk))
        if stores is None:
            stored[producer, chunk] = [store]
        elif store not in stores:
            stores.append(store)

    # -- shared helpers ----------------------------------------------------
    def _record(
        self,
        dag: WorkflowDAG,
        invocation_id: InvocationID,
        producer: str,
        consumer: str,
        size: float,
        duration: float,
        phase: str,
        local: bool,
        node: str = "",
    ) -> None:
        """Account one data operation: a ``put``, ``get`` or eager ``push``."""
        self.metrics.record_transfer(
            TransferEvent(
                workflow=dag.name,
                invocation_id=invocation_id,
                producer=producer,
                consumer=consumer,
                size=size,
                duration=duration,
                phase=phase,
                local=local,
            )
        )
        telemetry = self.cluster.telemetry
        if telemetry.enabled:
            locality = "local" if local else "remote"
            telemetry.inc(
                "data.bytes", size,
                workflow=dag.name, node=node, phase=phase, local=locality,
            )
            telemetry.inc(
                "data.ops", 1.0,
                workflow=dag.name, node=node, phase=phase, local=locality,
            )
            telemetry.observe(
                "data.seconds", duration,
                workflow=dag.name, node=node, phase=phase, local=locality,
            )
        spans = self.cluster.spans
        if spans.enabled:
            # The acting function (producer for puts and pushes, consumer
            # for gets) parents the span under its own function span.
            actor = consumer if phase == "get" else producer
            parent = spans.context_of(invocation_id, actor)
            eager = {}
            if phase == "push":
                # An eager push (DataflowSP, worker-to-worker) usually
                # lands after its producer's function span has ended:
                # parent it under the invocation root then.
                if parent is None:
                    parent = spans.root_of(invocation_id)
                eager["eager"] = True
            spans.record(
                SpanKind.GET if phase == "get" else SpanKind.PUT,
                self.env.now - duration,
                workflow=dag.name,
                invocation_id=invocation_id,
                function=actor,
                node=node,
                parent=parent,
                producer=producer,
                size=size,
                local=local,
                **eager,
            )

    def _remote_put(self, node, dag, invocation_id, function, chunk, size):
        key = object_key(dag.name, invocation_id, function, chunk)
        start = self.env.now
        remote_store = self.cluster.remote_store
        self._note_put(remote_store, dag, invocation_id, function, chunk)
        yield remote_store.put(key, size, src=node.nic, tag=key)
        self._record(
            dag, invocation_id, function, "", size, self.env.now - start,
            "put", local=False, node=node.name,
        )

    def _remote_get(self, node, dag, invocation_id, producer, consumer, chunk, size):
        key = object_key(dag.name, invocation_id, producer, chunk)
        start = self.env.now
        try:
            yield self.cluster.remote_store.get(key, dst=node.nic, tag=key)
        except KeyNotFoundError:
            # The invocation timed out and its objects were cleaned up
            # while this straggler task was still queued; abort quietly.
            return
        self._record(
            dag, invocation_id, producer, consumer, size,
            self.env.now - start, "get", local=False, node=node.name,
        )


class RemoteStorePolicy(DataPolicy):
    """Always ship data through the remote store (the MasterSP baseline)."""

    name = "remote"

    def save_output(
        self, node, dag, placement, invocation_id, function, chunk, size
    ):
        if size <= 0:
            return
        yield from self._remote_put(node, dag, invocation_id, function, chunk, size)

    def fetch_input(
        self, node, dag, placement, invocation_id, producer, consumer, chunk, size
    ):
        if size <= 0:
            return
        yield from self._remote_get(
            node, dag, invocation_id, producer, consumer, chunk, size
        )


class FaaStorePolicy(DataPolicy):
    """Node-local storage with read-through caching.

    Three behaviors compose (paper §3.2, §4.3):

    - A producer whose consumers are *all* on its own node writes only
      to the node's memory store — the remote store is never touched.
    - A producer with remote consumers must write to the remote store,
      but it *seeds* its node's cache for any co-located consumers.
    - A consumer that misses locally reads through the remote store and
      seeds its node's cache if co-located siblings still need the
      object — so a fan-out's object crosses the network once per
      *node*, not once per *consumer*.

    Algorithm 1's quota accounting marks producers 'DB' when the
    reclaimed memory cannot hold their residency; those bypass the cache
    entirely.  On quota overflow the memory store refuses the object
    and everything falls back to the remote store — a mis-sized quota
    degrades performance, never correctness.
    """

    name = "faastore"
    supports_eager_push = True

    def __init__(self, cluster: Cluster, metrics: MetricsCollector):
        super().__init__(cluster, metrics)
        # (key, node) -> remaining local fetches before the object frees.
        self._refcounts: dict[tuple[str, str], int] = {}
        # (key, node) -> event: a read-through fetch is in flight; other
        # co-located missers wait on it instead of re-fetching
        # (single-flight coalescing — essential under fan-out, where all
        # consumers miss at the same instant).
        self._inflight: dict[tuple[str, str], object] = {}

    @staticmethod
    def _marked_db(dag, function: str) -> bool:
        return dag.node(function).metadata.get("storage_type") == "DB"

    def save_output(
        self, node, dag, placement, invocation_id, function, chunk, size
    ):
        if size <= 0:
            return
        key = object_key(dag.name, invocation_id, function, chunk)
        consumers = dag.data_consumers(function)
        use_cache = consumers and not self._marked_db(dag, function)
        local_consumers = [
            c for c in consumers if placement.node_of(c) == node.name
        ]
        if use_cache and len(local_consumers) == len(consumers):
            start = self.env.now
            done = node.memstore.try_put(key, size)
            if done is not None:
                self._note_put(node.memstore, dag, invocation_id, function, chunk)
                # Each consumer function fetches each chunk once.
                self._refcounts[(key, node.name)] = len(consumers)
                yield done
                self._record(
                    dag, invocation_id, function, "", size,
                    self.env.now - start, "put", local=True, node=node.name,
                )
                return
            self._spill(dag, invocation_id, function, node, size, "put")
        yield from self._remote_put(node, dag, invocation_id, function, chunk, size)
        if use_cache and local_consumers:
            # Seed the producer-node cache: co-located consumers read
            # the bytes that are already here instead of re-fetching.
            seeded = node.memstore.try_put(key, size)
            if seeded is not None:
                self._note_put(node.memstore, dag, invocation_id, function, chunk)
                self._refcounts[(key, node.name)] = len(local_consumers)
                yield seeded
            else:
                self._spill(dag, invocation_id, function, node, size, "seed")

    def fetch_input(
        self, node, dag, placement, invocation_id, producer, consumer, chunk, size
    ):
        if size <= 0:
            return
        key = object_key(dag.name, invocation_id, producer, chunk)
        cache_slot = (key, node.name)
        if key in node.memstore:
            yield from self._local_get(
                node, dag, invocation_id, producer, consumer, size, cache_slot
            )
            return
        if self._marked_db(dag, producer):
            yield from self._remote_get(
                node, dag, invocation_id, producer, consumer, chunk, size
            )
            return
        inflight = self._inflight.get(cache_slot)
        if inflight is not None:
            # A co-located sibling is already pulling this object; wait
            # for it and serve from the seeded cache.
            yield inflight
            if key in node.memstore:
                yield from self._local_get(
                    node, dag, invocation_id, producer, consumer, size,
                    cache_slot,
                )
                return
            # Seeding failed (quota): fall back to a remote fetch.
            yield from self._remote_get(
                node, dag, invocation_id, producer, consumer, chunk, size
            )
            return
        arrival = self.env.event()
        self._inflight[cache_slot] = arrival
        try:
            yield from self._remote_get(
                node, dag, invocation_id, producer, consumer, chunk, size
            )
            # Read-through: leave the object for co-located siblings
            # that have not fetched this chunk yet.
            siblings_pending = (
                sum(
                    1
                    for c in dag.data_consumers(producer)
                    if placement.node_of(c) == node.name
                )
                - 1
            )
            if siblings_pending > 0 and key not in node.memstore:
                seeded = node.memstore.try_put(key, size)
                if seeded is not None:
                    self._note_put(
                        node.memstore, dag, invocation_id, producer, chunk
                    )
                    self._refcounts[cache_slot] = siblings_pending
                    yield seeded
                else:
                    self._spill(
                        dag, invocation_id, producer, node, size, "read-through"
                    )
        finally:
            self._inflight.pop(cache_slot, None)
            arrival.succeed()

    def eager_push(
        self,
        src_node,
        dst_node,
        dag,
        placement,
        invocation_id: InvocationID,
        producer: str,
        chunk: int,
        size: float,
        consumers_on_node: int,
    ) -> Generator:
        """Dataflow eager shipping: pre-fetch one output chunk into a
        *consumer* node's cache the moment the producer wrote it.

        The bytes travel worker-to-worker (never touching the storage
        node's NIC) while upstream functions are still computing, so by
        the time the consumer's last trigger fires its input is already
        local.  The push registers in the single-flight ``_inflight``
        map: a consumer that fires mid-push waits for *this* transfer
        instead of starting a remote read — the transfer that began at
        produce time always wins the race.  A quota overflow on the
        consumer node degrades to the normal remote read-through path;
        like every FaaStore decision, eager shipping can only change
        performance, never correctness.
        """
        if size <= 0 or consumers_on_node <= 0:
            return
        key = object_key(dag.name, invocation_id, producer, chunk)
        slot = (key, dst_node.name)
        if key in dst_node.memstore or slot in self._inflight:
            return  # already there, or a sibling transfer owns the slot
        arrival = self.env.event()
        self._inflight[slot] = arrival
        start = self.env.now
        try:
            yield self.cluster.network.message(
                src_node.nic, dst_node.nic, size, tag=f"push:{key}"
            )
            seeded = dst_node.memstore.try_put(key, size)
            if seeded is not None:
                self._note_put(
                    dst_node.memstore, dag, invocation_id, producer, chunk
                )
                self._refcounts[slot] = consumers_on_node
                yield seeded
                self._record(
                    dag, invocation_id, producer, "", size,
                    self.env.now - start, "push", local=False,
                    node=dst_node.name,
                )
            else:
                self._spill(dag, invocation_id, producer, dst_node, size, "push")
        finally:
            self._inflight.pop(slot, None)
            if not arrival.triggered:
                arrival.succeed()

    def _spill(self, dag, invocation_id, function, node, size, phase) -> None:
        """Note a quota overflow: the local store refused the object."""
        if self.cluster.telemetry.enabled:
            self.cluster.telemetry.inc(
                "data.spills", 1.0,
                workflow=dag.name, node=node.name, phase=phase,
            )
        spans = self.cluster.spans
        if spans.enabled:
            spans.event(
                SpanKind.SPILL,
                workflow=dag.name,
                invocation_id=invocation_id,
                function=function,
                node=node.name,
                size=size,
                phase=phase,
            )

    def _local_get(
        self, node, dag, invocation_id, producer, consumer, size, cache_slot
    ):
        start = self.env.now
        yield node.memstore.get(cache_slot[0])
        self._record(
            dag, invocation_id, producer, consumer, size,
            self.env.now - start, "get", local=True, node=node.name,
        )
        remaining = self._refcounts.get(cache_slot, 1) - 1
        if remaining <= 0:
            node.memstore.delete(cache_slot[0])
            self._refcounts.pop(cache_slot, None)
        else:
            self._refcounts[cache_slot] = remaining
