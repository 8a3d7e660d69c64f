"""Fluid network model with max-min fair bandwidth sharing.

The paper's tail-latency results (Figs. 12-14) hinge on functions
contending for the storage node's NIC.  This module models each node's
network interface as a pair of unidirectional links (egress / ingress)
with finite bandwidth.  Bulk data transfers are *flows*: whenever the set
of active flows changes, the flows it can affect are advanced to the
current time and their rates are re-allocated with the classic max-min
fairness water-filling algorithm (each flow is bottlenecked by the
most-contended link it crosses).

Two structural optimizations keep the model usable at cluster scale
(100+ nodes, thousands of concurrent flows) without changing a single
output bit relative to flow-by-flow full water-filling:

- **Flow aggregation.**  Max-min fairness gives every flow crossing the
  same (src-egress, dst-ingress) link pair the same rate at all times,
  so same-route flows collapse into one :class:`_FlowClass` with
  per-flow byte accounting.  N parallel transfers on one route cost the
  allocator O(1) instead of O(N).
- **Incremental rebalancing.**  The allocation decomposes over connected
  components of the class/link graph: a flow arriving or finishing can
  only change rates inside the component its links belong to.  Each
  rebalance recomputes just that component (found by BFS from the
  changed links); every other class keeps its rate and its
  remaining-bytes projection.  ``NetworkConfig(incremental=False)``
  forces full water-filling every time — the equivalence tests assert
  both modes produce bit-identical completion times.

Small control messages (task assignments, state synchronization) are
latency-dominated and bypass the fluid machinery: they cost propagation
latency plus nominal serialization time.  The threshold separating the
two regimes is configurable.

Every completed transfer is accounted by one routine, ``Network._record``:
NIC, pair and total byte counters, ``net.*`` telemetry.  The network
keeps no per-transfer history; a caller that needs one row per transfer
(the shard merge, tests) attaches :func:`record_transfers`.

Flow byte-counters settle only at their *own* component's rebalances,
and completions are scheduled at absolute times via
:meth:`Environment.schedule_at`.  A class's byte trajectory therefore
depends only on the event history of its own connected component, so
node groups that share no traffic can run in separate environments
(traffic cells, see ``repro.sim.shard``) and still produce bit-identical
completion times.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Iterable, Optional

from ..obs.spans import NULL_SPANS, SpanKind
from ..obs.telemetry import NULL_TELEMETRY
from .kernel import Environment, Event, SimulationError, Timeout

__all__ = ["NIC", "Network", "Flow", "record_transfers", "MB", "KB"]

KB = 1024.0
MB = 1024.0 * 1024.0

_EPS = 1e-9
_INF = float("inf")
# Up to this many classes, water-filling skips its level cache: the
# bookkeeping would cost more than the divisions it saves.
_SMALL_COMPONENT = 8
# Delivery time of a control message a node sends to itself.
_LOOPBACK_LATENCY = 0.00005


class _Link:
    """One direction of a NIC: a capacity shared by the classes crossing it."""

    __slots__ = ("name", "bandwidth", "classes", "bytes_carried", "mark")

    def __init__(self, name: str, bandwidth: float):
        self.name = name
        self.bandwidth = float(bandwidth)
        # Insertion-ordered (dict-as-set): deterministic traversal.
        self.classes: dict["_FlowClass", None] = {}
        self.bytes_carried = 0.0
        self.mark = 0  # BFS visit epoch (see Network._component)

    @property
    def allocated_rate(self) -> float:
        """Sum of the rates currently granted across this link."""
        return sum(len(c.flows) * c.rate for c in self.classes)


def _check_bandwidth(bandwidth: float) -> None:
    # NaN or inf would leave every flow through the NIC unfinishable.
    if not 0 < bandwidth < _INF:
        raise SimulationError(
            f"bandwidth must be finite and > 0, got {bandwidth}"
        )


class NIC:
    """A node's network interface: an egress link and an ingress link."""

    def __init__(self, name: str, bandwidth: float):
        _check_bandwidth(bandwidth)
        self.name = name
        self.bandwidth = float(bandwidth)
        self.egress = _Link(f"{name}.egress", bandwidth)
        self.ingress = _Link(f"{name}.ingress", bandwidth)

    def set_bandwidth(self, bandwidth: float) -> None:
        """Reconfigure NIC speed (the paper's ``wondershaper`` sweep)."""
        _check_bandwidth(bandwidth)
        self.bandwidth = float(bandwidth)
        self.egress.bandwidth = float(bandwidth)
        self.ingress.bandwidth = float(bandwidth)

    @property
    def bytes_sent(self) -> float:
        return self.egress.bytes_carried

    @property
    def bytes_received(self) -> float:
        return self.ingress.bytes_carried

    def __repr__(self) -> str:  # pragma: no cover
        return f"<NIC {self.name} {self.bandwidth / MB:.1f} MB/s>"


class Flow:
    """A bulk transfer in progress."""

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "size",
        "remaining",
        "links",
        "done",
        "started_at",
        "tag",
        "fclass",
        "finish_eps",
    )

    def __init__(
        self,
        flow_id: int,
        src: NIC,
        dst: NIC,
        size: float,
        done: Event,
        started_at: float,
        tag: str,
    ):
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size = float(size)
        # Bytes left as of the last settle of the flow's route class.
        self.remaining = float(size)
        self.links = (src.egress, dst.ingress)
        self.done = done
        self.started_at = started_at
        self.tag = tag
        self.fclass: Optional["_FlowClass"] = None
        # Same value as _EPS * max(1.0, size), computed once instead of
        # on every completion scan.
        self.finish_eps = _EPS * (self.size if self.size > 1.0 else 1.0)

    @property
    def rate(self) -> float:
        """Current fair-share rate (lives on the flow's route class)."""
        fclass = self.fclass
        return fclass.rate if fclass is not None else 0.0


class _FlowClass:
    """All active flows sharing one (src-egress, dst-ingress) link pair.

    Flows with identical link sets are interchangeable to max-min water
    filling — they freeze at the same level on the same bottleneck — so
    the allocator works on classes and only the byte accounting stays
    per-flow.
    """

    __slots__ = (
        "links",
        "flows",
        "rate",
        "order",
        "mark",
        "since",
        "least",
        "eps_max",
        "finish_at",
    )

    def __init__(self, links: tuple[_Link, _Link]):
        self.links = links
        # Insertion-ordered; arrival order == ascending flow_id.
        self.flows: dict[Flow, None] = {}
        self.rate = 0.0
        # Id of the oldest active flow: the class's position in the
        # allocation order, i.e. where flow-by-flow water-filling would
        # first encounter this route's links.  Maintained on flow
        # add/remove so sorting needs no per-class function call.
        self.order = 0
        self.mark = 0  # BFS visit epoch (see Network._component)
        # Time of the last settle, min remaining / max finish_eps over
        # members as of that settle, and the absolute completion time of
        # the member that will finish first at the current rate.
        self.since = 0.0
        self.least = _INF
        self.eps_max = 0.0
        self.finish_at = _INF


_CLASS_ORDER = attrgetter("order")


@dataclass
class NetworkConfig:
    """Tuning knobs for the network model."""

    latency: float = 0.0005  # one-way propagation latency, seconds
    message_threshold: float = 64 * KB  # below this, skip the fluid model
    local_copy_rate: float = 4096 * MB  # intra-node memcpy bandwidth
    # False forces full water-filling over every class at each flow
    # event — the reference the incremental allocator is tested against.
    incremental: bool = True

    def __post_init__(self) -> None:
        for attr in ("latency", "message_threshold"):
            if not 0 <= getattr(self, attr) < _INF:
                raise SimulationError(f"{attr} must be finite and >= 0")
        if not 0 < self.local_copy_rate < _INF:
            raise SimulationError("local_copy_rate must be finite and > 0")


class Network:
    """The cluster fabric: NIC registry plus the fluid flow scheduler."""

    def __init__(self, env: Environment, config: Optional[NetworkConfig] = None):
        self.env = env
        self.config = config or NetworkConfig()
        self._nics: dict[str, NIC] = {}
        # dict-as-ordered-set: iteration order (and with it the fair-share
        # float accumulation order) is start-order of the flows, identical
        # in every process — a plain set iterates in address order, which
        # varies run to run and would break serial/parallel equality.
        self._flows: dict[Flow, None] = {}
        self._classes: dict[tuple[_Link, _Link], _FlowClass] = {}
        self._flow_ids = itertools.count(1)
        self._timer: Optional[Timeout] = None
        self._mark = 0  # BFS epoch for _component visited-stamps
        # Recycled _FlowClass shells: route churn (a class per short
        # transfer burst) otherwise allocates one object per flow.
        self._class_pool: list[_FlowClass] = []
        # Classes are created with ascending ``order``, so _classes
        # iterates in allocation order until a class outlives its oldest
        # flow; this flag records when that sortedness breaks.
        self._order_sorted = True
        # Byte and transfer counters, updated as transfers complete.
        self._pair_bytes: dict[tuple[str, str], float] = {}
        self.total_bytes = 0.0
        self.nonlocal_bytes = 0.0
        self.message_count = 0
        self.flow_count = 0
        self.spans = NULL_SPANS
        self.telemetry = NULL_TELEMETRY

    # -- topology ------------------------------------------------------
    def attach(self, name: str, bandwidth: float) -> NIC:
        """Create and register a NIC for node ``name``."""
        if name in self._nics:
            raise SimulationError(f"NIC {name!r} already attached")
        nic = NIC(name, bandwidth)
        self._nics[name] = nic
        return nic

    def nic(self, name: str) -> NIC:
        return self._nics[name]

    @property
    def nics(self) -> dict[str, NIC]:
        return dict(self._nics)

    # -- transfers -------------------------------------------------------
    def transfer(self, src: NIC, dst: NIC, size: float, tag: str = "") -> Event:
        """Move ``size`` bytes from ``src`` to ``dst``.

        Returns an event that fires when the last byte arrives.  Local
        transfers (same NIC) cost a memcpy; small transfers cost latency
        plus nominal serialization; large transfers enter the fair-share
        fluid model.
        """
        if not 0 <= size < _INF:
            raise SimulationError(
                f"transfer size must be finite and >= 0, got {size}"
            )
        done = self.env.event()
        started = self.env.now
        if src is dst:
            duration = size / self.config.local_copy_rate
            self._complete_later(done, duration, src, dst, size, started, "local", tag)
            return done
        if size <= self.config.message_threshold:
            duration = self.config.latency + size / min(
                src.bandwidth, dst.bandwidth
            )
            self.message_count += 1
            self._complete_later(
                done, duration, src, dst, size, started, "message", tag
            )
            return done
        flow = Flow(next(self._flow_ids), src, dst, size, done, started, tag)
        self._flows[flow] = None
        links = flow.links
        fclass = self._classes.get(links)
        if fclass is None:
            pool = self._class_pool
            if pool:
                fclass = pool.pop()
                fclass.links = links
            else:
                fclass = _FlowClass(links)
            fclass.order = flow.flow_id
            fclass.since = started
            fclass.finish_at = _INF
            self._classes[links] = fclass
            for link in links:
                link.classes[fclass] = None
        else:
            # Existing members advance at the pre-arrival rate before the
            # newcomer joins; the rebalance below re-settles with dt=0.
            self._settle_class(fclass, started)
        fclass.flows[flow] = None
        flow.fclass = fclass
        self.flow_count += 1
        self._rebalance(links)
        return done

    def message(self, src: NIC, dst: NIC, size: float = 1 * KB, tag: str = "") -> Event:
        """A latency-dominated control message, never contention-modeled.

        The message is accounted like any transfer (NIC and pair bytes,
        ``message_count``, ``net.*`` telemetry) but records no span: its
        sender records the one span it gets (a control message's
        ``state-sync`` span, see ``repro.core.control.send_control``).
        """
        if not 0 <= size < _INF:
            raise SimulationError(
                f"message size must be finite and >= 0, got {size}"
            )
        if src is dst:
            duration = _LOOPBACK_LATENCY
        else:
            duration = self.config.latency + size / min(src.bandwidth, dst.bandwidth)
        self.message_count += 1
        # The delivery timer doubles as the completion event handed to
        # the caller: its first callback books the transfer, then the
        # waiting process resumes off the same queue entry.  (transfer()
        # keeps a separate done event — flow completion is decided by
        # the bandwidth-sharing model, not by a pre-computed timer.)
        timer = self.env.timeout(duration)
        timer.callbacks.append(
            partial(self._record, src, dst, size, self.env.now, "message", tag)
        )
        return timer

    # -- internals -------------------------------------------------------
    def _complete_later(
        self,
        done: Event,
        duration: float,
        src: NIC,
        dst: NIC,
        size: float,
        started: float,
        kind: str,
        tag: str,
    ) -> None:
        def _finish(_: Event) -> None:
            self._record(src, dst, size, started, kind, tag)
            if self.spans.enabled:
                self._record_span(src, dst, size, started, kind, tag)
            done.succeed()

        timer = self.env.timeout(duration)
        timer.callbacks.append(_finish)

    def _record(
        self,
        src: NIC,
        dst: NIC,
        size: float,
        started: float,
        kind: str,
        tag: str,
        _event: Optional[Event] = None,
    ) -> None:
        """Account one completed transfer (``_event``: its delivery timer)."""
        self.total_bytes += size
        src.egress.bytes_carried += size
        if dst is not src:
            dst.ingress.bytes_carried += size
        if kind != "local":
            self.nonlocal_bytes += size
        pair = (src.name, dst.name)
        pair_bytes = self._pair_bytes
        try:
            pair_bytes[pair] += size
        except KeyError:
            pair_bytes[pair] = size
        telemetry = self.telemetry
        if telemetry.enabled:
            # Labeled by the owning source node: a node's transfers all
            # complete in the one traffic cell that owns it, so sharded
            # telemetry merges as a disjoint union of label-sets and
            # equals the single-process run's bit for bit.
            cache = telemetry.site_cache("net")
            handles = cache.get((src.name, kind))
            if handles is None:
                handles = cache[src.name, kind] = (
                    telemetry.bind_counter("net.bytes", node=src.name, kind=kind),
                    telemetry.bind_counter(
                        "net.transfers", node=src.name, kind=kind
                    ),
                )
            handles[0].inc(size)
            handles[1].inc(1.0)

    def _record_span(
        self, src: NIC, dst: NIC, size: float, started: float, kind: str, tag: str
    ) -> None:
        """The ``net`` span of a completed transfer (not of a message)."""
        # Contention-induced slowdown: actual wire time over the
        # uncontended time the same bytes would have taken.
        actual = self.env.now - started
        if src is dst:
            ideal = size / self.config.local_copy_rate
        else:
            ideal = self.config.latency + size / min(src.bandwidth, dst.bandwidth)
        self.spans.record(
            SpanKind.NET,
            started,
            self.env.now,
            node=src.name,
            transfer=kind,
            dst=dst.name,
            size=size,
            tag=tag,
            slowdown=round(actual / ideal, 4) if ideal > 0 else 1.0,
        )

    def set_nic_bandwidth(self, nic: NIC, bandwidth: float) -> None:
        """Reconfigure a NIC mid-run; active flows re-share immediately.

        ``NIC.set_bandwidth`` alone only affects flows admitted later;
        this settles in-flight progress at the old rates first and then
        re-runs water-filling over the affected component, which is what
        a transient degradation window needs.
        """
        nic.set_bandwidth(bandwidth)
        self._rebalance((nic.egress, nic.ingress))

    def _component(self, seeds: Iterable[_Link]) -> list[_FlowClass]:
        """Classes in the connected component(s) of the seed links.

        Links are vertices and classes edges; a flow change can only
        move rates within the component its two links belong to, so this
        is the exact recomputation frontier.
        """
        # Visited state lives as an epoch stamp on links/classes rather
        # than in per-call sets: bumping one counter resets everything.
        self._mark += 1
        mark = self._mark
        pending = []
        for link in seeds:
            if link.mark != mark:
                link.mark = mark
                pending.append(link)
        out: list[_FlowClass] = []
        while pending:
            link = pending.pop()
            for fclass in link.classes:
                if fclass.mark == mark:
                    continue
                fclass.mark = mark
                out.append(fclass)
                for other in fclass.links:
                    if other.mark != mark:
                        other.mark = mark
                        pending.append(other)
        return out

    def _allocate_over(self, component: list[_FlowClass], from_bfs: bool) -> None:
        """Max-min fair water-filling over ``component``.

        ``from_bfs`` says the classes come in BFS traversal order (from
        :meth:`_component`) rather than registry order.  Bit-for-bit
        equal to per-flow water-filling over all flows:

        - The allocation order (classes by oldest-flow id) reproduces
          the link first-encounter order of the per-flow loop, so the
          EPS tie-break in bottleneck selection resolves identically.
        - A freezing class subtracts its share once per member flow
          (``n * share`` would not accumulate bit-identically).
        - Per-link fair-share levels are cached and re-divided only when
          a link's spare/count changed — same operands, same quotient.
        - Within one freeze step every subtraction is the same value, so
          freezing straight off the bottleneck's own class list (instead
          of filtering all unfrozen classes) reorders nothing that
          float accumulation can observe.
        """
        if not component:
            return
        if len(component) == 1:
            # Isolated route: water-filling reduces to one level.  Same
            # divisions and the same EPS tie-break between the two links
            # as the generic loop, so the rate is bit-identical.
            fclass = component[0]
            n = len(fclass.flows)
            first, second = fclass.links
            share = first.bandwidth / n
            other = second.bandwidth / n
            if other < share - _EPS:
                share = other
            fclass.rate = share
            return
        if from_bfs:
            # BFS emits classes in traversal order.
            component.sort(key=_CLASS_ORDER)
        elif not self._order_sorted:
            # Dict order drifted (a class outlived its oldest flow):
            # sort once and rebuild the registry in allocation order so
            # subsequent full passes skip the sort again.
            component.sort(key=_CLASS_ORDER)
            self._classes = {c.links: c for c in component}
            self._order_sorted = True
        link_spare: dict[_Link, float] = {}
        link_count: dict[_Link, int] = {}
        for fclass in component:
            fclass.rate = 0.0
            n = len(fclass.flows)
            for link in fclass.links:
                if link in link_count:
                    link_count[link] += n
                else:
                    link_spare[link] = link.bandwidth
                    link_count[link] = n
        if len(component) <= _SMALL_COMPONENT:
            # Lean variant of the loop below: for a handful of classes
            # the level cache and list compaction cost more than the
            # divisions they avoid.  Same operands, same quotients.
            unfrozen = dict.fromkeys(component)
            while unfrozen:
                bottleneck = None
                share = _INF
                for link, count in link_count.items():
                    if count <= 0:
                        continue
                    lv = link_spare[link] / count
                    if lv < share - _EPS:
                        share = lv
                        bottleneck = link
                if bottleneck is None:
                    break
                frozen_now = [c for c in bottleneck.classes if c in unfrozen]
                if not frozen_now:  # pragma: no cover - defensive
                    break
                for fclass in frozen_now:
                    fclass.rate = share
                    del unfrozen[fclass]
                    n = len(fclass.flows)
                    for link in fclass.links:
                        spare = link_spare[link]
                        if n == 1:
                            spare -= share
                        else:
                            for _ in range(n):
                                spare -= share
                        link_spare[link] = spare
                        link_count[link] -= n
                link_count[bottleneck] = 0
            return
        # First-appearance order, with cached levels; links whose count
        # hits zero drop out of the scan for good (counts only shrink),
        # and the list is compacted once enough of it has died.
        active = list(link_count)
        level = {link: link_spare[link] / link_count[link] for link in active}
        dead = 0
        unfrozen = dict.fromkeys(component)
        while unfrozen:
            if dead * 2 > len(active):
                active = [l for l in active if link_count[l] > 0]
                dead = 0
            # Most-contended link determines the next fair-share level.
            bottleneck = None
            share = _INF
            for link in active:
                if link_count[link] <= 0:
                    continue
                lv = level[link]
                if lv < share - _EPS:
                    share = lv
                    bottleneck = link
            if bottleneck is None:
                break
            frozen_now = [c for c in bottleneck.classes if c in unfrozen]
            if not frozen_now:  # pragma: no cover - defensive
                break
            for fclass in frozen_now:
                fclass.rate = share
                del unfrozen[fclass]
                n = len(fclass.flows)
                for link in fclass.links:
                    spare = link_spare[link]
                    if n == 1:
                        spare -= share
                    else:
                        for _ in range(n):
                            spare -= share
                    link_spare[link] = spare
                    count = link_count[link] - n
                    link_count[link] = count
                    if count > 0:
                        level[link] = spare / count
                    else:
                        dead += 1
            if link_count[bottleneck] > 0:  # pragma: no cover - defensive
                dead += 1
                link_count[bottleneck] = 0

    def _retire_finished(self, finished: list[Flow]) -> Iterable[_Link]:
        """Remove completed flows, record them, fire their tail timers.

        Returns the links whose components need rebalancing.
        """
        for flow in finished:
            self._flows.pop(flow, None)
            fclass = flow.fclass
            flow.fclass = None
            if fclass is not None:
                fclass.flows.pop(flow, None)
                if not fclass.flows:
                    self._classes.pop(fclass.links, None)
                    for link in fclass.links:
                        link.classes.pop(fclass, None)
                    fclass.rate = 0.0
                    if len(self._class_pool) < 64:
                        self._class_pool.append(fclass)
                else:
                    fclass.order = next(iter(fclass.flows)).flow_id
                    self._order_sorted = False
            self._record(
                flow.src, flow.dst, flow.size, flow.started_at, "flow", flow.tag
            )
            if self.spans.enabled:
                self._record_span(
                    flow.src, flow.dst, flow.size, flow.started_at, "flow",
                    flow.tag,
                )
            # Tail latency of the last byte crossing the wire.
            done = flow.done
            tail = self.env.timeout(self.config.latency)
            tail.callbacks.append(lambda _, d=done: d.succeed())
        if len(finished) == 1:
            return finished[0].links
        touched: dict[_Link, None] = {}
        for flow in finished:
            for link in flow.links:
                touched[link] = None
        return tuple(touched)

    def _settle_class(self, fclass: _FlowClass, now: float) -> None:
        """Advance one class's members to ``now`` at the current rate.

        Also refreshes the class's cached min-remaining / max-eps, which
        must track membership changes even when no time has passed.
        Every float here depends only on the class's own event history,
        never on when *other* components happened to have events — that
        is the property that makes sharded runs bit-identical.
        """
        dt = now - fclass.since
        rate = fclass.rate
        least = _INF
        eps_max = 0.0
        if dt > 0.0 and rate > 0.0:
            shift = rate * dt
            for flow in fclass.flows:
                left = flow.remaining - shift
                if left <= 0.0:
                    left = 0.0
                flow.remaining = left
                if left < least:
                    least = left
                if flow.finish_eps > eps_max:
                    eps_max = flow.finish_eps
        else:
            for flow in fclass.flows:
                if flow.remaining < least:
                    least = flow.remaining
                if flow.finish_eps > eps_max:
                    eps_max = flow.finish_eps
        fclass.since = now
        fclass.least = least
        fclass.eps_max = eps_max

    def _rebalance(self, changed: Iterable[_Link]) -> None:
        """Settle + water-fill the affected component, re-arm the timer.

        Component discovery is always exact: settling a class at another
        component's event time would re-partition its float subtractions
        and break shard/single equivalence.  With ``incremental=False``
        the water-filling still runs over every active class, as the
        reference the component-local allocation is tested against.
        """
        component = self._component(changed)
        now = self.env.now
        for fclass in component:
            self._settle_class(fclass, now)
        if self.config.incremental:
            self._allocate_over(component, True)
            allocated = component
        else:
            allocated = list(self._classes.values())
            self._allocate_over(allocated, False)
        for fclass in allocated:
            rate = fclass.rate
            if rate > _EPS:
                fclass.finish_at = fclass.since + fclass.least / rate
            else:
                fclass.finish_at = _INF
        self._arm_timer()

    def _rebalance_analytic(self, changed: Iterable[_Link]) -> None:
        """Former name of :meth:`_rebalance`; nothing in the package calls it.

        Kept because ``perfbench/layers.py`` still names it among the
        rebalance entry points whose profiler call counts it sums.
        """
        self._rebalance(changed)

    def _arm_timer(self) -> None:
        """Re-arm the completion wake-up at the earliest ``finish_at``.

        The timer is scheduled at an *absolute* time, so the fire time
        does not depend on which intermediate events this particular
        simulation happened to process (``now + delay`` would).
        """
        timer = self._timer
        if timer is not None:
            timer.cancel()
            self._timer = None
        soonest = _INF
        for fclass in self._classes.values():
            if fclass.finish_at < soonest:
                soonest = fclass.finish_at
        if soonest == _INF:
            return
        now = self.env.now
        timer = self.env.schedule_at(soonest if soonest > now else now)
        timer.callbacks.append(self._on_timer)
        self._timer = timer

    def _on_timer(self, _: Event) -> None:
        """Retire the flows that are due, within their components only.

        The eps band applies only to the components of classes whose
        ``finish_at`` has passed: settling a class of an unrelated
        component at this instant would make its completion depend on
        another component's timer, which a sharded run never sees.
        Retirement keeps class-creation order.
        """
        self._timer = None
        now = self.env.now
        due: list[_Link] = []
        banded: list[_FlowClass] = []
        for fclass in self._classes.values():
            if fclass.finish_at <= now:
                due.extend(fclass.links)
            rate = fclass.rate
            # Projected min-remaining at ``now``; anything within the
            # class's eps band has (or is about to have) completed.
            if (
                rate > _EPS
                and fclass.least - rate * (now - fclass.since) <= fclass.eps_max
            ):
                banded.append(fclass)
        self._component(due)
        mark = self._mark
        finished: list[Flow] = []
        for fclass in banded:
            if fclass.mark != mark:
                continue
            self._settle_class(fclass, now)
            for flow in fclass.flows:
                if flow.remaining <= flow.finish_eps:
                    finished.append(flow)
        changed = self._retire_finished(finished)
        self._rebalance(changed)

    # -- introspection -----------------------------------------------------
    @property
    def active_flow_count(self) -> int:
        return len(self._flows)

    @property
    def active_flows(self) -> list[Flow]:
        """Active flows in arrival order (testing/introspection)."""
        return list(self._flows)

    def bytes_between(self, src: str, dst: str) -> float:
        """Total bytes moved from node ``src`` to node ``dst``.

        Backed by an incremental per-pair counter updated as transfers
        complete: one number per node pair, however long the run.
        """
        return self._pair_bytes.get((src, dst), 0.0)


def record_transfers(network: Network) -> list[tuple]:
    """Collect one row per transfer ``network`` completes from now on.

    Rows are ``(src, dst, size, started_at, finished_at, kind, tag)``
    tuples (``kind`` is ``"flow"``, ``"message"`` or ``"local"``), in
    completion order.  The returned list grows as the run goes on; it
    wraps this one instance's ``_record``, so attach it before the
    transfers it should see, and only where the rows are wanted.
    """
    rows: list[tuple] = []
    append = rows.append
    account = network._record
    env = network.env

    def _record(src, dst, size, started, kind, tag, _event=None):
        account(src, dst, size, started, kind, tag)
        append((src.name, dst.name, size, started, env.now, kind, tag))

    network._record = _record
    return rows
