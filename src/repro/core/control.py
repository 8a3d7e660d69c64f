"""Control messages: send one, record its one ``state-sync`` span.

Every control message an engine sends goes through :func:`send_control`:
MasterSP task assignments and results, WorkerSP state and DataflowSP
token syncs (single or batched), invocation requests, and sink and
failure reports to the client.  Every engine's control hops wait on
the delivery event as callback chains (``repro.core.worker_engine``);
only the failure report of a WorkerSP trigger handler yields it.
:meth:`repro.sim.network.Network.message` accounts the message (NIC
and pair bytes, ``message_count``, ``net.*`` telemetry) and records no
span, so each message has exactly one span.
"""

from __future__ import annotations

from ..obs.spans import SpanKind
from ..sim import Event, Node

__all__ = ["send_control"]


def send_control(
    network,
    spans,
    src: Node,
    dst: Node,
    size: float,
    tag: str,
    role: str,
    workflow: str,
    invocation_id: int,
    function: str,
    batch: int = 1,
) -> Event:
    """Send a control message from ``src`` to ``dst``; return its delivery.

    The caller's control hop appends its arrival callback to the
    returned event.  With spans on, the message's ``state-sync`` span
    (``role``, ``dst``; a batch of more than one update adds ``batch``
    and the role suffix ``-batch``) is recorded under the invocation
    root when the message lands, before the waiter runs: its callback
    is appended here, ahead of the waiter's.
    """
    delivered = network.message(src.nic, dst.nic, size, tag)
    if spans.enabled:
        started = spans.env.now
        attrs = {}
        if batch != 1:
            role = f"{role}-batch"
            attrs["batch"] = batch

        def _record(_event: Event) -> None:
            spans.record(
                SpanKind.STATE_SYNC,
                started,
                spans.env.now,
                workflow=workflow,
                invocation_id=invocation_id,
                function=function,
                node=src.name,
                parent=spans.root_of(invocation_id),
                role=role,
                dst=dst.name,
                **attrs,
            )

        delivered.callbacks.append(_record)
    return delivered
