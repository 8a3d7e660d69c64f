"""Tuning constants for the workflow engines.

These model the per-message and per-event costs of the two schedule
patterns.  The MasterSP costs are calibrated against the paper's §2.3
measurement of HyperFlow-serverless (an average 712 ms scheduling
overhead for 50-node scientific workflows); the WorkerSP costs against
FaaSFlow's §5.2 numbers (141.9 ms for the same workflows).  The
asymmetry is structural, not just a smaller constant: the central engine
serializes every trigger decision and pays two network hops per
function, while per-worker engines run in parallel and trigger local
functions over an in-process RPC.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

__all__ = ["EngineConfig"]

_KB = 1024.0


@dataclass
class EngineConfig:
    """Knobs shared by the MasterSP and WorkerSP implementations."""

    # MasterSP: the central engine handles every state transition and
    # task dispatch in one serialized event loop (HyperFlow's enactment
    # engine plus Docker dispatch on the master).
    master_process_time: float = 0.014

    # WorkerSP: a per-worker engine only bookkeeps its local sub-graph.
    worker_process_time: float = 0.005

    # Local function triggering via inner RPC (paper §3.1).
    local_trigger_time: float = 0.0015

    # DataflowSP: per-token handling cost of function-level dataflow
    # triggering (DFlow/DataFlower).  There is no sub-graph engine loop
    # to serialize behind — tokens are processed in parallel — so each
    # token pays only this constant.
    dataflow_trigger_time: float = 0.002

    # DataflowSP: when on, a producer ships each finished output chunk
    # straight to its remote consumers' nodes the moment it is written
    # (pre-fetched into the consumers' FaaStore before their trigger
    # fires), overlapping transfer with upstream compute.  Off =
    # trigger-only dataflow, the ablation baseline.
    eager_ship: bool = True

    # Control-plane message sizes.
    assign_message_size: float = 2 * _KB  # master -> worker task assignment
    result_message_size: float = 1 * _KB  # worker -> master execution state
    state_message_size: float = 1 * _KB  # worker -> worker state sync

    # Whether intermediate data is shipped between functions.  The
    # scheduling-overhead experiments (paper §2.3/§5.2) pre-pack inputs in
    # the container image, i.e. no data plane traffic.
    ship_data: bool = True

    # Execution timeout: invocations whose functions exceed this are
    # marked failed with the cap as their latency (paper §5.1: 60 s).
    execution_timeout: float = 60.0

    # How many times a crashed function task is retried (fresh
    # container) before the invocation is declared failed.
    max_retries: int = 2

    # Exponential backoff between retries of one task:
    #   delay(n) = min(max, base * factor ** (n - 1)) * (1 ± jitter)
    # base 0 (the default) retries immediately, preserving the seeded
    # event sequences of runs that never configured backoff.  The jitter
    # fraction is hash-derived per (seed, task, attempt), so schedules
    # are independent of sibling interleaving and replay exactly.
    retry_backoff_base: float = 0.0
    retry_backoff_factor: float = 2.0
    retry_backoff_max: float = 30.0
    retry_jitter: float = 0.0
    retry_seed: int = 17

    # Per-attempt execution timeout (straggler kill): an attempt running
    # longer than this is interrupted and counts as a retryable failure.
    # 0 disables the watchdog (the default — no extra kernel events).
    function_timeout: float = 0.0

    # When enabled, switch steps execute only their selected arm at
    # runtime (the DAG parser still provisions every arm, §4.1.1); the
    # selection is a deterministic per-invocation hash so distributed
    # engines agree without coordination.  Off by default: the paper's
    # measurements treat switch like parallel.
    evaluate_switches: bool = False

    # Relative execution-time variance: each function execution's
    # service time is multiplied by a lognormal factor with this
    # coefficient of variation (0 = deterministic, the calibrated
    # default).  Seeded per runtime, so runs stay reproducible.
    service_time_jitter: float = 0.0
    jitter_seed: int = 71

    # Tenant owning the invocations this engine serves; a telemetry /
    # SLO label only — no scheduling behavior depends on it.
    tenant: str = "default"

    # Batched control plane (WorkerSP/DataflowSP): coalesce the control
    # messages one engine step emits toward the same destination into a
    # single network transfer and a single handler wakeup.  Off by
    # default — the default event sequence is pinned bit-identically by
    # tests/test_golden_digests.py, while batched mode *diverges*
    # (documented in API.md "Serving throughput" and pinned by test):
    # the coalesced transfer carries the summed payload and the whole
    # batch pays one engine step instead of one per message, so
    # timestamps shift slightly and per-step counters drop.  MasterSP is
    # structurally unaffected: its serialized assignment loop staggers
    # dispatches so no two same-destination messages share a step.
    batch_control: bool = False

    def __post_init__(self) -> None:
        for attr in (
            "master_process_time",
            "worker_process_time",
            "local_trigger_time",
            "dataflow_trigger_time",
            "assign_message_size",
            "result_message_size",
            "state_message_size",
        ):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be >= 0")
        if not 0 < self.execution_timeout < math.inf:
            raise ValueError("execution_timeout must be finite and > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_base < 0:
            raise ValueError("retry_backoff_base must be >= 0")
        if self.retry_backoff_factor < 1:
            raise ValueError("retry_backoff_factor must be >= 1")
        if self.retry_backoff_max < 0:
            raise ValueError("retry_backoff_max must be >= 0")
        if not 0.0 <= self.retry_jitter < 1.0:
            raise ValueError("retry_jitter must be in [0, 1)")
        if self.retry_jitter > 0 and self.retry_backoff_base <= 0:
            # The documented delay(n) = min(max, base * factor**(n-1))
            # * (1 ± jitter) multiplies a zero base, so jitter alone
            # silently does nothing.  Surface the misconfiguration here
            # instead of letting retries storm back immediately.
            warnings.warn(
                "retry_jitter > 0 has no effect while retry_backoff_base "
                "== 0: every retry delay is 0 regardless of jitter. Set "
                "retry_backoff_base > 0 to enable jittered backoff.",
                UserWarning,
                stacklevel=2,
            )
        if not 0 <= self.function_timeout < math.inf:
            raise ValueError("function_timeout must be finite and >= 0")
        if self.service_time_jitter < 0:
            raise ValueError("service_time_jitter must be >= 0")
