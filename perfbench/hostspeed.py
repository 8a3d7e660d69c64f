"""Host-speed reference: converts measured host seconds to reference seconds.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes, which no amount of repetition averages out.  So
the simulation advances in short slices, and between slices the
benchmark runs one block of fixed pure-Python work that uses none of the
simulator's code.  How fast those blocks ran tells how fast the host
was while the slices ran; host seconds are scaled by it to *reference
seconds*, the time the same work takes on a host that runs one block in
``NOMINAL_BLOCK_S``.

The simulator slows less than the reference block when the host is
busy: regressing the log of simulation time on the log of reference
time over 5- and 10-second windows gave slopes of 0.66 to 0.79 in three
5-minute samples on the tuning machine, and over 60 full benchmark runs
(20 per workload) a power of 0.8 left the least spread on every
workload (quartile distance over median 2-4.5%, against 18-48%
unnormalized).  So the simulator's speed is taken as the reference
speed to the power ``ELASTICITY``.
"""

from __future__ import annotations

import gc
import heapq
import time

# Host seconds one reference block takes at the reference speed (about
# the median on the 2-vCPU machine the benchmark was tuned on).
NOMINAL_BLOCK_S = 0.0015
BLOCK_ITERATIONS = 1000
ELASTICITY = 0.8


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def _accumulator():
    total = 0
    while True:
        total += yield total


def reference_block() -> int:
    """Fixed work in the simulator's idiom: a heap of tuples, dict
    counters, small objects, a generator driven by ``send``."""
    heap: list = []
    table: dict = {}
    accumulator = _accumulator()
    next(accumulator)
    checksum = 0
    for index in range(BLOCK_ITERATIONS):
        item = _Item(index % 97, index)
        heapq.heappush(heap, (item.key, index, item))
        if len(heap) > 64:
            checksum += heapq.heappop(heap)[2].value
        table[item.key] = table.get(item.key, 0) + 1
        checksum += accumulator.send(index & 7)
    return checksum


class HostClock:
    """Reference blocks interleaved with measured work."""

    def __init__(self) -> None:
        self.blocks = 0
        self.seconds = 0.0

    def pause(self) -> None:
        """Run one reference block.  Garbage collection is held off so a
        collection of the simulator's heap is never charged to it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            reference_block()
            self.seconds += time.perf_counter() - started
            self.blocks += 1
        finally:
            if enabled:
                gc.enable()

    @property
    def speed(self) -> float:
        """The simulator's expected speed on this host relative to the
        reference host (2.0 = twice as fast): host seconds times this
        are reference seconds."""
        if not self.blocks:
            raise ValueError("no reference block has run")
        return (self.blocks * NOMINAL_BLOCK_S / self.seconds) ** ELASTICITY
