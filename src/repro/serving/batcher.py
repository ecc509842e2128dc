"""Deadline-aware dynamic micro-batching (the Clipper-style core).

The batcher holds admitted requests in per-stream FIFO queues and
answers two questions for the event loop:

* *when* must the next batch leave — immediately once ``max_batch``
  requests are pending, otherwise at the **forced-dispatch time**: the
  latest instant the oldest pending request can still start and meet
  its deadline given the predicted batch execution latency (waiting any
  longer converts it from servable to violated);
* *which* requests ride in it — round-robin across streams, oldest
  first within a stream, so one hot stream can never starve the others
  out of a batch (per-stream fairness).

Batch execution latency comes from an injected ``batch_latency_ms(b)``
callable — in the simulator that is
:meth:`repro.latency.batching.BatchingModel.batch_point`, which is how
the analytic model and the discrete-event simulation stay mutually
consistent (and cross-validatable).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from ..errors import BenchmarkError
from .request import Request


class MicroBatcher:
    """Bounded FIFO of pending requests with dynamic batch closing.

    ``max_batch`` caps batch size (chosen by the caller, typically via
    ``BatchingModel.best_batch_under_deadline``); ``capacity`` bounds total pending requests — the backpressure
    signal admission control reads.
    """

    def __init__(self, max_batch: int,
                 batch_latency_ms: Callable[[int], float],
                 capacity: int = 256) -> None:
        if max_batch < 1:
            raise BenchmarkError(f"max_batch must be >= 1, got {max_batch}")
        if capacity < max_batch:
            raise BenchmarkError(
                f"queue capacity {capacity} below max_batch {max_batch}")
        self.max_batch = int(max_batch)
        self.capacity = int(capacity)
        self._latency = batch_latency_ms
        self._streams: Dict[int, Deque[Request]] = {}
        self._rr: Deque[int] = deque()      # round-robin stream order
        self._pending = 0

    # -- queue state ---------------------------------------------------------

    @property
    def pending(self) -> int:
        return self._pending

    @property
    def full(self) -> bool:
        return self._pending >= self.capacity

    def oldest(self) -> Optional[Request]:
        """The earliest-arrived pending request (None when empty)."""
        heads = [q[0] for q in self._streams.values() if q]
        if not heads:
            return None
        return min(heads, key=lambda r: (r.arrival_ms, r.stream))

    def push(self, request: Request) -> None:
        """Enqueue an admitted request (admission already said yes)."""
        if self.full:
            raise BenchmarkError("push into a full batcher queue")
        q = self._streams.get(request.stream)
        if q is None:
            q = self._streams[request.stream] = deque()
            self._rr.append(request.stream)
        q.append(request)
        self._pending += 1

    def remove(self, request: Request) -> bool:
        """Withdraw a queued request (failover re-route / hedge-win
        cancellation).  Returns False when it is not queued here.

        The stream's round-robin slot is kept even if its queue
        empties — :meth:`take_batch` drops drained streams lazily, so
        removal never perturbs the rotation order of the others.
        """
        q = self._streams.get(request.stream)
        if q is None:
            return False
        try:
            q.remove(request)
        except ValueError:
            return False
        self._pending -= 1
        return True

    def drain(self) -> List[Request]:
        """Take *every* pending request (crash requeue), oldest first."""
        out: List[Request] = []
        for stream in sorted(self._streams):
            out.extend(self._streams[stream])
        self._streams.clear()
        self._rr.clear()
        self._pending = 0
        out.sort(key=lambda r: (r.arrival_ms, r.stream, r.seq))
        return out

    # -- checkpointing -------------------------------------------------------

    def state(self) -> dict:
        """Pure-data snapshot of the queue (for event-loop
        checkpoints): per-stream request tuples plus rotation order."""
        return {
            "streams": {
                stream: [(r.stream, r.seq, r.arrival_ms, r.deadline_ms)
                         for r in q]
                for stream, q in sorted(self._streams.items())},
            "rr": list(self._rr),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state` snapshot (replaces all queues)."""
        self._streams = {
            int(stream): deque(
                Request(stream=s, seq=q, arrival_ms=a, deadline_ms=d)
                for s, q, a, d in reqs)
            for stream, reqs in state["streams"].items()}
        self._rr = deque(int(s) for s in state["rr"])
        self._pending = sum(len(q) for q in self._streams.values())

    # -- dispatch policy -----------------------------------------------------

    def next_dispatch_ms(self, now_ms: float,
                         draining: bool = False) -> float:
        """When the next batch must leave (``inf`` = no batch yet).

        ``now_ms`` when a full batch is waiting (or the workload is
        draining and anything is pending); otherwise the oldest
        request's forced-dispatch time.
        """
        if self._pending == 0:
            return math.inf
        if self._pending >= self.max_batch or draining:
            return now_ms
        oldest = self.oldest()
        assert oldest is not None
        exec_ms = self._latency(min(self._pending, self.max_batch))
        return oldest.deadline_ms - exec_ms

    def take_batch(self) -> List[Request]:
        """Form the next batch: round-robin over streams, FIFO within.

        The rotation cursor persists across batches, so under sustained
        overload every stream gets a fair share of batch slots even
        when each stream's backlog alone could fill whole batches.
        """
        if self._pending == 0:
            raise BenchmarkError("take_batch on an empty batcher")
        size = min(self.max_batch, self._pending)
        batch: List[Request] = []
        while len(batch) < size:
            stream = self._rr[0]
            q = self._streams.get(stream)
            if q is None or not q:
                # Stream drained: drop it from the rotation entirely.
                self._rr.popleft()
                if q is not None:
                    del self._streams[stream]
                continue
            batch.append(q.popleft())
            self._pending -= 1
            self._rr.rotate(-1)
        batch.sort(key=lambda r: (r.arrival_ms, r.stream, r.seq))
        return batch
