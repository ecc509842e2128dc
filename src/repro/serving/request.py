"""Requests and per-drone request streams for the serving event loop.

A :class:`Request` is one frame shipped from one drone stream to the
workstation: it carries its generation time and the absolute deadline
the guidance loop needs the answer by.  :func:`generate_arrivals`
produces the full time-ordered arrival schedule for a fleet of streams
— phase-staggered periodic streams (the same interleaving the fleet
scheduler uses) with optional seeded jitter, so the schedule is a pure
function of the workload parameters and the seed.
:func:`schedule_arrivals` builds any subset of those streams, under an
optional per-segment rate ramp, with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import BenchmarkError
from ..rng import make_rng
from ..units import fps_to_period_ms


@dataclass(frozen=True)
class Request:
    """One inference request on the serving timeline."""

    stream: int          # drone stream id
    seq: int             # per-stream sequence number
    arrival_ms: float    # when it reaches the workstation queue
    deadline_ms: float   # absolute completion deadline

    def __post_init__(self) -> None:
        if self.stream < 0 or self.seq < 0:
            raise BenchmarkError("negative stream/seq id")
        if self.deadline_ms <= self.arrival_ms:
            raise BenchmarkError(
                f"request deadline {self.deadline_ms} not after "
                f"arrival {self.arrival_ms}")

    @property
    def slack_at(self) -> float:
        """Relative deadline (budget from arrival)."""
        return self.deadline_ms - self.arrival_ms


def generate_arrivals(num_streams: int, frame_rate: float,
                      duration_s: float, deadline_ms: float,
                      jitter_ms: float = 0.0,
                      seed: Optional[int] = None) -> List[Request]:
    """Time-ordered arrival schedule for ``num_streams`` drone streams.

    Streams are phase-staggered by a fraction of the frame period so the
    server sees a realistic interleaving rather than synchronised
    bursts; ``jitter_ms`` adds uniform per-request arrival noise from
    the seeded ``serving-arrivals`` stream (0 disables it, keeping the
    schedule arithmetic-exact).  Ties are broken by stream id, so the
    order is total and reruns are byte-identical.
    """
    return schedule_arrivals(range(num_streams), num_streams, frame_rate,
                             duration_s, deadline_ms,
                             jitter_ms=jitter_ms, seed=seed)


def schedule_arrivals(streams: Iterable[int], num_streams: int,
                      frame_rate: float, duration_s: float,
                      deadline_ms: float,
                      ramp: Sequence[float] = (1.0,),
                      jitter_ms: float = 0.0,
                      seed: Optional[int] = None) -> List[Request]:
    """Time-ordered arrivals of ``streams``, a subset of a fleet of
    ``num_streams`` streams (:func:`generate_arrivals` is the whole
    fleet without a ramp).

    ``ramp`` splits the run into equal segments whose per-stream rate
    is ``frame_rate × multiplier``, phase-staggered within each
    segment.  Jitter is drawn for the whole fleet as one vector in
    stream-major, sequence-minor order (bitwise equal to one scalar
    draw per request in that order), so any subset of streams gets
    exactly the arrivals the full schedule gives it.
    """
    if num_streams < 1:
        raise BenchmarkError("need at least one request stream")
    if frame_rate <= 0 or duration_s <= 0:
        raise BenchmarkError("bad workload parameters")
    if deadline_ms <= 0:
        raise BenchmarkError("deadline must be positive")
    if jitter_ms < 0:
        raise BenchmarkError("negative arrival jitter")
    if not ramp or any(m <= 0 for m in ramp):
        raise BenchmarkError("ramp multipliers must be positive")
    seg_s = duration_s / len(ramp)
    segments: List[Tuple[float, float, int]] = []
    for i, mult in enumerate(ramp):
        rate = frame_rate * mult
        segments.append((i * seg_s * 1000.0, fps_to_period_ms(rate),
                         int(seg_s * rate)))
    per_stream = sum(frames for _, _, frames in segments)
    jitter: Optional[List[float]] = None
    if jitter_ms > 0:
        rng = make_rng(seed, "serving-arrivals")
        jitter = rng.uniform(0.0, jitter_ms,
                             size=num_streams * per_stream).tolist()
    out: List[Request] = []
    for stream in streams:
        if not 0 <= stream < num_streams:
            raise BenchmarkError(
                f"stream {stream} outside a fleet of {num_streams}")
        seq = 0
        for seg_start, period, frames in segments:
            phase = period * stream / num_streams
            for k in range(frames):
                t = seg_start + phase + k * period
                if jitter is not None:
                    t += jitter[stream * per_stream + seq]
                out.append(Request(stream=stream, seq=seq, arrival_ms=t,
                                   deadline_ms=t + deadline_ms))
                seq += 1
    out.sort(key=lambda r: (r.arrival_ms, r.stream, r.seq))
    return out
