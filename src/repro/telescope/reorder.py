"""Watermark/reorder buffer: out-of-order tolerance for the live feed.

A production vantage point does not deliver a perfectly sorted stream:
multi-queue NICs, per-CPU capture buffers, and multi-file merges all
introduce bounded local disorder.  The strict consumers downstream
(:func:`repro.telescope.stream.merge_streams` and
:class:`repro.core.detector.StreamingDetector`) reject a stream that
goes backwards, so the live path needs a re-sorting stage with an
explicit bound and an explicit policy for what happens beyond it.

:class:`ReorderBuffer` implements the classic watermark design: arrivals
are held in a min-heap, and a record is released only once the maximum
timestamp seen exceeds it by at least ``horizon_seconds`` — i.e. once
no in-horizon straggler can still precede it.  Records arriving *later*
than the watermark (more than a horizon behind the stream front) cannot
be re-sorted without unbounded memory; they are handled by a
:class:`LatePolicy` instead of a crash:

* ``ADMIT`` — emit the late record immediately, out of order.  The
  output is no longer monotone; use only for consumers that re-sort
  (e.g. a capture writer feeding the batch pipeline).
* ``COUNT`` — drop the record and account for it in :class:`ReorderStats`
  (the default: the detector never sees disorder, the operator sees the
  loss).
* ``DROP`` — drop it without distinct accounting (still tallied in
  ``late_total``).
* ``RAISE`` — fail loudly, for pipelines that prefer the old behaviour.

Within the horizon the buffer is *lossless and exact*: any input that is
a bounded permutation of a sorted stream is restored to that sorted
stream, which is what lets the fault-injection suite pin "10% reorder
within the horizon produces bit-identical events".

Arrivals enter one at a time (:meth:`ReorderBuffer.push`: ``serve`` and
fused ``live``) or as a :class:`~repro.telescope.capture.RecordChunk`
(:meth:`ReorderBuffer.push_batch`: single-source ``live``, partitioned
or not).  The batch
form computes the same per-arrival watermark arithmetic with array
running maxima, so both give the same late verdicts, release order,
stats and heap; a batch only materialises the records still held at
its end as :class:`Observation` s.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..obs.metrics import resolve_registry
from .capture import RecordChunk
from .records import Observation, TaggedObservation

__all__ = ["LatePolicy", "ReorderStats", "ReorderBuffer", "reorder_stream"]


class LatePolicy(enum.Enum):
    """What to do with a record that arrives beyond the reorder horizon."""

    ADMIT = "admit"
    COUNT = "count"
    DROP = "drop"
    RAISE = "raise"


@dataclass
class ReorderStats:
    """Operational counters for one :class:`ReorderBuffer`."""

    pushed: int = 0
    emitted: int = 0
    out_of_order: int = 0  #: arrivals older than the previous arrival
    late_total: int = 0    #: arrivals strictly behind the watermark
                           #: (a tie with the watermark is on-time)
    late_admitted: int = 0
    late_dropped: int = 0
    max_displacement_seconds: float = 0.0
    occupancy_peak: int = 0  #: most records ever held back at once

    def as_dict(self) -> dict:
        return {
            "pushed": self.pushed,
            "emitted": self.emitted,
            "out_of_order": self.out_of_order,
            "late_total": self.late_total,
            "late_admitted": self.late_admitted,
            "late_dropped": self.late_dropped,
            "max_displacement_seconds": self.max_displacement_seconds,
            "occupancy_peak": self.occupancy_peak,
        }


class ReorderBuffer:
    """Re-sort a nearly-sorted observation stream within a bounded horizon.

    Usage::

        buffer = ReorderBuffer(horizon_seconds=2.0)
        for observation in noisy_feed:
            for ready in buffer.push(observation):
                detector.observe(ready)
        for ready in buffer.flush():
            detector.observe(ready)

    Output is guaranteed non-decreasing in time for every policy except
    ``ADMIT``.  Ties are released in arrival order (stable).
    """

    def __init__(self, horizon_seconds: float,
                 policy: LatePolicy = LatePolicy.COUNT,
                 metrics: Optional[Any] = None) -> None:
        if horizon_seconds < 0:
            raise ValueError("horizon_seconds must be >= 0")
        self.horizon_seconds = float(horizon_seconds)
        self.policy = policy
        self.stats = ReorderStats()
        self._heap: List[Tuple[float, int, Observation]] = []
        self._sequence = 0
        self._front = float("-inf")      # max timestamp seen so far
        self._emitted_up_to = float("-inf")
        self._last_arrival = float("-inf")
        self.metrics = resolve_registry(metrics)
        records = self.metrics.counter(
            "reorder_records_total",
            "Records leaving the reorder buffer, by outcome",
            labelnames=("outcome",))
        self._m_admitted = records.labels(outcome="admitted")
        self._m_late_admitted = records.labels(outcome="late_admitted")
        self._m_late_dropped = records.labels(outcome="late_dropped")
        self._m_occupancy = self.metrics.gauge(
            "reorder_buffer_occupancy",
            "Records currently held back waiting for the watermark")
        self._m_occupancy_peak = self.metrics.gauge(
            "reorder_buffer_occupancy_peak",
            "High-watermark of reorder-buffer occupancy")

    @property
    def front(self) -> float:
        """Largest timestamp pushed so far (-inf before the first)."""
        return self._front

    @property
    def watermark(self) -> float:
        """Largest timestamp that is safe to emit (front minus horizon)."""
        return self._front - self.horizon_seconds

    @property
    def pending(self) -> int:
        """Records currently held back waiting for the watermark."""
        return len(self._heap)

    def push(self, observation: Observation) -> List[Observation]:
        """Add one arrival; return the records now past the watermark.

        A non-finite timestamp raises :class:`ValueError` regardless of
        the late policy: NaN compares false against the watermark (it
        would silently corrupt the heap order) and inf would advance the
        front so far that every later genuine arrival looks late.
        """
        stats = self.stats
        stats.pushed += 1
        time = observation.time
        if not math.isfinite(time):
            raise ValueError(
                f"arrival {stats.pushed - 1} has a non-finite timestamp "
                f"t={time!r}; a NaN defeats watermark ordering and an "
                f"inf would wedge the reorder front")
        if time < self._last_arrival:
            stats.out_of_order += 1
            stats.max_displacement_seconds = max(
                stats.max_displacement_seconds, self._last_arrival - time)
        self._last_arrival = max(self._last_arrival, time)
        if time < self._emitted_up_to:
            # Beyond repair: the emission boundary (the furthest watermark
            # any drain reached) has passed this timestamp, so re-sorting
            # is impossible.  Strictly-less: a record *at* the boundary is
            # on-time, matching the drain's `<=` — the two comparisons
            # must agree or a boundary record would be both emittable and
            # late depending on arrival order.
            stats.late_total += 1
            if self.policy is LatePolicy.RAISE:
                raise ValueError(
                    f"observation at {time:.6f} arrived "
                    f"{self._emitted_up_to - time:.6f}s behind the reorder "
                    f"watermark {self._emitted_up_to:.6f} (horizon "
                    f"{self.horizon_seconds}s)")
            if self.policy is LatePolicy.ADMIT:
                stats.late_admitted += 1
                stats.emitted += 1
                self._m_late_admitted.inc()
                return [observation]
            stats.late_dropped += 1
            self._m_late_dropped.inc()
            return []
        heapq.heappush(self._heap, (time, self._sequence, observation))
        self._sequence += 1
        if len(self._heap) > stats.occupancy_peak:
            stats.occupancy_peak = len(self._heap)
            self._m_occupancy_peak.set(stats.occupancy_peak)
        self._front = max(self._front, time)
        return self._drain(self.watermark)

    def push_batch(self, chunk: RecordChunk) -> Tuple[int, RecordChunk]:
        """Push ``chunk``'s rows in order, as :meth:`push` row by row.

        Stops before the first row :meth:`push` would raise on or emit
        out of order (a non-finite time; a late row under
        ``RAISE``/``ADMIT``): the caller hands that row to :meth:`push`.
        Returns ``(rows consumed, records released)``, the released ones
        in release order.

        Per arrival ``i``: the front is the running maximum of arrival
        times (a late arrival is behind the front, so including it
        changes nothing), the emission boundary before ``i`` is
        ``max(emitted_up_to, front[i-1] - horizon)``, and a held record
        is released by the first arrival whose watermark reaches it.
        """
        stats = self.stats
        horizon = self.horizon_seconds
        times = chunk.times
        bad = np.flatnonzero(~np.isfinite(times))
        if bad.size:
            times = times[:bad[0]]
        seen = np.maximum.accumulate(times)
        before = np.concatenate(([-math.inf], seen))[:-1]
        late = times < np.maximum(
            self._emitted_up_to, np.maximum(self._front, before) - horizon)
        if self.policy in (LatePolicy.RAISE, LatePolicy.ADMIT) and late.any():
            cut = int(np.argmax(late))
            times, seen, before, late = (times[:cut], seen[:cut],
                                         before[:cut], late[:cut])
        consumed = len(times)
        if not consumed:
            return 0, chunk[:0]
        watermark = np.maximum(self._front, seen) - horizon
        # Candidates: the held records (older sequence numbers), then
        # this batch's on-time arrivals; each is released by the first
        # arrival at or after its own whose watermark reaches it.
        held = sorted(self._heap)
        pushed = np.flatnonzero(~late)
        candidate_times = np.concatenate(
            (np.array([entry[0] for entry in held], dtype=float),
             times[pushed]))
        release = np.searchsorted(watermark, candidate_times, side="left")
        release[len(held):] = np.maximum(release[len(held):], pushed)
        released = np.flatnonzero(release < consumed)
        order = released[np.lexsort((released, candidate_times[released]))]
        # Stats, exactly as the per-row path accumulates them.
        stats.pushed += consumed
        last = np.maximum(self._last_arrival, before)
        behind = times < last
        if behind.any():
            stats.out_of_order += int(behind.sum())
            stats.max_displacement_seconds = max(
                stats.max_displacement_seconds,
                float((last - times)[behind].max()))
        self._last_arrival = max(self._last_arrival, float(seen[-1]))
        dropped = int(late.sum())
        if dropped:
            stats.late_total += dropped
            stats.late_dropped += dropped
            self._m_late_dropped.inc(dropped)
        if len(pushed):
            released_by = np.searchsorted(np.sort(release[released]), pushed)
            occupancy = len(held) + np.arange(1, len(pushed) + 1) - released_by
            peak = int(occupancy.max())
            if peak > stats.occupancy_peak:
                stats.occupancy_peak = peak
                self._m_occupancy_peak.set(peak)
            self._front = max(self._front, float(seen[-1]))
            self._emitted_up_to = max(self._emitted_up_to,
                                      float(watermark[pushed[-1]]))
        # The new heap: held entries keep their tuples; pending batch
        # rows become ordinary observations with the next sequences.
        waiting = np.ones(len(candidate_times), dtype=bool)
        waiting[released] = False
        heap = [held[index] for index in np.flatnonzero(waiting[:len(held)])]
        for index in np.flatnonzero(waiting[len(held):]).tolist():
            row = int(pushed[index])
            heap.append((float(times[row]), self._sequence + index,
                         chunk.observation(row)))
        heapq.heapify(heap)
        self._heap = heap
        self._sequence += len(pushed)
        if released.size:
            # The gauge holds the occupancy after the last releasing drain.
            stats.emitted += int(released.size)
            self._m_admitted.inc(int(released.size))
            last_drain = release[released].max()
            self._m_occupancy.set(
                len(held) + int(np.searchsorted(pushed, last_drain, "right"))
                - int(released.size))
        out = RecordChunk.concat(
            (RecordChunk.from_observations([entry[2] for entry in held]),
             chunk[pushed]))
        return consumed, out[order]

    def flush(self) -> List[Observation]:
        """Release everything still buffered, in time order."""
        return self._drain(float("inf"))

    # -- checkpoint support -------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-able snapshot of the buffer's full mutable state.

        The held-back records travel with the watermark bookkeeping: a
        live monitor checkpointing its detector must checkpoint the
        observations still *inside* its reorder buffer too, or a
        restart would silently lose every record the watermark had not
        yet released.  Restoring via :meth:`restore_state` and feeding
        the remainder of the stream is bit-for-bit identical to never
        having stopped (heap entries keep their arrival sequence, so
        tie-breaking survives the round trip).
        """
        return {
            "horizon_seconds": self.horizon_seconds,
            "policy": self.policy.value,
            # A 5th row element carries the vantage tag of a fused
            # stream's records; plain records keep the 4-element shape
            # so single-source checkpoints are byte-identical.
            "heap": [[time, sequence,
                      [observation.time, int(observation.family),
                       observation.source, observation.qtype]
                      + ([observation.vantage]
                         if isinstance(observation, TaggedObservation)
                         else [])]
                     for time, sequence, observation in sorted(self._heap)],
            "sequence": self._sequence,
            "front": self._front,
            "emitted_up_to": self._emitted_up_to,
            "last_arrival": self._last_arrival,
            "stats": self.stats.as_dict(),
        }

    def restore_state(self, state: dict) -> None:
        """Load a :meth:`state_dict` snapshot into this buffer.

        The buffer must have been constructed with the same horizon and
        policy the snapshot was taken under; a mismatch is a caller bug
        (the snapshot's watermark arithmetic assumed the old horizon)
        and raises rather than silently corrupting emission order.
        """
        from ..net.addr import Family

        if float(state["horizon_seconds"]) != self.horizon_seconds:
            raise ValueError(
                f"snapshot horizon {state['horizon_seconds']}s does not "
                f"match buffer horizon {self.horizon_seconds}s")
        if str(state["policy"]) != self.policy.value:
            raise ValueError(
                f"snapshot policy {state['policy']!r} does not match "
                f"buffer policy {self.policy.value!r}")
        self._heap = [
            (float(time), int(sequence),
             (TaggedObservation(float(row[0]), Family(int(row[1])),
                                int(row[2]), int(row[3]), str(row[4]))
              if len(row) > 4 else
              Observation(float(row[0]), Family(int(row[1])),
                          int(row[2]), int(row[3]))))
            for time, sequence, row in state["heap"]]
        heapq.heapify(self._heap)
        self._sequence = int(state["sequence"])
        self._front = float(state["front"])
        self._emitted_up_to = float(state["emitted_up_to"])
        self._last_arrival = float(state["last_arrival"])
        stats = state.get("stats", {})
        self.stats = ReorderStats(
            pushed=int(stats.get("pushed", 0)),
            emitted=int(stats.get("emitted", 0)),
            out_of_order=int(stats.get("out_of_order", 0)),
            late_total=int(stats.get("late_total", 0)),
            late_admitted=int(stats.get("late_admitted", 0)),
            late_dropped=int(stats.get("late_dropped", 0)),
            max_displacement_seconds=float(
                stats.get("max_displacement_seconds", 0.0)),
            occupancy_peak=int(stats.get("occupancy_peak", 0)),
        )

    def _drain(self, up_to: float) -> List[Observation]:
        ready: List[Observation] = []
        heap = self._heap
        while heap and heap[0][0] <= up_to:
            time, _, observation = heapq.heappop(heap)
            ready.append(observation)
            self._emitted_up_to = time
        if math.isfinite(up_to):
            # The watermark itself is the emission boundary, whether or
            # not the heap held anything at it: everything <= up_to is
            # now behind the buffer, and the late check in push() must
            # judge against the same boundary this loop's `<=` used
            # (ties on-time on both sides).  A flush passes +inf and
            # only records what it actually popped — raising the
            # boundary to infinity would mark every later arrival late.
            self._emitted_up_to = max(self._emitted_up_to, up_to)
        self.stats.emitted += len(ready)
        if ready:
            self._m_admitted.inc(len(ready))
            self._m_occupancy.set(len(heap))
        return ready


def reorder_stream(stream: Iterable[Observation], horizon_seconds: float,
                   policy: LatePolicy = LatePolicy.COUNT,
                   buffer: Optional[ReorderBuffer] = None,
                   metrics: Optional[Any] = None,
                   ) -> Iterator[Observation]:
    """Wrap a noisy stream in a :class:`ReorderBuffer`.

    Pass ``buffer`` to keep a handle on the stats; otherwise one is
    created from ``horizon_seconds``, ``policy``, and ``metrics``.
    """
    if buffer is None:
        buffer = ReorderBuffer(horizon_seconds, policy, metrics=metrics)
    for observation in stream:
        yield from buffer.push(observation)
    yield from buffer.flush()
