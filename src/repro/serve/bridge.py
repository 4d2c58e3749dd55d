"""Bridges from the live detection engines to the serving plane.

Two deployment shapes, one serving contract:

* :class:`EngineBridge` fronts an in-process
  :class:`~repro.live.LiveBlockEngine` — it reads the streaming
  detector directly (beliefs included) and converts fresh transitions
  and dead-letters into serve events.
* :class:`SupervisorBridge` fronts a
  :class:`~repro.live.LivePartitionSupervisor` — workers piggyback
  per-block transitions on their heartbeats (``ship_transitions``),
  the supervisor forwards them through its ``on_transitions`` hook,
  and the bridge applies them idempotently (strictly increasing
  transition time per block), so a restarted worker re-shipping its
  full history is a no-op.  A partition dead-lettered as lost coverage
  becomes a ``coverage-change`` event plus ``lost-coverage`` entries
  for exactly that partition's measurable keyspace.

Publication is *progress-driven*, never wall-clock-driven: a snapshot
is published only when something changed (transitions, coverage, or
an advanced watermark).  A stalled detector therefore starves
publication, the served snapshot ages honestly, and the plane's
staleness stamps and ``/ready`` gate trip — staleness is a signal
here, not something a republish loop is allowed to mask.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..net.blocks import Block
from .events import EventSpec
from .plane import ServingPlane
from .snapshot import BlockServingState

__all__ = [
    "EngineBridge",
    "SupervisorBridge",
    "detector_block_states",
    "fresh_transitions",
]

#: one (key, time, is_up) transition row, the piggyback wire shape.
TransitionRow = Tuple[int, float, bool]

#: bound on a forced publish's wait for the loop thread to serve it.
FORCED_PUBLISH_WAIT_S = 10.0


def detector_block_states(detector: Any) -> Dict[int, BlockServingState]:
    """Served states straight from a streaming detector's live blocks."""
    states: Dict[int, BlockServingState] = {}
    for key, state in detector._states.items():
        transitions = state.transitions
        states[key] = BlockServingState(
            up=bool(state.belief.is_up),
            belief=float(state.belief.belief),
            since=float(transitions[-1][0]) if transitions else None,
        )
    return states


def fresh_transitions(detector: Any,
                      shipped: Dict[int, int]) -> List[TransitionRow]:
    """Transitions appended since the last call, updating ``shipped``.

    ``shipped`` maps block key -> transition count already taken; the
    worker keeps one per incarnation, so after a restart (counts reset,
    detector restored from checkpoint) the full history re-ships and
    the consumer's idempotent apply drops the duplicates.
    """
    rows: List[TransitionRow] = []
    for key in sorted(detector._states):
        transitions = detector._states[key].transitions
        seen = shipped.get(key, 0)
        if len(transitions) > seen:
            rows.extend((key, float(when), bool(up))
                        for when, up in transitions[seen:])
            shipped[key] = len(transitions)
    return rows


class EngineBridge:
    """Publish one in-process engine's state through a serving plane.

    Call :meth:`step` after feeding observations (per record or per
    batch — it is cheap when nothing changed) and once more with
    ``force=True`` after the final flush.  A forced step returns only
    once its snapshot is served; an unforced one never waits on the
    loop thread, so a per-record replay loop does not stall on it.
    """

    def __init__(self, engine: Any, plane: ServingPlane,
                 publish_min_interval_s: float = 0.25,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.engine = engine
        self.plane = plane
        self.publish_min_interval_s = float(publish_min_interval_s)
        self._clock = clock
        self.family = engine.detector.family
        self._depth = self.family.default_block_prefix
        self._shipped: Dict[int, int] = {}
        self._dead_seen = 0
        self._lost: Dict[int, str] = {}
        self._published_watermark = float("-inf")
        self._last_publish = float("-inf")

    def _block(self, key: int) -> str:
        return str(Block(self.family, key, self._depth))

    def step(self, force: bool = False) -> bool:
        """Publish if warranted; returns whether a snapshot went out."""
        detector = self.engine.detector
        specs: List[EventSpec] = []
        for key, when, up in fresh_transitions(detector, self._shipped):
            specs.append(EventSpec(
                kind="recovery" if up else "onset", time=when,
                block=self._block(key), key=key))
        entries = detector.dead_letters.entries
        if len(entries) > self._dead_seen:
            retracted: List[str] = []
            for entry in entries[self._dead_seen:]:
                key = int(entry.block_key)
                if key in self._lost:
                    continue
                self._lost[key] = "quarantined"
                self._shipped.pop(key, None)
                block = self._block(key)
                retracted.append(block)
                specs.append(EventSpec(
                    kind="retraction", time=float(detector.last_time),
                    block=block, key=key,
                    detail={"stage": entry.stage,
                            "error_type": entry.error_type}))
            self._dead_seen = len(entries)
            if retracted:
                specs.append(EventSpec(
                    kind="coverage-change", time=float(detector.last_time),
                    detail={"lost": True, "reason": "quarantined",
                            "affected_prefixes": sorted(retracted)}))
        now = self._clock()
        watermark = float(detector.last_time)
        advanced = watermark > self._published_watermark
        throttled = now - self._last_publish < self.publish_min_interval_s
        if not (specs or force or (advanced and not throttled)):
            return False
        seq = self.plane.publish(
            detector_block_states(detector), watermark=watermark,
            lost=dict(self._lost), events=specs)
        if force:
            self.plane.wait_published(seq, FORCED_PUBLISH_WAIT_S)
        self._published_watermark = watermark
        self._last_publish = now
        return True


class SupervisorBridge:
    """Publish a partitioned supervisor's state through a serving plane.

    Installs itself on the supervisor's ``on_transitions`` /
    ``on_service`` hooks.  State is reconstructed from worker
    transition reports (decision + time, no posterior — ``belief`` is
    served as ``None``), keyed by strictly increasing transition time
    per block so at-least-once shipping stays exact.
    """

    def __init__(self, supervisor: Any, plane: ServingPlane,
                 publish_min_interval_s: float = 0.25,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.supervisor = supervisor
        self.plane = plane
        self.publish_min_interval_s = float(publish_min_interval_s)
        self._clock = clock
        self.family = supervisor.model.family
        self._depth = self.family.default_block_prefix
        #: every measurable block starts served as up — the same prior
        #: the detector itself starts from (belief at the ceiling).
        self._states: Dict[int, BlockServingState] = {
            key: BlockServingState(up=True)
            for partition in supervisor.partitions
            for key in partition.measurable
        }
        self._applied: Dict[int, float] = {}
        self._pending: List[EventSpec] = []
        self._lost: Dict[int, str] = {}
        self._lost_partitions: Set[int] = set()
        self._published_watermark = float("-inf")
        self._last_publish = float("-inf")
        self._dirty = True
        supervisor.on_transitions = self.on_transitions
        supervisor.on_service = self.on_service

    def _block(self, key: int) -> str:
        return str(Block(self.family, key, self._depth))

    # -- supervisor hooks ---------------------------------------------------

    def on_transitions(self, rows: List[TransitionRow]) -> None:
        """Fold piggybacked transition rows; duplicates are no-ops."""
        for key, when, up in rows:
            key = int(key)
            when = float(when)
            if when <= self._applied.get(key, float("-inf")):
                continue  # re-shipped after a worker restart
            if key in self._lost:
                continue
            self._applied[key] = when
            self._states[key] = BlockServingState(up=bool(up), since=when)
            self._pending.append(EventSpec(
                kind="recovery" if up else "onset", time=when,
                block=self._block(key), key=key))
            self._dirty = True

    def on_service(self, force: bool = False) -> None:
        """Per-supervision-pass hook: fold coverage, maybe publish."""
        status = self.supervisor.live_status()
        for partition in status.partitions:
            if (partition.status != "lost"
                    or partition.index in self._lost_partitions):
                continue
            self._lost_partitions.add(partition.index)
            affected: List[str] = []
            for key in partition.measurable_keys:
                if key in self._lost:
                    continue
                self._lost[key] = "lost-coverage"
                self._states.pop(key, None)
                affected.append(self._block(key))
            self._pending.append(EventSpec(
                kind="coverage-change", time=status.global_watermark,
                detail={"lost": True, "reason": "lost-coverage",
                        "partition": partition.unit,
                        "affected_prefixes": sorted(affected)}))
            self._dirty = True
        if status.global_watermark > self._published_watermark:
            self._dirty = True
        now = self._clock()
        throttled = (now - self._last_publish < self.publish_min_interval_s
                     and not self._pending)
        if (self._dirty or force) and (force or not throttled):
            seq = self.plane.publish(
                dict(self._states), watermark=status.global_watermark,
                lost=dict(self._lost), events=self._pending)
            if force:
                self.plane.wait_published(seq, FORCED_PUBLISH_WAIT_S)
            self._pending = []
            self._dirty = False
            self._published_watermark = status.global_watermark
            self._last_publish = now
