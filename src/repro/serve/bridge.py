"""The bridge from the live detection engine to the serving plane.

:class:`EngineBridge` fronts an in-process
:class:`~repro.live.LiveBlockEngine`: it reads the streaming detector
directly (beliefs included) and converts fresh transitions and
dead-letters into serve events.

Publication is *progress-driven*, never wall-clock-driven: a snapshot
is published only when something changed (transitions, coverage, or
an advanced watermark).  A stalled detector therefore starves
publication, the served snapshot ages honestly, and the plane's
staleness stamps and ``/ready`` gate trip — staleness is a signal
here, not something a republish loop is allowed to mask.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple

from ..net.blocks import Block
from .events import EventSpec
from .plane import ServingPlane
from .snapshot import BlockServingState

__all__ = [
    "EngineBridge",
    "detector_block_states",
    "fresh_transitions",
]

#: one (key, time, is_up) transition row.
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

    ``shipped`` maps block key -> transition count already taken.
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
