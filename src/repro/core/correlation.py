"""Corroborating outage signals across sources and neighbours.

The poster: "when possible, we correlate multiple signals from the same
region to corroborate results."  Two post-detection mechanisms:

* **timeline voting** — per-source timelines for the same block are
  combined by quorum;
* **event corroboration** — an outage event reported for a block gains
  confidence when overlapping events appear for sibling blocks (same
  supernet) or for the same block at other sources, which is how a
  regional event is distinguished from a single flaky resolver.

Evidence-level fusion — several vantages' per-bin evidence combined in
log-odds space inside one belief filter — is :mod:`repro.fusion`, over
:func:`repro.core.belief.fused_belief_pass`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..net.blocks import supernet_key
from ..timeline import OutageEvent, Timeline
from .health import BlockDataError

__all__ = ["fuse_timelines", "CorroboratedEvent", "corroborate_events"]


def _source_label(sources: Optional[Sequence[str]], index: int) -> str:
    if sources is not None and index < len(sources):
        return repr(sources[index])
    return f"source[{index}]"


def fuse_timelines(timelines: Sequence[Timeline],
                   quorum: int = 0,
                   sources: Optional[Sequence[str]] = None) -> Timeline:
    """Combine per-source timelines: down where >= ``quorum`` agree.

    ``quorum`` defaults to a majority.  With quorum 1 this is the union
    (most sensitive); with ``len(timelines)`` the intersection (most
    specific).

    Timelines must cover one shared span with finite interval edges; a
    violation raises :class:`BlockDataError` naming the offending
    source, since a mis-spanned timeline would silently dilute (or
    inflate) every vote on the mismatched stretch.
    """
    if not timelines:
        raise ValueError("need at least one timeline")
    first = timelines[0]
    for index, timeline in enumerate(timelines):
        label = _source_label(sources, index)
        if (timeline.start, timeline.end) != (first.start, first.end):
            raise BlockDataError(
                f"timeline from {label} spans "
                f"[{timeline.start}, {timeline.end}] where "
                f"{_source_label(sources, 0)} spans "
                f"[{first.start}, {first.end}]; fusion needs one "
                f"shared span")
        for left, right in timeline.down_intervals:
            if not (np.isfinite(left) and np.isfinite(right)):
                raise BlockDataError(
                    f"timeline from {label} has a non-finite down "
                    f"interval ({left!r}, {right!r})")
    if quorum <= 0:
        quorum = len(timelines) // 2 + 1
    quorum = min(quorum, len(timelines))
    edges = sorted({first.start, first.end} | {
        edge
        for timeline in timelines
        for interval in timeline.down_intervals
        for edge in interval
    })
    down: List[Tuple[float, float]] = []
    for left, right in zip(edges, edges[1:]):
        middle = 0.5 * (left + right)
        votes = sum(not t.is_up_at(middle) for t in timelines)
        if votes >= quorum:
            down.append((left, right))
    return Timeline(first.start, first.end, down)


@dataclass(frozen=True)
class CorroboratedEvent:
    """An outage event annotated with how many witnesses back it."""

    key: int
    event: OutageEvent
    witnesses: int

    @property
    def corroborated(self) -> bool:
        return self.witnesses > 0


def corroborate_events(
    events_by_block: Mapping[int, Sequence[OutageEvent]],
    levels: int = 4,
    slack: float = 300.0,
) -> List[CorroboratedEvent]:
    """Count sibling witnesses for every reported event.

    Two blocks are siblings when they share a supernet ``levels`` bits
    up; an event is witnessed by a sibling's event when the two overlap
    within ``slack`` seconds.  A regional outage lights up many siblings
    at once; a lone flapping resolver does not.
    """
    by_super: Dict[int, List[Tuple[int, OutageEvent]]] = {}
    for key, events in events_by_block.items():
        super_key = supernet_key(int(key), levels)
        bucket = by_super.setdefault(super_key, [])
        for event in events:
            bucket.append((int(key), event))

    corroborated: List[CorroboratedEvent] = []
    for key, events in events_by_block.items():
        super_key = supernet_key(int(key), levels)
        neighbours = by_super.get(super_key, [])
        for event in events:
            witnesses = sum(
                1 for other_key, other_event in neighbours
                if other_key != int(key) and event.overlaps(other_event, slack))
            corroborated.append(
                CorroboratedEvent(int(key), event, witnesses))
    return corroborated
