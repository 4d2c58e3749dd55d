"""Corroborating outage events across neighbouring blocks.

The poster: "when possible, we correlate multiple signals from the same
region to corroborate results."  An outage event reported for a block
gains confidence when overlapping events appear for sibling blocks
(same supernet), which is how a regional event is distinguished from a
single flaky resolver.

Combining several vantages' signals for the same block happens before
detection, not after: :mod:`repro.fusion` fuses their per-bin evidence
in log-odds space inside one belief filter, over
:func:`repro.core.belief.fused_belief_pass`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from ..net.blocks import supernet_key
from ..timeline import OutageEvent

__all__ = ["CorroboratedEvent", "corroborate_events"]


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
