"""Decision provenance: *why* did the detector flip this block?

A binary up/down verdict is unaccountable on its own — the confounder
literature (surges that mimic outages, vantage failures that mimic
recoveries) means every onset the detector finalizes must be
reconstructible from evidence after the fact.  This module is the
audit trail: a bounded, thread-safe ring buffer of structured events
recorded *at the moment of decision*, from the same floats the belief
math used — not a post-hoc recomputation that could silently diverge.

Event kinds (the ``event`` field):

* ``transition`` — a streaming bin closed and the block's belief
  crossed a hysteresis threshold.  Carries the bin's evidence (count,
  expected-empty probability), the posterior, and the belief
  trajectory over the deciding bins.  Fused transitions additionally
  carry one row per vantage: reliability weight, observed count, the
  likelihood parameters, the weighted log-likelihood-ratio
  contribution, and the sentinel/quarantine state — summing the
  contributions reproduces the fused update bit-for-bit.
* ``onset`` / ``recovery`` — a finalized outage boundary (what
  ``finalize`` emitted after refinement).
* ``retraction`` — a decision that was withdrawn: the block was
  quarantined and its timeline suppressed.

Events are surfaced three ways: the serving plane's ``/events``
endpoint (:mod:`repro.serve.plane`), ``repro-outage inspect --explain
<block>`` over a JSONL export, and heartbeat piggybacking from partition
workers (:meth:`ExplainLog.events_since` gives the incremental slice,
the monotone ``seq`` makes re-delivery idempotent).

Like the registry and tracer, the explain log is opt-out:
:data:`NULL_EXPLAIN` answers the whole API as a no-op with
``enabled=False``, so the detector hot path pays one attribute load
when provenance is off.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "EXPLAIN_FORMAT",
    "ExplainLog",
    "NullExplainLog",
    "NULL_EXPLAIN",
    "get_explain",
    "set_explain",
    "resolve_explain",
    "format_explain",
    "read_explain_jsonl",
]

EXPLAIN_FORMAT = "repro-explain-v1"

#: Default ring capacity: enough for every decision of a sizeable run
#: while bounding a pathological flapping block to constant memory.
DEFAULT_CAPACITY = 4096


class ExplainLog:
    """Bounded ring of decision events with a monotone sequence.

    ``seq`` increases forever even as old events fall off the ring, so
    an incremental reader (the heartbeat piggyback) can ask "everything
    after N" and re-deliveries are detectable — the idempotence
    contract the cross-process fold relies on.
    """

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=self.capacity)
        self._seq = 0

    def record(self, event: Dict[str, Any]) -> int:
        """Append one event; assigns and returns its ``seq``."""
        with self._lock:
            self._seq += 1
            event = dict(event)
            event["seq"] = self._seq
            self._events.append(event)
            return self._seq

    def extend(self, events: Iterable[Dict[str, Any]]) -> int:
        """Fold foreign events (a worker's slice) in; returns count.

        Each event is re-sequenced locally — the caller guards against
        re-delivery with the *sender's* seq before calling.
        """
        count = 0
        for event in events:
            event = dict(event)
            event.pop("seq", None)
            self.record(event)
            count += 1
        return count

    @property
    def last_seq(self) -> int:
        return self._seq

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def events(self, block: Optional[int] = None) -> List[Dict[str, Any]]:
        """Buffered events in arrival order, optionally for one block."""
        with self._lock:
            events = list(self._events)
        if block is None:
            return events
        return [event for event in events if event.get("block") == block]

    def events_since(self, seq: int) -> List[Dict[str, Any]]:
        """Buffered events with ``seq`` strictly greater than ``seq``."""
        with self._lock:
            return [event for event in self._events
                    if event.get("seq", 0) > seq]

    # -- persistence --------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per line, header line first."""
        lines = [json.dumps({"format": EXPLAIN_FORMAT,
                             "capacity": self.capacity,
                             "last_seq": self.last_seq})]
        for event in self.events():
            lines.append(json.dumps(event, sort_keys=True))
        return "\n".join(lines) + "\n"


def read_explain_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load an explain JSONL export; validates the header line."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    header = json.loads(lines[0])
    if header.get("format") != EXPLAIN_FORMAT:
        raise ValueError(
            f"not a {EXPLAIN_FORMAT} export: {header.get('format')!r}")
    return [json.loads(line) for line in lines[1:]]


class NullExplainLog:
    """Opt-out explain log: every operation a no-op."""

    enabled = False
    capacity = 0
    last_seq = 0

    def record(self, event: Dict[str, Any]) -> int:
        return 0

    def extend(self, events: Iterable[Dict[str, Any]]) -> int:
        return 0

    def __len__(self) -> int:
        return 0

    def events(self, block: Optional[int] = None) -> List[Dict[str, Any]]:
        return []

    def events_since(self, seq: int) -> List[Dict[str, Any]]:
        return []

    def to_jsonl(self) -> str:
        return json.dumps({"format": EXPLAIN_FORMAT, "capacity": 0,
                           "last_seq": 0}) + "\n"


NULL_EXPLAIN = NullExplainLog()

_global_explain: Any = NULL_EXPLAIN


def get_explain() -> Any:
    """The process-wide default explain log (NULL_EXPLAIN until set)."""
    return _global_explain


def set_explain(explain: Optional[Any]) -> Any:
    """Install a process-wide default explain log; returns the previous.

    Pass None to reset to :data:`NULL_EXPLAIN`.  Like the registry and
    tracer defaults, detectors resolve this at construction time.
    """
    global _global_explain
    previous = _global_explain
    _global_explain = explain if explain is not None else NULL_EXPLAIN
    return previous


def resolve_explain(explain: Optional[Any]) -> Any:
    """``explain`` if given, else the process-wide default."""
    return explain if explain is not None else _global_explain


# -- rendering (the ``inspect --explain`` subcommand) ------------------------


def format_explain(events: List[Dict[str, Any]],
                   block: Optional[int] = None) -> str:
    """Human-readable audit trail for one block (or every block).

    Floats render via ``repr`` so the per-source log-likelihood rows
    and their sum are *exactly* the numbers the belief update consumed
    — an auditor can re-add the printed contributions and land on the
    printed total bit-for-bit.
    """
    if block is not None:
        events = [event for event in events if event.get("block") == block]
    if not events:
        return ("(no explain events" +
                (f" for block {block:#x})" if block is not None else ")"))
    lines: List[str] = []
    for event in events:
        kind = event.get("event", "?")
        key = event.get("block")
        head = f"block {key:#x}" if isinstance(key, int) else "block ?"
        if kind == "transition":
            direction = "DOWN" if not event.get("is_up") else "UP"
            lines.append(
                f"{head} t={event.get('time', 0.0):,.1f}s "
                f"transition -> {direction} "
                f"(belief {event.get('belief')!r})")
            sources = event.get("sources")
            if sources:
                total = 0.0
                for row in sources:
                    lines.append(
                        f"    {row.get('source', '?'):<12} "
                        f"weight={row.get('weight')!r} "
                        f"count={row.get('count')} "
                        f"p_empty={row.get('p_empty')!r} "
                        f"noise={row.get('noise')!r} "
                        f"llr={row.get('llr')!r}"
                        + (" [gated]" if row.get("gated") else "")
                        + (" [quarantined]" if row.get("quarantined")
                           else ""))
                    if not row.get("gated"):
                        total += row.get("llr", 0.0)
                lines.append(f"    weighted log-likelihood sum = "
                             f"{event.get('weighted_llr')!r}"
                             + ("" if event.get("weighted_llr") == total
                                else f" (re-added: {total!r})"))
            else:
                lines.append(
                    f"    count={event.get('count')} "
                    f"p_empty={event.get('p_empty')!r}")
            trajectory = event.get("trajectory")
            if trajectory:
                path = " -> ".join(f"{belief:.6g}"
                                   for _, belief in trajectory)
                lines.append(f"    belief trajectory: {path}")
        elif kind in ("onset", "recovery"):
            lines.append(
                f"{head} {kind} at t={event.get('time', 0.0):,.1f}s"
                + (f" (duration {event.get('duration'):,.0f}s)"
                   if event.get("duration") is not None else ""))
        elif kind == "retraction":
            lines.append(
                f"{head} RETRACTED: {event.get('reason', 'unknown')}")
        else:
            lines.append(f"{head} {kind}: {json.dumps(event)}")
    return "\n".join(lines)
