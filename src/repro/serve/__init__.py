"""Resilient live serving plane for the streaming detector.

`ROADMAP` item 2: the system detects outages but nothing can *ask* it
anything.  This package fronts a running
:class:`~repro.live.LiveBlockEngine` with an asyncio HTTP + WebSocket
service — stdlib only, like everything else in the repo:

* **query** current up/down state by address (longest-prefix match via
  :mod:`repro.net.trie`) or by prefix (subtree enumeration);
* **subscribe** to finalized onset/recovery/retraction events over a
  WebSocket with sequence-numbered, at-least-once delivery;
* **observe** the run itself: ``/health``, a ``/ready`` admission gate,
  the :mod:`repro.obs` registry's Prometheus/JSON expositions, the
  trace and the explain log — the same endpoints ``--obs-port`` serves
  for ``detect``/``live``/``experiment``.

Robustness is the contract, not a feature flag: every response is
stamped ``{watermark, staleness_s, degraded}``, slow consumers are
evicted (bounded outboxes) and resync via snapshot-then-deltas,
overload sheds with ``503`` + deterministic ``Retry-After`` hints, and
a dead-lettered block's prefix answers ``degraded: "lost-coverage"``
instead of fabricating absence evidence.
"""

from .admission import Admission, AdmissionConfig, ReadyGate, TokenBucket
from .bridge import EngineBridge
from .client import SubscriberState, SyncServeClient
from .events import EVENT_KINDS, EventBroker, EventSpec, ServeEvent
from .plane import ServeConfig, ServingPlane
from .snapshot import (
    BlockServingState,
    LagPolicy,
    ServingSnapshot,
    build_snapshot,
)

__all__ = [
    "Admission",
    "AdmissionConfig",
    "BlockServingState",
    "EngineBridge",
    "EventBroker",
    "EventSpec",
    "EVENT_KINDS",
    "LagPolicy",
    "ReadyGate",
    "ServeConfig",
    "ServeEvent",
    "ServingPlane",
    "ServingSnapshot",
    "SubscriberState",
    "SyncServeClient",
    "TokenBucket",
    "build_snapshot",
]
