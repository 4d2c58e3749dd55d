"""Supervised partitioned live detection.

The deployment-shaped counterpart of :mod:`repro.parallel`: where the
batch path shards a *bounded* window and can re-run any shard from its
input, the live path consumes an *unbounded* stream, so containment has
to restart a failed partition from its last checkpoint and replay only
the gap — bisection would mean replaying the whole stream per probe.

Three layers:

:class:`LiveBlockEngine`
    One :class:`~repro.core.detector.StreamingDetector` plus its
    reorder buffer and rolling drift auditor.  The single-process CLI
    path and every partition worker run the *same* engine, which is
    what makes the partitioned≡single equivalence contract testable
    rather than aspirational.

``_live_worker_entry``
    Child-process entry point for one partition: restores the engine
    from its rotated checkpoint (detector state, reorder buffer,
    drift auditor, replay cursor), consumes sequence-numbered
    observation batches from the parent, checkpoints on a stream-time
    cadence, and reports heartbeats with its watermark and replay
    cursor.

:class:`LivePartitionSupervisor`
    The parent: plans partitions over the model's block population with
    the same deterministic plan algebra as the batch path
    (:func:`~repro.parallel.plan_shards` — the plan is a function of
    the population, never of worker count), routes capture records to
    their owning partition with per-partition sequence numbers and the
    *global* stream front attached, classifies failures as
    crash/hang/oom exactly like :class:`~repro.parallel.ShardSupervisor`,
    restarts a failed partition from its checkpoint without touching
    siblings, and merges per-partition results/health/telemetry into
    one population-wide report whose ``accounts_for`` holds over the
    full live population.  A partition that exhausts its restart
    budget is dead-lettered as lost coverage — the run completes
    *degraded* rather than dying.

Equivalence contract.  A partitioned run emits bit-identical events,
health verdicts, and stream-semantic counters to a single-process run
of the same capture:

- Partition streams preserve capture order per key, and every
  per-block decision (bins, beliefs, transitions, drift audits, hot
  swaps) depends only on that key's arrival prefix.
- Each worker's reorder buffer is driven by the *global* stream front
  (shipped with every routed record via
  :meth:`~repro.telescope.reorder.ReorderBuffer.advance_front`), so a
  sparse partition's buffer releases records and judges lateness
  exactly like the single global buffer restricted to its keys.
- One sentinel runs parent-side over the whole tap (feed health is a
  property of the vantage, not of any partition's slice) and its
  verdict is passed into every worker's ``finalize``.

Wall-clock-dependent telemetry (stage seconds, watermark-lag and
occupancy gauges, checkpoint counts) legitimately differs between
runs; the chaos suite compares the deterministic counters only.
"""

from __future__ import annotations

import contextlib
import heapq
import json
import math
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np

from .core.checkpoint import (
    CheckpointFormatError,
    load_checkpoint_rotated,
    save_checkpoint_rotated,
)
from .core.detector import (
    BlockResult,
    StreamingDetector,
    dead_letter_metric,
    guardrail_metric,
)
from .core.drift import RollingRateAuditor, retune_block
from .core.health import (
    ErrorBudget,
    ErrorBudgetExceeded,
    RunHealthReport,
    ShardAttemptRecord,
    SourceHealth,
    fold_lost_coverage,
)
from .core.parameters import ParameterPlanner
from .core.pipeline import TrainedModel
from .core.sentinel import SentinelConfig, VantageSentinel
from .core.serialize import (
    atomic_write_text,
    block_result_from_dict,
    block_result_to_dict,
    model_blocks_from_dict,
    model_blocks_to_dict,
)
from .net.addr import Family
from .obs.explain import NULL_EXPLAIN, ExplainLog, resolve_explain
from .obs.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    diff_snapshots,
    negate_snapshot,
    resolve_registry,
)
from .obs.tracing import NULL_TRACER, SpanTracer, resolve_tracer
from .parallel import (
    ShardFatalError,
    ShardWorkerError,
    SupervisionPolicy,
    _OUTCOME_ERRORS,
    _backoff_delay,
    _ensure_child_import_path,
    _plan_digest,
    _process_rss_mb,
    plan_shards,
)
from .telescope.capture import (
    CaptureReader,
    NonFiniteTimestampError,
    RecordChunk,
)
from .telescope.records import Observation, TaggedObservation
from .telescope.reorder import LatePolicy, ReorderBuffer

__all__ = [
    "DriftConfig",
    "LiveBlockEngine",
    "LiveRunResult",
    "LivePartitionStatus",
    "LivePartitionSupervisor",
    "LiveStatus",
    "merge_tagged_captures",
    "run_partitioned_live",
    "LIVE_MANIFEST_FORMAT",
]

#: format stamp of the live-run manifest (``live-manifest.json`` in the
#: checkpoint directory) — ``repro-outage inspect`` dispatches on it.
LIVE_MANIFEST_FORMAT = "repro-live-manifest-v1"

_PROCESS_FAULT_ENV = "REPRO_PROCESS_FAULTS"

#: routed rows per ``("obs", rows)`` message.
_BATCH_ROWS = 256
#: sent-but-unacknowledged batches per partition before the parent
#: stops sending and services the fleet instead.  Deliberately small:
#: two pickled batches fit well inside an OS pipe buffer, so the
#: parent's ``send`` never blocks on a hung worker — it must stay free
#: to *detect* the hang instead of joining it.
_MAX_INFLIGHT_BATCHES = 2


@dataclass(frozen=True)
class DriftConfig:
    """Rolling drift audit settings for the live path.

    Every ``audit_every`` stream-seconds the engine compares each
    quiet, currently-up block's observed arrival rate over the
    trailing ``window_seconds`` against its trained rate; a block
    outside ``[rate/drift_factor, rate*drift_factor]`` is re-estimated
    from exactly that trailing window and the replacement model is
    hot-swapped in at the block's next bin boundary.
    """

    audit_every: float
    window_seconds: Optional[float] = None
    drift_factor: float = 2.0
    min_arrivals: int = 20
    learn_diurnal: bool = True

    def __post_init__(self) -> None:
        if self.audit_every <= 0:
            raise ValueError("audit_every must be positive")


class LiveBlockEngine:
    """One streaming detector with its reorder buffer and drift auditor.

    The shared per-process live engine: the single-process CLI path
    runs one over the whole population; each partition worker runs one
    over its slice.  All stream-order-sensitive logic lives here —
    audit boundaries are checked *before* each released record is
    observed, and arrivals are noted *after*, so both deployment
    shapes make identical per-block decisions on identical per-block
    input.
    """

    def __init__(
        self,
        detector: StreamingDetector,
        buffer: Optional[ReorderBuffer] = None,
        drift: Optional[DriftConfig] = None,
        planner: Optional[ParameterPlanner] = None,
        fault_plan: Optional[Any] = None,
        monitor_feed: str = "raw",
        advance_every: Optional[float] = None,
    ) -> None:
        self.detector = detector
        self.buffer = buffer
        self.drift = drift
        self.planner = planner or ParameterPlanner()
        self.fault_plan = fault_plan
        # A fused detector's vantage monitors judge the *raw* tap (feed
        # health includes the disorder and lag the reorder buffer
        # hides), so the engine takes the monitor feed away from
        # observe_from and drives it in feed() — or, in a partition
        # worker ("external"), leaves it to the parent's shipped
        # sentinel-bin counts.
        if monitor_feed not in ("raw", "external"):
            raise ValueError(f"unknown monitor_feed {monitor_feed!r}")
        self._fused = hasattr(detector, "observe_from")
        self._raw_monitors = self._fused and monitor_feed == "raw"
        if self._fused:
            detector.inline_monitors = False
        self.auditor: Optional[RollingRateAuditor] = None
        if drift is not None:
            self.auditor = RollingRateAuditor(
                detector.start, drift.audit_every,
                window_seconds=drift.window_seconds,
                drift_factor=drift.drift_factor,
                min_arrivals=drift.min_arrivals)
        # Advance cadence: a stream-time grid on which the engine calls
        # ``detector.advance`` so simultaneous bin closes take the
        # columnar batched path instead of trickling out one block at a
        # time through per-packet catch-up.  ``None`` auto-derives the
        # finest tuned bin (every block boundary lands on a multiple of
        # it under the planner's ladder); pass ``<= 0`` to disable.
        # Partition workers receive the cadence explicitly from the
        # supervisor — computed over the FULL model — because a slice's
        # own minimum may differ and the advance grid must be identical
        # in both deployment shapes.
        if advance_every is None:
            bins = [state.params.bin_seconds
                    for state in detector._states.values()]
            cadence = float(min(bins)) if bins else None
        else:
            cadence = (float(advance_every) if advance_every > 0 else None)
        self.advance_every = cadence
        self._next_advance: Optional[float] = None
        if cadence is not None:
            # First grid point strictly after the detector clock, so a
            # restored engine resumes on the same grid it was killed on.
            steps = math.floor(
                (detector.last_time - detector.start) / cadence) + 1
            self._next_advance = detector.start + steps * cadence
        #: released records actually observed (the CLI's "replayed" count).
        self.observed = 0
        metrics = detector.metrics
        self._m_flagged = metrics.counter(
            "drift_blocks_flagged_total",
            "Blocks flagged as drifted by the rolling rate audit")
        self._m_failed = metrics.counter(
            "drift_retunes_failed_total",
            "Drift retunes abandoned (poisoned window or unmeasurable "
            "replacement)")

    def feed(self, observation: Observation) -> None:
        """Push one raw record; process whatever the buffer releases."""
        if self._raw_monitors and observation.time >= self.detector.start:
            vantage = getattr(observation, "vantage", "")
            if vantage:
                self.detector.note_arrival(vantage, observation.time)
        if self.buffer is not None:
            for ready in self.buffer.push(observation):
                self._process(ready)
        else:
            self._process(observation)

    def feed_batch(self, chunk: RecordChunk, until: float = math.inf
                   ) -> int:
        """Feed ``chunk``'s rows in order, exactly as :meth:`feed` row by
        row; returns how many rows it consumed.

        Stops right after the first row after which
        ``detector.last_time >= until``, so a caller can checkpoint on
        the same arrival the per-row loop would.  No record at or past
        ``until`` can be released before the first row whose time minus
        the reorder horizon reaches it, so every row before that goes
        through the batch path; from there rows go through :meth:`feed`
        until the clock reaches ``until`` (the stop is normally that
        very row).  Single-source engines only.
        """
        if self._fused:
            raise TypeError("feed_batch drives single-source engines only")
        detector = self.detector
        buffer = self.buffer
        times = chunk.times
        ahead = 0
        if detector.last_time < until and (buffer is None
                                           or buffer.watermark < until):
            horizon = buffer.horizon_seconds if buffer is not None else 0.0
            ahead = len(times)
            # Look near the front first: under a short status cadence
            # the stop is a few rows away on every call.
            for head in (times[:16], times):
                reach = np.flatnonzero(head - horizon >= until)
                if reach.size:
                    ahead = int(reach[0])
                    break
        consumed = 0
        while consumed < ahead:
            consumed += self._feed_rows(chunk[consumed:ahead])
            if consumed < ahead:
                # A row the batch path leaves to the per-row one.
                self.feed(chunk.observation(consumed))
                consumed += 1
                if detector.last_time >= until:
                    return consumed
        while consumed < len(times):
            self.feed(chunk.observation(consumed))
            consumed += 1
            if detector.last_time >= until:
                break
        return consumed

    def _feed_rows(self, rows: RecordChunk) -> int:
        """Push rows through the buffer (or straight through without one)
        and observe what is released, up to the first row :meth:`feed`
        must take: a non-finite time, a backwards one without a buffer,
        or a late one the buffer's policy raises on or admits."""
        if self.buffer is not None:
            consumed, released = self.buffer.push_batch(rows)
        else:
            times = rows.times
            clock = np.maximum(self.detector.last_time, np.concatenate(
                ([-math.inf], np.maximum.accumulate(times)))[:-1])
            bad = np.flatnonzero(~np.isfinite(times)
                                 | (times < clock - 1e-9))
            consumed = int(bad[0]) if bad.size else len(times)
            released = rows[:consumed]
        self._observe_released(released)
        return consumed

    def advance_front(self, front: float) -> None:
        """Advance the buffer watermark from the global stream front.

        Non-finite fronts are ignored: the first routed record carries
        the global front *before* anything was seen, which is -inf.
        """
        if self.buffer is not None and math.isfinite(front):
            for ready in self.buffer.advance_front(front):
                self._process(ready)

    def flush(self) -> None:
        """Drain the buffer at end of stream."""
        if self.buffer is not None:
            for ready in self.buffer.flush():
                self._process(ready)

    def checkpoint_extra(self, seq: Optional[int] = None,
                         ) -> Optional[Dict[str, Any]]:
        """Engine state that rides in the checkpoint's ``extra`` slot."""
        extra: Dict[str, Any] = {}
        if seq is not None:
            extra["seq"] = int(seq)
        if self.buffer is not None:
            extra["reorder"] = self.buffer.state_dict()
        if self.auditor is not None:
            extra["drift"] = self.auditor.to_dict()
        return extra or None

    def restore(self, extra: Optional[Mapping[str, Any]],
                buffer_state: bool = True) -> None:
        """Rehydrate buffer/auditor state from a checkpoint's ``extra``.

        ``buffer_state=False`` skips the reorder buffer: the
        single-process resume path replays the capture by *time* (its
        skipped records include everything that was buffered), so
        restoring the buffer there would process those records twice.
        The seq-replaying partition worker restores it.
        """
        if not extra:
            return
        if (buffer_state and self.buffer is not None
                and extra.get("reorder") is not None):
            self.buffer.restore_state(extra["reorder"])
        if self.auditor is not None and extra.get("drift") is not None:
            self.auditor = RollingRateAuditor.from_dict(extra["drift"])

    # -- stream-order core --------------------------------------------------

    def _cross(self, time: float) -> None:
        """Fire every advance-grid point and audit boundary at or before
        ``time``, in ascending stream-time order.

        Called *before* observing the record at ``time``: all arrivals
        < B are in, none >= B — the same cut both deployment shapes see
        regardless of how the population is partitioned.  Advances win
        ties so an audit at B reads block state with every bin boundary
        <= B already closed (identical in both shapes, since the
        supervisor ships the single cadence grid to all workers).
        """
        auditor = self.auditor
        while True:
            next_advance = self._next_advance
            due_advance = (next_advance is not None
                           and time >= next_advance)
            due_audit = (auditor is not None
                         and time >= auditor.next_boundary)
            if due_advance and (not due_audit
                                or next_advance <= auditor.next_boundary):
                self.detector.advance(next_advance)
                self._next_advance = next_advance + self.advance_every
            elif due_audit:
                boundary = auditor.next_boundary
                self._audit(boundary)
                auditor.next_boundary = boundary + auditor.audit_every
            else:
                break

    def _next_boundary(self) -> float:
        """The earliest advance-grid point or audit boundary not fired."""
        boundary = math.inf
        if self._next_advance is not None:
            boundary = self._next_advance
        if self.auditor is not None:
            boundary = min(boundary, self.auditor.next_boundary)
        return boundary

    def _process(self, observation: Observation) -> None:
        auditor = self.auditor
        self._cross(observation.time)
        vantage = getattr(observation, "vantage", "")
        if vantage and self._fused:
            self.detector.observe_from(vantage, observation)
        else:
            self.detector.observe(observation)
        self.observed += 1
        if (auditor is not None
                and observation.family is self.detector.family):
            key = observation.block_key
            if key in self.detector._states:
                auditor.note(key, observation.time)
        if self.fault_plan is not None:
            self.fault_plan.on_windows(self.detector.windows_closed)

    def _observe_released(self, released: RecordChunk) -> None:
        """Observe released rows in stream order, cutting them at every
        advance-grid point and audit boundary as :meth:`_process`
        does."""
        if self.fault_plan is not None:
            # The chaos channel's window triggers fire after each record.
            for row in range(len(released)):
                self._process(released.observation(row))
            return
        times = released.times
        auditor = self.auditor
        start = 0
        while start < len(times):
            self._cross(float(times[start]))
            stop = start + int(np.searchsorted(times[start:],
                                               self._next_boundary()))
            rows = released[start:stop]
            tracked = self.detector.observe_batch(rows)
            self.observed += stop - start
            if auditor is not None:
                auditor.note_batch(rows.keys[tracked], rows.times[tracked])
            start = stop

    def _audit(self, boundary: float) -> None:
        detector = self.detector
        auditor = self.auditor
        assert auditor is not None
        window_start = boundary - auditor.window_seconds

        def eligible(key: int) -> bool:
            state = detector._states.get(key)
            if state is None or not state.belief.is_up:
                return False  # quarantined/untracked, or mid-outage
            # A transition inside the window means the rate change has
            # an explanation the detector already acted on.
            return all(t < window_start for t, _ in state.transitions)

        def trained_rate(key: int) -> Optional[float]:
            state = detector._states.get(key)
            return None if state is None else state.history.mean_rate

        drifted = auditor.audit(boundary, eligible, trained_rate)
        for key in sorted(drifted):
            self._m_flagged.inc()
            times = [t for t in auditor.arrivals(key)
                     if window_start <= t < boundary]
            learn_diurnal = (self.drift.learn_diurnal
                             if self.drift is not None else True)
            try:
                history, params = retune_block(
                    times, window_start, boundary, planner=self.planner,
                    learn_diurnal=learn_diurnal)
            except Exception:
                self._m_failed.inc()
                continue
            if not detector.hot_swap(key, history, params):
                self._m_failed.inc()


# ---------------------------------------------------------------------------
# partition worker
# ---------------------------------------------------------------------------


def _live_worker_entry(payload: Dict[str, Any], conn: Any) -> None:
    """Child-process entry point for one live partition.

    Protocol (parent -> worker): ``("obs", rows)`` where each row is
    ``(seq, time, family, source, qtype, front)``; ``("finalize", end,
    windows)``; ``("shutdown",)``.  Worker -> parent: ``("hello",
    {...})`` once ready (carrying the checkpointed replay cursor),
    ``("hb", {...})`` after every obs batch, ``("final", document)``,
    ``("bye", {...})`` after a shutdown checkpoint, ``("fatal",
    message)`` for an escaping exception (a harness bug, not a block
    fault — per-block faults are dead-lettered inside the detector).

    Module-level so spawn can pickle it.
    """
    try:
        registry = MetricsRegistry()
        tracer = (SpanTracer.from_context(payload.get("trace_ctx"))
                  if payload.get("traced") else NULL_TRACER)
        explain = (ExplainLog() if payload.get("explain") else NULL_EXPLAIN)
        # Heartbeat piggyback state: each heartbeat ships the registry
        # *delta* since the previous one under a monotone sequence
        # number, so the parent's fold is incremental and re-delivery
        # is detectable.  A None baseline makes the first delta the
        # full snapshot — exactly what the parent needs after it rolls
        # back a dead incarnation's contributions.
        ship_telemetry = bool(payload.get("ship_telemetry"))
        metrics_seq = 0
        metrics_baseline: Optional[Dict[str, Any]] = None
        explain_sent = 0
        # Serving-plane piggyback: per-block transition rows shipped in
        # heartbeats under the same at-least-once contract as metrics.
        # ``shipped`` counts per-incarnation; after a restart the full
        # checkpointed history re-ships and the parent-side consumer
        # applies it idempotently (strictly increasing time per block).
        ship_transitions = bool(payload.get("ship_transitions"))
        shipped_transitions: Dict[int, int] = {}
        family = Family(payload["family"])
        start = float(payload["start"])
        checkpoint_path = payload.get("checkpoint")
        keep = int(payload.get("keep", 3))
        checkpoint_every = float(payload.get("checkpoint_every", 3600.0))
        horizon = float(payload.get("horizon", 0.0))
        drift: Optional[DriftConfig] = payload.get("drift")
        fusion = payload.get("fusion")

        detector: Optional[StreamingDetector] = None
        resumed = False
        fused_names: List[str] = []
        if fusion:
            # Fused partition: one per-source sliced model each, the
            # monitors driven externally by parent-shipped sentinel-bin
            # counts (vantage health is a whole-tap property no
            # partition can judge from its slice alone).
            from .fusion import (
                FusedModel,
                FusedStreamingDetector,
                fused_detector_from_json,
            )
            fused_names = list(fusion["sources"])
            sources: Dict[str, TrainedModel] = {}
            for name in fused_names:
                s_histories, s_parameters = model_blocks_from_dict(
                    fusion["blocks"][name])
                t_start, t_end = fusion["train"][name]
                sources[name] = TrainedModel(
                    family=family, histories=s_histories,
                    parameters=s_parameters, train_start=float(t_start),
                    train_end=float(t_end))
            fused_model = FusedModel(family=family, sources=sources,
                                     primary=fusion["primary"])
            if checkpoint_path and payload.get("resume", True):
                try:
                    with tracer.span("partition_restore",
                                     unit=payload["unit"]):
                        detector = load_checkpoint_rotated(
                            checkpoint_path, fused_model, keep=keep,
                            loader=lambda text: fused_detector_from_json(
                                text, fused_model, metrics=registry))
                    resumed = True
                except (FileNotFoundError, CheckpointFormatError):
                    detector = None
            if detector is None:
                detector = FusedStreamingDetector(
                    fused_model, start, max_quarantine_frac=1.0,
                    metrics=registry)
        else:
            histories, parameters = model_blocks_from_dict(
                payload["blocks"])
            if checkpoint_path and payload.get("resume", True):
                model = TrainedModel(family=family, histories=histories,
                                     parameters=parameters,
                                     train_start=start, train_end=start)
                try:
                    with tracer.span("partition_restore",
                                     unit=payload["unit"]):
                        detector = load_checkpoint_rotated(
                            checkpoint_path, model, metrics=registry,
                            keep=keep)
                    resumed = True
                except (FileNotFoundError, CheckpointFormatError):
                    detector = None
            if detector is None:
                detector = StreamingDetector(
                    family, histories, parameters, start, sentinel=None,
                    max_quarantine_frac=1.0, metrics=registry)
        # The error budget is the parent's verdict over the merged
        # population; a partition never vetoes its own slice.
        detector.budget = ErrorBudget(1.0)
        # Provenance is per-incarnation state (checkpoints do not carry
        # it): install after restore, same object either way.
        detector.explain = explain

        buffer = (ReorderBuffer(horizon, LatePolicy(payload["late_policy"]),
                                metrics=registry)
                  if horizon > 0 else None)
        fault_plan = None
        if os.environ.get(_PROCESS_FAULT_ENV):
            # Chaos-suite channel, lazy so production never imports it.
            from .testing.faults import load_streaming_faults
            fault_plan = load_streaming_faults(payload.get("keys", ()))
        engine = LiveBlockEngine(detector, buffer=buffer, drift=drift,
                                 fault_plan=fault_plan,
                                 monitor_feed="external",
                                 advance_every=payload.get("advance_every",
                                                           0.0))
        last_seq = -1
        if resumed and detector.restored_extra:
            last_seq = int(detector.restored_extra.get("seq", -1))
            engine.restore(detector.restored_extra, buffer_state=True)
        checkpoint_seq = last_seq
        next_checkpoint = (detector.last_time + checkpoint_every
                           if checkpoint_path else float("inf"))

        conn.send(("hello", {"seq": last_seq, "resumed": resumed}))
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return  # parent died; nothing sane left to do
            kind = message[0]
            if kind == "obs":
                for row in message[1]:
                    seq = row[0]
                    if seq <= last_seq:
                        continue  # replayed duplicate, already accounted
                    if row[1] is None:
                        # Vantage sentinel-bin count from the parent:
                        # (seq, None, vidx, bin_start, count, front,
                        # closed).  Feed the whole-tap bin into this
                        # partition's monitor copy, then close it (the
                        # end-of-stream partial bin stays open) —
                        # exactly what a single-process engine's raw
                        # tap would do at this stream position.
                        _, _, vidx, bin_start, count, front, closed = row
                        monitor = detector.monitors[fused_names[vidx]]
                        if count:
                            monitor.observe_bulk(bin_start, count)
                        if closed:
                            monitor.advance(
                                bin_start
                                + monitor.sentinel.config.bin_seconds)
                        engine.advance_front(front)
                    elif fusion:
                        seq, when, fam, source, qtype, front, vidx = row
                        engine.advance_front(front)
                        engine.feed(TaggedObservation(
                            when, Family(fam), source, qtype,
                            fused_names[vidx]))
                    else:
                        seq, when, fam, source, qtype, front = row
                        engine.advance_front(front)
                        engine.feed(Observation(when, Family(fam), source,
                                                qtype))
                    last_seq = seq
                    if detector.last_time >= next_checkpoint:
                        with tracer.span("partition_checkpoint",
                                         unit=payload["unit"]):
                            save_checkpoint_rotated(
                                detector, checkpoint_path, keep=keep,
                                extra=engine.checkpoint_extra(seq=last_seq))
                        checkpoint_seq = last_seq
                        next_checkpoint = (detector.last_time
                                           + checkpoint_every)
                heartbeat: Dict[str, Any] = {
                    "seq": last_seq,
                    "ckpt_seq": checkpoint_seq,
                    "watermark": detector.last_time,
                    "windows": detector.windows_closed,
                    "swaps": len(detector.retuned),
                }
                if ship_telemetry:
                    metrics_seq += 1
                    current = registry.snapshot()
                    heartbeat["metrics_seq"] = metrics_seq
                    heartbeat["metrics_delta"] = diff_snapshots(
                        current, metrics_baseline)
                    metrics_baseline = current
                if ship_transitions:
                    from .serve.bridge import fresh_transitions
                    rows = fresh_transitions(detector, shipped_transitions)
                    if rows:
                        heartbeat["transitions"] = rows
                if explain.enabled:
                    fresh = explain.events_since(explain_sent)
                    if fresh:
                        heartbeat["explain"] = fresh
                        explain_sent = fresh[-1]["seq"]
                conn.send(("hb", heartbeat))
            elif kind == "finalize":
                end, windows = float(message[1]), message[2]
                with tracer.span("partition_finalize",
                                 unit=payload["unit"], end=end):
                    engine.flush()
                    if fusion:
                        # quarantined=None: the fused detector derives
                        # the all-dark intersection from its own
                        # monitors, which hold identical whole-tap
                        # state in every partition.
                        results = detector.finalize(end)
                    else:
                        results = detector.finalize(
                            end, quarantined=[(float(s), float(e))
                                              for s, e in windows])
                    if checkpoint_path:
                        save_checkpoint_rotated(
                            detector, checkpoint_path, keep=keep,
                            extra=engine.checkpoint_extra(seq=last_seq))
                document: Dict[str, Any] = {
                    "index": payload["index"],
                    "results": [block_result_to_dict(results[key])
                                for key in sorted(results)],
                    "health": detector.last_health.as_dict(),
                    "swaps": sorted(detector.retuned),
                    "windows": detector.windows_closed,
                    "metrics": registry.snapshot(),
                }
                if ship_telemetry:
                    metrics_seq += 1
                    document["metrics_seq"] = metrics_seq
                    document["metrics_delta"] = diff_snapshots(
                        document["metrics"], metrics_baseline)
                if ship_transitions:
                    from .serve.bridge import fresh_transitions
                    rows = fresh_transitions(detector, shipped_transitions)
                    if rows:
                        document["transitions"] = rows
                if tracer.enabled:
                    document["spans"] = tracer.export_spans()
                if explain.enabled:
                    tail = explain.events_since(explain_sent)
                    if tail:
                        document["explain"] = tail
                if buffer is not None:
                    stats = buffer.stats
                    document["reorder"] = {
                        "out_of_order": stats.out_of_order,
                        "late_dropped": stats.late_dropped,
                    }
                conn.send(("final", document))
                return
            elif kind == "shutdown":
                if checkpoint_path:
                    save_checkpoint_rotated(
                        detector, checkpoint_path, keep=keep,
                        extra=engine.checkpoint_extra(seq=last_seq))
                conn.send(("bye", {"seq": last_seq}))
                return
    except BaseException as error:  # noqa: BLE001 — verdict must cross
        try:
            conn.send(("fatal", f"{type(error).__name__}: {error}"))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# parent supervisor
# ---------------------------------------------------------------------------


@dataclass
class _LivePartition:
    """Parent-side bookkeeping for one partition."""

    index: int
    unit: str
    keys: List[int]
    measurable: List[int]
    process: Any = None
    conn: Any = None
    status: str = "pending"          # pending|running|done|lost|interrupted
    hello: bool = False
    attempts: List[str] = field(default_factory=list)
    next_seq: int = 0                # next seq to assign at route time
    sent_seq: int = -1               # last seq sent to this incarnation
    acked_seq: int = -1              # last seq the worker heartbeat ack'd
    ckpt_seq: int = -1               # last seq safely in a checkpoint
    watermark: float = 0.0
    windows: int = 0
    swaps: int = 0
    #: rows not yet covered by a checkpoint: ``(seq, t, fam, src, qt,
    #: front)``, pruned as ``ckpt_seq`` advances, replayed after a
    #: restart.
    replay: Deque[Tuple[int, float, int, int, int, float]] = field(
        default_factory=deque)
    #: rows routed but not yet sent to the current worker incarnation
    #: (rebuilt from ``replay`` after a restart).
    outbox: Deque[Tuple[int, float, int, int, int, float]] = field(
        default_factory=deque)
    #: last seqs of sent-but-unacked batches (backpressure window).
    unacked: Deque[int] = field(default_factory=deque)
    restart_at: Optional[float] = None
    last_message_at: float = 0.0
    finalize_sent: bool = False
    document: Optional[Dict[str, Any]] = None
    last_failure: str = "crash"
    #: last heartbeat metrics-delta sequence folded into the parent
    #: registry (0 = none yet; the worker numbers deltas from 1), the
    #: re-delivery guard for the incremental telemetry fold.
    folded_metrics_seq: int = 0
    #: last worker-side explain-event seq folded (same guard shape).
    explain_folded_seq: int = 0
    #: shadow registry holding exactly what this incarnation's deltas
    #: contributed to the parent registry — negated on restart so the
    #: respawned worker (whose first delta re-ships its checkpointed
    #: state) cannot double-count.
    shadow: Optional[Any] = None

    @property
    def failures(self) -> int:
        return sum(1 for outcome in self.attempts if outcome != "ok")

    def checkpoint_file(self, directory: str) -> str:
        return os.path.join(directory, f"partition-{self.unit}.ckpt.json")


@dataclass(frozen=True)
class LivePartitionStatus:
    """Point-in-time public view of one partition (see ``LiveStatus``)."""

    index: int
    unit: str
    status: str                      # pending|running|done|lost|interrupted
    watermark: float
    restarts: int
    windows: int
    drift_swaps: int
    outcomes: Tuple[str, ...]
    keys: Tuple[int, ...]
    measurable_keys: Tuple[int, ...]

    @property
    def blocks(self) -> int:
        return len(self.keys)

    @property
    def measurable(self) -> int:
        return len(self.measurable_keys)


@dataclass(frozen=True)
class LiveStatus:
    """Programmatic run status — the manifest's single source of truth.

    :meth:`LivePartitionSupervisor.live_status` returns one; both the
    on-disk manifest and the ``/health`` document are derived from it,
    so an in-process consumer (the serving plane's bridge, a test)
    reads exactly what an external observer reads — agreement by
    construction, not by parallel bookkeeping.
    """

    status: str
    plan_digest: str
    family: int
    start: float
    #: newest record time routed so far; ``None`` before the first.
    stream_front: Optional[float]
    #: slowest non-lost partition watermark (the serving watermark).
    global_watermark: float
    observed: int
    restarts: int
    partitions: Tuple[LivePartitionStatus, ...]

    @property
    def lost_partitions(self) -> Tuple[LivePartitionStatus, ...]:
        return tuple(p for p in self.partitions if p.status == "lost")

    @property
    def lost_measurable_keys(self) -> Tuple[int, ...]:
        """Measurable keys whose coverage is dead-lettered, sorted."""
        return tuple(sorted(
            key for p in self.lost_partitions for key in p.measurable_keys))


@dataclass
class LiveRunResult:
    """Outcome of one partitioned live run."""

    results: Dict[int, BlockResult]
    health: RunHealthReport
    end: float
    interrupted: bool = False
    degraded: bool = False
    observed: int = 0                #: records routed to partitions
    unrouted: int = 0                #: records with no owning partition
    restarts: int = 0
    replayed_rows: int = 0           #: rows resent across all restarts
    records_read: int = 0
    stopped_early: bool = False
    sentinel_windows: List[Tuple[float, float]] = field(default_factory=list)
    sentinel_seconds: float = 0.0
    manifest_path: Optional[str] = None


class LivePartitionSupervisor:
    """Coordinate a fleet of partition workers over one live stream.

    One instance is one run: construct, :meth:`run`, inspect the
    returned :class:`LiveRunResult`.  Failure containment follows the
    batch :class:`~repro.parallel.ShardSupervisor` — crash (silent
    death), hang (no heartbeat past the deadline while work is
    outstanding), oom (RSS ceiling) — but recovery is
    restart-from-checkpoint with gap replay instead of bisection: the
    stream is unbounded, so "re-run the shard" is not an operation
    that exists.
    """

    def __init__(
        self,
        model: TrainedModel,
        *,
        partitions: Optional[int] = None,
        partition_chunk: Optional[int] = None,
        policy: Optional[SupervisionPolicy] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: float = 3600.0,
        checkpoint_keep: int = 3,
        reorder_horizon: float = 0.0,
        late_policy: LatePolicy = LatePolicy.COUNT,
        sentinel: bool = False,
        drift: Optional[DriftConfig] = None,
        advance_every: Optional[float] = None,
        max_quarantine_frac: float = 0.5,
        start: Optional[float] = None,
        metrics: Optional[Any] = None,
        tracer: Optional[Any] = None,
        explain: Optional[Any] = None,
        stop_requested: Optional[Callable[[], bool]] = None,
        status: Optional[Callable[[str], None]] = None,
        batch_rows: int = _BATCH_ROWS,
        on_transitions: Optional[
            Callable[[List[Tuple[int, float, bool]]], None]] = None,
        on_service: Optional[Callable[[], None]] = None,
    ) -> None:
        if partitions is not None and partitions <= 0:
            raise ValueError("partitions must be positive")
        if partition_chunk is not None and partition_chunk <= 0:
            raise ValueError("partition_chunk must be positive")
        if reorder_horizon < 0:
            raise ValueError("reorder_horizon must be >= 0")
        self.model = model
        self.policy = policy or SupervisionPolicy()
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = float(checkpoint_every)
        self.checkpoint_keep = int(checkpoint_keep)
        self.reorder_horizon = float(reorder_horizon)
        self.late_policy = late_policy
        self.drift = drift
        self.max_quarantine_frac = float(max_quarantine_frac)
        self.fused = hasattr(model, "sources")
        if self.fused:
            if sentinel:
                raise ValueError(
                    "fused live runs monitor every vantage through the "
                    "fusion layer's own sentinels; the single parent-side "
                    "sentinel does not apply")
            default_start = model.sources[model.primary].train_end
        else:
            default_start = model.train_end
        self.start = float(start if start is not None else default_start)
        self.metrics = resolve_registry(metrics)
        self.tracer = resolve_tracer(tracer)
        self.explain = resolve_explain(explain)
        self._stop = stop_requested or (lambda: False)
        self._status = status or (lambda line: None)
        self._batch_rows = int(batch_rows)
        #: serving-plane hooks (see ``repro.serve.bridge``): when
        #: ``on_transitions`` is set, workers ship per-block transition
        #: rows piggybacked on heartbeats; ``on_service`` fires once per
        #: supervision pass (publish cadence + lost-coverage polling).
        self.on_transitions = on_transitions
        self.on_service = on_service

        if self.fused:
            from .fusion import build_block_specs
            specs = build_block_specs(model)
            keys = sorted(specs)
            cadence_bins = [spec.params.bin_seconds
                            for spec in specs.values()]
        else:
            keys = sorted(model.parameters)
            cadence_bins = [params.bin_seconds
                            for params in model.parameters.values()
                            if params.measurable]
        # Advance cadence for every worker engine, derived over the
        # FULL model (a slice's own minimum bin may be coarser, and the
        # advance grid must match the single-process shape exactly).
        # 0.0 disables — shipped verbatim so workers never re-derive.
        if advance_every is None:
            self.advance_every = (float(min(cadence_bins))
                                  if cadence_bins else 0.0)
        else:
            self.advance_every = (float(advance_every)
                                  if advance_every > 0 else 0.0)
        if partition_chunk is not None:
            chunk = partition_chunk
        elif partitions is not None:
            chunk = max(1, -(-len(keys) // partitions))
        else:
            chunk = None
        shards = plan_shards(keys, chunk)
        # The plan hashes the population, not the worker count: the
        # same model partitions identically on every box, and the
        # backoff jitter below is seeded per (digest, unit).
        self.digest = _plan_digest("live", model.family, self.start,
                                   self.start, shards)
        measurable = set(keys) if self.fused else set(model.measurable_keys)
        self.partitions = [
            _LivePartition(
                index=index, unit=f"{index:05d}", keys=list(shard),
                measurable=[key for key in shard if key in measurable],
                watermark=self.start,
                shadow=(MetricsRegistry() if self.metrics.enabled
                        else None))
            for index, shard in enumerate(shards)
        ]
        self._owner = {key: partition.index
                       for partition in self.partitions
                       for key in partition.keys}
        self._ctx = multiprocessing.get_context("spawn")
        self._sentinel = (VantageSentinel(self.start, SentinelConfig())
                          .bind_metrics(self.metrics)
                          if sentinel else None)
        # The sentinel judges the same (released, time-sorted) stream
        # the single-process detector's sentinel sees; metrics are
        # NULL so this shadow buffer doesn't double the workers'
        # reorder counters.
        self._sentinel_buffer = (
            ReorderBuffer(self.reorder_horizon, self.late_policy,
                          metrics=NULL_REGISTRY)
            if sentinel and self.reorder_horizon > 0 else None)
        self._m_observations = self.metrics.counter(
            "stream_observations_total",
            "Observations fed to the streaming detector")
        # Fused runs: the parent tallies per-vantage arrivals over the
        # whole tap and ships one count row per closed sentinel bin to
        # every partition — vantage health is a global property, so
        # every worker holds the same monitor state.
        self._fused_names: List[str] = (list(model.source_names)
                                        if self.fused else [])
        self._planned_measurable = len(measurable)
        self._vbin_seconds = float(SentinelConfig().bin_seconds)
        self._vbin_start = self.start
        self._vbin_counts = [0] * len(self._fused_names)
        self._front = float("-inf")
        self._end = self.start
        self._observed = 0
        self._unrouted = 0
        self._replayed_rows = 0
        self._finalize_end: Optional[float] = None
        self._finalize_windows: List[Tuple[float, float]] = []
        self._run_status = "running"
        self._manifest_written_at = 0.0
        self.manifest_path = (
            os.path.join(checkpoint_dir, "live-manifest.json")
            if checkpoint_dir else None)

    # -- status / manifest --------------------------------------------------

    def live_status(self) -> LiveStatus:
        """Point-in-time :class:`LiveStatus` snapshot of the run.

        The single derivation both the on-disk manifest and the
        ``/health`` document are rendered from, and the programmatic
        accessor the serving plane's bridge polls.  Safe to call from
        another thread while the run mutates state: every field read is
        a single attribute load, so the view is consistent-enough
        without taking the supervisor's time.
        """
        front = self._front
        watermarks = [p.watermark for p in self.partitions
                      if p.status != "lost"]
        return LiveStatus(
            status=self._run_status,
            plan_digest=self.digest,
            family=int(self.model.family),
            start=self.start,
            stream_front=None if front == float("-inf") else front,
            global_watermark=(min(watermarks) if watermarks
                              else self.start),
            observed=self._observed,
            restarts=sum(p.failures for p in self.partitions),
            partitions=tuple(
                LivePartitionStatus(
                    index=p.index,
                    unit=p.unit,
                    status=p.status,
                    watermark=p.watermark,
                    restarts=p.failures,
                    windows=p.windows,
                    drift_swaps=p.swaps,
                    outcomes=tuple(p.attempts),
                    keys=tuple(p.keys),
                    measurable_keys=tuple(p.measurable),
                )
                for p in self.partitions
            ),
        )

    def _write_manifest(self, force: bool = False) -> None:
        if self.manifest_path is None:
            return
        now = time.monotonic()
        if not force and now - self._manifest_written_at < 1.0:
            return
        self._manifest_written_at = now
        status = self.live_status()
        document = {
            "format": LIVE_MANIFEST_FORMAT,
            "plan_digest": status.plan_digest,
            "family": status.family,
            "start": status.start,
            "status": status.status,
            "global_watermark": status.global_watermark,
            "partitions": [
                {
                    "index": p.index,
                    "unit": p.unit,
                    "blocks": p.blocks,
                    "measurable": p.measurable,
                    "status": p.status,
                    "watermark": p.watermark,
                    "restarts": p.restarts,
                    "outcomes": list(p.outcomes),
                    "windows": p.windows,
                    "drift_swaps": p.drift_swaps,
                    "checkpoint": f"partition-{p.unit}.ckpt.json",
                }
                for p in status.partitions
            ],
        }
        atomic_write_text(self.manifest_path,
                          json.dumps(document, indent=2, sort_keys=True))

    def health_document(self) -> Dict[str, Any]:
        """Liveness document for the ``/health`` endpoint.

        RunHealthReport-shaped top level (status / run / watermarks)
        plus one row per partition with its watermark lag behind the
        global stream front.  Rendered from :meth:`live_status`, so it
        cannot drift from the manifest or the programmatic accessor.
        """
        status = self.live_status()
        front = status.stream_front
        return {
            "status": status.status,
            "run": "fusion-stream" if self.fused else "streaming",
            "plan_digest": status.plan_digest,
            "start": status.start,
            "stream_front": front,
            "global_watermark": status.global_watermark,
            "observed": status.observed,
            "restarts": status.restarts,
            "partitions": [
                {
                    "index": p.index,
                    "unit": p.unit,
                    "status": p.status,
                    "watermark": p.watermark,
                    "watermark_lag": (max(0.0, front - p.watermark)
                                      if front is not None else None),
                    "restarts": p.restarts,
                    "windows": p.windows,
                    "drift_swaps": p.drift_swaps,
                }
                for p in status.partitions
            ],
        }

    # -- fleet lifecycle ----------------------------------------------------

    def _spawn(self, partition: _LivePartition) -> None:
        _ensure_child_import_path()
        payload = {
            "index": partition.index,
            "unit": partition.unit,
            "keys": list(partition.keys),
            "family": int(self.model.family),
            "start": self.start,
            "horizon": self.reorder_horizon,
            "late_policy": self.late_policy.value,
            "drift": self.drift,
            "advance_every": self.advance_every,
            "checkpoint": (partition.checkpoint_file(self.checkpoint_dir)
                           if self.checkpoint_dir else None),
            "checkpoint_every": self.checkpoint_every,
            "keep": self.checkpoint_keep,
            "resume": True,
            "ship_telemetry": self.metrics.enabled,
            "ship_transitions": self.on_transitions is not None,
            "traced": self.tracer.enabled,
            "trace_ctx": self.tracer.context(),
            "explain": self.explain.enabled,
        }
        if self.fused:
            # Per-source model slices restricted to this partition's
            # keys; the worker reassembles a FusedModel and re-derives
            # its block specs (specs are deterministic derived state).
            keys = set(partition.keys)
            payload["fusion"] = {
                "sources": list(self._fused_names),
                "primary": self.model.primary,
                "train": {
                    name: [source.train_start, source.train_end]
                    for name, source in self.model.sources.items()
                },
                "blocks": {
                    name: model_blocks_to_dict(
                        {key: source.histories[key]
                         for key in source.histories if key in keys},
                        {key: source.parameters[key]
                         for key in source.parameters if key in keys})
                    for name, source in self.model.sources.items()
                },
            }
        else:
            histories = {key: self.model.histories[key]
                         for key in partition.keys
                         if key in self.model.histories}
            parameters = {key: self.model.parameters[key]
                          for key in partition.keys}
            payload["blocks"] = model_blocks_to_dict(histories, parameters)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_live_worker_entry, args=(payload, child_conn),
            daemon=True)
        process.start()
        child_conn.close()
        partition.process = process
        partition.conn = parent_conn
        partition.status = "running"
        partition.hello = False
        partition.restart_at = None
        partition.unacked.clear()
        partition.last_message_at = time.monotonic()
        self._write_manifest()

    def _kill(self, partition: _LivePartition) -> None:
        process = partition.process
        if process is not None and process.is_alive():
            process.terminate()
            process.join(1.0)
            if process.is_alive():
                process.kill()
                process.join(1.0)
        if partition.conn is not None:
            try:
                partition.conn.close()
            except Exception:
                pass
        partition.process = None
        partition.conn = None

    def _fail(self, partition: _LivePartition, outcome: str) -> None:
        self._kill(partition)
        partition.attempts.append(outcome)
        partition.hello = False
        partition.finalize_sent = False
        partition.unacked.clear()
        partition.outbox.clear()  # rebuilt from replay at the next hello
        partition.last_failure = outcome
        if partition.shadow is not None and partition.folded_metrics_seq:
            # Retract the dead incarnation's folded heartbeat deltas:
            # its replacement restores from a checkpoint *older* than
            # the last heartbeat, so its first delta re-ships state the
            # registry already counted.  The shadow holds exactly what
            # was folded, so subtracting it leaves the registry as if
            # this incarnation had never reported.
            self.metrics.merge_snapshot(
                negate_snapshot(partition.shadow.snapshot()))
            partition.shadow = MetricsRegistry()
        partition.folded_metrics_seq = 0
        # Explain events are an audit trail, not a counter: replayed
        # decisions after the restart are recorded again (both
        # sightings visible) rather than risking silent drops.
        partition.explain_folded_seq = 0
        if partition.failures <= self.policy.retries:
            delay = _backoff_delay(self.policy, self.digest, partition.unit,
                                   partition.failures)
            partition.restart_at = time.monotonic() + delay
            partition.status = "pending"
            # Marker span: restarts belong on the run's merged timeline.
            with self.tracer.span("partition_restart", unit=partition.unit,
                                  outcome=outcome,
                                  failures=partition.failures):
                pass
            self._status(f"partition {partition.unit} {outcome}; restarting "
                         f"from checkpoint in {delay:.2f}s "
                         f"(attempt {len(partition.attempts) + 1}/"
                         f"{self.policy.max_attempts})")
        else:
            partition.status = "lost"
            partition.replay.clear()
            partition.outbox.clear()
            self._status(f"partition {partition.unit} lost after "
                         f"{len(partition.attempts)} attempts "
                         f"[{','.join(partition.attempts)}]; its blocks "
                         f"are dead-lettered as lost coverage")
        self._write_manifest(force=True)

    # -- message plumbing ---------------------------------------------------

    def _handle(self, partition: _LivePartition,
                message: Tuple[Any, ...]) -> None:
        kind = message[0]
        partition.last_message_at = time.monotonic()
        if kind == "hello":
            info = message[1]
            resumed_seq = int(info.get("seq", -1))
            partition.hello = True
            partition.sent_seq = resumed_seq
            partition.acked_seq = resumed_seq
            partition.ckpt_seq = max(partition.ckpt_seq, resumed_seq)
            while (partition.replay
                   and partition.replay[0][0] <= partition.ckpt_seq):
                partition.replay.popleft()
            # Everything past the worker's checkpointed cursor is the
            # gap it missed: resend exactly that, nothing else.
            partition.outbox = deque(row for row in partition.replay
                                     if row[0] > resumed_seq)
            if partition.attempts:
                self._replayed_rows += len(partition.outbox)
        elif kind == "hb":
            info = message[1]
            partition.acked_seq = int(info["seq"])
            partition.ckpt_seq = max(partition.ckpt_seq,
                                     int(info["ckpt_seq"]))
            partition.watermark = float(info["watermark"])
            partition.windows = int(info["windows"])
            partition.swaps = int(info["swaps"])
            while (partition.unacked
                   and partition.unacked[0] <= partition.acked_seq):
                partition.unacked.popleft()
            while (partition.replay
                   and partition.replay[0][0] <= partition.ckpt_seq):
                partition.replay.popleft()
            self._fold_piggyback(partition, info)
            self._write_manifest()
        elif kind == "final":
            partition.document = message[1]
            self._fold_piggyback(partition, message[1])
            partition.attempts.append("ok")
            partition.status = "done"
            partition.watermark = (self._finalize_end
                                   if self._finalize_end is not None
                                   else partition.watermark)
            partition.windows = int(message[1].get("windows",
                                                   partition.windows))
            partition.swaps = len(message[1].get("swaps", []))
            if partition.process is not None:
                partition.process.join(1.0)
            self._kill(partition)
            self._write_manifest(force=True)
        elif kind == "bye":
            partition.status = "interrupted"
            if partition.process is not None:
                partition.process.join(1.0)
            self._kill(partition)
        elif kind == "fatal":
            # An escaping worker exception is a harness bug: retrying
            # deterministic code on the same replay would fail the same
            # way, so propagate instead of burning the restart budget.
            raise ShardWorkerError(
                f"live partition {partition.unit} worker raised: "
                f"{message[1]}")

    def _fold_piggyback(self, partition: _LivePartition,
                        info: Dict[str, Any]) -> None:
        """Fold a heartbeat's (or final document's) piggybacked telemetry.

        Metric deltas fold into the parent registry (and the
        partition's shadow, for restart rollback) guarded by the
        worker's monotone ``metrics_seq`` — a re-delivered delta is a
        no-op, which is the idempotence contract.  Explain events fold
        guarded by their own seq.
        """
        seq = int(info.get("metrics_seq", 0))
        if seq > partition.folded_metrics_seq:
            delta = info.get("metrics_delta")
            if delta is not None and self.metrics.enabled:
                self.metrics.merge_snapshot(delta)
                if partition.shadow is not None:
                    partition.shadow.merge_snapshot(delta)
            partition.folded_metrics_seq = seq
        events = info.get("explain")
        if events:
            fresh = [event for event in events
                     if int(event.get("seq", 0))
                     > partition.explain_folded_seq]
            if fresh:
                partition.explain_folded_seq = int(fresh[-1]["seq"])
                if self.explain.enabled:
                    self.explain.extend(fresh)
        rows = info.get("transitions")
        if rows and self.on_transitions is not None:
            # Forward verbatim; the consumer's apply is idempotent
            # (strictly increasing transition time per block), which
            # absorbs a restarted worker re-shipping its full history.
            self.on_transitions(
                [(int(key), float(when), bool(up))
                 for key, when, up in rows])

    def _pump(self, partition: _LivePartition) -> None:
        """Send pending rows (and a due finalize) to a worker."""
        if (partition.status != "running" or not partition.hello
                or partition.conn is None):
            return
        try:
            while (partition.outbox
                   and len(partition.unacked) < _MAX_INFLIGHT_BATCHES):
                batch = []
                while partition.outbox and len(batch) < self._batch_rows:
                    batch.append(partition.outbox.popleft())
                partition.conn.send(("obs", batch))
                partition.sent_seq = batch[-1][0]
                partition.unacked.append(partition.sent_seq)
            if (self._finalize_end is not None
                    and not partition.finalize_sent
                    and not partition.outbox):
                # Pipe FIFO ordering guarantees the worker sees every
                # routed row before the finalize cut.
                partition.conn.send(("finalize", self._finalize_end,
                                     self._finalize_windows))
                partition.finalize_sent = True
        except OSError:
            # The worker died between the liveness verdict and this
            # send.  Judge it here instead of crashing the supervisor:
            # every unacked row (including a half-sent batch) is still
            # in ``replay``, so the restart rebuilds the outbox intact.
            self._fail(partition, "crash")

    def _service(self) -> None:
        """One supervision pass: drain, judge, respawn, pump."""
        now = time.monotonic()
        for partition in self.partitions:
            if partition.status == "running" and partition.conn is not None:
                # Drain the pipe before the liveness verdict, so a
                # worker that finished and exited still delivers.
                try:
                    while (partition.conn is not None
                           and partition.conn.poll(0)):
                        self._handle(partition, partition.conn.recv())
                except (EOFError, OSError):
                    pass
                if partition.status != "running":
                    continue
                if (partition.process is not None
                        and not partition.process.is_alive()):
                    self._fail(partition, "crash")
                    continue
                outstanding = (bool(partition.unacked)
                               or (partition.finalize_sent
                                   and partition.document is None))
                if (self.policy.timeout is not None and outstanding
                        and now - partition.last_message_at
                        > self.policy.timeout):
                    self._fail(partition, "hang")
                    continue
                if (self.policy.max_rss_mb is not None
                        and partition.process is not None):
                    rss = _process_rss_mb(partition.process.pid)
                    if rss is not None and rss > self.policy.max_rss_mb:
                        self._fail(partition, "oom")
                        continue
            if (partition.status == "pending"
                    and partition.restart_at is not None
                    and now >= partition.restart_at):
                self._spawn(partition)
            self._pump(partition)
        if self.on_service is not None:
            # Serving-plane tick: fires even when every worker is dead
            # or silent, so the bridge can observe lost coverage and
            # let its published snapshot age honestly.
            self.on_service()

    # -- the run ------------------------------------------------------------

    def run(self, capture: Any, tolerant: bool = False) -> LiveRunResult:
        """Stream ``capture`` through the partition fleet and merge.

        For a fused model ``capture`` is a mapping ``{source name:
        capture path}`` with one entry per vantage; the per-vantage
        streams are merged by timestamp, exactly the stream a fused
        single-process engine would see on one tagged tap.  A record
        past ``start`` with a NaN or infinite time raises
        :class:`~repro.telescope.capture.NonFiniteTimestampError`,
        naming its capture record, instead of reaching a worker.
        """
        if self.fused:
            if not isinstance(capture, Mapping):
                raise TypeError("a fused live run takes a mapping of "
                                "{source name: capture path}")
            missing = [name for name in self._fused_names
                       if name not in capture]
            if missing:
                raise ValueError("no capture for vantage(s): "
                                 + ", ".join(sorted(missing)))
        # Dispatch under an open span so every worker's trace context
        # names it as the cross-process parent.
        with self.tracer.span("partition_dispatch",
                              partitions=len(self.partitions)):
            for partition in self.partitions:
                self._spawn(partition)
        self._write_manifest(force=True)
        interrupted = False
        records_read = 0
        stopped_early = False
        records = 0
        try:
            with contextlib.ExitStack() as stack:
                if self.fused:
                    readers = {
                        name: stack.enter_context(
                            CaptureReader(capture[name], tolerant=tolerant))
                        for name in self._fused_names
                    }
                    stream = _merge_readers(self._fused_names, readers)
                else:
                    reader = stack.enter_context(
                        CaptureReader(capture, tolerant=tolerant))
                    stream = ((None, observation) for observation in reader)
                for vidx, observation in stream:
                    if self._stop():
                        interrupted = True
                        break
                    when = observation.time
                    if not math.isfinite(when) and not when < self.start:
                        # Rejected here, where the record's place in its
                        # file is known; routed on, it would fail inside
                        # a worker as a harness error.
                        if vidx is None:
                            raise NonFiniteTimestampError(
                                reader.records_read - 1, when)
                        name = self._fused_names[vidx]
                        raise NonFiniteTimestampError(
                            readers[name].records_read - 1, when, name)
                    if vidx is None:
                        self._route(observation)
                    else:
                        self._route_fused(vidx, observation)
                    records += 1
                    if records % 64 == 0:
                        self._service()
                if self.fused:
                    records_read = sum(r.records_read
                                       for r in readers.values())
                    stopped_early = any(r.stopped_early
                                        for r in readers.values())
                else:
                    records_read = reader.records_read
                    stopped_early = reader.stopped_early
            if not interrupted:
                self._finalize()
                interrupted = self._stop()
        except BaseException:
            # Capture errors and worker-propagated ShardWorkerError
            # alike: tear the fleet down hard, then let the caller see
            # the original failure.
            for partition in self.partitions:
                self._kill(partition)
            raise
        if interrupted:
            self._shutdown_fleet()
        with self.tracer.span("partition_merge",
                              partitions=len(self.partitions)):
            result = self._merge(interrupted)
        result.records_read = records_read
        result.stopped_early = stopped_early
        for partition in self.partitions:
            self._kill(partition)
        return result

    def _route(self, observation: Observation) -> None:
        when = observation.time
        if when < self.start:
            return  # training-window traffic, not live
        front_before = self._front
        self._front = max(self._front, when)
        self._end = max(self._end, when)
        if self._sentinel is not None:
            if self._sentinel_buffer is not None:
                for ready in self._sentinel_buffer.push(observation):
                    self._sentinel.observe(ready.time)
            else:
                self._sentinel.observe(when)
        index = (self._owner.get(observation.block_key)
                 if observation.family is self.model.family else None)
        if index is None:
            # The single-process detector counts (and ignores) records
            # it has no block for; count them here so the merged
            # counter matches.
            self._unrouted += 1
            self._m_observations.inc()
            return
        partition = self.partitions[index]
        if partition.status == "lost":
            return
        row = (partition.next_seq, when, int(observation.family),
               observation.source, observation.qtype, front_before)
        partition.next_seq += 1
        partition.replay.append(row)
        partition.outbox.append(row)
        self._observed += 1
        if len(partition.outbox) >= self._batch_rows:
            self._pump(partition)

    def _route_fused(self, vidx: int, observation: Observation) -> None:
        """Route one tagged record; ship vantage-bin closes in-band.

        Mirrors the single-process fused engine exactly: monitors see
        the *raw* tap (every record at or past ``start``, routable or
        not), and a sentinel bin closes the moment the raw stream
        reaches ``bin_start + bin_seconds`` — before the record that
        crossed the boundary is observed.  The count rows are
        sequence-numbered into every partition's stream, so replay
        after a restart reconstructs monitor state bit-for-bit.
        """
        when = observation.time
        if when < self.start:
            return  # training-window traffic, not live
        front_before = self._front
        while self._vbin_start + self._vbin_seconds <= when:
            for source_index, count in enumerate(self._vbin_counts):
                self._broadcast_vbin(source_index, self._vbin_start, count,
                                     front_before)
            self._vbin_counts = [0] * len(self._vbin_counts)
            self._vbin_start += self._vbin_seconds
        self._vbin_counts[vidx] += 1
        self._front = max(self._front, when)
        self._end = max(self._end, when)
        index = (self._owner.get(observation.block_key)
                 if observation.family is self.model.family else None)
        if index is None:
            self._unrouted += 1
            self._m_observations.inc()
            return
        partition = self.partitions[index]
        if partition.status == "lost":
            return
        row = (partition.next_seq, when, int(observation.family),
               observation.source, observation.qtype, front_before, vidx)
        partition.next_seq += 1
        partition.replay.append(row)
        partition.outbox.append(row)
        self._observed += 1
        if len(partition.outbox) >= self._batch_rows:
            self._pump(partition)

    def _broadcast_vbin(self, vidx: int, bin_start: float, count: int,
                        front: float, closed: bool = True) -> None:
        """Ship one vantage-sentinel bin count to every live partition.

        Zero-count closed bins are shipped too — an empty bin *is* the
        blind-vantage signal the monitors exist to catch.  The
        end-of-stream partial bin goes out with ``closed=False``: its
        arrivals count, but the bin stays open, exactly as in a
        single-process engine whose raw tap simply stopped.
        """
        for partition in self.partitions:
            if partition.status == "lost":
                continue
            row = (partition.next_seq, None, vidx, bin_start, count, front,
                   closed)
            partition.next_seq += 1
            partition.replay.append(row)
            partition.outbox.append(row)
            if len(partition.outbox) >= self._batch_rows:
                self._pump(partition)

    def _finalize(self) -> None:
        if self._sentinel is not None:
            if self._sentinel_buffer is not None:
                for ready in self._sentinel_buffer.flush():
                    self._sentinel.observe(ready.time)
            self._sentinel.advance(self._end)
            self._finalize_windows = self._sentinel.quarantined_intervals()
        if self.fused:
            for vidx, count in enumerate(self._vbin_counts):
                if count:
                    self._broadcast_vbin(vidx, self._vbin_start, count,
                                         self._front, closed=False)
            self._vbin_counts = [0] * len(self._vbin_counts)
        self._finalize_end = self._end
        while any(p.status in ("running", "pending")
                  for p in self.partitions):
            if self._stop():
                return
            self._service()
            if any(p.status in ("running", "pending")
                   for p in self.partitions):
                time.sleep(self.policy.poll_interval)

    def _shutdown_fleet(self) -> None:
        """Graceful stop: ask every live worker to checkpoint and exit."""
        deadline = time.monotonic() + 5.0
        for partition in self.partitions:
            if (partition.status == "running" and partition.hello
                    and partition.conn is not None):
                try:
                    partition.conn.send(("shutdown",))
                except (OSError, ValueError):
                    continue
        while (time.monotonic() < deadline
               and any(p.status == "running" for p in self.partitions)):
            for partition in self.partitions:
                if partition.status != "running" or partition.conn is None:
                    continue
                try:
                    while (partition.conn is not None
                           and partition.conn.poll(0)):
                        # "bye" flips the partition to interrupted; a
                        # "final" that races the shutdown still counts.
                        self._handle(partition, partition.conn.recv())
                except (EOFError, OSError, ShardWorkerError):
                    partition.status = "interrupted"
            time.sleep(self.policy.poll_interval)
        for partition in self.partitions:
            if partition.status == "running":
                partition.status = "interrupted"
            self._kill(partition)

    # -- merging ------------------------------------------------------------

    def _merge_fused_sources(self, documents: List[Dict[str, Any]]
                             ) -> Dict[str, SourceHealth]:
        sources: Dict[str, SourceHealth] = {}
        for document in documents:
            for name, entry in document["health"].get("sources",
                                                      {}).items():
                health = SourceHealth.from_dict(entry)
                existing = sources.get(name)
                if existing is None:
                    sources[name] = health
                else:
                    existing.gated_bins += health.gated_bins
                    existing.measurable_blocks += health.measurable_blocks
        return sources

    def _merge(self, interrupted: bool) -> LiveRunResult:
        documents = [p.document for p in self.partitions
                     if p.document is not None]
        results: Dict[int, BlockResult] = {}
        for document in documents:
            for entry in document["results"]:
                result = block_result_from_dict(entry)
                results[result.key] = result

        merged = RunHealthReport.merged(
            (RunHealthReport.from_dict(document["health"])
             for document in documents),
            run="fusion-stream" if self.fused else "streaming",
            max_quarantine_frac=self.max_quarantine_frac)
        if self.fused and documents:
            # Every fused partition holds an identical whole-tap copy
            # of each vantage's monitor, so the generic merge summed
            # the same observation/bin counters once per partition.
            # Rebuild: vantage-level fields from the first document,
            # per-partition accounting (gated bins, measurable blocks)
            # summed across documents.
            merged.sources = self._merge_fused_sources(documents)
        if self.tracer.enabled:
            for document in documents:
                self.tracer.import_spans(document.get("spans"))
        folded = any(p.folded_metrics_seq for p in self.partitions)
        if self.metrics.enabled:
            for partition in self.partitions:
                document = partition.document
                if document is None or partition.folded_metrics_seq:
                    # Nothing delivered, or this partition's counters
                    # arrived incrementally (heartbeat deltas plus the
                    # final delta) — the registry is already current,
                    # folding the full snapshot would double it.
                    continue
                snapshot = document.get("metrics")
                if snapshot is not None:
                    self.metrics.merge_snapshot(snapshot)
                    folded = True
            merged.dead_letters.bind(dead_letter_metric(self.metrics),
                                     backfill=not folded)
            merged.guardrails.bind(guardrail_metric(self.metrics),
                                   backfill=not folded)
        if self._sentinel is not None:
            merged.sentinel_windows = sorted(
                set(tuple(window) for window in self._finalize_windows))

        planned = self._planned_measurable
        lost_errors: Dict[int, BaseException] = {}
        for partition in self.partitions:
            if partition.status != "lost":
                continue
            error_cls = _OUTCOME_ERRORS.get(partition.last_failure,
                                            ShardFatalError)
            error = error_cls(
                f"live partition {partition.unit} kept dying "
                f"({partition.last_failure}) through "
                f"{len(partition.attempts)} attempts "
                f"[{','.join(partition.attempts)}]; its blocks were "
                f"dead-lettered as lost coverage")
            for key in partition.measurable:
                lost_errors[key] = error
        records = [
            ShardAttemptRecord(
                unit=partition.unit, outcomes=list(partition.attempts),
                status={"done": "done", "lost": "lost"}.get(
                    partition.status, "pending"))
            for partition in self.partitions
        ]
        fold_lost_coverage(merged, "stream", planned, lost_errors, records,
                           self.metrics if self.metrics.enabled else None)

        degraded = bool(lost_errors)
        self._run_status = ("interrupted" if interrupted
                            else "degraded" if degraded else "finalized")
        self._write_manifest(force=True)

        result = LiveRunResult(
            results=results, health=merged, end=self._end,
            interrupted=interrupted, degraded=degraded,
            observed=self._observed, unrouted=self._unrouted,
            restarts=sum(p.failures for p in self.partitions),
            replayed_rows=self._replayed_rows,
            sentinel_windows=list(merged.sentinel_windows),
            sentinel_seconds=(self._sentinel.quarantined_seconds()
                              if self._sentinel is not None else 0.0),
            manifest_path=self.manifest_path)
        if not interrupted:
            # The parent owns the budget verdict over the merged
            # population, exactly like the single-process finalize.
            try:
                ErrorBudget(self.max_quarantine_frac).check(
                    "stream", planned, len(merged.dead_letters))
            except ErrorBudgetExceeded as error:
                merged.budget_tripped = True
                error.report = merged
                raise
        return result


def _merge_readers(names: List[str],
                   readers: Mapping[str, CaptureReader]):
    """Time-merge per-vantage capture readers into ``(vidx, obs)`` rows.

    Ties break by vantage order then arrival position, so the merged
    order is a pure function of the capture files — both deployment
    shapes iterate the identical stream.
    """
    def stream(vidx: int, reader: CaptureReader):
        for position, observation in enumerate(reader):
            yield (observation.time, vidx, position, observation)

    merged = heapq.merge(*(stream(vidx, readers[name])
                           for vidx, name in enumerate(names)))
    for _, vidx, _, observation in merged:
        yield vidx, observation


def merge_tagged_captures(captures: Mapping[str, str],
                          order: Optional[List[str]] = None,
                          tolerant: bool = False):
    """Yield the time-merged union of per-vantage captures, tagged.

    The single-process fused ingest: each record comes back as a
    :class:`~repro.telescope.records.TaggedObservation` carrying its
    vantage name, so feeding the result through a
    :class:`LiveBlockEngine` over a fused detector consumes exactly
    the stream the partitioned supervisor ships to its fleet.
    """
    names = list(order) if order is not None else sorted(captures)
    with contextlib.ExitStack() as stack:
        readers = {
            name: stack.enter_context(
                CaptureReader(captures[name], tolerant=tolerant))
            for name in names
        }
        for vidx, observation in _merge_readers(names, readers):
            yield TaggedObservation(observation.time, observation.family,
                                    observation.source, observation.qtype,
                                    names[vidx])


def run_partitioned_live(model: TrainedModel, capture: Any,
                         tolerant: bool = False,
                         **kwargs: Any) -> LiveRunResult:
    """Convenience wrapper: build a supervisor and run one capture.

    ``capture`` is a path for a single-source model, or a mapping of
    ``{source name: path}`` for a fused model.
    """
    supervisor = LivePartitionSupervisor(model, **kwargs)
    return supervisor.run(capture, tolerant=tolerant)
