"""Supervised partitioned live detection.

The deployment-shaped counterpart of :mod:`repro.parallel`: where the
batch path shards a *bounded* window and can re-run any shard from its
input, the live path consumes an *unbounded* stream, so containment has
to restart a failed partition from its last checkpoint and replay only
the gap — bisection would mean replaying the whole stream per probe.

Three layers:

:class:`LiveBlockEngine`
    One :class:`~repro.core.detector.StreamingDetector` plus its
    reorder buffer and rolling drift auditor, fed by
    :func:`replay_capture` (single-source) or :func:`merge_tagged_captures`
    (fused).  The single-process CLI path and every partition worker run
    the *same* engine over the *same* stream, which is what makes the
    partitioned≡single equivalence contract hold by construction.

``_live_worker_entry``
    Child-process entry point for one partition: restores the engine
    from its rotated checkpoint (detector state, reorder buffer, drift
    auditor, position cursor), opens the capture itself, replays it
    over its slice of the model from the cursor on, checkpoints on a
    stream-time cadence, and reports heartbeats with its watermark,
    position and cumulative telemetry.

:class:`LivePartitionSupervisor`
    The parent: plans partitions over the model's block population with
    the same deterministic plan algebra as the batch path
    (:func:`~repro.parallel.plan_shards` — the plan is a function of
    the population, never of worker count), starts one worker per
    partition from the preloaded forkserver, classifies failures as
    crash/hang/oom exactly like :class:`~repro.parallel.ShardSupervisor`,
    restarts a failed partition from its checkpoint without touching
    siblings, and merges per-partition results/health/telemetry into
    one population-wide report whose ``accounts_for`` holds over the
    full live population.  It never reads the capture.  A partition
    that exhausts its restart budget is dead-lettered as lost coverage —
    the run completes *degraded* rather than dying.

Equivalence contract.  A partitioned run emits bit-identical events,
health verdicts, and stream-semantic counters to a single-process run
of the same capture:

- Every worker replays the whole tap through the same reorder buffer,
  sentinel and vantage monitors as a single-process engine; records of
  blocks outside its slice are counted and ignored, exactly as the
  single-process detector ignores blocks it has no model for.  So
  every per-block decision (bins, beliefs, transitions, drift audits,
  hot swaps) and every feed-health verdict is computed on the same
  stream in both shapes.
- A restarted worker resumes by record position: its checkpoint names
  the tap records consumed and carries the buffer and auditor, so the
  replay continues exactly where the checkpointed state stopped.
- Counts every worker makes identically over the whole tap merge once,
  from the lowest-index partition not lost (see ``_TAP_FAMILIES``);
  block-scoped counts sum.

The price is that every worker decodes and re-sorts the whole tap:
partitioning contains crashes and splits the per-block work, not the
ingest.  Wall-clock-dependent telemetry (stage seconds, watermark-lag
and occupancy gauges, checkpoint counts) legitimately differs between
runs; the chaos suite compares the deterministic counters only.
"""

from __future__ import annotations

import contextlib
import heapq
import json
import math
import os
import signal
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
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
    SNAPSHOT_FORMAT,
    MetricsRegistry,
    diff_snapshots,
    resolve_registry,
)
from .obs.tracing import NULL_TRACER, SpanTracer, resolve_tracer
from .parallel import (
    ShardFatalError,
    ShardWorkerError,
    SupervisionPolicy,
    _OUTCOME_ERRORS,
    _PROCESS_FAULT_ENV,
    _backoff_delay,
    _child_context,
    _ensure_child_import_path,
    _install_fault_spec,
    _plan_digest,
    _process_rss_mb,
    plan_shards,
)
from .telescope.capture import (
    CHUNK_RECORDS,
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
    "replay_capture",
    "run_partitioned_live",
    "LIVE_MANIFEST_FORMAT",
]

#: format stamp of the live-run manifest (``live-manifest.json`` in the
#: checkpoint directory) — ``repro-outage inspect`` dispatches on it.
LIVE_MANIFEST_FORMAT = "repro-live-manifest-v1"

#: least wall time between two heartbeats of a partition worker.  Each
#: carries a registry snapshot the parent folds; one per chunk cost the
#: parent about 0.8 s of CPU on a 2-worker, 8.7M-record replay.
_HEARTBEAT_S = 0.1


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
        # observe_from and drives it in feed().
        self._fused = hasattr(detector, "observe_from")
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
        # ``detector.advance`` so simultaneous bin closes batch into one
        # cohort update instead of trickling out as one-row closes
        # through per-packet catch-up.  ``None`` auto-derives the
        # finest tuned bin (every block boundary lands on a multiple of
        # it under the planner's ladder); pass ``<= 0`` to disable.
        # Partition workers receive the cadence explicitly from the
        # supervisor (computed over the FULL model), because a slice's
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
        if self._fused and observation.time >= self.detector.start:
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

    def flush(self) -> None:
        """Drain the buffer at end of stream."""
        if self.buffer is not None:
            for ready in self.buffer.flush():
                self._process(ready)

    def checkpoint_extra(self, seq: Optional[int] = None,
                         ) -> Optional[Dict[str, Any]]:
        """Engine state that rides in the checkpoint's ``extra`` slot.

        ``seq`` is a position cursor (tap records consumed); the
        observed count travels with it.
        """
        extra: Dict[str, Any] = {}
        if seq is not None:
            extra["seq"] = int(seq)
            extra["observed"] = self.observed
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
        A partition worker resumes by record position, so it restores
        the buffer and the observed count.
        """
        if not extra:
            return
        if buffer_state:
            self.observed = int(extra.get("observed", 0))
            if self.buffer is not None and extra.get("reorder") is not None:
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
# capture replay
# ---------------------------------------------------------------------------


def replay_capture(engine: LiveBlockEngine, reader: CaptureReader, *,
                   until: Callable[[], float] = lambda: math.inf,
                   on_cut: Callable[[int], None] = lambda position: None,
                   stop: Callable[[], bool] = lambda: False,
                   resume_time: Optional[float] = None,
                   resume_position: int = 0,
                   tracer: Any = NULL_TRACER) -> Tuple[int, int, bool]:
    """Replay the rest of ``reader``'s capture through ``engine`` in
    columnar chunks: the chunk loop of single-process ``live`` and of
    every single-source partition worker.

    Records before the detector's start are training-window traffic and
    are skipped; after a resume, so are those at or before
    ``resume_time`` (a time cursor, counted as resume-skipped) or before
    record ``resume_position`` (a position cursor, whose records the
    restored state already accounts for).  Rows are fed up to the
    stream time ``until()`` names, then ``on_cut`` gets the number of
    capture records consumed so far, so a caller can checkpoint on
    exactly that position.  ``stop()`` is polled before each chunk; a
    stop leaves the buffer unflushed.  A non-finite time raises
    :class:`~repro.telescope.capture.NonFiniteTimestampError` naming its
    record.  Returns ``(training-window skipped, resume skipped,
    interrupted)``.
    """
    start = engine.detector.start
    skipped_training = skipped_resume = 0
    while True:
        if stop():
            return skipped_training, skipped_resume, True
        first = reader.records_read
        with tracer.span("capture.decode"):
            chunk = reader.read_chunk()
        if chunk is None:
            break
        # NaN passes both skips.
        times = chunk.times
        keep = ~(times < start)
        skipped_training += len(chunk) - int(keep.sum())
        if resume_time is not None:
            fresh = ~(times <= resume_time)
            skipped_resume += int((keep & ~fresh).sum())
            keep &= fresh
        if resume_position > first:
            keep[:resume_position - first] = False
        poisoned = np.flatnonzero(keep & ~np.isfinite(times))
        cut = int(poisoned[0]) if poisoned.size else len(chunk)
        index = np.flatnonzero(keep[:cut])
        rows = chunk[index]
        fed = 0
        while fed < len(rows):
            with tracer.span("live.feed"):
                fed += engine.feed_batch(rows[fed:], until())
            on_cut(first + (int(index[fed]) if fed < len(rows) else cut))
        if poisoned.size:
            raise NonFiniteTimestampError(first + cut, float(times[cut]))
    with tracer.span("live.feed"):
        engine.flush()
    return skipped_training, skipped_resume, False


def _fault_plan(keys: Any) -> Optional[Any]:
    """The chaos suite's window-deferred faults for ``keys``, if the
    test-only environment channel names any."""
    if not os.environ.get(_PROCESS_FAULT_ENV):
        return None
    # Lazy, so production never imports the testing layer.
    from .testing.faults import load_streaming_faults
    return load_streaming_faults(keys)


def _tagged_merge(names: List[str], readers: Mapping[str, CaptureReader]
                  ) -> Iterator[TaggedObservation]:
    """Time-merge per-vantage capture readers into tagged records.

    Ties break by vantage order then arrival position, so the merged
    order is a pure function of the capture files.  A NaN or infinite
    time raises :class:`~repro.telescope.capture.NonFiniteTimestampError`
    naming the vantage and its capture record.
    """
    def stream(vidx: int, name: str):
        for position, observation in enumerate(readers[name]):
            if not observation.time < math.inf:
                raise NonFiniteTimestampError(position, observation.time,
                                              name)
            yield (observation.time, vidx, position, observation)

    merged = heapq.merge(*(stream(vidx, name)
                           for vidx, name in enumerate(names)))
    for _, vidx, _, observation in merged:
        yield TaggedObservation(observation.time, observation.family,
                                observation.source, observation.qtype,
                                names[vidx])


def merge_tagged_captures(captures: Mapping[str, str],
                          order: Optional[List[str]] = None,
                          tolerant: bool = False
                          ) -> Iterator[TaggedObservation]:
    """Yield the time-merged union of per-vantage captures, tagged.

    The fused ingest: each record comes back as a
    :class:`~repro.telescope.records.TaggedObservation` carrying its
    vantage name, so feeding the result through a
    :class:`LiveBlockEngine` over a fused detector consumes exactly the
    stream every fused partition worker replays.
    """
    names = list(order) if order is not None else sorted(captures)
    with contextlib.ExitStack() as stack:
        readers = {
            name: stack.enter_context(
                CaptureReader(captures[name], tolerant=tolerant))
            for name in names
        }
        yield from _tagged_merge(names, readers)


# ---------------------------------------------------------------------------
# partition worker
# ---------------------------------------------------------------------------


def _live_worker_entry(payload: Dict[str, Any], conn: Any,
                       fault_spec: Optional[str]) -> None:
    """Child-process entry point for one live partition.

    The worker reads the whole capture itself and replays it through a
    :class:`LiveBlockEngine` over its slice of the model.  Worker ->
    parent: ``("hello", {...})`` once restored (carrying its resume
    position), ``("hb", {...})`` after every chunk and checkpoint,
    ``("final", document)``, ``("bye", {...})`` after a shutdown
    checkpoint, ``("error", exception)`` for a capture error (raised in
    the parent as single-process ``live`` raises it) and ``("fatal",
    message)`` for any other escaping exception.  Parent -> worker:
    ``("shutdown",)`` only.

    Module-level so it pickles; ``fault_spec`` is the parent's
    chaos-channel value at launch (see :func:`_install_fault_spec`).
    """
    # The parent coordinates shutdown; a terminal's SIGINT reaches the
    # whole process group and must not kill workers mid-checkpoint.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _install_fault_spec(fault_spec)
    try:
        _PartitionWorker(payload, conn).run()
    except (OSError, ValueError) as error:
        try:
            conn.send(("error", error))
        except Exception:
            pass
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


class _PartitionWorker:
    """One partition's engine over the whole tap, with its checkpoint
    cadence, heartbeats and telemetry piggyback."""

    def __init__(self, payload: Dict[str, Any], conn: Any) -> None:
        self.payload = payload
        self.conn = conn
        self.unit = payload["unit"]
        self.registry = MetricsRegistry()
        self.tracer = (SpanTracer.from_context(payload.get("trace_ctx"))
                       if payload.get("traced") else NULL_TRACER)
        self.explain = (ExplainLog() if payload.get("explain")
                        else NULL_EXPLAIN)
        self.ship_telemetry = bool(payload.get("ship_telemetry"))
        self.checkpoint_path = payload.get("checkpoint")
        self.keep = int(payload.get("keep", 3))
        self.checkpoint_every = float(payload.get("checkpoint_every", 3600.0))
        self.beats = 0
        self.beat_at = -math.inf
        self.explain_sent = 0
        self.stopped = False
        model = self._model()
        detector = self._restore(model)
        resumed = detector is not None
        if detector is None:
            detector = self._fresh(model)
        # The error budget is the parent's verdict over the merged
        # population; a partition never vetoes its own slice.
        detector.budget = ErrorBudget(1.0)
        # Provenance is per-incarnation state (checkpoints do not carry
        # it): install after restore, same object either way.
        detector.explain = self.explain
        horizon = float(payload["horizon"])
        buffer = (ReorderBuffer(horizon, LatePolicy(payload["late_policy"]),
                                metrics=self.registry)
                  if horizon > 0 else None)
        self.engine = LiveBlockEngine(
            detector, buffer=buffer, drift=payload.get("drift"),
            fault_plan=_fault_plan(payload["keys"]),
            advance_every=payload["advance_every"])
        self.position = 0
        if resumed and detector.restored_extra:
            self.position = int(detector.restored_extra.get("seq", 0))
            self.engine.restore(detector.restored_extra, buffer_state=True)
        self.next_checkpoint = (detector.last_time + self.checkpoint_every
                                if self.checkpoint_path else math.inf)
        self.tap: Dict[str, Any] = {}
        conn.send(("hello", {"seq": self.position}))

    # -- model slice --------------------------------------------------------

    def _model(self) -> Any:
        payload = self.payload
        family = Family(payload["family"])
        start = float(payload["start"])
        fusion = payload.get("fusion")
        if not fusion:
            histories, parameters = model_blocks_from_dict(payload["blocks"])
            return TrainedModel(family=family, histories=histories,
                                parameters=parameters, train_start=start,
                                train_end=start)
        from .fusion import FusedModel
        sources: Dict[str, TrainedModel] = {}
        for name in fusion["sources"]:
            histories, parameters = model_blocks_from_dict(
                fusion["blocks"][name])
            train_start, train_end = fusion["train"][name]
            sources[name] = TrainedModel(
                family=family, histories=histories, parameters=parameters,
                train_start=float(train_start), train_end=float(train_end))
        return FusedModel(family=family, sources=sources,
                          primary=fusion["primary"])

    def _restore(self, model: Any) -> Optional[StreamingDetector]:
        if not self.checkpoint_path:
            return None
        loader = None
        if self.payload.get("fusion"):
            from .fusion import fused_detector_from_json
            loader = (lambda text: fused_detector_from_json(
                text, model, metrics=self.registry))
        try:
            with self.tracer.span("partition_restore", unit=self.unit):
                return load_checkpoint_rotated(
                    self.checkpoint_path, model, metrics=self.registry,
                    keep=self.keep, loader=loader)
        except (FileNotFoundError, CheckpointFormatError):
            return None

    def _fresh(self, model: Any) -> StreamingDetector:
        start = float(self.payload["start"])
        if self.payload.get("fusion"):
            from .fusion import FusedStreamingDetector
            return FusedStreamingDetector(model, start,
                                          max_quarantine_frac=1.0,
                                          metrics=self.registry)
        sentinel = (VantageSentinel(start, SentinelConfig())
                    if self.payload.get("sentinel") else None)
        return StreamingDetector(model.family, model.histories,
                                 model.parameters, start, sentinel=sentinel,
                                 max_quarantine_frac=1.0,
                                 metrics=self.registry)

    # -- the replay ---------------------------------------------------------

    def run(self) -> None:
        if self.payload.get("fusion"):
            interrupted = self._replay_fused()
        else:
            interrupted = self._replay_single()
        engine = self.engine
        detector = engine.detector
        buffer = engine.buffer
        self.tap.update(observed=engine.observed,
                        late_dropped=(buffer.stats.late_dropped
                                      if buffer is not None else 0))
        if interrupted:
            self._save()
            info = {"seq": self.position}
            self._piggyback(info)
            self.conn.send(("bye", info))
            return
        end = detector.last_time
        with self.tracer.span("partition_finalize", unit=self.unit, end=end):
            results = detector.finalize(end)
            self._save()
        sentinel = getattr(detector, "sentinel", None)
        document: Dict[str, Any] = {
            "index": self.payload["index"],
            "results": [block_result_to_dict(results[key])
                        for key in sorted(results)],
            "health": detector.last_health.as_dict(),
            "swaps": sorted(detector.retuned),
            "windows": detector.windows_closed,
            "end": end,
            "front": self._front(),
            "tap": self.tap,
            "sentinel_seconds": (sentinel.quarantined_seconds()
                                 if sentinel is not None else 0.0),
        }
        self._piggyback(document)
        if self.tracer.enabled:
            document["spans"] = self.tracer.export_spans()
        self.conn.send(("final", document))

    def _replay_single(self) -> bool:
        payload = self.payload
        with CaptureReader(payload["capture"],
                           tolerant=payload["tolerant"]) as reader:

            def stop() -> bool:
                self.position = max(self.position, reader.records_read)
                self._beat()
                return self._shutdown_requested()

            skipped, _, interrupted = replay_capture(
                self.engine, reader, until=lambda: self.next_checkpoint,
                on_cut=self._cut, stop=stop,
                resume_position=self.position, tracer=self.tracer)
            if not interrupted:
                self.position = reader.records_read
            self.tap.update(read=reader.records_read, skipped=skipped,
                            stopped_early=reader.stopped_early)
        return interrupted

    def _replay_fused(self) -> bool:
        payload = self.payload
        names = list(payload["fusion"]["sources"])
        engine = self.engine
        start = engine.detector.start
        resume = self.position
        skipped = read = 0
        interrupted = False
        with contextlib.ExitStack() as stack:
            readers = {
                name: stack.enter_context(CaptureReader(
                    payload["capture"][name], tolerant=payload["tolerant"]))
                for name in names
            }
            for observation in _tagged_merge(names, readers):
                if read % CHUNK_RECORDS == 0:
                    self.position = max(self.position, read)
                    self._beat()
                    if self._shutdown_requested():
                        interrupted = True
                        break
                read += 1
                if observation.time < start:
                    skipped += 1
                    continue
                if read <= resume:
                    continue
                engine.feed(observation)
                if engine.detector.last_time >= self.next_checkpoint:
                    self._cut(read)
            if not interrupted:
                engine.flush()
                self.position = read
            self.tap.update(read=read, skipped=skipped,
                            stopped_early=any(reader.stopped_early
                                              for reader in readers.values()))
        return interrupted

    # -- checkpoints, heartbeats --------------------------------------------

    def _cut(self, position: int) -> None:
        """The replay reached ``position``: checkpoint there when due."""
        self.position = max(self.position, position)
        detector = self.engine.detector
        if detector.last_time >= self.next_checkpoint:
            with self.tracer.span("partition_checkpoint", unit=self.unit):
                self._save()
            self.next_checkpoint = (detector.last_time
                                    + self.checkpoint_every)
            self._beat()

    def _save(self) -> None:
        if self.checkpoint_path:
            save_checkpoint_rotated(
                self.engine.detector, self.checkpoint_path, keep=self.keep,
                extra=self.engine.checkpoint_extra(seq=self.position))

    def _shutdown_requested(self) -> bool:
        while not self.stopped and self.conn.poll(0):
            self.stopped = self.conn.recv()[0] == "shutdown"
        return self.stopped

    def _beat(self) -> None:
        now = time.monotonic()
        if now - self.beat_at < _HEARTBEAT_S:
            return
        self.beat_at = now
        detector = self.engine.detector
        info: Dict[str, Any] = {
            "position": self.position,
            "watermark": detector.last_time,
            "front": self._front(),
            "windows": detector.windows_closed,
            "swaps": len(detector.retuned),
            "observed": self.engine.observed,
        }
        self._piggyback(info)
        self.conn.send(("hb", info))

    def _front(self) -> float:
        """The stream front: the newest record time taken in."""
        buffer = self.engine.buffer
        return (buffer.front if buffer is not None
                else self.engine.detector.last_time)

    def _piggyback(self, info: Dict[str, Any]) -> None:
        """Attach the registry's cumulative snapshot (numbered by
        ``beat``) and the explain events not yet shipped."""
        if self.ship_telemetry:
            self.beats += 1
            info["beat"] = self.beats
            info["metrics"] = self.registry.snapshot()
        if self.explain.enabled:
            fresh = self.explain.events_since(self.explain_sent)
            if fresh:
                info["explain"] = fresh
                self.explain_sent = fresh[-1]["seq"]


# ---------------------------------------------------------------------------
# parent supervisor
# ---------------------------------------------------------------------------


#: Metric families every partition worker counts identically, because
#: each one replays the whole tap (records, reorder verdicts, feed and
#: vantage health).  The merge takes them once, from the lowest-index
#: partition not lost; every other family is block-scoped and sums.
_TAP_FAMILIES = frozenset({
    "stream_observations_total",
    "stream_clock_seconds",
    "reorder_records_total",
    "reorder_buffer_occupancy",
    "reorder_buffer_occupancy_peak",
    "sentinel_quarantine_entered_total",
    "sentinel_quarantine_exited_total",
    "sentinel_expected_bin_count",
    "fusion_observations_total",
    "fusion_source_bins_total",
    "fusion_source_weight",
})

_EMPTY_SNAPSHOT: Dict[str, Any] = {"format": SNAPSHOT_FORMAT, "metrics": []}


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
    attempts: List[str] = field(default_factory=list)
    #: furthest tap position any incarnation reported.
    position: int = 0
    observed: int = 0
    watermark: float = 0.0
    windows: int = 0
    swaps: int = 0
    restart_at: Optional[float] = None
    last_message_at: float = 0.0
    document: Optional[Dict[str, Any]] = None
    last_failure: str = "crash"
    #: ``beat`` number of the last snapshot folded (0 = none yet).
    folded_metrics_seq: int = 0
    #: last worker-side explain-event seq folded (re-delivery guard).
    explain_folded_seq: int = 0
    #: latest cumulative registry snapshot the current incarnation sent.
    snapshot: Optional[Dict[str, Any]] = None
    #: what this partition now contributes to the parent registry, and
    #: whether that includes the tap-scoped families.
    folded: Optional[Dict[str, Any]] = None
    folded_tap: bool = False

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
    so an in-process consumer (a test, an embedding program) reads
    exactly what an external observer reads — agreement by
    construction, not by parallel bookkeeping.
    """

    status: str
    plan_digest: str
    family: int
    start: float
    #: newest record time any worker has pushed; ``None`` before the first.
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
    """Outcome of one partitioned live run.

    The record counts are the tap's, from the lowest-index partition
    not lost: ``records_read = skipped + observed + late_dropped`` on a
    completed run, as single-process ``live`` reports them.
    """

    results: Dict[int, BlockResult]
    health: RunHealthReport
    end: float
    interrupted: bool = False
    degraded: bool = False
    observed: int = 0                #: tap records observed
    skipped: int = 0                 #: training-window records skipped
    late_dropped: int = 0            #: records beyond the reorder horizon
    restarts: int = 0
    replayed_rows: int = 0           #: records re-read after restarts
    records_read: int = 0
    stopped_early: bool = False
    sentinel_windows: List[Tuple[float, float]] = field(default_factory=list)
    sentinel_seconds: float = 0.0
    manifest_path: Optional[str] = None


class LivePartitionSupervisor:
    """Coordinate a fleet of partition workers over one live stream.

    One instance is one run: construct, :meth:`run`, inspect the
    returned :class:`LiveRunResult`.  The parent never reads the
    capture: each worker replays it over its own slice.  Failure
    containment follows the batch :class:`~repro.parallel.ShardSupervisor`
    — crash (silent death), hang (no message past the deadline), oom
    (RSS ceiling) — but recovery is restart-from-checkpoint instead of
    bisection: the stream is unbounded, so "re-run the shard" is not an
    operation that exists.
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
        self.sentinel = bool(sentinel)
        self.drift = drift
        self.max_quarantine_frac = float(max_quarantine_frac)
        self.fused = hasattr(model, "sources")
        if self.fused:
            if sentinel:
                raise ValueError(
                    "fused live runs monitor every vantage through the "
                    "fusion layer's own sentinels; the single-source "
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
                watermark=self.start)
            for index, shard in enumerate(shards)
        ]
        self._ctx = _child_context()
        self._planned_measurable = len(measurable)
        self._capture: Any = None
        self._tolerant = False
        self._front = float("-inf")
        self._replayed_rows = 0
        self._run_status = "running"
        self._manifest_written_at = 0.0
        self.manifest_path = (
            os.path.join(checkpoint_dir, "live-manifest.json")
            if checkpoint_dir else None)

    # -- status / manifest --------------------------------------------------

    def _tap_source(self) -> Optional[_LivePartition]:
        """The lowest-index partition not lost: the one whose tap-scoped
        counts (records, reorder verdicts, feed and vantage health)
        stand for the run."""
        return next((p for p in self.partitions if p.status != "lost"),
                    None)

    def live_status(self) -> LiveStatus:
        """Point-in-time :class:`LiveStatus` snapshot of the run.

        The single derivation both the on-disk manifest and the
        ``/health`` document are rendered from, and the programmatic
        accessor for in-process consumers.  Safe to call from
        another thread while the run mutates state: every field read is
        a single attribute load, so the view is consistent-enough
        without taking the supervisor's time.
        """
        front = self._front
        watermarks = [p.watermark for p in self.partitions
                      if p.status != "lost"]
        source = self._tap_source()
        return LiveStatus(
            status=self._run_status,
            plan_digest=self.digest,
            family=int(self.model.family),
            start=self.start,
            stream_front=None if front == float("-inf") else front,
            global_watermark=(min(watermarks) if watermarks
                              else self.start),
            observed=source.observed if source is not None else 0,
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
            "capture": self._capture,
            "tolerant": self._tolerant,
            "horizon": self.reorder_horizon,
            "late_policy": self.late_policy.value,
            "sentinel": self.sentinel,
            "drift": self.drift,
            "advance_every": self.advance_every,
            "checkpoint": (partition.checkpoint_file(self.checkpoint_dir)
                           if self.checkpoint_dir else None),
            "checkpoint_every": self.checkpoint_every,
            "keep": self.checkpoint_keep,
            "ship_telemetry": self.metrics.enabled,
            "traced": self.tracer.enabled,
            "trace_ctx": self.tracer.context(),
            "explain": self.explain.enabled,
        }
        keys = set(partition.keys)
        if self.fused:
            # Per-source model slices restricted to this partition's
            # keys; the worker reassembles a FusedModel and re-derives
            # its block specs (specs are deterministic derived state).
            payload["fusion"] = {
                "sources": list(self.model.source_names),
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
            payload["blocks"] = model_blocks_to_dict(
                {key: self.model.histories[key]
                 for key in partition.keys if key in self.model.histories},
                {key: self.model.parameters[key] for key in partition.keys})
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # The chaos channel is read here, at each launch: a forkserver
        # child inherits the server's environment, frozen at its start.
        process = self._ctx.Process(
            target=_live_worker_entry,
            args=(payload, child_conn, os.environ.get(_PROCESS_FAULT_ENV)),
            daemon=True)
        process.start()
        child_conn.close()
        partition.process = process
        partition.conn = parent_conn
        partition.status = "running"
        partition.restart_at = None
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
        partition.last_failure = outcome
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
            # Retract its counts; the next partition may now speak for
            # the tap.
            self._fold_metrics(partition)
            self._status(f"partition {partition.unit} lost after "
                         f"{len(partition.attempts)} attempts "
                         f"[{','.join(partition.attempts)}]; its blocks "
                         f"are dead-lettered as lost coverage")
        self._write_manifest(force=True)

    # -- message plumbing ---------------------------------------------------

    def _handle(self, partition: _LivePartition,
                message: Tuple[Any, Any]) -> None:
        kind, info = message
        partition.last_message_at = time.monotonic()
        if kind == "hello":
            if partition.attempts:
                # A restarted worker re-reads from its checkpoint up to
                # where the fleet had read.
                front = max(p.position for p in self.partitions)
                self._replayed_rows += max(0, front - int(info["seq"]))
        elif kind == "hb":
            partition.position = max(partition.position,
                                     int(info["position"]))
            partition.observed = int(info["observed"])
            partition.watermark = float(info["watermark"])
            partition.windows = int(info["windows"])
            partition.swaps = int(info["swaps"])
            self._front = max(self._front, float(info["front"]))
            self._fold_piggyback(partition, info)
            self._write_manifest()
        elif kind == "final":
            partition.document = info
            self._fold_piggyback(partition, info)
            partition.attempts.append("ok")
            partition.status = "done"
            partition.observed = int(info["tap"]["observed"])
            partition.watermark = float(info["end"])
            self._front = max(self._front, float(info["front"]))
            partition.windows = int(info["windows"])
            partition.swaps = len(info["swaps"])
            if partition.process is not None:
                partition.process.join(1.0)
            self._kill(partition)
            self._write_manifest(force=True)
        elif kind == "bye":
            self._fold_piggyback(partition, info)
            partition.status = "interrupted"
            if partition.process is not None:
                partition.process.join(1.0)
            self._kill(partition)
        elif kind == "error":
            # A capture error: every worker reads the same tap, so this
            # is the run's error, raised as single-process live does.
            raise info
        elif kind == "fatal":
            # An escaping worker exception is a harness bug: retrying
            # deterministic code on the same replay would fail the same
            # way, so propagate instead of burning the restart budget.
            raise ShardWorkerError(
                f"live partition {partition.unit} worker raised: {info}")

    def _fold_piggyback(self, partition: _LivePartition,
                        info: Dict[str, Any]) -> None:
        """Fold a heartbeat's (or final document's) piggybacked telemetry.

        The registry snapshot is cumulative, so folding it by difference
        is idempotent: a re-delivered heartbeat changes nothing.
        Explain events fold guarded by their seq.
        """
        snapshot = info.get("metrics")
        if snapshot is not None and self.metrics.enabled:
            partition.snapshot = snapshot
            partition.folded_metrics_seq = int(info.get("beat", 0))
            self._fold_metrics(partition)
        events = info.get("explain")
        if events:
            fresh = [event for event in events
                     if int(event.get("seq", 0))
                     > partition.explain_folded_seq]
            if fresh:
                partition.explain_folded_seq = int(fresh[-1]["seq"])
                if self.explain.enabled:
                    self.explain.extend(fresh)

    def _drain(self, partition: _LivePartition) -> None:
        """Handle every message the worker has sent; a closed pipe ends
        the drain (the liveness verdict judges the worker)."""
        while partition.conn is not None:
            try:
                if not partition.conn.poll(0):
                    return
                message = partition.conn.recv()
            except (EOFError, OSError):
                return
            self._handle(partition, message)

    def _service(self) -> None:
        """One supervision pass: drain, judge, respawn."""
        now = time.monotonic()
        for partition in self.partitions:
            if partition.status == "running" and partition.conn is not None:
                # Drain the pipe before the liveness verdict, so a
                # worker that finished and exited still delivers.
                self._drain(partition)
                if partition.status != "running":
                    continue
                if (partition.process is not None
                        and not partition.process.is_alive()):
                    self._fail(partition, "crash")
                    continue
                if (self.policy.timeout is not None
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

    def _wait(self) -> None:
        """Sleep until a worker speaks or dies, or a poll interval."""
        # Imported here: single-process live never needs it.
        from multiprocessing.connection import wait as wait_for_any

        handles = [handle for p in self.partitions
                   if p.status == "running" and p.conn is not None
                   for handle in (p.conn, p.process.sentinel)]
        if handles:
            wait_for_any(handles, timeout=self.policy.poll_interval)
        else:
            time.sleep(self.policy.poll_interval)

    # -- the run ------------------------------------------------------------

    def run(self, capture: Any, tolerant: bool = False) -> LiveRunResult:
        """Replay ``capture`` through the partition fleet and merge.

        For a fused model ``capture`` is a mapping ``{source name:
        capture path}`` with one entry per vantage; every worker merges
        them by timestamp, exactly the stream a fused single-process
        engine sees on one tagged tap.  Capture errors (a NaN or
        infinite time past ``start``, a record behind the stream front
        with no reorder horizon, a corrupt frame when not ``tolerant``)
        raise here as single-process ``live`` raises them.
        """
        if self.fused:
            if not isinstance(capture, Mapping):
                raise TypeError("a fused live run takes a mapping of "
                                "{source name: capture path}")
            missing = [name for name in self.model.source_names
                       if name not in capture]
            if missing:
                raise ValueError("no capture for vantage(s): "
                                 + ", ".join(sorted(missing)))
            capture = dict(capture)
        self._capture = capture
        self._tolerant = bool(tolerant)
        # Dispatch under an open span so every worker's trace context
        # names it as the cross-process parent.
        with self.tracer.span("partition_dispatch",
                              partitions=len(self.partitions)):
            for partition in self.partitions:
                self._spawn(partition)
        self._write_manifest(force=True)
        interrupted = False
        try:
            while any(p.status in ("running", "pending")
                      for p in self.partitions):
                if self._stop():
                    interrupted = True
                    break
                self._service()
                self._wait()
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
        for partition in self.partitions:
            self._kill(partition)
        return result

    def _shutdown_fleet(self) -> None:
        """Graceful stop: ask every live worker to checkpoint and exit."""
        deadline = time.monotonic() + 5.0
        for partition in self.partitions:
            if partition.status == "running" and partition.conn is not None:
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
                    # "bye" flips the partition to interrupted; a
                    # "final" that races the shutdown still counts.
                    self._drain(partition)
                except (OSError, ValueError, ShardWorkerError):
                    partition.status = "interrupted"
            self._wait()
        for partition in self.partitions:
            if partition.status == "running":
                partition.status = "interrupted"
            self._kill(partition)

    # -- merging ------------------------------------------------------------

    def _fold_metrics(self, changed: _LivePartition) -> None:
        """Bring the registry to every partition's latest cumulative
        snapshot, by difference.

        A partition contributes its block-scoped families; the tap
        source (:meth:`_tap_source`) contributes the tap-scoped ones
        (:data:`_TAP_FAMILIES`) too.  Only ``changed`` and partitions
        whose tap role moved are refolded.  A restarted incarnation's
        first snapshot (restored from its checkpoint) rolls back what
        its predecessor counted past that checkpoint; a lost partition
        contributes nothing, and its successor takes over the tap.
        """
        source = self._tap_source()
        for partition in self.partitions:
            tap = partition is source
            if partition is not changed and tap == partition.folded_tap:
                continue
            current = (None if partition.status == "lost"
                       else partition.snapshot)
            if current is not None and not tap:
                current = dict(current, metrics=[
                    entry for entry in current["metrics"]
                    if entry["name"] not in _TAP_FAMILIES])
            self.metrics.merge_snapshot(diff_snapshots(
                current or _EMPTY_SNAPSHOT, partition.folded))
            partition.folded, partition.folded_tap = current, tap

    def _merge_fused_sources(self, documents: List[Dict[str, Any]]
                             ) -> Dict[str, SourceHealth]:
        """Vantage health, merged by the same rule as the metrics: every
        fused worker holds a whole-tap copy of each vantage's monitor,
        so vantage-level fields come from the first document (the tap
        source's) and per-partition accounting (gated bins, measurable
        blocks) sums."""
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
            merged.sources = self._merge_fused_sources(documents)
        if self.tracer.enabled:
            for document in documents:
                self.tracer.import_spans(document.get("spans"))
        if self.metrics.enabled:
            # Worker snapshots already count the dead letters and trips.
            folded = any(p.folded is not None for p in self.partitions)
            merged.dead_letters.bind(dead_letter_metric(self.metrics),
                                     backfill=not folded)
            merged.guardrails.bind(guardrail_metric(self.metrics),
                                   backfill=not folded)

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

        source = self._tap_source()
        document = (source.document if source is not None else None) or {}
        tap = document.get("tap", {})
        result = LiveRunResult(
            results=results, health=merged,
            end=source.watermark if source is not None else self.start,
            interrupted=interrupted, degraded=degraded,
            observed=source.observed if source is not None else 0,
            skipped=int(tap.get("skipped", 0)),
            late_dropped=int(tap.get("late_dropped", 0)),
            restarts=sum(p.failures for p in self.partitions),
            replayed_rows=self._replayed_rows,
            records_read=int(tap.get("read", 0)),
            stopped_early=bool(tap.get("stopped_early", False)),
            sentinel_windows=list(merged.sentinel_windows),
            sentinel_seconds=float(document.get("sentinel_seconds", 0.0)),
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


def run_partitioned_live(model: TrainedModel, capture: Any,
                         tolerant: bool = False,
                         **kwargs: Any) -> LiveRunResult:
    """Convenience wrapper: build a supervisor and run one capture.

    ``capture`` is a path for a single-source model, or a mapping of
    ``{source name: path}`` for a fused model.
    """
    supervisor = LivePartitionSupervisor(model, **kwargs)
    return supervisor.run(capture, tolerant=tolerant)
