"""The passive outage detector: batch (vectorised) and streaming forms.

:class:`PassiveDetector` is the batch engine behind all experiments: it
takes trained histories plus tuned per-block parameters, groups blocks
by their tuned bin size, filters each group with one vectorised belief
pass, and emits refined per-block timelines.

:class:`StreamingDetector` is the deployment shape: it consumes a live,
time-ordered observation stream and emits up/down transitions with the
same refinement.  Every bin it closes goes through one path: blocks
that share a boundary close in one batched kernel update per parameter
cohort (:mod:`repro.core.columnar`), and a single lagging block closes
as a one-row cohort.  The scalar :class:`~repro.core.belief.BeliefState`
is the kernels' oracle; the test suite holds a block-at-a-time scalar
detector and pins this one to it bit for bit.
"""

from __future__ import annotations

import math
import time as _time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..net.addr import Family
from ..obs.explain import resolve_explain
from ..obs.metrics import resolve_registry
from ..telescope.aggregate import BinGrid, binned_counts
from ..telescope.capture import RecordChunk
from ..telescope.records import Observation
from ..timeline import OutageEvent, Timeline
from .belief import BeliefState, columnar_update, guarded_belief_pass
from .columnar import Cohort, build_cohorts, diurnal_p_empty
from .events import (
    RefinementConfig,
    gap_outages,
    refine_timeline,
    states_to_timeline,
)
from .health import (
    BlockDataError,
    DeadLetterRegistry,
    ErrorBudget,
    ErrorBudgetExceeded,
    GuardrailCounters,
    RunHealthReport,
)
from .history import BlockHistory
from .parameters import BlockParameters
from .sentinel import VantageSentinel, suppress_quarantined

__all__ = ["BlockResult", "PassiveDetector", "StreamingDetector",
           "dead_letter_metric", "guardrail_metric",
           "EXPLAIN_TRAJECTORY_BINS"]

#: Belief-trajectory window kept per block for the explain log: the
#: "deciding bins" an auditor sees leading into a transition.
EXPLAIN_TRAJECTORY_BINS = 8


def dead_letter_metric(metrics: Any) -> Any:
    """The shared ``dead_letters_total{stage}`` counter family.

    One definition site, so the pipeline, the streaming detector, and
    checkpoint restore all bind health registries to the *same* series.
    """
    return metrics.counter(
        "dead_letters_total",
        "Blocks quarantined into the dead-letter registry, by stage",
        labelnames=("stage",))


def guardrail_metric(metrics: Any) -> Any:
    """The shared ``guardrail_trips_total{guard}`` counter family."""
    return metrics.counter(
        "guardrail_trips_total",
        "Numerical guardrail trips (poison neutralised), by guard",
        labelnames=("guard",))


@dataclass
class BlockResult:
    """Detection output for one block."""

    key: int
    family: Family
    params: BlockParameters
    history: BlockHistory
    timeline: Timeline
    coarse_timeline: Timeline
    belief_trace: Optional[np.ndarray] = None
    #: feed-quarantine windows (observer unhealthy) overlapping this
    #: block's span; down-time inside them was retracted.
    quarantined: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def events(self) -> List[OutageEvent]:
        return self.timeline.events()

    @property
    def measurable(self) -> bool:
        return self.params.measurable


class PassiveDetector:
    """Vectorised batch detection over a trained population.

    Fault containment: every per-block computation runs inside a
    supervised scope.  A block whose detection-window timestamps are
    poisoned (non-finite), whose counts or parameters poison the
    vectorised belief pass, or whose refinement raises is quarantined
    into :attr:`last_dead_letters` — the rest of the population
    completes untouched, and the chaos suite pins clean blocks to
    bit-identical results against an unpoisoned run.
    """

    def __init__(self, refinement: Optional[RefinementConfig] = None,
                 keep_belief_traces: bool = False,
                 metrics: Optional[Any] = None,
                 explain: Optional[Any] = None) -> None:
        self.refinement = refinement or RefinementConfig()
        self.keep_belief_traces = keep_belief_traces
        #: metrics registry (``repro.obs.metrics``); defaults to the
        #: process-wide registry, which is a no-op until installed.
        self.metrics = resolve_registry(metrics)
        #: decision-provenance log; records one onset/recovery pair per
        #: finalized outage (batch detection has no bin-by-bin belief
        #: trajectory to narrate — the streaming detector carries that).
        self.explain = resolve_explain(explain)
        #: quarantine and guardrail accounting for the most recent
        #: :meth:`detect` call (callers may pass their own instead).
        self.last_dead_letters = DeadLetterRegistry()
        self.last_guardrails = GuardrailCounters()

    def detect(
        self,
        family: Family,
        per_block: Mapping[int, np.ndarray],
        histories: Mapping[int, BlockHistory],
        parameters: Mapping[int, BlockParameters],
        start: float,
        end: float,
        registry: Optional[DeadLetterRegistry] = None,
        guardrails: Optional[GuardrailCounters] = None,
    ) -> Dict[int, BlockResult]:
        """Detect outages for every *measurable* block.

        ``per_block`` maps block key -> sorted arrival times covering
        the detection window ``[start, end)``; blocks present in
        ``parameters`` but missing from ``per_block`` are treated as
        silent for the whole window (which, for a measurable block, is
        one long outage).

        ``registry``/``guardrails`` collect quarantined blocks and
        guardrail trips; when omitted, fresh collectors are created and
        exposed as :attr:`last_dead_letters`/:attr:`last_guardrails`.
        Quarantined blocks are absent from the returned mapping.
        """
        registry = registry if registry is not None else DeadLetterRegistry()
        guardrails = (guardrails if guardrails is not None
                      else GuardrailCounters())
        self.last_dead_letters = registry
        self.last_guardrails = guardrails

        # Group key is every property that steers the vectorised pass:
        # bin size, the pair of hysteresis thresholds, and whether the
        # block's own history is diurnal.  Grouping on anything coarser
        # (the old code grouped on bin size alone and let *any* diurnal
        # member switch the whole group to the matrix likelihood, with
        # ``keys[0]``'s thresholds) made a block's verdict depend on its
        # groupmates — which breaks both per-block correctness and the
        # sharded/sequential equivalence guarantee.
        groups: Dict[Tuple[float, float, float, bool], List[int]] = (
            defaultdict(list))
        for key, params in parameters.items():
            if not params.measurable:
                continue
            # Supervised scope 1: the block's own input data.  NaN/inf
            # timestamps would silently corrupt the count grid (bin_of
            # clips garbage indices into range), so they must be caught
            # here, not discovered as wrong verdicts later.
            times = per_block.get(key)
            if times is not None:
                times = np.asarray(times)
                if times.dtype.kind == "f" and not np.isfinite(times).all():
                    bad = int((~np.isfinite(np.asarray(times))).sum())
                    guardrails.trip("nonfinite_timestamp", bad)
                    registry.record(
                        "detect", key,
                        BlockDataError(
                            f"{bad} of {times.size} detection timestamps "
                            f"are non-finite"),
                        times)
                    continue
            if key not in histories:
                registry.record(
                    "detect", key,
                    BlockDataError("no trained history for this block"))
                continue
            groups[(params.bin_seconds, params.down_threshold,
                    params.up_threshold,
                    histories[key].diurnal_profile is not None)].append(key)

        results: Dict[int, BlockResult] = {}
        for (bin_seconds, _, _, has_diurnal), keys in sorted(groups.items()):
            keys.sort()
            grid = BinGrid(start, end, bin_seconds)
            if has_diurnal:
                # Diurnal-aware likelihood: per-(block, bin) empty-bin
                # probability so nightly lulls stop counting as
                # evidence.  Supervised scope 2: a poisoned diurnal
                # profile (wrong shape, NaN rates) fails only its own
                # block.
                edges = grid.edges()
                rows: Dict[int, np.ndarray] = {}
                for key in list(keys):
                    try:
                        rates = histories[key].likelihood_rates(edges)
                        rows[key] = np.minimum(
                            np.exp(-rates * bin_seconds), 1.0 - 1e-9)
                    except Exception as error:
                        registry.record("detect", key, error,
                                        histories[key].diurnal_profile)
                        keys.remove(key)
                if not keys:
                    continue
                p_empty_input = np.vstack([rows[key] for key in keys])
            else:
                p_empty_input = np.array(
                    [parameters[k].p_empty_up for k in keys])
            counts = binned_counts(keys, per_block, grid)
            _, noise, prior_down, prior_up = self._parameter_vectors(
                keys, parameters)
            # Supervised scope 3: the vectorised pass masks rows whose
            # counts or parameters are poisoned instead of letting NaN
            # spread through the recurrence; masked rows are
            # quarantined, not reported.
            states, beliefs, poisoned = guarded_belief_pass(
                counts, p_empty_input, noise, prior_down, prior_up,
                down_threshold=parameters[keys[0]].down_threshold,
                up_threshold=parameters[keys[0]].up_threshold,
                return_beliefs=self.keep_belief_traces,
                guardrails=guardrails, metrics=self.metrics)
            self.metrics.counter(
                "belief_updates_total",
                "Belief-filter updates applied, by address family",
                labelnames=("family",)).labels(
                    family=family.name.lower()).inc(counts.size)
            for row, key in enumerate(keys):
                if poisoned[row]:
                    registry.record(
                        "belief", key,
                        BlockDataError(
                            "non-finite counts or parameters poisoned "
                            "the belief pass; row masked"),
                        counts[row])
                    continue
                # Supervised scope 4: per-block refinement and the gap
                # detector.
                try:
                    results[key] = self._build_result(
                        family, key, per_block, histories[key],
                        parameters[key], states[row],
                        beliefs[row] if beliefs is not None else None,
                        grid, start, end)
                except Exception as error:
                    registry.record("refine", key, error,
                                    per_block.get(key))
        return results

    def _build_result(self, family: Family, key: int,
                      per_block: Mapping[int, np.ndarray],
                      history: BlockHistory, params: BlockParameters,
                      states: np.ndarray, belief_trace: Optional[np.ndarray],
                      grid: BinGrid, start: float, end: float) -> BlockResult:
        """Refine one block's bin-level states into its final result."""
        bin_seconds = grid.bin_seconds
        times = per_block.get(key, np.empty(0))
        coarse = states_to_timeline(states, grid)
        refined = refine_timeline(
            coarse, times, history.mean_rate, bin_seconds,
            self.refinement)
        mean_gap = (1.0 / history.mean_rate
                    if history.mean_rate > 0 else bin_seconds)
        gaps = gap_outages(
            times, params.gap_threshold_seconds, start, end,
            guard=self.refinement.guard_gaps * mean_gap)
        if gaps:
            refined = Timeline(start, end,
                               refined.down_intervals + gaps)
        if self.explain.enabled:
            for event in refined.events():
                self.explain.record({
                    "event": "onset", "block": key, "time": event.start,
                    "duration": event.duration})
                self.explain.record({
                    "event": "recovery", "block": key, "time": event.end})
        return BlockResult(
            key=key,
            family=family,
            params=params,
            history=history,
            timeline=refined,
            coarse_timeline=coarse,
            belief_trace=belief_trace,
        )

    @staticmethod
    def _parameter_vectors(keys: List[int],
                           parameters: Mapping[int, BlockParameters]
                           ) -> Tuple[np.ndarray, np.ndarray,
                                      np.ndarray, np.ndarray]:
        p_empty = np.array([parameters[k].p_empty_up for k in keys])
        noise = np.array([parameters[k].noise_nonempty for k in keys])
        prior_down = np.array([parameters[k].prior_down for k in keys])
        prior_up = np.array([parameters[k].prior_up_recovery for k in keys])
        return p_empty, noise, prior_down, prior_up


@dataclass
class _StreamBlockState:
    """Streaming bookkeeping for one block."""

    params: BlockParameters
    history: BlockHistory
    belief: BeliefState
    next_bin_end: float
    bin_count: int = 0
    last_packet: Optional[float] = None
    first_packet_this_bin: Optional[float] = None
    transitions: List[Tuple[float, bool]] = field(default_factory=list)


class StreamingDetector:
    """Online detector over a time-ordered observation stream.

    Typical use::

        detector = StreamingDetector(family, histories, parameters, start)
        for observation in stream:
            detector.observe(observation)
        results = detector.finalize(end)

    ``observe`` must be called in non-decreasing time order (a merged
    capture stream already is; a noisy feed becomes one through
    :class:`repro.telescope.reorder.ReorderBuffer`).  Between packets,
    :meth:`advance` may be called with the wall clock so silent blocks
    are judged promptly; the batch-equivalence guarantee holds either
    way because ``finalize`` flushes every pending bin.

    An optional :class:`~repro.core.sentinel.VantageSentinel` guards
    against observer-side failures: it sees every observation (any
    family, any block — feed health is a property of the tap, not the
    population), and ``finalize`` retracts per-block down-time that
    falls inside its quarantine windows.

    Fault containment mirrors the batch detector: an exception while
    processing one block's observation or closing one block's bin
    quarantines that block into :attr:`dead_letters` and the stream
    continues; ``finalize`` enforces the error budget
    (``max_quarantine_frac``) and publishes a
    :class:`~repro.core.health.RunHealthReport` as :attr:`last_health`.
    """

    def __init__(
        self,
        family: Family,
        histories: Mapping[int, BlockHistory],
        parameters: Mapping[int, BlockParameters],
        start: float,
        refinement: Optional[RefinementConfig] = None,
        sentinel: Optional[VantageSentinel] = None,
        max_quarantine_frac: float = 0.5,
        metrics: Optional[Any] = None,
        explain: Optional[Any] = None,
    ) -> None:
        self.family = family
        self.start = float(start)
        #: parameter cohorts every bin closes through (built lazily,
        #: dropped when membership or a block model changes), and each
        #: member's ``(cohort, row)`` for a one-row packet catch-up.
        self._cohorts: Optional[List[Cohort]] = None
        self._cohort_rows: Dict[int, Tuple[Cohort, int]] = {}
        self.refinement = refinement or RefinementConfig()
        self.sentinel = sentinel
        self.histories = dict(histories)
        self.dead_letters = DeadLetterRegistry()
        self.guardrails = GuardrailCounters()
        self.budget = ErrorBudget(max_quarantine_frac)
        self.last_health: Optional[RunHealthReport] = None
        self._states: Dict[int, _StreamBlockState] = {}
        self._last_time = float(start)
        #: total per-block bins closed — the streaming fault hooks and
        #: the live supervisor key their "after K windows" triggers off
        #: this, so it must advance deterministically with the stream.
        self.windows_closed = 0
        #: drift hot-swap queue and application log: ``hot_swap`` parks
        #: the replacement (history, parameters) here; it is applied at
        #: the owning block's next bin close (never mid-bin, so the bin
        #: being accumulated is judged by the model that opened it).
        self._pending_swaps: Dict[int, Tuple[BlockHistory,
                                             BlockParameters]] = {}
        self._retuned: Dict[int, Tuple[BlockHistory, BlockParameters]] = {}
        #: extra payload carried by the checkpoint this detector was
        #: restored from (None for a fresh detector) — the live worker
        #: parks its replay cursor and buffer state there.
        self.restored_extra: Optional[Dict[str, Any]] = None
        for key, params in parameters.items():
            if not params.measurable:
                continue
            self._states[key] = _StreamBlockState(
                params=params,
                history=self.histories[key],
                belief=BeliefState(params),
                next_bin_end=self.start + params.bin_seconds,
            )
        self._initial_blocks = len(self._states)
        #: metrics registry; the no-op default costs one attribute read
        #: per hot-path increment.
        self.metrics = resolve_registry(metrics)
        #: decision-provenance log (``repro.obs.explain``); the no-op
        #: default costs one ``enabled`` attribute read per bin close.
        self.explain = resolve_explain(explain)
        #: per-block belief trajectory over the deciding bins, kept only
        #: while provenance is on.
        self._trajectories: Dict[int, deque] = {}
        #: block insertion order, and the events one ``advance`` holds
        #: back to record in it (None outside ``advance``).
        self._order = {key: index for index, key in enumerate(self._states)}
        self._held: Optional[List[Tuple[int, Dict[str, Any]]]] = None
        self._register_metrics()

    def _register_metrics(self, backfill: bool = True) -> None:
        """(Re)create metric handles and bind health registries.

        Called from ``__init__`` and again by checkpoint restore after
        swapping in restored health registries, so the handles always
        point at the live registry's series.  ``backfill=False`` skips
        seeding the dead-letter/guardrail counters from the registries'
        current contents — checkpoint restore uses it because the
        restored metrics snapshot already counts those entries.
        """
        m = self.metrics
        self._m_observations = m.counter(
            "stream_observations_total",
            "Observations fed to the streaming detector")
        self._m_bins = m.counter(
            "stream_bins_total",
            "Per-block bins closed by the streaming detector")
        transitions = m.counter(
            "stream_transitions_total",
            "Block state transitions emitted, by direction",
            labelnames=("direction",))
        self._m_down = transitions.labels(direction="down")
        self._m_up = transitions.labels(direction="up")
        self._m_lag = m.gauge(
            "stream_watermark_lag_seconds",
            "Stream clock minus the bin boundary most recently closed")
        self._m_clock = m.gauge(
            "stream_clock_seconds",
            "High-water mark of the stream clock (epoch seconds)")
        self._m_blocks = m.gauge(
            "stream_active_blocks",
            "Blocks still tracked (not dead-lettered)")
        self._m_stream_bins = m.counter(
            "belief_bins_total",
            "Bins filtered by the vectorised belief pass",
            labelnames=("path",)).labels(path="stream")
        self._m_stream_pass = m.histogram(
            "belief_pass_seconds",
            "Wall-time of one vectorised belief pass",
            labelnames=("path",)).labels(path="stream")
        self._m_explain = m.counter(
            "explain_events_total",
            "Decision-provenance events recorded, by kind",
            labelnames=("kind",))
        self._m_blocks.set(len(self._states))
        self.dead_letters.bind(dead_letter_metric(m), backfill=backfill)
        self.guardrails.bind(guardrail_metric(m), backfill=backfill)
        if self.sentinel is not None:
            self.sentinel.bind_metrics(m)

    @property
    def last_time(self) -> float:
        """High-water mark of the stream clock (observe/advance)."""
        return self._last_time

    def observe(self, observation: Observation) -> None:
        """Feed one observation (must be time-ordered).

        A non-finite timestamp is a *stream*-level fault (it would
        corrupt the shared clock), so it raises; an exception while
        processing the observation's own block is a *block*-level fault
        and quarantines only that block.
        """
        if not np.isfinite(observation.time):
            raise ValueError(
                f"non-finite observation timestamp {observation.time!r}: "
                f"reject poisoned records at the ingest boundary "
                f"(merge_streams/ReorderBuffer) before they reach the "
                f"detector clock")
        if observation.time < self._last_time - 1e-9:
            raise ValueError(
                f"stream went backwards: {observation.time} after "
                f"{self._last_time}")
        self._last_time = max(self._last_time, observation.time)
        self._m_observations.inc()
        if self.sentinel is not None:
            self.sentinel.observe(observation.time)
        if observation.family is not self.family:
            return
        key = observation.block_key
        state = self._states.get(key)
        if state is None:
            return
        try:
            self._observe_block(key, state, observation)
        except Exception as error:
            self._quarantine(key, "stream", error)

    def _observe_block(self, key: int, state: _StreamBlockState,
                       observation: Observation) -> None:
        """One block's share of :meth:`observe` (supervised scope)."""
        self._advance_block(key, state, observation.time)
        # Gap detector: a silence longer than the trained threshold is an
        # outage bounded by exact packet times, regardless of bin state.
        if (state.last_packet is not None
                and observation.time - state.last_packet
                > state.params.gap_threshold_seconds):
            self._gap_outage(state, state.last_packet, observation.time)
        if state.first_packet_this_bin is None:
            state.first_packet_this_bin = observation.time
        state.bin_count += 1
        state.last_packet = observation.time

    def _gap_outage(self, state: _StreamBlockState, last_packet: float,
                    time: float) -> None:
        """Record the outage a silence from ``last_packet`` to ``time``
        (longer than the gap threshold) proves, guarded inwards."""
        threshold = state.params.gap_threshold_seconds
        mean_gap = (1.0 / state.history.mean_rate
                    if state.history.mean_rate > 0
                    else state.params.bin_seconds)
        guard = min(self.refinement.guard_gaps * mean_gap, threshold / 2.0)
        state.transitions.append((last_packet + guard, False))
        state.transitions.append((time - guard, True))

    def observe_batch(self, chunk: RecordChunk) -> np.ndarray:
        """Feed time-ordered rows, as :meth:`observe` row by row would.

        The rows must be finite, non-decreasing and not behind
        :attr:`last_time` (what a reorder buffer releases), and must
        cross no boundary the caller drives :meth:`advance` at — the
        live engine cuts its batches there.  Per block the rows join
        the open bin (``bin_count``, ``first_packet_this_bin``,
        ``last_packet``) and the gap detector runs on consecutive
        packet times; the sentinel takes one ``observe_bulk`` per
        sentinel bin.  A row at or past its block's ``next_bin_end``
        would close bins by packet catch-up: that row goes through
        :meth:`observe` itself, in stream order.  Returns which rows
        belong to a block still tracked after the row (the drift
        auditor notes exactly those).
        """
        tracked = np.zeros(len(chunk), dtype=bool)
        start = 0
        while start < len(chunk):
            start = self._observe_run(chunk, start, tracked)
            if start < len(chunk):
                row = chunk.observation(start)
                self.observe(row)
                tracked[start] = row.block_key in self._states
                start += 1
        return tracked

    def _observe_run(self, chunk: RecordChunk, start: int,
                     tracked: np.ndarray) -> int:
        """Observe rows from ``start`` up to the first that closes a bin
        by catch-up; returns that row's index (``len(chunk)`` if none)."""
        times = chunk.times[start:]
        mine = np.flatnonzero((chunk.families[start:] == int(self.family))
                              & chunk.keyable[start:])
        stop = len(times)
        if mine.size:
            keys, inverse = np.unique(chunk.keys[start:][mine],
                                      return_inverse=True)
            states = [self._states.get(key) for key in keys.tolist()]
            next_end = np.array([math.inf if state is None
                                 else state.next_bin_end
                                 for state in states])
            due = np.flatnonzero(times[mine] >= next_end[inverse])
            if due.size:
                stop = int(mine[due[0]])
                mine, inverse = mine[:due[0]], inverse[:due[0]]
        if stop == 0:
            return start
        times = times[:stop]
        self._last_time = max(self._last_time, float(times[-1]))
        self._m_observations.inc(stop)
        sentinel = self.sentinel
        if sentinel is not None:
            row = 0
            while row < stop:
                time = float(times[row])
                sentinel.advance(time)
                end = row + int(np.searchsorted(times[row:], sentinel.bin_end))
                sentinel.observe_bulk(time, end - row)
                row = end
        if mine.size:
            live = np.array([state is not None for state in states])
            tracked[start + mine[live[inverse]]] = True
            self._observe_blocks(times[mine], inverse, states)
        return start + stop

    def _observe_blocks(self, times: np.ndarray, inverse: np.ndarray,
                        states: List[Optional[_StreamBlockState]]) -> None:
        """Add each block's rows (``times`` grouped by ``inverse`` into
        ``states``; None = untracked) to its open bin."""
        order = np.argsort(inverse, kind="stable")
        grouped = times[order]
        counts = np.bincount(inverse, minlength=len(states))
        present = np.flatnonzero(counts)
        states = [states[index] for index in present.tolist()]
        counts = counts[present]
        ends = np.cumsum(counts)
        begins = ends - counts
        previous = np.concatenate(([math.nan], grouped[:-1]))
        previous[begins] = [math.nan if state is None
                            or state.last_packet is None
                            else state.last_packet for state in states]
        thresholds = np.array([math.inf if state is None
                               else state.params.gap_threshold_seconds
                               for state in states])
        gaps = np.flatnonzero(grouped - previous
                              > np.repeat(thresholds, counts))
        for row in gaps.tolist():
            state = states[int(np.searchsorted(ends, row, side="right"))]
            self._gap_outage(state, float(previous[row]), float(grouped[row]))
        for state, count, first, last in zip(
                states, counts.tolist(), grouped[begins].tolist(),
                grouped[ends - 1].tolist()):
            if state is None:
                continue
            if state.first_packet_this_bin is None:
                state.first_packet_this_bin = first
            state.bin_count += count
            state.last_packet = last

    def advance(self, now: float) -> None:
        """Flush every block's complete bins up to wall-clock ``now``.

        All blocks sharing a bin boundary close in one batched array
        update per parameter cohort.  With provenance on, the events of
        one call are recorded in block insertion order, each block's
        own events in boundary order.
        """
        self._last_time = max(self._last_time, now)
        if self.sentinel is not None:
            self.sentinel.advance(now)
        if self._cohorts is None:
            self._build_cohorts()
        self._held = [] if self.explain.enabled else None
        try:
            for cohort in self._cohorts:
                self._advance_cohort(cohort, now)
        finally:
            held, self._held = self._held, None
            for _, event in sorted(held or (), key=lambda item: item[0]):
                self._record_event(event)

    # -- columnar bin close --------------------------------------------------

    def _invalidate_cohorts(self) -> None:
        """Drop the cohort cache (membership or block models changed).

        Cheap and safe to call often: cohorts rebuild lazily at the
        next close.  Per-close state (belief, counts, ``next_bin_end``)
        is gathered fresh at every boundary; only parameter/history
        swaps, quarantines, and checkpoint restores invalidate the
        static columns.
        """
        self._cohorts = None

    def _cohort_signature(self, key: int,
                          state: _StreamBlockState) -> Any:
        """Grouping key for the columnar store."""
        return (state.params.bin_seconds,)

    def _cohort_extras(self, cohort: Cohort) -> None:
        """Populate subclass payload on a freshly built cohort."""

    def _build_cohorts(self) -> None:
        self._cohorts = build_cohorts([
            (self._cohort_signature(key, state), key, state)
            for key, state in self._states.items()])
        self._cohort_rows = {key: (cohort, row)
                             for cohort in self._cohorts
                             for row, key in enumerate(cohort.keys)}
        for cohort in self._cohorts:
            self._cohort_extras(cohort)

    def _advance_cohort(self, cohort: Cohort, now: float,
                        rows: Optional[np.ndarray] = None) -> None:
        """Close the pending bins of ``rows`` (default: every member)
        up to ``now``, batching the members that share each boundary."""
        states = cohort.states
        members = (states if rows is None
                   else [states[row] for row in rows.tolist()])
        next_ends = np.array([state.next_bin_end for state in members])
        while True:
            pending = next_ends <= now
            if not pending.any():
                break
            boundary = float(next_ends[pending].min())
            due = np.flatnonzero(next_ends == boundary)
            closing = due if rows is None else rows[due]
            self._close_cohort(cohort, closing, boundary, now)
            indices = due.tolist()
            for index, row in zip(indices, indices if rows is None
                                  else closing.tolist()):
                if cohort.keys[row] not in self._states:
                    next_ends[index] = np.inf
                else:
                    next_ends[index] = states[row].next_bin_end

    def _cohort_posterior(self, cohort: Cohort, rows: np.ndarray,
                          keys: List[int],
                          members: List[_StreamBlockState],
                          bin_start: float, boundary: float,
                          belief: np.ndarray, was_up: np.ndarray,
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                     Dict[int, BlockDataError],
                                     Optional[List[Dict[str, Any]]]]:
        """Batched belief math for one boundary (the single-source
        :meth:`~repro.core.belief.BeliefState.update`).  Returns
        ``(belief, is_up, guardrail_trips, rejected, evidence)``:
        ``rejected`` maps the position of each member the screen fails
        (non-finite ``p_empty``, then non-finite parameters) to its
        error, and ``evidence`` holds each member's consumed inputs
        while provenance is on (else None)."""
        counts = np.fromiter((state.bin_count for state in members),
                             np.int64, len(members))
        p_empty = diurnal_p_empty(cohort, rows, bin_start)
        rejected: Dict[int, BlockDataError] = {}
        finite = np.isfinite(p_empty)
        if not finite.all():
            for position in np.flatnonzero(~finite).tolist():
                rejected[position] = BlockDataError(
                    f"non-finite p_empty_up {float(p_empty[position])!r}: "
                    f"block model is poisoned (bad history or parameters)")
        self._reject_parameters(cohort, rows, rejected)
        new_belief, new_up, trips = columnar_update(
            belief, was_up, counts, p_empty,
            cohort.noise_nonempty[rows], cohort.prior_down[rows],
            cohort.prior_up_recovery[rows], cohort.down_threshold[rows],
            cohort.up_threshold[rows])
        evidence = None
        if self.explain.enabled:
            evidence = [{"count": count, "p_empty": p}
                        for count, p in zip(counts.tolist(),
                                            p_empty.tolist())]
        return new_belief, new_up, trips, rejected, evidence

    @staticmethod
    def _reject_parameters(cohort: Cohort, rows: np.ndarray,
                           rejected: Dict[int, BlockDataError]) -> None:
        """Reject members with a non-finite ``noise_nonempty``,
        ``prior_down`` or ``prior_up_recovery`` not rejected yet."""
        poisoned = cohort.poisoned_rows
        if poisoned:
            for position, row in enumerate(rows.tolist()):
                if row in poisoned:
                    rejected.setdefault(position, BlockDataError(
                        "non-finite likelihood/prior parameters: block "
                        "model is poisoned (bad history or parameters)"))

    def _close_cohort(self, cohort: Cohort, rows: np.ndarray,
                      boundary: float, now: float) -> None:
        """Close one shared boundary for ``rows`` of ``cohort`` with one
        batched belief update.

        Members the posterior rejects (non-finite likelihood inputs or
        parameters) are dead-lettered with their
        :class:`~repro.core.health.BlockDataError`; the rest close
        without them.
        """
        clock = _time.perf_counter() if self.metrics.enabled else None
        bin_seconds = cohort.bin_seconds
        bin_start = boundary - bin_seconds
        keys = [cohort.keys[row] for row in rows.tolist()]
        members = [cohort.states[row] for row in rows.tolist()]
        belief = np.fromiter(
            (state.belief.belief for state in members), float,
            len(members))
        was_up = np.array([state.belief.is_up for state in members])
        new_belief, new_up, trips, rejected, evidence = (
            self._cohort_posterior(cohort, rows, keys, members, bin_start,
                                   boundary, belief, was_up))
        if rejected:
            for position, error in sorted(rejected.items()):
                self._quarantine(keys[position], "stream", error)
            if len(rejected) == len(members):
                return
        closed = 0
        trip_total = 0
        flips_down = 0
        flips_up = 0
        swapped: List[Tuple[int, _StreamBlockState]] = []
        for position, (key, state, value, up, trip, previous) in enumerate(
                zip(keys, members, new_belief.tolist(), new_up.tolist(),
                    trips.tolist(), was_up.tolist())):
            if position in rejected:
                continue
            closed += 1
            block_belief = state.belief
            block_belief.belief = value
            block_belief.is_up = up
            if trip:
                block_belief.guardrail_trips += trip
                trip_total += trip
            if evidence is not None:
                self._explain_close(key, bin_start, boundary, value,
                                    previous, up, evidence[position])
            if previous != up:
                mean_gap = (1.0 / state.history.mean_rate
                            if state.history.mean_rate > 0
                            else bin_seconds)
                guard = min(self.refinement.guard_gaps * mean_gap,
                            bin_seconds)
                if up:
                    flips_up += 1
                    # Refined recovery: the first packet of the reviving
                    # bin, pulled back one forward-recurrence time (see
                    # events.refine_timeline) so durations stay unbiased.
                    first = state.first_packet_this_bin
                    state.transitions.append(
                        (bin_start if first is None else first - guard,
                         True))
                else:
                    flips_down += 1
                    # Refined outage start: just after the last packet.
                    backfill = self.refinement.max_backfill_bins * bin_seconds
                    refined = (bin_start if state.last_packet is None
                               else max(state.last_packet + guard,
                                        bin_start - backfill))
                    state.transitions.append((min(refined, boundary),
                                              False))
            state.bin_count = 0
            state.first_packet_this_bin = None
            swap = self._pending_swaps.pop(key, None)
            if swap is not None:
                # The boundary just closed is where the retuned model
                # takes over; the new bin grid restarts from it.
                self._apply_swap(key, state, swap[0], swap[1], boundary)
                swapped.append((key, state))
            else:
                state.next_bin_end = boundary + bin_seconds
        self.windows_closed += closed
        if trip_total:
            self.guardrails.trip("neutralised_bin", trip_total)
        self._m_bins.inc(closed)
        if flips_down:
            self._m_down.inc(flips_down)
        if flips_up:
            self._m_up.inc(flips_up)
        self._m_lag.set(self._last_time - boundary)
        self._m_clock.set(self._last_time)
        for key, state in swapped:
            # A swap may re-grid the member: catch it up on its new
            # cohort row for the rest of this close.
            try:
                self._advance_block(key, state, now)
            except Exception as error:
                self._quarantine(key, "stream", error)
        if clock is not None:
            self._m_stream_bins.inc(closed)
            self._m_stream_pass.observe(_time.perf_counter() - clock)

    def _quarantine(self, key: int, stage: str,
                    error: BaseException) -> None:
        """Dead-letter one block and stop processing it."""
        self._states.pop(key, None)
        self._pending_swaps.pop(key, None)
        self._invalidate_cohorts()
        self.dead_letters.record(stage, key, error)
        self._m_blocks.set(len(self._states))
        if self.explain.enabled:
            self._trajectories.pop(key, None)
            self._record_event({
                "event": "retraction", "block": key,
                "time": self._last_time,
                "reason": f"dead-lettered at stage {stage}: "
                          f"{type(error).__name__}: {error}",
            })

    def _record_event(self, event: Dict[str, Any]) -> None:
        if self._held is not None:
            self._held.append((self._order[event["block"]], event))
            return
        self.explain.record(event)
        self._m_explain.labels(kind=event["event"]).inc()

    def hot_swap(self, key: int, history: BlockHistory,
                 params: BlockParameters) -> bool:
        """Queue a retuned (history, parameters) pair for one block.

        The swap is applied at the block's *next bin close*, never
        mid-bin: the bin currently accumulating was opened under the old
        model and is judged by it, then the belief value and up/down
        decision carry over into the new model unchanged (drift retuning
        corrects the *rate* model, not the block's current verdict).
        Returns False — and queues nothing — for a block this detector
        is not tracking (quarantined, unmeasurable, or foreign), and
        for replacement parameters that are themselves unmeasurable
        (swapping those in would silently stop judging the block).

        Queue order is the caller's responsibility: the live path calls
        this from a deterministic point in per-block stream order, which
        is what keeps partitioned and single-process runs bit-identical.
        """
        if key not in self._states or not params.measurable:
            return False
        self._pending_swaps[key] = (history, params)
        return True

    @property
    def retuned(self) -> Dict[int, Tuple[BlockHistory, BlockParameters]]:
        """Applied hot swaps, by block key (checkpointed and restored)."""
        return dict(self._retuned)

    @property
    def pending_swaps(self) -> Dict[int, Tuple[BlockHistory,
                                               BlockParameters]]:
        """Queued-but-unapplied hot swaps, by block key."""
        return dict(self._pending_swaps)

    def _apply_swap(self, key: int, state: _StreamBlockState,
                    history: BlockHistory, params: BlockParameters,
                    boundary: float) -> None:
        """Install a retuned model for one block at a bin boundary.

        The belief value, up/down decision, and guardrail count carry
        over; the next bin opens at ``boundary`` with the *new* bin
        width, so a bin-size change re-grids the block from the swap
        point forward without tearing the closed-bin history.
        """
        belief = BeliefState(params)
        belief.belief = state.belief.belief
        belief.is_up = state.belief.is_up
        belief.guardrail_trips = state.belief.guardrail_trips
        state.params = params
        state.history = history
        state.belief = belief
        state.next_bin_end = boundary + params.bin_seconds
        self.histories[key] = history
        self._retuned[key] = (history, params)
        self._invalidate_cohorts()
        self.metrics.counter(
            "drift_hot_swaps_total",
            "Retuned block models hot-swapped in at a bin boundary").inc()

    def finalize(self, end: float,
                 quarantined: Optional[List[Tuple[float, float]]] = None,
                 ) -> Dict[int, BlockResult]:
        """Close the window at ``end`` and return per-block results.

        With a sentinel attached, down-time inside feed-quarantine
        windows is retracted (the observer, not the block, was judged
        unhealthy) and the overlapping windows are recorded on each
        :class:`BlockResult`.  ``quarantined`` overrides the sentinel's
        own windows (the fused detector passes the windows in which
        every vantage was dark).

        Enforces the error budget: when more than ``max_quarantine_frac``
        of the blocks this detector started with have been dead-lettered,
        raises :class:`~repro.core.health.ErrorBudgetExceeded` instead of
        reporting a hollowed-out run as success.  The run's
        :class:`~repro.core.health.RunHealthReport` is published as
        :attr:`last_health` either way.
        """
        self.advance(end)
        if quarantined is None:
            quarantined = (self.sentinel.quarantined_intervals()
                           if self.sentinel is not None else [])
        results: Dict[int, BlockResult] = {}
        for key, state in list(self._states.items()):
            try:
                coarse = Timeline.from_transitions(
                    self.start, end, state.transitions, initial_up=True)
                # Streaming refinement already placed transition
                # timestamps on packet evidence, so the coarse timeline
                # is the result.
                timeline = coarse
                overlapping = [
                    (max(s, self.start), min(e, end))
                    for s, e in quarantined if s < end and e > self.start]
                if overlapping:
                    timeline = suppress_quarantined(coarse, overlapping)
                if self.explain.enabled:
                    self._explain_finalized(key, coarse, timeline,
                                            overlapping)
                results[key] = BlockResult(
                    key=key,
                    family=self.family,
                    params=state.params,
                    history=state.history,
                    timeline=timeline,
                    coarse_timeline=coarse,
                    quarantined=overlapping,
                )
            except Exception as error:
                self._quarantine(key, "finalize", error)
        self.last_health = self._build_health(end, quarantined)
        try:
            self.budget.check("stream", self._initial_blocks,
                              len(self.dead_letters))
        except ErrorBudgetExceeded as error:
            error.report = self.last_health
            raise
        return results

    def _explain_finalized(self, key: int, coarse: Timeline,
                           timeline: Timeline,
                           overlapping: List[Tuple[float, float]]) -> None:
        """Record the finalized boundaries (and retractions) for a block."""
        final = timeline.events()
        for event in final:
            self._record_event({
                "event": "onset", "block": key, "time": event.start,
                "duration": event.duration})
            self._record_event({
                "event": "recovery", "block": key, "time": event.end})
        for event in coarse.events():
            survived = any(event.start < kept.end and kept.start < event.end
                           for kept in final)
            if not survived:
                self._record_event({
                    "event": "retraction", "block": key,
                    "time": event.start,
                    "reason": "down-time overlapped "
                              f"{len(overlapping)} sentinel quarantine "
                              "window(s); the observer, not the block, "
                              "was judged unhealthy",
                })

    def health_report(self, end: Optional[float] = None) -> RunHealthReport:
        """The most recent run health report (building one if needed)."""
        if self.last_health is None:
            windows = (self.sentinel.quarantined_intervals()
                       if self.sentinel is not None else [])
            self.last_health = self._build_health(
                end if end is not None else self._last_time, windows)
        return self.last_health

    def _build_health(self, end: float,
                      sentinel_windows: List[Tuple[float, float]]
                      ) -> RunHealthReport:
        # Guardrail trips were already folded into ``self.guardrails``
        # at each bin close, so the report is a plain copy — by
        # construction equal to the ``guardrail_trips_total`` metric.
        guardrails = GuardrailCounters()
        guardrails.merge(self.guardrails)
        report = RunHealthReport(
            run="streaming",
            dead_letters=DeadLetterRegistry(self.dead_letters.entries),
            guardrails=guardrails,
            sentinel_windows=[(float(s), float(e))
                              for s, e in sentinel_windows],
            max_quarantine_frac=self.budget.max_quarantine_frac,
        )
        stage = report.stage("stream")
        stage.seconds = max(0.0, end - self.start)
        stage.attempted = self._initial_blocks
        stage.quarantined = len(self.dead_letters)
        stage.succeeded = stage.attempted - stage.quarantined
        report.budget_tripped = (
            self.budget.max_quarantine_frac < 1.0
            and stage.attempted > 0
            and stage.quarantined / stage.attempted
            > self.budget.max_quarantine_frac)
        return report

    # -- internals ----------------------------------------------------------

    def _advance_block(self, key: int, state: _StreamBlockState,
                       now: float) -> None:
        """Close one block's bins that end at or before ``now`` (packet
        catch-up) as a one-row cohort."""
        if state.next_bin_end <= now:
            if self._cohorts is None:
                self._build_cohorts()
            cohort, row = self._cohort_rows[key]
            self._advance_cohort(cohort, now, np.array([row]))

    def _explain_close(self, key: int, bin_start: float, boundary: float,
                       belief: float, was_up: bool, is_up: bool,
                       evidence: Dict[str, Any]) -> None:
        """Track one block's belief trajectory; record a threshold
        crossing with the evidence the close consumed.

        ``evidence`` holds the very floats the kernels consumed for this
        block, which is what makes the event bit-for-bit auditable.
        """
        trajectory = self._trajectories.get(key)
        if trajectory is None:
            trajectory = deque(maxlen=EXPLAIN_TRAJECTORY_BINS)
            self._trajectories[key] = trajectory
        trajectory.append((bin_start, belief))
        if was_up == is_up:
            return
        event: Dict[str, Any] = {
            "event": "transition",
            "block": key,
            "time": boundary,
            "bin_start": bin_start,
            "is_up": is_up,
            "belief": belief,
            "trajectory": list(trajectory),
        }
        event.update(evidence)
        self._record_event(event)
