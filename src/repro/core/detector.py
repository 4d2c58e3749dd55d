"""The passive outage detector: batch (vectorised) and streaming forms.

:class:`PassiveDetector` is the batch engine behind all experiments: it
takes trained histories plus tuned per-block parameters, groups blocks
by their tuned bin size, filters each group with one vectorised belief
pass, and emits refined per-block timelines.

:class:`StreamingDetector` is the deployment shape: it consumes a live,
time-ordered observation stream and emits up/down transitions with the
same refinement, using the scalar :class:`~repro.core.belief.BeliefState`
per block.  Both paths share parameters and likelihoods, and the test
suite pins them to identical decisions on identical input.
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
from .columnar import (
    Cohort,
    build_cohorts,
    diurnal_p_empty,
    history_is_clean,
)
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
        columnar: Optional[bool] = None,
    ) -> None:
        self.family = family
        self.start = float(start)
        #: when True (the default), ``advance`` closes all bins sharing
        #: a boundary with one batched array update per parameter
        #: cohort; the scalar per-block loop remains the oracle (and is
        #: used automatically while decision provenance is on, which
        #: needs per-update evidence staging).
        self.columnar = True if columnar is None else bool(columnar)
        self._cohorts: Optional[List[Cohort]] = None
        self._cohort_stragglers: List[int] = []
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
        #: while provenance is on; the most recent evidence dict is
        #: staged by ``_update_belief`` for the transition event.
        self._trajectories: Dict[int, deque] = {}
        self._last_evidence: Optional[Dict[str, Any]] = None
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
        self._m_belief = m.histogram(
            "belief_update_seconds",
            "Wall-time of one scalar belief update at bin close")
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

        With :attr:`columnar` on (the default) and provenance off, all
        blocks sharing a bin boundary close in one batched array
        update per parameter cohort; otherwise each block takes the
        scalar per-bin path.  Both paths close exactly the same bins
        at the same boundaries and leave bit-identical per-block
        state — the property suite pins scalar as the oracle.
        """
        self._last_time = max(self._last_time, now)
        if self.sentinel is not None:
            self.sentinel.advance(now)
        if not self.columnar or self.explain.enabled:
            for key, state in list(self._states.items()):
                try:
                    self._advance_block(key, state, now)
                except Exception as error:
                    self._quarantine(key, "stream", error)
            return
        if self._cohorts is None:
            self._build_cohorts()
        cohorts = self._cohorts
        # Suspect members (a history the scalar math could raise on)
        # keep the scalar path, in insertion order, so quarantine
        # order and dead-letter messages match the scalar engine.
        for key in self._cohort_stragglers:
            state = self._states.get(key)
            if state is None:
                continue
            try:
                self._advance_block(key, state, now)
            except Exception as error:
                self._quarantine(key, "stream", error)
        for cohort in cohorts:
            self._advance_cohort(cohort, now)

    # -- columnar bin close --------------------------------------------------

    def _invalidate_cohorts(self) -> None:
        """Drop the cohort cache (membership or block models changed).

        Cheap and safe to call often: cohorts rebuild lazily at the
        next columnar ``advance``.  Packet-driven scalar closes do
        *not* need this — per-close state is gathered fresh at every
        boundary; only parameter/history swaps, quarantines, and
        checkpoint restores invalidate the static columns.
        """
        self._cohorts = None
        self._cohort_stragglers = []

    def _cohort_signature(self, key: int,
                          state: _StreamBlockState) -> Optional[Any]:
        """Grouping key for the columnar store; None keeps the block on
        the scalar path (suspect history)."""
        if not history_is_clean(state.history):
            return None
        return (state.params.bin_seconds,)

    def _cohort_extras(self, cohort: Cohort) -> None:
        """Populate subclass payload on a freshly built cohort."""

    def _build_cohorts(self) -> None:
        entries: List[Tuple[Any, int, _StreamBlockState]] = []
        stragglers: List[int] = []
        for key, state in self._states.items():
            signature = self._cohort_signature(key, state)
            if signature is None:
                stragglers.append(key)
            else:
                entries.append((signature, key, state))
        self._cohorts = build_cohorts(entries)
        self._cohort_stragglers = stragglers
        for cohort in self._cohorts:
            self._cohort_extras(cohort)

    def _advance_cohort(self, cohort: Cohort, now: float) -> None:
        """Close every cohort member's pending bins up to ``now``,
        batching all members that share each boundary."""
        states = cohort.states
        next_ends = np.array([state.next_bin_end for state in states])
        while True:
            pending = next_ends <= now
            if not pending.any():
                break
            boundary = float(next_ends[pending].min())
            rows = np.flatnonzero(next_ends == boundary)
            self._close_cohort(cohort, rows, boundary, now)
            for row in rows.tolist():
                key = cohort.keys[row]
                if key not in self._states:
                    next_ends[row] = np.inf
                else:
                    next_ends[row] = states[row].next_bin_end

    def _cohort_posterior(self, cohort: Cohort, rows: np.ndarray,
                          keys: List[int],
                          members: List[_StreamBlockState],
                          bin_start: float, boundary: float,
                          belief: np.ndarray, was_up: np.ndarray,
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                     Optional[np.ndarray]]:
        """Batched belief math for one boundary; the single-source
        replica of :meth:`BeliefState.update`.  Returns ``(belief,
        is_up, guardrail_trips, bad)`` where ``bad`` marks members that
        must fall back to the scalar close (residual poisoned
        evidence) — None when every member is clean."""
        counts = np.fromiter((state.bin_count for state in members),
                             np.int64, len(members))
        p_empty = diurnal_p_empty(cohort, rows, bin_start)
        bad: Optional[np.ndarray] = ~np.isfinite(p_empty)
        if bad.any():
            p_empty = np.where(bad, 0.5, p_empty)
        else:
            bad = None
        new_belief, new_up, trips = columnar_update(
            belief, was_up, counts, p_empty,
            cohort.noise_nonempty[rows], cohort.prior_down[rows],
            cohort.prior_up_recovery[rows], cohort.down_threshold[rows],
            cohort.up_threshold[rows])
        return new_belief, new_up, trips, bad

    def _close_cohort(self, cohort: Cohort, rows: np.ndarray,
                      boundary: float, now: float) -> None:
        """Close one shared boundary for ``rows`` of ``cohort`` — the
        batched equivalent of N scalar :meth:`_close_bin` calls."""
        clock = _time.perf_counter() if self.metrics.enabled else None
        bin_seconds = cohort.bin_seconds
        bin_start = boundary - bin_seconds
        keys = [cohort.keys[row] for row in rows.tolist()]
        members = [cohort.states[row] for row in rows.tolist()]
        belief = np.fromiter(
            (state.belief.belief for state in members), float,
            len(members))
        was_up = np.array([state.belief.is_up for state in members])
        new_belief, new_up, trips, bad = self._cohort_posterior(
            cohort, rows, keys, members, bin_start, boundary, belief,
            was_up)
        if bad is not None and bad.any():
            # Residual poison the admission check could not see: those
            # members take the scalar close so the exact BlockDataError
            # lands in the dead-letter registry.
            for position in np.flatnonzero(bad).tolist():
                key, state = keys[position], members[position]
                try:
                    self._close_bin(key, state)
                except Exception as error:
                    self._quarantine(key, "stream", error)
            keep = np.flatnonzero(~bad)
            if keep.size == 0:
                return
            keys = [keys[i] for i in keep.tolist()]
            members = [members[i] for i in keep.tolist()]
            was_up = was_up[keep]
            new_belief = new_belief[keep]
            new_up = new_up[keep]
            trips = trips[keep]
        flips_down = 0
        flips_up = 0
        swapped: List[Tuple[int, _StreamBlockState]] = []
        for key, state, value, up, trip, previous in zip(
                keys, members, new_belief.tolist(), new_up.tolist(),
                trips.tolist(), was_up.tolist()):
            block_belief = state.belief
            block_belief.belief = value
            block_belief.is_up = up
            if trip:
                block_belief.guardrail_trips += trip
            if previous and not up:
                flips_down += 1
                mean_gap = (1.0 / state.history.mean_rate
                            if state.history.mean_rate > 0
                            else bin_seconds)
                guard = min(self.refinement.guard_gaps * mean_gap,
                            bin_seconds)
                max_backfill = (self.refinement.max_backfill_bins
                                * bin_seconds)
                if state.last_packet is not None:
                    refined = max(state.last_packet + guard,
                                  bin_start - max_backfill)
                else:
                    refined = bin_start
                state.transitions.append((min(refined, boundary), False))
            elif not previous and up:
                flips_up += 1
                if state.first_packet_this_bin is not None:
                    mean_gap = (1.0 / state.history.mean_rate
                                if state.history.mean_rate > 0
                                else bin_seconds)
                    guard = min(self.refinement.guard_gaps * mean_gap,
                                bin_seconds)
                    recovery = state.first_packet_this_bin - guard
                else:
                    recovery = bin_start
                state.transitions.append((recovery, True))
            state.bin_count = 0
            state.first_packet_this_bin = None
            swap = self._pending_swaps.pop(key, None)
            if swap is not None:
                self._apply_swap(key, state, swap[0], swap[1], boundary)
                swapped.append((key, state))
            else:
                state.next_bin_end = boundary + bin_seconds
        closed = len(members)
        self.windows_closed += closed
        trip_total = int(trips.sum())
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
            # A swap may re-grid the member; catch it up scalar for the
            # rest of this advance (its cohort row rebuilds lazily).
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
        own windows — the partitioned live path runs *one* sentinel
        parent-side over the whole tap (feed health is a property of
        the vantage, not of any partition's slice) and passes its
        verdict down to every worker here.

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
        """Close every bin that ends at or before ``now``."""
        while state.next_bin_end <= now:
            self._close_bin(key, state)

    def _update_belief(self, key: int, state: _StreamBlockState,
                       bin_start: float) -> bool:
        """Apply one closed bin's evidence; returns the new up/down state.

        Split out of :meth:`_close_bin` so the fusion layer's detector
        can substitute a multi-source weighted update while inheriting
        all of the bin-close bookkeeping (refined transition placement,
        metrics, hot-swap application) unchanged.
        """
        params = state.params
        p_empty = (state.history.empty_bin_probability_at(
            bin_start, params.bin_seconds)
            if state.history.diurnal_profile is not None else None)
        if self.explain.enabled:
            # Stage the evidence *before* the update so the recorded
            # floats are exactly what the belief math consumed.
            self._last_evidence = {
                "count": state.bin_count,
                "p_empty": (p_empty if p_empty is not None
                            else params.p_empty_up),
            }
        return state.belief.update(state.bin_count, p_empty)

    def _explain_bin(self, key: int, state: _StreamBlockState,
                     bin_start: float, was_up: bool, is_up: bool) -> None:
        """Track the belief trajectory; record threshold crossings.

        Called only when provenance is on.  The evidence dict staged by
        :meth:`_update_belief` (or the fusion layer's override) is
        attached verbatim — those are the very floats the update
        consumed, which is what makes the event bit-for-bit auditable.
        """
        trajectory = self._trajectories.get(key)
        if trajectory is None:
            trajectory = deque(maxlen=EXPLAIN_TRAJECTORY_BINS)
            self._trajectories[key] = trajectory
        trajectory.append((bin_start, state.belief.belief))
        if was_up == is_up:
            return
        event: Dict[str, Any] = {
            "event": "transition",
            "block": key,
            "time": state.next_bin_end,
            "bin_start": bin_start,
            "is_up": is_up,
            "belief": state.belief.belief,
            "trajectory": list(trajectory),
        }
        if self._last_evidence is not None:
            event.update(self._last_evidence)
        self._record_event(event)

    def _close_bin(self, key: int, state: _StreamBlockState) -> None:
        params = state.params
        was_up = state.belief.is_up
        bin_start = state.next_bin_end - params.bin_seconds
        trips_before = state.belief.guardrail_trips
        update_clock = (_time.perf_counter()
                        if self.metrics.enabled else None)
        is_up = self._update_belief(key, state, bin_start)
        if update_clock is not None:
            self._m_belief.observe(_time.perf_counter() - update_clock)
        if self.explain.enabled:
            self._explain_bin(key, state, bin_start, was_up, is_up)
        # Guardrail trips are accounted the moment they happen (delta
        # against the belief state's running total) so the health report
        # and the metrics registry can never disagree mid-run.
        trip_delta = state.belief.guardrail_trips - trips_before
        if trip_delta:
            self.guardrails.trip("neutralised_bin", trip_delta)
        self._m_bins.inc()
        self._m_lag.set(self._last_time - state.next_bin_end)
        self._m_clock.set(self._last_time)
        if was_up and not is_up:
            self._m_down.inc()
            # Refined outage start: just after the last packet seen.
            mean_gap = (1.0 / state.history.mean_rate
                        if state.history.mean_rate > 0 else params.bin_seconds)
            guard = min(self.refinement.guard_gaps * mean_gap,
                        params.bin_seconds)
            max_backfill = (self.refinement.max_backfill_bins
                            * params.bin_seconds)
            if state.last_packet is not None:
                refined = max(state.last_packet + guard,
                              bin_start - max_backfill)
            else:
                refined = bin_start
            state.transitions.append((min(refined, state.next_bin_end), False))
        elif not was_up and is_up:
            self._m_up.inc()
            # Refined recovery: the first packet of the reviving bin,
            # pulled back one forward-recurrence time (see
            # events.refine_timeline) so durations stay unbiased.
            if state.first_packet_this_bin is not None:
                mean_gap = (1.0 / state.history.mean_rate
                            if state.history.mean_rate > 0
                            else params.bin_seconds)
                guard = min(self.refinement.guard_gaps * mean_gap,
                            params.bin_seconds)
                recovery = state.first_packet_this_bin - guard
            else:
                recovery = bin_start
            state.transitions.append((recovery, True))
        state.bin_count = 0
        state.first_packet_this_bin = None
        self.windows_closed += 1
        swap = self._pending_swaps.pop(key, None)
        if swap is not None:
            # The boundary just closed is where the retuned model takes
            # over; the new bin grid restarts from it.
            self._apply_swap(key, state, swap[0], swap[1],
                             state.next_bin_end)
        else:
            state.next_bin_end += params.bin_seconds
