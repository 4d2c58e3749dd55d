"""The fused multi-vantage detector: evidence fusion inside the filter.

One :class:`FusedModel` holds a per-source :class:`~repro.core.pipeline.
TrainedModel` for every vantage.  Per block, the *lead* source — the
measurable source with the finest tuned bin — supplies the bin grid,
transition priors, hysteresis thresholds, and gap threshold; every
measurable source contributes an independent per-bin log-likelihood
ratio under its own likelihood parameters re-expressed at the lead bin
width.  Contributions are scaled by each vantage's reliability weight
(:mod:`repro.fusion.reliability`) and hard-gated to zero while its
sentinel suspects or confirms a feed failure, so a vantage that goes
dark mid-run stops influencing verdicts within one sentinel bin while
the healthy sources keep detecting.

Degradation semantics, in order of escalation:

1. **Healthy** — every source contributes at its learned weight.
2. **Suspect/quarantined** — the failing source's evidence is gated to
   zero per bin (and its weight decays), remaining sources carry on;
   block-level gap outages are suppressed while any vantage is
   untrusted, because a merged-stream gap cannot be attributed to the
   block when an observer is dark.
3. **All vantages dark at once** — nothing can be said; down-time in
   the intersection of all quarantine windows is retracted at finalize,
   exactly like the single-source sentinel contract.

Both deployment shapes are provided: :func:`detect_fused` (vectorised
batch over :func:`~repro.core.belief.fused_belief_pass`) and
:class:`FusedStreamingDetector` (streaming through the columnar cohort
close, checkpointable via the v1 format's defaulted ``fusion`` key).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..net.addr import Family
from ..obs.metrics import resolve_registry
from ..telescope.aggregate import BinGrid, binned_counts
from ..telescope.records import Observation
from ..timeline import (
    Interval,
    Timeline,
    intersect_intervals,
    merge_intervals,
)
from ..core.checkpoint import (
    CheckpointFormatError,
    apply_checkpoint_state,
    parse_checkpoint_document,
)
from ..core.belief import (
    columnar_fused_posterior,
    columnar_llr,
    fused_belief_pass,
)
from ..core.columnar import Cohort, diurnal_p_empty
from ..core.detector import (
    BlockResult,
    StreamingDetector,
    _StreamBlockState,
)
from ..core.events import RefinementConfig, gap_outages, refine_timeline, \
    states_to_timeline
from ..core.health import (
    BlockDataError,
    DeadLetterRegistry,
    ErrorBudget,
    ErrorBudgetExceeded,
    GuardrailCounters,
    RunHealthReport,
    SourceHealth,
)
from ..core.history import BlockHistory
from ..core.parameters import BlockParameters, TuningPolicy
from ..core.pipeline import PassiveOutagePipeline, TrainedModel
from ..core.sentinel import SentinelConfig, suppress_quarantined
from .reliability import ReliabilityConfig, SourceMonitor
from .sources import SourceAdapter

__all__ = ["FusedModel", "FusedBlockSpec", "build_block_specs",
           "train_fused", "FusedDetection", "detect_fused",
           "FusedStreamingDetector", "fused_detector_from_json",
           "intersect_interval_lists", "union_interval_lists"]


def intersect_interval_lists(
        lists: Sequence[Sequence[Interval]]) -> List[Interval]:
    """Windows covered by *every* interval list (all vantages dark)."""
    if not lists:
        return []
    result = merge_intervals(lists[0])
    for intervals in lists[1:]:
        result = intersect_intervals(result, merge_intervals(intervals))
        if not result:
            break
    return result


def union_interval_lists(
        lists: Sequence[Sequence[Interval]]) -> List[Interval]:
    """Windows covered by *any* interval list (some vantage dark)."""
    flat: List[Interval] = []
    for intervals in lists:
        flat.extend(intervals)
    return merge_intervals(flat)


@dataclass(frozen=True)
class FusedBlockSpec:
    """How one block fuses: who leads, and each source's likelihoods.

    ``likelihoods`` holds one ``(source, p_empty_up, noise_nonempty,
    stride)`` entry per contributing source.  A source reports once per
    *evidence window* of ``stride`` consecutive lead bins — its own
    tuned bin width rounded up to a lead-bin multiple — with both
    likelihood parameters expressed at that window width.  Evidence
    cadence is the source's own: a coarse-tuned source never judges
    silence at a granularity its single-source tuner rejected, which is
    what keeps the fused detector's false-onset calibration no worse
    than the weakest remaining source when the lead goes dark.
    """

    lead: str
    params: BlockParameters
    history: BlockHistory
    likelihoods: Tuple[Tuple[str, float, float, int], ...]

    @property
    def source_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _, _, _ in self.likelihoods)

    @property
    def roster(self) -> Tuple[Tuple[str, int], ...]:
        """(source, stride) pairs — the batch grouping signature."""
        return tuple((name, stride)
                     for name, _, _, stride in self.likelihoods)


@dataclass
class FusedModel:
    """Per-source trained models plus the fusion roster.

    ``sources`` is ordered (insertion order is the fusion order, which
    matters only for deterministic tie-breaks); ``primary`` names the
    source untagged observations are attributed to — by default the
    first source, conventionally the DNS tap.
    """

    family: Family
    sources: Dict[str, TrainedModel]
    primary: str = ""

    def __post_init__(self) -> None:
        if not self.sources:
            raise ValueError("a fused model needs at least one source")
        for name, model in self.sources.items():
            if model.family is not self.family:
                raise ValueError(
                    f"source {name!r} was trained for {model.family}, "
                    f"not {self.family}")
        if not self.primary:
            self.primary = next(iter(self.sources))
        if self.primary not in self.sources:
            raise ValueError(f"primary {self.primary!r} is not a source")

    @property
    def source_names(self) -> List[str]:
        return list(self.sources)

    @property
    def measurable_keys(self) -> List[int]:
        """Blocks measurable by at least one vantage."""
        keys = set()
        for model in self.sources.values():
            keys.update(model.measurable_keys)
        return sorted(keys)

    def coverage(self) -> float:
        """Fraction of observed blocks measurable by >= 1 vantage."""
        observed = set()
        for model in self.sources.values():
            observed.update(model.parameters)
        if not observed:
            return 0.0
        return len(self.measurable_keys) / len(observed)


def build_block_specs(model: FusedModel) -> Dict[int, FusedBlockSpec]:
    """One :class:`FusedBlockSpec` per fused-measurable block.

    Deterministic: the lead is the measurable source with the smallest
    tuned bin, ties broken by source order, so two processes given the
    same model derive identical specs (the checkpoint contract relies
    on this — specs are derived state and never serialised).
    """
    names = model.source_names
    specs: Dict[int, FusedBlockSpec] = {}
    for key in model.measurable_keys:
        candidates = []
        for order, name in enumerate(names):
            source = model.sources[name]
            params = source.parameters.get(key)
            if (params is not None and params.measurable
                    and key in source.histories):
                candidates.append((params.bin_seconds, order, name))
        if not candidates:
            continue
        _, _, lead = min(candidates)
        lead_model = model.sources[lead]
        lead_params = lead_model.parameters[key]
        likelihoods: List[Tuple[str, float, float, int]] = []
        for _, order, name in sorted(candidates, key=lambda c: c[1]):
            source = model.sources[name]
            params = source.parameters[key]
            if name == lead:
                p_empty = lead_params.p_empty_up
                noise = lead_params.noise_nonempty
                stride = 1
            else:
                # The source reports once per window of its own tuned
                # bin width, rounded UP to a lead-bin multiple so both
                # grids align.  Judging a coarse-tuned source's silence
                # per fine lead bin instead would accumulate absence
                # evidence at a granularity its own tuner rejected —
                # a plausible lull would cross the down threshold the
                # moment the lead goes dark.
                stride = max(1, int(np.ceil(params.bin_seconds
                                            / lead_params.bin_seconds)))
                window = stride * lead_params.bin_seconds
                history = source.histories[key]
                p_empty = history.empty_bin_probability(window)
                # The noise floor was tuned per *this source's* bin; a
                # down block's chance of a spurious arrival scales with
                # window width, so rescale to the window.
                ratio = window / params.bin_seconds
                noise = 1.0 - (1.0 - params.noise_nonempty) ** ratio
            likelihoods.append((name, float(p_empty), float(noise),
                                int(stride)))
        specs[key] = FusedBlockSpec(
            lead=lead,
            params=lead_params,
            history=lead_model.histories[key],
            likelihoods=tuple(likelihoods),
        )
    return specs


def train_fused(adapters: Sequence[SourceAdapter], family: Family,
                start: float, end: float,
                primary: Optional[str] = None,
                policy: Optional[TuningPolicy] = None,
                **pipeline_kwargs: Any) -> FusedModel:
    """Train one per-source model per adapter and assemble the roster.

    Each source trains through its own
    :class:`~repro.core.pipeline.PassiveOutagePipeline` under the
    adapter's tuning policy (falling back to ``policy``), so noise
    floors and bin ladders are per-vantage — the darknet's spoofed
    share never inflates the DNS tap's noise model.
    """
    if not adapters:
        raise ValueError("train_fused needs at least one source adapter")
    sources: Dict[str, TrainedModel] = {}
    for adapter in adapters:
        if adapter.name in sources:
            raise ValueError(f"duplicate source name {adapter.name!r}")
        pipeline = PassiveOutagePipeline(
            policy=adapter.tuning_policy() or policy, **pipeline_kwargs)
        sources[adapter.name] = pipeline.train(
            family, adapter.per_block(family, start, end), start, end)
    return FusedModel(family=family, sources=sources,
                      primary=primary or adapters[0].name)


# -- batch ------------------------------------------------------------------


@dataclass
class FusedDetection:
    """Output of one batch fused-detection run."""

    family: Family
    start: float
    end: float
    blocks: Dict[int, BlockResult]
    monitors: Dict[str, SourceMonitor]
    dead_letters: DeadLetterRegistry = field(
        default_factory=DeadLetterRegistry)
    health: Optional[RunHealthReport] = None
    #: windows during which *every* vantage was dark (down-time inside
    #: them was retracted).
    all_dark_windows: List[Interval] = field(default_factory=list)

    @property
    def measurable_count(self) -> int:
        return len(self.blocks)


def detect_fused(
    model: FusedModel,
    per_block_by_source: Mapping[str, Mapping[int, np.ndarray]],
    start: float,
    end: float,
    refinement: Optional[RefinementConfig] = None,
    sentinel_config: Optional[SentinelConfig] = None,
    reliability: Optional[ReliabilityConfig] = None,
    keep_belief_traces: bool = False,
    max_quarantine_frac: float = 0.5,
    metrics: Optional[Any] = None,
) -> FusedDetection:
    """Vectorised fused detection over ``[start, end)``.

    ``per_block_by_source`` maps source name -> {block key -> sorted
    arrival times}; a missing source is a vantage that was completely
    dark for the window — it is untrusted throughout (every bin of its
    evidence gated) and counts as dark in the all-dark intersection.

    Per-source vantage health is replayed offline first (sentinel +
    reliability weight over each source's aggregate feed), then every
    parameter group runs one :func:`~repro.core.belief.fused_belief_pass`
    with per-bin weight vectors.  Fault containment mirrors
    :class:`~repro.core.detector.PassiveDetector`: per-block poison is
    dead-lettered, never fatal.
    """
    metrics = resolve_registry(metrics)
    refinement = refinement or RefinementConfig()
    registry = DeadLetterRegistry()
    guardrails = GuardrailCounters()
    budget = ErrorBudget(max_quarantine_frac)
    names = model.source_names

    # -- vantage health replay, one monitor per source ------------------
    monitors: Dict[str, SourceMonitor] = {}
    for name in names:
        monitor = SourceMonitor.fresh(
            name, start, sentinel_config, reliability,
            keep_weight_history=True).bind_metrics(metrics)
        per_block = per_block_by_source.get(name, {})
        if per_block:
            arrays = [np.asarray(times) for times in per_block.values()
                      if len(times)]
            aggregate = (np.sort(np.concatenate(arrays)) if arrays
                         else np.empty(0))
        else:
            aggregate = np.empty(0)
        monitor.replay(aggregate, start, end)
        monitors[name] = monitor
    all_dark = intersect_interval_lists(
        [_dark_windows(monitors[name], start, end) for name in names])
    untrusted = union_interval_lists([
        _untrusted_windows(monitors[name], start, end) for name in names])

    specs = build_block_specs(model)
    groups: Dict[Tuple[Any, ...], List[int]] = defaultdict(list)
    for key, spec in specs.items():
        times_ok = True
        for name in spec.source_names:
            times = per_block_by_source.get(name, {}).get(key)
            if times is None:
                continue
            times = np.asarray(times)
            if times.dtype.kind == "f" and not np.isfinite(times).all():
                bad = int((~np.isfinite(times)).sum())
                guardrails.trip("nonfinite_timestamp", bad)
                registry.record(
                    "detect", key,
                    BlockDataError(
                        f"{bad} of {times.size} detection timestamps from "
                        f"source {name!r} are non-finite"),
                    times)
                times_ok = False
                break
        if times_ok:
            groups[(spec.params.bin_seconds, spec.params.down_threshold,
                    spec.params.up_threshold, spec.roster)].append(key)

    results: Dict[int, BlockResult] = {}
    for (bin_seconds, down_threshold, up_threshold, roster), keys in sorted(
            groups.items()):
        keys.sort()
        grid = BinGrid(start, end, bin_seconds)
        edges = grid.edges()
        counts_by_source: List[np.ndarray] = []
        p_empty_by_source: List[np.ndarray] = []
        noise_by_source: List[np.ndarray] = []
        weights_by_source: List[np.ndarray] = []
        for position, (name, stride) in enumerate(roster):
            counts = binned_counts(
                keys, per_block_by_source.get(name, {}), grid)
            if stride > 1:
                counts = _windowed_counts(counts, stride)
            counts_by_source.append(counts)
            p_empty_by_source.append(np.array(
                [specs[key].likelihoods[position][1] for key in keys]))
            noise_by_source.append(np.array(
                [specs[key].likelihoods[position][2] for key in keys]))
            weights_by_source.append(
                monitors[name].weight_vector(edges, bin_seconds,
                                             stride=stride))
        prior_down = np.array([specs[key].params.prior_down for key in keys])
        prior_up = np.array(
            [specs[key].params.prior_up_recovery for key in keys])
        states, beliefs, poisoned = fused_belief_pass(
            counts_by_source, p_empty_by_source, noise_by_source,
            weights_by_source, prior_down, prior_up,
            down_threshold=down_threshold, up_threshold=up_threshold,
            return_beliefs=keep_belief_traces,
            guardrails=guardrails, metrics=metrics)
        metrics.counter(
            "belief_updates_total",
            "Belief-filter updates applied, by address family",
            labelnames=("family",)).labels(
                family=model.family.name.lower()).inc(
                    sum(counts.size for counts in counts_by_source))
        for row, key in enumerate(keys):
            if poisoned[row]:
                registry.record(
                    "belief", key,
                    BlockDataError(
                        "non-finite counts or parameters poisoned the "
                        "fused belief pass; row masked"))
                continue
            try:
                results[key] = _build_fused_result(
                    model.family, key, specs[key], per_block_by_source,
                    states[row],
                    beliefs[row] if beliefs is not None else None,
                    grid, start, end, refinement, untrusted, all_dark)
            except Exception as error:
                registry.record("refine", key, error)

    report = RunHealthReport(
        run="fusion", dead_letters=registry, guardrails=guardrails,
        sentinel_windows=[(float(s), float(e)) for s, e in all_dark],
        max_quarantine_frac=max_quarantine_frac)
    stage = report.stage("detect")
    stage.attempted = len(specs)
    stage.succeeded = len(results)
    stage.quarantined = len(registry)
    _fold_source_health(report, monitors, specs)
    detection = FusedDetection(
        family=model.family, start=start, end=end, blocks=results,
        monitors=monitors, dead_letters=registry, health=report,
        all_dark_windows=list(all_dark))
    try:
        budget.check("fusion", len(specs), len(registry))
    except ErrorBudgetExceeded as error:
        report.budget_tripped = True
        error.report = report
        raise
    return detection


def _windowed_counts(counts: np.ndarray, stride: int) -> np.ndarray:
    """Scatter window sums onto the lead grid at each window's close.

    For a source reporting once per ``stride`` lead bins, the bin at
    index ``j`` with ``(j + 1) % stride == 0`` carries the count summed
    over the window ``[j - stride + 1, j]``; every other bin carries
    zero (and zero weight — the window is still open there).  A
    trailing partial window contributes nothing: its silence is not yet
    a full own-cadence observation, exactly as in streaming where the
    window never closes.
    """
    n_blocks, n_bins = counts.shape
    out = np.zeros_like(counts)
    closes = np.arange(stride - 1, n_bins, stride)
    if closes.size:
        padded = np.concatenate(
            [np.zeros((n_blocks, 1), dtype=counts.dtype),
             np.cumsum(counts, axis=1)], axis=1)
        out[:, closes] = padded[:, closes + 1] - padded[:, closes + 1 - stride]
    return out


def _untrusted_windows(monitor: SourceMonitor, start: float,
                       end: float) -> List[Interval]:
    """Quarantines plus the open suspect run, margin-padded.

    A vantage that never spoke is untrusted for the whole span — its
    online sentinel has nothing to judge silence against, so no
    quarantine ever opens, yet none of its empty bins may be read as
    block evidence (see :meth:`SourceMonitor.trusted_over`).
    """
    if monitor.observations == 0:
        return [(start, end)]
    windows = list(monitor.sentinel.quarantined_intervals())
    suspect_since = monitor.sentinel.suspect_since
    if suspect_since is not None:
        margin = monitor.sentinel.config.margin
        windows.append((suspect_since - margin, end))
    return merge_intervals(windows)


def _dark_windows(monitor: SourceMonitor, start: float,
                  end: float) -> List[Interval]:
    """Windows this vantage could not observe at all.

    Confirmed quarantines, plus the whole span for a vantage that never
    delivered a packet — the all-dark intersection must treat a
    dead-from-the-start source as dark throughout, or a run whose every
    vantage was absent would retract nothing.
    """
    if monitor.observations == 0:
        return [(start, end)]
    return monitor.sentinel.quarantined_intervals()


def _build_fused_result(family: Family, key: int, spec: FusedBlockSpec,
                        per_block_by_source: Mapping[str,
                                                     Mapping[int, Any]],
                        states: np.ndarray,
                        belief_trace: Optional[np.ndarray],
                        grid: BinGrid, start: float, end: float,
                        refinement: RefinementConfig,
                        untrusted: List[Interval],
                        all_dark: List[Interval]) -> BlockResult:
    """Refine one fused block: edges on merged packet evidence."""
    arrays = [np.asarray(per_block_by_source.get(name, {}).get(
        key, np.empty(0))) for name in spec.source_names]
    arrays = [times for times in arrays if times.size]
    merged = (np.sort(np.concatenate(arrays)) if arrays
              else np.empty(0))
    history = spec.history
    params = spec.params
    coarse = states_to_timeline(states, grid)
    refined = refine_timeline(coarse, merged, history.mean_rate,
                              grid.bin_seconds, refinement)
    mean_gap = (1.0 / history.mean_rate if history.mean_rate > 0
                else grid.bin_seconds)
    gaps = gap_outages(merged, params.gap_threshold_seconds, start, end,
                       guard=refinement.guard_gaps * mean_gap)
    if gaps:
        # A merged-stream gap is only attributable to the block while
        # every vantage was trusted: with an observer dark, the "gap"
        # may be the observer's.
        gaps = [gap for gap in gaps
                if not intersect_intervals([gap], untrusted)]
    if gaps:
        refined = Timeline(start, end, refined.down_intervals + gaps)
    overlapping = [(max(s, start), min(e, end))
                   for s, e in all_dark if s < end and e > start]
    timeline = (suppress_quarantined(refined, overlapping)
                if overlapping else refined)
    return BlockResult(
        key=key,
        family=family,
        params=params,
        history=history,
        timeline=timeline,
        coarse_timeline=coarse,
        belief_trace=belief_trace,
        quarantined=overlapping,
    )


def _fold_source_health(report: RunHealthReport,
                        monitors: Mapping[str, SourceMonitor],
                        specs: Mapping[int, FusedBlockSpec]) -> None:
    """Attach the per-vantage section to a run health report."""
    measurable: Dict[str, int] = {name: 0 for name in monitors}
    for spec in specs.values():
        for name in spec.source_names:
            if name in measurable:
                measurable[name] += 1
    for name, monitor in monitors.items():
        report.sources[name] = SourceHealth(
            name=name,
            observations=monitor.observations,
            weight=monitor.weight,
            healthy_bins=monitor.healthy_bins,
            quiet_bins=monitor.quiet_bins,
            gated_bins=monitor.gated_bins,
            quarantine_windows=[
                (float(s), float(e)) for s, e in
                monitor.sentinel.quarantined_intervals()],
            measurable_blocks=measurable[name],
        )


# -- streaming --------------------------------------------------------------


class FusedStreamingDetector(StreamingDetector):
    """Streaming detector fusing several tagged vantage streams.

    Feed with :meth:`observe_from` (``observe`` routes to the primary
    source, so single-source callers keep working).  Every observation
    advances every vantage monitor's clock — a dead vantage is judged
    by the traffic the *others* keep delivering, which is what lets its
    evidence gate off within one sentinel bin of the failure.

    Checkpointing rides the v1 format: per-source sentinel, reliability
    and per-block bin-count state lands under the defaulted ``fusion``
    key (see :func:`repro.core.checkpoint.detector_to_json`), and
    :func:`fused_detector_from_json` restores bit-for-bit.
    """

    def __init__(
        self,
        model: FusedModel,
        start: float,
        refinement: Optional[RefinementConfig] = None,
        sentinel_config: Optional[SentinelConfig] = None,
        reliability: Optional[ReliabilityConfig] = None,
        max_quarantine_frac: float = 0.5,
        metrics: Optional[Any] = None,
        monitors: Optional[Dict[str, SourceMonitor]] = None,
        explain: Optional[Any] = None,
    ) -> None:
        self.model = model
        self.source_names = model.source_names
        self._source_index = {name: index
                              for index, name in enumerate(self.source_names)}
        self.specs = build_block_specs(model)
        self._active_source: Optional[int] = None
        histories = {key: spec.history for key, spec in self.specs.items()}
        parameters = {key: spec.params for key, spec in self.specs.items()}
        super().__init__(model.family, histories, parameters, start,
                         refinement=refinement, sentinel=None,
                         max_quarantine_frac=max_quarantine_frac,
                         metrics=metrics, explain=explain)
        if monitors is None:
            monitors = {
                name: SourceMonitor.fresh(name, self.start, sentinel_config,
                                          reliability)
                for name in self.source_names}
        missing = [name for name in self.source_names if name not in monitors]
        if missing:
            raise ValueError(f"monitors missing for sources {missing}")
        self.monitors = monitors
        self._monitor_list = [monitors[name] for name in self.source_names]
        for monitor in self._monitor_list:
            monitor.bind_metrics(self.metrics)
        self._source_counts: Dict[int, List[int]] = {
            key: [0] * len(self.source_names) for key in self._states}
        #: when True (default), :meth:`observe_from` feeds the vantage
        #: monitors itself.  The live engine sets this False and drives
        #: them in raw-tap order via :meth:`note_arrival`, because there
        #: the monitor feed (the raw tap) and the detector feed
        #: (post-reorder-buffer) are different streams.
        self.inline_monitors = True

    # -- feeding ------------------------------------------------------------

    def observe_from(self, source: str, observation: Observation) -> None:
        """Feed one observation attributed to a named vantage."""
        index = self._source_index.get(source)
        if index is None:
            raise ValueError(
                f"unknown source {source!r}; fused sources are "
                f"{self.source_names}")
        if not np.isfinite(observation.time):
            raise ValueError(
                f"non-finite observation timestamp {observation.time!r}: "
                f"reject poisoned records at the ingest boundary before "
                f"they reach the detector clock")
        if observation.time < self._last_time - 1e-9:
            raise ValueError(
                f"stream went backwards: {observation.time} after "
                f"{self._last_time}")
        # Vantage health first, so bins this record closes are judged
        # against up-to-date per-source trust.
        if self.inline_monitors:
            self.note_arrival(source, observation.time)
        self._observe_as(index, observation)

    def note_arrival(self, source: str, time: float) -> None:
        """Feed one raw-tap arrival into the vantage monitors.

        Counts the arrival against ``source``'s sentinel and advances
        every other monitor's clock — a dead vantage is judged by the
        traffic the others keep delivering.
        """
        index = self._source_index[source]
        for position, monitor in enumerate(self._monitor_list):
            if position == index:
                monitor.observe(time)
            else:
                monitor.advance(time)

    def _observe_as(self, index: int, observation: Observation) -> None:
        self._active_source = index
        try:
            super().observe(observation)
        finally:
            self._active_source = None

    def observe(self, observation: Observation) -> None:
        """Untagged observations belong to the primary vantage."""
        if self._active_source is None:
            self.observe_from(self.model.primary, observation)
        else:
            super().observe(observation)

    def advance(self, now: float) -> None:
        if self.inline_monitors:
            for monitor in self._monitor_list:
                monitor.advance(now)
        super().advance(now)

    # -- per-block hooks ----------------------------------------------------

    def _trusted_window(self, window_start: float,
                        window_end: float) -> bool:
        return all(monitor.trusted_over(window_start, window_end)
                   for monitor in self._monitor_list)

    def _observe_block(self, key: int, state: _StreamBlockState,
                       observation: Observation) -> None:
        self._advance_block(key, state, observation.time)
        # Gap detector over the *merged* stream: only meaningful while
        # every vantage is trusted — a gap spanning an observer failure
        # says nothing about the block.
        if (state.last_packet is not None
                and observation.time - state.last_packet
                > state.params.gap_threshold_seconds
                and self._trusted_window(state.last_packet,
                                         observation.time)):
            self._gap_outage(state, state.last_packet, observation.time)
        if state.first_packet_this_bin is None:
            state.first_packet_this_bin = observation.time
        state.bin_count += 1
        state.last_packet = observation.time
        counts = self._source_counts.get(key)
        if counts is not None and self._active_source is not None:
            counts[self._active_source] += 1

    # -- columnar bin close --------------------------------------------------

    def _cohort_signature(self, key: int,
                          state: _StreamBlockState) -> Any:
        """Fused cohorts additionally require a uniform roster: the
        lead source, the source order, and each source's reporting
        stride must match so the per-boundary stride arithmetic and
        weight lookups are cohort-wide."""
        spec = self.specs[key]
        return (state.params.bin_seconds, spec.lead,
                tuple((name, stride)
                      for name, _, _, stride in spec.likelihoods))

    def _cohort_extras(self, cohort: Cohort) -> None:
        """Per-source likelihood columns for the cohort's roster."""
        spec = self.specs[cohort.keys[0]]
        roster = [(name, stride)
                  for name, _, _, stride in spec.likelihoods]
        p_empty_columns = []
        noise_columns = []
        for position in range(len(roster)):
            p_empty_columns.append(np.array(
                [self.specs[key].likelihoods[position][1]
                 for key in cohort.keys]))
            noise_columns.append(np.array(
                [self.specs[key].likelihoods[position][2]
                 for key in cohort.keys]))
        cohort.extras.update(
            roster=roster, lead=spec.lead,
            p_empty=p_empty_columns, noise=noise_columns)

    def _cohort_posterior(self, cohort: Cohort, rows: np.ndarray,
                          keys: List[int],
                          members: List[_StreamBlockState],
                          bin_start: float, boundary: float,
                          belief: np.ndarray, was_up: np.ndarray,
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                     Dict[int, BlockDataError],
                                     Optional[List[Dict[str, Any]]]]:
        """Batched fused update for one boundary.

        Each source whose evidence window closes here is weighed by its
        vantage's effective weight: a gated window (weight 0) is
        consumed without evidence, the others add ``weight * llr`` to
        the members' log-odds in roster order.  A member whose
        contributing likelihoods are non-finite is rejected with the
        first such source's values, then one with non-finite
        parameters.  A boundary with no contributing source freezes
        belief and verdict: the transition prior must not drift a
        healthy block down while nobody can observe it.
        """
        extras = cohort.extras
        bin_seconds = cohort.bin_seconds
        count = len(members)
        # 0-indexed position of the closing bin on the lead grid (a
        # source with stride k reports when (b + 1) % k == 0); uniform
        # across the cohort because boundary and bin width are.
        b = int(round((bin_start - self.start) / bin_seconds))
        weighted = np.zeros(count)
        contributed = False
        rejected: Dict[int, BlockDataError] = {}
        gated: List[SourceMonitor] = []
        sources: Optional[List[List[Dict[str, Any]]]] = (
            [[] for _ in range(count)] if self.explain.enabled else None)
        for position, (name, stride) in enumerate(extras["roster"]):
            if stride > 1 and (b + 1) % stride != 0:
                continue  # evidence window still open
            index = self._source_index[name]
            monitor = self._monitor_list[index]
            window = (boundary - stride * bin_seconds, boundary)
            weight = monitor.effective_weight(*window)
            counts = np.empty(count, dtype=np.int64)
            for i, (key, state) in enumerate(zip(keys, members)):
                source_counts = self._source_counts.get(key)
                if source_counts is not None:
                    counts[i] = source_counts[index]
                    source_counts[index] = 0  # window consumed either way
                else:
                    counts[i] = state.bin_count
            if weight <= 0.0:
                gated.append(monitor)
                p_empty = extras["p_empty"][position][rows]
                noise = extras["noise"][position][rows]
                contribution = np.zeros(count)
            else:
                contributed = True
                if name == extras["lead"]:
                    # Lead likelihoods live on the (possibly hot-
                    # swapped) block state, diurnal-aware like the base
                    # detector.
                    p_empty = diurnal_p_empty(cohort, rows, bin_start)
                    noise = cohort.noise_nonempty[rows]
                else:
                    p_empty = extras["p_empty"][position][rows]
                    noise = extras["noise"][position][rows]
                finite = np.isfinite(p_empty) & np.isfinite(noise)
                for i in np.flatnonzero(~finite).tolist():
                    rejected.setdefault(i, BlockDataError(
                        f"non-finite likelihood parameters (p_empty_up="
                        f"{float(p_empty[i])!r}, noise_nonempty="
                        f"{float(noise[i])!r}): source model is poisoned"))
                contribution = weight * columnar_llr(counts, p_empty, noise)
                weighted = weighted + contribution
            if sources is not None:
                for rows_i, count_i, p_i, noise_i, llr_i in zip(
                        sources, counts.tolist(), p_empty.tolist(),
                        noise.tolist(), contribution.tolist()):
                    rows_i.append(self._explain_source_row(
                        name, monitor, weight, count_i, p_i, noise_i,
                        llr=llr_i, gated=weight <= 0.0, window=window))
        self._reject_parameters(cohort, rows, rejected)
        for monitor in gated:
            monitor.note_gated(count - len(rejected))
        trips = np.zeros(count, dtype=np.int64)  # fused path never trips
        evidence = None
        if sources is not None:
            evidence = [{"sources": rows_i, "weighted_llr": llr,
                         "prior_belief": prior, "contributed": contributed}
                        for rows_i, llr, prior in zip(
                            sources, weighted.tolist(), belief.tolist())]
        if not contributed:
            return belief.copy(), was_up.copy(), trips, rejected, evidence
        posterior, new_up = columnar_fused_posterior(
            belief, was_up, weighted, cohort.prior_down[rows],
            cohort.prior_up_recovery[rows], cohort.down_threshold[rows],
            cohort.up_threshold[rows])
        return posterior, new_up, trips, rejected, evidence

    @staticmethod
    def _explain_source_row(name: str, monitor: SourceMonitor,
                            weight: float, count: int, p_empty: float,
                            noise: float, llr: float, gated: bool,
                            window: Tuple[float, float]) -> Dict[str, Any]:
        """One vantage's share of a fused update, for the explain log."""
        sentinel = monitor.sentinel
        quarantined = any(left < window[1] and window[0] < right
                          for left, right
                          in sentinel.quarantined_intervals())
        return {
            "source": name,
            "weight": weight,
            "raw_weight": monitor.weight,
            "count": count,
            "p_empty": p_empty,
            "noise": noise,
            "llr": llr,
            "gated": gated,
            "suspect": sentinel.suspect_since is not None,
            "quarantined": quarantined,
        }

    def _quarantine(self, key: int, stage: str,
                    error: BaseException) -> None:
        self._source_counts.pop(key, None)
        super()._quarantine(key, stage, error)

    # -- finalize / health --------------------------------------------------

    def finalize(self, end: float,
                 quarantined: Optional[List[Tuple[float, float]]] = None,
                 ) -> Dict[int, BlockResult]:
        for monitor in self._monitor_list:
            # Trailing silence up to the cut is evidence too.
            monitor.advance(end)
        if quarantined is None:
            # Retract only where EVERY vantage was dark at once; while
            # any source still talks, its verdicts stand (per-bin
            # gating already silenced the dark sources' evidence).
            quarantined = intersect_interval_lists(
                [_dark_windows(monitor, self.start, end)
                 for monitor in self._monitor_list])
        return super().finalize(end, quarantined=quarantined)

    def _build_health(self, end: float,
                      sentinel_windows: List[Tuple[float, float]]
                      ) -> RunHealthReport:
        report = super()._build_health(end, sentinel_windows)
        report.run = "fusion-stream"
        _fold_source_health(report, self.monitors, self.specs)
        return report

    # -- checkpointing ------------------------------------------------------

    def checkpoint_fusion_state(self) -> Dict[str, Any]:
        """The ``fusion`` section of the v1 checkpoint document.

        Only mutable state travels: monitors (sentinel + reliability)
        and per-block per-source bin counts.  Specs, likelihood tables
        and the roster are derived deterministically from the model the
        restorer must supply — exactly the contract the base detector
        has with its histories/parameters.
        """
        return {
            "sources": list(self.source_names),
            "primary": self.model.primary,
            "monitors": {name: self.monitors[name].to_dict()
                         for name in self.source_names},
            "source_counts": {
                str(key): list(counts)
                for key, counts in sorted(self._source_counts.items())},
        }

    def restore_fusion_state(self, data: Dict[str, Any]) -> None:
        """Swap in checkpointed per-source state (restore path)."""
        if list(data.get("sources", [])) != self.source_names:
            raise ValueError(
                f"checkpoint was written for sources "
                f"{data.get('sources')}, this model has "
                f"{self.source_names}")
        monitors = {name: SourceMonitor.from_dict(entry)
                    for name, entry in data["monitors"].items()}
        self.monitors = monitors
        self._monitor_list = [monitors[name] for name in self.source_names]
        for monitor in self._monitor_list:
            monitor.bind_metrics(self.metrics)
        for text_key, counts in data.get("source_counts", {}).items():
            key = int(text_key)
            if key in self._source_counts:
                self._source_counts[key] = [int(c) for c in counts]


def fused_detector_from_json(text: str, model: FusedModel,
                             metrics: Optional[Any] = None,
                             ) -> FusedStreamingDetector:
    """Rebuild a :class:`FusedStreamingDetector` from a v1 checkpoint.

    The caller supplies the fused ``model`` the checkpoint was written
    against (specs, likelihood tables and the bin grid are derived from
    it, mirroring the histories/parameters contract of the base
    :func:`repro.core.checkpoint.detector_from_json`); the document
    must carry the defaulted ``fusion`` key — restoring a single-source
    checkpoint into a fused detector is a format error, not a silent
    downgrade.
    """
    document = parse_checkpoint_document(text)
    try:
        family = Family(document["family"])
        if family is not model.family:
            raise CheckpointFormatError(
                f"checkpoint is for family {family.name}, the supplied "
                f"model is {model.family.name}")
        fusion_doc = document.get("fusion")
        if fusion_doc is None:
            raise CheckpointFormatError(
                "checkpoint has no fusion section: it was written by a "
                "single-source detector; restore it with "
                "detector_from_json instead")
        refinement = RefinementConfig(**document["refinement"])
        detector = FusedStreamingDetector(
            model, float(document["start"]), refinement=refinement,
            max_quarantine_frac=float(
                document.get("max_quarantine_frac",
                             ErrorBudget().max_quarantine_frac)),
            metrics=resolve_registry(metrics))
        apply_checkpoint_state(detector, document)
        detector.restore_fusion_state(fusion_doc)
        # Dead-lettered blocks were popped from _states by the restore;
        # drop their count rows too so finalize never resurrects them.
        for key in list(detector._source_counts):
            if key not in detector._states:
                del detector._source_counts[key]
        return detector
    except CheckpointFormatError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointFormatError(
            f"malformed checkpoint document: {error}") from None
