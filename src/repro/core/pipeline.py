"""End-to-end passive outage pipeline: train -> tune -> detect -> report.

This is the public API most users want::

    pipeline = PassiveOutagePipeline()
    model = pipeline.train(Family.IPV4, per_block_times, 0.0, 86400.0)
    result = pipeline.detect(model, per_block_times, 86400.0, 172800.0)
    for key, block_result in result.blocks.items():
        for event in block_result.events:
            ...

Training learns per-block histories and tunes per-block parameters;
detection runs the vectorised Bayesian filter and (optionally) the
spatial-aggregation fallback for the blocks tuning declared
unmeasurable.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from ..net.addr import Family
from ..obs.metrics import resolve_registry
from ..obs.tracing import resolve_tracer
from ..telescope.records import ObservationBatch
from ..telescope.aggregate import per_block_times
from .aggregation import (
    AggregationPlan,
    merge_streams_for_plan,
    plan_aggregation,
)
from .detector import (
    BlockResult,
    PassiveDetector,
    dead_letter_metric,
    guardrail_metric,
)
from .events import RefinementConfig
from .health import (
    DeadLetterRegistry,
    ErrorBudget,
    ErrorBudgetExceeded,
    GuardrailCounters,
    RunHealthReport,
)
from .history import BlockHistory, train_history
from .parameters import (
    BlockParameters,
    HomogeneousPlanner,
    ParameterPlanner,
    TuningPolicy,
)

__all__ = ["TrainedModel", "PipelineResult", "PassiveOutagePipeline"]


@dataclass
class TrainedModel:
    """Output of the training pass for one family.

    ``dead_letters`` records blocks quarantined during training or
    tuning (poisoned histories, parameter failures); they carry no
    history or parameters and are excluded from detection.  ``health``
    is the training run's :class:`~repro.core.health.RunHealthReport`.
    """

    family: Family
    histories: Dict[int, BlockHistory]
    parameters: Dict[int, BlockParameters]
    train_start: float
    train_end: float
    dead_letters: DeadLetterRegistry = field(
        default_factory=DeadLetterRegistry)
    health: Optional[RunHealthReport] = None

    @property
    def measurable_keys(self) -> List[int]:
        return sorted(k for k, p in self.parameters.items() if p.measurable)

    @property
    def unmeasurable_keys(self) -> List[int]:
        return sorted(k for k, p in self.parameters.items()
                      if not p.measurable)

    def coverage(self) -> float:
        """Fraction of observed blocks that are individually measurable."""
        if not self.parameters:
            return 0.0
        return len(self.measurable_keys) / len(self.parameters)


@dataclass
class PipelineResult:
    """Detection output for one family over one window."""

    family: Family
    start: float
    end: float
    blocks: Dict[int, BlockResult]
    aggregated: Dict[int, BlockResult] = field(default_factory=dict)
    aggregation_plan: Optional[AggregationPlan] = None
    #: blocks quarantined during this detection run (absent from
    #: ``blocks``), plus the run's health accounting.
    dead_letters: DeadLetterRegistry = field(
        default_factory=DeadLetterRegistry)
    health: Optional[RunHealthReport] = None

    @property
    def measurable_count(self) -> int:
        return len(self.blocks)

    @property
    def quarantined_keys(self) -> List[int]:
        return self.dead_letters.keys()

    def blocks_with_outages(self, min_duration: float = 0.0) -> List[int]:
        """Keys of blocks reporting >= 1 outage of the given length."""
        return sorted(
            key for key, result in self.blocks.items()
            if result.timeline.events(min_duration))

    def total_outage_seconds(self, min_duration: float = 0.0,
                             max_duration: float = float("inf")) -> float:
        """Summed outage duration across blocks, filtered by event length."""
        return sum(
            event.duration
            for result in self.blocks.values()
            for event in result.timeline.events()
            if min_duration <= event.duration < max_duration)


class PassiveOutagePipeline:
    """Composable train/detect pipeline with per-block tuning.

    Parameters
    ----------
    policy:
        global tuning policy (bin ladder, target empty-bin probability).
    refinement:
        exact-timestamp edge-refinement configuration.
    homogeneous_bin:
        when set, replaces the per-block tuner with a fixed-bin
        homogeneous planner — the ablation the paper argues against.
    aggregation_levels:
        prefix bits collapsed by the spatial fallback (0 disables it).
    max_quarantine_frac:
        error budget — the largest fraction of attempted blocks that
        may be quarantined before the run fails loudly with
        :class:`~repro.core.health.ErrorBudgetExceeded` (1.0 disables).
    workers:
        when >= 1, train/detect run through the sharded parallel path
        (:mod:`repro.parallel`): the keyspace splits into deterministic
        chunks, each chunk attempt runs in its own supervised child
        process, at most ``workers`` at a time, and results merge
        bit-for-bit identical to the sequential path.  0 forces the
        sequential path; None (the default) defers to the process-wide
        default set by :func:`repro.parallel.set_default_parallelism`.
    shard_chunk:
        blocks per shard for the parallel path (None picks a default
        that depends only on the population size, never on ``workers``).
    shard_checkpoint_dir:
        when set, the parallel path checkpoints each completed shard
        there, so a killed run resumes recomputing only missing shards.
    supervision:
        the :class:`~repro.parallel.SupervisionPolicy` the parallel
        path's :class:`~repro.parallel.ShardSupervisor` applies: each
        attempt's wall-clock deadline and RSS ceiling, and how
        transient crash/hang/OOM failures are retried before a shard
        is bisected down to per-block dead letters.  None uses the
        default policy.  Ignored by the sequential path
        (``workers=0``).
    """

    def __init__(
        self,
        policy: Optional[TuningPolicy] = None,
        refinement: Optional[RefinementConfig] = None,
        homogeneous_bin: Optional[float] = None,
        aggregation_levels: int = 4,
        learn_diurnal: bool = True,
        keep_belief_traces: bool = False,
        max_quarantine_frac: float = 0.5,
        metrics: Optional[Any] = None,
        tracer: Optional[Any] = None,
        workers: Optional[int] = None,
        shard_chunk: Optional[int] = None,
        shard_checkpoint_dir: Optional[str] = None,
        supervision: Optional[Any] = None,
    ) -> None:
        if workers is None:
            # Imported lazily: repro.parallel imports this module.
            from ..parallel import get_default_parallelism
            workers, default_chunk = get_default_parallelism()
            if shard_chunk is None:
                shard_chunk = default_chunk
        self.workers = workers
        self.shard_chunk = shard_chunk
        self.shard_checkpoint_dir = shard_checkpoint_dir
        # Typed Any to avoid a circular import: repro.parallel imports
        # this module, so the policy class cannot be named here.
        self.supervision = supervision
        self.policy = policy or TuningPolicy()
        self.refinement = refinement or RefinementConfig()
        if homogeneous_bin is not None:
            self.planner: ParameterPlanner = HomogeneousPlanner(
                homogeneous_bin, self.policy)
        else:
            self.planner = ParameterPlanner(self.policy)
        self.aggregation_levels = aggregation_levels
        self.learn_diurnal = learn_diurnal
        self.metrics = resolve_registry(metrics)
        self.tracer = resolve_tracer(tracer)
        self.detector = PassiveDetector(self.refinement, keep_belief_traces,
                                        metrics=self.metrics)
        self.budget = ErrorBudget(max_quarantine_frac)

    def _stage_seconds(self, stage: str, seconds: float) -> None:
        """Record one stage's wall-time in the shared histogram."""
        self.metrics.histogram(
            "pipeline_stage_seconds",
            "Wall-time of each batch pipeline stage, by stage",
            labelnames=("stage",)).labels(stage=stage).observe(seconds)

    # -- training --------------------------------------------------------

    def train(self, family: Family, per_block: Mapping[int, np.ndarray],
              start: float, end: float) -> TrainedModel:
        """Learn histories and tune parameters from a clean window.

        Each block trains and tunes inside a supervised scope: a
        poisoned history (non-finite timestamps, degenerate summaries)
        or a tuning failure quarantines that block into the model's
        dead-letter registry while the rest of the population trains
        normally.  Exceeding the error budget raises
        :class:`~repro.core.health.ErrorBudgetExceeded`.
        """
        if self.workers:
            from ..parallel import sharded_train
            return sharded_train(self, family, per_block, start, end,
                                 checkpoint_dir=self.shard_checkpoint_dir)
        registry = DeadLetterRegistry()
        if self.metrics.enabled:
            registry.bind(dead_letter_metric(self.metrics))
        report = RunHealthReport(
            run="train", dead_letters=registry,
            max_quarantine_frac=self.budget.max_quarantine_frac)

        histories: Dict[int, BlockHistory] = {}
        parameters: Dict[int, BlockParameters] = {}
        with self.tracer.span("train", family=family.name.lower(),
                              blocks=len(per_block)):
            train_stage = report.stage("train")
            clock = _time.perf_counter()
            with self.tracer.span("fit", blocks=len(per_block)):
                for key, times in per_block.items():
                    train_stage.attempted += 1
                    try:
                        histories[key] = train_history(times, start, end,
                                                       self.learn_diurnal)
                        train_stage.succeeded += 1
                    except Exception as error:
                        train_stage.quarantined += 1
                        registry.record("train", key, error, times)
            train_stage.seconds = _time.perf_counter() - clock
            self._stage_seconds("train", train_stage.seconds)

            tune_stage = report.stage("tune")
            clock = _time.perf_counter()
            tune_timer = (self.metrics.histogram(
                "tune_block_seconds",
                "Wall-time of one block's parameter fit (tuning)")
                if self.metrics.enabled else None)
            with self.tracer.span("tune", blocks=len(histories)):
                batch_clock = _time.perf_counter()
                planned, tune_errors = self.planner.plan_batch(histories)
                batch_seconds = _time.perf_counter() - batch_clock
                for key in histories:
                    tune_stage.attempted += 1
                    if key in planned:
                        parameters[key] = planned[key]
                        tune_stage.succeeded += 1
                    else:
                        tune_stage.quarantined += 1
                        registry.record("tune", key, tune_errors[key])
                if tune_timer is not None and tune_stage.succeeded:
                    # Only successful fits are recorded — a population
                    # of fast-failing poisoned blocks must not drag the
                    # histogram down and mask tuning regressions.  The
                    # batched fit is amortised evenly so the histogram
                    # keeps count == successful fits and
                    # sum == tune wall time.
                    share = batch_seconds / tune_stage.succeeded
                    for _ in range(tune_stage.succeeded):
                        tune_timer.observe(share)
            tune_stage.seconds = _time.perf_counter() - clock
            self._stage_seconds("tune", tune_stage.seconds)
        # A block that failed tuning has a history but no parameters;
        # drop the orphan so the model stays internally consistent.
        for key in registry.keys():
            histories.pop(key, None)

        try:
            self.budget.check("train", len(per_block), len(registry))
        except ErrorBudgetExceeded as error:
            report.budget_tripped = True
            error.report = report
            raise
        return TrainedModel(family=family, histories=histories,
                            parameters=parameters,
                            train_start=start, train_end=end,
                            dead_letters=registry, health=report)

    def train_from_batch(self, batch: ObservationBatch, start: float,
                         end: float) -> TrainedModel:
        """Train directly from an :class:`ObservationBatch`."""
        return self.train(batch.family, per_block_times(batch), start, end)

    # -- detection --------------------------------------------------------

    def detect(self, model: TrainedModel,
               per_block: Mapping[int, np.ndarray],
               start: float, end: float) -> PipelineResult:
        """Run detection over ``[start, end)`` with a trained model.

        Per-block faults (poisoned timestamps or counts, degenerate
        parameters, refinement failures) quarantine the offending block
        into ``result.dead_letters``; every other block's result is
        bit-identical to a run without the poison.  The run's health
        accounting lands on ``result.health``, and exceeding the error
        budget raises :class:`~repro.core.health.ErrorBudgetExceeded`.
        """
        if self.workers:
            from ..parallel import sharded_detect
            return sharded_detect(self, model, per_block, start, end,
                                  checkpoint_dir=self.shard_checkpoint_dir)
        registry = DeadLetterRegistry()
        guardrails = GuardrailCounters()
        if self.metrics.enabled:
            registry.bind(dead_letter_metric(self.metrics))
            guardrails.bind(guardrail_metric(self.metrics))
        report = RunHealthReport(
            run="detect", dead_letters=registry, guardrails=guardrails,
            max_quarantine_frac=self.budget.max_quarantine_frac)

        detect_stage = report.stage("detect")
        clock = _time.perf_counter()
        measurable = [key for key, params in model.parameters.items()
                      if params.measurable]
        with self.tracer.span("detect", family=model.family.name.lower(),
                              blocks=len(measurable)):
            blocks = self.detector.detect(
                model.family, per_block, model.histories, model.parameters,
                start, end, registry=registry, guardrails=guardrails)
        detect_stage.seconds = _time.perf_counter() - clock
        detect_stage.attempted = len(measurable)
        detect_stage.succeeded = len(blocks)
        detect_stage.quarantined = len(registry)
        self._stage_seconds("detect", detect_stage.seconds)

        result = PipelineResult(family=model.family, start=start, end=end,
                                blocks=blocks, dead_letters=registry,
                                health=report)
        # Budget is judged on the primary population before the
        # best-effort aggregation fallback runs.
        try:
            self.budget.check("detect", len(measurable), len(registry))
        except ErrorBudgetExceeded as error:
            report.budget_tripped = True
            error.report = report
            raise
        if self.aggregation_levels > 0 and model.unmeasurable_keys:
            aggregate_stage = report.stage("aggregate")
            clock = _time.perf_counter()
            with self.tracer.span("aggregate",
                                  family=model.family.name.lower()):
                self._detect_aggregated(model, per_block, start, end,
                                        result, registry)
            aggregate_stage.seconds = _time.perf_counter() - clock
            aggregate_stage.attempted = len(result.aggregated)
            aggregate_stage.succeeded = len(result.aggregated)
            self._stage_seconds("aggregate", aggregate_stage.seconds)
        return result

    def detect_from_batch(self, model: TrainedModel,
                          batch: ObservationBatch, start: float,
                          end: float) -> PipelineResult:
        return self.detect(model, per_block_times(batch), start, end)

    def _detect_aggregated(self, model: TrainedModel,
                           per_block: Mapping[int, np.ndarray],
                           start: float, end: float,
                           result: PipelineResult,
                           registry: Optional[DeadLetterRegistry] = None,
                           ) -> None:
        """Fallback pass over supernets of the unmeasurable blocks."""
        registry = registry if registry is not None else DeadLetterRegistry()
        plan = plan_aggregation(model.family, model.unmeasurable_keys,
                                self.aggregation_levels)
        if not plan.groups:
            return
        merged = merge_streams_for_plan(plan, per_block)
        # Supernet history: re-train over the training window by merging
        # the members' training estimate — rates add across children.
        # A supernet whose merge or tuning fails is quarantined alone.
        histories: Dict[int, BlockHistory] = {}
        parameters: Dict[int, BlockParameters] = {}
        for super_key, children in plan.groups.items():
            try:
                child_histories = [model.histories[c] for c in children
                                   if c in model.histories]
                histories[super_key] = _merge_histories(child_histories)
                parameters[super_key] = self.planner.plan_block(
                    histories[super_key])
            except Exception as error:
                histories.pop(super_key, None)
                registry.record("aggregate", super_key, error)
        result.aggregated = self.detector.detect(
            model.family, merged, histories, parameters, start, end,
            registry=registry)
        result.aggregation_plan = plan


def _merge_histories(histories: List[BlockHistory]) -> BlockHistory:
    """Combine child histories into a supernet history (rates add)."""
    if not histories:
        raise ValueError("cannot merge zero histories")
    total_rate = sum(h.mean_rate for h in histories)
    total_count = sum(h.observed_count for h in histories)
    span = max(h.training_seconds for h in histories)
    median_gap = 1.0 / total_rate if total_rate > 0 else span
    return BlockHistory(
        mean_rate=total_rate,
        observed_count=total_count,
        training_seconds=span,
        median_gap=median_gap,
        p95_gap=3.0 * median_gap,
        # The children's largest healthy gap upper-bounds the merged
        # stream's, so the gap detector stays conservative after merging.
        max_gap=max(h.max_gap for h in histories),
        burstiness=float(np.mean([h.burstiness for h in histories])),
        diurnal_profile=None,
    )
