"""Chaos suite: poisoned blocks are contained, clean blocks are exact.

The fault-containment contract of this PR, pinned end to end:

* poisoning a small fraction of a population quarantines *exactly* the
  poisoned blocks — batch and streaming both complete, and every clean
  block's result is bit-identical to an unpoisoned run;
* the run health report accounts for every block (attempted =
  succeeded + quarantined, quarantined named);
* the error budget trips at the configured fraction with
  :class:`~repro.core.health.ErrorBudgetExceeded`, and stays silent at
  or below it;
* the ingest boundary refuses non-finite timestamps outright rather
  than letting them reach a detector clock.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.detector import StreamingDetector
from repro.core.health import ErrorBudgetExceeded
from repro.core.pipeline import PassiveOutagePipeline
from repro.fusion import FusedModel, FusedStreamingDetector
from repro.net.addr import Family
from repro.telescope.records import Observation
from repro.telescope.reorder import ReorderBuffer
from repro.testing.faults import (
    degenerate_parameters,
    poison_block_times,
    poison_timestamps,
)
from repro.traffic.sources import poisson_times

pytestmark = pytest.mark.faults

DAY = 86400.0
N_BLOCKS = 20
#: the advance grid of the drive-mode cases, as ``LiveBlockEngine``
#: steps it.
ADVANCE_GRID = 300.0


@pytest.fixture(scope="module")
def population():
    """Twenty healthy blocks: train/evaluate windows plus a clean model."""
    rng = np.random.default_rng(42)
    rates = {key: 0.05 + 0.01 * key for key in range(1, N_BLOCKS + 1)}
    train = {k: poisson_times(rng, r, 0, DAY) for k, r in rates.items()}
    evaluate = {k: poisson_times(rng, r, DAY, 2 * DAY)
                for k, r in rates.items()}
    pipeline = PassiveOutagePipeline(aggregation_levels=0)
    model = pipeline.train(Family.IPV4, train, 0.0, DAY)
    return pipeline, model, train, evaluate


def assert_blocks_identical(clean, poisoned, keys):
    for key in keys:
        assert poisoned.blocks[key].timeline == clean.blocks[key].timeline
        assert (poisoned.blocks[key].coarse_timeline
                == clean.blocks[key].coarse_timeline)


class TestBatchContainment:
    def test_five_percent_poison_quarantines_exactly_those_blocks(
            self, population):
        pipeline, model, _, evaluate = population
        victims = sorted(model.measurable_keys)[:1]  # 1/20 = 5%
        clean = pipeline.detect(model, evaluate, DAY, 2 * DAY)
        poisoned = pipeline.detect(
            model, poison_block_times(evaluate, victims, "nan"),
            DAY, 2 * DAY)
        assert poisoned.quarantined_keys == victims
        for key in victims:
            assert key not in poisoned.blocks
            entry = poisoned.dead_letters.by_stage("detect")[0]
            assert entry.block_key == key
            assert entry.error_type == "BlockDataError"
            assert "non-finite" in entry.error
        survivors = sorted(set(clean.blocks) - set(victims))
        assert sorted(poisoned.blocks) == survivors
        assert_blocks_identical(clean, poisoned, survivors)

    def test_degenerate_model_rows_are_masked_not_spread(self, population):
        pipeline, model, _, evaluate = population
        victims = sorted(model.measurable_keys)[:1]
        clean = pipeline.detect(model, evaluate, DAY, 2 * DAY)
        corrupt = degenerate_parameters(
            model.parameters, victims, "noise_nonempty", float("nan"))
        result = pipeline.detector.detect(
            model.family, evaluate, model.histories, corrupt, DAY, 2 * DAY)
        registry = pipeline.detector.last_dead_letters
        assert registry.keys() == victims
        assert registry.by_stage("belief")
        survivors = sorted(set(clean.blocks) - set(victims))
        assert sorted(result) == survivors
        for key in survivors:
            assert result[key].timeline == clean.blocks[key].timeline

    def test_health_report_accounts_for_every_block(self, population):
        pipeline, model, _, evaluate = population
        victims = sorted(model.measurable_keys)[:1]
        result = pipeline.detect(
            model, poison_block_times(evaluate, victims, "nan"),
            DAY, 2 * DAY)
        health = result.health
        assert health is not None
        assert health.accounts_for(model.measurable_keys)
        assert health.blocks_attempted == len(model.measurable_keys)
        assert health.blocks_quarantined == len(victims)
        assert health.blocks_succeeded == (len(model.measurable_keys)
                                           - len(victims))
        assert health.guardrails.count("nonfinite_timestamp") > 0
        # Round-trips to JSON for operators and the CLI's --health-report.
        restored = type(health).from_json(health.to_json())
        assert restored.blocks_quarantined == health.blocks_quarantined

    def test_budget_trips_above_fraction_not_at_it(self, population):
        _, model, _, evaluate = population
        strict = PassiveOutagePipeline(aggregation_levels=0,
                                       max_quarantine_frac=0.05)
        one = sorted(model.measurable_keys)[:1]    # exactly 5%: allowed
        result = strict.detect(
            model, poison_block_times(evaluate, one, "nan"), DAY, 2 * DAY)
        assert result.health is not None
        assert not result.health.budget_tripped
        two = sorted(model.measurable_keys)[:2]    # 10% > 5%: trips
        with pytest.raises(ErrorBudgetExceeded) as info:
            strict.detect(model, poison_block_times(evaluate, two, "nan"),
                          DAY, 2 * DAY)
        assert info.value.quarantined == 2
        assert info.value.fraction == pytest.approx(0.1)

    def test_training_quarantines_poisoned_history(self, population):
        pipeline, _, train, _ = population
        victims = sorted(train)[:1]
        model = pipeline.train(
            Family.IPV4, poison_block_times(train, victims, "unsorted"),
            0.0, DAY)
        assert model.dead_letters.keys() == victims
        for key in victims:
            assert key not in model.histories
            assert key not in model.parameters
        assert len(model.parameters) == len(train) - len(victims)
        assert model.health is not None
        assert model.health.stage("train").quarantined == len(victims)


class TestStreamingContainment:
    def rows(self, evaluate, keys):
        return sorted(Observation(float(t), Family.IPV4, k << 8)
                      for k in keys for t in evaluate[k])

    def run(self, model, rows, parameters=None, frac=0.5):
        detector = StreamingDetector(
            model.family, model.histories,
            parameters if parameters is not None else model.parameters,
            DAY, max_quarantine_frac=frac)
        for row in rows:
            detector.observe(row)
        return detector, detector.finalize(2 * DAY)

    def test_poisoned_model_quarantines_block_stream_survives(
            self, population):
        _, model, _, evaluate = population
        keys = model.measurable_keys
        victims = keys[:1]
        rows = self.rows(evaluate, keys)
        _, clean = self.run(model, rows)
        # noise_nonempty is consulted every bin (p_empty_up is overridden
        # by the diurnal likelihood for these blocks), so poisoning it
        # must dead-letter the block at its first closed bin.
        corrupt = degenerate_parameters(model.parameters, victims,
                                        "noise_nonempty", float("nan"))
        detector, results = self.run(model, rows, parameters=corrupt)
        assert detector.dead_letters.keys() == victims
        survivors = sorted(set(keys) - set(victims))
        assert sorted(results) == survivors
        for key in survivors:
            assert results[key].timeline == clean[key].timeline
        health = detector.last_health
        assert health is not None
        assert health.accounts_for(keys)
        assert not health.budget_tripped

    @staticmethod
    def detector(kind, model, parameters):
        """A single-source or one-vantage fused detector over ``model``
        with its parameters replaced by ``parameters``."""
        if kind == "single":
            return StreamingDetector(model.family, model.histories,
                                     parameters, DAY)
        fused = FusedModel(model.family, {
            "dns": dataclasses.replace(model, parameters=parameters)})
        return FusedStreamingDetector(fused, DAY)

    @staticmethod
    def drive(detector, rows, grid):
        """Feed ``rows``; with a ``grid``, advance to each grid point a
        row reaches before observing it, as ``LiveBlockEngine`` does
        (otherwise bins close only by packet catch-up)."""
        next_advance = DAY + grid if grid else None
        for row in rows:
            while next_advance is not None and row.time >= next_advance:
                detector.advance(next_advance)
                next_advance += grid
            detector.observe(row)
        return detector.finalize(2 * DAY)

    @pytest.mark.parametrize("kind", ["single", "fused"])
    @pytest.mark.parametrize("grid", [None, ADVANCE_GRID],
                             ids=["observe", "advance"])
    @pytest.mark.parametrize("field", ["noise_nonempty", "prior_down",
                                       "prior_up_recovery"])
    def test_poisoned_field_dead_letters_victim_in_every_drive(
            self, population, kind, grid, field):
        """Whichever way bins close, a non-finite model field
        dead-letters exactly its block; survivors match a clean run."""
        _, model, _, evaluate = population
        keys = model.measurable_keys
        victims = keys[:1]
        rows = self.rows(evaluate, keys)
        clean = self.drive(self.detector(kind, model, model.parameters),
                           rows, grid)
        corrupt = degenerate_parameters(model.parameters, victims, field,
                                        float("nan"))
        detector = self.detector(kind, model, corrupt)
        results = self.drive(detector, rows, grid)
        assert detector.dead_letters.keys() == victims
        (entry,) = detector.dead_letters.entries
        assert entry.error_type == "BlockDataError"
        survivors = sorted(set(keys) - set(victims))
        assert sorted(results) == survivors
        for key in survivors:
            assert results[key].timeline == clean[key].timeline
        assert detector.last_health.accounts_for(keys)

    def test_streaming_budget_trips_with_health_published(self, population):
        _, model, _, evaluate = population
        keys = model.measurable_keys
        victims = keys[:2]                          # 10% > 5%
        corrupt = degenerate_parameters(model.parameters, victims,
                                        "noise_nonempty", float("nan"))
        rows = self.rows(evaluate, keys)
        with pytest.raises(ErrorBudgetExceeded):
            self.run(model, rows, parameters=corrupt, frac=0.05)

    def test_observe_refuses_nonfinite_timestamp(self, population):
        _, model, _, evaluate = population
        detector = StreamingDetector(model.family, model.histories,
                                     model.parameters, DAY)
        with pytest.raises(ValueError, match="non-finite"):
            detector.observe(
                Observation(float("nan"), Family.IPV4,
                            model.measurable_keys[0] << 8))


class TestTelemetryAgreement:
    """Health report and metrics registry share the counter write path.

    Satellite contract of the telemetry PR: ``RunHealthReport`` and the
    ``dead_letters_total``/``guardrail_trips_total`` metric series are
    fed by the *same* ``record()``/``trip()`` calls, so after a chaos
    run they must agree exactly — no second accounting path to drift.
    """

    def metric_counts(self, registry, name):
        family = registry.get(name)
        if family is None:
            return {}
        return {labels[0]: child.value
                for labels, child in family.series() if child.value}

    def test_streaming_report_equals_metrics_after_chaos(self, population):
        from repro.obs.metrics import MetricsRegistry

        _, model, _, evaluate = population
        keys = model.measurable_keys
        victims = keys[:1]
        corrupt = degenerate_parameters(model.parameters, victims,
                                        "noise_nonempty", float("nan"))
        registry = MetricsRegistry()
        detector = StreamingDetector(model.family, model.histories,
                                     corrupt, DAY, metrics=registry)
        for row in sorted(Observation(float(t), Family.IPV4, k << 8)
                          for k in keys for t in evaluate[k]):
            detector.observe(row)
        detector.finalize(2 * DAY)
        health = detector.last_health
        assert health is not None

        dead_by_stage = {}
        for entry in health.dead_letters.entries:
            dead_by_stage[entry.stage] = dead_by_stage.get(entry.stage, 0) + 1
        assert dead_by_stage  # chaos actually quarantined something
        assert self.metric_counts(registry,
                                  "dead_letters_total") == dead_by_stage

        report_guards = {guard: count
                         for guard, count
                         in health.guardrails.as_dict().items() if count}
        assert self.metric_counts(registry,
                                  "guardrail_trips_total") == report_guards

    def test_batch_report_equals_metrics_after_chaos(self, population):
        from repro.obs.metrics import MetricsRegistry

        _, model, _, evaluate = population
        victims = sorted(model.measurable_keys)[:1]
        registry = MetricsRegistry()
        pipeline = PassiveOutagePipeline(aggregation_levels=0,
                                         metrics=registry)
        result = pipeline.detect(
            model, poison_block_times(evaluate, victims, "nan"),
            DAY, 2 * DAY)
        health = result.health
        assert health is not None

        dead_by_stage = {}
        for entry in health.dead_letters.entries:
            dead_by_stage[entry.stage] = dead_by_stage.get(entry.stage, 0) + 1
        assert dead_by_stage
        assert self.metric_counts(registry,
                                  "dead_letters_total") == dead_by_stage
        report_guards = {guard: count
                         for guard, count
                         in health.guardrails.as_dict().items() if count}
        assert report_guards.get("nonfinite_timestamp", 0) > 0
        assert self.metric_counts(registry,
                                  "guardrail_trips_total") == report_guards


class TestIngestBoundary:
    def test_reorder_buffer_stops_poisoned_stream(self, population):
        _, model, _, evaluate = population
        key = model.measurable_keys[0]
        rng = np.random.default_rng(7)
        rows = [Observation(float(t), Family.IPV4, key << 8)
                for t in evaluate[key]]
        buffer = ReorderBuffer(5.0)
        with pytest.raises(ValueError, match="non-finite"):
            for row in poison_timestamps(rows, 0.05, rng):
                buffer.push(row)
        assert buffer.stats.pushed > 0
