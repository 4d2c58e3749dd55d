"""Sharded/sequential equivalence for the parallel pipeline.

The contract under test is absolute: the sharded path must produce
*bit-for-bit* the same events, dead letters, guardrail counters, and
health accounting as the sequential path — for any worker count, any
chunking, under fault injection, and across a kill-and-resume through
a sharded checkpoint.  Wall-clock stage timings are the only sanctioned
difference (shards time their own work), so comparisons zero them.
"""

import json
import os

import numpy as np
import pytest

from repro.core.health import ErrorBudgetExceeded
from repro.core.pipeline import PassiveOutagePipeline
from repro.net.addr import Family
from repro.obs.explain import ExplainLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import SpanTracer
from repro.parallel import (
    get_default_parallelism,
    plan_shards,
    set_default_parallelism,
)
from repro.testing.faults import degenerate_parameters, poison_block_times

DAY = 86400.0


def poisson_times(rng, rate, start, end):
    n = rng.poisson(rate * (end - start))
    return np.sort(rng.uniform(start, end, n))


@pytest.fixture(scope="module")
def population():
    """20 blocks of one simulated day, rates spread over a decade."""
    rng = np.random.default_rng(11)
    return {k << 8: poisson_times(rng, 0.05 + 0.01 * k, 0.0, DAY)
            for k in range(20)}


def run_pair(per_block, workers, *, mutate=None, shard_chunk=3,
             aggregation_levels=0, max_quarantine_frac=1.0):
    """One sequential and one sharded run over identical inputs."""
    results = []
    for w in (0, workers):
        pipeline = PassiveOutagePipeline(
            aggregation_levels=aggregation_levels,
            max_quarantine_frac=max_quarantine_frac,
            metrics=MetricsRegistry(), workers=w, shard_chunk=shard_chunk)
        model = pipeline.train(Family.IPV4, per_block, 0.0, DAY)
        evaluate = mutate(model, per_block) if mutate else per_block
        results.append((pipeline, model,
                        pipeline.detect(model, evaluate, 0.0, DAY)))
    return results


def assert_clean_coverage(report):
    """Every sharded run runs supervised: its health carries a
    ``coverage`` section, which on input that kills no worker loses no
    block and shows one ``ok`` attempt per unit."""
    coverage = report.coverage
    assert coverage is not None
    assert coverage.blocks_lost == []
    assert coverage.blocks_delivered == coverage.blocks_planned
    assert coverage.shard_attempts
    for record in coverage.shard_attempts:
        assert (record.outcomes, record.status) == (["ok"], "done"), record


def normalized_health(report):
    """Health dict with wall-clock timings zeroed, letters canonical,
    and the supervision ``coverage`` section (sharded runs only, see
    :func:`assert_clean_coverage`) left out."""
    report.dead_letters.canonicalize()
    document = report.as_dict()
    document.pop("coverage", None)
    for stage in document["stages"]:
        stage["seconds"] = 0.0
    return document


def assert_equivalent(seq, shard):
    (_, seq_model, seq_result) = seq
    (_, shard_model, shard_result) = shard
    assert seq_model.parameters == shard_model.parameters
    assert seq_model.histories.keys() == shard_model.histories.keys()
    assert_results_equivalent(seq_result, shard_result)


def assert_results_equivalent(seq_result, shard_result):
    assert sorted(seq_result.blocks) == sorted(shard_result.blocks)
    for key in seq_result.blocks:
        a, b = seq_result.blocks[key], shard_result.blocks[key]
        assert a.timeline == b.timeline, f"block {key:#x} events differ"
        assert a.coarse_timeline == b.coarse_timeline, f"block {key:#x}"
        assert a.quarantined == b.quarantined
    assert (sorted(e.as_dict().items() for e in
                   seq_result.dead_letters.entries)
            == sorted(e.as_dict().items() for e in
                      shard_result.dead_letters.entries))
    assert seq_result.health.coverage is None
    assert_clean_coverage(shard_result.health)
    assert (normalized_health(seq_result.health)
            == normalized_health(shard_result.health))


class TestPlanning:
    def test_contiguous_sorted_chunks(self):
        assert plan_shards([5, 1, 3, 2, 4], 2) == [[1, 2], [3, 4], [5]]

    def test_plan_is_deterministic_and_worker_independent(self):
        keys = list(range(100, 0, -1))
        assert plan_shards(keys) == plan_shards(list(reversed(keys)))

    def test_default_chunk_covers_everything(self):
        shards = plan_shards(range(37))
        assert sorted(k for shard in shards for k in shard) == list(range(37))

    def test_empty_population(self):
        assert plan_shards([]) == []

    def test_bad_chunk_rejected(self):
        with pytest.raises(ValueError):
            plan_shards([1, 2], 0)


class TestCleanEquivalence:
    def test_sharded_one_worker_matches_sequential(self, population):
        seq, shard = run_pair(population, 1)
        assert_equivalent(seq, shard)

    def test_pooled_workers_match_sequential(self, population):
        seq, shard = run_pair(population, 2)
        assert_equivalent(seq, shard)

    def test_worker_counts_are_bit_identical(self, population):
        # The acceptance bar: --workers 4 output == --workers 1 output,
        # including the folded metrics snapshot (same plan, same merge).
        runs = {}
        for w in (1, 4):
            registry = MetricsRegistry()
            pipeline = PassiveOutagePipeline(
                aggregation_levels=0, metrics=registry, workers=w,
                shard_chunk=3)
            model = pipeline.train(Family.IPV4, population, 0.0, DAY)
            result = pipeline.detect(model, population, 0.0, DAY)
            runs[w] = (model, result, registry)
        model1, result1, registry1 = runs[1]
        model4, result4, registry4 = runs[4]
        assert model1.parameters == model4.parameters
        for key in result1.blocks:
            assert result1.blocks[key].timeline == result4.blocks[key].timeline
        assert (result1.dead_letters.as_dict()
                == result4.dead_letters.as_dict())
        assert_clean_coverage(result1.health)
        assert result1.health.coverage == result4.health.coverage
        assert (normalized_health(result1.health)
                == normalized_health(result4.health))
        # Counter values fold identically; only wall-clock histograms
        # (stage/tune timings) may differ between runs.
        counters1 = {f["name"]: f for f in registry1.snapshot()["metrics"]
                     if f["type"] == "counter"}
        counters4 = {f["name"]: f for f in registry4.snapshot()["metrics"]
                     if f["type"] == "counter"}
        assert counters1 == counters4

    def test_aggregation_fallback_matches(self):
        # Mostly-sparse population so tuning declares blocks
        # unmeasurable and the parent-side aggregation pass runs.
        rng = np.random.default_rng(23)
        per_block = {}
        for k in range(16):
            rate = 0.2 if k % 4 == 0 else 0.0004
            per_block[k << 8] = poisson_times(rng, rate, 0.0, DAY)
        seq, shard = run_pair(per_block, 2, aggregation_levels=4,
                              shard_chunk=5)
        (_, _, seq_result), (_, _, shard_result) = seq, shard
        assert seq_result.aggregated.keys() == shard_result.aggregated.keys()
        for key in seq_result.aggregated:
            assert (seq_result.aggregated[key].timeline
                    == shard_result.aggregated[key].timeline)


@pytest.mark.faults
class TestFaultedEquivalence:
    def test_poisoned_blocks_quarantined_identically(self, population):
        victims = sorted(population)[3:9:2]

        def mutate(model, per_block):
            return poison_block_times(per_block, victims, "nan")

        seq, shard = run_pair(population, 2, mutate=mutate)
        assert_equivalent(seq, shard)
        (_, _, seq_result) = seq
        assert sorted(seq_result.dead_letters.keys()) == victims

    def test_unsorted_and_inf_poison(self, population):
        keys = sorted(population)

        def mutate(model, per_block):
            poisoned = poison_block_times(per_block, keys[:2], "inf")
            return poison_block_times(poisoned, keys[-2:], "unsorted")

        seq, shard = run_pair(population, 2, mutate=mutate)
        assert_equivalent(seq, shard)

    def test_degenerate_parameters_match(self, population):
        victims = sorted(population)[::7]
        runs = []
        for w in (0, 2):
            pipeline = PassiveOutagePipeline(
                aggregation_levels=0, max_quarantine_frac=1.0,
                metrics=MetricsRegistry(), workers=w, shard_chunk=4)
            model = pipeline.train(Family.IPV4, population, 0.0, DAY)
            model.parameters = degenerate_parameters(
                model.parameters, victims, "noise_nonempty", float("nan"))
            runs.append(pipeline.detect(model, population, 0.0, DAY))
        # NaN-poisoned parameters are unequal to themselves, so only
        # the *results* are compared — which is the actual contract.
        assert_results_equivalent(runs[0], runs[1])

    def test_health_report_accounts_for_union(self, population):
        victims = sorted(population)[:4]

        def mutate(model, per_block):
            return poison_block_times(per_block, victims, "nan")

        _, shard = run_pair(population, 2, mutate=mutate)
        (_, model, result) = shard
        assert result.health.accounts_for(model.measurable_keys)
        assert sorted(result.dead_letters.keys()) == victims

    def test_merged_budget_trips_exactly_like_sequential(self, population):
        victims = sorted(population)[:8]  # 40% > 25% budget

        def mutate(model, per_block):
            return poison_block_times(per_block, victims, "nan")

        for w in (0, 2):
            pipeline = PassiveOutagePipeline(
                aggregation_levels=0, max_quarantine_frac=0.25,
                workers=w, shard_chunk=3)
            model = pipeline.train(Family.IPV4, population, 0.0, DAY)
            with pytest.raises(ErrorBudgetExceeded) as info:
                pipeline.detect(model, mutate(model, population), 0.0, DAY)
            assert info.value.quarantined == len(victims)
            assert info.value.report is not None
            assert info.value.report.budget_tripped is True


class TestShardCheckpoint:
    def test_kill_and_resume_is_bit_identical(self, population, tmp_path):
        checkpoint = tmp_path / "shards"
        baseline = PassiveOutagePipeline(aggregation_levels=0, workers=1,
                                         shard_chunk=3)
        model = baseline.train(Family.IPV4, population, 0.0, DAY)
        expected = baseline.detect(model, population, 0.0, DAY)

        first = PassiveOutagePipeline(
            aggregation_levels=0, workers=1, shard_chunk=3,
            shard_checkpoint_dir=str(checkpoint))
        first.detect(model, population, 0.0, DAY)
        shard_files = sorted(p for p in os.listdir(checkpoint)
                             if p.startswith("shard-"))
        assert len(shard_files) == len(plan_shards(model.parameters, 3))

        # Simulate a mid-run kill: one completed shard survives on
        # disk, another is lost.  The resume must recompute only the
        # missing one and still merge to the identical result.
        (checkpoint / shard_files[2]).unlink()
        resumed = PassiveOutagePipeline(
            aggregation_levels=0, workers=1, shard_chunk=3,
            shard_checkpoint_dir=str(checkpoint))
        result = resumed.detect(model, population, 0.0, DAY)
        for key in expected.blocks:
            assert expected.blocks[key].timeline == result.blocks[key].timeline
        assert result.health.coverage.blocks_lost == []
        assert (normalized_health(expected.health)
                == normalized_health(result.health))

    def test_stale_plan_is_ignored_not_misread(self, population, tmp_path):
        checkpoint = tmp_path / "shards"
        pipeline = PassiveOutagePipeline(
            aggregation_levels=0, workers=1, shard_chunk=3,
            shard_checkpoint_dir=str(checkpoint))
        model = pipeline.train(Family.IPV4, population, 0.0, DAY)
        pipeline.detect(model, population, 0.0, DAY)

        # A different chunking is a different plan: cached shard files
        # must read as misses, not be merged positionally.
        other = PassiveOutagePipeline(
            aggregation_levels=0, workers=1, shard_chunk=7,
            shard_checkpoint_dir=str(checkpoint))
        result = other.detect(model, population, 0.0, DAY)
        baseline = PassiveOutagePipeline(aggregation_levels=0, workers=0)
        expected = baseline.detect(model, population, 0.0, DAY)
        for key in expected.blocks:
            assert expected.blocks[key].timeline == result.blocks[key].timeline

    def test_corrupt_shard_file_recomputed(self, population, tmp_path):
        checkpoint = tmp_path / "shards"
        pipeline = PassiveOutagePipeline(
            aggregation_levels=0, workers=1, shard_chunk=5,
            shard_checkpoint_dir=str(checkpoint))
        model = pipeline.train(Family.IPV4, population, 0.0, DAY)
        expected = pipeline.detect(model, population, 0.0, DAY)
        (checkpoint / "shard-00001.json").write_text("{ torn", "utf-8")
        result = pipeline.detect(model, population, 0.0, DAY)
        for key in expected.blocks:
            assert expected.blocks[key].timeline == result.blocks[key].timeline

    def test_corrupt_shard_is_counted_and_deleted(self, population,
                                                  tmp_path):
        """Corrupt != missing: a torn cached shard file is an
        infrastructure fault — it must be counted
        (``shard_cache_corrupt_total``), deleted, and rewritten by the
        resume, not silently recomputed behind a rotting file."""
        checkpoint = tmp_path / "shards"
        pipeline = PassiveOutagePipeline(
            aggregation_levels=0, workers=1, shard_chunk=5,
            shard_checkpoint_dir=str(checkpoint))
        model = pipeline.train(Family.IPV4, population, 0.0, DAY)
        expected = pipeline.detect(model, population, 0.0, DAY)
        (checkpoint / "shard-00001.json").write_text("{ torn", "utf-8")

        registry = MetricsRegistry()
        resumed = PassiveOutagePipeline(
            aggregation_levels=0, workers=1, shard_chunk=5,
            metrics=registry, shard_checkpoint_dir=str(checkpoint))
        result = resumed.detect(model, population, 0.0, DAY)
        assert registry.get("shard_cache_corrupt_total").value == 1
        # The torn file was removed and rewritten valid by the resume.
        rewritten = json.loads(
            (checkpoint / "shard-00001.json").read_text("utf-8"))
        assert rewritten["index"] == 1
        for key in expected.blocks:
            assert expected.blocks[key].timeline == result.blocks[key].timeline

        # A clean re-resume finds nothing corrupt.
        again = MetricsRegistry()
        clean = PassiveOutagePipeline(
            aggregation_levels=0, workers=1, shard_chunk=5,
            metrics=again, shard_checkpoint_dir=str(checkpoint))
        clean.detect(model, population, 0.0, DAY)
        assert again.get("shard_cache_corrupt_total") is None

    def test_stale_plan_files_are_pruned(self, population, tmp_path):
        """Two successive plans in one checkpoint dir: files from the
        first plan's digest can never be read again and must be pruned
        at the second plan's plan time, not accumulate forever."""
        checkpoint = tmp_path / "shards"
        first = PassiveOutagePipeline(
            aggregation_levels=0, workers=1, shard_chunk=3,
            shard_checkpoint_dir=str(checkpoint))
        model = first.train(Family.IPV4, population, 0.0, DAY)
        first.detect(model, population, 0.0, DAY)
        first_files = [name for name in os.listdir(checkpoint)
                       if name.startswith("shard-")]
        assert len(first_files) == len(plan_shards(model.parameters, 3))

        second = PassiveOutagePipeline(
            aggregation_levels=0, workers=1, shard_chunk=7,
            shard_checkpoint_dir=str(checkpoint))
        second.detect(model, population, 0.0, DAY)
        manifest = json.loads(
            (checkpoint / "manifest.json").read_text("utf-8"))
        shard_files = [name for name in os.listdir(checkpoint)
                       if name.startswith("shard-")]
        assert len(shard_files) == len(plan_shards(model.parameters, 7))
        for name in shard_files:
            document = json.loads((checkpoint / name).read_text("utf-8"))
            assert document["plan_digest"] == manifest["plan_digest"]


class TestProcessDefaults:
    def test_set_default_parallelism_round_trip(self):
        previous = set_default_parallelism(3, 7)
        try:
            assert get_default_parallelism() == (3, 7)
            pipeline = PassiveOutagePipeline()
            assert pipeline.workers == 3
            assert pipeline.shard_chunk == 7
            explicit = PassiveOutagePipeline(workers=0)
            assert explicit.workers == 0
        finally:
            set_default_parallelism(*previous)

    def test_default_default_is_sequential(self):
        pipeline = PassiveOutagePipeline()
        assert not pipeline.workers  # None/0: legacy sequential path


class TestShardedTelemetryShipping:
    """Spans and explain events recorded in workers ship home.

    The shard document is the only channel a pool worker has, so the
    tracer's spans and the explain ring both ride it: the parent must
    end up holding one coherent trace (its own lane plus one per worker
    pid, all under its trace id) and the same decision provenance a
    sequential run would have recorded.
    """

    def outage_evaluate(self, population):
        """The training population with one block silenced mid-window."""
        victim = sorted(population)[0]
        evaluate = dict(population)
        times = evaluate[victim]
        evaluate[victim] = times[(times < DAY * 0.3) | (times >= DAY * 0.7)]
        return victim, evaluate

    def test_worker_spans_merge_into_the_parent_trace(self, population):
        tracer = SpanTracer()
        pipeline = PassiveOutagePipeline(
            aggregation_levels=0, metrics=MetricsRegistry(),
            tracer=tracer, workers=2, shard_chunk=3)
        model = pipeline.train(Family.IPV4, population, 0.0, DAY)
        pipeline.detect(model, population, 0.0, DAY)
        # Foreign spans (pid set) arrived and joined this trace id.
        foreign = [span for span in tracer.spans if span.pid]
        assert foreign
        assert {span.pid for span in foreign} != {os.getpid()}
        assert all(span.args.get("trace_id", tracer.trace_id)
                   == tracer.trace_id for span in foreign)
        document = tracer.chrome_trace()
        assert document["metadata"]["trace_id"] == tracer.trace_id
        # Parent lane plus at least one worker lane.
        assert len({event["pid"]
                    for event in document["traceEvents"]}) >= 2

    def test_sharded_explain_matches_sequential(self, population):
        victim, evaluate = self.outage_evaluate(population)

        def provenance(workers):
            pipeline = PassiveOutagePipeline(
                aggregation_levels=0, metrics=MetricsRegistry(),
                workers=workers, shard_chunk=3)
            pipeline.detector.explain = ExplainLog()
            model = pipeline.train(Family.IPV4, population, 0.0, DAY)
            pipeline.detect(model, evaluate, 0.0, DAY)
            return [{k: v for k, v in event.items() if k != "seq"}
                    for event in pipeline.detector.explain.events()]

        sequential, sharded = provenance(0), provenance(2)
        assert sequential  # the silenced block produced decisions
        assert any(event["block"] == victim for event in sequential)
        canonical = lambda events: sorted(
            json.dumps(event, sort_keys=True) for event in events)
        assert canonical(sequential) == canonical(sharded)
