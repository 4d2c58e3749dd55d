"""Chaos suite for supervised shard execution.

The contract under test: process-fatal poison (a worker that
segfaults, hangs, or balloons its RSS) must degrade to a *lost block*
— dead-lettered under ``stage="supervision"``, isolated by bisection,
accounted for in a degraded coverage report — never to a dead run.
Transient process faults must be absorbed by retries; surviving blocks
must be bit-for-bit identical to the sequential guarded path; and a
killed supervised run must resume without re-paying completed retries.

Faults reach spawned workers through the test-only environment channel
(:data:`repro.testing.faults.PROCESS_FAULT_ENV`), so every test here
injects via ``monkeypatch.setenv`` and the production path stays cold.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.core.checkpoint import read_shard_manifest, write_shard_manifest
from repro.core.pipeline import PassiveOutagePipeline
from repro.core.serialize import block_result_to_dict
from repro.net.addr import Family
from repro.obs.metrics import MetricsRegistry
from repro.parallel import SupervisionPolicy
from repro.testing.faults import (
    PROCESS_FAULT_ENV,
    balloon_rss_on_block,
    crash_on_block,
    hang_on_block,
    process_fault_env,
)

pytestmark = pytest.mark.faults

WINDOW = 7200.0

#: Backoff tuned for test wall-clock; semantics identical to defaults.
FAST_BACKOFF = dict(backoff_base=0.01, backoff_factor=2.0,
                    backoff_cap=0.05)


def poisson_times(rng, rate, start, end):
    n = rng.poisson(rate * (end - start))
    return np.sort(rng.uniform(start, end, n))


def make_population(n_blocks, seed=5, rate=0.05):
    rng = np.random.default_rng(seed)
    return {key << 8: poisson_times(rng, rate, 0.0, WINDOW)
            for key in range(n_blocks)}


def set_faults(monkeypatch, *hooks, counter_dir=None):
    for key, value in process_fault_env(
            *hooks, counter_dir=counter_dir).items():
        monkeypatch.setenv(key, value)


def supervised(workers, *, shard_chunk=4, metrics=None, checkpoint=None,
               **policy):
    policy.setdefault("timeout", 60.0)
    for key, value in FAST_BACKOFF.items():
        policy.setdefault(key, value)
    return PassiveOutagePipeline(
        aggregation_levels=0, workers=workers, shard_chunk=shard_chunk,
        metrics=metrics or MetricsRegistry(),
        shard_checkpoint_dir=checkpoint,
        supervision=SupervisionPolicy(**policy))


@pytest.fixture(scope="module")
def population():
    return make_population(12)


@pytest.fixture(scope="module")
def sequential(population):
    """Sequential guarded baseline: the ground truth every chaos run
    must match on surviving blocks."""
    pipeline = PassiveOutagePipeline(workers=0, aggregation_levels=0)
    model = pipeline.train(Family.IPV4, population, 0.0, WINDOW)
    result = pipeline.detect(model, population, 0.0, WINDOW)
    return model, result


def assert_surviving_blocks_match(result, baseline, lost):
    assert sorted(result.blocks) == sorted(
        key for key in baseline.blocks if key not in lost)
    for key in result.blocks:
        assert (block_result_to_dict(result.blocks[key])
                == block_result_to_dict(baseline.blocks[key])), hex(key)


class TestCrashContainment:
    def test_crash_is_bisected_to_single_lost_block(self, population,
                                                    sequential,
                                                    monkeypatch):
        _, baseline = sequential
        victim = sorted(population)[5]
        set_faults(monkeypatch, crash_on_block(victim))
        registry = MetricsRegistry()
        pipeline = supervised(2, metrics=registry, retries=1)
        model = pipeline.train(Family.IPV4, population, 0.0, WINDOW)

        coverage = model.health.coverage
        assert coverage is not None and coverage.degraded
        assert coverage.blocks_lost == [victim]
        assert coverage.blocks_planned == len(population)
        assert coverage.blocks_delivered == len(population) - 1
        assert model.health.accounts_for(population.keys())
        letters = model.health.dead_letters.by_stage("supervision")
        assert [entry.block_key for entry in letters] == [victim]
        assert letters[0].error_type == "ShardCrash"
        assert victim not in model.parameters

        attempts = registry.get("shard_attempts_total")
        assert attempts.labels(outcome="crash").value >= 2
        assert attempts.labels(outcome="ok").value >= 1
        assert registry.get("shard_bisections_total").value >= 1
        assert registry.get("shard_retries_total").value >= 1
        assert registry.get("supervision_lost_blocks").value == 1

        # Bisection lineage must appear in the attempt history: the
        # victim ends as a single-block dotted unit, not a whole shard.
        lost_units = [record.unit for record in coverage.shard_attempts
                      if record.status == "lost"]
        assert len(lost_units) == 1 and "." in lost_units[0]

        result = pipeline.detect(model, population, 0.0, WINDOW)
        assert_surviving_blocks_match(result, baseline, {victim})

    def test_flaky_crash_absorbed_by_retry(self, population, sequential,
                                           monkeypatch, tmp_path):
        _, baseline = sequential
        victim = sorted(population)[3]
        set_faults(monkeypatch, crash_on_block(victim, times=1),
                   counter_dir=str(tmp_path))
        registry = MetricsRegistry()
        pipeline = supervised(2, metrics=registry, retries=2)
        model = pipeline.train(Family.IPV4, population, 0.0, WINDOW)
        result = pipeline.detect(model, population, 0.0, WINDOW)

        coverage = model.health.coverage
        assert not coverage.degraded
        assert coverage.blocks_delivered == len(population)
        assert not model.health.dead_letters.by_stage("supervision")
        assert registry.get("shard_retries_total").value >= 1
        # Exactly one unit needed a second attempt (crash, then ok).
        flaky = [record for record in coverage.shard_attempts
                 if record.outcomes == ["crash", "ok"]]
        assert len(flaky) == 1
        assert 2 in coverage.retry_histogram()
        assert_surviving_blocks_match(result, baseline, set())


class TestFaultSpecPerLaunch:
    def test_spec_is_read_at_each_launch_not_inherited(self, monkeypatch):
        """Children fork from a long-lived forkserver whose environment
        froze at its first start.  The fault spec must travel with each
        launch: clean, faulty and clean runs in one process must lose
        the victim in the faulty run only, whichever environment the
        server happened to start with."""
        population = make_population(6)
        victim = sorted(population)[3]
        lost = []
        for faulty in (False, True, False):
            if faulty:
                set_faults(monkeypatch, crash_on_block(victim))
            else:
                monkeypatch.delenv(PROCESS_FAULT_ENV, raising=False)
            pipeline = supervised(2, shard_chunk=2, retries=0)
            model = pipeline.train(Family.IPV4, population, 0.0, WINDOW)
            lost.append(model.health.coverage.blocks_lost)
        assert lost == [[], [victim], []]


class TestHangAndOOM:
    def test_hang_is_reclaimed_by_deadline(self, monkeypatch):
        population = make_population(6)
        victim = sorted(population)[2]
        # The injected sleep is 600s; only the supervisor's deadline
        # can reclaim the worker before that.
        set_faults(monkeypatch, hang_on_block(victim, seconds=600.0))
        pipeline = supervised(2, shard_chunk=1, timeout=1.0, retries=1)
        clock = time.monotonic()
        model = pipeline.train(Family.IPV4, population, 0.0, WINDOW)
        elapsed = time.monotonic() - clock

        # timeout * attempts + backoff + spawn overhead, with a wide
        # CI allowance — the point is "minutes, not the 600s sleep".
        assert elapsed < 60.0
        coverage = model.health.coverage
        assert coverage.blocks_lost == [victim]
        letters = model.health.dead_letters.by_stage("supervision")
        assert [entry.error_type for entry in letters] == ["ShardHang"]
        assert model.health.accounts_for(population.keys())

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="RSS ceiling needs /proc")
    def test_oom_is_killed_by_rss_ceiling(self, monkeypatch):
        population = make_population(6)
        victim = sorted(population)[4]
        set_faults(monkeypatch,
                   balloon_rss_on_block(victim, mb=600.0,
                                        hold_seconds=600.0))
        pipeline = supervised(2, shard_chunk=1, timeout=120.0,
                              retries=0, max_rss_mb=250.0)
        clock = time.monotonic()
        model = pipeline.train(Family.IPV4, population, 0.0, WINDOW)
        elapsed = time.monotonic() - clock

        assert elapsed < 120.0
        coverage = model.health.coverage
        assert coverage.blocks_lost == [victim]
        letters = model.health.dead_letters.by_stage("supervision")
        assert [entry.error_type for entry in letters] == ["ShardOOM"]
        assert model.health.accounts_for(population.keys())


class TestResume:
    def test_resume_carries_attempt_history_mid_retry(self, population,
                                                      sequential,
                                                      tmp_path):
        """A unit killed mid-retry resumes with its failures on the
        books: the manifest's attempt history survives, and the retry
        budget is not reset by the restart."""
        _, baseline = sequential
        checkpoint = tmp_path / "shards"
        pipeline = supervised(1, checkpoint=str(checkpoint), retries=1)
        pipeline.train(Family.IPV4, population, 0.0, WINDOW)

        manifest = read_shard_manifest(str(checkpoint))
        units = manifest["supervision"]["units"]
        assert all(entry["status"] == "done" for entry in units.values())
        # Simulate a run killed between a failed attempt and its retry:
        # the attempt is recorded, the unit is pending, no result file.
        units["00001"] = {"attempts": ["crash"], "status": "pending"}
        write_shard_manifest(str(checkpoint), manifest)
        (checkpoint / "shard-00001.json").unlink()

        resumed = supervised(1, checkpoint=str(checkpoint), retries=1)
        model = resumed.train(Family.IPV4, population, 0.0, WINDOW)
        record = {r.unit: r for r in
                  model.health.coverage.shard_attempts}["00001"]
        assert record.outcomes == ["crash", "ok"]
        assert record.status == "done"
        assert not model.health.coverage.degraded
        result = resumed.detect(model, population, 0.0, WINDOW)
        assert_surviving_blocks_match(result, baseline, set())

    def test_lost_verdict_survives_resume_without_recompute(
            self, population, monkeypatch, tmp_path):
        victim = sorted(population)[7]
        checkpoint = tmp_path / "shards"
        set_faults(monkeypatch, crash_on_block(victim))
        first = supervised(2, checkpoint=str(checkpoint), retries=1)
        model = first.train(Family.IPV4, population, 0.0, WINDOW)
        assert model.health.coverage.blocks_lost == [victim]
        before = read_shard_manifest(str(checkpoint))["supervision"]

        # Resume with the fault gone: the lost verdict was paid for in
        # full by the first run and must be honoured, not re-litigated.
        monkeypatch.delenv("REPRO_PROCESS_FAULTS")
        second = supervised(2, checkpoint=str(checkpoint), retries=1)
        resumed = second.train(Family.IPV4, population, 0.0, WINDOW)
        assert resumed.health.coverage.blocks_lost == [victim]
        after = read_shard_manifest(str(checkpoint))["supervision"]
        assert after == before  # no attempt re-paid, no state churn
        assert resumed.parameters.keys() == model.parameters.keys()


class TestEquivalence:
    def test_worker_count_does_not_change_surviving_output(
            self, population, sequential, monkeypatch):
        _, baseline = sequential
        victim = sorted(population)[9]
        set_faults(monkeypatch, crash_on_block(victim))

        outputs = []
        for workers in (1, 4):
            pipeline = supervised(workers, retries=1)
            model = pipeline.train(Family.IPV4, population, 0.0, WINDOW)
            result = pipeline.detect(model, population, 0.0, WINDOW)
            health = result.health
            health.dead_letters.canonicalize()
            document = health.as_dict()
            for stage in document["stages"]:
                stage["seconds"] = 0.0
            outputs.append((model, result, document))

        (model_1, result_1, health_1), (model_4, result_4, health_4) = outputs
        assert model_1.parameters == model_4.parameters
        assert sorted(result_1.blocks) == sorted(result_4.blocks)
        for key in result_1.blocks:
            assert (block_result_to_dict(result_1.blocks[key])
                    == block_result_to_dict(result_4.blocks[key]))
        # Full health documents — including the coverage section and
        # every unit's attempt history — are worker-count independent.
        assert health_1 == health_4
        assert_surviving_blocks_match(result_1, baseline, {victim})


class TestAcceptance:
    def test_chaos_proof_1536_blocks(self, monkeypatch, tmp_path):
        """The ISSUE's acceptance scenario: 1 poisoned block in 1536,
        4 workers — the run completes, bisection quarantines exactly
        that block, the degraded report accounts for the full
        population, and every surviving block matches the sequential
        guarded output bit-for-bit."""
        population = make_population(1536, seed=17)
        victim = sorted(population)[1000]

        seq = PassiveOutagePipeline(workers=0, aggregation_levels=0)
        model = seq.train(Family.IPV4, population, 0.0, WINDOW)
        baseline = seq.detect(model, population, WINDOW, WINDOW + 3600.0)

        set_faults(monkeypatch, crash_on_block(victim))
        registry = MetricsRegistry()
        pipeline = supervised(4, shard_chunk=None, metrics=registry,
                              retries=1)
        result = pipeline.detect(model, population, WINDOW,
                                 WINDOW + 3600.0)

        coverage = result.health.coverage
        assert coverage.blocks_lost == [victim]
        assert coverage.blocks_planned == len(population)
        measurable = {key for key, params in model.parameters.items()
                      if params.measurable}
        assert result.health.accounts_for(measurable)
        letters = result.health.dead_letters.by_stage("supervision")
        assert [entry.block_key for entry in letters] == [victim]
        assert registry.get("shard_bisections_total").value >= 1
        assert registry.get("supervision_lost_blocks").value == 1
        assert_surviving_blocks_match(result, baseline, {victim})

        # CI uploads the degraded-run health report as an artifact.
        artifact = os.environ.get("REPRO_CHAOS_HEALTH_OUT")
        if artifact:
            with open(artifact, "w", encoding="utf-8") as handle:
                handle.write(result.health.to_json())
