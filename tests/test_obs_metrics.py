"""Unit tests for the dependency-free metrics registry."""

import json
import math
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    NULL_REGISTRY,
    SNAPSHOT_FORMAT,
    MetricsRegistry,
    diff_snapshots,
    get_registry,
    log_spaced_buckets,
    render_snapshot,
    resolve_registry,
    set_registry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = MetricsRegistry().counter("hits_total")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_refused(self):
        counter = MetricsRegistry().counter("hits_total")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_integer_counts_stay_integers(self):
        counter = MetricsRegistry().counter("hits_total")
        counter.inc(3)
        assert isinstance(counter.value, int)


class TestGauge:
    def test_moves_both_directions(self):
        gauge = MetricsRegistry().gauge("occupancy")
        gauge.set(10)
        gauge.dec(3)
        gauge.inc(1)
        assert gauge.value == 8

    def test_set_to_max_is_a_high_watermark(self):
        gauge = MetricsRegistry().gauge("peak")
        gauge.set_to_max(5)
        gauge.set_to_max(3)
        assert gauge.value == 5
        gauge.set_to_max(9)
        assert gauge.value == 9


class TestHistogram:
    def test_le_bucket_semantics(self):
        histogram = MetricsRegistry().histogram(
            "latency_seconds", buckets=(0.1, 1.0, 10.0))
        histogram.observe(0.1)    # lands in le=0.1 exactly
        histogram.observe(0.5)    # le=1
        histogram.observe(50.0)   # +Inf overflow
        assert histogram._default().bucket_counts() == [1, 1, 0, 1]
        assert histogram._default().cumulative_counts() == [1, 2, 2, 3]

    def test_summary_statistics(self):
        histogram = MetricsRegistry().histogram("x", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 1.0):
            histogram.observe(value)
        child = histogram._default()
        assert child.count == 3
        assert child.sum == pytest.approx(3.0)
        assert child.mean == pytest.approx(1.0)
        assert child.minimum == 0.5
        assert child.maximum == 1.5

    def test_quantiles_clamped_to_observed_range(self):
        histogram = MetricsRegistry().histogram("x", buckets=(1.0, 10.0))
        for _ in range(100):
            histogram.observe(2.0)
        assert histogram.quantile(0.5) == pytest.approx(2.0)
        assert histogram.quantile(0.99) <= 2.0
        assert histogram.quantile(0.0) >= 2.0 - 1e-12

    def test_empty_quantile_is_nan(self):
        histogram = MetricsRegistry().histogram("x")
        assert math.isnan(histogram.quantile(0.5))

    def test_timer_context_manager_observes(self):
        histogram = MetricsRegistry().histogram("x")
        with histogram.time():
            pass
        child = histogram._default()
        assert child.count == 1
        assert child.sum >= 0.0

    def test_default_buckets_span_microseconds_to_kiloseconds(self):
        assert DEFAULT_SECONDS_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_SECONDS_BUCKETS[-1] >= 1e3

    def test_log_spaced_buckets_monotone(self):
        bounds = log_spaced_buckets(1e-3, 10.0, 4)
        assert list(bounds) == sorted(bounds)
        assert len(bounds) == len(set(bounds))

    def test_bad_bucket_spec_rejected(self):
        with pytest.raises(ValueError):
            log_spaced_buckets(0.0, 1.0)
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("x", buckets=(1.0, 1.0))

    def test_nan_observation_counts_without_poisoning(self):
        # A NaN sample must not land in the lowest bucket (NaN compares
        # false against every bound, and bisect would misroute it) and
        # must not poison sum/min/max; it still counts, so "how many
        # observations" stays truthful.
        histogram = MetricsRegistry().histogram("x", buckets=(1.0, 2.0))
        histogram.observe(1.5)
        histogram.observe(float("nan"))
        child = histogram._default()
        assert child.count == 2
        assert child.bucket_counts() == [0, 1, 1]  # NaN -> +Inf bucket
        assert child.sum == pytest.approx(1.5)
        assert child.minimum == 1.5
        assert child.maximum == 1.5

    def test_infinite_observation_lands_in_overflow(self):
        histogram = MetricsRegistry().histogram("x", buckets=(1.0,))
        histogram.observe(float("inf"))
        child = histogram._default()
        assert child.bucket_counts() == [0, 1]
        assert child.count == 1


class TestLabels:
    def test_children_are_independent(self):
        family = MetricsRegistry().counter("events_total",
                                           labelnames=("kind",))
        family.labels(kind="up").inc(2)
        family.labels(kind="down").inc(5)
        assert family.labels(kind="up").value == 2
        assert family.labels(kind="down").value == 5

    def test_wrong_label_names_rejected(self):
        family = MetricsRegistry().counter("events_total",
                                           labelnames=("kind",))
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(direction="up")

    def test_unlabelled_proxy_refused_on_labelled_family(self):
        family = MetricsRegistry().counter("events_total",
                                           labelnames=("kind",))
        with pytest.raises(ValueError, match="address a child"):
            family.inc()


class TestRegistration:
    def test_same_registration_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("runs_total", "help one")
        second = registry.counter("runs_total", "help two")
        assert first is second
        assert first.help == "help one"

    def test_conflicting_kind_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total")

    def test_conflicting_labels_raise(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labelnames=("a",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("x_total", labelnames=("b",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("bad name")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("ok_total", labelnames=("bad-label",))

    def test_get_and_families_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zebra_total")
        registry.gauge("aardvark")
        assert [f.name for f in registry.families()] == ["aardvark",
                                                         "zebra_total"]
        assert registry.get("zebra_total").kind == "counter"
        assert registry.get("missing") is None


def build_reference_registry():
    registry = MetricsRegistry()
    registry.counter("runs_total", "Total runs").inc(7)
    events = registry.counter("events_total", "Events by kind",
                              labelnames=("kind",))
    events.labels(kind="up").inc(2)
    events.labels(kind="down").inc(3)
    registry.gauge("occupancy", "Current occupancy").set(4)
    latency = registry.histogram("latency_seconds", "Latency",
                                 buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        latency.observe(value)
    return registry


class TestSnapshotRestore:
    def test_snapshot_is_deterministic(self):
        first = build_reference_registry().snapshot()
        second = build_reference_registry().snapshot()
        assert first == second
        assert first["format"] == SNAPSHOT_FORMAT

    def test_restore_round_trips_bit_for_bit(self):
        source = build_reference_registry()
        # Through JSON text, exactly as a checkpoint would carry it.
        document = json.loads(source.to_json())
        target = MetricsRegistry()
        target.restore(document)
        assert target.snapshot() == source.snapshot()
        assert target.to_json() == source.to_json()

    def test_restore_preserves_integer_counters(self):
        source = MetricsRegistry()
        source.counter("n_total").inc(41)
        target = MetricsRegistry()
        target.restore(json.loads(source.to_json()))
        value = target.get("n_total").value
        assert value == 41 and isinstance(value, int)

    def test_restore_overwrites_existing_values(self):
        source = build_reference_registry()
        target = MetricsRegistry()
        target.counter("runs_total").inc(100)
        target.restore(source.snapshot())
        assert target.get("runs_total").value == 7

    def test_restore_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="snapshot"):
            MetricsRegistry().restore({"format": "something-else"})

    def test_restore_rejects_bucket_mismatch(self):
        source = MetricsRegistry()
        source.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        snapshot = source.snapshot()
        snapshot["metrics"][0]["buckets"] = [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="buckets"):
            MetricsRegistry().restore(snapshot)

    def test_merge_snapshot_adds_counters_and_histograms(self):
        # The parallel pipeline's fold-in path: worker snapshots merge
        # additively into the parent instead of overwriting it.
        parent = MetricsRegistry()
        parent.counter("n_total").inc(2)
        parent.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        worker = MetricsRegistry()
        worker.counter("n_total").inc(3)
        worker.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        worker.histogram("h", buckets=(1.0, 2.0)).observe(5.0)
        parent.merge_snapshot(json.loads(worker.to_json()))
        value = parent.get("n_total").value
        assert value == 5 and isinstance(value, int)
        child = parent.get("h")._default()
        assert child.count == 3
        assert child.bucket_counts() == [1, 1, 1]
        assert child.sum == pytest.approx(7.0)
        assert child.minimum == 0.5
        assert child.maximum == 5.0

    def test_merge_snapshot_registers_missing_families(self):
        worker = MetricsRegistry()
        worker.counter("only_in_worker_total",
                       labelnames=("stage",)).labels(stage="a").inc(4)
        worker.gauge("g").set(7.0)
        parent = MetricsRegistry()
        parent.merge_snapshot(worker.snapshot())
        family = parent.get("only_in_worker_total")
        assert family.labels(stage="a").value == 4
        assert parent.get("g").value == 7.0

    def test_merge_snapshot_gauges_keep_the_maximum(self):
        # Gauges are levels, not totals: two workers' peak occupancy
        # merges as the larger peak, not the sum.
        parent = MetricsRegistry()
        parent.gauge("g").set(10.0)
        low = MetricsRegistry()
        low.gauge("g").set(3.0)
        parent.merge_snapshot(low.snapshot())
        assert parent.get("g").value == 10.0

    def test_merge_snapshot_is_associative_over_workers(self):
        def worker(n):
            registry = MetricsRegistry()
            registry.counter("n_total").inc(n)
            registry.histogram("h", buckets=(1.0,)).observe(float(n))
            return registry.snapshot()

        one = MetricsRegistry()
        for snap in (worker(1), worker(2), worker(3)):
            one.merge_snapshot(snap)
        other = MetricsRegistry()
        for snap in (worker(3), worker(1), worker(2)):
            other.merge_snapshot(snap)
        assert one.snapshot() == other.snapshot()

    def test_merge_snapshot_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="snapshot"):
            MetricsRegistry().merge_snapshot({"format": "bogus"})

    def test_null_registry_merge_snapshot_is_inert(self):
        NULL_REGISTRY.merge_snapshot(build_reference_registry().snapshot())
        assert NULL_REGISTRY.families() == []

    def test_concurrent_increments_are_not_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("n_total")

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 4000


class TestNullRegistry:
    def test_disabled_and_inert(self):
        assert NULL_REGISTRY.enabled is False
        NULL_REGISTRY.counter("x_total").inc()
        NULL_REGISTRY.gauge("g").set(5)
        NULL_REGISTRY.histogram("h").observe(1.0)
        with NULL_REGISTRY.histogram("h").time():
            pass
        assert NULL_REGISTRY.counter("x_total").value == 0
        assert NULL_REGISTRY.snapshot() == {"format": SNAPSHOT_FORMAT,
                                            "metrics": []}
        assert NULL_REGISTRY.to_prometheus() == ""
        assert NULL_REGISTRY.get("x_total") is None

    def test_labels_chain_to_noop(self):
        child = NULL_REGISTRY.counter("x_total",
                                      labelnames=("a",)).labels(a="b")
        child.inc(10)
        assert child.value == 0


class TestGlobalRegistry:
    def test_default_is_null(self):
        assert get_registry() is NULL_REGISTRY

    def test_set_and_restore(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            assert get_registry() is registry
            assert resolve_registry(None) is registry
            other = MetricsRegistry()
            assert resolve_registry(other) is other
        finally:
            set_registry(previous)
        assert get_registry() is previous

    def test_set_none_resets_to_null(self):
        previous = set_registry(MetricsRegistry())
        set_registry(None)
        assert get_registry() is NULL_REGISTRY
        set_registry(previous)


class TestRenderSnapshot:
    def test_renders_tables(self):
        text = render_snapshot(build_reference_registry().snapshot())
        assert "counters and gauges" in text
        assert "stage latency (histograms)" in text
        assert 'events_total{kind="down"}' in text
        assert "runs_total" in text
        assert "latency_seconds" in text
        # The gauge is marked so operators don't read it as cumulative.
        assert "(gauge)" in text

    def test_empty_snapshot(self):
        text = render_snapshot({"format": SNAPSHOT_FORMAT, "metrics": []})
        assert "empty" in text

    def test_rejects_foreign_document(self):
        with pytest.raises(ValueError, match="snapshot"):
            render_snapshot({"format": "nope"})


class TestGaugeMergePolicy:
    """Per-gauge merge policy: "max" (default watermark) vs "last"."""

    def test_default_policy_is_max(self):
        registry = MetricsRegistry()
        assert registry.gauge("peak").merge == "max"

    def test_max_policy_pins_the_high_watermark(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.gauge("peak").set(9)
        worker.gauge("peak").set(4)
        parent.merge_snapshot(worker.snapshot())
        assert parent.value("peak") == 9

    def test_last_policy_lets_the_delivered_value_win(self):
        # Freshness gauges (watermark lag) must *fall* when a worker
        # catches up; a max fold would pin them at their worst-ever
        # reading forever.
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.gauge("lag_seconds", merge="last").set(120.0)
        worker.gauge("lag_seconds", merge="last").set(3.0)
        parent.merge_snapshot(worker.snapshot())
        assert parent.value("lag_seconds") == 3.0

    def test_policy_travels_inside_the_snapshot(self):
        # A parent that first learns about the family from the wire
        # must still fold it per the declared policy.
        worker = MetricsRegistry()
        worker.gauge("lag_seconds", merge="last").set(50.0)
        parent = MetricsRegistry()
        parent.merge_snapshot(worker.snapshot())
        assert parent.get("lag_seconds").merge == "last"
        worker.gauge("lag_seconds").set(2.0)
        parent.merge_snapshot(worker.snapshot())
        assert parent.value("lag_seconds") == 2.0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="merge policy"):
            MetricsRegistry().gauge("bad", merge="average")

    def test_conflicting_policy_reregistration_rejected(self):
        registry = MetricsRegistry()
        registry.gauge("lag_seconds", merge="last")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("lag_seconds", merge="max")


class TestSnapshotArithmetic:
    """diff: the cumulative-snapshot fold and its rollback."""

    def build(self, hits=0, lag=0.0, observations=()):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", labelnames=("kind",))
        counter.labels(kind="exact").inc(hits)
        registry.gauge("lag_seconds", merge="last").set(lag)
        histogram = registry.histogram("latency_seconds",
                                       buckets=(0.1, 1.0))
        for value in observations:
            histogram.observe(value)
        return registry

    def test_none_previous_ships_the_full_snapshot(self):
        snapshot = self.build(hits=3).snapshot()
        assert diff_snapshots(snapshot, None) == snapshot

    def test_counters_and_histograms_subtract(self):
        registry = self.build(hits=3, observations=(0.05, 0.5))
        before = registry.snapshot()
        registry.get("hits_total").labels(kind="exact").inc(4)
        registry.get("latency_seconds").observe(5.0)
        delta = diff_snapshots(registry.snapshot(), before)
        by_name = {entry["name"]: entry for entry in delta["metrics"]}
        assert by_name["hits_total"]["series"][0]["value"] == 4
        assert by_name["latency_seconds"]["series"][0]["count"] == 1

    def test_unchanged_series_are_dropped(self):
        registry = self.build(hits=3, observations=(0.5,))
        before = registry.snapshot()
        delta = diff_snapshots(registry.snapshot(), before)
        # Only the gauge survives (last-value readings always ship).
        assert [entry["name"] for entry in delta["metrics"]] \
            == ["lag_seconds"]

    def test_telescoping_deltas_reproduce_the_full_fold(self):
        # Folding every delta d_i = s_i - s_{i-1} must land the parent
        # bit-for-bit where folding the final full snapshot would —
        # the incremental aggregation plane's core identity.
        worker = self.build()
        parent_deltas, baseline = MetricsRegistry(), None
        for step in range(1, 4):
            worker.get("hits_total").labels(kind="exact").inc(step)
            worker.get("lag_seconds").set(100.0 / step)
            worker.get("latency_seconds").observe(0.01 * step)
            current = worker.snapshot()
            parent_deltas.merge_snapshot(diff_snapshots(current, baseline))
            baseline = current
        parent_full = MetricsRegistry()
        parent_full.merge_snapshot(worker.snapshot())
        assert parent_deltas.snapshot() == parent_full.snapshot()

    def test_negate_retracts_a_merged_snapshot(self):
        # A lost worker's contribution: diffing the empty snapshot
        # against what was folded negates, and so retracts, every count
        # it added.
        worker = self.build(hits=5, lag=9.0, observations=(0.05, 5.0))
        parent = MetricsRegistry()
        parent.merge_snapshot(worker.snapshot())
        parent.merge_snapshot(diff_snapshots(MetricsRegistry().snapshot(),
                                             worker.snapshot()))
        assert parent.value("hits_total", kind="exact") == 0
        entry = [e for e in parent.snapshot()["metrics"]
                 if e["name"] == "latency_seconds"][0]
        assert entry["series"][0]["count"] == 0
        assert not any(entry["series"][0]["bucket_counts"])
        # Gauges are not retracted: a last-value reading cannot be
        # "un-observed"; the next report refreshes it.
        assert parent.value("lag_seconds") == 9.0

    def test_restart_rollback_does_not_double_count(self):
        # The supervisor's restart sequence in miniature: fold two
        # cumulative snapshots by difference, then the restarted
        # worker's (restored from an older checkpoint, then advanced):
        # the difference rolls the replayed stretch back, so counts
        # match a clean single-incarnation run exactly.
        worker = self.build()
        parent, folded = MetricsRegistry(), None
        for _ in range(2):
            worker.get("hits_total").labels(kind="exact").inc(2)
            current = worker.snapshot()
            parent.merge_snapshot(diff_snapshots(current, folded))
            folded = current
        # The worker dies; the checkpoint held only the first increment.
        restarted = self.build(hits=2)  # restored from the checkpoint
        current = restarted.snapshot()
        parent.merge_snapshot(diff_snapshots(current, folded))
        assert parent.value("hits_total", kind="exact") == 2
        restarted.get("hits_total").labels(kind="exact").inc(2)
        parent.merge_snapshot(diff_snapshots(restarted.snapshot(), current))
        assert parent.value("hits_total", kind="exact") == 4

    def test_diff_rejects_wrong_format(self):
        good = MetricsRegistry().snapshot()
        with pytest.raises(ValueError, match="snapshot"):
            diff_snapshots({"format": "nope"}, None)
        with pytest.raises(ValueError, match="snapshot"):
            diff_snapshots(good, {"format": "nope"})


class TestConcurrentExposition:
    def test_exposition_during_label_child_creation(self):
        # A scrape must never crash or emit a torn line while worker
        # threads are minting new label children mid-render.
        registry = MetricsRegistry()
        family = registry.counter("events_total", labelnames=("kind",))
        stop = threading.Event()
        errors = []

        def mint(prefix):
            try:
                for index in range(500):
                    if stop.is_set():
                        break
                    family.labels(kind=f"{prefix}{index}").inc()
            except Exception as error:  # pragma: no cover — the assert
                errors.append(error)

        workers = [threading.Thread(target=mint, args=(chr(97 + i),))
                   for i in range(4)]
        for worker in workers:
            worker.start()
        try:
            rendered = [registry.to_prometheus() for _ in range(20)]
        finally:
            stop.set()
            for worker in workers:
                worker.join()
        assert not errors
        for text in rendered:
            for line in text.splitlines():
                if line.startswith("#"):
                    continue
                name, value = line.rsplit(" ", 1)
                assert name.startswith("events_total")
                float(value)  # every sample line is complete
        final = registry.to_prometheus()
        assert final.count('kind="') == sum(
            len(family.series()) for family in [registry.get("events_total")])
