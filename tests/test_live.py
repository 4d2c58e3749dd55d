"""Partitioned live detection: engine, plan, equivalence, checkpoints.

The contract under test is the equivalence claim from the design:
partitioning the live keyspace across worker processes is a pure
deployment choice — per-block verdicts, merged health, and every
deterministic counter must be identical to the single-process
streaming path, for any partition count.  Alongside it: the rolling
drift auditor's verdict arithmetic, hot-swap persistence through
rotated checkpoints, and the manifest renderer's golden output.
"""

import json
import math
import os

import numpy as np
import pytest

from repro.cli import main
from repro.core.checkpoint import (
    CheckpointFormatError,
    load_checkpoint_rotated,
    save_checkpoint_rotated,
)
from repro.core.detector import StreamingDetector
from repro.core.drift import DriftVerdict, RollingRateAuditor, retune_block
from repro.core.history import train_history
from repro.core.parameters import ParameterPlanner
from repro.core.serialize import load_model
from repro.live import (
    DriftConfig,
    LiveBlockEngine,
    LivePartitionSupervisor,
)
from repro.net.addr import Family
from repro.obs.metrics import MetricsRegistry
from repro.parallel import SupervisionPolicy
from repro.telescope.capture import CaptureReader
from repro.telescope.records import Observation
from repro.telescope.reorder import LatePolicy, ReorderBuffer

DAY = 86400.0

#: Deterministic comparison set: everything the stream's content pins.
#: (Gauges — lag, occupancy — and wall-clock histograms excluded.)
COUNTERS = [
    "stream_observations_total",
    "stream_bins_total",
    "drift_blocks_flagged_total",
    "drift_retunes_failed_total",
    "drift_hot_swaps_total",
]

DRIFT = DriftConfig(audit_every=7200.0)


@pytest.fixture(scope="module")
def live_setup(tmp_path_factory):
    """A two-day capture and a model trained on its first day."""
    root = tmp_path_factory.mktemp("live")
    capture = str(root / "capture.pobs")
    model_path = str(root / "model.json")
    assert main(["simulate", "--blocks", "28", "--days", "2",
                 "--seed", "11", "--out", capture]) == 0
    assert main(["train", capture, "--train-end", str(DAY),
                 "--out", model_path]) == 0
    return capture, load_model(model_path)


@pytest.fixture(scope="module")
def foreign_family_setup(tmp_path_factory):
    """An IPv4 model over a capture that also carries IPv6 traffic."""
    root = tmp_path_factory.mktemp("foreign")
    capture = str(root / "capture.pobs")
    model_path = str(root / "model.json")
    assert main(["simulate", "--blocks", "12", "--v6-blocks", "6",
                 "--days", "2", "--seed", "5", "--out", capture]) == 0
    assert main(["train", capture, "--train-end", str(DAY),
                 "--out", model_path]) == 0
    return capture, load_model(model_path)


def run_single(model, capture, *, horizon=2.0, drift=DRIFT):
    registry = MetricsRegistry()
    detector = StreamingDetector(model.family, model.histories,
                                 model.parameters, model.train_end,
                                 sentinel=None, metrics=registry)
    buffer = (ReorderBuffer(horizon, LatePolicy.COUNT, metrics=registry)
              if horizon > 0 else None)
    engine = LiveBlockEngine(detector, buffer=buffer, drift=drift)
    with CaptureReader(capture) as reader:
        for observation in reader:
            if observation.time < detector.start:
                continue
            engine.feed(observation)
    engine.flush()
    results = detector.finalize(detector.last_time)
    return results, detector.last_health, registry


def run_partitioned(model, capture, checkpoint_dir, *, partitions=4,
                    horizon=2.0, drift=DRIFT, **kwargs):
    registry = MetricsRegistry()
    os.makedirs(checkpoint_dir, exist_ok=True)
    supervisor = LivePartitionSupervisor(
        model, partitions=partitions,
        policy=SupervisionPolicy(retries=1),
        checkpoint_dir=str(checkpoint_dir), checkpoint_every=3600.0,
        reorder_horizon=horizon, drift=drift, metrics=registry, **kwargs)
    result = supervisor.run(capture)
    return result, registry, supervisor


def event_tuples(results, min_duration=300.0):
    return [(key, event.start, event.end)
            for key in sorted(results)
            for event in results[key].timeline.events(min_duration)]


def comparable_health(report):
    """Health dict minus the fields partitioning legitimately changes:
    stage seconds are per-process CPU time, and only supervised runs
    have a coverage section."""
    document = report.as_dict()
    document.pop("coverage", None)
    for stage in document.get("stages", []):
        stage["seconds"] = 0.0
    return document


class TestEquivalence:
    def test_partitioned_matches_single_process(self, live_setup, tmp_path):
        capture, model = live_setup
        single_results, single_health, single_reg = run_single(
            model, capture)
        result, part_reg, _ = run_partitioned(
            model, capture, tmp_path / "ckpt")

        assert sorted(single_results) == sorted(result.results)
        assert event_tuples(single_results) == event_tuples(result.results)
        assert (comparable_health(single_health)
                == comparable_health(result.health))
        for name in COUNTERS:
            assert single_reg.value(name) == part_reg.value(name), name
        for direction in ("down", "up"):
            assert (single_reg.value("stream_transitions_total",
                                     direction=direction)
                    == part_reg.value("stream_transitions_total",
                                      direction=direction))
        for outcome in ("admitted", "late_admitted", "late_dropped"):
            assert (single_reg.value("reorder_records_total",
                                     outcome=outcome)
                    == part_reg.value("reorder_records_total",
                                      outcome=outcome)), outcome
        assert result.health.accounts_for(model.measurable_keys)
        assert not result.degraded
        assert result.restarts == 0

    @pytest.mark.parametrize("setup", ["live_setup", "foreign_family_setup"])
    def test_cli_live_matches_partitioned_cli(self, setup, tmp_path, capsys,
                                              request):
        """The single-process CLI path against partitioned workers: the
        same events, counters and ``records:`` line, on a capture of
        the model's family and on one that also carries IPv6 records
        the IPv4 model has no blocks for."""
        capture, _ = request.getfixturevalue(setup)
        model_path = os.path.join(os.path.dirname(capture), "model.json")
        runs = {}
        for name, extra in (("single", []),
                            ("partitioned",
                             ["--partitions", "4", "--checkpoint",
                              str(tmp_path / "parts")])):
            metrics_path = tmp_path / f"{name}.metrics.json"
            capsys.readouterr()
            assert main(["live", capture, "--model", model_path,
                         "--reorder-horizon", "2.0",
                         "--drift-audit-every", "7200",
                         "--metrics-out", str(metrics_path)] + extra) == 0
            out = capsys.readouterr().out
            snapshot = json.loads(metrics_path.read_text())
            counters = {
                (family["name"], tuple(series["labels"])): series["value"]
                for family in snapshot["metrics"]
                if family["name"] in COUNTERS + ["stream_transitions_total",
                                                 "reorder_records_total"]
                for series in family["series"]}
            runs[name] = ([line for line in out.splitlines()
                           if line.startswith(("  block", "replayed",
                                               "records:"))
                           or line.endswith("outage events >= 300s")],
                          counters)
        assert runs["single"] == runs["partitioned"]
        assert runs["single"][0] and runs["single"][1]

    def test_partition_count_is_a_deployment_choice(self, live_setup,
                                                    tmp_path):
        capture, model = live_setup
        two, reg_two, sup_two = run_partitioned(
            model, capture, tmp_path / "two", partitions=2)
        five, reg_five, sup_five = run_partitioned(
            model, capture, tmp_path / "five", partitions=5)
        # Different plans (the digest names the actual chunking)...
        assert sup_two.digest != sup_five.digest
        # ...same verdicts, same deterministic counters.
        assert event_tuples(two.results) == event_tuples(five.results)
        assert (comparable_health(two.health)
                == comparable_health(five.health))
        for name in COUNTERS:
            assert reg_two.value(name) == reg_five.value(name), name

    def test_plan_is_deterministic(self, live_setup):
        _, model = live_setup
        first = LivePartitionSupervisor(model, partitions=3)
        second = LivePartitionSupervisor(model, partitions=3)
        assert first.digest == second.digest
        assert ([p.keys for p in first.partitions]
                == [p.keys for p in second.partitions])


class TestRollingAuditor:
    def make(self, **kwargs):
        kwargs.setdefault("start", 0.0)
        kwargs.setdefault("audit_every", 3600.0)
        kwargs.setdefault("min_arrivals", 20)
        return RollingRateAuditor(**kwargs)

    def test_rate_rise_flags(self):
        auditor = self.make()
        for t in np.arange(0.0, 3600.0, 10.0):
            auditor.note(7, t)
        drifted = auditor.audit(3600.0, lambda key: True,
                                lambda key: 0.01)
        assert drifted[7].verdict is DriftVerdict.RATE_ROSE
        assert drifted[7].observed_rate == pytest.approx(0.1)

    def test_rate_fall_flags(self):
        auditor = self.make()
        for t in np.arange(0.0, 3600.0, 100.0):
            auditor.note(7, t)
        drifted = auditor.audit(3600.0, lambda key: True,
                                lambda key: 0.1)
        assert drifted[7].verdict is DriftVerdict.RATE_FELL

    def test_stable_blocks_are_omitted(self):
        auditor = self.make()
        for t in np.arange(0.0, 3600.0, 10.0):
            auditor.note(7, t)
        assert auditor.audit(3600.0, lambda key: True,
                             lambda key: 0.1) == {}

    def test_ineligible_and_sparse_blocks_skipped(self):
        auditor = self.make()
        for t in np.arange(0.0, 3600.0, 10.0):
            auditor.note(7, t)   # dense but ineligible (mid-outage)
        auditor.note(8, 100.0)   # eligible but sparse
        assert auditor.audit(3600.0, lambda key: key == 8,
                             lambda key: 0.01) == {}

    def test_window_prunes_old_arrivals(self):
        auditor = self.make(window_seconds=1800.0)
        for t in np.arange(0.0, 3600.0, 10.0):
            auditor.note(7, t)
        auditor.audit(3600.0, lambda key: True, lambda key: 1.0)
        assert min(auditor.arrivals(7)) >= 1800.0

    def test_checkpoint_roundtrip_audits_identically(self):
        auditor = self.make()
        for t in np.arange(0.0, 3600.0, 10.0):
            auditor.note(7, t)
        clone = RollingRateAuditor.from_dict(
            json.loads(json.dumps(auditor.to_dict())))
        assert clone.next_boundary == auditor.next_boundary
        kwargs = (lambda key: True, lambda key: 0.01)
        assert (sorted(auditor.audit(3600.0, *kwargs))
                == sorted(clone.audit(3600.0, *kwargs)))


class TestDriftHotSwap:
    def build_engine(self, audit_every=3600.0):
        rng = np.random.default_rng(21)
        times = np.sort(rng.uniform(0.0, DAY, int(0.05 * DAY)))
        history = train_history(times, 0.0, DAY)
        params = ParameterPlanner().plan_block(history)
        assert params.measurable
        registry = MetricsRegistry()
        detector = StreamingDetector(Family.IPV4, {7: history}, {7: params},
                                     DAY, sentinel=None, metrics=registry)
        engine = LiveBlockEngine(detector,
                                 drift=DriftConfig(audit_every=audit_every))
        return engine, detector, registry

    def feed_uniform(self, engine, start, end, gap):
        for t in np.arange(start, end, gap):
            engine.feed(Observation(float(t), Family.IPV4, 7 << 8))

    def test_rate_rise_hot_swaps_the_model(self):
        engine, detector, registry = self.build_engine()
        # Live traffic runs at 5x the trained rate: flagged at an audit
        # boundary, retuned from the rolling window, swapped in at the
        # next bin close.
        self.feed_uniform(engine, DAY, DAY + 6 * 3600.0, 4.0)
        assert registry.value("drift_blocks_flagged_total") >= 1
        assert registry.value("drift_hot_swaps_total") >= 1
        assert 7 in detector.retuned
        history, params = detector.retuned[7]
        assert history.mean_rate == pytest.approx(0.25, rel=0.05)
        assert detector._states[7].params is params

    def test_swap_survives_rotated_checkpoint(self, tmp_path):
        from repro.core.pipeline import TrainedModel

        engine, detector, registry = self.build_engine()
        self.feed_uniform(engine, DAY, DAY + 6 * 3600.0, 4.0)
        assert 7 in detector.retuned
        path = tmp_path / "drift.ckpt.json"
        save_checkpoint_rotated(detector, path,
                                extra=engine.checkpoint_extra(seq=41))

        # Restore against the ORIGINAL (pre-drift) model: the retuned
        # history/params must come back from the checkpoint, not revert.
        rng = np.random.default_rng(21)
        original = train_history(
            np.sort(rng.uniform(0.0, DAY, int(0.05 * DAY))), 0.0, DAY)
        model = TrainedModel(
            family=Family.IPV4, histories={7: original},
            parameters={7: ParameterPlanner().plan_block(original)},
            train_start=0.0, train_end=DAY)
        restored = load_checkpoint_rotated(path, model)
        assert 7 in restored.retuned
        assert (restored.retuned[7][0].mean_rate
                == pytest.approx(detector.retuned[7][0].mean_rate))
        assert (restored._states[7].params.bin_seconds
                == detector._states[7].params.bin_seconds)
        assert restored.restored_extra["seq"] == 41

    def test_retune_rejects_poisoned_window(self):
        with pytest.raises(Exception):
            retune_block(np.array([1.0, float("nan")]), 0.0, 3600.0)


class TestCheckpointRotation:
    def make_detector(self):
        rng = np.random.default_rng(5)
        times = np.sort(rng.uniform(0.0, DAY, 2000))
        history = train_history(times, 0.0, DAY)
        params = ParameterPlanner().plan_block(history)
        from repro.core.pipeline import TrainedModel

        detector = StreamingDetector(Family.IPV4, {3: history}, {3: params},
                                     DAY, sentinel=None)
        model = TrainedModel(family=Family.IPV4, histories={3: history},
                             parameters={3: params},
                             train_start=0.0, train_end=DAY)
        return detector, model

    def test_keeps_last_n_generations(self, tmp_path):
        detector, model = self.make_detector()
        base = tmp_path / "live.ckpt.json"
        for step in range(5):
            detector.observe(Observation(DAY + 100.0 * (step + 1),
                                         Family.IPV4, 3 << 8))
            save_checkpoint_rotated(detector, base, keep=3,
                                    extra={"seq": step})
        assert base.exists()
        assert (tmp_path / "live.ckpt.json.1").exists()
        assert (tmp_path / "live.ckpt.json.2").exists()
        assert not (tmp_path / "live.ckpt.json.3").exists()
        newest = load_checkpoint_rotated(base, model)
        assert newest.restored_extra["seq"] == 4

    def test_falls_back_past_corrupt_newest(self, tmp_path):
        detector, model = self.make_detector()
        base = tmp_path / "live.ckpt.json"
        for step in range(3):
            detector.observe(Observation(DAY + 100.0 * (step + 1),
                                         Family.IPV4, 3 << 8))
            save_checkpoint_rotated(detector, base, keep=3,
                                    extra={"seq": step})
        base.write_text("{ truncated mid-wri")
        restored = load_checkpoint_rotated(base, model)
        assert restored.restored_extra["seq"] == 1  # previous generation

    def test_all_corrupt_raises_format_error(self, tmp_path):
        detector, model = self.make_detector()
        base = tmp_path / "live.ckpt.json"
        save_checkpoint_rotated(detector, base, keep=2)
        base.write_text("garbage")
        (tmp_path / "live.ckpt.json.1").write_text("also garbage")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint_rotated(base, model, keep=2)

    def test_missing_everything_raises_file_not_found(self, tmp_path):
        _, model = self.make_detector()
        with pytest.raises(FileNotFoundError):
            load_checkpoint_rotated(tmp_path / "absent.ckpt.json", model)


class TestRegistryValue:
    def test_reads_without_registering(self):
        registry = MetricsRegistry()
        assert registry.value("never_registered_total") is None
        assert registry.get("never_registered_total") is None  # no side effect

    def test_counter_gauge_and_labels(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", "hits").inc(3)
        registry.counter("moves_total", "moves",
                         labelnames=("direction",)).labels(
                             direction="up").inc(2)
        assert registry.value("hits_total") == 3
        assert registry.value("moves_total", direction="up") == 2
        assert registry.value("moves_total", direction="down") is None
        assert registry.value("moves_total") is None  # label set mismatch
        assert registry.value("hits_total", direction="up") is None

    def test_histograms_have_no_single_value(self):
        registry = MetricsRegistry()
        registry.histogram("lat_seconds", "latency").observe(0.5)
        assert registry.value("lat_seconds") is None


GOLDEN_MANIFEST = {
    "format": "repro-live-manifest-v1",
    "plan_digest": "deadbeefcafe0123",
    "family": 4,
    "start": 86400.0,
    "status": "degraded",
    "global_watermark": 90000.0,
    "partitions": [
        {"index": 0, "unit": "00000", "blocks": 8, "measurable": 7,
         "status": "done", "watermark": 172800.0, "restarts": 0,
         "outcomes": ["ok"], "windows": 1025, "drift_swaps": 1,
         "checkpoint": "partition-00000.ckpt.json"},
        {"index": 1, "unit": "00001", "blocks": 8, "measurable": 8,
         "status": "lost", "watermark": 90000.0, "restarts": 3,
         "outcomes": ["crash", "crash", "crash"], "windows": 41,
         "drift_swaps": 0, "checkpoint": "partition-00001.ckpt.json"},
    ],
}

GOLDEN_RENDERED = """\
live run: status=degraded family=IPv4 plan=deadbeefcafe
  start t=86,400.0s, global watermark t=90,000.0s (2 partitions)
partitions:
  00000: done        8 blocks (7 measurable), watermark t=172,800.0s, \
1025 windows, 0 restarts, 1 drift swaps
  00001: lost        8 blocks (8 measurable), watermark t=90,000.0s, \
41 windows, 3 restarts, 0 drift swaps [crash,crash,crash]"""


class TestManifestInspect:
    def test_golden_render(self):
        from repro.cli import _render_live_manifest

        assert _render_live_manifest(GOLDEN_MANIFEST) == GOLDEN_RENDERED

    def test_inspect_cli_dispatches_on_format(self, tmp_path, capsys):
        path = tmp_path / "live-manifest.json"
        path.write_text(json.dumps(GOLDEN_MANIFEST))
        assert main(["inspect", str(path)]) == 0
        assert capsys.readouterr().out.strip() == GOLDEN_RENDERED


class TestPartitionedCLI:
    def test_requires_checkpoint_directory(self, live_setup, capsys):
        capture, _ = live_setup
        model_path = os.path.join(os.path.dirname(capture), "model.json")
        assert main(["live", capture, "--model", model_path,
                     "--partitions", "2"]) == 1
        assert "--checkpoint" in capsys.readouterr().err

    def test_validates_partition_arguments(self, live_setup):
        _, model = live_setup
        with pytest.raises(ValueError):
            LivePartitionSupervisor(model, partitions=0)
        with pytest.raises(ValueError):
            LivePartitionSupervisor(model, partition_chunk=-1)
        with pytest.raises(ValueError):
            LivePartitionSupervisor(model, partitions=2,
                                    reorder_horizon=-1.0)


class TestWorkerCaptureErrors:
    def test_corrupt_frame_raises_the_single_process_error(self, live_setup,
                                                           tmp_path):
        """Workers read the capture themselves; a corrupt frame reaches
        the caller as the reader's own error, not as a worker failure."""
        from repro.telescope.capture import CaptureCorruptionError

        capture, model = live_setup
        records = (os.path.getsize(capture) - 8) // 27
        cut = tmp_path / "cut.pobs"
        with open(capture, "rb") as handle:
            cut.write_bytes(handle.read(8 + 27 * (records * 3 // 4) + 13))
        with pytest.raises(CaptureCorruptionError) as single:
            list(CaptureReader(str(cut)))
        with pytest.raises(CaptureCorruptionError) as partitioned:
            LivePartitionSupervisor(model, partitions=2,
                                    reorder_horizon=2.0).run(str(cut))
        assert str(partitioned.value) == str(single.value)


class TestLiveStatusAccessor:
    """`live_status()` is the single source the manifest/health render."""

    def test_manifest_and_health_agree_with_live_status(self, live_setup,
                                                        tmp_path):
        capture, model = live_setup
        result, _, supervisor = run_partitioned(
            model, capture, tmp_path / "ckpt", partitions=3)
        status = supervisor.live_status()

        # Programmatic accessor: terminal shape of a clean run.
        assert status.status == "finalized"
        assert status.plan_digest == supervisor.digest
        assert status.observed == result.observed
        assert status.restarts == result.restarts == 0
        assert status.stream_front is not None
        assert status.global_watermark == min(
            p.watermark for p in status.partitions)
        assert not status.lost_partitions
        assert status.lost_measurable_keys == ()
        # Partitions jointly cover exactly the measurable population.
        covered = sorted(key for p in status.partitions
                         for key in p.measurable_keys)
        assert covered == sorted(model.measurable_keys)

        # The on-disk manifest is the same status, rendered.
        with open(result.manifest_path) as handle:
            manifest = json.load(handle)
        assert manifest["plan_digest"] == status.plan_digest
        assert manifest["status"] == status.status
        assert manifest["family"] == status.family
        assert manifest["start"] == status.start
        assert manifest["global_watermark"] == status.global_watermark
        rows = {row["index"]: row for row in manifest["partitions"]}
        assert sorted(rows) == [p.index for p in status.partitions]
        for p in status.partitions:
            row = rows[p.index]
            assert row["unit"] == p.unit
            assert row["status"] == p.status
            assert row["watermark"] == p.watermark
            assert row["restarts"] == p.restarts
            assert row["windows"] == p.windows
            assert row["drift_swaps"] == p.drift_swaps
            assert row["blocks"] == p.blocks
            assert row["measurable"] == p.measurable
            assert row["outcomes"] == list(p.outcomes)

        # And the /health document agrees field-for-field as well.
        health = supervisor.health_document()
        assert health["status"] == status.status
        assert health["plan_digest"] == status.plan_digest
        assert health["stream_front"] == status.stream_front
        assert health["global_watermark"] == status.global_watermark
        assert health["observed"] == status.observed
        assert health["restarts"] == status.restarts
        for p, row in zip(status.partitions, health["partitions"]):
            assert row["index"] == p.index
            assert row["status"] == p.status
            assert row["watermark"] == p.watermark
            assert row["watermark_lag"] == max(
                0.0, status.stream_front - p.watermark)
