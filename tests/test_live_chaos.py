"""Live-chaos suite: partition failure containment on an unbounded stream.

The contract: a partition worker that crashes mid-stream restarts from
its last checkpoint and replays only the gap — the merged run output
is bit-for-bit identical to a fault-free run.  A partition that keeps
dying exhausts its restart budget and degrades to *lost coverage*
(dead-lettered, accounted, exit 4 under ``--strict-coverage``) while
its siblings keep advancing.  SIGTERM is an operator action, not a
failure: both deployment shapes flush checkpoints and exit 0.

Faults reach partition workers through the test-only environment
channel (:data:`repro.testing.faults.PROCESS_FAULT_ENV`), read at each
launch, with window-deferred triggers — a streaming worker has no shard entry to fault, so chaos
keys off ``windows_closed`` progress instead.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import EXIT_DEGRADED_COVERAGE, main
from repro.core.checkpoint import load_checkpoint_rotated
from repro.core.serialize import load_model
from repro.live import DriftConfig, LivePartitionSupervisor
from repro.obs.explain import ExplainLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import SpanTracer
from repro.parallel import SupervisionPolicy
from repro.telescope.capture import CaptureReader, CaptureWriter
from repro.testing.faults import (
    PROCESS_FAULT_ENV,
    after_windows,
    crash_on_block,
    process_fault_env,
    slow_on_block,
)

pytestmark = pytest.mark.faults

DAY = 86400.0
DRIFT = DriftConfig(audit_every=7200.0)

#: Backoff tuned for test wall-clock; semantics identical to defaults.
FAST_POLICY = dict(retries=2, backoff_base=0.01, backoff_factor=2.0,
                   backoff_cap=0.05)

COUNTERS = ["stream_observations_total", "stream_bins_total",
            "drift_blocks_flagged_total", "drift_hot_swaps_total"]


@pytest.fixture(scope="module")
def live_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("live_chaos")
    capture = str(root / "capture.pobs")
    model_path = str(root / "model.json")
    assert main(["simulate", "--blocks", "24", "--days", "2",
                 "--seed", "7", "--out", capture]) == 0
    assert main(["train", capture, "--train-end", str(DAY),
                 "--out", model_path]) == 0
    return capture, model_path, load_model(model_path)


def run_partitioned(model, capture, checkpoint_dir, *, stop=None,
                    registry=None, **policy):
    for key, value in FAST_POLICY.items():
        policy.setdefault(key, value)
    registry = registry if registry is not None else MetricsRegistry()
    os.makedirs(checkpoint_dir, exist_ok=True)
    supervisor = LivePartitionSupervisor(
        model, partitions=4, policy=SupervisionPolicy(**policy),
        checkpoint_dir=str(checkpoint_dir), checkpoint_every=1800.0,
        reorder_horizon=2.0, drift=DRIFT, metrics=registry,
        stop_requested=stop)
    return supervisor.run(capture), registry, supervisor


def event_tuples(results, min_duration=300.0):
    return [(key, event.start, event.end)
            for key in sorted(results)
            for event in results[key].timeline.events(min_duration)]


def comparable_health(report):
    document = report.as_dict()
    document.pop("coverage", None)
    for stage in document.get("stages", []):
        stage["seconds"] = 0.0
    return document


def set_faults(monkeypatch, *hooks, counter_dir):
    os.makedirs(counter_dir, exist_ok=True)
    for key, value in process_fault_env(
            *hooks, counter_dir=str(counter_dir)).items():
        monkeypatch.setenv(key, value)


@pytest.fixture(scope="module")
def clean_baseline(live_setup, tmp_path_factory):
    """Fault-free partitioned run: the ground truth every chaos run
    must match (on surviving blocks)."""
    capture, _, model = live_setup
    ckpt = tmp_path_factory.mktemp("baseline_ckpt")
    result, registry, _ = run_partitioned(model, capture, ckpt)
    assert result.restarts == 0 and not result.degraded
    return result, registry


class TestCrashRestart:
    def test_restarted_run_is_bit_identical(self, live_setup, clean_baseline,
                                            tmp_path, monkeypatch):
        capture, _, model = live_setup
        baseline, base_reg = clean_baseline
        victim = sorted(model.parameters)[0]
        set_faults(monkeypatch,
                   after_windows(crash_on_block(victim, times=1), 50),
                   counter_dir=tmp_path / "counters")
        result, registry, _ = run_partitioned(model, capture,
                                              tmp_path / "ckpt")
        # The worker died once, restarted from its checkpoint, and
        # re-read the tap from that checkpoint's position.
        assert result.restarts == 1
        assert result.replayed_rows > 0
        assert not result.degraded
        assert event_tuples(result.results) == event_tuples(baseline.results)
        assert (comparable_health(result.health)
                == comparable_health(baseline.health))
        for name in COUNTERS:
            assert registry.value(name) == base_reg.value(name), name
        # The restart is visible in coverage accounting, not in output.
        attempts = {record.unit: record.outcomes
                    for record in result.health.coverage.shard_attempts}
        assert any("crash" in outcomes for outcomes in attempts.values())

    def test_persistent_killer_degrades_to_lost_coverage(
            self, live_setup, clean_baseline, tmp_path, monkeypatch):
        capture, _, model = live_setup
        baseline, _ = clean_baseline
        victim = sorted(model.parameters)[0]
        set_faults(monkeypatch,
                   after_windows(crash_on_block(victim), 50),  # times=None
                   counter_dir=tmp_path / "counters")
        result, _, supervisor = run_partitioned(model, capture,
                                                tmp_path / "ckpt")
        # Restart budget exhausted: blocks lost, run degraded — not dead.
        assert result.degraded
        lost_partition = supervisor.partitions[0]
        assert lost_partition.status == "lost"
        assert victim in lost_partition.keys
        coverage = result.health.coverage
        assert coverage.degraded
        assert sorted(coverage.blocks_lost) == lost_partition.measurable
        # Full-population accounting still holds: every measurable block
        # is a result, a dead letter, or a named loss.
        assert result.health.accounts_for(model.measurable_keys)
        # Siblings never noticed: surviving blocks match the baseline.
        survivors = set(model.parameters) - set(lost_partition.keys)
        assert sorted(result.results) == sorted(survivors
                                                & set(baseline.results))
        baseline_surviving = {key: block
                              for key, block in baseline.results.items()
                              if key in survivors}
        assert (event_tuples(result.results)
                == event_tuples(baseline_surviving))

    def test_strict_coverage_exit_code(self, live_setup, tmp_path,
                                       monkeypatch, capsys):
        capture, model_path, model = live_setup
        victim = sorted(model.parameters)[0]
        set_faults(monkeypatch,
                   after_windows(crash_on_block(victim), 50),
                   counter_dir=tmp_path / "counters")
        health_path = tmp_path / "health.json"
        code = main(["live", capture, "--model", model_path,
                     "--checkpoint", str(tmp_path / "ckpt"),
                     "--partitions", "4", "--partition-retries", "1",
                     "--checkpoint-every", "1800",
                     "--strict-coverage",
                     "--health-report", str(health_path)])
        captured = capsys.readouterr()
        assert code == EXIT_DEGRADED_COVERAGE
        assert "live coverage degraded" in captured.out
        assert "dead-lettered under stage=stream" in captured.out
        document = json.loads(health_path.read_text())
        assert document["coverage"]["blocks_lost"]
        # The manifest records the loss for post-mortem inspection.
        manifest = json.loads(
            (tmp_path / "ckpt" / "live-manifest.json").read_text())
        assert manifest["status"] == "degraded"
        assert any(entry["status"] == "lost"
                   for entry in manifest["partitions"])

        # CI uploads the degraded-run health report as an artifact.
        artifact = os.environ.get("REPRO_LIVE_CHAOS_HEALTH_OUT")
        if artifact:
            with open(artifact, "w", encoding="utf-8") as handle:
                handle.write(health_path.read_text())


class TestGracefulShutdown:
    def test_supervisor_stop_checkpoints_and_resumes(
            self, live_setup, clean_baseline, tmp_path):
        capture, _, model = live_setup
        baseline, base_reg = clean_baseline
        ckpt = tmp_path / "ckpt"
        # Stop once every worker is a quarter into the *live* half of
        # the capture, so each demonstrably holds mid-stream state when
        # told to quit.  Workers read the capture themselves, so the
        # stop keys off their reported watermarks.
        quarter = model.train_end + DAY / 4
        os.makedirs(ckpt, exist_ok=True)
        supervisor = LivePartitionSupervisor(
            model, partitions=4, policy=SupervisionPolicy(**FAST_POLICY),
            checkpoint_dir=str(ckpt), checkpoint_every=1800.0,
            reorder_horizon=2.0, drift=DRIFT, metrics=MetricsRegistry(),
            stop_requested=lambda: (supervisor.live_status()
                                    .global_watermark >= quarter))
        interrupted = supervisor.run(capture)
        assert interrupted.interrupted
        manifest = json.loads((ckpt / "live-manifest.json").read_text())
        assert manifest["status"] == "interrupted"
        # Every partition flushed a loadable checkpoint mid-stream.
        for entry in manifest["partitions"]:
            detector = load_checkpoint_rotated(
                str(ckpt / entry["checkpoint"]), model)
            assert detector.last_time > model.train_end
            assert detector.restored_extra is not None
        # Resuming over the same directory replays the gap and converges
        # on the fault-free output, counters included (they ride in the
        # checkpoints).
        resumed, res_reg, _ = run_partitioned(model, capture, ckpt)
        assert not resumed.interrupted
        assert event_tuples(resumed.results) == event_tuples(
            baseline.results)
        assert (comparable_health(resumed.health)
                == comparable_health(baseline.health))
        for name in COUNTERS:
            assert res_reg.value(name) == base_reg.value(name), name

    def test_sigterm_flushes_a_loadable_checkpoint(self, live_setup,
                                                   tmp_path):
        """Kill a single-process monitor mid-window; it must exit 0 with
        a resumable checkpoint on disk."""
        capture, model_path, model = live_setup
        victim = sorted(model.parameters)[0]
        checkpoint = tmp_path / "live.ckpt.json"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # Drag every window close so SIGTERM reliably lands mid-stream.
        env.update(process_fault_env(
            after_windows(slow_on_block(victim, seconds=0.02), 1),
            counter_dir=str(tmp_path / "counters")))
        os.makedirs(tmp_path / "counters", exist_ok=True)
        process = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from repro.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "live", capture, "--model", model_path,
             "--checkpoint", str(checkpoint),
             "--checkpoint-every", "600"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if checkpoint.exists() or process.poll() is not None:
                    break
                time.sleep(0.05)
            assert process.poll() is None, (
                "monitor finished before SIGTERM could land: "
                + process.communicate()[1])
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=60.0)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stderr
        assert "interrupted: stopping cleanly" in stderr
        assert "checkpoint saved" in stderr
        detector = load_checkpoint_rotated(str(checkpoint), model)
        assert detector.last_time > model.train_end  # mid-stream state
        assert main(["live", capture, "--model", model_path,
                     "--checkpoint", str(checkpoint),
                     "--checkpoint-every", "600"]) == 0


class TestObservabilityPlane:
    """One crashing partitioned run, observed end to end.

    The same run must yield: worker counters folded into the parent
    registry with no restart double-count, one coherent trace holding
    the respawned worker under the parent's trace id, the workers'
    decision provenance, and a /health document that accounts for the
    fleet.  The module's stock capture has no eval-window outage, so a
    doctored copy silences two blocks (owned by partitions that do
    *not* crash) mid-stream — a guaranteed decision for the explain
    piggyback to carry home.
    """

    @pytest.fixture(scope="class")
    def doctored(self, live_setup, tmp_path_factory):
        capture, _, model = live_setup
        root = tmp_path_factory.mktemp("obs_plane")
        keys = sorted(model.parameters)
        chunk = -(-len(keys) // 4)
        victims = {keys[chunk + 2], keys[2 * chunk + 2]}
        down = model.train_end + 21600.0
        up = model.train_end + 43200.0
        path = str(root / "outage.pobs")
        with CaptureWriter(path) as writer:
            for observation in CaptureReader(capture):
                if (observation.block_key in victims
                        and down <= observation.time < up):
                    continue
                writer.write(observation)
        return path, sorted(victims), root

    @pytest.fixture(scope="class")
    def clean_doctored_run(self, live_setup, doctored):
        _, _, model = live_setup
        capture, victims, root = doctored
        result, registry, _ = run_partitioned(model, capture,
                                              root / "clean_ckpt")
        assert result.restarts == 0
        # The injected silences really read as outages.
        assert {key for key, _, _ in event_tuples(result.results)} \
            >= set(victims)
        return result, registry

    @pytest.fixture(scope="class")
    def observed_crash_run(self, live_setup, doctored):
        _, _, model = live_setup
        capture, _, root = doctored
        crash_victim = sorted(model.parameters)[0]
        registry, tracer, explain = (MetricsRegistry(), SpanTracer(),
                                     ExplainLog())
        patcher = pytest.MonkeyPatch()
        try:
            os.makedirs(root / "counters", exist_ok=True)
            for key, value in process_fault_env(
                    after_windows(crash_on_block(crash_victim, times=1), 50),
                    counter_dir=str(root / "counters")).items():
                patcher.setenv(key, value)
            os.makedirs(root / "ckpt", exist_ok=True)
            supervisor = LivePartitionSupervisor(
                model, partitions=4, policy=SupervisionPolicy(**FAST_POLICY),
                checkpoint_dir=str(root / "ckpt"), checkpoint_every=1800.0,
                reorder_horizon=2.0, drift=DRIFT, metrics=registry,
                tracer=tracer, explain=explain)
            result = supervisor.run(capture)
        finally:
            patcher.undo()
        return result, registry, tracer, explain, supervisor

    def test_counters_survive_the_restart_without_double_count(
            self, clean_doctored_run, observed_crash_run):
        result, registry, _, _, supervisor = observed_crash_run
        _, base_reg = clean_doctored_run
        assert result.restarts == 1 and not result.degraded
        # Heartbeat snapshots actually folded mid-run (not just the
        # final document), and folding by difference kept totals exact.
        assert any(p.folded_metrics_seq for p in supervisor.partitions)
        for name in COUNTERS:
            assert registry.value(name) == base_reg.value(name), name

    def test_one_trace_spans_the_fleet_across_the_restart(
            self, observed_crash_run):
        _, _, tracer, _, supervisor = observed_crash_run
        names = {span.name for span in tracer.spans}
        assert {"partition_dispatch", "partition_merge",
                "partition_restart"} <= names
        worker_spans = [span for span in tracer.spans if span.pid]
        worker_names = {span.name for span in worker_spans}
        assert {"partition_restore", "partition_checkpoint",
                "partition_finalize"} <= worker_names
        # Every partition's surviving incarnation ships its spans home,
        # all under the parent's trace id, each in its own pid lane.
        pids = {span.pid for span in worker_spans}
        assert len(pids) >= len(supervisor.partitions)
        document = tracer.chrome_trace()
        assert document["metadata"]["trace_id"] == tracer.trace_id
        for span in worker_spans:
            assert (span.args.get("trace_id", tracer.trace_id)
                    == tracer.trace_id)

    def test_worker_provenance_reaches_the_parent(
            self, doctored, observed_crash_run):
        _, victims, _ = doctored
        _, _, _, explain, supervisor = observed_crash_run
        assert any(p.explain_folded_seq for p in supervisor.partitions)
        events = explain.events()
        assert events
        assert {event["event"] for event in events} <= {
            "transition", "onset", "recovery", "retraction"}
        # Both silenced blocks explain themselves — provenance crossed
        # from at least two distinct partitions.
        onsets = {event["block"] for event in events
                  if event["event"] == "onset"}
        assert onsets >= set(victims)
        owner = {key: p.index for p in supervisor.partitions
                 for key in p.keys}
        assert len({owner[block] for block in onsets}) >= 2

    def test_health_document_accounts_for_the_fleet(self,
                                                    observed_crash_run):
        _, _, _, _, supervisor = observed_crash_run
        document = supervisor.health_document()
        assert document["run"] == "streaming"
        assert document["restarts"] == 1
        assert len(document["partitions"]) == len(supervisor.partitions)
        for row in document["partitions"]:
            assert row["status"] == "done"
            assert row["watermark_lag"] >= 0.0
        assert document["global_watermark"] <= document["stream_front"]

    def test_redelivered_heartbeat_folds_once(self, live_setup):
        """Heartbeats carry cumulative snapshots folded by difference,
        so a re-delivered one changes no total; explain events fold
        once by their seq."""
        _, _, model = live_setup
        supervisor = LivePartitionSupervisor(
            model, partitions=2, metrics=MetricsRegistry(),
            explain=ExplainLog())
        partition = supervisor.partitions[0]
        worker = MetricsRegistry()
        worker.counter("stream_observations_total", "rows").inc(5)
        worker.counter("stream_bins_total", "bins").inc(3)
        info = {"beat": 1, "metrics": worker.snapshot(),
                "explain": [{"event": "onset", "block": 1, "seq": 1}]}
        for _ in range(3):  # re-delivered heartbeat folds exactly once
            supervisor._fold_piggyback(partition, info)
        assert supervisor.metrics.value("stream_observations_total") == 5
        assert supervisor.metrics.value("stream_bins_total") == 3
        assert len(supervisor.explain) == 1
        assert partition.folded_metrics_seq == 1
        assert partition.explain_folded_seq == 1
        # A sibling's snapshot adds its block-scoped counts only: the
        # tap-scoped ones come from the lowest-index partition alone.
        supervisor._fold_piggyback(supervisor.partitions[1],
                                   {"beat": 1, "metrics": worker.snapshot()})
        assert supervisor.metrics.value("stream_observations_total") == 5
        assert supervisor.metrics.value("stream_bins_total") == 6


class TestFaultSpecPerLaunch:
    def test_spec_is_read_at_each_launch_not_inherited(
            self, live_setup, tmp_path, monkeypatch):
        """Partition workers fork from a long-lived forkserver whose
        environment froze at its first start.  The fault spec must
        travel with each launch: clean, faulty and clean runs in one
        process must restart the victim's partition in the faulty run
        only, whichever environment the server started with."""
        capture, _, model = live_setup
        victim = sorted(model.parameters)[0]
        restarts = []
        for run, faulty in enumerate((False, True, False)):
            if faulty:
                set_faults(monkeypatch,
                           after_windows(crash_on_block(victim, times=1),
                                         50),
                           counter_dir=tmp_path / "counters")
            else:
                monkeypatch.delenv(PROCESS_FAULT_ENV, raising=False)
            result, _, _ = run_partitioned(model, capture,
                                           tmp_path / f"ckpt{run}")
            restarts.append(result.restarts)
        assert restarts == [0, 1, 0]
