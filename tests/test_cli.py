"""Command-line interface."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import (EXIT_BUDGET_TRIPPED, EXIT_DEGRADED_COVERAGE,
                       build_parser, main)
from repro.telescope.capture import read_batches

DATA = Path(__file__).parent / "data"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_names_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])


def parser_surface():
    """Every subcommand's options in declaration order: option strings,
    dest, default, type, choices, required, and action class."""
    import argparse

    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    return {name: [[sorted(action.option_strings), action.dest,
                    repr(action.default),
                    getattr(action.type, "__name__", repr(action.type)),
                    sorted(action.choices) if action.choices else None,
                    action.required, type(action).__name__]
                   for action in parser._actions]
            for name, parser in commands.choices.items()}


class TestParserSurface:
    def test_every_subcommand_option_is_pinned(self):
        golden = json.loads((DATA / "cli_parser_surface.json").read_text())
        assert parser_surface() == golden


class TestSimulateDetect:
    def test_roundtrip(self, tmp_path, capsys):
        capture = tmp_path / "day.pobs"
        assert main(["simulate", "--blocks", "60", "--days", "2",
                     "--seed", "3", "--out", str(capture)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert capture.exists()

        assert main(["detect", str(capture), "--train-end", "86400"]) == 0
        out = capsys.readouterr().out
        assert "trained 60 blocks" in out
        assert "outage events" in out

    def test_detect_missing_family(self, tmp_path, capsys):
        capture = tmp_path / "v4only.pobs"
        main(["simulate", "--blocks", "10", "--days", "1",
              "--out", str(capture)])
        capsys.readouterr()
        assert main(["detect", str(capture), "--family", "6"]) == 1

    def test_train_then_detect_with_saved_model(self, tmp_path, capsys):
        capture = tmp_path / "two_days.pobs"
        model_path = tmp_path / "model.json"
        main(["simulate", "--blocks", "40", "--days", "2",
              "--out", str(capture)])
        capsys.readouterr()
        assert main(["train", str(capture), "--train-end", "86400",
                     "--out", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "trained 40 blocks" in out
        assert model_path.exists()
        assert main(["detect", str(capture),
                     "--model", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "outage events" in out

    def test_simulate_with_ipv6(self, tmp_path, capsys):
        capture = tmp_path / "dual.pobs"
        assert main(["simulate", "--blocks", "20", "--v6-blocks", "10",
                     "--days", "1", "--out", str(capture)]) == 0
        assert main(["detect", str(capture), "--family", "6"]) == 0


class TestExperimentCommand:
    def test_runs_small_table1(self, capsys):
        assert main(["experiment", "table1", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Precision" in out

    def test_runs_small_figure1(self, capsys):
        assert main(["experiment", "figure1", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out.lower()


class TestLiveMonitor:
    def _prepare(self, tmp_path):
        capture = tmp_path / "two_days.pobs"
        model = tmp_path / "model.json"
        main(["simulate", "--blocks", "40", "--days", "2", "--seed", "7",
              "--out", str(capture)])
        main(["train", str(capture), "--train-end", "86400",
              "--out", str(model)])
        return capture, model

    def test_live_replay_with_sentinel_and_checkpoint(self, tmp_path,
                                                      capsys):
        capture, model = self._prepare(tmp_path)
        checkpoint = tmp_path / "live.ckpt.json"
        capsys.readouterr()
        assert main(["live", str(capture), "--model", str(model),
                     "--sentinel", "--checkpoint", str(checkpoint),
                     "--reorder-horizon", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "replayed" in out
        assert "sentinel:" in out
        assert "reorder buffer:" in out
        assert checkpoint.exists()

    def test_live_resumes_from_checkpoint(self, tmp_path, capsys):
        capture, model = self._prepare(tmp_path)
        checkpoint = tmp_path / "live.ckpt.json"
        assert main(["live", str(capture), "--model", str(model),
                     "--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        # Second run finds the checkpoint and resumes instead of replaying.
        assert main(["live", str(capture), "--model", str(model),
                     "--checkpoint", str(checkpoint)]) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out
        assert "replayed 0 observations" in out

    def _disordered(self, tmp_path, capture):
        """``capture`` rewritten in arrival order with bounded disorder:
        records displaced within a 2 s horizon, a few beyond it."""
        from repro.telescope.capture import write_batches

        ipv4, _ = read_batches(str(capture))
        rng = np.random.default_rng(3)
        times = ipv4.times.copy()
        live = np.flatnonzero(times > 86400.0 + 100.0)
        picked = rng.choice(live, size=400, replace=False)
        times[picked[:380]] -= rng.uniform(0.1, 1.9, 380)
        times[picked[380:]] -= rng.uniform(10.0, 20.0, 20)
        path = tmp_path / "disordered.pobs"
        write_batches(str(path), type(ipv4)(ipv4.family, times,
                                            ipv4.block_keys, ipv4.qtypes))
        return path, len(times)

    @staticmethod
    def _reconciliation(out):
        """The ``records:`` line's terms, by name."""
        import re

        line = next(line for line in out.splitlines()
                    if line.startswith("records: "))
        terms = {name.strip(): int(value.replace(",", ""))
                 for value, name in re.findall(r"([\d,]+) ([a-z -]+)",
                                               line)}
        read = terms.pop("read")
        assert read == sum(terms.values()), line
        return read, terms

    def test_live_record_counts_reconcile(self, tmp_path, capsys):
        capture, model = self._prepare(tmp_path)
        disordered, total = self._disordered(tmp_path, capture)
        capsys.readouterr()
        assert main(["live", str(disordered), "--model", str(model),
                     "--reorder-horizon", "2.0"]) == 0
        read, terms = self._reconciliation(capsys.readouterr().out)
        assert read == total
        assert terms["late-dropped"] > 0
        assert terms["training-window skipped"] > 0
        assert terms["resume skipped"] == 0
        # Resumed: the first 75% of the capture, then all of it.
        data = disordered.read_bytes()
        part = tmp_path / "part.pobs"
        part.write_bytes(data[:8 + (total * 3 // 4) * 27])
        checkpoint = tmp_path / "ckpt.json"
        args = ["--model", str(model), "--reorder-horizon", "2.0",
                "--checkpoint", str(checkpoint)]
        assert main(["live", str(part)] + args) == 0
        capsys.readouterr()
        assert main(["live", str(disordered)] + args) == 0
        read, resumed = self._reconciliation(capsys.readouterr().out)
        assert read == total
        assert resumed["resume skipped"] > 0
        assert resumed["observed"] < terms["observed"]

    def test_interrupted_live_counts_what_is_still_buffered(
            self, tmp_path, capsys, monkeypatch):
        from contextlib import contextmanager

        from repro import cli
        from repro.telescope.capture import CHUNK_RECORDS

        capture, model = self._prepare(tmp_path)
        disordered, total = self._disordered(tmp_path, capture)
        polls = {"count": 0}
        stop_after = (total // CHUNK_RECORDS) * 3 // 4

        @contextmanager
        def stop_midway():
            def requested():
                polls["count"] += 1
                return polls["count"] > stop_after
            yield requested

        monkeypatch.setattr(cli, "_graceful_stop", stop_midway)
        capsys.readouterr()
        assert main(["live", str(disordered), "--model", str(model),
                     "--reorder-horizon", "2.0"]) == 0
        captured = capsys.readouterr()
        assert "interrupted" in captured.err
        read, terms = self._reconciliation(captured.out)
        assert 0 < read < total
        assert terms["still buffered"] > 0

    @staticmethod
    def _nan_capture(tmp_path, capture):
        """``capture`` with one detection-window record's time set to
        NaN; returns the copy and that record's index."""
        from repro.telescope.capture import write_batches

        ipv4, _ = read_batches(str(capture))
        times = ipv4.times.copy()
        record = int(np.flatnonzero(times >= 86400.0)[0]) + 5000
        times[record] = float("nan")
        poisoned = tmp_path / "nan.pobs"
        write_batches(str(poisoned), type(ipv4)(ipv4.family, times,
                                                ipv4.block_keys, ipv4.qtypes))
        return poisoned, record

    @pytest.mark.parametrize("argv", [
        pytest.param(["live", "--reorder-horizon", "0"], id="0"),
        pytest.param(["live", "--reorder-horizon", "2.0"], id="2.0"),
        pytest.param(["serve", "--reorder-horizon", "2.0", "--port", "0",
                      "--linger-s", "0"], id="serve"),
        pytest.param(["live", "--partitions", "2", "--checkpoint", "DIR"],
                     id="partitioned"),
    ])
    def test_live_reports_non_finite_timestamp_by_capture_record(
            self, tmp_path, capsys, argv):
        capture, model = self._prepare(tmp_path)
        poisoned, record = self._nan_capture(tmp_path, capture)
        command, *flags = [str(tmp_path / "ckpt") if arg == "DIR" else arg
                           for arg in argv]
        capsys.readouterr()
        assert main([command, str(poisoned), "--model", str(model)]
                    + flags) == 1
        err = capsys.readouterr().err
        assert (f"capture record {record} (byte offset {8 + 27 * record}) "
                f"has a non-finite timestamp") in err
        assert "--reorder-horizon" not in err

    def test_live_family_mismatch_fails_cleanly(self, tmp_path, capsys):
        capture, model = self._prepare(tmp_path)
        capsys.readouterr()
        assert main(["live", str(capture), "--model", str(model),
                     "--family", "6"]) == 1


class TestTelemetry:
    def _prepare(self, tmp_path):
        capture = tmp_path / "two_days.pobs"
        model = tmp_path / "model.json"
        main(["simulate", "--blocks", "30", "--days", "2", "--seed", "11",
              "--out", str(capture)])
        main(["train", str(capture), "--train-end", "86400",
              "--out", str(model)])
        return capture, model

    def test_detect_writes_metrics_and_trace(self, tmp_path, capsys):
        capture, _ = self._prepare(tmp_path)
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        capsys.readouterr()
        assert main(["detect", str(capture), "--train-end", "86400",
                     "--metrics-out", str(metrics_path),
                     "--trace-out", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "metrics written to" in out
        assert "trace written to" in out

        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["format"] == "repro-metrics-v1"
        names = {family["name"] for family in snapshot["metrics"]}
        assert "pipeline_stage_seconds" in names
        assert "belief_updates_total" in names

        trace = json.loads(trace_path.read_text())
        span_names = {event["name"] for event in trace["traceEvents"]}
        assert {"train", "fit", "tune", "detect", "aggregate"} <= span_names
        spans = {event["name"]: event for event in trace["traceEvents"]}
        # The per-stage tuning span nests inside the whole-train span.
        outer, inner = spans["train"], spans["tune"]
        assert outer["ts"] <= inner["ts"]
        assert (inner["ts"] + inner["dur"]
                <= outer["ts"] + outer["dur"])

    def test_detect_trace_covers_decode_and_split(self, tmp_path, capsys):
        capture, _ = self._prepare(tmp_path)
        trace_path = tmp_path / "trace.json"
        assert main(["detect", str(capture), "--train-end", "86400",
                     "--trace-out", str(trace_path)]) == 0
        spans = {}
        for event in json.loads(trace_path.read_text())["traceEvents"]:
            spans.setdefault(event["name"], event)
        order = ["capture.decode", "aggregate.split", "train", "detect"]
        assert set(order) <= set(spans)
        # Each stage ends before the next one starts.
        for earlier, later in zip(order, order[1:]):
            assert (spans[earlier]["ts"] + spans[earlier]["dur"]
                    <= spans[later]["ts"]), (earlier, later)

    def test_live_trace_has_flat_ingest_spans(self, tmp_path, capsys):
        capture, model = self._prepare(tmp_path)
        trace_path = tmp_path / "trace.json"
        assert main(["live", str(capture), "--model", str(model),
                     "--checkpoint", str(tmp_path / "ckpt.json"),
                     "--trace-out", str(trace_path)]) == 0
        events = sorted(json.loads(trace_path.read_text())["traceEvents"],
                        key=lambda event: event["ts"])
        names = {event["name"] for event in events}
        assert names == {"capture.decode", "live.feed", "checkpoint.save",
                         "detector.finalize"}
        # One span per chunk, batch or save, none inside another.
        for earlier, later in zip(events, events[1:]):
            assert earlier["ts"] + earlier["dur"] <= later["ts"], (
                earlier["name"], later["name"])

    def test_live_metrics_embed_in_checkpoint(self, tmp_path, capsys):
        capture, model = self._prepare(tmp_path)
        checkpoint = tmp_path / "live.ckpt.json"
        metrics_path = tmp_path / "metrics.json"
        capsys.readouterr()
        assert main(["live", str(capture), "--model", str(model),
                     "--checkpoint", str(checkpoint),
                     "--metrics-out", str(metrics_path)]) == 0
        capsys.readouterr()
        document = json.loads(checkpoint.read_text())
        assert document["metrics"]["format"] == "repro-metrics-v1"
        snapshot = json.loads(metrics_path.read_text())
        names = {family["name"] for family in snapshot["metrics"]}
        assert "stream_observations_total" in names
        assert "stream_watermark_lag_seconds" in names

    def test_live_resume_counters_monotone(self, tmp_path, capsys):
        capture, model = self._prepare(tmp_path)
        checkpoint = tmp_path / "live.ckpt.json"
        first = tmp_path / "m1.json"
        second = tmp_path / "m2.json"
        assert main(["live", str(capture), "--model", str(model),
                     "--checkpoint", str(checkpoint),
                     "--metrics-out", str(first)]) == 0
        assert main(["live", str(capture), "--model", str(model),
                     "--checkpoint", str(checkpoint),
                     "--metrics-out", str(second)]) == 0
        capsys.readouterr()

        def counter_map(path):
            snapshot = json.loads(path.read_text())
            values = {}
            for family in snapshot["metrics"]:
                if family["type"] != "counter":
                    continue
                for series in family["series"]:
                    key = (family["name"], tuple(series["labels"]))
                    values[key] = series["value"]
            return values

        before, after = counter_map(first), counter_map(second)
        assert before
        for key, value in before.items():
            assert after[key] >= value, key

    def test_live_metrics_interval_status_lines(self, tmp_path, capsys):
        capture, model = self._prepare(tmp_path)
        capsys.readouterr()
        assert main(["live", str(capture), "--model", str(model),
                     "--metrics-interval", "0.000001"]) == 0
        err = capsys.readouterr().err
        assert "[live t=" in err
        assert "windows/s" in err
        assert "quarantined" in err

    def test_inspect_renders_metrics_snapshot(self, tmp_path, capsys):
        capture, _ = self._prepare(tmp_path)
        metrics_path = tmp_path / "metrics.json"
        main(["detect", str(capture), "--train-end", "86400",
              "--metrics-out", str(metrics_path)])
        capsys.readouterr()
        assert main(["inspect", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "counters and gauges" in out
        assert "belief_updates_total" in out
        assert "stage latency" in out

    def test_inspect_renders_checkpoint_telemetry(self, tmp_path, capsys):
        capture, model = self._prepare(tmp_path)
        checkpoint = tmp_path / "live.ckpt.json"
        main(["live", str(capture), "--model", str(model),
              "--checkpoint", str(checkpoint)])
        capsys.readouterr()
        assert main(["inspect", str(checkpoint)]) == 0
        out = capsys.readouterr().out
        assert "embedded telemetry from checkpoint" in out
        assert "stream_observations_total" in out

    def test_inspect_rejects_unrecognised_document(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": "world"}))
        capsys.readouterr()
        assert main(["inspect", str(path)]) == 1
        assert "neither a metrics snapshot" in capsys.readouterr().err

    def test_inspect_checkpoint_without_telemetry_errors(self, tmp_path,
                                                         capsys):
        capture, model = self._prepare(tmp_path)
        checkpoint = tmp_path / "plain.ckpt.json"
        # A checkpoint written without --metrics-out... does not exist:
        # live always meters. Build one via the library instead.
        from repro.core.checkpoint import save_checkpoint
        from repro.core.detector import StreamingDetector
        from repro.core.serialize import load_model

        trained = load_model(str(model))
        detector = StreamingDetector(trained.family, trained.histories,
                                     trained.parameters, 3600.0)
        save_checkpoint(detector, checkpoint)
        capsys.readouterr()
        assert main(["inspect", str(checkpoint)]) == 1
        assert "without embedded telemetry" in capsys.readouterr().err


class TestHealthAndBudget:
    def _poisoned_capture(self, tmp_path, n_poison):
        """Simulated two-day capture with ``n_poison`` blocks' detection
        timestamps overwritten with NaN (20 blocks total)."""
        from repro.telescope.capture import CaptureWriter, read_batches

        capture = tmp_path / "poisoned.pobs"
        main(["simulate", "--blocks", "20", "--days", "2", "--seed", "5",
              "--out", str(capture)])
        ipv4, _ = read_batches(str(capture))
        victims = sorted(set(ipv4.block_keys.tolist()))[:n_poison]
        times = ipv4.times.copy()
        for key in victims:
            mask = (ipv4.block_keys == key) & (times >= 86400.0)
            times[mask] = float("nan")
        with CaptureWriter(str(capture)) as writer:
            writer.write_batch(type(ipv4)(ipv4.family, times,
                                          ipv4.block_keys, ipv4.qtypes))
        return capture

    def test_detect_writes_health_report(self, tmp_path, capsys):
        capture = self._poisoned_capture(tmp_path, 1)
        report_path = tmp_path / "health.json"
        capsys.readouterr()
        assert main(["detect", str(capture), "--train-end", "86400",
                     "--health-report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "quarantined" in out
        assert "non-finite" in out
        document = json.loads(report_path.read_text())
        assert document["run"] == "detect"
        assert len(document["dead_letters"]) == 1
        assert document["budget_tripped"] is False

    def test_detect_budget_trip_exits_3_and_reports(self, tmp_path,
                                                    capsys):
        capture = self._poisoned_capture(tmp_path, 4)  # 20% poisoned
        report_path = tmp_path / "health.json"
        capsys.readouterr()
        code = main(["detect", str(capture), "--train-end", "86400",
                     "--max-quarantine-frac", "0.1",
                     "--health-report", str(report_path)])
        assert code == EXIT_BUDGET_TRIPPED
        err = capsys.readouterr().err
        assert "error budget exceeded" in err
        document = json.loads(report_path.read_text())
        assert document["budget_tripped"] is True
        assert len(document["dead_letters"]) == 4

    def test_train_window_ignores_non_finite_timestamps(self, tmp_path,
                                                        capsys):
        # Without --train-end the window ends at the capture's last
        # *finite* time; a NaN record sorts last and must not become it.
        poisoned, _ = TestLiveMonitor._nan_capture(
            tmp_path, TestLiveMonitor()._prepare(tmp_path)[0])
        model = tmp_path / "nan-model.json"
        capsys.readouterr()
        assert main(["train", str(poisoned), "--out", str(model)]) == 0
        assert "trained 39 blocks" in capsys.readouterr().out
        from repro.core.serialize import load_model

        # The one block holding the NaN is dead-lettered, not trained.
        assert 0x33383e not in load_model(str(model)).parameters

    def test_train_budget_trip_exits_3_and_reports(self, tmp_path, capsys):
        capture = self._poisoned_capture(tmp_path, 11)  # 55% poisoned
        capsys.readouterr()
        code = main(["train", str(capture), "--out",
                     str(tmp_path / "model.json")])
        assert code == EXIT_BUDGET_TRIPPED
        err = capsys.readouterr().err
        assert "error budget exceeded: train: quarantined 11/20" in err

    def test_clean_run_reports_zero_quarantine(self, tmp_path, capsys):
        capture = tmp_path / "clean.pobs"
        model = tmp_path / "model.json"
        report_path = tmp_path / "health.json"
        main(["simulate", "--blocks", "20", "--days", "2", "--seed", "5",
              "--out", str(capture)])
        main(["train", str(capture), "--train-end", "86400",
              "--out", str(model)])
        capsys.readouterr()
        assert main(["live", str(capture), "--model", str(model),
                     "--max-quarantine-frac", "0.0",
                     "--health-report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "health report written" in out
        document = json.loads(report_path.read_text())
        assert document["run"] == "streaming"
        assert document["dead_letters"] == []
        assert document["budget_tripped"] is False


class TestParallelFlags:
    def test_detect_workers_output_matches_sequential(self, tmp_path,
                                                      capsys):
        capture = tmp_path / "day.pobs"
        main(["simulate", "--blocks", "30", "--days", "2", "--seed", "7",
              "--out", str(capture)])
        capsys.readouterr()
        reports = {}
        for label, extra in (("seq", []),
                             ("w1", ["--workers", "1"]),
                             ("w4", ["--workers", "4"])):
            report = tmp_path / f"health-{label}.json"
            assert main(["detect", str(capture), "--train-end", "86400",
                         "--health-report", str(report)] + extra) == 0
            out = "\n".join(line for line in
                            capsys.readouterr().out.splitlines()
                            if "health report written" not in line)
            reports[label] = (out, json.loads(report.read_text()))
        # stdout (trained/coverage/event lines) is bit-identical across
        # worker counts; health reports match up to wall-clock timings.
        assert reports["w1"][0] == reports["w4"][0] == reports["seq"][0]
        for document in reports.values():
            for stage in document[1]["stages"]:
                stage["seconds"] = 0.0
        assert reports["w1"][1] == reports["w4"][1] == reports["seq"][1]

    def test_detect_workers_budget_trip_still_exits_3(self, tmp_path,
                                                      capsys):
        helper = TestHealthAndBudget()
        capture = helper._poisoned_capture(tmp_path, 4)
        report_path = tmp_path / "health.json"
        capsys.readouterr()
        code = main(["detect", str(capture), "--train-end", "86400",
                     "--workers", "2", "--max-quarantine-frac", "0.1",
                     "--health-report", str(report_path)])
        assert code == EXIT_BUDGET_TRIPPED
        assert "error budget exceeded" in capsys.readouterr().err
        document = json.loads(report_path.read_text())
        assert document["budget_tripped"] is True
        assert len(document["dead_letters"]) == 4

    def test_experiment_workers_installs_process_default(self, capsys,
                                                         monkeypatch):
        from repro import cli
        from repro.parallel import get_default_parallelism

        seen = {}

        def fake_runner(scale=1.0):
            seen["parallelism"] = get_default_parallelism()
            return "ok"

        monkeypatch.setitem(cli.EXPERIMENTS, "week", fake_runner)
        assert main(["experiment", "week", "--workers", "3",
                     "--shard-chunk", "5"]) == 0
        assert seen["parallelism"] == (3, 5)
        assert get_default_parallelism() == (None, None)  # restored
        capsys.readouterr()


class TestTelemetryOnErrorExit:
    def test_budget_tripped_detect_still_writes_telemetry(self, tmp_path,
                                                          capsys):
        helper = TestHealthAndBudget()
        capture = helper._poisoned_capture(tmp_path, 4)
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        capsys.readouterr()
        code = main(["detect", str(capture), "--train-end", "86400",
                     "--max-quarantine-frac", "0.1",
                     "--metrics-out", str(metrics_path),
                     "--trace-out", str(trace_path)])
        assert code == EXIT_BUDGET_TRIPPED
        # The flush lives in a finally: an error exit must not lose the
        # run's telemetry, which is exactly when an operator wants it.
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["format"] == "repro-metrics-v1"
        names = {family["name"] for family in snapshot["metrics"]}
        assert "dead_letters_total" in names
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]

    def test_budget_tripped_experiment_exits_3_with_telemetry(
            self, tmp_path, capsys, monkeypatch):
        from repro import cli
        from repro.core.health import ErrorBudgetExceeded

        metrics_path = tmp_path / "metrics.json"

        def tripping_runner(scale=1.0):
            from repro.obs.metrics import resolve_registry
            resolve_registry(None).counter("attempts_total").inc()
            raise ErrorBudgetExceeded("detect", 10, 9, 0.5)

        monkeypatch.setitem(cli.EXPERIMENTS, "week", tripping_runner)
        code = main(["experiment", "week",
                     "--metrics-out", str(metrics_path)])
        assert code == EXIT_BUDGET_TRIPPED
        assert "error budget exceeded" in capsys.readouterr().err
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["format"] == "repro-metrics-v1"
        assert {f["name"] for f in snapshot["metrics"]} == {"attempts_total"}


class TestSupervisionCLI:
    def test_inspect_renders_coverage_golden(self, tmp_path, capsys):
        from repro.core.health import (CoverageReport, RunHealthReport,
                                       ShardAttemptRecord)

        report = RunHealthReport(run="detect")
        stage = report.stage("detect")
        stage.attempted = 8
        stage.succeeded = 7
        stage.quarantined = 1
        stage.seconds = 2.5
        report.dead_letters.record(
            "supervision", 0x0A00,
            RuntimeError("worker process for unit 00001.1 kept dying"))
        report.coverage = CoverageReport(
            blocks_planned=8, blocks_delivered=7, blocks_lost=[0x0A00],
            shard_attempts=[
                ShardAttemptRecord("00000", ["ok"], "done"),
                ShardAttemptRecord("00001", ["crash", "crash"], "bisected"),
                ShardAttemptRecord("00001.0", ["ok"], "done"),
                ShardAttemptRecord("00001.1", ["crash", "crash"], "lost"),
            ])
        path = tmp_path / "health.json"
        path.write_text(report.to_json())
        capsys.readouterr()
        assert main(["inspect", str(path)]) == 0
        golden = (
            "health report: run=detect\n"
            "  7/8 blocks ok, 1 quarantined, "
            "DEGRADED: 1 blocks lost to supervision\n"
            "stages:\n"
            "  detect: attempted 8, succeeded 7, quarantined 1 (2.50s)\n"
            "coverage (supervised run):\n"
            "  blocks planned    8\n"
            "  blocks delivered  7\n"
            "  blocks lost       1: 0xa00\n"
            "  retry histogram:\n"
            "    1 attempt(s): 2 unit(s)\n"
            "    2 attempt(s): 2 unit(s)\n"
            "  units beyond one clean attempt:\n"
            "    00001: crash,crash -> bisected\n"
            "    00001.1: crash,crash -> lost\n")
        assert capsys.readouterr().out == golden

    @pytest.mark.faults
    def test_strict_coverage_exits_4_when_a_worker_keeps_dying(
            self, tmp_path, capsys, monkeypatch):
        from repro.telescope.aggregate import per_block_times
        from repro.telescope.capture import read_batches
        from repro.testing.faults import crash_on_block, process_fault_env

        capture = tmp_path / "day.pobs"
        assert main(["simulate", "--blocks", "6", "--days", "2",
                     "--seed", "11", "--out", str(capture)]) == 0
        ipv4, _ = read_batches(str(capture))
        victim = sorted(per_block_times(ipv4))[2]
        for name, value in process_fault_env(crash_on_block(victim)).items():
            monkeypatch.setenv(name, value)
        capsys.readouterr()
        report_path = tmp_path / "health.json"
        code = main(["detect", str(capture), "--train-end", "86400",
                     "--shard-timeout", "60", "--shard-retries", "1",
                     "--strict-coverage",
                     "--health-report", str(report_path)])
        out = capsys.readouterr().out
        assert code == EXIT_DEGRADED_COVERAGE
        assert "train coverage degraded: 1/6 blocks lost" in out
        # The victim dies during training, so the detect-side report is
        # clean while the train-side report carries the coverage hole.
        document = json.loads(report_path.read_text())
        assert document["coverage"]["blocks_lost"] == []


class TestFusedInspect:
    def make_fused_checkpoint(self, tmp_path):
        """A deterministic two-vantage checkpoint: dns healthy to the
        end, darknet dead from t=24000 (open suspicion, quarantine)."""
        from repro.core.checkpoint import detector_to_json
        from repro.fusion import (FusedStreamingDetector, MappingSource,
                                  train_fused)
        from repro.net.addr import Family
        from repro.telescope.records import Observation

        family = Family.IPV4
        shift = family.bits - family.default_block_prefix
        times = np.arange(0.0, 40000.0, 10.0)
        dns = MappingSource("dns", {1: times, 2: times}, family=family)
        darknet = MappingSource("darknet", {1: times, 2: times},
                                family=family)
        model = train_fused([dns, darknet], family, 0.0, 20000.0)
        detector = FusedStreamingDetector(model, 20000.0)
        events = []
        for key in (1, 2):
            address = key << shift
            for time in times[times >= 20000.0]:
                events.append((float(time), "dns", address))
                if time < 24000.0:
                    events.append((float(time), "darknet", address))
        events.sort(key=lambda event: (event[0], event[1], event[2]))
        for time, name, address in events:
            detector.observe_from(name,
                                  Observation(time, family, address))
        path = tmp_path / "fused.ckpt.json"
        path.write_text(detector_to_json(detector))
        return path

    def test_inspect_renders_fused_checkpoint_golden(self, tmp_path,
                                                     capsys):
        path = self.make_fused_checkpoint(tmp_path)
        capsys.readouterr()
        assert main(["inspect", str(path)]) == 0
        golden = (
            f"fused checkpoint {path} (t=39,990.0s)\n"
            "fused vantages (2, primary dns):\n"
            "  dns: weight 1.0000 (healthy), 4000 observations, "
            "333 healthy / 0 quiet bins, 0 gated\n"
            "  darknet: weight 0.0000 (SUSPECT since t=24,020.0s), "
            "800 observations, 67 healthy / 266 quiet bins, 106 gated\n"
            "    quarantined [23,960.0s, 40,040.0s)\n")
        captured = capsys.readouterr()
        assert captured.out == golden
        # Metrics-free fused checkpoints are not an error: the fusion
        # state itself is the telemetry.
        assert captured.err == ""

    def test_inspect_renders_vantage_health_golden(self, tmp_path,
                                                   capsys):
        from repro.core.health import RunHealthReport, SourceHealth

        report = RunHealthReport(run="live")
        stage = report.stage("stream")
        stage.attempted = 2
        stage.succeeded = 2
        stage.seconds = 1.25
        report.sources["dns"] = SourceHealth(
            name="dns", observations=4000, weight=1.0,
            healthy_bins=333, quiet_bins=0, gated_bins=0,
            measurable_blocks=2)
        report.sources["darknet"] = SourceHealth(
            name="darknet", observations=800, weight=0.0123,
            healthy_bins=67, quiet_bins=266, gated_bins=106,
            quarantine_windows=[(23960.0, 40040.0)], measurable_blocks=2)
        path = tmp_path / "health.json"
        path.write_text(report.to_json())
        capsys.readouterr()
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert ("vantages:\n"
                "  darknet: weight 0.0123, 800 observations, "
                "67 healthy / 266 quiet bins, 106 gated, "
                "2 measurable blocks, quarantined 16,080s over 1 window(s)\n"
                "  dns: weight 1.0000, 4000 observations, "
                "333 healthy / 0 quiet bins, 0 gated, "
                "2 measurable blocks\n") in out


class TestGoldenTranscript:
    """stdout and exit codes of the documented seed-7 drive."""

    @pytest.fixture(scope="class")
    def drive(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("golden")
        capture, model = root / "cap.pobs", root / "model.json"
        assert main(["simulate", "--blocks", "40", "--days", "2",
                     "--seed", "7", "--out", str(capture)]) == 0
        assert main(["train", str(capture), "--train-end", "86400",
                     "--out", str(model)]) == 0
        return root, capture, model

    def run(self, capsys, drive, argv):
        root = drive[0]
        capsys.readouterr()
        code = main(argv)
        return code, capsys.readouterr().out.replace(str(root), "<dir>")

    def test_train(self, capsys, drive):
        _, capture, model = drive
        assert self.run(capsys, drive, [
            "train", str(capture), "--train-end", "86400",
            "--out", str(model)]) == (
            0, "trained 40 blocks (85.0% measurable) -> <dir>/model.json\n")

    def test_detect(self, capsys, drive):
        _, capture, _ = drive
        assert self.run(capsys, drive, [
            "detect", str(capture), "--train-end", "86400"]) == (0, (
                "trained 40 blocks (34 measurable, coverage 85.0%)\n"
                + DETECT_EVENTS))

    def test_detect_saved_model(self, capsys, drive):
        _, capture, model = drive
        assert self.run(capsys, drive, [
            "detect", str(capture), "--model", str(model)]) == (0, (
                "trained 40 blocks (34 measurable, coverage 85.0%)\n"
                + DETECT_EVENTS))

    def test_live_sentinel_reorder(self, capsys, drive):
        _, capture, model = drive
        assert self.run(capsys, drive, [
            "live", str(capture), "--model", str(model), "--sentinel",
            "--reorder-horizon", "2.0"]) == (0, (
                "replayed 301,562 observations to t=172,800.0s\n"
                + RECORDS.format(resume="0 resume skipped + ")
                + "reorder buffer: 0 out-of-order arrivals re-sorted, "
                "0 beyond-horizon dropped (peak occupancy 24)\n"
                "sentinel: 0 quarantined feed windows (0s)\n"
                + LIVE_EVENTS))

    def test_live_partitioned(self, capsys, drive):
        root, capture, model = drive
        assert self.run(capsys, drive, [
            "live", str(capture), "--model", str(model),
            "--partitions", "2", "--checkpoint", str(root / "parts")]) == (
            0, ("partitions: 2 over 40 blocks (plan e63003757e33), "
                "0 restarts, 0 rows replayed\n"
                "manifest: <dir>/parts/live-manifest.json\n"
                "replayed 301,562 observations to t=172,800.0s\n"
                + LIVE_EVENTS))

    def test_serve(self, capsys, drive):
        _, capture, model = drive
        assert self.run(capsys, drive, [
            "serve", str(capture), "--model", str(model), "--port", "0",
            "--linger-s", "0"]) == (0, RECORDS.format(resume=""))


DETECT_EVENTS = (
    "  block 0x33380a: outage 171,354.1s -> 172,801.0s (1,447s)\n"
    "  block 0x33388a: outage 172,200.0s -> 172,801.0s (601s)\n"
    "  block 0x81f5f4: outage 171,000.0s -> 172,801.0s (1,801s)\n"
    "  block 0xadfa26: outage 147,018.4s -> 150,797.3s (3,779s)\n"
    "  block 0xd3b699: outage 172,461.7s -> 172,801.0s (339s)\n"
    "5 outage events >= 300s\n")
LIVE_EVENTS = (
    "  block 0xadfa26: outage 147,018.4s -> 150,797.3s (3,779s)\n"
    "1 outage events >= 300s\n")
RECORDS = ("records: 604,956 read = 303,394 training-window skipped + "
           "{resume}301,562 observed + 0 late-dropped\n")
