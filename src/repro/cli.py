"""Command-line interface: simulate, detect, and reproduce experiments.

Examples::

    repro-outage simulate --blocks 500 --out day.pobs
    repro-outage detect day.pobs --train-end 86400
    repro-outage experiment table1 --scale 0.5
    repro-outage report --scale 0.5
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .core.health import ErrorBudgetExceeded, RunHealthReport
from .core.pipeline import PassiveOutagePipeline
from .obs.explain import (
    EXPLAIN_FORMAT,
    NULL_EXPLAIN,
    ExplainLog,
    format_explain,
    read_explain_jsonl,
    set_explain,
)
from .obs.metrics import (
    NULL_REGISTRY,
    SNAPSHOT_FORMAT,
    MetricsRegistry,
    render_snapshot,
    set_registry,
)
from .obs.server import ObservabilityServer
from .obs.tracing import NULL_TRACER, SpanTracer, get_tracer, set_tracer
from .experiments import (
    run_baseline_comparison,
    run_darknet_fusion,
    run_sensitivity,
    run_figure1,
    run_figure2a,
    run_figure2b,
    run_short_uplift,
    run_table1,
    run_table2,
    run_table3,
    run_tuning_ablation,
    run_week_validation,
)
from .telescope.aggregate import per_block_times
from .telescope.capture import CaptureWriter, read_batches
from .telescope.records import ObservationBatch
from .telescope.stream import merge_streams
from .traffic.internet import FamilyConfig, InternetConfig, SimulatedInternet
from .traffic.outages import IPV4_OUTAGE_MODEL, IPV6_OUTAGE_MODEL

#: Exit code for :class:`ErrorBudgetExceeded` — distinct from generic
#: failure (1) and argparse usage errors (2) so operators can alert on
#: "the run was too degraded to trust" specifically.
EXIT_BUDGET_TRIPPED = 3

#: Exit code for a supervised run that completed *degraded* — blocks
#: lost to repeatedly-dying workers — under ``--strict-coverage``.
#: Distinct from the budget code: 3 means "too much was quarantined to
#: trust the result", 4 means "the result is trustworthy but
#: incomplete, and the operator asked to be paged about holes".
EXIT_DEGRADED_COVERAGE = 4

EXPERIMENTS: Dict[str, Callable] = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "figure1": run_figure1,
    "figure2a": run_figure2a,
    "figure2b": run_figure2b,
    "uplift": run_short_uplift,
    "ablation": run_tuning_ablation,
    "baselines": run_baseline_comparison,
    "fusion": run_darknet_fusion,
    "sensitivity": run_sensitivity,
    "week": run_week_validation,
}


class _RunTelemetry:
    """One command's telemetry plane: registry, tracer, explain, server."""

    def __init__(self, registry: object, tracer: object, explain: object,
                 server: Optional[ObservabilityServer]) -> None:
        self.registry = registry
        self.tracer = tracer
        self.explain = explain
        self.server = server


@contextmanager
def _telemetry(args: argparse.Namespace,
               force_metrics: bool = False) -> Iterator[_RunTelemetry]:
    """Install (and on exit, export and uninstall) run telemetry.

    A real registry/tracer/explain log is created only when the
    corresponding ``--metrics-out``/``--trace-out``/``--explain-out``
    flag was given, when ``--obs-port`` asks for the live HTTP endpoint
    (which serves all three, so all three must exist), or under
    ``force_metrics`` — the live monitor always meters so checkpoints
    carry cumulative telemetry.  All are installed as the process
    defaults so internally-constructed pipelines pick them up, and the
    previous defaults are restored afterwards — ``main()`` is called
    repeatedly in-process by the test suite.  Export happens in the
    ``finally`` so a budget-tripped run still writes its telemetry.
    """
    from .core.serialize import atomic_write_text

    metrics_out = getattr(args, "metrics_out", "")
    trace_out = getattr(args, "trace_out", "")
    explain_out = getattr(args, "explain_out", "")
    obs_port = getattr(args, "obs_port", None)
    serve = obs_port is not None
    registry = (MetricsRegistry() if (metrics_out or force_metrics or serve)
                else NULL_REGISTRY)
    tracer = SpanTracer() if (trace_out or serve) else NULL_TRACER
    explain = ExplainLog() if (explain_out or serve) else NULL_EXPLAIN
    previous_registry = set_registry(registry)
    previous_tracer = set_tracer(tracer)
    previous_explain = set_explain(explain)
    server: Optional[ObservabilityServer] = None
    if serve:
        server = ObservabilityServer(port=obs_port, registry=registry,
                                     tracer=tracer, explain=explain).start()
        print(f"observability endpoint: {server.url}", file=sys.stderr)
    try:
        yield _RunTelemetry(registry, tracer, explain, server)
    finally:
        if server is not None:
            server.stop()
        set_registry(previous_registry)
        set_tracer(previous_tracer)
        set_explain(previous_explain)
        if metrics_out and registry.enabled:
            atomic_write_text(metrics_out, registry.to_json())
            print(f"metrics written to {metrics_out}")
        if trace_out and tracer.enabled:
            atomic_write_text(trace_out, tracer.to_chrome_json())
            print(f"trace written to {trace_out}")
        if explain_out and explain.enabled:
            atomic_write_text(explain_out, explain.to_jsonl())
            print(f"explain log written to {explain_out}")


def _metric_value(registry: object, name: str) -> float:
    """Current value of an unlabelled counter/gauge, 0 if unregistered."""
    family = registry.get(name)
    return family.value if family is not None else 0


@contextmanager
def _graceful_stop() -> Iterator[Callable[[], bool]]:
    """SIGTERM/SIGINT set a flag instead of killing the monitor.

    The live paths poll the yielded callable as they go (once per
    record, or once per decoded chunk in single-process ``live``) and
    exit through their normal teardown — flushing checkpoints and
    telemetry — rather than dying mid-write.  Previous handlers are
    restored on exit because ``main()`` is called repeatedly in-process
    by the test suite; installation is skipped quietly off the main
    thread, where CPython forbids it.
    """
    stop = {"flag": False}

    def _handler(signum: int, frame: object) -> None:
        stop["flag"] = True

    previous: Dict[int, object] = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _handler)
        except ValueError:
            pass
    try:
        yield lambda: stop["flag"]
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _cmd_simulate(args: argparse.Namespace) -> int:
    """Build a simulated Internet and write its capture file."""
    config = InternetConfig(
        end=args.days * 86400.0,
        training_seconds=min(86400.0, args.days * 86400.0 / 2.0),
        seed=args.seed,
        ipv4=FamilyConfig(n_blocks=args.blocks,
                          outage_model=IPV4_OUTAGE_MODEL),
        ipv6=(FamilyConfig(n_blocks=args.v6_blocks,
                           outage_model=IPV6_OUTAGE_MODEL)
              if args.v6_blocks else None),
    )
    internet = SimulatedInternet.build(config)
    print(internet.describe())
    # A real vantage point writes records in arrival order, and the
    # streaming consumers (repro-outage live, StreamingDetector) rely
    # on it: group per family, then interleave globally by time.
    per_family: Dict[object, List[ObservationBatch]] = {}
    for profile, times in internet.passive_observations():
        batch = ObservationBatch(
            profile.family, times,
            [profile.key] * len(times))
        per_family.setdefault(profile.family, []).append(batch)
    batches = [ObservationBatch.concatenate(group).sorted_by_time()
               for group in per_family.values() if group]
    records = 0
    with CaptureWriter(args.out) as writer:
        if len(batches) == 1:
            writer.write_batch(batches[0])
            records = len(batches[0])
        else:
            for observation in merge_streams(
                    *(batch.to_observations() for batch in batches)):
                writer.write(observation)
                records += 1
    print(f"wrote {records:,} observations to {args.out}")
    return 0


def _load_capture(args: argparse.Namespace, tracer: object
                  ) -> Optional[Tuple[ObservationBatch,
                                      Dict[int, np.ndarray], float, float]]:
    """``args.capture``'s time-sorted IPv``args.family`` batch, its
    per-block times (under ``capture.decode``/``aggregate.split``
    spans) and its window ``[start, end)``; None (after saying why)
    when it holds no finite record of that family."""
    with tracer.span("capture.decode"):
        ipv4, ipv6 = read_batches(args.capture)
    batch = ipv4 if args.family == 4 else ipv6
    if not len(batch):
        print(f"capture has no IPv{args.family} observations",
              file=sys.stderr)
        return None
    with tracer.span("aggregate.split", records=len(batch)):
        batch = batch.sorted_by_time()
        per_block = per_block_times(batch)
    # A NaN sorts last: as the window end it would poison every block's
    # bin grid, not just its own.
    finite = batch.times[np.isfinite(batch.times)]
    if not len(finite):
        print("capture has no finite timestamps", file=sys.stderr)
        return None
    return batch, per_block, float(finite[0]), float(finite[-1]) + 1.0


def _budget_tripped(error: ErrorBudgetExceeded,
                    args: argparse.Namespace) -> int:
    """Report a run too degraded to trust, writing its health report
    under ``--health-report``; the exit code."""
    print(f"error budget exceeded: {error}", file=sys.stderr)
    _write_health_report(args, error.report)
    return EXIT_BUDGET_TRIPPED


def _cmd_train(args: argparse.Namespace) -> int:
    """Train per-block models from a capture and save them as JSON."""
    from .core.serialize import save_model

    # No telemetry flags here: spans go to the process tracer, as the
    # pipeline's do.
    loaded = _load_capture(args, get_tracer())
    if loaded is None:
        return 1
    batch, per_block, start, end = loaded
    try:
        model = PassiveOutagePipeline().train(
            batch.family, per_block, start, args.train_end or end)
    except ErrorBudgetExceeded as error:
        return _budget_tripped(error, args)
    save_model(model, args.out)
    print(f"trained {len(model.parameters)} blocks "
          f"({model.coverage():.1%} measurable) -> {args.out}")
    return 0


def _write_health_report(args: argparse.Namespace,
                         report: Optional[RunHealthReport]) -> None:
    """Atomically write ``report`` under ``--health-report`` (no-op
    without the flag or a report)."""
    from .core.serialize import atomic_write_text

    path = getattr(args, "health_report", "")
    if path and report is not None:
        atomic_write_text(path, report.to_json())
        print(f"health report written to {path}")


def _print_quarantine_summary(report: Optional[RunHealthReport]) -> None:
    if report is None or not report.blocks_quarantined:
        return
    print(f"{report.blocks_quarantined} blocks quarantined "
          f"({report.quarantine_fraction:.1%} of attempted):")
    for entry in report.dead_letters.entries:
        print(f"  block {entry.block_key:#x} [{entry.stage}] "
              f"{entry.error_type}: {entry.error}")


def _print_outages(results: Dict, min_duration: float) -> None:
    events = 0
    for key, block in sorted(results.items()):
        for event in block.timeline.events(min_duration):
            events += 1
            print(f"  block {key:#x}: outage {event.start:,.1f}s "
                  f"-> {event.end:,.1f}s ({event.duration:,.0f}s)")
    print(f"{events} outage events >= {min_duration:.0f}s")


def _supervision(args: argparse.Namespace,
                 prefix: str) -> Optional["SupervisionPolicy"]:
    """The policy ``--{prefix}-timeout/-retries/-max-rss-mb`` ask for;
    None when none of them is given."""
    timeout, retries, max_rss_mb = (
        getattr(args, f"{prefix}_{name}")
        for name in ("timeout", "retries", "max_rss_mb"))
    if timeout is None and retries is None and max_rss_mb is None:
        return None
    from .parallel import SupervisionPolicy

    return SupervisionPolicy(timeout=timeout,
                             retries=2 if retries is None else retries,
                             max_rss_mb=max_rss_mb)


def _cmd_detect(args: argparse.Namespace) -> int:
    """Train on the leading window of a capture, detect on the rest.

    With ``--model``, skips training and uses a saved model instead.
    """
    supervision = _supervision(args, "shard")
    workers = args.workers
    if supervision is not None and not workers:
        # Supervision is a property of the parallel path; asking for it
        # implies at least one supervised worker.
        workers = 1

    with _telemetry(args) as telemetry:
        registry, tracer = telemetry.registry, telemetry.tracer
        loaded = _load_capture(args, tracer)
        if loaded is None:
            return 1
        batch, per_block, start, end = loaded
        train_end = args.train_end if args.train_end else (start + end) / 2.0

        pipeline = PassiveOutagePipeline(
            max_quarantine_frac=args.max_quarantine_frac,
            metrics=registry, tracer=tracer,
            workers=workers, shard_chunk=args.shard_chunk,
            supervision=supervision)
        try:
            if args.model:
                from .core.serialize import load_model

                model = load_model(args.model)
                evaluate = per_block
                detect_start = start
            else:
                # NaN compares false against the boundary, so a plain
                # t >= split would silently discard poisoned records;
                # keep them on the detection side instead, where the
                # detector quarantines the block and the health report
                # names it.
                train = {k: t[(t < train_end) & np.isfinite(t)]
                         for k, t in per_block.items()}
                evaluate = {k: t[~(t < train_end)]
                            for k, t in per_block.items()}
                model = pipeline.train(batch.family, train, start, train_end)
                detect_start = train_end
            result = pipeline.detect(model, evaluate, detect_start, end)
        except ErrorBudgetExceeded as error:
            return _budget_tripped(error, args)

    print(f"trained {len(model.parameters)} blocks "
          f"({len(model.measurable_keys)} measurable, coverage "
          f"{model.coverage():.1%})")
    _print_quarantine_summary(result.health)
    degraded = False
    for run_name, health in (("train", getattr(model, "health", None)),
                             ("detect", result.health)):
        coverage = health.coverage if health is not None else None
        if coverage is not None and coverage.degraded:
            degraded = True
            print(f"{run_name} coverage degraded: "
                  f"{len(coverage.blocks_lost)}/{coverage.blocks_planned} "
                  f"blocks lost to supervision (workers kept dying); "
                  f"lost blocks are dead-lettered under stage=supervision")
    _write_health_report(args, result.health)
    _print_outages(result.blocks, args.min_duration)
    if args.strict_coverage and degraded:
        return EXIT_DEGRADED_COVERAGE
    return 0


def _capture_failure(error: Exception) -> int:
    """Say why replaying a capture failed, with the flag that helps
    (none helps a non-finite timestamp); the exit code."""
    from .telescope.capture import (CaptureCorruptionError,
                                    NonFiniteTimestampError)

    if isinstance(error, CaptureCorruptionError):
        print(f"corrupt capture: {error}", file=sys.stderr)
        print("hint: pass --tolerant to stop at the last good frame "
              "instead", file=sys.stderr)
    elif isinstance(error, OSError):
        print(f"cannot read capture: {error}", file=sys.stderr)
    elif isinstance(error, NonFiniteTimestampError):
        print(error, file=sys.stderr)
    else:
        print(f"capture is not time-sorted: {error}", file=sys.stderr)
        print("hint: pass --reorder-horizon SECONDS to re-sort bounded "
              "disorder in-stream", file=sys.stderr)
    return 1


def _stream_model(args: argparse.Namespace) -> Optional["TrainedModel"]:
    """The ``--model`` a stream replay (``live``, ``serve``) runs; None,
    after saying why, when it is not for ``--family`` or
    ``--reorder-horizon`` is negative."""
    # Imported per call: a module-level import would bind the function
    # before a wrapper on repro.core.serialize.load_model (perfbench's
    # probes) is installed, and the wrapper would never see this call.
    from .core.serialize import load_model

    model = load_model(args.model)
    if int(model.family) != args.family:
        print(f"model is IPv{int(model.family)}, not IPv{args.family}",
              file=sys.stderr)
        return None
    if args.reorder_horizon < 0:
        print(f"--reorder-horizon must be >= 0, got {args.reorder_horizon}",
              file=sys.stderr)
        return None
    return model


def _stream_engine(args: argparse.Namespace, model: "TrainedModel",
                   registry: object, detector: Optional[object] = None,
                   **options: object) -> "LiveBlockEngine":
    """The live engine over ``detector`` (default: a fresh streaming
    detector, with the vantage sentinel under ``--sentinel``) behind
    the ``--reorder-horizon`` buffer; ``options`` go to the engine."""
    from .core.detector import StreamingDetector
    from .live import LiveBlockEngine
    from .telescope.reorder import LatePolicy, ReorderBuffer

    if detector is None:
        sentinel = None
        if getattr(args, "sentinel", False):
            from .core.sentinel import SentinelConfig, VantageSentinel

            sentinel = VantageSentinel(model.train_end, SentinelConfig())
        detector = StreamingDetector(model.family, model.histories,
                                     model.parameters, model.train_end,
                                     sentinel=sentinel, metrics=registry)
    buffer = (ReorderBuffer(args.reorder_horizon, LatePolicy.COUNT,
                            metrics=registry)
              if args.reorder_horizon > 0 else None)
    return LiveBlockEngine(detector, buffer=buffer, **options)


def _records_line(read: int, engine: "LiveBlockEngine", skipped: int,
                  resumed: Optional[int] = None,
                  interrupted: bool = False) -> str:
    """The ``records:`` line, which accounts for every record read."""
    buffer = engine.buffer
    terms = [f"{skipped:,} training-window skipped"]
    if resumed is not None:
        terms.append(f"{resumed:,} resume skipped")
    terms.append(f"{engine.observed:,} observed")
    terms.append(f"{buffer.stats.late_dropped if buffer else 0:,} "
                 f"late-dropped")
    if interrupted:
        terms.append(f"{buffer.pending if buffer else 0:,} still buffered")
    return f"records: {read:,} read = " + " + ".join(terms)


def _cmd_live(args: argparse.Namespace) -> int:
    """Replay a capture through the resilient live-monitor path.

    This is the deployment shape: a saved model, a streaming detector
    fed in columnar chunks (or, partitioned, by supervised workers fed
    record by record), an optional reorder buffer in front (bounded
    out-of-order tolerance), an optional vantage sentinel (observer
    failure quarantine), and periodic atomic checkpoints so a killed
    monitor resumes mid-stream instead of retraining.
    """
    model = _stream_model(args)
    if model is None:
        return 1
    # The live monitor always meters (force_metrics): checkpoints carry
    # the cumulative telemetry snapshot whether or not this particular
    # invocation asked for --metrics-out, so counters survive a
    # kill-and-resume regardless of the resuming operator's flags.
    with _telemetry(args, force_metrics=True) as telemetry:
        if args.partitions is not None or args.partition_chunk is not None:
            return _run_live_partitioned(args, model, telemetry)
        return _run_live(args, model, telemetry)


def _live_drift_config(args: argparse.Namespace) -> Optional[object]:
    from .live import DriftConfig

    if args.drift_audit_every <= 0:
        return None
    return DriftConfig(args.drift_audit_every,
                       window_seconds=args.drift_window,
                       drift_factor=args.drift_factor,
                       min_arrivals=args.drift_min_arrivals)


def _print_live_summary(args: argparse.Namespace, results: Dict,
                        registry: object,
                        sentinel: Optional[Tuple[List, float]]) -> None:
    """Sentinel windows (``(windows, seconds)``), drift swaps and
    outage events: the tail both live paths print."""
    if sentinel is not None:
        windows, seconds = sentinel
        print(f"sentinel: {len(windows)} quarantined feed windows "
              f"({seconds:,.0f}s)")
        for window_start, window_end in windows:
            print(f"  quarantine {window_start:,.1f}s -> {window_end:,.1f}s")
    swaps = _metric_value(registry, "drift_hot_swaps_total")
    if swaps:
        flagged = _metric_value(registry, "drift_blocks_flagged_total")
        print(f"drift: {flagged:.0f} blocks flagged, "
              f"{swaps:.0f} models hot-swapped")
    _print_outages(results, args.min_duration)


def _run_live(args: argparse.Namespace, model: "TrainedModel",
              telemetry: _RunTelemetry) -> int:
    from .core.checkpoint import (
        CheckpointFormatError,
        load_checkpoint_rotated,
        save_checkpoint_rotated,
    )
    from .core.health import ErrorBudget
    from .live import _PROCESS_FAULT_ENV
    from .telescope.capture import CaptureReader, NonFiniteTimestampError

    registry, tracer = telemetry.registry, telemetry.tracer
    resume_time = None
    detector = None
    if args.checkpoint and os.path.exists(args.checkpoint):
        try:
            detector = load_checkpoint_rotated(args.checkpoint, model,
                                               metrics=registry,
                                               keep=args.checkpoint_keep)
        except CheckpointFormatError as error:
            print(f"cannot resume from {args.checkpoint}: {error}",
                  file=sys.stderr)
            return 1
        resume_time = detector.last_time
        print(f"resumed from {args.checkpoint} at t={resume_time:,.1f}s")
    fault_plan = None
    if os.environ.get(_PROCESS_FAULT_ENV):
        # Chaos-suite channel, lazy so production never imports it.
        from .testing.faults import load_streaming_faults

        fault_plan = load_streaming_faults(model.parameters)
    engine = _stream_engine(args, model, registry, detector,
                            drift=_live_drift_config(args),
                            fault_plan=fault_plan)
    detector = engine.detector
    # The flag wins over a resumed checkpoint's stored budget: the
    # operator invoking the monitor sets this run's tolerance.
    detector.budget = ErrorBudget(args.max_quarantine_frac)
    # Resume restores the drift auditor but not the reorder buffer: the
    # time-based skip below re-reads everything that was still buffered
    # at checkpoint time, so restoring the buffer would double-feed it.
    engine.restore(detector.restored_extra, buffer_state=False)

    def _save(announce: Optional[object] = None) -> None:
        with tracer.span("checkpoint.save"):
            save_checkpoint_rotated(detector, args.checkpoint,
                                    keep=args.checkpoint_keep,
                                    extra=engine.checkpoint_extra())
        if announce is not None:
            print(f"checkpoint saved to {args.checkpoint}", file=announce)

    next_checkpoint = (detector.last_time + args.checkpoint_every
                       if args.checkpoint else float("inf"))
    interval = getattr(args, "metrics_interval", 0.0)
    next_status = (detector.last_time + interval
                   if interval > 0 else float("inf"))
    status_bins = _metric_value(registry, "stream_bins_total")
    # Every record read lands in exactly one of these (plus the late
    # drops and, when interrupted, what the buffer still holds).
    skipped_training = skipped_resume = 0
    interrupted = False
    with _graceful_stop() as stop_requested:
        try:
            with CaptureReader(args.capture,
                               tolerant=args.tolerant) as reader:
                while True:
                    if stop_requested():
                        interrupted = True
                        break
                    first = reader.records_read
                    with tracer.span("capture.decode"):
                        chunk = reader.read_chunk()
                    if chunk is None:
                        break
                    # Training-window traffic is not live; after a
                    # resume, records up to the checkpoint were already
                    # accounted before the crash.  NaN passes both.
                    times = chunk.times
                    keep = ~(times < detector.start)
                    skipped_training += len(chunk) - int(keep.sum())
                    if resume_time is not None:
                        fresh = ~(times <= resume_time)
                        skipped_resume += int((keep & ~fresh).sum())
                        keep &= fresh
                    poisoned = np.flatnonzero(keep & ~np.isfinite(times))
                    cut = int(poisoned[0]) if poisoned.size else len(chunk)
                    rows = chunk[np.flatnonzero(keep[:cut])]
                    fed = 0
                    while fed < len(rows):
                        with tracer.span("live.feed"):
                            fed += engine.feed_batch(
                                rows[fed:], min(next_checkpoint, next_status))
                        if (args.checkpoint
                                and detector.last_time >= next_checkpoint):
                            _save()
                            next_checkpoint = (detector.last_time
                                               + args.checkpoint_every)
                        if detector.last_time >= next_status:
                            bins = _metric_value(registry,
                                                 "stream_bins_total")
                            lag = _metric_value(
                                registry, "stream_watermark_lag_seconds")
                            print(f"[live t={detector.last_time:,.0f}s] "
                                  f"{(bins - status_bins) / interval:,.2f} "
                                  f"windows/s, lag {lag:,.1f}s, "
                                  f"{len(detector.dead_letters)} "
                                  f"blocks quarantined",
                                  file=sys.stderr)
                            status_bins = bins
                            next_status = detector.last_time + interval
                    if poisoned.size:
                        raise NonFiniteTimestampError(first + cut,
                                                      float(times[cut]))
                if not interrupted:
                    with tracer.span("live.feed"):
                        engine.flush()
                if reader.stopped_early:
                    print(f"capture corrupt past record "
                          f"{reader.records_read}; stopped at last good "
                          f"frame", file=sys.stderr)
        except (OSError, ValueError) as error:
            return _capture_failure(error)

    if interrupted:
        # Graceful SIGTERM/SIGINT: the buffer stays unflushed (its
        # records are re-read on resume by the time-based skip above),
        # the checkpoint lands, and telemetry flushes in _telemetry's
        # finally.  Exit 0: interruption is an operator action.
        print("interrupted: stopping cleanly", file=sys.stderr)
    else:
        try:
            with tracer.span("detector.finalize"):
                results = detector.finalize(detector.last_time)
        except ErrorBudgetExceeded as error:
            code = _budget_tripped(error, args)
            if args.checkpoint:
                _save(announce=sys.stderr)
            return code
        _print_quarantine_summary(detector.last_health)
        _write_health_report(args, detector.last_health)
    if args.checkpoint:
        _save(announce=sys.stderr if interrupted else sys.stdout)
    print(f"replayed {engine.observed:,} observations to "
          f"t={detector.last_time:,.1f}s")
    print(_records_line(reader.records_read, engine, skipped_training,
                        skipped_resume, interrupted))
    if interrupted:
        return 0
    if engine.buffer:
        stats = engine.buffer.stats
        print(f"reorder buffer: {stats.out_of_order} out-of-order arrivals "
              f"re-sorted, {stats.late_dropped} beyond-horizon dropped "
              f"(peak occupancy {stats.occupancy_peak})")
    sentinel = detector.sentinel
    _print_live_summary(args, results, registry, None if sentinel is None
                        else (sentinel.quarantined_intervals(),
                              sentinel.quarantined_seconds()))
    return 0


def _run_live_partitioned(args: argparse.Namespace, model: "TrainedModel",
                          telemetry: _RunTelemetry) -> int:
    """Live monitoring with the keyspace partitioned across workers."""
    registry = telemetry.registry
    from .live import LivePartitionSupervisor
    from .parallel import ShardWorkerError
    from .telescope.capture import NonFiniteTimestampError

    if not args.checkpoint:
        print("partitioned live requires --checkpoint DIR: per-partition "
              "checkpoints and the run manifest live there",
              file=sys.stderr)
        return 1
    os.makedirs(args.checkpoint, exist_ok=True)
    with _graceful_stop() as stop_requested:
        supervisor = LivePartitionSupervisor(
            model,
            partitions=args.partitions,
            partition_chunk=args.partition_chunk,
            policy=_supervision(args, "partition"),
            checkpoint_dir=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            checkpoint_keep=args.checkpoint_keep,
            reorder_horizon=args.reorder_horizon,
            sentinel=args.sentinel,
            drift=_live_drift_config(args),
            max_quarantine_frac=args.max_quarantine_frac,
            metrics=registry,
            tracer=telemetry.tracer,
            explain=telemetry.explain,
            stop_requested=stop_requested,
            status=lambda line: print(line, file=sys.stderr))
        if telemetry.server is not None:
            # /health now reports this run: per-partition status and
            # watermark lag instead of bare process liveness.
            telemetry.server.health_provider = supervisor.health_document
        try:
            result = supervisor.run(args.capture, tolerant=args.tolerant)
        except (OSError, NonFiniteTimestampError) as error:
            return _capture_failure(error)
        except ShardWorkerError as error:
            # A worker's exception is a harness bug, not a block fault
            # (those are dead-lettered in-worker); surface it verbatim.
            print(f"live partition worker failed: {error}", file=sys.stderr)
            return 1
        except ErrorBudgetExceeded as error:
            return _budget_tripped(error, args)

    if result.stopped_early:
        print(f"capture corrupt past record {result.records_read}; "
              f"stopped at last good frame", file=sys.stderr)
    _print_quarantine_summary(result.health)
    _write_health_report(args, result.health)
    print(f"partitions: {len(supervisor.partitions)} over "
          f"{len(model.parameters)} blocks (plan {supervisor.digest[:12]}), "
          f"{result.restarts} restarts, "
          f"{result.replayed_rows:,} rows replayed")
    if result.manifest_path:
        print(f"manifest: {result.manifest_path}")
    print(f"replayed {result.observed:,} observations to "
          f"t={result.end:,.1f}s")
    if result.interrupted:
        print("interrupted: partition checkpoints flushed; rerun the same "
              "command to resume", file=sys.stderr)
        return 0
    _print_live_summary(args, result.results, registry,
                        (result.sentinel_windows, result.sentinel_seconds)
                        if args.sentinel else None)
    if result.degraded:
        coverage = result.health.coverage
        print(f"live coverage degraded: "
              f"{len(coverage.blocks_lost)}/{coverage.blocks_planned} "
              f"blocks lost to partitions that exhausted their restart "
              f"budget; lost blocks are dead-lettered under stage=stream")
        if args.strict_coverage:
            return EXIT_DEGRADED_COVERAGE
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Replay a capture through the live engine behind the serving plane.

    The deployment shape for consumers: the streaming detector runs
    in-process and the :mod:`repro.serve` plane fronts it — query
    up/down state by address or prefix, subscribe to onset/recovery/
    retraction events over a WebSocket, scrape ``/metrics``, and let a
    load balancer watch ``/ready``.  ``--linger-s`` keeps serving after
    the capture is exhausted (``-1`` = until SIGTERM), which is how the
    smoke example and a demo deployment use it.
    """
    from .serve import (
        AdmissionConfig,
        EngineBridge,
        LagPolicy,
        ReadyGate,
        ServeConfig,
        ServingPlane,
    )
    from .telescope.capture import CaptureReader, NonFiniteTimestampError

    model = _stream_model(args)
    if model is None:
        return 1

    with _telemetry(args, force_metrics=True) as telemetry:
        registry = telemetry.registry
        engine = _stream_engine(args, model, registry)
        detector = engine.detector
        config = ServeConfig(
            host=args.host, port=args.port,
            admission=AdmissionConfig(
                max_connections=args.max_clients,
                max_subscribers=args.max_subscribers,
                shed_qps=args.shed_qps,
                salt=f"{args.model}|{model.train_end}"),
            lag=LagPolicy(
                stale_after_s=args.stale_after_s,
                fail_after_s=(args.fail_stale_after_s
                              if args.fail_stale_after_s > 0 else None)),
            ready=ReadyGate(max_lag_s=args.max_lag_s))
        plane = ServingPlane(
            model.family, config, registry=registry,
            health_provider=lambda: {
                "status": "serving", "run": "live-serve",
                "watermark": detector.last_time,
                "windows": detector.windows_closed,
                "quarantined": len(detector.dead_letters),
            })
        bridge = EngineBridge(engine, plane,
                              publish_min_interval_s=args.publish_every_s)
        plane.start()
        print(f"serving plane: {plane.url}", file=sys.stderr)
        interrupted = False
        skipped = 0
        try:
            with _graceful_stop() as stop_requested:
                try:
                    with CaptureReader(args.capture,
                                       tolerant=args.tolerant) as reader:
                        for observation in reader:
                            if stop_requested():
                                interrupted = True
                                break
                            if observation.time < detector.start:
                                skipped += 1
                                continue  # training-window traffic
                            engine.feed(observation)
                            bridge.step()
                except (OSError, ValueError) as error:
                    # Decided here, off the per-record path: the record
                    # that failed is the one just read.
                    if (isinstance(error, ValueError)
                            and not math.isfinite(observation.time)):
                        error = NonFiniteTimestampError(
                            reader.records_read - 1, observation.time)
                    return _capture_failure(error)
                if not interrupted:
                    engine.flush()
                    bridge.step(force=True)
                    print(f"replayed {engine.observed:,} observations to "
                          f"t={detector.last_time:,.1f}s; serving",
                          file=sys.stderr)
                print(_records_line(reader.records_read, engine, skipped,
                                    interrupted=interrupted))
                # An interrupted replay falls straight through: the
                # stop flag stays set.
                linger = args.linger_s
                deadline = (time.monotonic() + linger
                            if linger >= 0 else None)
                while not stop_requested():
                    if deadline is not None \
                            and time.monotonic() >= deadline:
                        break
                    time.sleep(0.05)
        finally:
            # Drain: stop accepting, flush subscriber outboxes, close
            # with 1001 going-away — the SIGTERM rolling-restart path.
            plane.stop(drain=True)
        print(f"served {plane.admission.sheds} sheds, "
              f"{plane.last_event_seq} events; stopping cleanly",
              file=sys.stderr)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    """Run one named experiment and print its artefact.

    Experiments build their pipelines internally, so telemetry reaches
    them through the process-default registry/tracer installed by
    :func:`_telemetry` (components resolve the default at construction).
    """
    runner = EXPERIMENTS[args.name]
    with _telemetry(args):
        # Experiments construct pipelines internally, so --workers
        # reaches them the same way telemetry does: as a process-wide
        # default, restored afterwards.
        from .parallel import set_default_parallelism

        previous = set_default_parallelism(args.workers, args.shard_chunk)
        try:
            result = runner(scale=args.scale)
        except ErrorBudgetExceeded as error:
            # Same contract as `detect`: a run too degraded to trust
            # exits with the distinct budget code, and the telemetry
            # files still land (the _telemetry finally block flushes).
            return _budget_tripped(error, args)
        finally:
            set_default_parallelism(*previous)
        print(result)
    return 0


def _render_health_report(document: Dict) -> str:
    """Human-readable rendering of a run health report document.

    Deterministic (pinned by a golden test): stages in recorded order,
    lost blocks and the retry histogram sorted, attempt histories only
    for units that needed more than one attempt (the interesting ones).
    """
    report = RunHealthReport.from_dict(document)
    lines = [f"health report: run={report.run}", f"  {report.summary()}"]
    if report.stages:
        lines.append("stages:")
        for stage in report.stages:
            lines.append(
                f"  {stage.name}: attempted {stage.attempted}, "
                f"succeeded {stage.succeeded}, "
                f"quarantined {stage.quarantined} "
                f"({stage.seconds:.2f}s)")
    if report.sources:
        lines.append("vantages:")
        for name in sorted(report.sources):
            source = report.sources[name]
            line = (f"  {name}: weight {source.weight:.4f}, "
                    f"{source.observations} observations, "
                    f"{source.healthy_bins} healthy / "
                    f"{source.quiet_bins} quiet bins, "
                    f"{source.gated_bins} gated, "
                    f"{source.measurable_blocks} measurable blocks")
            if source.quarantine_windows:
                line += (f", quarantined "
                         f"{source.quarantined_seconds:,.0f}s over "
                         f"{len(source.quarantine_windows)} window(s)")
            lines.append(line)
    coverage = report.coverage
    if coverage is not None:
        lines.append("coverage (supervised run):")
        lines.append(f"  blocks planned    {coverage.blocks_planned}")
        lines.append(f"  blocks delivered  {coverage.blocks_delivered}")
        lost = ", ".join(f"{key:#x}" for key in coverage.blocks_lost)
        lines.append(f"  blocks lost       {len(coverage.blocks_lost)}"
                     + (f": {lost}" if lost else ""))
        lines.append("  retry histogram:")
        for attempts, units in coverage.retry_histogram().items():
            lines.append(f"    {attempts} attempt(s): {units} unit(s)")
        retried = [record for record in coverage.shard_attempts
                   if len(record.outcomes) > 1 or record.status != "done"]
        if retried:
            lines.append("  units beyond one clean attempt:")
            for record in retried:
                outcomes = ",".join(record.outcomes) or "-"
                lines.append(f"    {record.unit}: {outcomes} "
                             f"-> {record.status}")
    return "\n".join(lines)


def _render_live_manifest(document: Dict) -> str:
    """Human-readable rendering of a partitioned live-run manifest.

    Deterministic (pinned by a golden test): partitions in plan order,
    restart outcome histories shown only for partitions that needed
    more than one attempt.
    """
    start = float(document.get("start", 0.0))
    watermark = float(document.get("global_watermark", start))
    partitions = document.get("partitions", [])
    lines = [
        f"live run: status={document.get('status', '?')} "
        f"family=IPv{document.get('family', '?')} "
        f"plan={str(document.get('plan_digest', ''))[:12]}",
        f"  start t={start:,.1f}s, global watermark t={watermark:,.1f}s "
        f"({len(partitions)} partitions)",
        "partitions:",
    ]
    for entry in sorted(partitions, key=lambda item: item.get("index", 0)):
        outcomes = list(entry.get("outcomes", []))
        suffix = ""
        if len(outcomes) > 1 or entry.get("status") == "lost":
            suffix = f" [{','.join(outcomes) or '-'}]"
        lines.append(
            f"  {entry.get('unit', '?')}: {entry.get('status', '?'):<11} "
            f"{entry.get('blocks', 0)} blocks "
            f"({entry.get('measurable', 0)} measurable), "
            f"watermark t={float(entry.get('watermark', start)):,.1f}s, "
            f"{entry.get('windows', 0)} windows, "
            f"{entry.get('restarts', 0)} restarts, "
            f"{entry.get('drift_swaps', 0)} drift swaps{suffix}")
    return "\n".join(lines)


def _render_fusion_state(document: Dict) -> str:
    """Per-source sentinel and reliability state of a fused checkpoint.

    Deterministic (pinned by a golden test): sources in roster order,
    quarantine windows in time order.  State is rehydrated through the
    same ``from_dict`` path the restorer uses, so what this prints is
    what a resumed detector would actually trust.
    """
    from .fusion import SourceMonitor

    fusion = document["fusion"]
    names = list(fusion.get("sources", []))
    lines = [f"fused vantages ({len(names)}, "
             f"primary {fusion.get('primary', '?')}):"]
    for name in names:
        monitor = SourceMonitor.from_dict(fusion["monitors"][name])
        sentinel = monitor.sentinel
        state = "healthy"
        if sentinel.suspect_since is not None:
            state = f"SUSPECT since t={sentinel.suspect_since:,.1f}s"
        lines.append(
            f"  {name}: weight {monitor.weight:.4f} ({state}), "
            f"{monitor.observations} observations, "
            f"{monitor.healthy_bins} healthy / "
            f"{monitor.quiet_bins} quiet bins, "
            f"{monitor.gated_bins} gated")
        for left, right in sentinel.quarantined_intervals():
            lines.append(f"    quarantined [{left:,.1f}s, {right:,.1f}s)")
    return "\n".join(lines)


def _cmd_inspect(args: argparse.Namespace) -> int:
    """Pretty-print a metrics snapshot, health report, or checkpoint."""
    explain_block: Optional[int] = None
    if getattr(args, "explain", None):
        try:
            explain_block = int(args.explain, 0)
        except ValueError:
            print(f"--explain takes a block key (decimal or 0x hex), "
                  f"got {args.explain!r}", file=sys.stderr)
            return 1
    # Explain exports are JSONL (header line + one event per line), so
    # they dispatch on the first line before the single-document parse.
    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            first_line = handle.readline().strip()
        header = json.loads(first_line) if first_line else None
    except (OSError, json.JSONDecodeError):
        header = None
    if (isinstance(header, dict)
            and header.get("format") == EXPLAIN_FORMAT):
        try:
            events = read_explain_jsonl(args.path)
        except (OSError, ValueError, json.JSONDecodeError) as error:
            print(f"cannot read {args.path}: {error}", file=sys.stderr)
            return 1
        print(format_explain(events, block=explain_block))
        return 0
    if explain_block is not None:
        print(f"{args.path} is not a {EXPLAIN_FORMAT} export; --explain "
              f"applies to --explain-out files", file=sys.stderr)
        return 1
    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot read {args.path}: {error}", file=sys.stderr)
        return 1
    if not isinstance(document, dict):
        print(f"{args.path} is neither a metrics snapshot nor a checkpoint",
              file=sys.stderr)
        return 1
    from .live import LIVE_MANIFEST_FORMAT

    if document.get("format") == SNAPSHOT_FORMAT:
        snapshot = document
    elif document.get("format") == LIVE_MANIFEST_FORMAT:
        print(_render_live_manifest(document))
        return 0
    elif "stages" in document and "dead_letters" in document:
        # A --health-report document: no format marker of its own, but
        # its two mandatory sections distinguish it from the other two
        # inspectable shapes.
        print(_render_health_report(document))
        return 0
    elif "format_version" in document:
        fused = document.get("fusion")
        if fused is not None:
            print(f"fused checkpoint {args.path} "
                  f"(t={float(document.get('last_time', 0.0)):,.1f}s)")
            print(_render_fusion_state(document))
        snapshot = document.get("metrics")
        if snapshot is None:
            if fused is not None:
                return 0
            print(f"{args.path} is a checkpoint without embedded telemetry "
                  f"(it was written by a monitor with metrics off)",
                  file=sys.stderr)
            return 1
        if fused is None:
            print(f"embedded telemetry from checkpoint {args.path} "
                  f"(t={float(document.get('last_time', 0.0)):,.1f}s)")
        else:
            print("embedded telemetry:")
    else:
        print(f"{args.path} is neither a metrics snapshot nor a checkpoint",
              file=sys.stderr)
        return 1
    print(render_snapshot(snapshot))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Run every experiment in sequence (the full paper reproduction)."""
    for name, runner in EXPERIMENTS.items():
        print(f"=== {name} " + "=" * max(0, 60 - len(name)))
        print(runner(scale=args.scale))
        print()
    return 0


#: Every telemetry flag; a subcommand takes those it can export.
_TELEMETRY_ARGS: Dict[str, Dict[str, object]] = {
    "--metrics-out": dict(
        default="", help="write the run's metrics snapshot (JSON) here"),
    "--trace-out": dict(
        default="", help="write a Chrome-trace JSON of the run's stage "
                         "spans here"),
    "--metrics-interval": dict(
        type=float, default=0.0,
        help="print a telemetry one-liner to stderr every this many "
             "stream-seconds (0 disables)"),
    "--explain-out": dict(
        default="", help="write the decision-provenance explain log "
                         "(JSONL) here"),
    "--obs-port": dict(
        type=int, default=None,
        help="serve /metrics, /metrics.json, /health, /trace, /events on "
             "this port while the run is live (0 = ephemeral)"),
}


def _add_telemetry_args(parser: argparse.ArgumentParser,
                        *flags: str) -> None:
    for flag in flags or ("--metrics-out", "--trace-out", "--explain-out",
                          "--obs-port"):
        parser.add_argument(flag, **_TELEMETRY_ARGS[flag])


def _add_stream_args(parser: argparse.ArgumentParser) -> None:
    """What :func:`_stream_model` reads; ``--help`` lists the
    subcommand's own options next, then :func:`_add_ingest_args`."""
    parser.add_argument("capture", help="capture file to replay as a stream")
    parser.add_argument("--model", required=True,
                        help="saved model from 'train'")
    parser.add_argument("--family", type=int, choices=(4, 6), default=4)


def _add_ingest_args(parser: argparse.ArgumentParser) -> None:
    """How a stream replay takes a disordered or damaged capture."""
    parser.add_argument("--reorder-horizon", type=float, default=0.0,
                        help="re-sort out-of-order arrivals within this "
                             "many seconds")
    parser.add_argument("--tolerant", action="store_true",
                        help="stop cleanly at the last good frame of a "
                             "corrupt capture")


def _add_outcome_args(parser: argparse.ArgumentParser) -> None:
    """What a detection run reports, and when it fails as too degraded."""
    parser.add_argument("--min-duration", type=float, default=300.0,
                        help="only print outages at least this long")
    parser.add_argument("--health-report", default="",
                        help="write the run health report (JSON) here")
    parser.add_argument("--max-quarantine-frac", type=float, default=0.5,
                        help="fail (exit 3) when more than this fraction "
                             "of blocks is quarantined (1.0 disables)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-outage",
        description="Passive Internet outage detection (IMC 2022 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate",
                              help="simulate an Internet and write a capture")
    simulate.add_argument("--blocks", type=int, default=500,
                          help="IPv4 /24 block count")
    simulate.add_argument("--v6-blocks", type=int, default=0,
                          help="IPv6 /48 block count")
    simulate.add_argument("--days", type=float, default=2.0,
                          help="simulated days (first half is training)")
    simulate.add_argument("--seed", type=int, default=42)
    simulate.add_argument("--out", default="capture.pobs",
                          help="output capture path")
    simulate.set_defaults(func=_cmd_simulate)

    train = sub.add_parser("train",
                           help="train per-block models from a capture")
    train.add_argument("capture", help="capture file from 'simulate'")
    train.add_argument("--family", type=int, choices=(4, 6), default=4)
    train.add_argument("--train-end", type=float, default=0.0,
                       help="end of the training window (default: capture end)")
    train.add_argument("--out", default="model.json",
                       help="output model path")
    train.set_defaults(func=_cmd_train)

    detect = sub.add_parser("detect",
                            help="detect outages in a capture file")
    detect.add_argument("capture", help="capture file from 'simulate'")
    detect.add_argument("--family", type=int, choices=(4, 6), default=4)
    detect.add_argument("--train-end", type=float, default=0.0,
                        help="training/detection boundary (default: middle)")
    detect.add_argument("--model", default="",
                        help="saved model from 'train' (skips retraining)")
    _add_outcome_args(detect)
    detect.add_argument("--workers", type=int, default=None,
                        help="shard blocks across N worker processes "
                             "(output is bit-identical to --workers 1; "
                             "0 forces the sequential path)")
    detect.add_argument("--shard-chunk", type=int, default=None,
                        help="blocks per shard for --workers (default: "
                             "population/16, independent of N)")
    # --shard-* and --partition-* are read back by _supervision().
    detect.add_argument("--shard-timeout", type=float, default=None,
                        help="supervise shards: wall-clock seconds one "
                             "shard attempt may run before being killed "
                             "and retried (implies --workers 1 if unset)")
    detect.add_argument("--shard-retries", type=int, default=None,
                        help="supervised attempts beyond the first before "
                             "a failing shard is bisected (default 2)")
    detect.add_argument("--shard-max-rss-mb", type=float, default=None,
                        help="supervise shards: kill an attempt whose "
                             "resident set exceeds this many MB")
    detect.add_argument("--strict-coverage", action="store_true",
                        help="exit 4 when a supervised run completes "
                             "degraded (blocks lost to dying workers)")
    _add_telemetry_args(detect)
    detect.set_defaults(func=_cmd_detect)

    live = sub.add_parser("live",
                          help="replay a capture through the resilient "
                               "live-monitor path")
    _add_stream_args(live)
    live.add_argument("--checkpoint", default="",
                      help="checkpoint path (a directory in partitioned "
                           "mode); resumes from it when present")
    live.add_argument("--checkpoint-every", type=float, default=3600.0,
                      help="stream-seconds between checkpoints")
    live.add_argument("--checkpoint-keep", type=int, default=3,
                      help="checkpoint generations kept per detector "
                           "(resume falls back past corrupt ones)")
    live.add_argument("--partitions", type=int, default=None,
                      help="partition the keyspace across this many "
                           "supervised worker processes")
    live.add_argument("--partition-chunk", type=int, default=None,
                      help="blocks per partition (overrides --partitions; "
                           "the plan hashes the population, not the "
                           "worker count)")
    live.add_argument("--partition-timeout", type=float, default=None,
                      help="seconds of heartbeat silence (with work "
                           "outstanding) before a partition counts as "
                           "hung")
    live.add_argument("--partition-retries", type=int, default=None,
                      help="restarts-from-checkpoint granted per "
                           "partition before its blocks are dead-lettered "
                           "as lost coverage (default 2)")
    live.add_argument("--partition-max-rss-mb", type=float, default=None,
                      help="kill and restart a partition whose RSS "
                           "exceeds this many MB")
    live.add_argument("--strict-coverage", action="store_true",
                      help="exit 4 when partitions exhausted their "
                           "restart budget and blocks were lost")
    live.add_argument("--drift-audit-every", type=float, default=0.0,
                      help="audit per-block arrival rates for drift every "
                           "this many stream-seconds (0 disables)")
    live.add_argument("--drift-window", type=float, default=None,
                      help="rate-audit lookback window (default: the "
                           "audit interval)")
    live.add_argument("--drift-factor", type=float, default=2.0,
                      help="flag a block whose windowed rate differs from "
                           "its trained rate by at least this factor")
    live.add_argument("--drift-min-arrivals", type=int, default=20,
                      help="minimum windowed arrivals before a block's "
                           "rate is judged at all")
    live.add_argument("--sentinel", action="store_true",
                      help="quarantine feed-level quiet periods "
                           "(observer failure) instead of reporting "
                           "mass outages")
    _add_ingest_args(live)
    _add_outcome_args(live)
    _add_telemetry_args(live, "--metrics-out", "--trace-out",
                        "--metrics-interval", "--explain-out", "--obs-port")
    live.set_defaults(func=_cmd_live)

    serve = sub.add_parser("serve",
                           help="replay a capture behind the query/"
                                "subscribe serving plane")
    _add_stream_args(serve)
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for the serving plane")
    serve.add_argument("--port", type=int, default=0,
                       help="serving-plane port (0 = ephemeral; the bound "
                            "URL is printed to stderr)")
    serve.add_argument("--max-clients", type=int, default=1024,
                       help="connection ceiling; excess connects are shed "
                            "with 503 + Retry-After")
    serve.add_argument("--max-subscribers", type=int, default=256,
                       help="WebSocket subscription ceiling")
    serve.add_argument("--max-lag-s", type=float, default=60.0,
                       help="/ready flips not-ready when the published "
                            "snapshot is older than this")
    serve.add_argument("--shed-qps", type=float, default=0.0,
                       help="per-endpoint query token-bucket rate "
                            "(0 disables shedding)")
    serve.add_argument("--stale-after-s", type=float, default=30.0,
                       help="stamp responses degraded:stale past this "
                            "snapshot age")
    serve.add_argument("--fail-stale-after-s", type=float, default=0.0,
                       help="refuse queries (503) past this snapshot age "
                            "(0 = always serve-stale-with-flag)")
    serve.add_argument("--publish-every-s", type=float, default=0.25,
                       help="minimum seconds between snapshot "
                            "publications while replaying")
    serve.add_argument("--linger-s", type=float, default=-1.0,
                       help="keep serving this long after the capture is "
                            "exhausted (-1 = until SIGTERM/SIGINT)")
    _add_ingest_args(serve)
    _add_telemetry_args(serve, "--metrics-out")
    serve.set_defaults(func=_cmd_serve)

    experiment = sub.add_parser("experiment",
                                help="reproduce one paper table/figure")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--scale", type=float, default=1.0,
                            help="population scale factor (1.0 = recorded)")
    experiment.add_argument("--workers", type=int, default=None,
                            help="default worker count for pipelines the "
                                 "experiment builds internally")
    experiment.add_argument("--shard-chunk", type=int, default=None,
                            help="blocks per shard for --workers")
    _add_telemetry_args(experiment)
    experiment.set_defaults(func=_cmd_experiment)

    inspect = sub.add_parser("inspect",
                             help="pretty-print a metrics snapshot, a "
                                  "health report, a live-run manifest, "
                                  "or a checkpoint's embedded telemetry")
    inspect.add_argument("path",
                         help="metrics JSON from --metrics-out, a health "
                              "report from --health-report, a live "
                              "manifest from a partitioned run's "
                              "checkpoint dir, a checkpoint file, or an "
                              "explain JSONL from --explain-out")
    inspect.add_argument("--explain", default=None, metavar="BLOCK",
                         help="render the decision-provenance audit trail "
                              "for one block (decimal or 0x hex key) from "
                              "an --explain-out JSONL export")
    inspect.set_defaults(func=_cmd_inspect)

    report = sub.add_parser("report", help="reproduce every table and figure")
    report.add_argument("--scale", type=float, default=1.0)
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
