#!/usr/bin/env python3
"""One benchmark iteration, in a fresh process.

    PYTHONPATH=src python3 perfbench/worker.py WORKLOAD INPUT_DIR RESULT_JSON [--trace]

Runs WORKLOAD once on the inputs ``gen.py`` wrote to INPUT_DIR and
writes its timings, its outputs for scoring and its output checks to
RESULT_JSON.  ``run.py`` starts one worker per iteration, so set-up
time and peak memory are those of a fresh process.  With ``--trace``
every name in ``LAYERS`` is timed as well (see ``probes.py``).

Clock marks: the clock starts before any import; ``main`` is the call
into the subcommand; ``first_input`` is the first capture opened;
``final`` is when results are final.  ``setup_s`` is the import time plus ``first_input - main``;
``wall_s`` is ``final - main``.
"""

import time

STARTED = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

from probes import Probe  # noqa: E402

#: lookups per address in the in-process query measurement.
REPEATS = 3


def _one(args: Tuple[Any, ...], result: Any) -> int:
    return 1


def _supernets(args: Tuple[Any, ...], result: Any) -> int:
    plan = args[5].aggregation_plan
    return len(plan.groups) if plan is not None else 0


#: (target, layer, hot, work count): every name the traced run times.
#: ``hot`` marks per-record (or per-block) names, kept as aggregates.
LAYERS = [
    ("repro.telescope.capture:CaptureReader.read_all",
     "capture.decode", False, None),
    ("repro.telescope.capture:CaptureReader.read_one",
     "capture.read", True, None),
    ("repro.telescope.records:ObservationBatch.sorted_by_time",
     "aggregate.split", False, None),
    ("repro.cli:per_block_times", "aggregate.split", False, None),
    ("repro.core.detector:binned_counts", "aggregate.bin", False, None),
    ("repro.core.pipeline:train_history", "history.fit", True, _one),
    ("repro.core.drift:train_history", "history.fit", True, _one),
    ("repro.core.parameters:ParameterPlanner.plan_batch",
     "parameters.tune", False, lambda args, result: len(args[1])),
    ("repro.core.parameters:ParameterPlanner.plan_block",
     "parameters.tune", True, _one),
    ("repro.core.detector:guarded_belief_pass", "belief.pass", False,
     lambda args, result: args[0].size),
    ("repro.core.detector:columnar_update", "belief.pass", True,
     lambda args, result: len(args[2])),
    ("repro.core.belief:BeliefState.update", "belief.pass", True, _one),
    ("repro.core.detector:states_to_timeline", "events.refine", True, None),
    ("repro.core.detector:refine_timeline", "events.refine", True, None),
    ("repro.core.detector:gap_outages", "events.refine", True, None),
    ("repro.core.pipeline:PassiveOutagePipeline._detect_aggregated",
     "aggregation.fallback", False, _supernets),
    ("repro.core.pipeline:PassiveOutagePipeline.train",
     "pipeline.train", False, None),
    ("repro.core.pipeline:PassiveOutagePipeline.detect",
     "pipeline.detect", False, None),
    ("repro.core.serialize:load_model", "serialize.load_model", False, None),
    ("repro.core.detector:StreamingDetector.__init__",
     "detector.init", False, None),
    ("repro.core.detector:StreamingDetector.observe",
     "detector.observe", True, _one),
    ("repro.core.detector:StreamingDetector.advance",
     "detector.advance", True, None),
    ("repro.core.detector:StreamingDetector.finalize",
     "detector.finalize", False, None),
    ("repro.live:LiveBlockEngine.feed", "live.feed", True, _one),
    ("repro.telescope.reorder:ReorderBuffer.push", "reorder.push", True, None),
    ("repro.core.drift:RollingRateAuditor.audit", "drift.audit", False, None),
    ("repro.live:retune_block", "drift.audit", False, _one),
    ("repro.core.checkpoint:save_checkpoint_rotated", "checkpoint.save",
     False, lambda args, result: os.path.getsize(args[1])),
    ("repro.obs.metrics:MetricFamily.inc", "metrics.inc", True, _one),
    ("repro.obs.metrics:Counter.inc", "metrics.inc", True, _one),
    ("repro.serve.bridge:EngineBridge.step", "bridge.step", True,
     lambda args, result: 1 if result else 0),
    ("repro.serve.plane:build_snapshot", "snapshot.build", False, None),
    ("repro.serve.plane:ServingPlane.publish", "plane.publish", False, None),
    ("repro.serve.snapshot:ServingSnapshot.query_address",
     "snapshot.query", True, _one),
]


class Run:
    """Clock marks, the probe, and the program objects the checks read."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.probe = Probe()
        self.marks: Dict[str, float] = {}
        self.roots: Dict[str, float] = {}
        self.readers: List[Any] = []
        self.engines: List[Any] = []
        self.detectors: List[Any] = []
        self.captured: Dict[str, Any] = {}

    def mark(self, name: str) -> None:
        if name not in self.marks:
            self.marks[name] = time.perf_counter()
            self.roots[name] = self.probe.root_s

    def install(self) -> None:
        if self.trace:
            for target, layer, hot, count in LAYERS:
                self.probe.time(target, layer, hot, count)
        tap = self.probe.tap
        tap("repro.telescope.capture:CaptureReader.__init__",
            before=lambda args: self.mark("first_input"),
            after=lambda args, result: self.readers.append(args[0]))
        tap("repro.live:LiveBlockEngine.__init__",
            after=lambda args, result: self.engines.append(args[0]))
        tap("repro.core.detector:StreamingDetector.__init__",
            after=lambda args, result: self.detectors.append(args[0]))

    def capture(self, target: str, final: bool = False) -> None:
        """Keep ``(args, result)`` of ``target``'s first call."""
        def after(args: Tuple[Any, ...], result: Any) -> None:
            if final:
                self.mark("final")
            self.captured.setdefault(target, (args, result))
        self.probe.tap(target, after=after)

    def cli(self, argv: List[str]) -> None:
        import repro.cli

        self.mark("main")
        with contextlib.redirect_stdout(io.StringIO()):
            code = repro.cli.main(argv)
        if code != 0:
            raise SystemExit(f"repro-outage {argv[0]} exited {code}")

    def records_read(self) -> int:
        return sum(reader.records_read for reader in self.readers)

    def stream_counts(self) -> Dict[str, int]:
        engine = self.engines[0] if self.engines else None
        stats = engine.buffer.stats if engine and engine.buffer else None
        return {
            "records_read": self.records_read(),
            "observed": engine.observed if engine else 0,
            "bins_closed": sum(d.windows_closed for d in self.detectors),
            "out_of_order": stats.out_of_order if stats else 0,
            "late_dropped": stats.late_dropped if stats else 0,
            "peak_occupancy": stats.occupancy_peak if stats else 0,
        }


def timelines(blocks: Dict[int, Any], start: float,
              end: float) -> Dict[str, Any]:
    return {"start": start, "end": end,
            "blocks": {str(key): [list(pair) for pair in
                                  result.timeline.down_intervals]
                       for key, result in blocks.items()}}


def peak_rss_mb() -> float:
    """Peak resident set of this process since its exec (``VmHWM``).

    Not ``ru_maxrss``: exec folds the parent's high-water mark into it,
    so it would read at least the driver's resident size.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def time_queries(outputs: Dict[str, Any],
                 queries: List[List[float]]) -> List[float]:
    """Latency (ms) of state lookups on the run's final state.

    The workloads that do not serve report ``query_*`` from this: a
    measurement of the ``serve.snapshot`` lookup kernel, outside
    ``wall_s``, that no detect or live change can move.  Each address
    keeps its fastest of ``REPEATS`` lookups, made in separate passes
    over the whole list: a host stall that spans several consecutive
    lookups then slows only one of an address's tries, so it does not
    decide the 99th percentile.
    """
    from gen import query_addresses
    from repro.net.addr import Address, Family
    from repro.serve.snapshot import BlockServingState, build_snapshot

    end = outputs["end"]
    states = {int(key): BlockServingState(
        up=not (intervals and intervals[-1][1] >= end))
        for key, intervals in outputs["blocks"].items()}
    snapshot = build_snapshot(Family.IPV4, states, watermark=end,
                              published_at=0.0)
    parsed = [Address.parse(address)
              for address in query_addresses(queries, list(states))]
    clock = time.perf_counter
    best = [math.inf] * len(parsed)
    for _ in range(REPEATS):
        for index, address in enumerate(parsed):
            start = clock()
            snapshot.query_address(address)
            elapsed = clock() - start
            if elapsed < best[index]:
                best[index] = elapsed
    return [seconds * 1e3 for seconds in best]


def detect_dense(run: Run, spec: Dict[str, Any], out: str):
    detect = "repro.core.pipeline:PassiveOutagePipeline.detect"
    run.capture(detect, final=True)
    run.cli(["detect", spec["files"]["capture"],
             "--train-end", repr(spec["train_end"])])
    (_, model, *_), result = run.captured[detect]
    checks = [
        ("every capture record decoded",
         run.records_read() == spec["records"]),
        ("train health accounts for every block",
         model.health.accounts_for(spec["keys"])),
        ("detect health accounts for every measurable block",
         result.health.accounts_for(model.measurable_keys)),
        ("no block quarantined on clean input",
         not model.dead_letters.keys() and not result.dead_letters.keys()),
    ]
    return timelines(result.blocks, result.start, result.end), checks


def _reconciles(spec: Dict[str, Any], counts: Dict[str, int]) -> List:
    read = counts["records_read"]
    return [
        ("records read = skipped + observed + late-dropped",
         read == spec["skipped"] + counts["observed"]
         + counts["late_dropped"]),
        ("every capture record read", read == spec["records"]),
        ("disorder re-sorted and late records dropped",
         counts["out_of_order"] > 0 and counts["late_dropped"] > 0),
    ]


def live_replay(run: Run, spec: Dict[str, Any], out: str):
    params = spec["params"]
    checkpoint = out + ".ckpt"
    load = "repro.core.serialize:load_model"
    finalize = "repro.core.detector:StreamingDetector.finalize"
    run.capture(load)
    run.capture(finalize, final=True)
    run.cli(["live", spec["files"]["capture"],
             "--model", spec["files"]["model"],
             "--reorder-horizon", repr(params["reorder_horizon"]),
             "--checkpoint", checkpoint,
             "--checkpoint-every", repr(params["checkpoint_every"]),
             "--drift-audit-every", repr(params["drift_audit_every"])])
    _, model = run.captured[load]
    (detector, end), results = run.captured[finalize]
    checks = _reconciles(spec, run.stream_counts()) + [
        ("stream health accounts for every measurable block",
         detector.last_health.accounts_for(model.measurable_keys)),
        ("checkpoint written", os.path.getsize(checkpoint) > 0),
    ]
    return timelines(results, detector.start, end), checks


def serve_replay(run: Run, spec: Dict[str, Any], out: str):
    """Serve until SIGTERM.  For the load side, touch
    ``RESULT_JSON.published`` at the first publish and write the
    engine's final state to ``RESULT_JSON.final`` at the final one."""
    from repro.serve.bridge import detector_block_states

    params = spec["params"]
    flushed: Dict[str, bool] = {}
    final_path = out + ".final"

    def published(args: Tuple[Any, ...], result: Any) -> None:
        if not os.path.exists(out + ".published"):
            open(out + ".published", "w").close()
        if not flushed or "final" in run.marks:
            return
        run.mark("final")
        detector = run.engines[0].detector
        document = {
            "start": detector.start, "watermark": detector.last_time,
            "up": {str(key): state.up for key, state in
                   detector_block_states(detector).items()},
        }
        with open(final_path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        os.replace(final_path + ".tmp", final_path)

    run.probe.tap("repro.live:LiveBlockEngine.flush",
                  after=lambda args, result: flushed.setdefault("yes", True))
    run.probe.tap("repro.serve.plane:ServingPlane.publish", after=published)
    run.cli(["serve", spec["files"]["capture"],
             "--model", spec["files"]["model"], "--port", "0",
             "--reorder-horizon", repr(params["reorder_horizon"]),
             "--linger-s", "-1", "--shed-qps", "0"])
    return None, _reconciles(spec, run.stream_counts())


WORKLOADS = {
    "detect-dense": detect_dense,
    "live-replay": live_replay,
    "serve-replay": serve_replay,
}


def main(argv: List[str]) -> int:
    workload, directory, out = argv[1:4]
    trace = "--trace" in argv[4:]
    with open(os.path.join(directory, "inputs.json"), encoding="utf-8") as f:
        spec = json.load(f)
    import repro.cli  # noqa: F401 — the CLI user's import
    imported = time.perf_counter()
    run = Run(trace)
    run.install()
    outputs, checks = WORKLOADS[workload](run, spec, out)
    marks = run.marks
    result: Dict[str, Any] = {
        "traced": trace,
        "setup_s": (imported - STARTED)
        + (marks["first_input"] - marks["main"]),
        "wall_s": marks["final"] - marks["main"],
        "records": run.records_read(),
        "checks": [[name, bool(ok)] for name, ok in checks],
        "counts": run.stream_counts(),
        "outputs": outputs,
        # Untraced only: the probe would count these lookups as the
        # workload's snapshot.query layer.
        "query_ms": (time_queries(outputs, spec["queries"])
                     if outputs is not None and not trace else []),
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        result.update(layers=run.probe.layers(),
                      root_s=run.roots["final"] - run.roots["main"],
                      trace=run.probe.chrome_trace(),
                      missing=run.probe.missing)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
