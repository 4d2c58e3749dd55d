#!/usr/bin/env python3
"""Benchmark of the outage pipeline, end to end and per layer.

    python3 perfbench/run.py --workload detect-dense --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The run makes the workload's inputs
from ``--seed`` (``gen.py``; generation counts toward no metric), then
runs the workload in a fresh worker process per iteration
(``worker.py``) until ``--seconds`` have passed, checks every output,
and prints a report whose last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` iterations alternate untraced
and traced and the metrics are its per-layer split, the tracing
overhead and the share of ``wall_s`` the traced calls cover.
``--held-out-seed N`` adds one iteration on seed N's inputs whose
output checks count like the others.  ``map.json`` defines every
metric and says which layer should move which metric on which
workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, Iterable, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: untraced iterations a run makes at least, however short ``--seconds``.
MIN_ITERATIONS = 3
#: end-to-end timings are this nearest-rank quantile of the iterations,
#: counted from the fast end (see ``fast_end``): the fastest iteration
#: of up to 20, the second fastest of up to 40.
FAST_QUANTILE = 0.05
#: one worker iteration must end within this many seconds.
WORKER_TIMEOUT_S = 120.0
#: event-counted scoring, as in the paper's Table 3.
MIN_EVENT_S = 300.0
#: detection-quality floor checked once a run has enough truth events.
QUALITY_FLOOR = 0.25
QUALITY_MIN_EVENTS = 20


class BenchError(RuntimeError):
    """The workload could not be run or measured."""


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (SRC, env.get("PYTHONPATH")) if path)
    return env


def run_worker(command: List[str]) -> None:
    try:
        proc = subprocess.run(command, env=worker_env(),
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {command}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")


def serve_iteration(command: List[str], spec: Dict[str, Any],
                    out: str) -> Dict[str, Any]:
    """Run the serve worker while the load generator drives it."""
    from gen import query_addresses
    from loadgen import OpenLoop, Subscriber
    from repro.net.addr import format_ipv4
    from repro.timeline import Timeline

    final_path = out + ".final"
    proc = subprocess.Popen(command, env=worker_env(),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    lines: List[str] = []
    announced = threading.Event()
    endpoint: Dict[str, Any] = {}

    def drain() -> None:
        for line in proc.stderr:
            lines.append(line)
            match = re.search(r"serving plane: http://([^:/]+):(\d+)", line)
            if match and not announced.is_set():
                endpoint["host"], endpoint["port"] = (match.group(1),
                                                      int(match.group(2)))
                announced.set()

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    load = None
    try:
        if not announced.wait(WORKER_TIMEOUT_S):
            raise BenchError("no serving-plane URL announced:\n"
                             + "".join(lines[-20:]))
        host, port = endpoint["host"], endpoint["port"]
        subscriber = Subscriber(host, port)
        subscriber.start()
        paths = [f"/v1/state?address={address}" for address in
                 query_addresses(spec["queries"], spec["measurable"])]
        # The open loop starts at the first publish: before it, every
        # query would be refused for want of a snapshot.
        while not os.path.exists(out + ".published"):
            if proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError("serving plane never published:\n"
                                 + "".join(lines[-20:]))
            time.sleep(0.005)
        load = OpenLoop(host, port, paths, spec["params"]["query_rate"])
        load.start()
        while not os.path.exists(final_path):
            if proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError("replay did not finish:\n"
                                 + "".join(lines[-20:]))
            time.sleep(0.01)
        load.stop()
        with open(final_path, encoding="utf-8") as handle:
            final = json.load(handle)
        # "Never silently stale": after the final forced publish, every
        # measurable block must be served with the engine's final state.
        served = []
        for key, up in final["up"].items():
            status, body = load.query(
                f"/v1/state?address={format_ipv4(int(key) << 8)}")
            document = json.loads(body) if status == 200 else {}
            served.append(bool(document.get("found"))
                          and document.get("up") == up)
        dropped_early = (None if subscriber.is_alive()
                         else subscriber.dropped() or "closed early")
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
        subscriber.join(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if load is not None:
            load.close()
        reader.join(timeout=10)
    if proc.returncode != 0:
        raise BenchError(f"serve worker exited {proc.returncode}:\n"
                         + "".join(lines[-20:]))
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    start, end = final["start"], final["watermark"]
    changes = subscriber.transitions()
    result["outputs"] = {"start": start, "end": end, "blocks": {
        key: Timeline.from_transitions(start, end, changes.get(int(key), []))
        .down_intervals for key in final["up"]}}
    answered = [sample for sample in load.samples if sample[3] == 200]
    result["query_ms"] = [(received - due) * 1e3
                          for due, _, received, _ in answered]
    result["loadgen"] = {
        "queries": len(load.samples) + load.unanswered,
        "late_ms": [(sent - due) * 1e3 for due, sent, _, _ in load.samples],
        "service_ms": [(received - sent) * 1e3
                       for _, sent, received, _ in load.samples],
    }
    result["checks"] += [
        ["open-loop query answered 200", sample[3] == 200]
        for sample in load.samples]
    result["checks"] += [["open-loop query answered", False]] * load.unanswered
    result["checks"] += [["served state = engine final state", ok]
                         for ok in served]
    dropped = dropped_early or subscriber.dropped()
    result["checks"].append(
        ["subscription held until shutdown"
         + (f" ({dropped})" if dropped else ""), dropped is None])
    return result


def run_iteration(workload: str, spec: Dict[str, Any], directory: str,
                  out: str, traced: bool) -> Dict[str, Any]:
    command = [sys.executable, os.path.join(HERE, "worker.py"), workload,
               directory, out] + (["--trace"] if traced else [])
    if workload == "serve-replay":
        return serve_iteration(command, spec, out)
    run_worker(command)
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def score(result: Dict[str, Any], truth: Dict[int, Any]) -> None:
    """Event-counted outage precision/recall; quality checks when the
    run has enough truth events to judge them."""
    from repro.eval.matching import event_confusion_for_population
    from repro.timeline import Timeline

    outputs = result["outputs"]
    observed = {int(key): Timeline(outputs["start"], outputs["end"],
                                   [tuple(pair) for pair in intervals])
                for key, intervals in outputs["blocks"].items()}
    confusion = event_confusion_for_population(
        observed, truth, min_event_seconds=MIN_EVENT_S)
    result["precision"] = confusion.outage_precision
    result["recall"] = confusion.tnr
    if confusion.to + confusion.fa >= QUALITY_MIN_EVENTS:
        result["checks"] += [
            [f"outage precision >= {QUALITY_FLOOR}",
             confusion.outage_precision >= QUALITY_FLOOR],
            [f"outage recall >= {QUALITY_FLOOR}",
             confusion.tnr >= QUALITY_FLOOR]]


def layer_metrics(result: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer split of one traced iteration."""
    layers = result["layers"]

    def field(layer: str, index: int) -> float:
        return layers.get(layer, [0, 0.0, 0.0, 0.0])[index]

    def calls(layer: str) -> float:
        return field(layer, 0)

    def self_s(layer: str) -> float:
        return field(layer, 2)

    def count(layer: str) -> float:
        return field(layer, 3)

    counts = result["counts"]
    loadgen = result.get("loadgen")
    queries = calls("snapshot.query")
    metrics = {
        "capture.decode_s": self_s("capture.decode"),
        "capture.read_s": self_s("capture.read"),
        "capture.records": counts["records_read"],
        "aggregate.split_s": self_s("aggregate.split"),
        "aggregate.bin_s": self_s("aggregate.bin"),
        "history.fit_s": self_s("history.fit"),
        "history.fits": count("history.fit"),
        "parameters.tune_s": self_s("parameters.tune"),
        "parameters.blocks": count("parameters.tune"),
        "belief.pass_s": self_s("belief.pass"),
        "belief.bins": count("belief.pass"),
        "events.refine_s": self_s("events.refine"),
        "aggregation.fallback_s": self_s("aggregation.fallback"),
        "aggregation.supernets": count("aggregation.fallback"),
        "pipeline.train_s": self_s("pipeline.train"),
        "pipeline.detect_s": self_s("pipeline.detect"),
        "serialize.load_model_s": self_s("serialize.load_model"),
        "detector.init_s": self_s("detector.init"),
        "detector.observe_s": self_s("detector.observe"),
        "detector.observes": count("detector.observe"),
        "detector.advance_s": self_s("detector.advance"),
        "detector.bins_closed": counts["bins_closed"],
        "detector.bins_per_advance": (
            counts["bins_closed"] / calls("detector.advance")
            if calls("detector.advance") else 0.0),
        "detector.finalize_s": self_s("detector.finalize"),
        "live.feed_s": self_s("live.feed"),
        "live.records_fed": count("live.feed"),
        "reorder.push_s": self_s("reorder.push"),
        "reorder.out_of_order": counts["out_of_order"],
        "reorder.late_dropped": counts["late_dropped"],
        "reorder.peak_occupancy": counts["peak_occupancy"],
        "drift.audit_s": self_s("drift.audit"),
        "drift.retunes": count("drift.audit"),
        "checkpoint.save_s": self_s("checkpoint.save"),
        "checkpoint.saves": calls("checkpoint.save"),
        "checkpoint.bytes": count("checkpoint.save"),
        "metrics.inc_s": self_s("metrics.inc"),
        "metrics.incs": count("metrics.inc"),
        "bridge.step_s": self_s("bridge.step"),
        "bridge.steps": calls("bridge.step"),
        "bridge.publish_ratio": (count("bridge.step") / calls("bridge.step")
                                 if calls("bridge.step") else 0.0),
        "snapshot.build_s": self_s("snapshot.build"),
        "plane.publish_s": self_s("plane.publish"),
        "snapshot.query_s": self_s("snapshot.query"),
        "plane.query_wait_ms": 0.0,
        "loadgen.late_p99_ms": 0.0,
        "loadgen.queries": 0,
    }
    if loadgen:
        metrics["loadgen.queries"] = loadgen["queries"]
        if loadgen["late_ms"]:
            metrics["loadgen.late_p99_ms"] = quantile(loadgen["late_ms"], 0.99)
        if loadgen["service_ms"] and queries:
            metrics["plane.query_wait_ms"] = (
                statistics.fmean(loadgen["service_ms"])
                - self_s("snapshot.query") / queries * 1e3)
    metrics["trace.coverage"] = result["root_s"] / result["wall_s"]
    metrics["trace.unaccounted_s"] = result["wall_s"] - result["root_s"]
    return metrics


def fast_end(values: Iterable[float], higher_is_better: bool = False,
             ) -> float:
    """The value ``FAST_QUANTILE`` of the way in from the run's best end.

    On a shared host every process slows by up to 1.7x for stretches
    of 10 s to several minutes, so a run's median moves with how much
    of the run falls in such a stretch.  Even in a slow stretch a few
    iterations run at full speed, so the fast end of a run repeats
    from run to run.
    """
    ordered = sorted(values, reverse=higher_is_better)
    return ordered[max(0, math.ceil(FAST_QUANTILE * len(ordered)) - 1)]


def end_to_end(results: List[Dict[str, Any]]) -> Dict[str, float]:
    """The run's end-to-end metrics over its untraced iterations.

    Timings are the fast end of the iterations (``fast_end``); the
    figures a slow host does not move (memory, detection quality) are
    medians.
    """
    def median(key: str) -> float:
        return statistics.median(result[key] for result in results)

    def fast(key: str) -> float:
        return fast_end(result[key] for result in results)

    # Each iteration's own quantile of its samples, then the fast end
    # of those.  A process also runs its lookups in one of two speed
    # modes, so a median or a pooled quantile flips between the modes.
    def query(q: float) -> float:
        return fast_end(quantile(result["query_ms"], q)
                        for result in results)

    return {
        "wall_s": fast("wall_s"),
        "records_per_s": fast_end(
            (result["records"] / result["wall_s"] for result in results),
            higher_is_better=True),
        "setup_s": fast("setup_s"),
        "peak_rss_mb": median("peak_rss_mb"),
        "outage_precision": median("precision"),
        "outage_recall": median("recall"),
        "query_p50_ms": query(0.50),
        "query_p99_ms": query(0.99),
    }


def per_layer(results: List[Dict[str, Any]]) -> Dict[str, float]:
    traced = [result for result in results if result["traced"]]
    untraced = [result for result in results if not result["traced"]]
    splits = [layer_metrics(result) for result in traced]
    metrics = {name: statistics.median(split[name] for split in splits)
               for name in splits[0]}
    metrics["trace.overhead_s"] = (
        statistics.median(result["wall_s"] for result in traced)
        - statistics.median(result["wall_s"] for result in untraced))
    return metrics


def print_report(args: argparse.Namespace, spec: Dict[str, Any],
                 results: List[Dict[str, Any]], metrics: Dict[str, float],
                 units: Dict[str, str], attempted: int, failed: int) -> None:
    traced = sum(result["traced"] for result in results)
    print(f"perfbench {args.workload}: seed {args.seed}, "
          f"{len(results)} iterations ({traced} traced)")
    print(f"inputs: {len(spec['keys'])} blocks, {spec['records']:,} records")
    for name, digest in sorted(spec["sha256"].items()):
        print(f"  sha256 {name}: {digest}")
    for result in results:
        failures = [name for name, ok in result["checks"] if not ok]
        print(f"  iteration {'traced' if result['traced'] else 'untraced'}:"
              f" wall_s {result['wall_s']:.4f}, setup_s "
              f"{result['setup_s']:.4f}, {len(result['checks'])} checks"
              + (f", FAILED: {sorted(set(failures))}" if failures else ""))
    if args.trace:
        last = [result for result in results if result["traced"]][-1]
        print(f"{'layer':24} {'calls':>10} {'total_s':>10} {'self_s':>10}")
        for layer, (calls, total, self_s, _) in sorted(
                last["layers"].items(), key=lambda item: -item[1][2]):
            print(f"{layer:24} {int(calls):>10} {total:>10.4f} "
                  f"{self_s:>10.4f}")
        print(f"span coverage {metrics['trace.coverage']:.1%} of wall_s, "
              f"unaccounted {metrics['trace.unaccounted_s']:.4f} s, "
              f"tracing overhead {metrics['trace.overhead_s']:.4f} s")
        if last["missing"]:
            print(f"names not found (not timed): {last['missing']}")
    else:
        samples = [len(result["query_ms"]) for result in results]
        print(f"query samples: {sum(samples)} "
              f"(at least {min(samples)} per iteration)")
    for name, value in metrics.items():
        print(f"  {name:28} {value:>16.6f} {units[name]}")
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.6f})")


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out-seed", type=int, default=None)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="population size factor (smoke tests)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import gen

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    section = bench["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}

    work = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    try:
        inputs = os.path.join(work, "inputs")
        spec, truth = gen.build(args.workload, args.seed, inputs, args.scale)
        results: List[Dict[str, Any]] = []
        deadline = time.monotonic() + args.seconds
        while True:
            traced = bool(args.trace) and len(results) % 2 == 1
            out = os.path.join(work, f"iteration-{len(results)}.json")
            result = run_iteration(args.workload, spec, inputs, out, traced)
            score(result, truth)
            results.append(result)
            untraced = sum(not r["traced"] for r in results)
            if (time.monotonic() >= deadline and untraced >= MIN_ITERATIONS
                    and (traced or not args.trace)):
                break
        checks = [ok for result in results for _, ok in result["checks"]]
        if args.held_out_seed is not None:
            held_dir = os.path.join(work, "held-out")
            held_spec, held_truth = gen.build(
                args.workload, args.held_out_seed, held_dir, args.scale)
            held = run_iteration(args.workload, held_spec, held_dir,
                                 os.path.join(work, "held-out.json"), False)
            score(held, held_truth)
            checks += [ok for _, ok in held["checks"]]
            print(f"held-out seed {args.held_out_seed}: "
                  f"{len(held['checks'])} checks, "
                  f"{sum(not ok for _, ok in held['checks'])} failed")
            for name, digest in sorted(held_spec["sha256"].items()):
                print(f"  sha256 {name}: {digest}")
        plain = [result for result in results if not result["traced"]]
        metrics = per_layer(results) if args.trace else end_to_end(plain)
        metrics = {name: metrics[name] for name in units}
        if args.trace:
            trace_path = os.path.join(os.path.dirname(work),
                                      f"trace-{args.workload}.json")
            with open(trace_path, "w", encoding="utf-8") as handle:
                json.dump([r for r in results if r["traced"]][-1]["trace"],
                          handle)
        attempted, failed = len(checks), sum(not ok for ok in checks)
        print_report(args, spec, results, metrics, units, attempted, failed)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
