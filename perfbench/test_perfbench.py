"""Checks of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q

Pins generator determinism (the same seed gives byte-identical inputs,
a different seed different ones), the bulk capture writer against the
program's own writer, the interaction map against ``BENCHMARK.json``,
peak memory as the worker's own, the fast-end statistic of the
end-to-end timings, thread-safe layer aggregates, and a
small-size run of every workload, untraced and traced, that must
pass its output checks and print every metric with its unit.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gen  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    BENCH = json.load(handle)
WORKLOADS = [workload["name"] for workload in BENCH["workloads"]]
#: population size factor for the smoke runs.
SMALL = 0.2


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    first, _ = gen.build(workload, 5, str(tmp_path / "a"), SMALL)
    again, _ = gen.build(workload, 5, str(tmp_path / "b"), SMALL)
    other, _ = gen.build(workload, 6, str(tmp_path / "c"), SMALL)
    assert first["sha256"] == again["sha256"]
    assert first["queries"] == again["queries"]
    for name, digest in first["sha256"].items():
        assert other["sha256"][name] != digest, name


def test_bulk_capture_writer_matches_program(tmp_path):
    from repro.net.addr import Family
    from repro.telescope.capture import CaptureWriter
    from repro.telescope.records import ObservationBatch

    keys = np.array([0x010203, 0xDFFFFF, 5, 0x7F0000])
    times = np.array([1.5, 2.25, 3.0, 86400.125])
    gen.write_capture(str(tmp_path / "bulk.pobs"), times, keys)
    with CaptureWriter(str(tmp_path / "program.pobs")) as writer:
        writer.write_batch(ObservationBatch(Family.IPV4, times, keys))
    assert ((tmp_path / "bulk.pobs").read_bytes()
            == (tmp_path / "program.pobs").read_bytes())


def test_map_matches_benchmark():
    interaction = gen.load_map()
    assert list(interaction["workloads"]) == WORKLOADS
    for workload in BENCH["workloads"]:
        assert workload["why"] == interaction["workloads"][
            workload["name"]]["why"]
    end_to_end = [metric["name"] for metric in BENCH["end_to_end"]]
    assert list(interaction["end_to_end"]) == end_to_end
    assert list(interaction["per_layer"]) == [
        metric["name"] for metric in BENCH["per_layer"]]
    for entry in interaction["per_layer"].values():
        assert set(entry["moves"]) <= set(end_to_end)
        assert set(entry["mostly_on"]) | set(entry["little_on"]) <= set(
            WORKLOADS)


def test_peak_rss_is_the_workers_own(tmp_path):
    """A worker reports its own peak memory, not its parent's: after
    exec, ``ru_maxrss`` reads at least the parent's resident size."""
    import run

    spec, _ = gen.build("detect-dense", 3, str(tmp_path / "in"), SMALL)
    ballast_mb = 320
    ballast = b"\x01" * (ballast_mb << 20)  # resident in this process
    result = run.run_iteration("detect-dense", spec, str(tmp_path / "in"),
                               str(tmp_path / "out.json"), False)
    assert len(ballast) == ballast_mb << 20
    assert 0 < result["peak_rss_mb"] < ballast_mb


def test_fast_end_reads_from_the_fast_side():
    import run

    times = [float(value) for value in range(40, 0, -1)]
    assert run.fast_end(times) == 2.0
    assert run.fast_end(times, higher_is_better=True) == 39.0
    assert run.fast_end([5.0, 3.0, 4.0]) == 3.0


def test_layer_aggregates_lose_no_update_across_threads():
    import threading
    import types

    from probes import Probe

    target = types.ModuleType("perfbench_probe_target")
    target.work = lambda: None
    sys.modules[target.__name__] = target
    probe = Probe()
    probe.time(f"{target.__name__}:work", "work", hot=True,
               count=lambda args, result: 1)
    calls, workers = 20000, 4

    def hammer():
        for _ in range(calls):
            target.work()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        del sys.modules[target.__name__]
    assert not any(thread.is_alive() for thread in threads)
    made, _, _, counted = probe.layers()["work"]
    assert made == counted == calls * workers


def run_benchmark(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args,
         "--scale", str(SMALL)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_prints_every_metric(workload, trace):
    stdout, result = run_benchmark(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--held-out-seed", "4")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, stdout
    assert result["attempted"] >= 1
    section = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in
            result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in section}
    assert all(isinstance(metric["value"], (int, float))
               for metric in result["metrics"].values())
    assert "held-out seed 4:" in stdout
    assert "sha256" in stdout


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            (bare / "perfbench" / name).write_bytes(
                open(os.path.join(HERE, name), "rb").read())
    (bare / "BENCHMARK.json").write_text(json.dumps(BENCH))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
        env={key: value for key, value in os.environ.items()
             if key != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
