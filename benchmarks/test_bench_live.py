"""Partitioned live throughput benchmark: 4 partitions vs in-process.

Not a paper artefact — this pins the performance contract of the
``repro.live`` subsystem: on a machine with spare cores, streaming a
synthetic weeklong 1,536-block capture through four supervised
partition workers must not be slower than the single-process streaming
detector.  Each worker decodes the whole capture but runs the per-block
work for only its quarter of the blocks, and the parent only
supervises, so if partitioning ever stops paying on a machine with a
spare core per worker, the workers' replay over foreign blocks or the
supervision overhead has regressed.

The equivalence contract (bit-for-bit identical verdicts, merged
health, counters) is pinned separately by ``tests/test_live.py``; this
file asserts only the throughput.  On hosts without enough cores the
assertion is skipped but the timings are still printed and written to
the artefact.

``pytest benchmarks/test_bench_live.py -s`` prints the measured
timings, and CI saves them as the ``BENCH_live.json`` artefact.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.core.detector import StreamingDetector
from repro.core.pipeline import PassiveOutagePipeline
from repro.live import LivePartitionSupervisor
from repro.net.addr import Family
from repro.obs.metrics import NULL_REGISTRY
from repro.telescope.capture import CaptureReader, CaptureWriter
from repro.telescope.records import ObservationBatch

WEEK = 7 * 86400.0
DAY = 86400.0
N_BLOCKS = 1536
PARTITIONS = 4
REPEATS = 2               # best-of-N; spawn cost is paid on every run
MIN_CORES = PARTITIONS + 1  # workers plus the supervising parent


def poisson_times(rng, rate, start, end):
    n = rng.poisson(rate * (end - start))
    return np.sort(rng.uniform(start, end, n))


@pytest.fixture(scope="module")
def weeklong_live(tmp_path_factory):
    """A model trained on day one, plus the full week as a capture.

    Days two through seven replay as the live stream.  Rates are kept
    low (~0.002/s per block) so the stream totals a couple of million
    records — enough that per-record overhead dominates any fixed
    cost, small enough that the benchmark stays in CI budget.
    """
    rng = np.random.default_rng(31)
    per_block = {k << 8: poisson_times(rng, 0.0015 + 0.0001 * (k % 8),
                                       0.0, WEEK)
                 for k in range(N_BLOCKS)}
    trainer = PassiveOutagePipeline(aggregation_levels=0, workers=0)
    model = trainer.train(Family.IPV4,
                          {key: times[times < DAY]
                           for key, times in per_block.items()},
                          0.0, DAY)

    batch = ObservationBatch.concatenate([
        ObservationBatch(Family.IPV4, times, [key] * len(times))
        for key, times in per_block.items()
    ]).sorted_by_time()
    capture = str(tmp_path_factory.mktemp("bench_live") / "week.pobs")
    with CaptureWriter(capture) as writer:
        writer.write_batch(batch)
    return model, capture, len(batch)


def timed_single(model, capture):
    best, observed = float("inf"), 0
    for _ in range(REPEATS):
        detector = StreamingDetector(model.family, model.histories,
                                     model.parameters, model.train_end,
                                     sentinel=None, metrics=NULL_REGISTRY)
        observed = 0
        start = time.perf_counter()
        with CaptureReader(capture) as reader:
            for observation in reader:
                if observation.time < detector.start:
                    continue
                detector.observe(observation)
                observed += 1
        detector.finalize(detector.last_time)
        best = min(best, time.perf_counter() - start)
    return best, observed


def timed_partitioned(model, capture):
    best = float("inf")
    for _ in range(REPEATS):
        supervisor = LivePartitionSupervisor(
            model, partitions=PARTITIONS, metrics=NULL_REGISTRY)
        start = time.perf_counter()
        result = supervisor.run(capture)
        best = min(best, time.perf_counter() - start)
        assert not result.degraded and result.restarts == 0
    return best


def test_partitioned_live_keeps_up_with_single_process(weeklong_live):
    model, capture, records = weeklong_live
    single_s, observed = timed_single(model, capture)
    pooled_s = timed_partitioned(model, capture)

    speedup = single_s / pooled_s if pooled_s > 0 else float("inf")
    cores = os.cpu_count() or 1
    timings = {
        "workload": f"streaming live {N_BLOCKS} blocks x 1 week",
        "records": records,
        "live_records": observed,
        "repeats": REPEATS,
        "cpu_count": cores,
        "partitions": PARTITIONS,
        "single_process_best_seconds": single_s,
        "partitioned_best_seconds": pooled_s,
        "single_records_per_second": observed / single_s,
        "partitioned_records_per_second": observed / pooled_s,
        "speedup": speedup,
        "asserted": cores >= MIN_CORES,
    }
    print("\nlive partition throughput:", json.dumps(timings, indent=2))
    artefact = os.environ.get("REPRO_BENCH_LIVE_OUT")
    if artefact:
        with open(artefact, "w", encoding="utf-8") as handle:
            json.dump(timings, handle, indent=2)
            handle.write("\n")

    if cores < MIN_CORES:
        pytest.skip(f"{cores} CPU(s): {PARTITIONS} partition workers plus "
                    f"a supervising parent cannot beat one process without "
                    f"spare cores")
    assert speedup >= 1.0, (
        f"partitioned live ran {pooled_s:.2f}s vs {single_s:.2f}s "
        f"single-process ({speedup:.2f}x); partitioning no longer pays "
        f"for each worker's whole-capture replay and its supervision")
