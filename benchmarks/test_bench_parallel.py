"""Sharded pipeline speedup benchmark: 4 workers vs 1.

Not a paper artefact — this pins the performance contract of the
``repro.parallel`` subsystem: on a machine with at least four cores,
detecting a synthetic weeklong population with ``workers=4`` must beat
the identical sharded run at ``workers=1`` by at least 1.5x.  Both
sides execute the *same* shard plan (same chunk size over the same
sorted keyspace) under the same ``ShardSupervisor``, one child process
per shard attempt, so the comparison isolates what running four
supervised children at once buys over running them one at a time:
pickling payloads out, forking children from the preloaded
forkserver, and folding shard documents back in.  The equivalence
contract (bit-for-bit identical output) is pinned separately by
``tests/test_parallel.py``; this file asserts the parallelism is worth
its overhead.

On hosts with fewer than four CPUs the speedup assertion is skipped —
four children cannot beat one at a time without spare cores — but the
timings are still printed and written to the artefact, so a
constrained runner still documents what it measured.

``pytest benchmarks/test_bench_parallel.py -s`` prints the measured
timings, and CI saves them as the ``BENCH_parallel.json`` artefact.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.core.pipeline import PassiveOutagePipeline
from repro.net.addr import Family

WEEK = 7 * 86400.0
N_BLOCKS = 1536
SHARD_CHUNK = 48          # 32 shards: divides evenly across 4 workers
POOL_WORKERS = 4
REPEATS = 2               # best-of-N; child start cost is paid on every run
MIN_SPEEDUP = 1.5


def poisson_times(rng, rate, start, end):
    n = rng.poisson(rate * (end - start))
    return np.sort(rng.uniform(start, end, n))


@pytest.fixture(scope="module")
def weeklong():
    """A trained model plus one simulated week of traffic to detect on.

    1,536 blocks with rates cycling over a decade — enough belief-pass
    and event-refinement work per shard that the per-child start cost
    is noise against the compute, as it would be against a real
    telescope day.
    """
    rng = np.random.default_rng(23)
    per_block = {k << 8: poisson_times(rng, 0.01 + 0.0005 * (k % 96),
                                       0.0, WEEK)
                 for k in range(N_BLOCKS)}
    trainer = PassiveOutagePipeline(aggregation_levels=0, workers=0)
    model = trainer.train(Family.IPV4, per_block, 0.0, WEEK)
    return model, per_block


def timed_detect(model, per_block, workers):
    """Best-of-N wall time for one sharded detect at ``workers``."""
    pipeline = PassiveOutagePipeline(
        aggregation_levels=0, workers=workers, shard_chunk=SHARD_CHUNK)
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = pipeline.detect(model, per_block, 0.0, WEEK)
        best = min(best, time.perf_counter() - start)
    return best, result


def test_four_workers_beat_one_by_1_5x(weeklong):
    """Time the identical shard plan at workers=1 and workers=4."""
    model, per_block = weeklong
    single_s, single = timed_detect(model, per_block, 1)
    pooled_s, pooled = timed_detect(model, per_block, POOL_WORKERS)

    # Same plan, same verdicts: the worker count changed nothing but
    # the clock.
    assert pooled.blocks.keys() == single.blocks.keys()
    for key in single.blocks:
        assert pooled.blocks[key].timeline == single.blocks[key].timeline

    speedup = single_s / pooled_s if pooled_s > 0 else float("inf")
    cores = os.cpu_count() or 1
    timings = {
        "workload": f"sharded detect {N_BLOCKS} blocks x 1 week",
        "shard_chunk": SHARD_CHUNK,
        "repeats": REPEATS,
        "cpu_count": cores,
        "workers": POOL_WORKERS,
        "single_worker_best_seconds": single_s,
        "pooled_best_seconds": pooled_s,
        "speedup": speedup,
        "min_speedup": MIN_SPEEDUP,
        "asserted": cores >= POOL_WORKERS,
    }
    print("\nparallel speedup:", json.dumps(timings, indent=2))
    artefact = os.environ.get("REPRO_BENCH_PARALLEL_OUT")
    if artefact:
        with open(artefact, "w", encoding="utf-8") as handle:
            json.dump(timings, handle, indent=2)
            handle.write("\n")

    if cores < POOL_WORKERS:
        pytest.skip(f"{cores} CPU(s): {POOL_WORKERS} workers cannot "
                    f"beat one at a time without spare cores")
    assert speedup >= MIN_SPEEDUP, (
        f"4-worker detect ran {pooled_s:.2f}s vs {single_s:.2f}s "
        f"single-worker ({speedup:.2f}x, need {MIN_SPEEDUP}x); "
        f"sharding no longer pays for its overhead")
