"""Columnar live ingest: ``feed_batch`` against the per-record ``feed``.

Single-process ``live`` decodes the capture in chunks and feeds them
through :meth:`LiveBlockEngine.feed_batch` (reorder buffer
``push_batch``, detector ``observe_batch``).  The per-record path
(``feed`` → ``ReorderBuffer.push`` → ``StreamingDetector.observe``)
still serves ``serve`` and the partition workers, and is the oracle
here: on seeded streams with disorder within and beyond the reorder
horizon, ties at the watermark, arrivals exactly on advance and audit
boundaries, both families, untracked keys, a drifting block that is
hot-swapped, a poisoned-history block and the sentinel, every batch
size must leave the same events, health, counters, reorder stats and
checkpoints, checkpoint by checkpoint, as record-by-record feeding.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.checkpoint import detector_from_json, detector_to_json
from repro.core.detector import StreamingDetector
from repro.core.history import train_history
from repro.core.parameters import ParameterPlanner
from repro.core.pipeline import TrainedModel
from repro.core.sentinel import SentinelConfig, VantageSentinel
from repro.live import DriftConfig, LiveBlockEngine
from repro.net.addr import Family
from repro.obs.metrics import MetricsRegistry
from repro.telescope.capture import RecordChunk
from repro.telescope.records import Observation
from repro.telescope.reorder import LatePolicy, ReorderBuffer

DAY = 86400.0
HORIZON = 2.0
SPAN = 8 * 3600.0
CHECKPOINT_EVERY = 1800.0
#: IPv4 /24 keys: steady, outage, 5x-drift, sparse, poisoned history.
KEYS = [0x0A0001, 0x0A0002, 0x0A0003, 0x0A0004, 0x0A0005]
RATES = [0.05, 0.04, 0.03, 0.01, 0.05]
UNTRACKED = 0x0B0000


def build_model():
    rng = np.random.default_rng(5)
    histories, parameters = {}, {}
    for key, rate in zip(KEYS, RATES):
        times = np.sort(rng.uniform(0.0, DAY, int(rate * DAY)))
        history = train_history(times, 0.0, DAY)
        parameters[key] = ParameterPlanner().plan_block(history)
        assert parameters[key].measurable
        histories[key] = history
    # A history the columnar bin close refuses: the block stays on the
    # scalar path (a cohort straggler) with the same tuned parameters.
    histories[KEYS[-1]] = replace(histories[KEYS[-1]],
                                  mean_rate=float("nan"))
    return TrainedModel(family=Family.IPV4, histories=histories,
                        parameters=parameters, train_start=0.0,
                        train_end=DAY)


MODEL = build_model()
CADENCE = min(p.bin_seconds for p in MODEL.parameters.values())


def stream(seed):
    """Arrival-ordered observations of one seeded live feed."""
    rng = np.random.default_rng(seed)
    end = DAY + SPAN
    rows = []
    for index, (key, rate) in enumerate(zip(KEYS, RATES)):
        if index == 2:
            rate *= 5.0  # drifts: flagged at an audit, hot-swapped
        times = rng.uniform(DAY - 600.0, end, rng.poisson(rate * (SPAN + 600)))
        if index == 1:  # a two-hour outage: gap detector and belief
            times = times[(times < DAY + 3 * 3600) | (times > DAY + 5 * 3600)]
        rows += [(t, Family.IPV4, (key << 8) | int(rng.integers(256)))
                 for t in times]
    rows += [(t, Family.IPV4, UNTRACKED << 8)
             for t in rng.uniform(DAY, end, 200)]
    rows += [(t, Family.IPV6, int.from_bytes(rng.bytes(16), "big"))
             for t in rng.uniform(DAY, end, 200)]
    # Garbage high bytes: the 64-bit key word is a tracked key, but the
    # record's block key is not.
    rows += [(t, Family.IPV4, (1 << 100) | (KEYS[0] << 8))
             for t in rng.uniform(DAY, end, 30)]
    # Arrivals exactly on advance-grid points and audit boundaries.
    for boundary in np.arange(DAY + CADENCE, end, CADENCE)[::7]:
        rows.append((float(boundary), Family.IPV4, KEYS[0] << 8))
    for boundary in np.arange(DAY + 1800.0, end, 1800.0):
        rows.append((float(boundary), Family.IPV4, KEYS[3] << 8))
    rows.sort(key=lambda row: row[0])
    times = np.array([row[0] for row in rows])
    # Disorder: most displaced records stay within the horizon, a few
    # fall several horizons behind (late), and some land exactly on the
    # watermark of the arrivals before them (a tie is on time).
    live = np.flatnonzero(times > DAY + 100.0)
    picked = rng.choice(live, size=len(live) // 25, replace=False)
    for position, index in enumerate(picked):
        times[index] -= (rng.uniform(3.0, 10.0) if position % 10 == 0
                         else rng.uniform(0.0, 0.95)) * HORIZON
    for index in rng.choice(live, size=20, replace=False):
        times[index] = times[:index].max() - HORIZON
    # Duplicate timestamps.
    for index in rng.choice(live[:-1], size=20, replace=False):
        times[index + 1] = times[index]
    return [Observation(float(t), family, source, 1)
            for t, (_, family, source) in zip(times, rows)]


def make_engine(horizon=HORIZON, sentinel=True, advance_every=None,
                detector=None):
    registry = MetricsRegistry()
    if detector is None:
        detector = StreamingDetector(
            MODEL.family, MODEL.histories, MODEL.parameters, DAY,
            sentinel=(VantageSentinel(DAY, SentinelConfig(bin_seconds=600.0))
                      if sentinel else None),
            metrics=registry)
    else:
        registry = detector.metrics
    buffer = (ReorderBuffer(horizon, LatePolicy.COUNT, metrics=registry)
              if horizon > 0 else None)
    engine = LiveBlockEngine(
        detector, buffer=buffer,
        drift=DriftConfig(audit_every=1800.0, window_seconds=3600.0),
        advance_every=advance_every)
    engine.restore(detector.restored_extra, buffer_state=False)
    return engine


def snapshot(engine):
    """Everything the stream decides, wall-clock fields removed."""
    document = json.loads(detector_to_json(
        engine.detector, extra=engine.checkpoint_extra()))
    metrics = document.get("metrics")
    if metrics:
        metrics["metrics"] = [family for family in metrics["metrics"]
                              if family["type"] != "histogram"]
    document["observed"] = engine.observed
    return document


def per_record(engine, observations, skip_to=None):
    """The oracle: the per-record CLI loop, checkpoint cadence and all."""
    detector = engine.detector
    saves = []
    next_checkpoint = detector.last_time + CHECKPOINT_EVERY
    error = None
    try:
        for observation in observations:
            if observation.time < detector.start:
                continue
            if skip_to is not None and observation.time <= skip_to:
                continue
            engine.feed(observation)
            if detector.last_time >= next_checkpoint:
                saves.append(snapshot(engine))
                next_checkpoint = detector.last_time + CHECKPOINT_EVERY
        engine.flush()
    except ValueError as raised:
        error = str(raised)
    return saves, error


def batched(engine, observations, size, skip_to=None):
    """``feed_batch`` over ``size``-row slices, as ``live`` drives it."""
    detector = engine.detector
    chunk = RecordChunk.from_observations(observations)
    keep = ~(chunk.times < detector.start)
    if skip_to is not None:
        keep &= ~(chunk.times <= skip_to)
    rows = chunk[np.flatnonzero(keep)]
    saves = []
    next_checkpoint = detector.last_time + CHECKPOINT_EVERY
    error = None
    try:
        for offset in range(0, len(rows), size):
            part = rows[offset:offset + size]
            fed = 0
            while fed < len(part):
                fed += engine.feed_batch(part[fed:], next_checkpoint)
                if detector.last_time >= next_checkpoint:
                    saves.append(snapshot(engine))
                    next_checkpoint = detector.last_time + CHECKPOINT_EVERY
        engine.flush()
    except ValueError as raised:
        error = str(raised)
    return saves, error


def outcome(engine, saves, error):
    detector = engine.detector
    events, health = None, None
    if error is None:
        results = detector.finalize(detector.last_time)
        events = {key: result.timeline.down_intervals
                  for key, result in results.items()}
        health = detector.last_health.as_dict()
    stats = engine.buffer.stats.as_dict() if engine.buffer else None
    return {"saves": saves, "error": error, "events": events,
            "health": health, "reorder": stats, "final": snapshot(engine)}


SIZES = [1, 2, 3, 17, 256, 4096, None]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_feed_batch_matches_per_record_feed(seed):
    observations = stream(seed)
    oracle = make_engine()
    want = outcome(oracle, *per_record(oracle, observations))
    # The stream exercises what it claims to.
    stats = want["reorder"]
    assert stats["out_of_order"] > 0 and stats["late_dropped"] > 0
    assert want["final"]["retuned"] and want["final"]["dead_letters"]
    assert len(want["saves"]) >= 8
    for size in SIZES:
        engine = make_engine()
        got = outcome(engine, *batched(engine, observations,
                                       size or len(observations)))
        assert got == want, size


@pytest.mark.parametrize("advance_every", [0.0, 2 * CADENCE])
def test_catch_up_closes_match(advance_every):
    """Off the advance grid, bins close by packet catch-up inside a
    batch: those rows take the scalar observe, in stream order."""
    observations = stream(4)
    oracle = make_engine(advance_every=advance_every, sentinel=False)
    want = outcome(oracle, *per_record(oracle, observations))
    for size in (1, 64, None):
        engine = make_engine(advance_every=advance_every, sentinel=False)
        assert outcome(engine, *batched(
            engine, observations, size or len(observations))) == want, size


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("horizon", [0.0, HORIZON])
def test_non_finite_time_raises_after_the_same_prefix(where, horizon):
    observations = sorted(stream(5), key=lambda o: o.time)
    live = [i for i, o in enumerate(observations) if o.time >= DAY]
    index = {"first": live[0], "middle": live[len(live) // 2],
             "last": live[-1]}[where]
    observations[index] = replace(observations[index], time=float("nan"))
    oracle = make_engine(horizon=horizon)
    want = outcome(oracle, *per_record(oracle, observations))
    assert "non-finite" in want["error"]
    for size in (1, 5, None):
        engine = make_engine(horizon=horizon)
        assert outcome(engine, *batched(
            engine, observations, size or len(observations))) == want


def test_backwards_record_without_a_buffer_raises_identically():
    observations = sorted(stream(6), key=lambda o: o.time)
    live = [i for i, o in enumerate(observations) if o.time >= DAY]
    index = live[len(live) // 3]
    observations[index] = replace(observations[index],
                                  time=observations[index].time - 50.0)
    oracle = make_engine(horizon=0.0)
    want = outcome(oracle, *per_record(oracle, observations))
    assert "went backwards" in want["error"]
    for size in (1, 7, None):
        engine = make_engine(horizon=0.0)
        assert outcome(engine, *batched(
            engine, observations, size or len(observations))) == want


def test_resume_from_a_checkpoint_matches():
    """Kill at a checkpoint, restore, skip what it covered, go on."""
    observations = stream(7)
    oracle = make_engine()
    saves, _ = per_record(oracle, observations)
    text = json.dumps({key: value for key, value in saves[3].items()
                       if key != "observed"})
    results = []
    for feed in (per_record, batched):
        detector = detector_from_json(text, MODEL.histories,
                                      MODEL.parameters,
                                      metrics=MetricsRegistry())
        engine = make_engine(detector=detector)
        args = (engine, observations) + ((4096,) if feed is batched else ())
        results.append(outcome(engine, *feed(*args,
                                             skip_to=detector.last_time)))
    assert results[0] == results[1]
    assert results[0]["events"]


def test_push_batch_matches_push_on_ties_and_late_rows():
    """The buffer alone: same releases, in order, with the same stats
    and held records, for any split of the arrivals."""
    observations = stream(8)
    oracle = ReorderBuffer(HORIZON, metrics=MetricsRegistry())
    want = [row for observation in observations
            for row in oracle.push(observation)]
    for size in (1, 9, None):
        buffer = ReorderBuffer(HORIZON, metrics=MetricsRegistry())
        chunk = RecordChunk.from_observations(observations)
        got = []
        for offset in range(0, len(chunk), size or len(chunk)):
            consumed, released = buffer.push_batch(
                chunk[offset:offset + (size or len(chunk))])
            assert consumed == min(size or len(chunk), len(chunk) - offset)
            got += [released.observation(row) for row in range(len(released))]
        assert got == want, size
        assert buffer.state_dict() == oracle.state_dict(), size
        assert (buffer.metrics.snapshot() == oracle.metrics.snapshot()), size
