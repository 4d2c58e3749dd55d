"""One streaming scenario, three drives, one answer.

Each detector (single-source and fused) runs one seeded scenario — an
outage population with mixed tuned bin widths, a mid-run hot swap and
poisoned models — three ways:

(a) per-packet only: every bin closes by packet catch-up (and the
    final flush);
(b) advance-driven: ``advance`` on a fixed 300 s grid before each row,
    as ``LiveBlockEngine`` steps it;
(c) as (b), with a real :class:`~repro.obs.explain.ExplainLog`.

All three must leave identical checkpoints and finalized timelines,
with two differences that belong to the drive, not to the close:

* a victim is dead-lettered at its first close, which per-packet
  catch-up reaches in packet order and ``advance`` in cohort order, so
  dead-letter entries are compared in key order;
* a fused close reads each vantage's reliability weight when it runs,
  and per-packet catch-up runs it later than ``advance``, so the fused
  (a) drive matches (b) in timelines and dead letters, not in belief
  floats and gated-window counts.

The explain log of (c) must equal the committed golden
``tests/data/explain_<kind>.golden.jsonl``, recorded by the
block-at-a-time scalar close.  Regenerate it (only for an intended
change of the explain format) with
``PYTHONPATH=src python -m tests.test_stream_parity``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.core.checkpoint import detector_to_json
from repro.core.detector import StreamingDetector
from repro.core.history import train_history
from repro.core.parameters import ParameterPlanner
from repro.net.addr import Family
from repro.obs.explain import ExplainLog
from repro.telescope.records import Observation
from repro.testing.faults import degenerate_parameters
from repro.traffic.sources import poisson_times, suppress_intervals

DAY = 86400.0
GRID = 300.0
#: stream time at which the scenario queues its hot swap.
SWAP_AT = DAY + 20000.0
DATA = pathlib.Path(__file__).parent / "data"
KINDS = ("single", "fused")


def _single_scenario():
    """16 blocks over two days: rates spread over the bin ladder,
    shared outage windows (so blocks of different widths flip in one
    ``advance``), two poisoned models and one re-gridding hot swap."""
    rng = np.random.default_rng(2024)
    histories, evaluate = {}, {}
    for key in range(1, 17):
        rate = 0.004 + 0.012 * (key % 6)
        histories[key] = train_history(poisson_times(rng, rate, 0, DAY),
                                       0, DAY)
        times = poisson_times(rng, rate, DAY, 2 * DAY)
        if key % 3 == 0:
            times = suppress_intervals(times, [(DAY + 30000.0,
                                                DAY + 42000.0)])
        if key % 4 == 1:
            times = suppress_intervals(times, [(DAY + 60000.0,
                                                DAY + 61800.0)])
        evaluate[key] = times
    parameters = ParameterPlanner().plan(histories)
    measurable = [key for key in sorted(parameters)
                  if parameters[key].measurable]
    parameters = degenerate_parameters(parameters, measurable[1:2],
                                       "prior_down", float("nan"))
    parameters = degenerate_parameters(parameters, measurable[4:5],
                                       "noise_nonempty", float("nan"))
    swap_key = measurable[-1]
    params = parameters[swap_key]
    swap = (swap_key, histories[swap_key], dataclasses.replace(
        params, bin_seconds=2 * params.bin_seconds))
    rows = sorted((float(t), key, "dns") for key, times in evaluate.items()
                  for t in times)

    def build(explain):
        return StreamingDetector(Family.IPV4, histories, parameters, DAY,
                                 explain=explain)

    return build, rows, swap, 2 * DAY


def _fused_scenario():
    """Two vantages (DNS tap and darknet) over a simulated Internet,
    one block's darknet model poisoned, and a hot swap of one block's
    lead model."""
    from repro.fusion import (
        DarknetSource,
        FusedStreamingDetector,
        MappingSource,
        train_fused,
    )
    from repro.traffic.darknet import DarknetTelescope
    from repro.traffic.internet import (
        FamilyConfig,
        InternetConfig,
        SimulatedInternet,
    )
    from repro.traffic.outages import OutageModel

    family = Family.IPV4
    config = InternetConfig(
        end=2 * DAY, training_seconds=DAY, seed=7,
        ipv4=FamilyConfig(n_blocks=12, outage_model=OutageModel(
            outage_probability=0.5)))
    internet = SimulatedInternet.build(config)
    eval_start, end = config.eval_start, config.end
    dns = MappingSource(
        "dns",
        {p.key: t for p, t in internet.passive_observations(seed=11)},
        family=family)
    darknet = DarknetSource(DarknetTelescope(internet), seed=23)
    model = train_fused([dns, darknet], family, 0.0, eval_start)
    telescope = model.sources["darknet"]
    victim = telescope.measurable_keys[-1]
    model.sources["darknet"] = dataclasses.replace(
        telescope, parameters=degenerate_parameters(
            telescope.parameters, [victim], "noise_nonempty", float("nan")))
    rows = []
    for name, adapter in (("dns", dns), ("darknet", darknet)):
        for key, times in adapter.per_block(family, eval_start,
                                            end).items():
            rows.extend((float(t), key, name) for t in times)
    rows.sort()
    swap_key = model.measurable_keys[0]
    lead = model.sources["dns"]
    swap = (swap_key, lead.histories[swap_key],
            lead.parameters[swap_key])

    def build(explain):
        return FusedStreamingDetector(model, eval_start, explain=explain)

    return build, rows, swap, end


SCENARIOS = {"single": _single_scenario, "fused": _fused_scenario}


def run(kind, scenario, grid, explain=None):
    """Drive ``scenario`` once; returns ``(detector, results)``."""
    build, rows, swap, end = scenario
    detector = build(explain)
    shift = Family.IPV4.bits - Family.IPV4.default_block_prefix
    fused = kind == "fused"
    next_advance = detector.start + grid if grid else None
    swapped = False
    for time, key, source in rows:
        while next_advance is not None and time >= next_advance:
            detector.advance(next_advance)
            next_advance += grid
        if not swapped and time >= SWAP_AT:
            detector.hot_swap(*swap)
            swapped = True
        observation = Observation(time, Family.IPV4, key << shift)
        if fused:
            detector.observe_from(source, observation)
        else:
            detector.observe(observation)
    return detector, detector.finalize(end)


def explain_jsonl(kind, scenario=None):
    """The explain log of drive (c), as ``--explain-out`` writes it."""
    explain = ExplainLog()
    run(kind, scenario or SCENARIOS[kind](), GRID, explain)
    return explain.to_jsonl()


def checkpoint(detector):
    """The detector's checkpoint document, dead letters in key order."""
    document = json.loads(detector_to_json(detector))
    document["dead_letters"].sort(key=lambda entry: entry["block_key"])
    return document


def golden_path(kind):
    return DATA / f"explain_{kind}.golden.jsonl"


@pytest.fixture(scope="module", params=KINDS)
def scenario(request):
    return request.param, SCENARIOS[request.param]()


class TestThreeDrives:
    def test_drives_leave_identical_detectors(self, scenario):
        kind, world = scenario
        outcomes = []
        for grid, explain in ((None, None), (GRID, None),
                              (GRID, ExplainLog())):
            detector, results = run(kind, world, grid, explain)
            document = checkpoint(detector)
            outcomes.append((
                document if kind == "single" or grid else None,
                document["dead_letters"],
                {key: (result.timeline.down_intervals,
                       result.coarse_timeline.down_intervals)
                 for key, result in sorted(results.items())},
            ))
        assert outcomes[1] == outcomes[2]
        assert outcomes[0][1:] == outcomes[1][1:]
        if kind == "single":
            assert outcomes[0] == outcomes[1]
        assert len(outcomes[0][1]) == (2 if kind == "single" else 1)

    def test_explain_log_matches_scalar_golden(self, scenario):
        kind, world = scenario
        assert explain_jsonl(kind, world) == golden_path(kind).read_text(
            encoding="utf-8")


if __name__ == "__main__":
    for kind in KINDS:
        golden_path(kind).write_text(explain_jsonl(kind), encoding="utf-8")
        print(f"wrote {golden_path(kind)}")
