"""Vantage-blinding chaos suite: the fused degradation contracts.

The acceptance bar for multi-source fusion is *attribution*, not just
precision: blinding any single vantage mid-run — batch or live — must
add **zero false onsets attributable to the blinded source**.  The
survivors keep calling real outages, the victim's absence evidence is
gated (never read as "everything is down"), and the partitioned
deployment shape stays bit-identical to the single-process engine
through the fault.  ``test_fusion.py`` pins the deterministic machinery
(specs, routing, checkpoints); this file pins behaviour under fire.
"""

import numpy as np
import pytest

from repro.core.checkpoint import detector_to_json
from repro.fusion import (
    DarknetSource,
    FusedStreamingDetector,
    MappingSource,
    detect_fused,
    fused_detector_from_json,
    train_fused,
)
from repro.live import (
    LiveBlockEngine,
    merge_tagged_captures,
    run_partitioned_live,
)
from repro.net.addr import Family
from repro.telescope.capture import CaptureWriter
from repro.telescope.records import Observation
from repro.testing.faults import vantage_brownout
from repro.traffic.darknet import DarknetTelescope
from repro.traffic.internet import (
    FamilyConfig,
    InternetConfig,
    SimulatedInternet,
)
from repro.traffic.outages import IPV4_OUTAGE_MODEL, OutageModel

pytestmark = pytest.mark.faults

FAMILY = Family.IPV4
SHIFT = FAMILY.bits - FAMILY.default_block_prefix


@pytest.fixture(scope="module")
def chaos_setup(tmp_path_factory):
    """Two vantages over a small simulated Internet, with ground truth,
    the merged tagged eval stream, and per-vantage capture files for
    both the healthy run and the darknet-blinded run."""
    config = InternetConfig(
        end=160000.0, training_seconds=120000.0, seed=7,
        ipv4=FamilyConfig(n_blocks=24, outage_model=IPV4_OUTAGE_MODEL))
    internet = SimulatedInternet.build(config)
    eval_start, end = config.eval_start, config.end
    blind_at = eval_start + (end - eval_start) / 2.0

    dns_blocks = {profile.key: times
                  for profile, times in internet.passive_observations(seed=11)}
    dns = MappingSource("dns", dns_blocks, family=FAMILY)
    darknet = DarknetSource(DarknetTelescope(internet), seed=23)
    model = train_fused([dns, darknet], FAMILY, 0.0, eval_start)

    per_block = {name: adapter.per_block(FAMILY, eval_start, end)
                 for name, adapter in (("dns", dns), ("darknet", darknet))}
    truth = {profile.key: [(max(s, eval_start), min(e, end))
                           for s, e in profile.truth.down_intervals
                           if e > eval_start and s < end]
             for profile in internet.family_profiles(FAMILY)}

    events = []
    for name, blocks in per_block.items():
        for key, times in blocks.items():
            address = key << SHIFT
            events.extend((float(t), name, address) for t in times)
    events.sort(key=lambda event: (event[0], event[1], event[2]))

    root = tmp_path_factory.mktemp("fusion_chaos")

    def write_captures(directory, blinded):
        directory.mkdir()
        captures = {}
        for name, blocks in per_block.items():
            rows = []
            for key, times in blocks.items():
                address = key << SHIFT
                for time in times:
                    if blinded and name == "darknet" and time >= blind_at:
                        continue
                    rows.append((float(time), address))
            rows.sort()
            path = directory / f"{name}.pobs"
            with CaptureWriter(str(path)) as writer:
                for time, address in rows:
                    writer.write_raw(time, FAMILY, address, 0)
            captures[name] = str(path)
        return captures

    return {
        "model": model,
        "per_block": per_block,
        "truth": truth,
        "events": events,
        "eval_start": eval_start,
        "end": end,
        "blind_at": blind_at,
        "captures_healthy": write_captures(root / "healthy", False),
        "captures_blinded": write_captures(root / "blinded", True),
    }


def false_onsets(blocks, truth):
    """Down intervals that overlap no true outage of their block."""
    onsets = []
    for key in sorted(blocks):
        for left, right in blocks[key].timeline.down_intervals:
            if not any(left < t_end and right > t_start
                       for t_start, t_end in truth.get(key, [])):
                onsets.append((key, left, right))
    return onsets


def attributable(candidate, baseline):
    """False onsets of the faulted run with no counterpart in the
    baseline run — the ones the fault itself manufactured."""
    return [(key, left, right) for key, left, right in candidate
            if not any(b_key == key and left < b_right and right > b_left
                       for b_key, b_left, b_right in baseline)]


def run_single_live(model, captures, start):
    detector = FusedStreamingDetector(model, start)
    engine = LiveBlockEngine(detector)
    end_seen = start
    for observation in merge_tagged_captures(captures,
                                             order=model.source_names):
        engine.feed(observation)
        end_seen = max(end_seen, observation.time)
    engine.flush()
    return detector.finalize(end_seen), detector.last_health


class TestBatchBlinding:
    def test_blinding_any_vantage_adds_no_false_onsets(self, chaos_setup):
        model = chaos_setup["model"]
        per_block = chaos_setup["per_block"]
        truth = chaos_setup["truth"]
        start, end = chaos_setup["eval_start"], chaos_setup["end"]
        blind_at = chaos_setup["blind_at"]

        healthy = detect_fused(model, per_block, start, end)

        for victim in model.source_names:
            # A false onset is *attributable* to the blinded vantage
            # only if neither the healthy roster nor the survivors
            # alone would have called it — losing a vantage may let
            # survivor noise through (that is graceful degradation, and
            # a never-had-it run shows the same call), but the victim's
            # own silence must never be read as an outage.
            survivors_only = detect_fused(
                model, {name: blocks for name, blocks in per_block.items()
                        if name != victim},
                start, end, max_quarantine_frac=1.0)
            baseline = (false_onsets(healthy.blocks, truth)
                        + false_onsets(survivors_only.blocks, truth))
            blinded_feed = {
                name: ({key: times[times < blind_at]
                        for key, times in blocks.items()}
                       if name == victim else blocks)
                for name, blocks in per_block.items()}
            detection = detect_fused(model, blinded_feed, start, end,
                                     max_quarantine_frac=1.0)
            # The victim is quarantined, its weight collapsed — and the
            # survivors' calls gained no onset the healthy run lacked.
            health = detection.health.sources[victim]
            assert health.quarantine_windows, victim
            assert health.weight < 1e-6, victim
            assert health.gated_bins > 0, victim
            assert detection.all_dark_windows == []
            assert set(detection.blocks) == set(model.measurable_keys)
            blinded = false_onsets(detection.blocks, truth)
            assert attributable(blinded, baseline) == [], victim

    def test_real_outages_still_called_while_blinded(self):
        """Degradation must stay graceful in both directions: the gate
        that silences the dead vantage must not silence the survivor's
        real outage calls.  Uses an outage-dense Internet so the recall
        comparison has real weight."""
        config = InternetConfig(
            end=2 * 86400.0, training_seconds=86400.0, seed=41,
            ipv4=FamilyConfig(
                n_blocks=16,
                outage_model=OutageModel(outage_probability=1.0,
                                         short_fraction=0.0)))
        internet = SimulatedInternet.build(config)
        start, end = config.eval_start, config.end
        blind_at = start + (end - start) / 2.0
        dns = MappingSource(
            "dns", {profile.key: times for profile, times in
                    internet.passive_observations(seed=11)},
            family=FAMILY)
        darknet = DarknetSource(DarknetTelescope(internet), seed=23)
        model = train_fused([dns, darknet], FAMILY, 0.0, start)
        per_block = {name: adapter.per_block(FAMILY, start, end)
                     for name, adapter in (("dns", dns),
                                           ("darknet", darknet))}
        truth = {profile.key: [(max(s, start), min(e, end))
                               for s, e in profile.truth.down_intervals
                               if e > start and s < end]
                 for profile in internet.family_profiles(FAMILY)}
        blinded_feed = dict(per_block)
        blinded_feed["darknet"] = {key: times[times < blind_at]
                                   for key, times in
                                   per_block["darknet"].items()}
        detection = detect_fused(model, blinded_feed, start, end,
                                 max_quarantine_frac=1.0)
        healthy = detect_fused(model, per_block, start, end)

        def called(blocks, keys):
            return {
                (key, t_start, t_end)
                for key, intervals in truth.items()
                if key in blocks and key in keys
                for t_start, t_end in intervals
                if any(left < t_end and right > t_start for left, right in
                       blocks[key].timeline.down_intervals)}

        # Blocks the survivor can measure alone must keep their calls;
        # blocks only the dead vantage could see may legitimately lose
        # coverage (and the health report accounts for that).
        survivor_keys = set(model.sources["dns"].measurable_keys)
        healthy_calls = called(healthy.blocks, survivor_keys)
        assert len(healthy_calls) >= 5  # dense truth, dense calls
        blinded_calls = called(detection.blocks, survivor_keys)
        assert len(blinded_calls) >= len(healthy_calls) * 0.8


class TestStreamingBrownout:
    def test_brownout_degrades_softly(self, chaos_setup):
        """Partial loss (not death) must sag trust without inventing
        onsets — the soft half of the degradation story."""
        model = chaos_setup["model"]
        truth = chaos_setup["truth"]
        start, end = chaos_setup["eval_start"], chaos_setup["end"]
        events = chaos_setup["events"]

        healthy = FusedStreamingDetector(model, start)
        for time, name, address in events:
            healthy.observe_from(name, Observation(time, FAMILY, address))
        survivors_only = detect_fused(
            model, {"dns": chaos_setup["per_block"]["dns"]}, start, end,
            max_quarantine_frac=1.0)
        baseline = (false_onsets(healthy.finalize(end), truth)
                    + false_onsets(survivors_only.blocks, truth))

        tagged = ((name, Observation(time, FAMILY, address))
                  for time, name, address in events)
        browned = vantage_brownout(
            tagged, "darknet", chaos_setup["blind_at"], end,
            keep_fraction=0.25, rng=np.random.default_rng(99))
        detector = FusedStreamingDetector(model, start)
        for name, observation in browned:
            detector.observe_from(name, observation)
        results = detector.finalize(end)

        assert attributable(false_onsets(results, truth), baseline) == []
        monitor = detector.monitors["darknet"]
        # The sentinel never quarantined the browned-out feed (it is
        # alive), but its depressed bins sagged the weight and gated
        # the evidence all the same.
        assert monitor.sentinel.quarantined_intervals() == []
        assert not monitor.trusted_over(end - 60.0, end)
        assert monitor.weight < 0.01
        assert monitor.gated_bins > 0
        assert monitor.observations < healthy.monitors[
            "darknet"].observations
        assert detector.monitors["dns"].weight > 0.9


class TestLiveBlinding:
    def test_partitioned_matches_single_process_healthy(self, chaos_setup):
        model = chaos_setup["model"]
        captures = chaos_setup["captures_healthy"]
        single, single_health = run_single_live(model, captures,
                                                chaos_setup["eval_start"])
        result = run_partitioned_live(model, captures, partitions=3,
                                      reorder_horizon=30.0)
        assert set(single) == set(result.results)
        for key in sorted(single):
            ours, theirs = single[key], result.results[key]
            assert (list(ours.timeline.segments())
                    == list(theirs.timeline.segments())), key
            assert ours.quarantined == theirs.quarantined, key
        assert ({name: source.as_dict()
                 for name, source in single_health.sources.items()}
                == {name: source.as_dict()
                    for name, source in result.health.sources.items()})
        assert (single_health.sentinel_windows
                == result.health.sentinel_windows)

    def test_partitioned_rejects_non_finite_record_before_routing(
            self, chaos_setup, tmp_path):
        """A NaN in one vantage's capture is named by that capture's
        record index in the parent, not raised by whichever worker it
        would have been routed to."""
        from repro.telescope.capture import (NonFiniteTimestampError,
                                             read_batches, write_batches)

        captures = dict(chaos_setup["captures_healthy"])
        ipv4, _ = read_batches(captures["darknet"])
        times = ipv4.times.copy()
        record = int(np.searchsorted(times, chaos_setup["blind_at"]))
        times[record] = float("nan")
        captures["darknet"] = str(tmp_path / "darknet-nan.pobs")
        write_batches(captures["darknet"], type(ipv4)(
            ipv4.family, times, ipv4.block_keys, ipv4.qtypes))
        with pytest.raises(NonFiniteTimestampError) as raised:
            run_partitioned_live(chaos_setup["model"], captures,
                                 partitions=2, reorder_horizon=30.0)
        assert str(raised.value) == (
            f"darknet capture record {record} (byte offset "
            f"{8 + 27 * record}) has a non-finite timestamp t=nan")

    def test_partitioned_matches_single_process_blinded(self, chaos_setup):
        model = chaos_setup["model"]
        truth = chaos_setup["truth"]
        captures = chaos_setup["captures_blinded"]
        start = chaos_setup["eval_start"]
        single, single_health = run_single_live(model, captures, start)
        result = run_partitioned_live(model, captures, partitions=3,
                                      reorder_horizon=30.0)
        # Identical through the fault: every worker's whole-tap monitor
        # saw the same vbin rows the single engine derived itself.
        assert set(single) == set(result.results)
        for key in sorted(single):
            ours, theirs = single[key], result.results[key]
            assert (list(ours.timeline.segments())
                    == list(theirs.timeline.segments())), key
            assert ours.quarantined == theirs.quarantined, key
        assert ({name: source.as_dict()
                 for name, source in single_health.sources.items()}
                == {name: source.as_dict()
                    for name, source in result.health.sources.items()})
        darknet = result.health.sources["darknet"]
        assert darknet.weight < 1e-6
        assert darknet.quarantine_windows
        # Attribution holds on the live path too: the blinded live run
        # invented no onset that neither the healthy live run nor the
        # dns-only roster would have called.
        healthy_single, _ = run_single_live(
            model, chaos_setup["captures_healthy"], start)
        survivors_only = detect_fused(
            model, {"dns": chaos_setup["per_block"]["dns"]},
            start, chaos_setup["end"], max_quarantine_frac=1.0)
        baseline = (false_onsets(healthy_single, truth)
                    + false_onsets(survivors_only.blocks, truth))
        assert attributable(false_onsets(single, truth), baseline) == []


class TestMidQuarantineResume:
    def test_checkpoint_inside_quarantine_is_bit_for_bit(self, chaos_setup):
        """Kill the detector 10000 s into an open quarantine; the
        resumed process must be indistinguishable from one that never
        died — gate state, weights, and retractions included."""
        model = chaos_setup["model"]
        start, end = chaos_setup["eval_start"], chaos_setup["end"]
        blind_at = start + 20000.0
        mid = start + 30000.0
        events = [event for event in chaos_setup["events"]
                  if not (event[1] == "darknet" and event[0] >= blind_at)]

        def feed(detector, stream):
            for time, name, address in stream:
                detector.observe_from(name,
                                      Observation(time, FAMILY, address))

        uninterrupted = FusedStreamingDetector(model, start)
        feed(uninterrupted, events)
        full_document = detector_to_json(uninterrupted)
        full_results = uninterrupted.finalize(end)

        victim = FusedStreamingDetector(model, start)
        feed(victim, [event for event in events if event[0] < mid])
        assert not victim.monitors["darknet"].trusted_over(mid - 60.0, mid)
        checkpoint = detector_to_json(victim)
        del victim  # the process dies here, mid-quarantine

        resumed = fused_detector_from_json(checkpoint, model)
        feed(resumed, [event for event in events if event[0] >= mid])
        assert detector_to_json(resumed) == full_document
        resumed_results = resumed.finalize(end)
        assert set(full_results) == set(resumed_results)
        for key in full_results:
            assert (list(full_results[key].timeline.segments())
                    == list(resumed_results[key].timeline.segments())), key
            assert (full_results[key].quarantined
                    == resumed_results[key].quarantined), key
        assert (uninterrupted.last_health.as_dict()
                == resumed.last_health.as_dict())
        monitor = resumed.monitors["darknet"]
        assert monitor.sentinel.quarantined_intervals()
        assert monitor.weight < 1e-6
