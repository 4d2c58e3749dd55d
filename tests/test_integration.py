"""Cross-module integration: full pipelines over the shared fixture."""

import io

import numpy as np
import pytest

from repro.core.correlation import corroborate_events
from repro.core.detector import StreamingDetector
from repro.core.pipeline import PassiveOutagePipeline
from repro.eval.confusion import confusion_for_population
from repro.eval.matching import match_events
from repro.net.addr import Family
from repro.telescope.capture import read_batches, write_batches
from repro.telescope.records import ObservationBatch
from repro.telescope.stream import merge_streams, window_stream

DAY = 86400.0


def to_batch(per_block, family=Family.IPV4):
    times = np.concatenate(list(per_block.values()))
    keys = np.concatenate([np.full(t.size, k, dtype=np.uint64)
                           for k, t in per_block.items()])
    order = np.argsort(times)
    return ObservationBatch(family, times[order], keys[order])


class TestCaptureToDetection:
    def test_detection_survives_capture_roundtrip(self, small_internet,
                                                  small_per_block):
        """Writing observations to the wire format and reading them back
        must not change the detector's verdicts."""
        per_block = small_per_block[Family.IPV4]
        batch = to_batch(per_block)
        buffer = io.BytesIO()
        write_batches(buffer, batch)
        buffer.seek(0)
        reloaded, _ = read_batches(buffer)

        pipeline = PassiveOutagePipeline()
        model_direct = pipeline.train_from_batch(
            batch.time_slice(0, DAY), 0, DAY)
        model_reloaded = pipeline.train_from_batch(
            reloaded.time_slice(0, DAY), 0, DAY)
        assert model_direct.measurable_keys == model_reloaded.measurable_keys

        result_direct = pipeline.detect_from_batch(
            model_direct, batch.time_slice(DAY, 2 * DAY), DAY, 2 * DAY)
        result_reloaded = pipeline.detect_from_batch(
            model_reloaded, reloaded.time_slice(DAY, 2 * DAY), DAY, 2 * DAY)
        for key in result_direct.blocks:
            assert result_direct.blocks[key].timeline == \
                result_reloaded.blocks[key].timeline


class TestBatchVsStreaming:
    def test_same_verdicts_for_long_outages(self, small_internet,
                                            small_per_block):
        per_block = small_per_block[Family.IPV4]
        pipeline = PassiveOutagePipeline()
        train = {k: t[t < DAY] for k, t in per_block.items()}
        evaluate = {k: t[t >= DAY] for k, t in per_block.items()}
        model = pipeline.train(Family.IPV4, train, 0, DAY)
        batch_result = pipeline.detect(model, evaluate, DAY, 2 * DAY)

        stream = StreamingDetector(Family.IPV4, model.histories,
                                   model.parameters, DAY)
        batch = to_batch(evaluate)
        for observation in batch.to_observations():
            stream.observe(observation)
        stream_result = stream.finalize(2 * DAY)

        agreements = 0
        comparisons = 0
        for key, batch_block in batch_result.blocks.items():
            stream_block = stream_result[key]
            batch_events = batch_block.timeline.events(600.0)
            stream_events = stream_block.timeline.events(600.0)
            matched = match_events(stream_events, batch_events, slack=600.0)
            comparisons += len(batch_events)
            agreements += len(matched.matched)
        if comparisons:
            assert agreements / comparisons > 0.9

    def test_detection_accuracy_vs_truth(self, small_internet,
                                         small_per_block):
        per_block = small_per_block[Family.IPV4]
        pipeline = PassiveOutagePipeline()
        train = {k: t[t < DAY] for k, t in per_block.items()}
        evaluate = {k: t[t >= DAY] for k, t in per_block.items()}
        model = pipeline.train(Family.IPV4, train, 0, DAY)
        result = pipeline.detect(model, evaluate, DAY, 2 * DAY)
        truths = {p.key: p.truth.clip(DAY, 2 * DAY)
                  for p in small_internet.family_profiles(Family.IPV4)}
        confusion = confusion_for_population(
            {k: b.timeline for k, b in result.blocks.items()}, truths)
        assert confusion.precision > 0.99
        assert confusion.recall > 0.98


class TestMultiVantage:
    def test_split_vantages_fuse_to_one_picture(self, small_internet,
                                                small_per_block):
        """Two vantage points each see a random half of every block's
        queries; fusing their evidence in one belief filter should
        recover what a single full view concludes."""
        from repro.fusion import MappingSource, detect_fused, train_fused

        rng = np.random.default_rng(0)
        per_block = small_per_block[Family.IPV4]
        view_a, view_b = {}, {}
        for key, times in per_block.items():
            mask = rng.random(times.size) < 0.5
            view_a[key] = times[mask]
            view_b[key] = times[~mask]

        sources = [MappingSource("a", view_a, family=Family.IPV4),
                   MappingSource("b", view_b, family=Family.IPV4)]
        model = train_fused(sources, Family.IPV4, 0, DAY)
        detection = detect_fused(
            model, {source.name: source.per_block(Family.IPV4, DAY, 2 * DAY)
                    for source in sources}, DAY, 2 * DAY)

        truths = {p.key: p.truth.clip(DAY, 2 * DAY)
                  for p in small_internet.family_profiles(Family.IPV4)}
        confusion = confusion_for_population(
            {k: b.timeline for k, b in detection.blocks.items()}, truths)
        assert confusion.precision > 0.98
        assert confusion.recall > 0.97

    def test_corroboration_over_detected_events(self, small_internet,
                                                small_per_block):
        per_block = small_per_block[Family.IPV4]
        pipeline = PassiveOutagePipeline()
        train = {k: t[t < DAY] for k, t in per_block.items()}
        evaluate = {k: t[t >= DAY] for k, t in per_block.items()}
        model = pipeline.train(Family.IPV4, train, 0, DAY)
        result = pipeline.detect(model, evaluate, DAY, 2 * DAY)
        events_by_block = {k: b.timeline.events(300.0)
                           for k, b in result.blocks.items()}
        corroborated = corroborate_events(events_by_block, levels=8)
        assert len(corroborated) == sum(
            len(v) for v in events_by_block.values())


class TestIpv6EndToEnd:
    def test_ipv6_detection_matches_truth(self, small_internet,
                                          small_per_block):
        """The full pipeline on /48 keys (48-bit uint64 block keys)."""
        per_block = small_per_block[Family.IPV6]
        assert per_block, "fixture must include IPv6 blocks"
        pipeline = PassiveOutagePipeline()
        train = {k: t[t < DAY] for k, t in per_block.items()}
        evaluate = {k: t[t >= DAY] for k, t in per_block.items()}
        model = pipeline.train(Family.IPV6, train, 0, DAY)
        result = pipeline.detect(model, evaluate, DAY, 2 * DAY)
        assert result.blocks, "no measurable IPv6 blocks"
        truths = {p.key: p.truth.clip(DAY, 2 * DAY)
                  for p in small_internet.family_profiles(Family.IPV6)}
        confusion = confusion_for_population(
            {k: b.timeline for k, b in result.blocks.items()}, truths)
        assert confusion.precision > 0.98
        assert confusion.recall > 0.97

    def test_ipv6_keys_preserved_through_capture(self, small_per_block):
        per_block = small_per_block[Family.IPV6]
        batch = to_batch(per_block, family=Family.IPV6)
        buffer = io.BytesIO()
        write_batches(buffer, batch)
        buffer.seek(0)
        _, reloaded = read_batches(buffer)
        assert set(np.unique(reloaded.block_keys)) == \
            set(np.unique(batch.block_keys))
        # /48 keys need all 48 bits; make sure we exercise the range.
        assert int(batch.block_keys.max()) > 1 << 44


class TestStreamingWindows:
    def test_window_stream_feeds_detector(self, small_per_block):
        per_block = small_per_block[Family.IPV4]
        pipeline = PassiveOutagePipeline()
        train = {k: t[t < DAY] for k, t in per_block.items()}
        evaluate = {k: t[t >= DAY] for k, t in per_block.items()}
        model = pipeline.train(Family.IPV4, train, 0, DAY)

        detector = StreamingDetector(Family.IPV4, model.histories,
                                     model.parameters, DAY)
        batch = to_batch(evaluate)
        rows = batch.to_observations()
        fed = 0
        for _, window_end, observations in window_stream(rows, DAY, 300.0):
            for observation in observations:
                detector.observe(observation)
            detector.advance(window_end)
            fed += len(observations)
        results = detector.finalize(2 * DAY)
        assert fed == len(rows)
        assert len(results) == len(model.measurable_keys)
