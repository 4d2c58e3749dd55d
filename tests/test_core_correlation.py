"""Multi-signal corroboration."""

import pytest

from repro.core.correlation import corroborate_events, fuse_timelines
from repro.core.health import BlockDataError
from repro.timeline import OutageEvent, Timeline


class TestFuseTimelines:
    def make(self, *down):
        return Timeline(0, 100, list(down))

    def test_majority_quorum_default(self):
        fused = fuse_timelines([self.make((10, 30)), self.make((20, 40)),
                                self.make((25, 35))])
        # majority (2 of 3) agree on [20, 35)
        assert fused.down_intervals == [(20.0, 35.0)]

    def test_quorum_one_is_union(self):
        fused = fuse_timelines([self.make((10, 20)), self.make((30, 40))],
                               quorum=1)
        assert fused.down_intervals == [(10.0, 20.0), (30.0, 40.0)]

    def test_full_quorum_is_intersection(self):
        fused = fuse_timelines([self.make((10, 30)), self.make((20, 40))],
                               quorum=2)
        assert fused.down_intervals == [(20.0, 30.0)]

    def test_requires_input(self):
        with pytest.raises(ValueError):
            fuse_timelines([])

    def test_span_mismatch_rejected_naming_source(self):
        with pytest.raises(BlockDataError) as info:
            fuse_timelines([self.make((10, 20)),
                            Timeline(0, 90, [(10, 20)])],
                           sources=["dns", "darknet"])
        message = str(info.value)
        assert "'darknet'" in message
        assert "shared span" in message

    def test_non_finite_interval_edge_rejected(self):
        # Construction sanitises edges, so model the fault the check
        # exists for: a corrupt deserialisation poking the internals.
        broken = Timeline(0, 100, [(10.0, 20.0)])
        broken._down = [(10.0, float("nan"))]
        with pytest.raises(BlockDataError) as info:
            fuse_timelines([self.make((10, 20)), broken])
        assert "source[1]" in str(info.value)


class TestCorroborateEvents:
    def test_sibling_witnesses_counted(self):
        # keys 0x100 and 0x101 share a /20 supernet (levels=4).
        events = {0x100: [OutageEvent(10, 20)],
                  0x101: [OutageEvent(12, 25)],
                  0x900: [OutageEvent(10, 20)]}
        results = corroborate_events(events, levels=4, slack=0)
        by_key = {(r.key, r.event.start): r for r in results}
        assert by_key[(0x100, 10)].witnesses == 1
        assert by_key[(0x100, 10)].corroborated
        assert by_key[(0x900, 10)].witnesses == 0

    def test_non_overlapping_not_witnessed(self):
        events = {0x100: [OutageEvent(10, 20)],
                  0x101: [OutageEvent(50, 60)]}
        results = corroborate_events(events, levels=4, slack=0)
        assert all(r.witnesses == 0 for r in results)

    def test_slack_extends_matching(self):
        events = {0x100: [OutageEvent(10, 20)],
                  0x101: [OutageEvent(22, 30)]}
        strict = corroborate_events(events, levels=4, slack=0)
        loose = corroborate_events(events, levels=4, slack=5)
        assert all(r.witnesses == 0 for r in strict)
        assert all(r.witnesses == 1 for r in loose)

    def test_same_block_not_its_own_witness(self):
        events = {0x100: [OutageEvent(10, 20), OutageEvent(12, 22)]}
        results = corroborate_events(events, levels=4, slack=0)
        assert all(r.witnesses == 0 for r in results)
