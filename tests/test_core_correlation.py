"""Multi-signal corroboration."""

from repro.core.correlation import corroborate_events
from repro.timeline import OutageEvent


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
