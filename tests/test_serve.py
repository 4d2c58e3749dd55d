"""Serving plane: protocol units, query semantics, resync property.

Covers the pieces of :mod:`repro.serve` that do not need chaos
(``tests/test_serve_chaos.py`` owns faults): the hand-rolled WebSocket
codec against the RFC 6455 vector, admission-control primitives with a
fake clock, the event broker's gap contract, snapshot queries with
lost-coverage degradation, an in-process end-to-end pass over real
sockets, and the hypothesis property at the heart of the subscribe
channel — any at-least-once interleaving of drops, duplicates,
reorderings and snapshot/delta resyncs converges every client to the
same replica.
"""

import json
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addr import Address, Family
from repro.net.blocks import Block
from repro.serve import (
    AdmissionConfig,
    BlockServingState,
    EventBroker,
    EventSpec,
    LagPolicy,
    ReadyGate,
    ServeConfig,
    ServingPlane,
    SubscriberState,
    SyncServeClient,
    TokenBucket,
    build_snapshot,
)
from repro.serve import ws
from repro.serve.admission import retry_jitter
from repro.serve.client import http_get
from repro.testing.faults import (
    compose,
    drop_observations,
    duplicate_observations,
    reorder_observations,
)

V4 = Family.IPV4


# -- WebSocket codec ---------------------------------------------------------

class TestWebSocketCodec:
    def test_rfc6455_accept_vector(self):
        # The handshake example from RFC 6455 §1.3.
        assert (ws.accept_key("dGhlIHNhbXBsZSBub25jZQ==")
                == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo=")

    @pytest.mark.parametrize("mask", [False, True])
    @pytest.mark.parametrize("size", [0, 1, 125, 126, 65535, 65536])
    def test_frame_roundtrip(self, mask, size):
        payload = bytes(range(256)) * (size // 256 + 1)
        payload = payload[:size]
        frame = ws.encode_frame(ws.OP_TEXT, payload, mask=mask)
        view = memoryview(frame)
        offset = [0]

        def readexactly(n):
            data = bytes(view[offset[0]:offset[0] + n])
            offset[0] += n
            return data

        opcode, decoded = ws.read_frame_blocking(readexactly)
        assert opcode == ws.OP_TEXT
        assert decoded == payload

    def test_close_payload_roundtrip(self):
        payload = ws.close_payload(1001, "going away")
        assert int.from_bytes(payload[:2], "big") == 1001
        assert payload[2:] == b"going away"

    def test_fragmented_frame_rejected(self):
        frame = bytearray(ws.encode_frame(ws.OP_TEXT, b"hi"))
        frame[0] &= 0x7F  # clear FIN
        view = memoryview(bytes(frame))
        offset = [0]

        def readexactly(n):
            data = bytes(view[offset[0]:offset[0] + n])
            offset[0] += n
            return data

        with pytest.raises(ws.WebSocketError):
            ws.read_frame_blocking(readexactly)


# -- admission control -------------------------------------------------------

class TestTokenBucket:
    def test_rate_limits_and_refills(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: now[0])
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()
        now[0] += 0.5  # one token refilled at 2/s
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_zero_rate_admits_everything(self):
        bucket = TokenBucket(rate=0.0)
        assert all(bucket.try_take() for _ in range(1000))


class TestRetryJitter:
    def test_deterministic_and_bounded(self):
        first = retry_jitter("salt", "/v1/state", 0, base=4.0)
        again = retry_jitter("salt", "/v1/state", 0, base=4.0)
        assert first == again
        assert 2.0 <= first <= 4.0

    def test_varies_with_attempt_and_endpoint(self):
        hints = {retry_jitter("s", endpoint, n, base=8.0)
                 for endpoint in ("/v1/state", "/v1/events")
                 for n in range(4)}
        assert len(hints) > 1


class TestReadyGate:
    def test_no_snapshot_is_not_ready(self):
        ready, reasons = ReadyGate().evaluate(None, now=100.0)
        assert not ready
        assert any("no snapshot" in reason for reason in reasons)

    def test_fresh_snapshot_is_ready(self):
        snapshot = build_snapshot(V4, {1: BlockServingState(up=True)},
                                  watermark=50.0, published_at=99.0)
        ready, reasons = ReadyGate(max_lag_s=10.0).evaluate(snapshot,
                                                           now=100.0)
        assert ready and not reasons

    def test_lagging_snapshot_trips(self):
        snapshot = build_snapshot(V4, {1: BlockServingState(up=True)},
                                  watermark=50.0, published_at=0.0)
        ready, reasons = ReadyGate(max_lag_s=10.0).evaluate(snapshot,
                                                           now=100.0)
        assert not ready
        assert any("lag" in reason or "stale" in reason
                   for reason in reasons)

    def test_lost_coverage_trips(self):
        snapshot = build_snapshot(
            V4, {1: BlockServingState(up=True)},
            lost={2: "lost-coverage", 3: "lost-coverage"},
            watermark=50.0, published_at=99.0)
        ready, reasons = ReadyGate(
            max_lag_s=10.0, max_lost_fraction=0.5).evaluate(snapshot,
                                                            now=100.0)
        assert not ready
        assert any("lost" in reason for reason in reasons)


# -- event broker ------------------------------------------------------------

class TestEventBroker:
    def test_seqs_are_monotone_from_one(self):
        broker = EventBroker()
        seqs = [broker.publish(EventSpec(kind="onset", time=t),
                               watermark=t).seq
                for t in (1.0, 2.0, 3.0)]
        assert seqs == [1, 2, 3]
        assert broker.last_seq == 3

    def test_since_pure_deltas(self):
        broker = EventBroker(capacity=10)
        for t in range(5):
            broker.publish(EventSpec(kind="onset", time=float(t)),
                           watermark=float(t))
        events, gap = broker.since(2)
        assert [event.seq for event in events] == [3, 4, 5]
        assert not gap

    def test_since_reports_gap_past_the_ring(self):
        broker = EventBroker(capacity=3)
        for t in range(6):
            broker.publish(EventSpec(kind="onset", time=float(t)),
                           watermark=float(t))
        events, gap = broker.since(1)  # seq 2 evicted (ring holds 4..6)
        assert gap
        assert [event.seq for event in events] == [4, 5, 6]

    def test_caught_up_is_empty_without_gap(self):
        broker = EventBroker(capacity=2)
        for t in range(5):
            broker.publish(EventSpec(kind="onset", time=float(t)),
                           watermark=float(t))
        assert broker.since(5) == ([], False)
        assert broker.since(9) == ([], False)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EventSpec(kind="mystery", time=0.0)


# -- lag policy and snapshot queries -----------------------------------------

class TestLagPolicy:
    def test_judgements(self):
        policy = LagPolicy(stale_after_s=10.0, fail_after_s=60.0)
        assert policy.judge(5.0) == "ok"
        assert policy.judge(30.0) == "stale"
        assert policy.judge(61.0) == "fail"

    def test_no_hard_bound_never_fails(self):
        policy = LagPolicy(stale_after_s=10.0, fail_after_s=None)
        assert policy.judge(1e9) == "stale"

    def test_fail_bound_must_dominate(self):
        with pytest.raises(ValueError):
            LagPolicy(stale_after_s=30.0, fail_after_s=5.0)


class TestSnapshotQueries:
    @pytest.fixture
    def snapshot(self):
        up = Block.parse("192.0.2.0/24")
        down = Block.parse("192.0.3.0/24")
        return build_snapshot(
            V4,
            {up.prefix: BlockServingState(up=True, belief=0.97),
             down.prefix: BlockServingState(up=False, since=500.0)},
            lost={Block.parse("10.9.0.0/24").prefix: "quarantined"},
            lost_blocks=[Block.parse("203.0.0.0/16")],
            watermark=1000.0, published_at=5.0, seq=3, events_through=7)

    def test_address_longest_prefix(self, snapshot):
        hit = snapshot.query_address(Address.parse("192.0.3.77"))
        assert hit["found"] and not hit["up"]
        assert hit["block"] == "192.0.3.0/24"
        assert hit["since"] == 500.0
        assert hit["degraded"] is None

    def test_address_miss(self, snapshot):
        miss = snapshot.query_address(Address.parse("8.8.8.8"))
        assert not miss["found"] and miss["degraded"] is None

    def test_lost_keyspace_never_answers_silently(self, snapshot):
        lost = snapshot.query_address(Address.parse("203.0.113.9"))
        assert not lost["found"]
        assert lost["degraded"] == "lost-coverage"
        assert lost["affected_prefixes"] == ["203.0.0.0/16"]
        quarantined = snapshot.query_address(Address.parse("10.9.0.1"))
        assert quarantined["degraded"] == "quarantined"

    def test_prefix_subtree(self, snapshot):
        result = snapshot.query_prefix(Block.parse("192.0.0.0/16"))
        assert result["count"] == 2 and result["down"] == 1
        assert result["degraded"] is None

    def test_prefix_inside_lost_keyspace_is_degraded(self, snapshot):
        result = snapshot.query_prefix(Block.parse("203.0.113.0/24"))
        assert result["degraded"] == "lost-coverage"
        assert result["affected_prefixes"] == ["203.0.0.0/16"]

    def test_stamp_shape(self, snapshot):
        stamp = snapshot.stamp(1.23456, "stale")
        assert stamp == {"watermark": 1000.0, "staleness_s": 1.235,
                         "degraded": "stale", "snapshot_seq": 3,
                         "events_through": 7}

    def test_snapshot_message_rebuilds_the_view(self, snapshot):
        client = SubscriberState()
        assert client.apply(snapshot.snapshot_message())
        assert client.blocks["192.0.2.0/24"] == (True, 0.97, None)
        assert client.blocks["192.0.3.0/24"] == (False, None, 500.0)
        assert "203.0.0.0/16" in client.lost
        assert client.last_seq == 7


class TestSubscriberState:
    def test_events_idempotent_by_seq(self):
        client = SubscriberState()
        event = {"type": "event", "seq": 1, "kind": "onset",
                 "block": "192.0.2.0/24", "time": 10.0, "watermark": 10.0}
        assert client.apply(event)
        assert not client.apply(event)  # re-delivery is a no-op
        assert client.blocks["192.0.2.0/24"][0] is False
        assert client.events_applied == 1

    def test_gap_is_detected_not_papered_over(self):
        client = SubscriberState()
        client.apply({"type": "event", "seq": 1, "kind": "onset",
                      "block": "a/24", "time": 1.0, "watermark": 1.0})
        assert not client.apply({"type": "event", "seq": 3,
                                 "kind": "recovery", "block": "a/24",
                                 "time": 3.0, "watermark": 3.0})
        assert client.gaps_detected == 1
        assert client.last_seq == 1  # never applied past the hole

    def test_stale_snapshot_rejected(self):
        client = SubscriberState()
        for seq in (1, 2, 3):
            client.apply({"type": "event", "seq": seq, "kind": "onset",
                          "block": f"b{seq}/24", "time": float(seq),
                          "watermark": float(seq)})
        old = {"type": "snapshot", "seq": 1, "events_through": 1,
               "blocks": [], "lost": []}
        assert not client.apply(old)
        assert client.last_seq == 3


# -- in-process end-to-end ---------------------------------------------------

@pytest.fixture
def plane():
    from repro.obs.metrics import MetricsRegistry
    config = ServeConfig(port=0, lag=LagPolicy(stale_after_s=60.0),
                         ready=ReadyGate(max_lag_s=60.0))
    plane = ServingPlane(V4, config, registry=MetricsRegistry())
    plane.start()
    yield plane
    plane.stop(drain=True)


def _publish_two_blocks(plane):
    up = Block.parse("192.0.2.0/24")
    down = Block.parse("198.51.100.0/24")
    seq = plane.publish(
        {up.prefix: BlockServingState(up=True, belief=0.99),
         down.prefix: BlockServingState(up=False, since=900.0)},
        watermark=1000.0,
        events=[EventSpec(kind="onset", time=900.0, block=str(down),
                          key=down.prefix)])
    assert plane.wait_published(seq, timeout=10.0)
    return up, down


class TestServingPlaneEndToEnd:
    def test_ready_flips_on_first_snapshot(self, plane):
        status, headers, body = http_get("127.0.0.1", plane.port, "/ready")
        assert status == 503
        assert headers["retry-after"] == "1"
        _publish_two_blocks(plane)
        status, _, body = http_get("127.0.0.1", plane.port, "/ready")
        assert status == 200
        assert json.loads(body)["ready"]

    def test_state_queries_carry_the_stamp(self, plane):
        _, down = _publish_two_blocks(plane)
        status, _, body = http_get(
            "127.0.0.1", plane.port, "/v1/state?address=198.51.100.7")
        assert status == 200
        document = json.loads(body)
        assert document["found"] and not document["up"]
        assert document["block"] == str(down)
        assert document["stamp"]["watermark"] == 1000.0
        assert document["stamp"]["degraded"] is None
        status, _, body = http_get(
            "127.0.0.1", plane.port, "/v1/state?prefix=192.0.0.0/16")
        assert json.loads(body)["count"] == 1

    def test_no_snapshot_is_an_explicit_503(self, plane):
        status, headers, body = http_get(
            "127.0.0.1", plane.port, "/v1/state?address=192.0.2.1")
        assert status == 503
        assert json.loads(body)["degraded"] == "no-snapshot"
        assert "retry-after" in headers

    def test_bad_query_is_400(self, plane):
        _publish_two_blocks(plane)
        status, _, _ = http_get("127.0.0.1", plane.port, "/v1/state")
        assert status == 400
        status, _, _ = http_get("127.0.0.1", plane.port,
                                "/v1/state?address=not-an-ip")
        assert status == 400

    def test_unknown_path_is_404_with_directory(self, plane):
        status, _, body = http_get("127.0.0.1", plane.port, "/nope")
        assert status == 404
        assert "/v1/state" in json.loads(body)["endpoints"]

    def test_events_endpoint_pages_by_seq(self, plane):
        _publish_two_blocks(plane)
        status, _, body = http_get("127.0.0.1", plane.port,
                                   "/v1/events?since=0")
        document = json.loads(body)
        assert status == 200
        assert document["last_seq"] == 1
        assert document["events"][0]["kind"] == "onset"
        assert not document["gap"]

    def test_subscribe_snapshot_then_live_events(self, plane):
        up, down = _publish_two_blocks(plane)
        with SyncServeClient("127.0.0.1", plane.port) as client:
            assert client.accepted
            hello = client.recv_message()
            assert hello["type"] == "hello"
            assert hello["resync"] == "snapshot"
            state = SubscriberState()
            assert state.apply(client.recv_message())  # snapshot
            assert state.blocks[str(down)][0] is False
            # A transition published after subscription fans out live.
            plane.publish(
                {up.prefix: BlockServingState(up=True),
                 down.prefix: BlockServingState(up=True, since=1100.0)},
                watermark=1200.0,
                events=[EventSpec(kind="recovery", time=1100.0,
                                  block=str(down), key=down.prefix)])
            message = client.recv_message()
            assert message["type"] == "event"
            assert state.apply(message)
            assert state.blocks[str(down)][0] is True
            client.ack(state.last_seq)

    def test_reconnect_with_cursor_gets_pure_deltas(self, plane):
        up, down = _publish_two_blocks(plane)
        with SyncServeClient("127.0.0.1", plane.port, since=0) as client:
            hello = client.recv_message()
            assert hello["resync"] == "delta"
            message = client.recv_message()
            assert message["type"] == "event" and message["seq"] == 1

    def test_health_reports_plane_stats(self, plane):
        _publish_two_blocks(plane)
        status, _, body = http_get("127.0.0.1", plane.port, "/health")
        plane_stats = json.loads(body)["plane"]
        assert status == 200
        assert plane_stats["snapshot_seq"] == 1
        assert plane_stats["last_event_seq"] == 1

    def test_metrics_exposition(self, plane):
        _publish_two_blocks(plane)
        http_get("127.0.0.1", plane.port, "/v1/state?address=192.0.2.1")
        status, headers, body = http_get("127.0.0.1", plane.port,
                                         "/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert "serve_requests_total" in body.decode()

    def test_concurrent_publishers_install_every_seq_in_order(self, plane):
        """More publishing threads than cores, with a short switch
        interval: every ``publish`` gets its own seq, the loop installs
        them in order, and each ``wait_published`` returns once its
        snapshot (or a later one) is served."""
        threads, per_thread = 6, 40
        key = Block.parse("192.0.2.0/24").prefix
        seqs, waited, installed = [], [], []
        lock = threading.Lock()

        def producer(index):
            for step in range(per_thread):
                seq = plane.publish({key: BlockServingState(up=True)},
                                    watermark=float(index * per_thread
                                                    + step))
                ok = plane.wait_published(seq, timeout=10.0)
                served = plane.snapshot.seq
                with lock:
                    seqs.append(seq)
                    waited.append(ok)
                    installed.append(served >= seq)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=producer, args=(index,))
                       for index in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert sorted(seqs) == list(range(1, threads * per_thread + 1))
        assert all(waited) and all(installed)
        assert plane.wait_published(threads * per_thread, timeout=10.0)
        assert plane.snapshot.seq == threads * per_thread


# -- resync convergence property (satellite: event-seq protocol) -------------

class _Publisher:
    """In-memory stand-in for a bridge: fold-as-you-publish semantics.

    Mirrors :meth:`ServingPlane.publish`: every event is applied to the
    authoritative state *and* sequenced through the broker, so a
    snapshot taken at any instant has ``events_through ==
    broker.last_seq`` — the invariant snapshot-then-deltas resync
    depends on.
    """

    def __init__(self, keys, capacity):
        self.broker = EventBroker(capacity=capacity)
        self.states = {key: BlockServingState(up=True) for key in keys}
        self.snapshots = 0

    def flip(self, key, up, when):
        self.states[key] = BlockServingState(up=up, since=when)
        return self.broker.publish(
            EventSpec(kind="recovery" if up else "onset", time=when,
                      block=str(Block(V4, key, 24)), key=key),
            watermark=when, emitted_at=0.0)

    def snapshot_message(self):
        self.snapshots += 1
        return build_snapshot(
            V4, self.states, watermark=0.0, published_at=0.0,
            seq=self.snapshots, prefix_len=24,
            events_through=self.broker.last_seq).snapshot_message()

    def resync(self, client):
        """What a reconnect with ``since=client.last_seq`` delivers."""
        deltas, gap = self.broker.since(client.last_seq)
        if gap:
            client.apply(self.snapshot_message())
            return
        for event in deltas:
            client.apply(event.to_wire())


@settings(max_examples=60, deadline=None)
@given(
    n_keys=st.integers(min_value=1, max_value=4),
    flips=st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                             st.booleans()),
                   max_size=40),
    capacity=st.integers(min_value=2, max_value=8),
    drop=st.floats(min_value=0.0, max_value=0.6),
    duplicate=st.floats(min_value=0.0, max_value=0.5),
    reorder=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_resync_converges_under_any_interleaving(n_keys, flips, capacity,
                                                 drop, duplicate, reorder,
                                                 seed):
    """At-least-once + idempotent-by-seq + resync-on-gap is exact.

    Deliver the event stream through the chaos mutators (drops model
    disconnects, duplicates model re-delivery after an unacked cut,
    reordering models a hole the client must refuse to jump) and heal
    with reconnect-resyncs; the faulted client must end bit-identical
    to a fault-free one.
    """
    keys = [(0xC00002 + i) for i in range(n_keys)]
    publisher = _Publisher(keys, capacity)
    published = [publisher.flip(keys[key_idx % n_keys], up, float(i))
                 for i, (key_idx, up) in enumerate(flips)]

    reference = SubscriberState()
    faulted = SubscriberState()
    # Both clients bootstrap from the same pre-event snapshot.
    boot = build_snapshot(V4, {key: BlockServingState(up=True)
                               for key in keys},
                          watermark=0.0, published_at=0.0, seq=0,
                          prefix_len=24, events_through=0).snapshot_message()
    reference.apply(boot)
    faulted.apply(boot)
    for event in published:
        reference.apply(event.to_wire())
    publisher.resync(reference)  # no-op: already caught up
    assert reference.last_seq == publisher.broker.last_seq

    rng = np.random.default_rng(seed)
    mutated = compose(
        published,
        lambda s: drop_observations(s, drop, rng),
        lambda s: duplicate_observations(s, duplicate, rng),
        lambda s: reorder_observations(s, reorder, 10.0, rng),
    )
    for event in mutated:
        gaps_before = faulted.gaps_detected
        faulted.apply(event.to_wire())
        if faulted.gaps_detected > gaps_before:
            publisher.resync(faulted)  # client reconnects on a hole
    publisher.resync(faulted)  # final reconnect heals tail drops
    assert faulted.view() == reference.view()
