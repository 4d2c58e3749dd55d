"""Serve-chaos suite: the degradation contract under real faults.

Each scenario breaks one leg of the serving plane's environment and
asserts the *specific* degraded behaviour the contract promises — no
silent staleness, no fabricated state, no unbounded buffering:

* a subscriber that stops reading is evicted (bounded outbox), and its
  snapshot-then-deltas resync reconstructs a bit-identical replica;
* overload sheds with 503 + deterministic ``Retry-After`` while the
  observability endpoints stay reachable;
* a stalled detector starves publication, so responses degrade to
  ``stale`` (then 503 past the hard bound) and ``/ready`` trips;
* SIGTERM drains: subscribers get a proper close, the process exits 0.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.core.detector import StreamingDetector
from repro.core.serialize import load_model
from repro.live import LiveBlockEngine
from repro.net.blocks import Block
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    AdmissionConfig,
    BlockServingState,
    EngineBridge,
    EventSpec,
    LagPolicy,
    ReadyGate,
    ServeConfig,
    ServingPlane,
    SubscriberState,
    SyncServeClient,
)
from repro.serve import ws
from repro.serve.client import http_get
from repro.telescope.capture import CaptureReader

pytestmark = pytest.mark.faults

DAY = 86400.0
V4 = Block.parse("0.0.0.0/0").family


@pytest.fixture(scope="module")
def live_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve_chaos")
    capture = str(root / "capture.pobs")
    model_path = str(root / "model.json")
    assert main(["simulate", "--blocks", "24", "--days", "2",
                 "--seed", "7", "--out", capture]) == 0
    assert main(["train", capture, "--train-end", str(DAY),
                 "--out", model_path]) == 0
    return capture, model_path, load_model(model_path)


def start_plane(**overrides):
    registry = MetricsRegistry()
    config = ServeConfig(port=0, **overrides)
    plane = ServingPlane(V4, config, registry=registry)
    plane.start()
    return plane, registry


def wait_for(predicate, timeout=15.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class _Flipper:
    """Test-side publisher: fold-as-you-publish, like the bridges.

    ``flip`` returns the snapshot seq; a caller that reads plane state
    next waits on it first (``settled``)."""

    def __init__(self, plane, keys):
        self.plane = plane
        self.states = {key: BlockServingState(up=True) for key in keys}
        self.count = 0

    def flip(self, key, up, pad=0):
        self.count += 1
        when = float(self.count)
        self.states[key] = BlockServingState(up=up, since=when)
        detail = {"pad": "x" * pad} if pad else {}
        return self.plane.publish(
            dict(self.states), watermark=when,
            events=[EventSpec(kind="recovery" if up else "onset",
                              time=when, block=str(Block(V4, key, 24)),
                              key=key, detail=detail)])

    def settled(self, key, up):
        """``flip``, then wait until the plane serves the result."""
        assert self.plane.wait_published(self.flip(key, up), timeout=10.0)


class TestSlowConsumerEviction:
    def test_evicted_then_resynced_replica_is_bit_identical(self):
        """A wedged subscriber is evicted, not buffered; resync is exact.

        The victim connects, applies the initial snapshot, then stops
        reading while the publisher floods large events.  The bounded
        outbox must evict it (memory stays bounded).  The victim then
        drains whatever was in flight, reconnects with
        ``since=last_seq``, and catches up — its replica must be
        bit-identical to a fresh subscriber's pure-snapshot view.
        """
        plane, registry = start_plane(outbox_limit=8, write_high=1024)
        keys = [0xC00002 + i for i in range(4)]
        try:
            flipper = _Flipper(plane, keys)
            flipper.settled(keys[0], False)
            victim_state = SubscriberState()
            victim = SyncServeClient("127.0.0.1", plane.port)
            assert victim.accepted
            assert victim.recv_message()["type"] == "hello"
            assert victim_state.apply(victim.recv_message())  # snapshot

            # Victim stops reading; flood until the plane cuts it loose.
            evicted = lambda: (registry.value("serve_evictions_total")
                               or 0) >= 1
            floods = 0
            while not evicted() and floods < 600:
                flipper.flip(keys[floods % len(keys)], bool(floods % 2),
                             pad=65536)
                floods += 1
                if floods % 16 == 0:
                    time.sleep(0.01)  # let the writer task judge the box
            assert wait_for(evicted), \
                f"no eviction after {floods} flood events"
            assert wait_for(lambda: plane.subscriber_count == 0)

            # Drain the victim's in-flight tail (ordered, contiguous).
            victim.settimeout(5.0)
            saw_evicted_frame = False
            try:
                while True:
                    message = victim.recv_message()
                    if message is None:
                        break
                    if message.get("type") == "evicted":
                        saw_evicted_frame = True
                        assert message["reason"] == "slow-consumer"
                        break
                    victim_state.apply(message)
            except (ws.WebSocketError, OSError, socket.timeout):
                pass  # a hard cut is within the eviction contract
            victim.close()
            assert victim_state.gaps_detected == 0

            # Resync from the last applied seq; heal to the live head.
            target = plane.last_event_seq
            with SyncServeClient("127.0.0.1", plane.port,
                                 since=victim_state.last_seq) as again:
                assert again.accepted
                again.recv_message()  # hello
                again.settimeout(10.0)
                while victim_state.last_seq < target:
                    message = again.recv_message()
                    assert message is not None
                    victim_state.apply(message)
                again.ack(victim_state.last_seq)

            # A fresh subscriber's pure-snapshot replica is the truth.
            fresh_state = SubscriberState()
            with SyncServeClient("127.0.0.1", plane.port) as fresh:
                fresh.recv_message()  # hello
                assert fresh_state.apply(fresh.recv_message())
            assert fresh_state.last_seq == target
            assert victim_state.view() == fresh_state.view()
            assert victim_state.gaps_detected == 0
            assert saw_evicted_frame or floods > 0  # goodbye is best-effort
        finally:
            plane.stop(drain=False)


class TestOverloadShedding:
    def test_sheds_queries_but_never_observability(self):
        plane, registry = start_plane(
            admission=AdmissionConfig(shed_qps=5.0, shed_burst=3.0,
                                      retry_base_s=2.0, salt="chaos"))
        try:
            _Flipper(plane, [0xC00002]).settled(0xC00002, False)
            outcomes = []
            for _ in range(40):
                status, headers, body = http_get(
                    "127.0.0.1", plane.port, "/v1/state?address=192.0.2.1")
                outcomes.append((status, headers, body))
            statuses = [status for status, _, _ in outcomes]
            assert 200 in statuses, "admission must not starve everything"
            sheds = [(headers, body) for status, headers, body in outcomes
                     if status == 503]
            assert sheds, "40 back-to-back queries at 5 qps must shed"
            for headers, body in sheds:
                document = json.loads(body)
                assert document["error"] == "overloaded"
                assert document["reason"] == "qps"
                # Deterministic jitter: hints live in [base/2, base]
                # plus the bucket wait — never zero, never silent.
                assert document["retry_after_s"] > 0
                assert int(headers["retry-after"]) >= 1
            assert registry.value("serve_shed_total",
                                  reason="qps") == len(sheds)
            # The observability endpoints are never shed: an operator
            # diagnosing the overload must still see it.
            for path in ("/health", "/ready", "/metrics", "/metrics.json"):
                status, _, _ = http_get("127.0.0.1", plane.port, path)
                assert status in (200, 503) if path == "/ready" \
                    else status == 200
                if path == "/metrics":
                    assert status == 200
        finally:
            plane.stop(drain=False)

    def test_subscription_ceiling_rejects_with_hint(self):
        plane, registry = start_plane(
            admission=AdmissionConfig(max_subscribers=1, salt="chaos"))
        try:
            _Flipper(plane, [0xC00002]).settled(0xC00002, False)
            first = SyncServeClient("127.0.0.1", plane.port)
            assert first.accepted
            assert first.recv_message()["type"] == "hello"
            second = SyncServeClient("127.0.0.1", plane.port)
            assert not second.accepted
            assert second.status == 503
            assert int(second.headers["retry-after"]) >= 1
            rejection = json.loads(second.reject_body)
            assert rejection["reason"] == "subscribers"
            assert registry.value("serve_shed_total",
                                  reason="subscribers") == 1
            first.close()
            # The slot frees up: a later subscriber is admitted.
            assert wait_for(lambda: plane.subscriber_count == 0)
            third = SyncServeClient("127.0.0.1", plane.port)
            assert third.accepted
            third.close()
        finally:
            plane.stop(drain=False)


class TestDetectorStall:
    def test_stall_degrades_to_stale_then_fails_closed(self, live_setup):
        """Publication is progress-driven; a stalled engine cannot hide.

        The bridge republishes only on progress, so when the stream
        stops the served snapshot ages honestly: responses degrade to
        ``stale`` past the soft bound, ``/ready`` trips, and past the
        hard bound queries fail closed with 503 — last-known state is
        never passed off as fresh.
        """
        capture, _, model = live_setup
        plane, _ = start_plane(lag=LagPolicy(stale_after_s=0.4,
                                             fail_after_s=1.2),
                               ready=ReadyGate(max_lag_s=0.4))
        try:
            detector = StreamingDetector(model.family, model.histories,
                                         model.parameters, model.train_end)
            engine = LiveBlockEngine(detector)
            bridge = EngineBridge(engine, plane,
                                  publish_min_interval_s=0.0)
            fed = 0
            with CaptureReader(capture) as reader:
                for observation in reader:
                    if observation.time < detector.start:
                        continue
                    engine.feed(observation)
                    fed += 1
                    if fed >= 20000:
                        break
            # A forced step returns only once its snapshot is served.
            assert bridge.step(force=True)
            seq = plane.snapshot.seq

            # The stream stalls: repeated steps see no progress and
            # must NOT republish (that would mask the stall).
            for _ in range(10):
                assert not bridge.step()
            assert plane.snapshot.seq == seq

            status, _, body = http_get("127.0.0.1", plane.port,
                                       "/v1/state?prefix=0.0.0.0/0")
            assert status == 200
            assert json.loads(body)["stamp"]["degraded"] is None
            status, _, _ = http_get("127.0.0.1", plane.port, "/ready")
            assert status == 200

            time.sleep(0.6)  # past stale_after_s, inside fail_after_s
            assert not bridge.step()  # still no progress, still honest
            status, _, body = http_get("127.0.0.1", plane.port,
                                       "/v1/state?prefix=0.0.0.0/0")
            assert status == 200
            document = json.loads(body)
            assert document["stamp"]["degraded"] == "stale"
            assert document["stamp"]["staleness_s"] > 0.4
            status, _, body = http_get("127.0.0.1", plane.port, "/ready")
            assert status == 503
            assert any("stale" in reason
                       for reason in json.loads(body)["reasons"])

            time.sleep(0.8)  # now past the 1.2 s hard bound
            status, headers, body = http_get(
                "127.0.0.1", plane.port, "/v1/state?prefix=0.0.0.0/0")
            assert status == 503
            assert json.loads(body)["degraded"] == "stale"
            assert "retry-after" in headers

            # Progress resumes -> fresh publication -> healthy again.
            bridge.step(force=True)
            status, _, body = http_get("127.0.0.1", plane.port,
                                       "/v1/state?prefix=0.0.0.0/0")
            assert status == 200
            assert json.loads(body)["stamp"]["degraded"] is None
        finally:
            plane.stop(drain=False)


class TestSigtermDraining:
    def test_cli_serve_drains_subscribers_and_exits_zero(self, live_setup):
        capture, model_path, _ = live_setup
        run = [sys.executable, "-c",
               "import sys; from repro.cli import main; "
               "sys.exit(main(sys.argv[1:]))"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))), "src"),
             env.get("PYTHONPATH", "")])
        server = subprocess.Popen(
            run + ["serve", capture, "--model", model_path, "--port", "0",
                   "--max-clients", "16", "--max-lag-s", "3600",
                   "--shed-qps", "0", "--linger-s", "-1"],
            stderr=subprocess.PIPE, text=True, env=env)
        stderr_lines = []

        def drain_stderr():
            for line in server.stderr:
                stderr_lines.append(line)

        reader = threading.Thread(target=drain_stderr, daemon=True)
        reader.start()
        try:
            url = None
            deadline = time.monotonic() + 60.0
            while url is None and time.monotonic() < deadline:
                for line in stderr_lines:
                    if line.startswith("serving plane: "):
                        url = line.split(": ", 1)[1].strip()
                        break
                else:
                    assert server.poll() is None, "".join(stderr_lines)
                    time.sleep(0.05)
            assert url is not None, "serve never announced its URL"
            port = int(url.rsplit(":", 1)[1])

            def is_ready():
                try:
                    status, _, _ = http_get("127.0.0.1", port, "/ready")
                except OSError:
                    return False
                return status == 200

            assert wait_for(is_ready, timeout=120.0, interval=0.2), \
                "/ready never flipped: " + "".join(stderr_lines[-10:])

            state = SubscriberState()
            with SyncServeClient("127.0.0.1", port, timeout=30.0) as client:
                assert client.accepted
                assert client.recv_message()["type"] == "hello"
                assert state.apply(client.recv_message())
                assert state.blocks  # replica holds the replayed view
                server.send_signal(signal.SIGTERM)
                # Drain contract: remaining messages flush, then a
                # proper close — recv returns None, never a cut socket.
                while True:
                    message = client.recv_message()
                    if message is None:
                        break
                    state.apply(message)
            assert state.gaps_detected == 0
        except Exception:
            server.kill()
            raise
        finally:
            code = server.wait(timeout=60)
            reader.join(timeout=10)
        assert code == 0, f"exit {code}: " + "".join(stderr_lines[-15:])
        assert any("stopping cleanly" in line for line in stderr_lines)
