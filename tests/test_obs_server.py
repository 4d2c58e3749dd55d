"""The observability endpoints: one run's telemetry, served over HTTP.

``--obs-port`` runs a :class:`~repro.serve.ServingPlane` that is never
published to, so these are the plane's diagnostic endpoints: metrics,
health, trace and explain log.  Everything binds port 0 (ephemeral) on
loopback, talks stdlib ``urllib``, and tears the plane down in the
fixture — the suite must never collide with a real scrape target or
leak a listener.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.explain import EXPLAIN_FORMAT, ExplainLog
from repro.obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    SNAPSHOT_FORMAT,
    MetricsRegistry,
)
from repro.obs.tracing import SpanTracer
from repro.serve import ServeConfig, ServingPlane


@pytest.fixture()
def plane():
    """A plane over a registry/tracer/explain trio with known content."""
    registry = MetricsRegistry()
    registry.counter("runs_total", "runs").inc(3)
    registry.gauge("lag_seconds", merge="last").set(2.5)
    tracer = SpanTracer()
    with tracer.span("detect", family="ipv4"):
        pass
    explain = ExplainLog()
    explain.record({"event": "onset", "block": 0xCAFE, "time": 10.0})
    server = ServingPlane(config=ServeConfig(port=0), registry=registry,
                          tracer=tracer, explain=explain).start()
    try:
        yield server, registry, tracer, explain
    finally:
        server.stop()


def fetch(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as response:
        return response.status, response.headers, response.read().decode()


def health(server):
    """The ``/health`` document without the plane's own section."""
    _, _, body = fetch(server, "/health")
    document = json.loads(body)
    assert document.pop("plane")["snapshot_seq"] is None  # never published
    return document


def port_is_free(port):
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind(("127.0.0.1", port))
    finally:
        probe.close()


class TestEndpoints:
    def test_metrics_is_prometheus_text(self, plane):
        server, _, _, _ = plane
        status, headers, body = fetch(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        assert "runs_total 3" in body
        assert "lag_seconds 2.5" in body

    def test_metrics_json_is_the_snapshot_document(self, plane):
        server, _, _, _ = plane
        _, _, body = fetch(server, "/metrics.json")
        document = json.loads(body)
        assert document["format"] == SNAPSHOT_FORMAT
        names = [entry["name"] for entry in document["metrics"]]
        assert "runs_total" in names

    def test_trace_is_the_chrome_document(self, plane):
        server, _, tracer, _ = plane
        _, _, body = fetch(server, "/trace")
        document = json.loads(body)
        assert document["metadata"]["trace_id"] == tracer.trace_id
        assert [e["name"] for e in document["traceEvents"]] == ["detect"]

    def test_events_is_the_explain_log(self, plane):
        server, _, _, explain = plane
        _, _, body = fetch(server, "/events")
        document = json.loads(body)
        assert document["format"] == EXPLAIN_FORMAT
        assert document["events"] == explain.events()

    def test_health_defaults_to_process_liveness(self, plane):
        server, _, _, _ = plane
        assert health(server) == {"status": "alive", "run": None}

    def test_health_provider_hook(self, plane):
        server, _, _, _ = plane
        server.health_provider = lambda: {"status": "running",
                                          "partitions": [{"index": 0}]}
        assert health(server)["partitions"] == [{"index": 0}]

    def test_unknown_path_is_404_with_directions(self, plane):
        server, _, _, _ = plane
        with pytest.raises(urllib.error.HTTPError) as info:
            fetch(server, "/nope")
        assert info.value.code == 404
        endpoints = json.loads(info.value.read().decode())["endpoints"]
        assert {"/metrics", "/metrics.json", "/health", "/trace",
                "/events"} <= set(endpoints)

    def test_query_strings_ignored(self, plane):
        server, _, _, _ = plane
        status, _, _ = fetch(server, "/metrics?foo=bar")
        assert status == 200


class TestScrapeTelemetry:
    def test_requests_fold_into_the_served_registry(self, plane):
        server, registry, _, _ = plane
        fetch(server, "/metrics")
        fetch(server, "/metrics")
        fetch(server, "/health")
        fetch(server, "/trace")
        try:
            fetch(server, "/nope")
        except urllib.error.HTTPError:
            pass

        def served(endpoint, outcome="ok"):
            return registry.value("serve_requests_total",
                                  endpoint=endpoint, outcome=outcome)

        assert served("/metrics") >= 2
        assert served("/health") == 1
        assert served("/trace") == 1
        assert served("unknown", "not_found") == 1
        # And the counter is itself visible on the next scrape.
        _, _, body = fetch(server, "/metrics")
        assert ('serve_requests_total{endpoint="/metrics",outcome="ok"}'
                in body)


class TestLiveness:
    def test_scrape_observes_live_state_not_a_copy(self, plane):
        server, registry, _, explain = plane
        registry.get("runs_total").inc(7)
        explain.record({"event": "recovery", "block": 0xCAFE, "time": 20.0})
        _, _, metrics = fetch(server, "/metrics")
        assert "runs_total 10" in metrics
        _, _, events = fetch(server, "/events")
        assert len(json.loads(events)["events"]) == 2

    def test_concurrent_scrapes(self, plane):
        server, _, _, _ = plane
        errors = []

        def scrape():
            try:
                for _ in range(5):
                    status, _, _ = fetch(server, "/metrics")
                    assert status == 200
            except Exception as error:  # pragma: no cover — the assert
                errors.append(error)

        threads = [threading.Thread(target=scrape) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_ephemeral_port_reported(self, plane):
        server, _, _, _ = plane
        assert server.port > 0
        assert str(server.port) in server.url

    def test_stop_releases_the_listener(self):
        server = ServingPlane(config=ServeConfig(port=0)).start()
        url, port = server.url, server.port
        server.stop()
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url + "/health", timeout=0.5)
        port_is_free(port)

    def test_defaults_serve_null_objects(self):
        server = ServingPlane(config=ServeConfig(port=0)).start()
        try:
            _, _, body = fetch(server, "/metrics.json")
            assert json.loads(body)["metrics"] == []
            _, _, body = fetch(server, "/events")
            assert json.loads(body)["events"] == []
            _, _, body = fetch(server, "/trace")
            assert json.loads(body)["traceEvents"] == []
        finally:
            server.stop()

    def test_publish_needs_a_family(self):
        with pytest.raises(RuntimeError, match="family"):
            ServingPlane().publish({}, watermark=0.0)


class TestGracefulDrain:
    def test_stop_waits_for_inflight_scrape(self):
        """A scrape that already entered the handler completes during stop.

        The health provider blocks until released; stop() runs on
        another thread while the scrape is mid-render.  The contract:
        the scrape still returns 200 with a full body (the socket is
        not yanked) and the port is released on return.
        """
        entered = threading.Event()
        release = threading.Event()

        def slow_health():
            entered.set()
            assert release.wait(timeout=10)
            return {"status": "draining-test", "run": None}

        server = ServingPlane(config=ServeConfig(port=0),
                              health_provider=slow_health).start()
        port = server.port
        result = {}

        def scrape():
            result["response"] = fetch(server, "/health")

        scraper = threading.Thread(target=scrape)
        scraper.start()
        assert entered.wait(timeout=10)

        stopper = threading.Thread(target=server.stop)
        stopper.start()
        # stop() must not return while the scrape is still in flight.
        time.sleep(0.2)
        assert stopper.is_alive()
        release.set()
        stopper.join(timeout=10)
        assert not stopper.is_alive()
        scraper.join(timeout=10)

        status, _, body = result["response"]
        assert status == 200
        assert json.loads(body)["status"] == "draining-test"
        port_is_free(port)

    def test_stop_drain_deadline_is_bounded(self):
        """A scrape wedged past the deadline cannot hang stop() forever."""
        entered = threading.Event()
        release = threading.Event()

        def wedged_health():
            entered.set()
            release.wait(timeout=30)
            return {"status": "late", "run": None}

        server = ServingPlane(config=ServeConfig(port=0, drain_s=0.3),
                              health_provider=wedged_health).start()

        def scrape():
            try:
                fetch(server, "/health")
            except Exception:
                pass  # the wedged scrape may lose its socket; that's the deal

        scraper = threading.Thread(target=scrape, daemon=True)
        scraper.start()
        assert entered.wait(timeout=10)
        began = time.monotonic()
        server.stop()
        assert time.monotonic() - began < server.config.drain_s + 1.0
        release.set()
        scraper.join(timeout=10)

    def test_wedged_health_provider_leaves_other_endpoints_answering(
            self):
        """The provider runs off the loop thread: while it is wedged,
        ``/v1/state`` and ``/metrics`` answer within a second, ``/health``
        answers 503 past its deadline, and stop() does not wait for the
        provider."""
        from repro.serve.plane import HEALTH_PROVIDER_TIMEOUT_S

        entered = threading.Event()
        release = threading.Event()

        def wedged_health():
            entered.set()
            release.wait(timeout=30)
            return {"status": "late", "run": None}

        server = ServingPlane(config=ServeConfig(port=0, drain_s=0.3),
                              health_provider=wedged_health).start()
        result = {}

        def scrape():
            try:
                fetch(server, "/health")
            except urllib.error.HTTPError as error:
                result["status"] = error.code
                result["body"] = json.loads(error.read().decode())

        scraper = threading.Thread(target=scrape, daemon=True)
        try:
            scraper.start()
            assert entered.wait(timeout=10)
            for path in ("/v1/state?address=10.0.0.1", "/metrics"):
                began = time.monotonic()
                try:
                    fetch(server, path)
                except urllib.error.HTTPError:
                    pass  # no snapshot published yet: 503 is an answer
                assert time.monotonic() - began < 1.0, path
            scraper.join(timeout=HEALTH_PROVIDER_TIMEOUT_S + 5)
            assert result["status"] == 503
            assert result["body"]["provider"] == "timeout"
            assert "plane" in result["body"]
            began = time.monotonic()
            server.stop()
            assert time.monotonic() - began < server.config.drain_s + 1.0
        finally:
            release.set()
            server.stop()
