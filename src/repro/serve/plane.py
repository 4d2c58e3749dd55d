"""The serving plane: asyncio HTTP + WebSocket front for a live run.

One :class:`ServingPlane` owns an event loop on a dedicated thread.
Producers (the detector bridges) call :meth:`ServingPlane.publish`
from their own thread; the loop assigns event sequence numbers, swaps
the immutable snapshot reference in, and fans events out to
subscribers.  ``publish`` returns the snapshot seq it will install,
and :meth:`ServingPlane.wait_published` blocks until that snapshot is
served — the barrier for a producer that must not return before its
state is visible.  Readers never lock anything: a query handler loads
``self._snapshot`` once (a single atomic attribute read) and works on
that immutable object, so a publish mid-request is invisible rather
than torn.

Endpoints (GET):

* ``/v1/state?address=A`` — longest-prefix-match state for an address;
* ``/v1/state?prefix=P``  — every monitored block at or under a CIDR;
* ``/v1/events?since=N``  — recent events after seq N (bounded ring);
* ``/v1/subscribe[?since=N]`` — WebSocket upgrade: snapshot-then-deltas
  resync, sequence-numbered events, client acks;
* ``/ready`` — the admission gate (503 when stale or coverage-lost);
* ``/health`` — liveness document (never shed, never 503);
* ``/metrics``, ``/metrics.json`` — the run registry's expositions;
* ``/trace`` — the run tracer's Chrome trace-event document;
* ``/events`` — the run's decision-provenance explain log.

The diagnostics (``/health``, ``/metrics*``, ``/trace``, ``/events``)
render the live registry/tracer/explain objects at request time and
are never shed.  ``--obs-port`` on ``detect``/``live``/``experiment``
runs a plane that is never published to: those endpoints are all it
serves.

Robustness contract highlights: every ``/v1`` response is stamped
``{watermark, staleness_s, degraded, ...}``; per-endpoint token
buckets shed with ``503`` + deterministic jittered ``Retry-After``;
per-client outboxes are bounded and a slow consumer is *evicted*, not
buffered; ``stop(drain=True)`` closes the listener first, then lets
subscribers flush and receive a proper 1001 close frame.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)
from urllib.parse import parse_qs

from ..net.addr import Address, AddressError, Family
from ..net.blocks import Block
from ..obs.explain import EXPLAIN_FORMAT, resolve_explain
from ..obs.metrics import PROMETHEUS_CONTENT_TYPE, resolve_registry
from ..obs.tracing import resolve_tracer
from . import ws
from .admission import Admission, AdmissionConfig, ReadyGate
from .events import EventBroker, EventSpec
from .snapshot import BlockServingState, LagPolicy, ServingSnapshot, build_snapshot

__all__ = ["ServeConfig", "ServingPlane"]

_JSON = "application/json"

#: seconds a ``/health`` request waits for the run's health provider,
#: which runs off the loop thread; past it the plane answers 503 with
#: ``"provider": "timeout"``.
HEALTH_PROVIDER_TIMEOUT_S = 2.0


@dataclass
class ServeConfig:
    """Tunables for one plane instance."""

    host: str = "127.0.0.1"
    port: int = 0
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    lag: LagPolicy = field(default_factory=LagPolicy)
    ready: ReadyGate = field(default_factory=ReadyGate)
    #: events queued per subscriber before it is evicted as a slow
    #: consumer.  This bounds per-client memory; the client resyncs on
    #: reconnect via snapshot-then-deltas.
    outbox_limit: int = 256
    #: events retained for delta resync (the broker ring).
    event_capacity: int = 4096
    #: seconds granted to in-flight connections on graceful stop.
    drain_s: float = 5.0
    #: keep-alive idle timeout for plain HTTP connections.
    idle_timeout_s: float = 30.0
    #: transport write high-water mark; deliberately small so a slow
    #: subscriber backpressures into its outbox (and is judged there)
    #: instead of hiding in a fat kernel buffer.
    write_high: int = 16 * 1024


@dataclass
class _Subscription:
    """Loop-thread bookkeeping for one WebSocket subscriber."""

    id: int
    writer: asyncio.StreamWriter
    outbox: Deque[Dict[str, Any]] = field(default_factory=deque)
    wake: Optional[asyncio.Event] = None
    acked_seq: int = 0
    delivered_seq: int = 0
    closing: bool = False
    writer_task: Optional["asyncio.Task[None]"] = None
    reader_task: Optional["asyncio.Task[None]"] = None


class ServingPlane:
    """Query/subscribe service over published serving snapshots.

    Thread model: :meth:`start` spawns the loop thread; :meth:`publish`
    and :meth:`stop` are safe from any thread; everything else runs on
    the loop.  Before :meth:`start` (unit tests), :meth:`publish`
    applies synchronously in the caller's thread.  ``family`` is needed
    only to publish; ``registry``, ``tracer`` and ``explain`` default
    to the process-wide objects, the null ones unless a run installed
    its own.
    """

    def __init__(
        self,
        family: Optional[Family] = None,
        config: Optional[ServeConfig] = None,
        registry: Any = None,
        health_provider: Optional[Callable[[], Dict[str, Any]]] = None,
        tracer: Any = None,
        explain: Any = None,
    ) -> None:
        self.family = family
        self.config = config or ServeConfig()
        self.registry = resolve_registry(registry)
        self.tracer = resolve_tracer(tracer)
        self.explain = resolve_explain(explain)
        self.health_provider = health_provider
        self.admission = Admission(self.config.admission)
        self._broker = EventBroker(self.config.event_capacity)
        self._snapshot: Optional[ServingSnapshot] = None
        self._snapshot_seq = 0
        #: last seq handed out by :meth:`publish`; seqs are allocated
        #: and queued to the loop under one lock, so they install in
        #: order.
        self._publish_lock = threading.Lock()
        self._published_seq = 0
        #: notified on the loop thread after every snapshot swap.
        self._installed = threading.Condition()
        self._subs: Dict[int, _Subscription] = {}
        self._next_sub_id = 0
        self._connections = 0
        #: HTTP requests between read and response (graceful stop waits
        #: for them up to ``drain_s``).
        self._inflight = 0
        #: the health-provider call in flight, shared by concurrent
        #: ``/health`` requests so a wedged provider holds one thread.
        self._provider_call: Optional[asyncio.Future] = None
        self._evictions = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop_async: Optional[asyncio.Event] = None
        self._drain_on_stop = True
        self._start_error: Optional[BaseException] = None
        self._port: Optional[int] = None
        self._m_requests = self.registry.counter(
            "serve_requests_total", "Serving-plane requests by outcome",
            labelnames=("endpoint", "outcome"))
        self._m_shed = self.registry.counter(
            "serve_shed_total", "Requests shed by admission control",
            labelnames=("reason",))
        self._m_events = self.registry.counter(
            "serve_events_total", "Events published to the serve broker",
            labelnames=("kind",))
        self._m_snapshots = self.registry.counter(
            "serve_snapshots_published_total",
            "Serving snapshots published")
        self._m_evictions = self.registry.counter(
            "serve_evictions_total", "Slow subscribers evicted")
        self._m_subscribers = self.registry.gauge(
            "serve_subscribers", "Connected WebSocket subscribers")

    # -- lifecycle ----------------------------------------------------------

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("plane is not started")
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    @property
    def snapshot(self) -> Optional[ServingSnapshot]:
        """The currently served snapshot (immutable; any thread)."""
        return self._snapshot

    @property
    def last_event_seq(self) -> int:
        return self._broker.last_seq

    @property
    def subscriber_count(self) -> int:
        return len(self._subs)

    def start(self) -> "ServingPlane":
        if self._thread is not None:
            raise RuntimeError("plane already started")
        started = threading.Event()
        self._thread = threading.Thread(target=self._run, args=(started,),
                                        name="serve-plane", daemon=True)
        self._thread.start()
        started.wait(10.0)
        if self._start_error is not None:
            error, self._start_error = self._start_error, None
            self._thread.join(1.0)
            self._thread = None
            raise error
        if self._port is None:
            raise RuntimeError("serving plane failed to start in time")
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop serving; with ``drain`` let in-flight clients finish.

        Draining closes the listener first (no new work), flushes every
        subscriber's outbox, and sends a 1001 going-away close frame —
        the SIGTERM path an operator's rolling restart relies on.  A
        request still in flight after ``drain_s`` is cut off; a
        ``/health`` provider that never returns runs on its own daemon
        thread, which this call never joins.
        """
        thread = self._thread
        if thread is None:
            return
        self._drain_on_stop = drain
        loop = self._loop
        if loop is not None:
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(self._signal_stop)
        thread.join(self.config.drain_s + 5.0)
        self._thread = None

    def _signal_stop(self) -> None:
        if self._stop_async is not None:
            self._stop_async.set()

    def _run(self, started: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main(started))
        except BaseException as error:  # noqa: BLE001 — surfaced in start()
            self._start_error = error
        finally:
            self._loop = None
            with contextlib.suppress(Exception):
                loop.close()
            started.set()

    async def _main(self, started: threading.Event) -> None:
        self._stop_async = asyncio.Event()
        server = await asyncio.start_server(
            self._serve_client, self.config.host, self.config.port)
        self._server = server
        self._port = server.sockets[0].getsockname()[1]
        started.set()
        await self._stop_async.wait()
        server.close()
        await server.wait_closed()
        if self._drain_on_stop:
            for sub in list(self._subs.values()):
                if sub.wake is not None:
                    sub.wake.set()
            deadline = time.monotonic() + self.config.drain_s
            while ((self._subs or self._inflight)
                   and time.monotonic() < deadline):
                await asyncio.sleep(0.02)
        for sub in list(self._subs.values()):
            self._drop_subscription(sub)
        current = asyncio.current_task()
        leftovers = [task for task in asyncio.all_tasks()
                     if task is not current]
        for task in leftovers:
            task.cancel()
        if leftovers:
            await asyncio.gather(*leftovers, return_exceptions=True)

    # -- producer API -------------------------------------------------------

    def publish(
        self,
        states: Mapping[int, BlockServingState],
        *,
        watermark: float,
        lost: Optional[Mapping[int, str]] = None,
        lost_blocks: Optional[Iterable[Block]] = None,
        events: Iterable[EventSpec] = (),
    ) -> int:
        """Publish a new snapshot plus the events that produced it.

        Callable from any thread.  The tries are built here (producer
        CPU); the loop thread only assigns event sequence numbers, swaps
        the snapshot reference, and fans the events out, so publication
        never blocks the query path.  Returns the seq of the snapshot
        this call installs; the swap itself happens later on the loop
        thread, so pass the seq to :meth:`wait_published` before
        relying on :attr:`snapshot`.
        """
        if self.family is None:
            raise RuntimeError("a plane built without a family cannot "
                               "publish snapshots")
        specs = list(events)
        core = build_snapshot(
            self.family, states, watermark=watermark, published_at=0.0,
            lost=lost, lost_blocks=lost_blocks)

        def apply() -> None:
            now = time.monotonic()
            wires: List[Dict[str, Any]] = []
            for spec in specs:
                event = self._broker.publish(spec, watermark,
                                             emitted_at=now)
                self._m_events.labels(kind=event.kind).inc()
                wires.append(event.to_wire())
            with self._installed:
                self._snapshot_seq = seq
                self._snapshot = dataclasses.replace(
                    core, seq=seq, published_at=now,
                    events_through=self._broker.last_seq)
                self._installed.notify_all()
            self._m_snapshots.inc()
            for sub in list(self._subs.values()):
                for wire in wires:
                    self._enqueue(sub, wire)

        with self._publish_lock:
            self._published_seq += 1
            seq = self._published_seq
            self._call(apply)
        return seq

    def wait_published(self, seq: int, timeout: Optional[float] = None,
                       ) -> bool:
        """Block until snapshot ``seq`` (or a later one) is served.

        Call from a producer thread, never from the loop thread, which
        is the one that installs it.  Returns False if ``timeout``
        seconds pass first — a stopped loop never installs what was
        queued to it.
        """
        with self._installed:
            return self._installed.wait_for(
                lambda: self._snapshot_seq >= seq, timeout)

    def emit(self, specs: Iterable[EventSpec], watermark: float) -> None:
        """Publish events without replacing the snapshot (any thread)."""
        batch = list(specs)

        def apply() -> None:
            now = time.monotonic()
            for spec in batch:
                event = self._broker.publish(spec, watermark,
                                             emitted_at=now)
                self._m_events.labels(kind=event.kind).inc()
                wire = event.to_wire()
                for sub in list(self._subs.values()):
                    self._enqueue(sub, wire)

        self._call(apply)

    def _call(self, fn: Callable[[], None]) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(fn)
        else:
            fn()

    # -- HTTP ---------------------------------------------------------------

    async def _serve_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        self._connections += 1
        try:
            transport = writer.transport
            if transport is not None:
                transport.set_write_buffer_limits(
                    high=self.config.write_high)
            if self._connections > self.config.admission.max_connections:
                self._m_shed.labels(reason="connections").inc()
                hint = self.admission.connection_hint()
                self._write_response(
                    writer, 503,
                    self._json_body({"error": "overloaded",
                                     "reason": "connections",
                                     "retry_after_s": round(hint, 3)}),
                    _JSON, keep=False,
                    extra={"Retry-After": str(max(1, math.ceil(hint)))})
                await writer.drain()
                return
            while True:
                request = await self._read_request(reader)
                if request is None:
                    return
                method, target, headers = request
                path, _, query = target.partition("?")
                params = parse_qs(query)
                if method != "GET":
                    self._write_response(
                        writer, 405,
                        self._json_body({"error": "method not allowed"}),
                        _JSON, keep=False)
                    await writer.drain()
                    return
                if (path == "/v1/subscribe"
                        and "websocket" in headers.get("upgrade",
                                                       "").lower()):
                    await self._handle_subscribe(reader, writer, headers,
                                                 params)
                    return
                keep = (headers.get("connection", "").lower() != "close")
                self._inflight += 1
                try:
                    if path == "/health":
                        status, body, ctype, extra = (
                            await self._handle_health())
                    else:
                        status, body, ctype, extra = self._dispatch(
                            path, params)
                    self._write_response(writer, status, body, ctype,
                                         keep=keep, extra=extra)
                    await writer.drain()
                finally:
                    self._inflight -= 1
                if not keep:
                    return
        except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                ConnectionError, ws.WebSocketError):
            pass
        except asyncio.CancelledError:
            raise
        finally:
            self._connections -= 1
            with contextlib.suppress(Exception):
                writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str, Dict[str, str]]]:
        try:
            line = await asyncio.wait_for(reader.readline(),
                                          self.config.idle_timeout_s)
        except asyncio.TimeoutError:
            return None
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) != 3:
            return None
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for _ in range(100):
            raw = await asyncio.wait_for(reader.readline(), 5.0)
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return method, target, headers

    def _json_body(self, document: Dict[str, Any]) -> bytes:
        return json.dumps(document, separators=(",", ":"),
                          sort_keys=True).encode("utf-8")

    def _write_response(self, writer: asyncio.StreamWriter, status: int,
                        body: bytes, content_type: str, keep: bool = True,
                        extra: Optional[Dict[str, str]] = None) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed",
                  503: "Service Unavailable"}.get(status, "OK")
        lines = [f"HTTP/1.1 {status} {reason}",
                 f"Content-Type: {content_type}",
                 f"Content-Length: {len(body)}",
                 f"Connection: {'keep-alive' if keep else 'close'}"]
        for name, value in (extra or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                     + body)

    def _shed_response(self, endpoint: str, reason: str, hint: float,
                       ) -> Tuple[int, bytes, str, Dict[str, str]]:
        self._m_shed.labels(reason=reason).inc()
        self._m_requests.labels(endpoint=endpoint, outcome="shed").inc()
        body = self._json_body({
            "error": "overloaded", "reason": reason,
            "retry_after_s": round(hint, 3),
        })
        return 503, body, _JSON, {"Retry-After": str(max(1, math.ceil(hint)))}

    def _dispatch(self, path: str, params: Dict[str, List[str]],
                  ) -> Tuple[int, bytes, str, Dict[str, str]]:
        if path == "/metrics":
            self._m_requests.labels(endpoint=path, outcome="ok").inc()
            return (200, self.registry.to_prometheus().encode("utf-8"),
                    PROMETHEUS_CONTENT_TYPE, {})
        if path == "/metrics.json":
            self._m_requests.labels(endpoint=path, outcome="ok").inc()
            return (200, json.dumps(self.registry.snapshot(),
                                    indent=1).encode("utf-8"), _JSON, {})
        if path == "/ready":
            return self._handle_ready()
        if path == "/v1/state":
            return self._handle_state(params)
        if path == "/v1/events":
            return self._handle_events(params)
        if path == "/trace":
            self._m_requests.labels(endpoint=path, outcome="ok").inc()
            return (200, self._json_body(self.tracer.chrome_trace()),
                    _JSON, {})
        if path == "/events":
            self._m_requests.labels(endpoint=path, outcome="ok").inc()
            return 200, self._json_body({
                "format": EXPLAIN_FORMAT,
                "events": self.explain.events()}), _JSON, {}
        self._m_requests.labels(endpoint="unknown", outcome="not_found").inc()
        return (404, self._json_body(
            {"error": "not found",
             "endpoints": ["/v1/state", "/v1/events", "/v1/subscribe",
                           "/ready", "/health", "/metrics",
                           "/metrics.json", "/trace", "/events"]}),
                _JSON, {})

    async def _handle_health(self) -> Tuple[int, bytes, str,
                                            Dict[str, str]]:
        """``/health``: the run's provider document plus the plane's
        own section.  The provider runs on a daemon thread, so a slow
        or wedged one never stalls the loop; past
        :data:`HEALTH_PROVIDER_TIMEOUT_S` the answer is 503."""
        status, outcome = 200, "ok"
        if self.health_provider is None:
            base: Dict[str, Any] = {"status": "alive", "run": None}
        else:
            try:
                base = dict(await asyncio.wait_for(
                    asyncio.shield(self._call_provider()),
                    HEALTH_PROVIDER_TIMEOUT_S))
            except asyncio.TimeoutError:
                status, outcome = 503, "timeout"
                base = {"status": "unknown", "provider": "timeout"}
        self._m_requests.labels(endpoint="/health", outcome=outcome).inc()
        snapshot = self._snapshot
        base["plane"] = {
            "subscribers": len(self._subs),
            "connections": self._connections,
            "sheds": self.admission.sheds,
            "evictions": self._evictions,
            "snapshot_seq": snapshot.seq if snapshot else None,
            "watermark": snapshot.watermark if snapshot else None,
            "last_event_seq": self._broker.last_seq,
        }
        return status, self._json_body(base), _JSON, {}

    def _call_provider(self) -> "asyncio.Future[Dict[str, Any]]":
        """The in-flight provider call, starting one if none is."""
        call = self._provider_call
        if call is not None and not call.done():
            return call
        loop = asyncio.get_running_loop()
        call = self._provider_call = loop.create_future()
        provider = self.health_provider

        def settle(result: Any, error: Optional[BaseException]) -> None:
            if call.done():
                return
            if error is None:
                call.set_result(result)
            else:
                call.set_exception(error)

        def run() -> None:
            try:
                result, error = provider(), None
            except Exception as failure:  # noqa: BLE001 — raised on the loop
                result, error = None, failure
            with contextlib.suppress(RuntimeError):  # loop already closed
                loop.call_soon_threadsafe(settle, result, error)

        threading.Thread(target=run, name="serve-health-provider",
                         daemon=True).start()
        return call

    def _handle_ready(self) -> Tuple[int, bytes, str, Dict[str, str]]:
        ready, reasons = self.config.ready.evaluate(self._snapshot,
                                                    time.monotonic())
        status = 200 if ready else 503
        self._m_requests.labels(endpoint="/ready",
                                outcome="ok" if ready else "not_ready").inc()
        return (status,
                self._json_body({"ready": ready, "reasons": reasons}),
                _JSON, {} if ready else {"Retry-After": "1"})

    def _stamp_snapshot(self, endpoint: str) -> Tuple[
            Optional[ServingSnapshot], Optional[Dict[str, Any]],
            Optional[Tuple[int, bytes, str, Dict[str, str]]]]:
        """Load the snapshot and judge staleness for one query.

        Returns ``(snapshot, stamp, error_response)``; exactly one of
        ``stamp`` / ``error_response`` is set.
        """
        snapshot = self._snapshot
        if snapshot is None:
            self._m_requests.labels(endpoint=endpoint,
                                    outcome="no_snapshot").inc()
            body = self._json_body({"error": "no snapshot published yet",
                                    "degraded": "no-snapshot"})
            return None, None, (503, body, _JSON, {"Retry-After": "1"})
        staleness = max(0.0, time.monotonic() - snapshot.published_at)
        verdict = self.config.lag.judge(staleness)
        if verdict == "fail":
            self._m_requests.labels(endpoint=endpoint,
                                    outcome="stale").inc()
            body = self._json_body({
                "error": "state too stale to serve",
                "degraded": "stale",
                "staleness_s": round(staleness, 3),
                "fail_after_s": self.config.lag.fail_after_s,
            })
            return None, None, (503, body, _JSON, {"Retry-After": "1"})
        stamp = snapshot.stamp(staleness,
                               "stale" if verdict == "stale" else None)
        return snapshot, stamp, None

    def _handle_state(self, params: Dict[str, List[str]],
                      ) -> Tuple[int, bytes, str, Dict[str, str]]:
        endpoint = "/v1/state"
        admitted, hint = self.admission.admit_query(endpoint)
        if not admitted:
            return self._shed_response(endpoint, "qps", hint)
        snapshot, stamp, error = self._stamp_snapshot(endpoint)
        if error is not None:
            return error
        assert snapshot is not None and stamp is not None
        address_arg = params.get("address", [None])[0]
        prefix_arg = params.get("prefix", [None])[0]
        try:
            if address_arg:
                document = snapshot.query_address(
                    Address.parse(address_arg))
            elif prefix_arg:
                document = snapshot.query_prefix(Block.parse(prefix_arg))
            else:
                self._m_requests.labels(endpoint=endpoint,
                                        outcome="error").inc()
                return (400, self._json_body(
                    {"error": "pass ?address= or ?prefix="}), _JSON, {})
        except (AddressError, ValueError) as error_:
            self._m_requests.labels(endpoint=endpoint,
                                    outcome="error").inc()
            return (400, self._json_body({"error": str(error_)}), _JSON, {})
        # Query-level degradation (lost coverage) outranks the
        # snapshot-level staleness flag; neither is ever silent.
        document["degraded"] = document.get("degraded") or stamp["degraded"]
        document["stamp"] = stamp
        self._m_requests.labels(endpoint=endpoint, outcome="ok").inc()
        return 200, self._json_body(document), _JSON, {}

    def _handle_events(self, params: Dict[str, List[str]],
                       ) -> Tuple[int, bytes, str, Dict[str, str]]:
        endpoint = "/v1/events"
        admitted, hint = self.admission.admit_query(endpoint)
        if not admitted:
            return self._shed_response(endpoint, "qps", hint)
        snapshot, stamp, error = self._stamp_snapshot(endpoint)
        if error is not None:
            return error
        try:
            since = int(params.get("since", ["0"])[0])
        except ValueError:
            self._m_requests.labels(endpoint=endpoint, outcome="error").inc()
            return (400, self._json_body({"error": "bad ?since="}),
                    _JSON, {})
        events, gap = self._broker.since(since)
        self._m_requests.labels(endpoint=endpoint, outcome="ok").inc()
        return 200, self._json_body({
            "events": [event.to_wire() for event in events],
            "gap": gap,
            "last_seq": self._broker.last_seq,
            "degraded": stamp["degraded"],
            "stamp": stamp,
        }), _JSON, {}

    # -- WebSocket subscriptions --------------------------------------------

    async def _handle_subscribe(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter,
                                headers: Dict[str, str],
                                params: Dict[str, List[str]]) -> None:
        if len(self._subs) >= self.config.admission.max_subscribers:
            self._m_shed.labels(reason="subscribers").inc()
            hint = self.admission.connection_hint()
            self._write_response(
                writer, 503,
                self._json_body({"error": "overloaded",
                                 "reason": "subscribers",
                                 "retry_after_s": round(hint, 3)}),
                _JSON, keep=False,
                extra={"Retry-After": str(max(1, math.ceil(hint)))})
            await writer.drain()
            return
        key = headers.get("sec-websocket-key")
        if not key:
            self._write_response(
                writer, 400,
                self._json_body({"error": "missing Sec-WebSocket-Key"}),
                _JSON, keep=False)
            await writer.drain()
            return
        writer.write((
            "HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Accept: {ws.accept_key(key)}\r\n\r\n"
        ).encode("latin-1"))
        await writer.drain()

        since: Optional[int] = None
        raw_since = params.get("since", [None])[0]
        if raw_since is not None:
            try:
                since = int(raw_since)
            except ValueError:
                since = None

        self._next_sub_id += 1
        sub = _Subscription(id=self._next_sub_id, writer=writer)
        sub.wake = asyncio.Event()
        self._subs[sub.id] = sub
        self._m_subscribers.set(len(self._subs))
        # Resync plan — computed and enqueued synchronously with the
        # registration above (no await in between), so no published
        # event can fall between the resync tail and the live fan-out.
        deltas, gap = (self._broker.since(since) if since is not None
                       else ([], True))
        need_snapshot = since is None or gap
        snapshot = self._snapshot
        self._enqueue(sub, {
            "type": "hello", "client": sub.id,
            "resync": "snapshot" if need_snapshot else "delta",
            "last_seq": self._broker.last_seq,
        })
        if need_snapshot:
            if snapshot is not None:
                message = snapshot.snapshot_message()
                staleness = max(0.0,
                                time.monotonic() - snapshot.published_at)
                verdict = self.config.lag.judge(staleness)
                message["stamp"] = snapshot.stamp(
                    staleness, "stale" if verdict != "ok" else None)
                self._enqueue(sub, message)
                deltas, _ = self._broker.since(snapshot.events_through)
            else:
                deltas, _ = self._broker.since(0)
        for event in deltas:
            self._enqueue(sub, event.to_wire())
        sub.reader_task = asyncio.create_task(self._sub_reader(sub, reader))
        sub.writer_task = asyncio.create_task(self._sub_writer(sub))
        try:
            await asyncio.wait(
                {sub.reader_task, sub.writer_task},
                return_when=asyncio.FIRST_COMPLETED)
        finally:
            self._drop_subscription(sub)

    def _enqueue(self, sub: _Subscription, message: Dict[str, Any]) -> None:
        if sub.closing:
            return
        sub.outbox.append(message)
        if sub.wake is not None:
            sub.wake.set()
        if len(sub.outbox) > self.config.outbox_limit:
            self._evict(sub, "slow-consumer")

    def _evict(self, sub: _Subscription, reason: str) -> None:
        """Cut a slow consumer loose instead of buffering unboundedly."""
        if sub.closing:
            return
        sub.closing = True
        self._evictions += 1
        self._m_evictions.inc()
        asyncio.ensure_future(self._finish_eviction(sub, reason))

    async def _finish_eviction(self, sub: _Subscription,
                               reason: str) -> None:
        if sub.writer_task is not None:
            sub.writer_task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await sub.writer_task
        # Best-effort goodbye: the client's socket may be exactly what
        # is wedged, so cap the flush and close regardless.
        with contextlib.suppress(Exception):
            payload = self._json_body({
                "type": "evicted", "reason": reason,
                "delivered_seq": sub.delivered_seq,
            })
            sub.writer.write(ws.encode_frame(ws.OP_TEXT, payload))
            sub.writer.write(ws.encode_frame(
                ws.OP_CLOSE, ws.close_payload(1008, reason)))
            await asyncio.wait_for(sub.writer.drain(), 2.0)
        self._drop_subscription(sub)

    def _drop_subscription(self, sub: _Subscription) -> None:
        self._subs.pop(sub.id, None)
        self._m_subscribers.set(len(self._subs))
        for task in (sub.reader_task, sub.writer_task):
            if task is not None and not task.done():
                task.cancel()
        with contextlib.suppress(Exception):
            sub.writer.close()

    async def _sub_writer(self, sub: _Subscription) -> None:
        assert sub.wake is not None
        draining_close_sent = False
        try:
            while True:
                while sub.outbox:
                    message = sub.outbox.popleft()
                    data = self._json_body(message)
                    sub.writer.write(ws.encode_frame(ws.OP_TEXT, data))
                    await sub.writer.drain()
                    if message.get("type") == "event":
                        sub.delivered_seq = max(sub.delivered_seq,
                                                int(message["seq"]))
                if self._stopping and not sub.outbox:
                    # Graceful drain: everything flushed, say goodbye
                    # properly so the client distinguishes a rolling
                    # restart from a crash.
                    sub.writer.write(ws.encode_frame(
                        ws.OP_CLOSE, ws.close_payload(1001, "going away")))
                    await asyncio.wait_for(sub.writer.drain(), 2.0)
                    draining_close_sent = True
                    return
                sub.wake.clear()
                await sub.wake.wait()
        except (ConnectionError, asyncio.TimeoutError):
            pass
        finally:
            if draining_close_sent:
                sub.closing = True

    async def _sub_reader(self, sub: _Subscription,
                          reader: asyncio.StreamReader) -> None:
        try:
            while True:
                opcode, payload = await ws.read_frame(reader.readexactly)
                if opcode == ws.OP_CLOSE:
                    return
                if opcode == ws.OP_PING:
                    sub.writer.write(ws.encode_frame(ws.OP_PONG, payload))
                    continue
                if opcode != ws.OP_TEXT:
                    continue
                try:
                    message = json.loads(payload.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    continue
                if message.get("type") == "ack":
                    with contextlib.suppress(TypeError, ValueError):
                        sub.acked_seq = max(sub.acked_seq,
                                            int(message["seq"]))
        except (asyncio.IncompleteReadError, ConnectionError,
                ws.WebSocketError):
            return

    @property
    def _stopping(self) -> bool:
        return self._stop_async is not None and self._stop_async.is_set()
