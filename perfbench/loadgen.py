"""Open-loop query load and one subscriber against a serving plane.

``OpenLoop`` sends ``GET`` requests on a fixed schedule over one
keep-alive HTTP/1.1 connection, pipelining them, and a reader thread
matches the responses in order.  The schedule never waits for the
server (open loop), and each query is timed from when it was due, so a
stall also counts against the queries queued behind it.  How late the
sender itself ran is recorded too.  ``Subscriber`` holds one WebSocket
subscription, through the program's own reference client, until the
server closes it.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from repro.net.blocks import Block
from repro.serve.client import SyncServeClient

__all__ = ["OpenLoop", "Subscriber"]

#: seconds a response may take before its query counts as failed.
RESPONSE_TIMEOUT_S = 10.0


class OpenLoop:
    """Fixed-rate queries on one pipelined keep-alive connection."""

    def __init__(self, host: str, port: int, paths: List[str],
                 rate: float) -> None:
        self.paths = paths
        self.interval = 1.0 / rate
        self._host = host
        self._sock = socket.create_connection((host, port),
                                              timeout=RESPONSE_TIMEOUT_S)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rb")
        self._inflight: "queue.Queue[Optional[Tuple[float, float]]]" = (
            queue.Queue())
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        #: ``(due, sent, received, status)`` per answered query.
        self.samples: List[Tuple[float, float, float, int]] = []
        #: queries sent but never answered (connection error or timeout).
        self.unanswered = 0

    def _request(self, path: str) -> bytes:
        return (f"GET {path} HTTP/1.1\r\nHost: {self._host}\r\n\r\n"
                .encode("latin-1"))

    def read_response(self) -> Tuple[int, bytes]:
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        status = int(line.split()[1])
        length = 0
        while True:
            header = self._file.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, self._file.read(length)

    def query(self, path: str) -> Tuple[int, bytes]:
        """One closed-loop query (only after :meth:`stop`)."""
        self._sock.sendall(self._request(path))
        return self.read_response()

    def start(self) -> None:
        origin = time.perf_counter()
        self._threads = [
            threading.Thread(target=self._send, args=(origin,), daemon=True),
            threading.Thread(target=self._receive, daemon=True)]
        for thread in self._threads:
            thread.start()

    def _send(self, origin: float) -> None:
        index = 0
        try:
            while True:
                due = origin + index * self.interval
                delay = due - time.perf_counter()
                if (self._stop.wait(delay) if delay > 0
                        else self._stop.is_set()):
                    return
                sent = time.perf_counter()
                self._sock.sendall(
                    self._request(self.paths[index % len(self.paths)]))
                self._inflight.put((due, sent))
                index += 1
        except OSError:
            return
        finally:
            self._inflight.put(None)

    def _receive(self) -> None:
        while True:
            item = self._inflight.get()
            if item is None:
                return
            try:
                status, _ = self.read_response()
            except (OSError, ValueError):
                self.unanswered += 1
                while self._inflight.get() is not None:
                    self.unanswered += 1
                return
            self.samples.append((item[0], item[1], time.perf_counter(),
                                 status))

    def stop(self) -> None:
        """Stop sending and wait for every outstanding response."""
        self._stop.set()
        for thread in self._threads:
            thread.join(RESPONSE_TIMEOUT_S + 5.0)

    def close(self) -> None:
        self._file.close()
        self._sock.close()


class Subscriber(threading.Thread):
    """One WebSocket subscription, replayed from the first event."""

    def __init__(self, host: str, port: int) -> None:
        super().__init__(daemon=True)
        self.host, self.port = host, port
        self.messages: List[Dict[str, Any]] = []
        self.error: Optional[str] = None
        #: the server ended the subscription with a close frame.
        self.closed = False

    def run(self) -> None:
        client = None
        try:
            client = SyncServeClient(self.host, self.port, since=0,
                                     timeout=RESPONSE_TIMEOUT_S)
            if not client.accepted:
                self.error = f"subscription refused ({client.status})"
                return
            client.settimeout(None)
            for message in client.messages():
                self.messages.append(message)
            self.closed = True
        except Exception as error:  # noqa: BLE001 — reported as a drop
            self.error = f"{type(error).__name__}: {error}"
        finally:
            if client is not None:
                client.close()

    def dropped(self) -> Optional[str]:
        """Why the subscription ended other than by a clean close."""
        evicted = [m for m in self.messages if m.get("type") == "evicted"]
        if evicted:
            return f"evicted: {evicted[0].get('reason')}"
        if self.error is not None:
            return self.error
        return None if self.closed else "still open"

    def transitions(self) -> Dict[int, List[Tuple[float, bool]]]:
        """Per-block ``(time, is_up)`` changes the subscriber was told of."""
        changes: Dict[int, List[Tuple[float, bool]]] = defaultdict(list)
        for message in self.messages:
            if message.get("type") == "snapshot":
                for block, up, _, since in message["blocks"]:
                    if not up and since is not None:
                        key = Block.parse(block).prefix
                        changes[key].append((float(since), False))
            elif (message.get("type") == "event"
                  and message.get("kind") in ("onset", "recovery")):
                changes[int(message["key"])].append(
                    (float(message["time"]), message["kind"] == "recovery"))
        return changes
