"""Call probes: time the program's layers from outside.

A probe replaces a name with a wrapper *where the caller looks it up*:
the class attribute for a method, or the calling module's global for a
function imported with ``from module import name``.  Nothing under
``src/`` is edited, so the same probes run against any revision that
keeps the names.  A name a revision no longer has is skipped and
reported, never an error.

Wrapped calls nest per thread.  Each call adds its duration to its
layer's total and to its wrapped parent's child time, which gives
every layer a self time.  Per-record layers (``hot``) keep only these
aggregates so memory stays bounded; every other call is also kept as
a span (id, name, start, end, parent id) up to ``SPAN_CAP`` spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Probe", "resolve"]

#: individual spans kept per process; later calls are aggregated only.
SPAN_CAP = 20000

Counter = Callable[[Tuple[Any, ...], Any], float]


def resolve(target: str) -> Tuple[Any, str]:
    """``"pkg.module:Class.attr"`` -> ``(owner, "attr")``."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *owners, name = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, name


class LayerStats:
    """Aggregates of one layer's wrapped calls."""

    __slots__ = ("calls", "total", "self_time", "count")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.count = 0.0

    def as_list(self) -> List[float]:
        return [self.calls, self.total, self.self_time, self.count]


class Probe:
    """Installs timing wrappers and taps; collects spans and aggregates.

    A layer can be entered from several threads (the serving plane's
    loop thread counts metrics too), so each thread keeps its own
    aggregates, without a lock, and ``layers()`` sums them.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, Optional[int]]] = []
        self.missing: List[str] = []
        self._layers: Dict[str, None] = {}
        self._threads: List[Dict[str, LayerStats]] = []
        self._threads_lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.root = 0.0
            self._local.stats = {}
            with self._threads_lock:
                self._threads.append(self._local.stats)
        return stack

    @property
    def root_s(self) -> float:
        """The calling thread's time inside outermost wrapped calls."""
        self._stack()
        return self._local.root

    def _lookup(self, target: str) -> Optional[Tuple[Any, str, Any]]:
        try:
            owner, name = resolve(target)
            return owner, name, getattr(owner, name)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return None

    def time(self, target: str, layer: str, hot: bool = False,
             count: Optional[Counter] = None) -> None:
        """Time every call of ``target`` as part of ``layer``.

        ``count(args, result)`` adds to the layer's work count; a call
        nested directly inside the same layer is not counted again.
        """
        found = self._lookup(target)
        if found is None:
            return
        owner, name, original = found
        self._layers[layer] = None
        spans = self.spans
        ids = self._ids
        local = self._local
        stack_of = self._stack
        clock = time.perf_counter
        label = f"{layer}:{name}"

        @functools.wraps(original)
        def timed(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            parent = stack[-1] if stack else None
            frame = [layer, 0.0, None if hot else next(ids)]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats = local.stats.get(layer)
                if stats is None:
                    stats = local.stats[layer] = LayerStats()
                stats.calls += 1
                stats.total += duration
                stats.self_time += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                else:
                    local.root += duration
                if frame[2] is not None and len(spans) < SPAN_CAP:
                    spans.append((frame[2], label, start, end,
                                  parent[2] if parent is not None else None))
            if count is not None and (parent is None or parent[0] != layer):
                stats.count += count(args, result)
            return result

        setattr(owner, name, timed)

    def tap(self, target: str,
            before: Optional[Callable[[Tuple[Any, ...]], None]] = None,
            after: Optional[Callable[[Tuple[Any, ...], Any], None]] = None,
            ) -> None:
        """Call ``before(args)`` / ``after(args, result)`` around ``target``."""
        found = self._lookup(target)
        if found is None:
            return
        owner, name, original = found

        @functools.wraps(original)
        def tapped(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(args)
            result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, name, tapped)

    def layers(self) -> Dict[str, List[float]]:
        """Per layer ``[calls, total, self_time, count]`` over all threads."""
        with self._threads_lock:
            per_thread = list(self._threads)
        layers = {}
        for layer in self._layers:
            parts = [stats[layer].as_list() for stats in per_thread
                     if layer in stats]
            layers[layer] = [sum(column) for column in zip(*parts)] or [
                0, 0.0, 0.0, 0.0]
        return layers

    def chrome_trace(self) -> Dict[str, Any]:
        """The kept spans as a Chrome trace-event document."""
        pid = os.getpid()
        return {"traceEvents": [
            {"name": name, "ph": "X", "pid": pid, "tid": 0,
             "ts": start * 1e6, "dur": (end - start) * 1e6,
             "args": {"id": span_id, "parent": parent}}
            for span_id, name, start, end, parent in self.spans]}
