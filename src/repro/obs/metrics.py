"""Dependency-free metrics: counters, gauges, histograms, one registry.

The detector is an always-on service at the ROADMAP's target scale, and
an always-on service whose internals are invisible cannot be operated:
"the monitor is slow" must decompose into ingest lag, per-stage
latency, belief-update throughput, and quarantine churn *without*
attaching a debugger to production.  This module is the vocabulary for
that: a Prometheus-style metrics registry with zero dependencies beyond
the standard library, importable from every layer of the package
(including the ingest side, which must never import the analysis core).

Three metric types, all thread-safe:

* :class:`Counter` — monotone, cumulative (``records_admitted_total``);
* :class:`Gauge` — last-value, may go down (``reorder_buffer_occupancy``);
* :class:`Histogram` — fixed log-spaced buckets plus streaming summary
  statistics (sum, count, min, max) from which quantiles are estimated
  by interpolation, so latency distributions cost O(buckets) memory no
  matter how many observations land.

Metrics are owned by a :class:`MetricsRegistry` and addressed by name
plus optional labels (``belief_updates_total{family="ipv4"}``), with
one child per distinct label combination.  The registry snapshots to a
deterministic JSON document (:meth:`MetricsRegistry.snapshot`), renders
the Prometheus text exposition format (:meth:`MetricsRegistry.
to_prometheus`), and *restores* from a snapshot bit-for-bit
(:meth:`MetricsRegistry.restore`) — which is what lets cumulative
counters ride inside a streaming-detector checkpoint and survive
kill-and-resume.

Instrumentation must cost nothing when unwanted: :data:`NULL_REGISTRY`
is a no-op registry with the same construction API, and every
instrumented hot path either holds a no-op child (method calls that do
nothing) or branches on ``registry.enabled`` before touching a clock.
The benchmark suite pins the no-op overhead of the vectorised belief
pass below noise.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "resolve_registry",
    "log_spaced_buckets",
    "DEFAULT_SECONDS_BUCKETS",
    "render_snapshot",
    "SNAPSHOT_FORMAT",
    "GAUGE_MERGE_POLICIES",
    "diff_snapshots",
    "PROMETHEUS_CONTENT_TYPE",
]

SNAPSHOT_FORMAT = "repro-metrics-v1"

#: Content type the Prometheus scraper expects for :meth:`to_prometheus`.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: How a gauge series folds when another process's snapshot merges in.
#:
#: ``max`` — high-watermark gauges (peak occupancy, furthest watermark):
#: the largest reading from any process is the one an operator wants,
#: and it is the only fold independent of merge order.  ``last`` —
#: freshness gauges (watermark *lag*, clock readings): the most recently
#: delivered value wins, because an old high reading going *down* is
#: exactly the news the gauge exists to carry.
GAUGE_MERGE_POLICIES = ("max", "last")

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def log_spaced_buckets(minimum: float = 1e-6, maximum: float = 1e3,
                       per_decade: int = 3) -> Tuple[float, ...]:
    """Fixed log-spaced histogram bucket upper bounds.

    ``per_decade`` bounds per factor of ten, from ``minimum`` up to and
    including the first bound at or above ``maximum``; rounded to four
    significant digits so the exposition format stays readable.
    """
    if minimum <= 0 or maximum <= minimum:
        raise ValueError("need 0 < minimum < maximum")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    bounds: List[float] = []
    step = int(round(math.log10(minimum) * per_decade))
    while True:
        value = float(f"{10.0 ** (step / per_decade):.4g}")
        bounds.append(value)
        if value >= maximum:
            return tuple(bounds)
        step += 1


#: Default buckets for wall-clock timings: 1µs .. 1000s, 3 per decade.
DEFAULT_SECONDS_BUCKETS = log_spaced_buckets(1e-6, 1e3, 3)


def _quantile_from_buckets(bounds: Sequence[float],
                           bucket_counts: Sequence[int], quantile: float,
                           minimum: Optional[float],
                           maximum: Optional[float]) -> float:
    """Estimate a quantile from cumulative histogram buckets.

    Linear interpolation inside the bucket that crosses the target rank
    (the ``histogram_quantile`` estimate), clamped to the observed
    min/max so a sparse histogram cannot report values outside the data.
    """
    total = sum(bucket_counts)
    if total == 0:
        return float("nan")
    if not 0.0 <= quantile <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    target = quantile * total
    cumulative = 0
    for index, count in enumerate(bucket_counts):
        cumulative += count
        if cumulative >= target and count > 0:
            upper = (bounds[index] if index < len(bounds)
                     else (maximum if maximum is not None else bounds[-1]))
            lower = bounds[index - 1] if index > 0 else 0.0
            fraction = (target - (cumulative - count)) / count
            estimate = lower + (upper - lower) * fraction
            if minimum is not None:
                estimate = max(estimate, minimum)
            if maximum is not None:
                estimate = min(estimate, maximum)
            return estimate
    return maximum if maximum is not None else float(bounds[-1])


class Counter:
    """Monotone cumulative count.  Negative increments are refused."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Last-value metric; may move in both directions."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value: float = 0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    def set_to_max(self, value: float) -> None:
        """High-watermark update: keep the larger of current and value."""
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> float:
        return self._value


class _HistogramTimer:
    """Context manager observing its own wall-clock duration."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: "Histogram") -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class Histogram:
    """Fixed-bucket histogram with streaming summary statistics.

    Buckets are *upper bounds* with Prometheus ``le`` semantics (a value
    lands in the first bucket whose bound is >= it; anything above the
    last bound lands in the implicit ``+Inf`` bucket).  Quantiles are
    estimated from the bucket counts by linear interpolation, clamped to
    the observed min/max.
    """

    __slots__ = ("_lock", "bounds", "_bucket_counts", "_sum", "_count",
                 "_min", "_max")

    def __init__(self, lock: threading.RLock,
                 bounds: Sequence[float]) -> None:
        cleaned = tuple(float(b) for b in bounds)
        if not cleaned or any(not math.isfinite(b) for b in cleaned):
            raise ValueError("histogram bounds must be finite and non-empty")
        if list(cleaned) != sorted(set(cleaned)):
            raise ValueError("histogram bounds must be strictly increasing")
        self._lock = lock
        self.bounds = cleaned
        self._bucket_counts: List[int] = [0] * (len(cleaned) + 1)
        self._sum = 0.0
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        # ``bisect_left`` gives exact Prometheus ``le`` semantics for
        # finite values (an observation exactly on a bound belongs to
        # that bound's bucket).  NaN is the one value it misroutes:
        # every comparison is False, so bisect_left returns 0 and the
        # poison lands in the *smallest* bucket.  Route it to +Inf
        # instead (the only bucket whose ``le`` contract it satisfies
        # vacuously) and keep it out of sum/min/max, where a single
        # NaN would irreversibly poison the streaming statistics.
        if math.isnan(value):
            with self._lock:
                self._bucket_counts[-1] += 1
                self._count += 1
            return
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._bucket_counts[index] += 1
            self._sum += value
            self._count += 1
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def time(self) -> _HistogramTimer:
        return _HistogramTimer(self)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def minimum(self) -> Optional[float]:
        return self._min

    @property
    def maximum(self) -> Optional[float]:
        return self._max

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else float("nan")

    def bucket_counts(self) -> List[int]:
        """Per-bucket (non-cumulative) counts, ``+Inf`` bucket last."""
        return list(self._bucket_counts)

    def cumulative_counts(self) -> List[int]:
        """Cumulative counts per bound (``le`` semantics), +Inf last."""
        out: List[int] = []
        running = 0
        for count in self._bucket_counts:
            running += count
            out.append(running)
        return out

    def quantile(self, quantile: float) -> float:
        return _quantile_from_buckets(self.bounds, self._bucket_counts,
                                      quantile, self._min, self._max)


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge}


class MetricFamily:
    """One named metric and its labelled children.

    ``labels(**values)`` returns (creating on first use) the child for
    one label combination; a family declared without label names has a
    single default child and proxies the child API (``inc``, ``set``,
    ``observe``, ...) directly, so unlabelled metrics read naturally::

        registry.counter("runs_total").inc()
        registry.counter("hits_total", labelnames=("kind",)) \\
                .labels(kind="exact").inc()
    """

    def __init__(self, name: str, kind: str, help_text: str,
                 labelnames: Tuple[str, ...],
                 lock: threading.RLock,
                 buckets: Optional[Tuple[float, ...]] = None,
                 merge: Optional[str] = None) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames = labelnames
        self.buckets = buckets
        #: Gauge fold policy (see :data:`GAUGE_MERGE_POLICIES`); gauges
        #: default to ``max``, other kinds have a fixed additive fold.
        self.merge = (merge or "max") if kind == "gauge" else None
        self._lock = lock
        self._children: Dict[Tuple[str, ...], Any] = {}

    def _make_child(self) -> Any:
        if self.kind == "histogram":
            return Histogram(self._lock, self.buckets or
                             DEFAULT_SECONDS_BUCKETS)
        return _CHILD_TYPES[self.kind](self._lock)

    def labels(self, **labelvalues: Any) -> Any:
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}")
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def _default(self) -> Any:
        if self.labelnames:
            raise ValueError(
                f"metric {self.name} is labelled {self.labelnames}; "
                f"address a child via .labels(...)")
        return self.labels()

    # -- unlabelled proxies -------------------------------------------------

    def inc(self, amount: float = 1) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1) -> None:
        self._default().dec(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def set_to_max(self, value: float) -> None:
        self._default().set_to_max(value)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def time(self) -> _HistogramTimer:
        return self._default().time()

    @property
    def value(self) -> float:
        return self._default().value

    def quantile(self, quantile: float) -> float:
        return self._default().quantile(quantile)

    def series(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """(label values, child) pairs, sorted for determinism."""
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """Thread-safe registry of named metric families.

    Registering the same name twice returns the existing family (the
    first help string wins) provided type, label names, and buckets
    agree; a conflicting re-registration raises :class:`ValueError`
    rather than silently forking the series.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: Dict[str, MetricFamily] = {}

    # -- registration -------------------------------------------------------

    def _register(self, name: str, kind: str, help_text: str,
                  labelnames: Iterable[str],
                  buckets: Optional[Sequence[float]] = None,
                  merge: Optional[str] = None) -> MetricFamily:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        names = tuple(str(label) for label in labelnames)
        for label in names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        if merge is not None and merge not in GAUGE_MERGE_POLICIES:
            raise ValueError(
                f"unknown gauge merge policy {merge!r}; "
                f"expected one of {GAUGE_MERGE_POLICIES}")
        bounds = (tuple(float(b) for b in buckets)
                  if buckets is not None else None)
        if bounds is not None:
            # Fail at registration, not at first observation: children
            # are created lazily and a bad bucket spec should not hide
            # until the hot path touches it.
            if not bounds or any(not math.isfinite(b) for b in bounds):
                raise ValueError(
                    "histogram bounds must be finite and non-empty")
            if list(bounds) != sorted(set(bounds)):
                raise ValueError(
                    "histogram bounds must be strictly increasing")
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != names or (
                        bounds is not None and family.buckets != bounds) or (
                        merge is not None and family.merge != merge):
                    raise ValueError(
                        f"metric {name} already registered as "
                        f"{family.kind}{family.labelnames}; cannot "
                        f"re-register as {kind}{names}")
                return family
            family = MetricFamily(name, kind, help_text, names, self._lock,
                                  bounds, merge)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "",
                labelnames: Iterable[str] = ()) -> MetricFamily:
        return self._register(name, "counter", help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Iterable[str] = (),
              merge: Optional[str] = None) -> MetricFamily:
        return self._register(name, "gauge", help_text, labelnames,
                              merge=merge)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Iterable[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> MetricFamily:
        return self._register(name, "histogram", help_text, labelnames,
                              buckets or DEFAULT_SECONDS_BUCKETS)

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    def value(self, name: str, **labels: Any) -> Optional[float]:
        """Current value of one counter/gauge series, or None.

        Strictly read-only: unlike ``get(...).labels(...)`` this never
        registers the family or creates the child, so probing a metric
        (supervisor heartbeat displays, tests, the CLI summary) cannot
        perturb the snapshot it is about to compare.  Histograms have
        no single value and read as None; so do unknown families,
        mismatched label sets, and never-touched label combinations.
        """
        with self._lock:
            family = self._families.get(name)
            if family is None or family.kind == "histogram":
                return None
            if set(labels) != set(family.labelnames):
                return None
            key = tuple(str(labels[label])
                        for label in family.labelnames)
            child = family._children.get(key)
            return None if child is None else child.value

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[name]
                    for name in sorted(self._families)]

    # -- snapshot / restore -------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic JSON-able document of every series' value.

        Families sort by name and series by label values, so two
        registries with identical contents produce identical documents
        — the property the checkpoint round-trip tests pin.
        """
        metrics: List[Dict[str, Any]] = []
        with self._lock:
            for family in self.families():
                entry: Dict[str, Any] = {
                    "name": family.name,
                    "type": family.kind,
                    "help": family.help,
                    "label_names": list(family.labelnames),
                }
                if family.kind == "histogram":
                    entry["buckets"] = list(family.buckets or ())
                if family.kind == "gauge":
                    entry["merge"] = family.merge
                series: List[Dict[str, Any]] = []
                for labelvalues, child in family.series():
                    row: Dict[str, Any] = {"labels": list(labelvalues)}
                    if family.kind == "histogram":
                        row["bucket_counts"] = child.bucket_counts()
                        row["sum"] = child.sum
                        row["count"] = child.count
                        row["min"] = child.minimum
                        row["max"] = child.maximum
                    else:
                        row["value"] = child.value
                    series.append(row)
                entry["series"] = series
                metrics.append(entry)
        return {"format": SNAPSHOT_FORMAT, "metrics": metrics}

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Load a snapshot's values, re-registering families as needed.

        Existing children named in the snapshot are *overwritten* (this
        is checkpoint resume, not merging); children absent from the
        snapshot are left untouched.  Counter values restore exactly
        (ints stay ints), so kill-and-resume is bit-for-bit.
        """
        if snapshot.get("format") != SNAPSHOT_FORMAT:
            raise ValueError(
                f"not a {SNAPSHOT_FORMAT} snapshot: "
                f"{snapshot.get('format')!r}")
        for entry in snapshot.get("metrics", []):
            kind = entry["type"]
            labelnames = tuple(entry.get("label_names", ()))
            if kind == "histogram":
                family = self.histogram(entry["name"], entry.get("help", ""),
                                        labelnames,
                                        entry.get("buckets") or None)
            elif kind == "counter":
                family = self.counter(entry["name"], entry.get("help", ""),
                                      labelnames)
            elif kind == "gauge":
                family = self.gauge(entry["name"], entry.get("help", ""),
                                    labelnames, merge=entry.get("merge"))
            else:
                raise ValueError(f"unknown metric type {kind!r}")
            for row in entry.get("series", []):
                child = family.labels(**dict(zip(labelnames, row["labels"])))
                with self._lock:
                    if kind == "histogram":
                        counts = [int(c) for c in row["bucket_counts"]]
                        if len(counts) != len(child.bounds) + 1:
                            raise ValueError(
                                f"snapshot for {entry['name']} has "
                                f"{len(counts)} buckets, metric has "
                                f"{len(child.bounds) + 1}")
                        child._bucket_counts = counts
                        child._sum = float(row["sum"])
                        child._count = int(row["count"])
                        child._min = row.get("min")
                        child._max = row.get("max")
                    else:
                        child._value = row["value"]

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold another registry's snapshot *into* this one.

        The parallel pipeline's fold-in path: each worker process runs
        with its own registry and ships a ``repro-metrics-v1`` snapshot
        home, where the parent accumulates them.  Unlike
        :meth:`restore` (which overwrites — checkpoint resume), merging
        is additive and commutative over disjoint work:

        * counters add (negative rows subtract — the rollback path a
          supervisor uses to retract a dead worker's partial fold);
        * histograms add bucket counts, sum, and count, and combine
          min/max;
        * gauges fold per their declared policy (see
          :data:`GAUGE_MERGE_POLICIES`): ``max`` keeps the high
          watermark, ``last`` lets the delivered value win — the fold
          freshness gauges such as watermark lag need, where max would
          pin the series at its worst-ever reading forever.

        The policy travels inside the snapshot (``merge`` on gauge
        entries), so the parent folds correctly even for families it
        first learns about from the wire.  Families absent from this
        registry are registered on the fly, exactly as :meth:`restore`
        does.
        """
        if snapshot.get("format") != SNAPSHOT_FORMAT:
            raise ValueError(
                f"not a {SNAPSHOT_FORMAT} snapshot: "
                f"{snapshot.get('format')!r}")
        for entry in snapshot.get("metrics", []):
            kind = entry["type"]
            labelnames = tuple(entry.get("label_names", ()))
            if kind == "histogram":
                family = self.histogram(entry["name"], entry.get("help", ""),
                                        labelnames,
                                        entry.get("buckets") or None)
            elif kind == "counter":
                family = self.counter(entry["name"], entry.get("help", ""),
                                      labelnames)
            elif kind == "gauge":
                family = self.gauge(entry["name"], entry.get("help", ""),
                                    labelnames, merge=entry.get("merge"))
            else:
                raise ValueError(f"unknown metric type {kind!r}")
            policy = entry.get("merge") or family.merge or "max"
            for row in entry.get("series", []):
                child = family.labels(**dict(zip(labelnames, row["labels"])))
                with self._lock:
                    if kind == "histogram":
                        counts = [int(c) for c in row["bucket_counts"]]
                        if len(counts) != len(child.bounds) + 1:
                            raise ValueError(
                                f"snapshot for {entry['name']} has "
                                f"{len(counts)} buckets, metric has "
                                f"{len(child.bounds) + 1}")
                        child._bucket_counts = [
                            a + b for a, b
                            in zip(child._bucket_counts, counts)]
                        child._sum += float(row["sum"])
                        child._count += int(row["count"])
                        for bound_name, pick in (("min", min), ("max", max)):
                            theirs = row.get(bound_name)
                            if theirs is not None:
                                ours = getattr(child, f"_{bound_name}")
                                setattr(child, f"_{bound_name}",
                                        theirs if ours is None
                                        else pick(ours, theirs))
                    elif kind == "counter":
                        child._value += row["value"]
                    elif policy == "last":
                        child._value = row["value"]
                    else:
                        child._value = max(child._value, row["value"])

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=1)

    # -- exposition ---------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4).

        Label names render sorted (with ``le`` always last on histogram
        bucket lines), values escape backslash/quote/newline, and
        histogram buckets are cumulative with a closing ``+Inf``.
        """
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} "
                             f"{_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labelvalues, child in family.series():
                pairs = sorted(zip(family.labelnames, labelvalues))
                if family.kind == "histogram":
                    cumulative = child.cumulative_counts()
                    bounds = [_format_number(b) for b in child.bounds]
                    bounds.append("+Inf")
                    for bound, count in zip(bounds, cumulative):
                        bucket_pairs = pairs + [("le", bound)]
                        lines.append(f"{family.name}_bucket"
                                     f"{_render_labels(bucket_pairs)} "
                                     f"{count}")
                    lines.append(f"{family.name}_sum{_render_labels(pairs)} "
                                 f"{_format_number(child.sum)}")
                    lines.append(f"{family.name}_count"
                                 f"{_render_labels(pairs)} {child.count}")
                else:
                    lines.append(f"{family.name}{_render_labels(pairs)} "
                                 f"{_format_number(child.value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _render_labels(pairs: Sequence[Tuple[str, str]]) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape_label_value(str(value))}"'
                     for name, value in pairs)
    return "{" + inner + "}"


def _format_number(value: Any) -> str:
    number = float(value)
    # Prometheus 0.0.4 spells the non-finite values +Inf/-Inf/NaN; the
    # int() fast path below would raise OverflowError/ValueError on
    # them (observed when a histogram sum went infinite).
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if math.isnan(number):
        return "NaN"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


# -- snapshot arithmetic (the cross-process aggregation plane) --------------


def _series_index(entry: Dict[str, Any]) -> Dict[Tuple[str, ...],
                                                 Dict[str, Any]]:
    return {tuple(row.get("labels", ())): row
            for row in entry.get("series", [])}


def diff_snapshots(current: Dict[str, Any],
                   previous: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """``current - previous`` as a mergeable incremental snapshot.

    The cross-process fold: a supervisor keeps what it last folded of a
    worker's cumulative snapshot and merges the difference with
    :meth:`MetricsRegistry.merge_snapshot`, so re-folding the same
    snapshot is a no-op.  Counter values and histogram bucket counts /
    sum / count subtract; gauges always carry their current reading
    (they are last-value, not cumulative — there is nothing to
    subtract).  Series and families that ``previous`` has and
    ``current`` lacks come back negated (gauges and histogram min/max
    excepted), so ``diff_snapshots(empty, s)`` retracts ``s``.  Series
    whose delta is zero are dropped, as are families left with no
    series.  ``previous=None`` yields ``current`` itself.

    Deltas may legitimately go *negative* — a worker restarted from a
    checkpoint older than its last report re-counts the replayed
    stretch — which is why :meth:`merge_snapshot` adds counters without
    a sign check.
    """
    for snapshot in (current, previous):
        if snapshot is not None and snapshot.get("format") != SNAPSHOT_FORMAT:
            raise ValueError(
                f"not a {SNAPSHOT_FORMAT} snapshot: "
                f"{snapshot.get('format')!r}")
    if previous is None:
        return current
    now = {entry["name"]: entry for entry in current.get("metrics", [])}
    before = {entry["name"]: entry
              for entry in previous.get("metrics", [])}
    metrics: List[Dict[str, Any]] = []
    for name in list(now) + [name for name in before if name not in now]:
        entry = now.get(name) or before[name]
        kind = entry["type"]
        rows = _series_index(now.get(name, {}))
        prior = _series_index(before.get(name, {}))
        series: List[Dict[str, Any]] = []
        for labels in list(rows) + [key for key in prior if key not in rows]:
            row, base = rows.get(labels), prior.get(labels)
            if kind == "gauge":
                if row is not None:
                    series.append(dict(row))
                continue
            if kind == "counter":
                delta = ((row["value"] if row else 0)
                         - (base["value"] if base else 0))
                if delta:
                    series.append({"labels": list(labels), "value": delta})
                continue
            empty = {"bucket_counts": [0] * len((row or base)
                                                ["bucket_counts"]),
                     "sum": 0.0, "count": 0, "min": None, "max": None}
            row, base = row or empty, base or empty
            counts = [a - b for a, b
                      in zip(row["bucket_counts"], base["bucket_counts"])]
            if not any(counts):
                continue
            series.append({
                "labels": list(labels),
                "bucket_counts": counts,
                "sum": row["sum"] - base["sum"],
                "count": row["count"] - base["count"],
                # Streaming min/max are not invertible; ship the
                # cumulative readings, which min/max-combine correctly.
                "min": row.get("min"),
                "max": row.get("max"),
            })
        if series:
            slim = {key: value for key, value in entry.items()
                    if key != "series"}
            slim["series"] = series
            metrics.append(slim)
    return {"format": SNAPSHOT_FORMAT, "metrics": metrics}


# -- the no-op implementation ----------------------------------------------


class _NullTimer:
    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


class _NullMetric:
    """Answers the whole child/family API with no-ops."""

    __slots__ = ()

    def labels(self, **labelvalues: Any) -> "_NullMetric":
        return self

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_to_max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def time(self) -> _NullTimer:
        return _NULL_TIMER

    @property
    def value(self) -> float:
        return 0

    def quantile(self, quantile: float) -> float:
        return float("nan")


_NULL_TIMER = _NullTimer()
_NULL_METRIC = _NullMetric()


class NullRegistry:
    """Opt-out registry: same construction API, every operation a no-op.

    ``enabled`` is False so hot paths can skip even the clock reads
    that would feed a histogram.  This is the default registry — code
    is instrumented everywhere, and pays nothing until an operator
    swaps in a real :class:`MetricsRegistry`.
    """

    enabled = False

    def counter(self, name: str, help_text: str = "",
                labelnames: Iterable[str] = ()) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, help_text: str = "",
              labelnames: Iterable[str] = (),
              merge: Optional[str] = None) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Iterable[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> _NullMetric:
        return _NULL_METRIC

    def get(self, name: str) -> None:
        return None

    def families(self) -> List[MetricFamily]:
        return []

    def value(self, name: str, **labels: Any) -> Optional[float]:
        return None

    def snapshot(self) -> Dict[str, Any]:
        return {"format": SNAPSHOT_FORMAT, "metrics": []}

    def restore(self, snapshot: Dict[str, Any]) -> None:
        pass

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        pass

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=1)

    def to_prometheus(self) -> str:
        return ""


NULL_REGISTRY = NullRegistry()

_global_registry: Any = NULL_REGISTRY


def get_registry() -> Any:
    """The process-wide default registry (NULL_REGISTRY until set)."""
    return _global_registry


def set_registry(registry: Optional[Any]) -> Any:
    """Install a process-wide default registry; returns the previous one.

    Pass None to reset to :data:`NULL_REGISTRY`.  Components resolve
    the default at *construction* time, so install the registry before
    building the pipeline/detector it should observe.
    """
    global _global_registry
    previous = _global_registry
    _global_registry = registry if registry is not None else NULL_REGISTRY
    return previous


def resolve_registry(metrics: Optional[Any]) -> Any:
    """``metrics`` if given, else the process-wide default."""
    return metrics if metrics is not None else _global_registry


# -- snapshot rendering (the ``inspect`` subcommand) ------------------------


def render_snapshot(snapshot: Dict[str, Any]) -> str:
    """Human-readable tables from a metrics snapshot document.

    Counters and gauges render as ``name{labels}  value`` lines;
    histograms render as the stage-latency table (count, mean, p50,
    p90, p99, max) the ``inspect`` subcommand promises.
    """
    if snapshot.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(
            f"not a {SNAPSHOT_FORMAT} snapshot: {snapshot.get('format')!r}")
    scalars: List[Tuple[str, str, Any]] = []
    histograms: List[Tuple[str, Dict[str, Any], Dict[str, Any]]] = []
    for entry in snapshot.get("metrics", []):
        labelnames = entry.get("label_names", [])
        for row in entry.get("series", []):
            rendered = _render_labels(
                sorted(zip(labelnames, row.get("labels", []))))
            name = f"{entry['name']}{rendered}"
            if entry["type"] == "histogram":
                histograms.append((name, entry, row))
            else:
                scalars.append((entry["type"], name, row.get("value", 0)))
    lines: List[str] = []
    if scalars:
        lines.append("counters and gauges")
        lines.append("-------------------")
        width = max(len(name) for _, name, _ in scalars)
        for kind, name, value in scalars:
            lines.append(f"  {name:<{width}}  {_format_number(value)}"
                         + ("  (gauge)" if kind == "gauge" else ""))
    if histograms:
        if lines:
            lines.append("")
        lines.append("stage latency (histograms)")
        lines.append("--------------------------")
        header = (f"  {'metric':<44} {'count':>8} {'mean':>10} "
                  f"{'p50':>10} {'p90':>10} {'p99':>10} {'max':>10}")
        lines.append(header)
        for name, entry, row in histograms:
            counts = [int(c) for c in row.get("bucket_counts", [])]
            count = int(row.get("count", 0))
            mean = (float(row.get("sum", 0.0)) / count if count
                    else float("nan"))
            bounds = entry.get("buckets", [])
            quantiles = [
                _quantile_from_buckets(bounds, counts, q,
                                       row.get("min"), row.get("max"))
                for q in (0.5, 0.9, 0.99)]
            maximum = row.get("max")
            cells = [f"{mean:>10.4g}"] + [f"{q:>10.4g}" for q in quantiles]
            cells.append(f"{maximum:>10.4g}" if maximum is not None
                         else f"{'-':>10}")
            lines.append(f"  {name:<44} {count:>8} " + " ".join(cells))
    if not lines:
        lines.append("(empty metrics snapshot)")
    return "\n".join(lines)
