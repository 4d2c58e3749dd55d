"""Observability: metrics, spans, and decision provenance.

This package sits at the very bottom of the dependency graph — pure
standard library, importable from the ingest layers (telescope, dns)
and the analysis core alike without creating cycles.  See
:mod:`repro.obs.metrics` for counters/gauges/histograms,
:mod:`repro.obs.tracing` for wall-time span trees with cross-process
trace propagation, :mod:`repro.obs.explain` for the decision-provenance
event log.  :class:`repro.serve.ServingPlane` serves all three live
(``--obs-port``).
"""

from .explain import (
    EXPLAIN_FORMAT,
    NULL_EXPLAIN,
    ExplainLog,
    NullExplainLog,
    format_explain,
    get_explain,
    read_explain_jsonl,
    resolve_explain,
    set_explain,
)
from .metrics import (
    DEFAULT_SECONDS_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    NullRegistry,
    diff_snapshots,
    get_registry,
    log_spaced_buckets,
    render_snapshot,
    resolve_registry,
    set_registry,
)
from .tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanTracer,
    get_tracer,
    resolve_tracer,
    set_tracer,
)

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
    "render_snapshot",
    "diff_snapshots",
    "DEFAULT_SECONDS_BUCKETS",
    "Span",
    "SpanTracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "resolve_tracer",
    "EXPLAIN_FORMAT",
    "ExplainLog",
    "NullExplainLog",
    "NULL_EXPLAIN",
    "get_explain",
    "set_explain",
    "resolve_explain",
    "format_explain",
    "read_explain_jsonl",
]
