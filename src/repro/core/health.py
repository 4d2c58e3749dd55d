"""Fault containment: dead-letter quarantine, error budget, run health.

The compute path used to be all-or-nothing: one pathological block — a
NaN count, a `p_empty_up` of exactly 1, a history with corrupt
timestamps — aborted training or detection for the *entire* population.
At the ROADMAP's target scale (millions of blocks from feeds the
operator does not control) that failure mode is unacceptable: a single
bad series must degrade to a *skipped* series, not a crashed job.

This module provides the vocabulary the pipeline, the detectors, and
the CLI share to make that happen:

* :class:`DeadLetterRegistry` — the quarantine.  Every block whose
  training, tuning, or detection raised (or violated a numerical
  invariant) is recorded with its stage, the exception, and a digest of
  the offending inputs, so an operator can replay exactly what broke
  without trawling the raw feed.
* :class:`ErrorBudget` — the circuit breaker.  Quarantining protects
  the run from a bad block, but *silently* quarantining everything is
  its own failure (a poisoned model, a decoder bug).  Above a
  configurable quarantine fraction the run fails loudly with
  :class:`ErrorBudgetExceeded` instead.
* :class:`GuardrailCounters` — trip accounting for the numerical
  guardrails in :mod:`repro.core.belief`: every neutralised NaN count,
  masked matrix row, and clamped degenerate parameter is counted, so
  "the run passed" and "the run passed because guardrails absorbed ten
  thousand poisoned bins" are distinguishable.
* :class:`RunHealthReport` — the artefact.  Per-stage timings and
  attempted/succeeded/quarantined accounting, the dead letters, the
  guardrail trips, and any sentinel quarantine windows, as one
  JSON-serialisable document emitted by ``PassiveOutagePipeline``,
  ``StreamingDetector.finalize``, and the ``detect``/``live`` CLI.

This module sits at the bottom of :mod:`repro.core` and imports nothing
from it, so every core layer may depend on it without cycles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BlockDataError",
    "ErrorBudgetExceeded",
    "ErrorBudget",
    "DeadLetterEntry",
    "DeadLetterRegistry",
    "GuardrailCounters",
    "StageStats",
    "ShardAttemptRecord",
    "CoverageReport",
    "SourceHealth",
    "RunHealthReport",
    "fold_lost_coverage",
    "inputs_digest",
]


class BlockDataError(ValueError):
    """One block's input data violates an invariant (non-finite
    timestamps, unsorted arrivals, impossible parameters).

    Raised *per block* so the supervised scopes in the pipeline can
    quarantine the offender and continue; it never signals a run-level
    problem.
    """


class ErrorBudgetExceeded(RuntimeError):
    """Too large a fraction of the population was quarantined.

    Carries the accounting so callers (and the CLI's distinct exit
    code) can report precisely how the budget tripped.
    """

    def __init__(self, stage: str, attempted: int, quarantined: int,
                 max_fraction: float) -> None:
        self.stage = stage
        self.attempted = attempted
        self.quarantined = quarantined
        self.max_fraction = max_fraction
        #: the run's health report, attached by callers that have one
        #: so the operator still gets the accounting on a tripped run.
        self.report: Optional["RunHealthReport"] = None
        fraction = quarantined / attempted if attempted else 1.0
        super().__init__(
            f"{stage}: quarantined {quarantined}/{attempted} blocks "
            f"({fraction:.1%}), above the error budget of "
            f"{max_fraction:.1%} — refusing to report a run this "
            f"degraded as success")

    @property
    def fraction(self) -> float:
        return (self.quarantined / self.attempted if self.attempted
                else 1.0)


@dataclass(frozen=True)
class ErrorBudget:
    """Quarantine-fraction circuit breaker.

    ``max_quarantine_frac`` is the largest tolerable fraction of
    attempted blocks landing in the dead-letter registry; exactly *at*
    the threshold is still within budget.  A fraction of 1.0 disables
    the breaker (every block may fail individually without failing the
    run).
    """

    max_quarantine_frac: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_quarantine_frac <= 1.0:
            raise ValueError("max_quarantine_frac must be in [0, 1]")

    def check(self, stage: str, attempted: int, quarantined: int) -> None:
        """Raise :class:`ErrorBudgetExceeded` when over budget."""
        if attempted <= 0 or quarantined <= 0:
            return
        if self.max_quarantine_frac >= 1.0:
            return
        if quarantined / attempted > self.max_quarantine_frac:
            raise ErrorBudgetExceeded(stage, attempted, quarantined,
                                      self.max_quarantine_frac)


def inputs_digest(values: Any) -> str:
    """Deterministic fingerprint of a block's offending inputs.

    Summarises rather than copies (the inputs may be megabytes of
    timestamps): element count, finite count, and a short blake2b of
    the raw bytes, enough to match a dead letter to its source data
    and to spot two blocks poisoned identically.
    """
    try:
        array = np.asarray(values)
    except Exception:  # truly malformed inputs still deserve a digest
        text = repr(values).encode("utf-8", "replace")
        return f"repr:{hashlib.blake2b(text, digest_size=6).hexdigest()}"
    if array.dtype == object or array.dtype.kind in "US":
        text = repr(values).encode("utf-8", "replace")
        return f"repr:{hashlib.blake2b(text, digest_size=6).hexdigest()}"
    finite = int(np.isfinite(array).sum()) if array.size else 0
    blob = np.ascontiguousarray(array).tobytes()
    digest = hashlib.blake2b(blob, digest_size=6).hexdigest()
    return f"n={array.size},finite={finite},blake2b={digest}"


@dataclass(frozen=True)
class DeadLetterEntry:
    """One quarantined block: who, where, why, and on what data."""

    block_key: int
    stage: str
    error_type: str
    error: str
    digest: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "block_key": self.block_key,
            "stage": self.stage,
            "error_type": self.error_type,
            "error": self.error,
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DeadLetterEntry":
        return cls(
            block_key=int(data["block_key"]),
            stage=str(data["stage"]),
            error_type=str(data["error_type"]),
            error=str(data["error"]),
            digest=str(data.get("digest", "")),
        )


class DeadLetterRegistry:
    """Structured quarantine for blocks the run could not process.

    Append-only; a block may accumulate entries from several stages
    (history poisoned at train time *and* counts poisoned at detect
    time) but counts once toward the error budget.
    """

    def __init__(self,
                 entries: Optional[Iterable[DeadLetterEntry]] = None) -> None:
        self.entries: List[DeadLetterEntry] = list(entries or ())
        self._metric: Optional[Any] = None

    def bind(self, counter_family: Any,
             backfill: bool = True) -> "DeadLetterRegistry":
        """Mirror every record into an obs counter labelled by stage.

        The registry stays the source of truth for the health report;
        binding makes ``record`` the *single* write path for both, so
        the report and the metrics snapshot cannot drift (asserted by
        the chaos suite).  ``backfill`` pushes already-recorded entries
        into the counter; pass False when the counter values were
        restored separately (checkpoint resume).
        """
        self._metric = counter_family
        if backfill:
            for entry in self.entries:
                counter_family.labels(stage=entry.stage).inc()
        return self

    def record(self, stage: str, block_key: int, error: BaseException,
               inputs: Any = None) -> DeadLetterEntry:
        """Quarantine one block with the exception that condemned it."""
        entry = DeadLetterEntry(
            block_key=int(block_key),
            stage=stage,
            error_type=type(error).__name__,
            error=str(error),
            digest="" if inputs is None else inputs_digest(inputs),
        )
        self.entries.append(entry)
        if self._metric is not None:
            self._metric.labels(stage=stage).inc()
        return entry

    def keys(self) -> List[int]:
        """Distinct quarantined block keys, sorted."""
        return sorted({entry.block_key for entry in self.entries})

    def by_stage(self, stage: str) -> List[DeadLetterEntry]:
        return [entry for entry in self.entries if entry.stage == stage]

    def __len__(self) -> int:
        return len({entry.block_key for entry in self.entries})

    def __contains__(self, block_key: int) -> bool:
        return any(entry.block_key == block_key for entry in self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def extend(self, other: "DeadLetterRegistry") -> None:
        self.entries.extend(other.entries)
        if self._metric is not None:
            for entry in other.entries:
                self._metric.labels(stage=entry.stage).inc()

    def canonicalize(self) -> None:
        """Re-order entries into the canonical (merge-stable) order.

        Entries sort by (block key, stage, error type, message, digest).
        Shard workers discover dead letters in whatever order their
        bin-size groups iterate, so two different shardings of the same
        population record the same *set* of entries in different
        orders; merging sorts canonically so the merged registry — and
        everything derived from it (health report, ``--health-report``
        JSON) — is identical regardless of shard composition.
        """
        self.entries.sort(key=lambda e: (e.block_key, e.stage,
                                         e.error_type, e.error, e.digest))

    @classmethod
    def merged(cls, registries: Iterable["DeadLetterRegistry"]
               ) -> "DeadLetterRegistry":
        """Union of several registries, in canonical entry order."""
        merged = cls()
        for registry in registries:
            merged.entries.extend(registry.entries)
        merged.canonicalize()
        return merged

    def as_dict(self) -> List[Dict[str, Any]]:
        return [entry.as_dict() for entry in self.entries]

    @classmethod
    def from_dict(cls, data: Sequence[Dict[str, Any]]
                  ) -> "DeadLetterRegistry":
        return cls(DeadLetterEntry.from_dict(entry) for entry in data)


class GuardrailCounters:
    """Trip counts for the numerical guardrails, keyed by guard name.

    Known keys (others may appear as guards are added):

    * ``nonfinite_count`` — a NaN/inf bin count neutralised to
      no-evidence;
    * ``negative_count`` — a negative bin count neutralised;
    * ``masked_row`` — a whole block row masked out of the vectorised
      belief pass;
    * ``degenerate_p_empty`` — a p_empty_up at/beyond {0, 1} clamped;
    * ``nonfinite_parameter`` — a non-finite parameter vector entry
      detected in the vectorised pass;
    * ``nonfinite_timestamp`` — a non-finite arrival timestamp rejected
      at an ingest boundary.
    """

    def __init__(self, counts: Optional[Dict[str, int]] = None) -> None:
        self._counts: Dict[str, int] = dict(counts or {})
        self._metric: Optional[Any] = None

    def bind(self, counter_family: Any,
             backfill: bool = True) -> "GuardrailCounters":
        """Mirror every trip into an obs counter labelled by guard.

        Makes ``trip`` the single write path for the health report and
        the metrics registry (see :meth:`DeadLetterRegistry.bind`).
        ``backfill=False`` skips pushing existing counts, for resume
        paths where the counter was restored from a snapshot.
        """
        self._metric = counter_family
        if backfill:
            for guard, count in self._counts.items():
                counter_family.labels(guard=guard).inc(count)
        return self

    def trip(self, guard: str, count: int = 1) -> None:
        if count:
            self._counts[guard] = self._counts.get(guard, 0) + int(count)
            if self._metric is not None:
                self._metric.labels(guard=guard).inc(int(count))

    def count(self, guard: str) -> int:
        return self._counts.get(guard, 0)

    @property
    def total(self) -> int:
        return sum(self._counts.values())

    def merge(self, other: "GuardrailCounters") -> None:
        for guard, count in other._counts.items():
            self.trip(guard, count)

    def as_dict(self) -> Dict[str, int]:
        return {guard: self._counts[guard] for guard in sorted(self._counts)}

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "GuardrailCounters":
        return cls({str(k): int(v) for k, v in data.items()})

    def __bool__(self) -> bool:
        return self.total > 0

    def __repr__(self) -> str:
        return f"GuardrailCounters({self.as_dict()!r})"


@dataclass
class StageStats:
    """Accounting for one pipeline stage (train, tune, detect, ...)."""

    name: str
    seconds: float = 0.0
    attempted: int = 0
    succeeded: int = 0
    quarantined: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "attempted": self.attempted,
            "succeeded": self.succeeded,
            "quarantined": self.quarantined,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StageStats":
        return cls(
            name=str(data["name"]),
            seconds=float(data.get("seconds", 0.0)),
            attempted=int(data.get("attempted", 0)),
            succeeded=int(data.get("succeeded", 0)),
            quarantined=int(data.get("quarantined", 0)),
        )


@dataclass
class ShardAttemptRecord:
    """One supervised execution unit's attempt history.

    ``unit`` is the shard's lineage id (``"00003"`` for a root shard,
    ``"00003.0.1"`` for the right half of its left half after two
    bisections); ``outcomes`` lists every attempt's verdict in order
    (``ok``, ``crash``, ``hang``, ``oom``, ``error``); ``status`` is
    where the unit ended up: ``done`` (delivered), ``bisected`` (split
    after exhausting retries), ``lost`` (a single block that kept
    killing its worker), or ``pending`` (the run stopped mid-unit).
    """

    unit: str
    outcomes: List[str] = field(default_factory=list)
    status: str = "pending"

    def as_dict(self) -> Dict[str, Any]:
        return {"unit": self.unit, "outcomes": list(self.outcomes),
                "status": self.status}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardAttemptRecord":
        return cls(unit=str(data["unit"]),
                   outcomes=[str(o) for o in data.get("outcomes", [])],
                   status=str(data.get("status", "pending")))


@dataclass
class CoverageReport:
    """Delivery accounting for a supervised (process-isolated) run.

    Distinct from the per-stage quarantine accounting: dead letters say
    "this block's *data* was unusable", coverage says "this block's
    *worker process* kept dying and its result was never delivered".
    A run with ``blocks_lost`` is *degraded*: it completed, its health
    report still accounts for the full population (the lost blocks are
    dead-lettered under ``stage="supervision"``), but the operator must
    know the coverage hole exists — that is what ``--strict-coverage``
    alerts on.
    """

    blocks_planned: int = 0
    blocks_delivered: int = 0
    blocks_lost: List[int] = field(default_factory=list)
    shard_attempts: List[ShardAttemptRecord] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.blocks_lost)

    @property
    def lost_fraction(self) -> float:
        if self.blocks_planned == 0:
            return 0.0
        return len(self.blocks_lost) / self.blocks_planned

    def retry_histogram(self) -> Dict[int, int]:
        """Units by attempt count: ``{n_attempts: n_units}``, sorted."""
        histogram: Dict[int, int] = {}
        for record in self.shard_attempts:
            attempts = len(record.outcomes)
            histogram[attempts] = histogram.get(attempts, 0) + 1
        return {count: histogram[count] for count in sorted(histogram)}

    def as_dict(self) -> Dict[str, Any]:
        return {
            "blocks_planned": self.blocks_planned,
            "blocks_delivered": self.blocks_delivered,
            "blocks_lost": list(self.blocks_lost),
            "shard_attempts": [record.as_dict()
                               for record in self.shard_attempts],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CoverageReport":
        return cls(
            blocks_planned=int(data.get("blocks_planned", 0)),
            blocks_delivered=int(data.get("blocks_delivered", 0)),
            blocks_lost=[int(key) for key in data.get("blocks_lost", [])],
            shard_attempts=[ShardAttemptRecord.from_dict(entry)
                            for entry in data.get("shard_attempts", [])],
        )


@dataclass
class SourceHealth:
    """Per-vantage accounting for a fused (multi-source) run.

    Distinct from block-level dead letters and from the run-level
    sentinel windows: this section says how much each *vantage*
    contributed and how trusted it ended up — a degraded-vantage run is
    visibly degraded (low ``weight``, non-empty ``quarantine_windows``,
    climbing ``gated_bins``), not silently thinner.
    """

    name: str
    observations: int = 0
    #: reliability weight in [0, 1] at the end of the run.
    weight: float = 1.0
    healthy_bins: int = 0
    quiet_bins: int = 0
    #: detector bins whose evidence from this source was dropped
    #: because the vantage was suspect or quarantined at the time.
    gated_bins: int = 0
    quarantine_windows: List[Tuple[float, float]] = field(
        default_factory=list)
    #: blocks this vantage could individually measure (its share of the
    #: fused coverage).
    measurable_blocks: int = 0

    @property
    def quarantined_seconds(self) -> float:
        return sum(e - s for s, e in self.quarantine_windows)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "observations": self.observations,
            "weight": self.weight,
            "healthy_bins": self.healthy_bins,
            "quiet_bins": self.quiet_bins,
            "gated_bins": self.gated_bins,
            "quarantine_windows": [list(pair)
                                   for pair in self.quarantine_windows],
            "measurable_blocks": self.measurable_blocks,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SourceHealth":
        return cls(
            name=str(data["name"]),
            observations=int(data.get("observations", 0)),
            weight=float(data.get("weight", 1.0)),
            healthy_bins=int(data.get("healthy_bins", 0)),
            quiet_bins=int(data.get("quiet_bins", 0)),
            gated_bins=int(data.get("gated_bins", 0)),
            quarantine_windows=[(float(s), float(e))
                                for s, e in
                                data.get("quarantine_windows", [])],
            measurable_blocks=int(data.get("measurable_blocks", 0)),
        )

    def merge(self, other: "SourceHealth") -> None:
        """Fold another shard's view of the same vantage into this one."""
        self.observations += other.observations
        # The most pessimistic surviving weight wins: a vantage judged
        # unreliable anywhere is unreliable for the merged run.
        self.weight = min(self.weight, other.weight)
        self.healthy_bins += other.healthy_bins
        self.quiet_bins += other.quiet_bins
        self.gated_bins += other.gated_bins
        windows = set(map(tuple, self.quarantine_windows))
        windows.update(map(tuple, other.quarantine_windows))
        self.quarantine_windows = sorted(windows)
        self.measurable_blocks = max(self.measurable_blocks,
                                     other.measurable_blocks)


@dataclass
class RunHealthReport:
    """One run's health: stage accounting, quarantine, guardrail trips.

    JSON-serialisable (:meth:`as_dict`/:meth:`to_json`) and restorable
    (:meth:`from_dict`), so it travels inside checkpoints and lands on
    disk via the CLI's ``--health-report``.  ``sentinel_windows`` are
    the vantage sentinel's feed-quarantine intervals, distinct from
    block-level dead letters: the former say "the *observer* was
    unhealthy here", the latter "this *block's data* was unusable".
    """

    run: str = "pipeline"
    stages: List[StageStats] = field(default_factory=list)
    dead_letters: DeadLetterRegistry = field(
        default_factory=DeadLetterRegistry)
    guardrails: GuardrailCounters = field(default_factory=GuardrailCounters)
    sentinel_windows: List[Tuple[float, float]] = field(default_factory=list)
    max_quarantine_frac: float = 1.0
    budget_tripped: bool = False
    #: delivery accounting of a sharded or partitioned run, whose
    #: workers are always supervised; None for single-process runs
    #: (the key is omitted from the serialised document entirely, so
    #: those reports are byte-identical to older builds).
    coverage: Optional[CoverageReport] = None
    #: per-vantage accounting for fused runs, keyed by source name;
    #: empty for single-source runs (and omitted from the serialised
    #: document, keeping those reports byte-identical to older builds).
    sources: Dict[str, SourceHealth] = field(default_factory=dict)

    # -- accounting ---------------------------------------------------------

    def stage(self, name: str) -> StageStats:
        """Fetch (or create) the stats row for one stage."""
        for stats in self.stages:
            if stats.name == name:
                return stats
        stats = StageStats(name)
        self.stages.append(stats)
        return stats

    @property
    def blocks_attempted(self) -> int:
        return max((stats.attempted for stats in self.stages), default=0)

    @property
    def blocks_quarantined(self) -> int:
        return len(self.dead_letters)

    @property
    def blocks_succeeded(self) -> int:
        return self.blocks_attempted - self.blocks_quarantined

    @property
    def quarantine_fraction(self) -> float:
        attempted = self.blocks_attempted
        if attempted == 0:
            return 0.0
        return self.blocks_quarantined / attempted

    @classmethod
    def merged(cls, reports: Iterable["RunHealthReport"],
               run: Optional[str] = None,
               max_quarantine_frac: Optional[float] = None,
               ) -> "RunHealthReport":
        """Fold per-shard reports into one population-wide report.

        Stage rows with the same name sum (attempted/succeeded/
        quarantined add exactly; ``seconds`` add too, giving total CPU
        seconds rather than wall time).  Dead letters merge in
        canonical order and guardrail counters add, so the merged
        report is independent of how the population was sharded — and
        because shards partition the keyspace, :meth:`accounts_for`
        holds over the union of the shards' keys exactly when it held
        per shard.  ``budget_tripped`` is left False: the budget is the
        *parent's* decision over the merged population, not any
        shard's.
        """
        reports = list(reports)
        merged = cls(run=(run if run is not None
                          else (reports[0].run if reports else "pipeline")))
        windows: List[Tuple[float, float]] = []
        for report in reports:
            for stats in report.stages:
                row = merged.stage(stats.name)
                row.seconds += stats.seconds
                row.attempted += stats.attempted
                row.succeeded += stats.succeeded
                row.quarantined += stats.quarantined
            merged.guardrails.merge(report.guardrails)
            windows.extend(report.sentinel_windows)
            for name, source in report.sources.items():
                if name in merged.sources:
                    merged.sources[name].merge(source)
                else:
                    merged.sources[name] = SourceHealth.from_dict(
                        source.as_dict())
        merged.dead_letters = DeadLetterRegistry.merged(
            report.dead_letters for report in reports)
        merged.sentinel_windows = sorted(set(windows))
        if max_quarantine_frac is not None:
            merged.max_quarantine_frac = max_quarantine_frac
        elif reports:
            merged.max_quarantine_frac = min(
                report.max_quarantine_frac for report in reports)
        return merged

    def accounts_for(self, keys: Iterable[int]) -> bool:
        """True when every key is either succeeded or dead-lettered.

        The chaos suite's completeness check: no block may silently
        vanish from a run.
        """
        expected = set(keys)
        quarantined = set(self.dead_letters.keys())
        if not quarantined <= expected:
            return False  # quarantined a block that was never attempted
        if self.blocks_attempted != len(expected):
            return False
        return self.blocks_succeeded == len(expected - quarantined)

    # -- serialisation ------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        document = {
            "run": self.run,
            "stages": [stats.as_dict() for stats in self.stages],
            "dead_letters": self.dead_letters.as_dict(),
            "guardrails": self.guardrails.as_dict(),
            "sentinel_windows": [list(pair)
                                 for pair in self.sentinel_windows],
            "max_quarantine_frac": self.max_quarantine_frac,
            "budget_tripped": self.budget_tripped,
            "blocks_attempted": self.blocks_attempted,
            "blocks_succeeded": self.blocks_succeeded,
            "blocks_quarantined": self.blocks_quarantined,
        }
        if self.coverage is not None:
            document["coverage"] = self.coverage.as_dict()
        if self.sources:
            document["sources"] = {name: self.sources[name].as_dict()
                                   for name in sorted(self.sources)}
        return document

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=1)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunHealthReport":
        return cls(
            run=str(data.get("run", "pipeline")),
            stages=[StageStats.from_dict(entry)
                    for entry in data.get("stages", [])],
            dead_letters=DeadLetterRegistry.from_dict(
                data.get("dead_letters", [])),
            guardrails=GuardrailCounters.from_dict(
                data.get("guardrails", {})),
            sentinel_windows=[(float(s), float(e))
                              for s, e in data.get("sentinel_windows", [])],
            max_quarantine_frac=float(data.get("max_quarantine_frac", 1.0)),
            budget_tripped=bool(data.get("budget_tripped", False)),
            coverage=(CoverageReport.from_dict(data["coverage"])
                      if data.get("coverage") is not None else None),
            sources={str(name): SourceHealth.from_dict(entry)
                     for name, entry in data.get("sources", {}).items()},
        )

    @classmethod
    def from_json(cls, text: str) -> "RunHealthReport":
        return cls.from_dict(json.loads(text))

    def summary(self) -> str:
        """One-line operator summary for CLI output."""
        parts = [f"{self.blocks_succeeded}/{self.blocks_attempted} blocks ok"]
        if self.blocks_quarantined:
            parts.append(f"{self.blocks_quarantined} quarantined")
        if self.guardrails:
            parts.append(f"{self.guardrails.total} guardrail trips")
        if self.sentinel_windows:
            parts.append(f"{len(self.sentinel_windows)} sentinel windows")
        if self.coverage is not None and self.coverage.degraded:
            parts.append(f"DEGRADED: {len(self.coverage.blocks_lost)} "
                         f"blocks lost to supervision")
        degraded_sources = sorted(
            name for name, source in self.sources.items()
            if source.quarantine_windows or source.weight < 0.5)
        if degraded_sources:
            parts.append("degraded vantages: " + ", ".join(degraded_sources))
        return ", ".join(parts)


def fold_lost_coverage(report: RunHealthReport, stage_name: str,
                       planned: int,
                       lost_errors: Dict[int, BaseException],
                       records: List[ShardAttemptRecord],
                       metrics: Any = None) -> None:
    """Fold supervised-run delivery accounting into a merged report.

    Shared by the batch shard supervisor and the partitioned live
    supervisor: lost blocks join the *existing* ``stage_name`` row as
    attempted-and-quarantined (not a separate row — ``blocks_attempted``
    is the max over stage rows, so a parallel row would break
    :meth:`RunHealthReport.accounts_for` over the full population) and
    are dead-lettered under ``stage="supervision"`` through the
    registry's normal ``record`` path, the single write path that keeps
    report and metrics in lockstep.  Must run *after* the merged
    registry is bound to its metric series and *before* the budget
    verdict, so lost blocks are judged by the error budget exactly like
    data-poisoned ones.

    ``lost_errors`` maps each undelivered block key to the supervision
    error that condemned it.  ``records`` is the per-unit attempt
    history.  ``metrics`` (optional — health may not import obs)
    receives a ``supervision_lost_blocks`` gauge.
    """
    lost_set = set(lost_errors)
    stage = report.stage(stage_name)
    stage.attempted += len(lost_set)
    stage.quarantined += len(lost_set)
    for key in sorted(lost_set):
        report.dead_letters.record("supervision", key, lost_errors[key])
    report.dead_letters.canonicalize()
    report.coverage = CoverageReport(
        blocks_planned=planned,
        blocks_delivered=planned - len(lost_set),
        blocks_lost=sorted(lost_set),
        shard_attempts=records)
    if metrics is not None:
        metrics.gauge(
            "supervision_lost_blocks",
            "Blocks whose supervised workers kept dying; dead-lettered "
            "under stage=supervision").set(len(lost_set))
