"""Sharded parallel execution of the batch pipeline.

The batch pipeline is embarrassingly parallel across blocks: training
fits each block's history independently, tuning plans each block's
parameters from its own history, and the vectorised belief pass is
row-independent (each block is one matrix row).  This module exploits
that by partitioning the block keyspace into deterministic contiguous
chunks, running each chunk through a worker-local
:class:`~repro.core.pipeline.PassiveOutagePipeline` in a separate
process, and merging the shard results into exactly what the
sequential path would have produced.

Equivalence is a hard guarantee, not an aspiration: shard results are
merged so that events, dead letters, guardrail counters, and the run
health report are bit-for-bit identical to a sequential run (pinned by
the property tests in ``tests/test_parallel.py``, including under
fault injection).  The ingredients:

* **Deterministic planning.**  Shards are contiguous chunks of the
  *sorted* key list; the chunk size defaults to a fixed fraction of
  the population (independent of the worker count), so ``--workers 1``
  and ``--workers 4`` execute the identical plan and differ only in
  which process runs each chunk.
* **Per-block independence.**  The detector groups blocks by
  (bin size, thresholds, diurnal-ness) and each group's belief pass is
  elementwise per row, so splitting a group across shards cannot
  change any block's verdict.
* **Canonical merge order.**  Workers discover dead letters in group
  iteration order, which depends on shard composition; the merged
  registry sorts entries canonically
  (:meth:`~repro.core.health.DeadLetterRegistry.merged`) so the union
  is order-independent.
* **Exact wire format.**  Shard results cross the process boundary as
  versioned JSON-able documents (:mod:`repro.core.serialize`); Python
  floats survive the JSON round-trip bit-for-bit via repr.
* **Parent-side policy.**  Workers run with the error budget disabled
  (``max_quarantine_frac=1.0``) and report everything; the parent
  applies :class:`~repro.core.health.ErrorBudget` to the merged union,
  so the budget verdict cannot depend on how blocks landed in shards.
  The merged report's ``accounts_for`` completeness proof holds over
  the union of the shard keyspaces exactly when it held per shard.
* **Telemetry fold-in.**  When the parent meters, each worker runs a
  private :class:`~repro.obs.metrics.MetricsRegistry`; its
  ``repro-metrics-v1`` snapshot rides home in the shard document and
  is folded into the parent via
  :meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`.  The
  merged registries are then bound to the parent's metric series with
  ``backfill=False`` — the fold already counted them.

Shard results can be checkpointed: given a checkpoint directory, every
completed shard's document is written atomically as it finishes, under
a manifest naming the plan.  A killed run resumes by recomputing only
the missing shards — and because merge is deterministic, the resumed
run's output is identical to an uninterrupted one.

**Supervision.**  Every sharded run executes under a
:class:`ShardSupervisor`, with the pipeline's
:class:`SupervisionPolicy` or a default one.  A worker process that
segfaults, OOMs, or hangs never surfaces as a Python exception, so the
per-block quarantine in :mod:`repro.core.health` cannot catch it;
instead each shard attempt is its own child process with a wall-clock
deadline and an RSS ceiling; a dead/stalled/bloated child is
classified (``crash``/``hang``/``oom``), retried with bounded
exponential backoff and deterministic seeded jitter, and on retry
exhaustion the shard is **bisected** — the keyspace halves recursively
until the minimal poisoned block(s) are isolated and dead-lettered
under ``stage="supervision"``, giving process-fatal poison the same
per-block quarantine contract as exception-level poison.  Every
sharded health report carries a ``coverage`` section (planned,
delivered and lost blocks plus every unit's attempt history); a run
that lost blocks completes *degraded*, still proves ``accounts_for()``
over the full population, and feeds the error budget.  Attempt counts
and bisection lineage persist in the checkpoint manifest, so
kill-and-resume never re-pays completed retries.

Children start from a ``forkserver`` preloaded with this package (see
:func:`_child_context`), so an attempt costs a fork of a warm
interpreter instead of a fresh interpreter plus the numpy import
(0.3–0.5 s under ``spawn``).  The server starts at the first launch,
never at import.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time as _time
from collections import deque
from dataclasses import asdict, dataclass, field
from multiprocessing import get_context
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from .core.checkpoint import (
    discard_shard_result,
    load_shard_document,
    prune_stale_shards,
    read_shard_manifest,
    save_shard_result,
    write_shard_manifest,
)
from .core.detector import dead_letter_metric, guardrail_metric
from .core.events import RefinementConfig
from .core.health import (
    ErrorBudgetExceeded,
    RunHealthReport,
    ShardAttemptRecord,
    fold_lost_coverage,
)
from .core.parameters import HomogeneousPlanner, TuningPolicy
from .core.pipeline import PassiveOutagePipeline, PipelineResult, TrainedModel
from .core.serialize import (
    block_result_from_dict,
    block_result_to_dict,
    model_blocks_from_dict,
    model_blocks_to_dict,
)
from .net.addr import Family
from .obs.metrics import NULL_REGISTRY, MetricsRegistry
from .obs.explain import NULL_EXPLAIN, ExplainLog
from .obs.tracing import NULL_TRACER, SpanTracer

__all__ = [
    "SHARD_RESULT_FORMAT",
    "plan_shards",
    "sharded_train",
    "sharded_detect",
    "set_default_parallelism",
    "get_default_parallelism",
    "SupervisionPolicy",
    "ShardSupervisor",
    "ShardFatalError",
    "ShardCrash",
    "ShardHang",
    "ShardOOM",
    "ShardWorkerError",
]

#: Format tag of one shard's result document (the worker-result wire
#: format).  Versioned like every other persisted document in the repo
#: so a resume never misreads a stale or future shard file.
SHARD_RESULT_FORMAT = "repro-shard-result-v1"

#: Default number of shards a population is split into when no explicit
#: chunk size is given.  Deliberately independent of the worker count:
#: the plan — and therefore every merged artefact — must be a function
#: of the population alone, so ``--workers 1`` and ``--workers 4``
#: produce bit-identical output.  16 oversubscribes typical worker
#: counts enough that one slow shard does not serialise the run.
DEFAULT_SHARD_COUNT = 16


# -- planning ---------------------------------------------------------------


def plan_shards(keys: Sequence[int],
                shard_chunk: Optional[int] = None) -> List[List[int]]:
    """Partition ``keys`` into deterministic contiguous sorted chunks.

    The plan depends only on the key population and the chunk size —
    never on the worker count or any runtime state — which is what
    makes sharded output reproducible across worker counts and across
    kill-and-resume.
    """
    ordered = sorted(keys)
    if not ordered:
        return []
    if shard_chunk is None:
        shard_chunk = max(1, -(-len(ordered) // DEFAULT_SHARD_COUNT))
    if shard_chunk < 1:
        raise ValueError("shard_chunk must be >= 1")
    return [ordered[i:i + shard_chunk]
            for i in range(0, len(ordered), shard_chunk)]


def _plan_digest(stage: str, family: Family, start: float, end: float,
                 shards: Sequence[Sequence[int]]) -> str:
    """Fingerprint of a shard plan, for matching cached shard results.

    Covers the stage, window, and the exact chunked keyspace, so a
    checkpoint directory left by a differently-planned (or differently-
    windowed) run reads as a miss rather than as poison.
    """
    parts = [stage, str(int(family)), repr(float(start)), repr(float(end))]
    for shard in shards:
        parts.append(",".join(str(key) for key in shard))
    blob = "|".join(parts).encode("utf-8")
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


# -- process-wide defaults (used by the CLI's experiment command) -----------

_default_workers: Optional[int] = None
_default_shard_chunk: Optional[int] = None


def set_default_parallelism(workers: Optional[int],
                            shard_chunk: Optional[int] = None,
                            ) -> Tuple[Optional[int], Optional[int]]:
    """Set the process-wide default worker count for new pipelines.

    Pipelines constructed with ``workers=None`` pick this up, which is
    how ``repro experiment --workers N`` parallelises runners that
    build their own pipelines internally.  Returns the previous
    ``(workers, shard_chunk)`` so callers can restore it.
    """
    global _default_workers, _default_shard_chunk
    previous = (_default_workers, _default_shard_chunk)
    _default_workers = workers
    _default_shard_chunk = shard_chunk
    return previous


def get_default_parallelism() -> Tuple[Optional[int], Optional[int]]:
    """The process-wide default ``(workers, shard_chunk)``."""
    return _default_workers, _default_shard_chunk


# -- worker side ------------------------------------------------------------


def _pipeline_config(pipeline: PassiveOutagePipeline) -> Dict[str, Any]:
    """Everything a worker needs to rebuild an equivalent pipeline.

    The worker pipeline differs from the parent deliberately: no
    aggregation (a supernet may span shards, so the fallback runs
    parent-side over the merged result), no error budget (the budget
    is the parent's verdict over the union), and sequential execution
    (``workers=0`` — a worker must never shard again).
    """
    planner = pipeline.planner
    return {
        "policy": asdict(pipeline.policy),
        "refinement": asdict(pipeline.refinement),
        "homogeneous_bin": (planner.bin_seconds
                            if isinstance(planner, HomogeneousPlanner)
                            else None),
        "learn_diurnal": pipeline.learn_diurnal,
        "keep_belief_traces": pipeline.detector.keep_belief_traces,
        "metered": pipeline.metrics.enabled,
        "explained": pipeline.detector.explain.enabled,
        "traced": pipeline.tracer.enabled,
        # Distributed-trace context: trace id plus the dispatching span,
        # so worker spans join the parent's trace instead of minting
        # anonymous ones that the merged file cannot relate.
        "trace_ctx": pipeline.tracer.context(),
    }


def _worker_pipeline(config: Dict[str, Any],
                     ) -> Tuple[PassiveOutagePipeline, Any]:
    """Build the worker-local pipeline (and registry) from a config."""
    registry = MetricsRegistry() if config["metered"] else NULL_REGISTRY
    tracer = (SpanTracer.from_context(config.get("trace_ctx"))
              if config.get("traced") else NULL_TRACER)
    pipeline = PassiveOutagePipeline(
        policy=TuningPolicy(**config["policy"]),
        refinement=RefinementConfig(**config["refinement"]),
        homogeneous_bin=config["homogeneous_bin"],
        aggregation_levels=0,
        learn_diurnal=config["learn_diurnal"],
        keep_belief_traces=config["keep_belief_traces"],
        max_quarantine_frac=1.0,
        metrics=registry,
        tracer=tracer,
        workers=0,
    )
    if config.get("explained"):
        # Worker-local explain ring; its events ship home in the shard
        # document and re-sequence into the parent's log.
        pipeline.detector.explain = ExplainLog()
    return pipeline, registry


def _shard_document(stage: str, payload: Dict[str, Any],
                    health: RunHealthReport, registry: Any,
                    tracer: Any = NULL_TRACER,
                    explain: Any = NULL_EXPLAIN) -> Dict[str, Any]:
    document = {
        "format": SHARD_RESULT_FORMAT,
        "stage": stage,
        "index": payload["index"],
        "plan_digest": payload["plan_digest"],
        "health": health.as_dict(),
        # Execution unit id (bisection lineage) the document answers.
        "unit": payload["unit"],
    }
    if registry.enabled:
        document["metrics"] = registry.snapshot()
    if tracer.enabled:
        # Worker spans ride home in the result document; without this
        # every span a shard child recorded was silently dropped and
        # the parent's --trace-out file showed dispatch gaps instead.
        document["spans"] = tracer.export_spans()
    if explain.enabled and len(explain):
        document["explain"] = explain.events()
    return document


def _run_train_shard(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Train one shard's blocks in the calling process.

    Module-level (not a closure) so it pickles into a supervised
    child; everything it needs arrives in the payload.
    """
    pipeline, registry = _worker_pipeline(payload["config"])
    model = pipeline.train(Family(payload["family"]), payload["per_block"],
                           payload["start"], payload["end"])
    document = _shard_document("train", payload, model.health, registry,
                               pipeline.tracer, pipeline.detector.explain)
    document["blocks"] = model_blocks_to_dict(model.histories,
                                              model.parameters)
    return document


def _run_detect_shard(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Detect over one shard's blocks in the calling process."""
    pipeline, registry = _worker_pipeline(payload["config"])
    histories, parameters = model_blocks_from_dict(payload["blocks"])
    model = TrainedModel(
        family=Family(payload["family"]), histories=histories,
        parameters=parameters, train_start=payload["train_start"],
        train_end=payload["train_end"])
    result = pipeline.detect(model, payload["per_block"],
                             payload["start"], payload["end"])
    document = _shard_document("detect", payload, result.health, registry,
                               pipeline.tracer, pipeline.detector.explain)
    document["results"] = [block_result_to_dict(result.blocks[key])
                           for key in sorted(result.blocks)]
    return document


# -- orchestration ----------------------------------------------------------


def _ensure_child_import_path() -> None:
    """Make sure child interpreters can ``import repro``.

    Spawned children, and the forkserver that preloads this module,
    build ``sys.path`` from the environment; if the parent found this
    package through an in-process path tweak rather than
    ``PYTHONPATH``, they would not.  Prepending the package root to
    ``PYTHONPATH`` (inherited by children) closes that gap without
    affecting the parent.
    """
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    existing = os.environ.get("PYTHONPATH", "")
    parts = existing.split(os.pathsep) if existing else []
    if package_root not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([package_root] + parts)


# -- supervised execution ---------------------------------------------------

#: Env var carrying the process-fault spec for the chaos suite.  The
#: literal is duplicated from :mod:`repro.testing.faults` on purpose:
#: this production module must not import the testing layer at module
#: scope (the import-health contract), and the env channel is the only
#: coupling point.
_PROCESS_FAULT_ENV = "REPRO_PROCESS_FAULTS"


class ShardFatalError(RuntimeError):
    """A shard's worker process died without a Python-level verdict.

    Base of the process-fatal outcome taxonomy.  Instances are what
    land in ``stage="supervision"`` dead letters when bisection
    isolates a poisoned block — the process-level analogue of
    :class:`~repro.core.health.BlockDataError`.
    """


class ShardCrash(ShardFatalError):
    """The worker process exited without delivering a result."""


class ShardHang(ShardFatalError):
    """The worker process overran its wall-clock deadline."""


class ShardOOM(ShardFatalError):
    """The worker process breached its resident-memory ceiling."""


class ShardWorkerError(RuntimeError):
    """A supervised worker raised a Python-level exception.

    Distinct from :class:`ShardFatalError` on purpose: per-block data
    problems are already contained *inside* the worker by the dead-
    letter scopes, so an exception escaping a worker is a harness bug —
    it propagates instead of being retried or bisected.
    """


_OUTCOME_ERRORS = {
    "crash": ShardCrash,
    "hang": ShardHang,
    "oom": ShardOOM,
}


@dataclass(frozen=True)
class SupervisionPolicy:
    """How supervised shard attempts are bounded, retried, and bisected.

    ``timeout`` is the per-attempt wall-clock deadline in seconds
    (None: no deadline); ``max_rss_mb`` the per-attempt resident-set
    ceiling in megabytes (None: unenforced; also unenforced off Linux,
    where ``/proc`` is unavailable).  ``retries`` bounds *failed*
    attempts per unit — a unit runs at most ``retries + 1`` times
    before it is bisected (or, at one block, lost).  Backoff before
    retry ``n`` is ``base * factor**(n-1)`` capped at ``cap``, scaled
    by a deterministic jitter in ``[0.5, 1.0]`` seeded from the plan
    digest and unit id, so two runs of the same plan wait identically
    and a thundering herd of retries still de-synchronises.
    """

    timeout: Optional[float] = None
    retries: int = 2
    max_rss_mb: Optional[float] = None
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_cap: float = 5.0
    poll_interval: float = 0.02

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.max_rss_mb is not None and self.max_rss_mb <= 0:
            raise ValueError("max_rss_mb must be positive (or None)")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1


def _child_context() -> Any:
    """The multiprocessing context supervised attempts start from.

    A ``forkserver`` (Linux and macOS only) preloaded with this module
    and every other module of this package the parent has imported:
    each child forks from a server that already imported numpy and the
    pipeline.  multiprocessing re-runs the parent's ``__main__`` module
    in every child (``python -m repro.cli`` re-runs the CLI module), so
    its imports must be warm too; the main module itself is left out,
    because runpy warns when it re-runs a module that is already
    imported.  Naming the preload does not start the server; the first
    ``Process.start()`` does, so importing this module stays cheap.
    """
    package = __name__.partition(".")[0]
    main = getattr(sys.modules["__main__"], "__spec__", None)
    preload = sorted(name for name in list(sys.modules)
                     if name.partition(".")[0] == package
                     and name != getattr(main, "name", None))
    context = get_context("forkserver")
    context.set_forkserver_preload(preload)
    return context


def _install_fault_spec(fault_spec: Optional[str]) -> None:
    """Make ``fault_spec``, the parent's chaos-channel value read at
    launch, this child's.  A forkserver child inherits the *server's*
    environment, frozen at its first start, so the spec must travel
    with each launch and replace whatever the inherited variable says.
    """
    if fault_spec:
        os.environ[_PROCESS_FAULT_ENV] = fault_spec
    else:
        os.environ.pop(_PROCESS_FAULT_ENV, None)


def _supervised_entry(worker: Callable[[Dict[str, Any]], Dict[str, Any]],
                      payload: Dict[str, Any], conn: Any,
                      fault_spec: Optional[str]) -> None:
    """Child-process entry point for one supervised shard attempt.

    Sends ``("ok", document)`` or ``("error", message)`` up the pipe;
    a child that dies before sending anything is the supervisor's
    ``crash`` outcome.  Module-level so it pickles.

    ``fault_spec`` is the parent's chaos-channel value at launch time
    (see :func:`_install_fault_spec`).
    """
    _install_fault_spec(fault_spec)
    try:
        if fault_spec:
            # Chaos-suite channel: only ever taken under the test env
            # var, and imported lazily so the production path never
            # touches the testing layer.
            from .testing.faults import activate_process_faults
            activate_process_faults(payload.get("keys", ()))
        document = worker(payload)
        conn.send(("ok", document))
    except BaseException as error:  # noqa: BLE001 — verdict must cross
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


def _process_rss_mb(pid: int) -> Optional[float]:
    """Resident set size of ``pid`` in MB via /proc, None off Linux."""
    try:
        with open(f"/proc/{pid}/statm", "r", encoding="ascii") as handle:
            resident_pages = int(handle.read().split()[1])
        return resident_pages * os.sysconf("SC_PAGE_SIZE") / 1e6
    except (OSError, ValueError, IndexError, AttributeError):
        return None


def _backoff_delay(policy: SupervisionPolicy, digest: str, unit_id: str,
                   failures: int) -> float:
    """Deterministic jittered exponential backoff before retry N.

    Pure function of (policy, plan digest, unit lineage, failure
    count): resumed runs and equivalence tests see identical waits,
    with no global RNG state touched.
    """
    raw = policy.backoff_base * policy.backoff_factor ** max(0, failures - 1)
    capped = min(raw, policy.backoff_cap)
    seed = f"{digest}|{unit_id}|{failures}".encode("utf-8")
    word = int.from_bytes(
        hashlib.blake2b(seed, digest_size=4).digest(), "big")
    return capped * (0.5 + 0.5 * word / 0xFFFFFFFF)


def _split_keys(keys: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Bisect a unit's (sorted) keyspace; left half takes the odd one.

    Both halves of a >1-key unit are non-empty, so every bisection
    strictly shrinks the unit — termination at single blocks is
    structural, not probabilistic.
    """
    mid = (len(keys) + 1) // 2
    return list(keys[:mid]), list(keys[mid:])


@dataclass
class _Unit:
    """One supervised execution unit: a (sub-)shard with its history."""

    unit_id: str
    index: int
    keys: List[int]
    attempts: List[str] = field(default_factory=list)

    @property
    def failures(self) -> int:
        return sum(1 for outcome in self.attempts if outcome != "ok")


@dataclass
class _Running:
    """One in-flight supervised attempt."""

    unit: _Unit
    process: Any
    conn: Any
    deadline: Optional[float]


class ShardSupervisor:
    """Run shard units in supervised child processes, bisecting poison.

    Each attempt is its own child, forked from the preloaded
    forkserver (:func:`_child_context`), with a private result pipe;
    the supervisor polls for results, deadlines, and RSS breaches,
    classifies failures (``crash``/``hang``/``oom``), retries with
    :func:`_backoff_delay`, and on retry exhaustion bisects the unit's
    keyspace (lineage ids ``"00003" -> "00003.0"/"00003.1"``)
    until single-block units either deliver or are declared *lost*.
    All attempt history and lineage state persists in the checkpoint
    manifest after every transition, so a killed run resumes without
    re-paying completed retries.
    """

    def __init__(self, stage: str,
                 worker: Callable[[Dict[str, Any]], Dict[str, Any]],
                 build_payload: Callable[[Sequence[int]], Dict[str, Any]],
                 policy: SupervisionPolicy, workers: int, digest: str,
                 n_shards: int, checkpoint_dir: Optional[str] = None,
                 metrics: Any = NULL_REGISTRY,
                 tracer: Any = NULL_TRACER) -> None:
        self._stage = stage
        self._worker = worker
        self._build_payload = build_payload
        self._policy = policy
        self._workers = max(1, workers)
        self._digest = digest
        self._n_shards = n_shards
        self._checkpoint_dir = checkpoint_dir
        self._metrics = metrics
        self._tracer = tracer
        self._ctx = _child_context()
        #: unit_id -> {"attempts": [...], "status": ...} — the exact
        #: shape persisted under ``supervision.units`` in the manifest.
        self._state: Dict[str, Dict[str, Any]] = {}
        self._attempts_metric = metrics.counter(
            "shard_attempts_total",
            "Supervised shard attempts by outcome "
            "(ok/crash/hang/oom/error)", ("outcome",))
        self._retries_metric = metrics.counter(
            "shard_retries_total", "Supervised shard attempts re-queued "
            "after a transient process failure")
        self._bisections_metric = metrics.counter(
            "shard_bisections_total",
            "Shard units split in half after exhausting their retries")

    # -- manifest state -----------------------------------------------------

    def _write_manifest(self) -> None:
        if self._checkpoint_dir is None:
            return
        write_shard_manifest(self._checkpoint_dir, {
            "stage": self._stage, "plan_digest": self._digest,
            "n_shards": self._n_shards,
            "supervision": {"units": self._state},
        })

    def _record(self, unit: _Unit, status: str, write: bool = True) -> None:
        self._state[unit.unit_id] = {"attempts": list(unit.attempts),
                                     "status": status}
        if write:
            self._write_manifest()

    def _load_state(self) -> None:
        """Adopt a prior run's unit state when its plan matches ours."""
        self._state = {}
        if self._checkpoint_dir is None:
            return
        manifest = read_shard_manifest(self._checkpoint_dir)
        if (manifest is None
                or manifest.get("plan_digest") != self._digest
                or manifest.get("stage") != self._stage):
            return
        units = manifest.get("supervision", {})
        units = units.get("units", {}) if isinstance(units, dict) else {}
        if not isinstance(units, dict):
            return
        for unit_id, entry in units.items():
            if isinstance(entry, dict):
                self._state[str(unit_id)] = {
                    "attempts": [str(o) for o in entry.get("attempts", [])],
                    "status": str(entry.get("status", "pending")),
                }

    def _load_unit_document(self, unit: _Unit) -> Optional[Dict[str, Any]]:
        """A unit's cached result document, validated against the plan."""
        if self._checkpoint_dir is None:
            return None
        status, document = load_shard_document(self._checkpoint_dir,
                                               unit.unit_id)
        if status == "corrupt":
            self._metrics.counter(
                "shard_cache_corrupt_total",
                "Corrupt cached shard files found at resume (counted, "
                "deleted, and recomputed)").inc()
            discard_shard_result(self._checkpoint_dir, unit.unit_id)
            return None
        if status != "ok":
            return None
        if (document.get("format") == SHARD_RESULT_FORMAT
                and document.get("stage") == self._stage
                and document.get("plan_digest") == self._digest
                and document.get("unit") == unit.unit_id):
            return document
        return None

    def _expand(self, unit_id: str, index: int, keys: List[int],
                ready: "deque[_Unit]", documents: Dict[str, Dict[str, Any]],
                lost: List[_Unit]) -> None:
        """Resume walker: rebuild one unit's lineage from saved state.

        Unit keyspaces are never persisted — they are re-derived from
        the (deterministic) plan plus the recorded bisection decisions,
        which is what keeps the manifest O(units), not O(blocks).
        """
        entry = self._state.get(unit_id)
        unit = _Unit(unit_id=unit_id, index=index, keys=keys,
                     attempts=list(entry["attempts"]) if entry else [])
        status = entry["status"] if entry else "pending"
        if status == "bisected" and len(keys) > 1:
            left, right = _split_keys(keys)
            self._expand(unit_id + ".0", index, left, ready, documents, lost)
            self._expand(unit_id + ".1", index, right, ready, documents, lost)
            return
        if status == "lost":
            # The prior run already paid this unit's full retry and
            # bisection bill; honouring the verdict is the whole point
            # of persisting it.
            lost.append(unit)
            return
        document = self._load_unit_document(unit)
        if document is not None:
            documents[unit_id] = document
            self._record(unit, "done", write=False)
            return
        # "done" with a vanished/corrupt file falls through: recompute.
        # Only failed attempts count against the retry budget, so the
        # recompute costs nothing it should not.
        ready.append(unit)
        self._record(unit, "pending", write=False)

    # -- child lifecycle ----------------------------------------------------

    def _launch(self, unit: _Unit) -> _Running:
        payload = dict(self._build_payload(unit.keys))
        payload["index"] = unit.index
        payload["plan_digest"] = self._digest
        payload["unit"] = unit.unit_id
        payload["keys"] = list(unit.keys)
        receiver, sender = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_supervised_entry,
            args=(self._worker, payload, sender,
                  os.environ.get(_PROCESS_FAULT_ENV)), daemon=True)
        process.start()
        sender.close()
        deadline = (None if self._policy.timeout is None
                    else _time.monotonic() + self._policy.timeout)
        return _Running(unit=unit, process=process, conn=receiver,
                        deadline=deadline)

    @staticmethod
    def _kill(slot: _Running) -> None:
        try:
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(1.0)
            if slot.process.is_alive():
                slot.process.kill()
            slot.process.join(1.0)
        finally:
            try:
                slot.conn.close()
            except Exception:
                pass

    def _poll(self, slot: _Running) -> Optional[Tuple[str, Optional[Dict]]]:
        """One supervision scan of a running attempt.

        Returns None while the attempt is still healthy, otherwise the
        reaped ``(outcome, document_or_None)``.  Liveness is read
        *before* the pipe so a child that died after sending still has
        its buffered result honoured.
        """
        alive = slot.process.is_alive()
        if slot.conn.poll(0):
            try:
                kind, value = slot.conn.recv()
            except (EOFError, OSError):
                kind, value = None, None  # torn message == crash
            self._kill(slot)
            if kind == "ok":
                return "ok", value
            if kind == "error":
                return "error", {"message": str(value)}
            return "crash", None
        if not alive:
            self._kill(slot)
            return "crash", None
        if (slot.deadline is not None
                and _time.monotonic() > slot.deadline):
            self._kill(slot)
            return "hang", None
        if self._policy.max_rss_mb is not None:
            rss = _process_rss_mb(slot.process.pid)
            if rss is not None and rss > self._policy.max_rss_mb:
                self._kill(slot)
                return "oom", None
        return None

    # -- outcome handling ---------------------------------------------------

    def _complete(self, unit: _Unit, document: Dict[str, Any],
                  documents: Dict[str, Dict[str, Any]]) -> None:
        unit.attempts.append("ok")
        self._attempts_metric.labels(outcome="ok").inc()
        documents[unit.unit_id] = document
        if self._checkpoint_dir is not None:
            save_shard_result(self._checkpoint_dir, unit.unit_id, document)
        self._record(unit, "done")

    def _failed(self, unit: _Unit, outcome: str, ready: "deque[_Unit]",
                waiting: List[Tuple[float, _Unit]],
                lost: List[_Unit]) -> None:
        unit.attempts.append(outcome)
        self._attempts_metric.labels(outcome=outcome).inc()
        if unit.failures <= self._policy.retries:
            self._retries_metric.inc()
            # Marker span: supervision decisions are part of the run's
            # timeline, so retries and bisections show up in the merged
            # trace between the worker attempts they separate.
            with self._tracer.span("shard_retry", unit=unit.unit_id,
                                   outcome=outcome,
                                   failures=unit.failures):
                pass
            delay = _backoff_delay(self._policy, self._digest, unit.unit_id,
                                   unit.failures)
            waiting.append((_time.monotonic() + delay, unit))
            self._record(unit, "pending")
        elif len(unit.keys) > 1:
            self._bisections_metric.inc()
            with self._tracer.span("shard_bisection", unit=unit.unit_id,
                                   keys=len(unit.keys)):
                pass
            self._record(unit, "bisected")
            left, right = _split_keys(unit.keys)
            for suffix, keys in (("0", left), ("1", right)):
                child = _Unit(unit_id=f"{unit.unit_id}.{suffix}",
                              index=unit.index, keys=keys)
                ready.append(child)
                self._record(child, "pending")
        else:
            self._record(unit, "lost")
            lost.append(unit)

    # -- scheduler ----------------------------------------------------------

    def execute(self, shards: Sequence[Sequence[int]],
                ) -> Tuple[List[Dict[str, Any]], List[_Unit],
                           List[ShardAttemptRecord]]:
        """Run every unit to a verdict; return (documents, lost, records).

        Documents come back sorted by lineage id (deterministic merge
        input regardless of completion order); ``lost`` holds the
        single-block units that kept killing their workers.
        """
        documents: Dict[str, Dict[str, Any]] = {}
        lost: List[_Unit] = []
        ready: "deque[_Unit]" = deque()
        waiting: List[Tuple[float, _Unit]] = []
        self._load_state()
        for index, shard in enumerate(shards):
            self._expand(f"{index:05d}", index, list(shard), ready,
                         documents, lost)
        if self._checkpoint_dir is not None:
            # After resume adoption (so in-plan corrupt files were
            # counted above), clear out files this plan can never read.
            prune_stale_shards(self._checkpoint_dir, self._digest)
        self._write_manifest()
        running: List[_Running] = []
        try:
            while ready or waiting or running:
                now = _time.monotonic()
                due = [pair for pair in waiting if pair[0] <= now]
                if due:
                    waiting = [pair for pair in waiting if pair[0] > now]
                    ready.extend(unit for _, unit in due)
                while ready and len(running) < self._workers:
                    running.append(self._launch(ready.popleft()))
                progressed = False
                for slot in list(running):
                    verdict = self._poll(slot)
                    if verdict is None:
                        continue
                    progressed = True
                    running.remove(slot)
                    outcome, value = verdict
                    if outcome == "ok":
                        self._complete(slot.unit, value, documents)
                    elif outcome == "error":
                        slot.unit.attempts.append("error")
                        self._attempts_metric.labels(outcome="error").inc()
                        self._record(slot.unit, "pending")
                        raise ShardWorkerError(
                            f"shard unit {slot.unit.unit_id} raised in "
                            f"its worker: {value['message']}")
                    else:
                        self._failed(slot.unit, outcome, ready, waiting,
                                     lost)
                if not progressed:
                    _time.sleep(self._policy.poll_interval)
        finally:
            for slot in running:
                self._kill(slot)
        records = [ShardAttemptRecord(unit=unit_id,
                                      outcomes=list(entry["attempts"]),
                                      status=entry["status"])
                   for unit_id, entry in sorted(self._state.items())]
        ordered = [documents[unit_id] for unit_id in sorted(documents)]
        return ordered, lost, records


def _run_shards(stage: str,
                worker: Callable[[Dict[str, Any]], Dict[str, Any]],
                build_payload: Callable[[Sequence[int]], Dict[str, Any]],
                shards: Sequence[Sequence[int]],
                pipeline: PassiveOutagePipeline,
                checkpoint_dir: Optional[str], digest: str,
                ) -> Tuple[List[Dict[str, Any]], List[_Unit],
                           List[ShardAttemptRecord]]:
    """Run a planned stage under a :class:`ShardSupervisor`.

    Returns ``(documents, lost_units, attempt_records)``.
    """
    _ensure_child_import_path()
    supervisor = ShardSupervisor(
        stage=stage, worker=worker, build_payload=build_payload,
        policy=pipeline.supervision or SupervisionPolicy(),
        workers=pipeline.workers or 1, digest=digest,
        n_shards=len(shards), checkpoint_dir=checkpoint_dir,
        metrics=pipeline.metrics, tracer=pipeline.tracer)
    return supervisor.execute(shards)


def _apply_supervision(report: RunHealthReport, stage_name: str,
                       planned: int, lost_units: List[_Unit],
                       lost_keys: Sequence[int],
                       records: List[ShardAttemptRecord],
                       metrics: Any) -> None:
    """Fold supervised-run delivery accounting into a merged report.

    Thin adapter over :func:`repro.core.health.fold_lost_coverage`
    (shared with the partitioned live supervisor): this wrapper only
    translates bisection units into per-block supervision errors, with
    the last non-ok attempt outcome picking the error class.  Runs
    after :func:`_merged_report` binds the registry, before the budget
    verdict, so lost blocks are judged by the error budget exactly
    like data-poisoned ones.
    """
    lost_set = set(lost_keys)
    lost_errors: Dict[int, BaseException] = {}
    for unit in sorted(lost_units, key=lambda u: u.unit_id):
        failure = next(
            (o for o in reversed(unit.attempts) if o != "ok"), "crash")
        error_cls = _OUTCOME_ERRORS.get(failure, ShardFatalError)
        error = error_cls(
            f"worker process for unit {unit.unit_id} kept dying "
            f"({failure}) through {len(unit.attempts)} attempts "
            f"[{','.join(unit.attempts)}]; block isolated by bisection")
        for key in unit.keys:
            if key in lost_set:
                lost_errors[key] = error
    fold_lost_coverage(report, stage_name, planned, lost_errors, records,
                       metrics)


def _fold_telemetry(pipeline: PassiveOutagePipeline,
                    documents: List[Dict[str, Any]]) -> bool:
    """Fold worker metric snapshots into the parent registry.

    Returns True when snapshots were folded — the signal that merged
    registries must bind to the parent's metric series *without*
    backfill (the fold already counted every dead letter and guardrail
    trip; backfilling would double them).

    Worker spans fold here too: each shard document carries the spans
    its child recorded (rebased to the wall clock), and importing them
    keeps the parent's trace file one coherent timeline across every
    process the run touched.
    """
    if pipeline.tracer.enabled:
        for document in documents:
            pipeline.tracer.import_spans(document.get("spans"))
    if pipeline.detector.explain.enabled:
        for document in documents:
            events = document.get("explain")
            if events:
                pipeline.detector.explain.extend(events)
    if not pipeline.metrics.enabled:
        return False
    folded = False
    for document in documents:
        snapshot = document.get("metrics")
        if snapshot is not None:
            pipeline.metrics.merge_snapshot(snapshot)
            folded = True
    return folded


def _merged_report(pipeline: PassiveOutagePipeline, run: str,
                   documents: List[Dict[str, Any]]) -> RunHealthReport:
    report = RunHealthReport.merged(
        (RunHealthReport.from_dict(document["health"])
         for document in documents),
        run=run, max_quarantine_frac=pipeline.budget.max_quarantine_frac)
    folded = _fold_telemetry(pipeline, documents)
    if pipeline.metrics.enabled:
        report.dead_letters.bind(dead_letter_metric(pipeline.metrics),
                                 backfill=not folded)
        report.guardrails.bind(guardrail_metric(pipeline.metrics),
                               backfill=not folded)
    return report


def sharded_train(pipeline: PassiveOutagePipeline, family: Family,
                  per_block: Mapping[int, np.ndarray],
                  start: float, end: float,
                  checkpoint_dir: Optional[str] = None) -> TrainedModel:
    """Train a model by sharding the population across workers.

    Returns a model identical (histories, parameters, dead letters,
    health accounting) to ``pipeline.train`` run sequentially; raises
    :class:`~repro.core.health.ErrorBudgetExceeded` on the *merged*
    quarantine fraction.
    """
    shards = plan_shards(per_block.keys(), pipeline.shard_chunk)
    digest = _plan_digest("train", family, start, end, shards)
    config = _pipeline_config(pipeline)

    def build_payload(shard_keys: Sequence[int]) -> Dict[str, Any]:
        return {
            "config": config, "family": int(family),
            "start": float(start), "end": float(end),
            "per_block": {key: per_block[key] for key in shard_keys
                          if key in per_block},
        }

    with pipeline.tracer.span("train_sharded", family=family.name.lower(),
                              blocks=len(per_block), shards=len(shards)):
        documents, lost_units, records = _run_shards(
            "train", _run_train_shard, build_payload, shards, pipeline,
            checkpoint_dir, digest)

    histories: Dict[int, Any] = {}
    parameters: Dict[int, Any] = {}
    for document in documents:
        shard_histories, shard_parameters = model_blocks_from_dict(
            document["blocks"])
        histories.update(shard_histories)
        parameters.update(shard_parameters)
    report = _merged_report(pipeline, "train", documents)
    # Every planned train key is a per_block key, so a lost unit's whole
    # keyspace is lost coverage.
    lost_keys = sorted({key for unit in lost_units for key in unit.keys})
    _apply_supervision(report, "train", len(per_block), lost_units,
                       lost_keys, records, pipeline.metrics)
    registry = report.dead_letters
    try:
        pipeline.budget.check("train", len(per_block), len(registry))
    except ErrorBudgetExceeded as error:
        report.budget_tripped = True
        error.report = report
        raise
    return TrainedModel(family=family, histories=histories,
                        parameters=parameters, train_start=start,
                        train_end=end, dead_letters=registry, health=report)


def sharded_detect(pipeline: PassiveOutagePipeline, model: TrainedModel,
                   per_block: Mapping[int, np.ndarray],
                   start: float, end: float,
                   checkpoint_dir: Optional[str] = None) -> PipelineResult:
    """Detect over a window by sharding the model's blocks.

    Shards partition the model's *entire* parameter keyspace (not just
    the measurable blocks), so the merged detect-stage accounting sums
    to exactly the sequential stage row.  The spatial-aggregation
    fallback runs parent-side over the merged result: a supernet's
    children may span shards, so no worker can see a whole supernet.
    """
    shards = plan_shards(model.parameters.keys(), pipeline.shard_chunk)
    digest = _plan_digest("detect", model.family, start, end, shards)
    config = _pipeline_config(pipeline)

    def build_payload(shard_keys: Sequence[int]) -> Dict[str, Any]:
        return {
            "config": config, "family": int(model.family),
            "train_start": model.train_start, "train_end": model.train_end,
            "start": float(start), "end": float(end),
            "blocks": model_blocks_to_dict(
                {key: model.histories[key] for key in shard_keys
                 if key in model.histories},
                {key: model.parameters[key] for key in shard_keys}),
            "per_block": {key: per_block[key] for key in shard_keys
                          if key in per_block},
        }

    with pipeline.tracer.span("detect_sharded",
                              family=model.family.name.lower(),
                              blocks=len(model.parameters),
                              shards=len(shards)):
        documents, lost_units, records = _run_shards(
            "detect", _run_detect_shard, build_payload, shards, pipeline,
            checkpoint_dir, digest)

    blocks = {}
    for document in documents:
        for entry in document["results"]:
            result = block_result_from_dict(entry)
            blocks[result.key] = result
    report = _merged_report(pipeline, "detect", documents)
    # The detect stage row counts measurable blocks (unmeasurable ones
    # are the aggregation fallback's problem, lost or not), so coverage
    # is judged over the measurable population.
    measurable = {key for key, params in model.parameters.items()
                  if params.measurable}
    lost_keys = sorted(
        {key for unit in lost_units for key in unit.keys} & measurable)
    _apply_supervision(report, "detect", len(measurable), lost_units,
                       lost_keys, records, pipeline.metrics)
    registry = report.dead_letters
    result = PipelineResult(family=model.family, start=start, end=end,
                            blocks=blocks, dead_letters=registry,
                            health=report)
    # Same ordering as the sequential path: the budget is judged on the
    # primary population before the best-effort aggregation fallback.
    try:
        pipeline.budget.check(
            "detect", report.stage("detect").attempted, len(registry))
    except ErrorBudgetExceeded as error:
        report.budget_tripped = True
        error.report = report
        raise
    if pipeline.aggregation_levels > 0 and model.unmeasurable_keys:
        aggregate_stage = report.stage("aggregate")
        clock = _time.perf_counter()
        with pipeline.tracer.span("aggregate",
                                  family=model.family.name.lower()):
            pipeline._detect_aggregated(model, per_block, start, end,
                                        result, registry)
        aggregate_stage.seconds = _time.perf_counter() - clock
        aggregate_stage.attempted = len(result.aggregated)
        aggregate_stage.succeeded = len(result.aggregated)
        pipeline._stage_seconds("aggregate", aggregate_stage.seconds)
    return result
