"""Checkpoint/restore for the streaming detector.

A live detector accumulates state it cannot cheaply rebuild: per-block
beliefs, hysteresis decisions, partial-bin counts, exact last-packet
timestamps, and the transition log.  Losing that state to a process
crash forces a retrain and erases in-flight outage evidence.  This
module snapshots the whole of :class:`~repro.core.detector.
StreamingDetector` (including an attached vantage sentinel) to a
versioned JSON document, following the :mod:`repro.core.serialize`
conventions: safe-to-load JSON rather than pickle, explicit format
versioning, and atomic write-temp-then-rename persistence so a crash
*during* checkpointing leaves the previous checkpoint intact.

The restore guarantee is exact: a detector restored from a checkpoint
and fed the remainder of a stream produces bit-for-bit the same events
as an uninterrupted run (pinned by the fault-injection suite).  The
trained model travels separately (it is day-scale state, already
persisted by :func:`repro.core.serialize.save_model`); the checkpoint
references it only through block keys and validates consistency on
load.
"""

from __future__ import annotations

import json
import os
import time as _time
from typing import Any, Callable, Dict, Mapping, Optional, Union

from ..net.addr import Family
from ..obs.metrics import resolve_registry
from .belief import BeliefState
from .detector import StreamingDetector
from .events import RefinementConfig
from .health import DeadLetterRegistry, ErrorBudget, GuardrailCounters
from .history import BlockHistory
from .parameters import BlockParameters
from .pipeline import TrainedModel
from .sentinel import VantageSentinel
from .serialize import (atomic_write_text, model_blocks_from_dict,
                        model_blocks_to_dict)

__all__ = ["CHECKPOINT_FORMAT_VERSION", "CheckpointFormatError",
           "detector_to_json", "detector_from_json",
           "parse_checkpoint_document", "apply_checkpoint_state",
           "save_checkpoint",
           "load_checkpoint", "save_checkpoint_rotated",
           "load_checkpoint_rotated",
           "SHARD_CHECKPOINT_FORMAT_VERSION",
           "write_shard_manifest", "read_shard_manifest",
           "save_shard_result", "load_shard_document",
           "discard_shard_result", "prune_stale_shards"]

CHECKPOINT_FORMAT_VERSION = 1

#: Format version of a sharded-run checkpoint directory (manifest plus
#: one JSON document per completed shard).
SHARD_CHECKPOINT_FORMAT_VERSION = 1


class CheckpointFormatError(ValueError):
    """Raised when a checkpoint document is malformed, from a newer
    format, or inconsistent with the model it is restored against."""


def _finite_or_none(value: Optional[float]) -> Optional[float]:
    return None if value is None else float(value)


def detector_to_json(detector: StreamingDetector,
                     extra: Optional[Dict[str, Any]] = None) -> str:
    """Serialise a streaming detector's mutable state to JSON.

    ``extra`` is an opaque JSON-able payload stored alongside the
    detector state and surfaced on restore as ``restored_extra`` — the
    hook the partitioned live worker uses to checkpoint companion state
    (reorder buffer, drift auditor, replay cursor) in the *same* atomic
    write, so detector and companions can never disagree about where
    the stream stopped.
    """
    refinement = detector.refinement
    blocks: Dict[str, Any] = {}
    for key, state in detector._states.items():
        blocks[str(key)] = {
            "belief": state.belief.belief,
            "is_up": state.belief.is_up,
            "guardrail_trips": state.belief.guardrail_trips,
            "next_bin_end": state.next_bin_end,
            "bin_count": state.bin_count,
            "last_packet": _finite_or_none(state.last_packet),
            "first_packet_this_bin": _finite_or_none(
                state.first_packet_this_bin),
            "transitions": [[time, up] for time, up in state.transitions],
        }
    document = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "family": int(detector.family),
        "start": detector.start,
        "last_time": detector.last_time,
        "refinement": {
            "guard_gaps": refinement.guard_gaps,
            "max_backfill_bins": refinement.max_backfill_bins,
            "min_event_seconds": refinement.min_event_seconds,
        },
        "blocks": blocks,
        "sentinel": (detector.sentinel.to_dict()
                     if detector.sentinel is not None else None),
        # Fault-containment state: quarantined blocks must stay
        # quarantined across a restart (their in-memory evidence is
        # gone; resurrecting them would fabricate clean-looking
        # verdicts), and guardrail accounting survives with them.
        "dead_letters": detector.dead_letters.as_dict(),
        "guardrails": detector.guardrails.as_dict(),
        "max_quarantine_frac": detector.budget.max_quarantine_frac,
        "windows_closed": detector.windows_closed,
    }
    # Drift hot-swap state (defaulted keys, format stays version 1):
    # retuned blocks carry their *current* histories/parameters — the
    # supplied model still has the originals, so restoring without
    # these would silently revert every hot-swap — and swaps staged but
    # not yet applied survive to land at their bin boundary.
    retuned = detector.retuned
    if retuned:
        document["retuned"] = model_blocks_to_dict(
            {key: pair[0] for key, pair in retuned.items()},
            {key: pair[1] for key, pair in retuned.items()})
    pending = detector.pending_swaps
    if pending:
        document["pending_swaps"] = model_blocks_to_dict(
            {key: pair[0] for key, pair in pending.items()},
            {key: pair[1] for key, pair in pending.items()})
    if extra is not None:
        document["extra"] = extra
    # Per-source fusion state (defaulted key, format stays version 1):
    # a fused detector carries one sentinel + reliability monitor per
    # vantage and per-block per-source bin counts.  Duck-typed so this
    # module needs no import of the fusion package; plain detectors
    # write byte-identical documents.
    fusion_state = getattr(detector, "checkpoint_fusion_state", None)
    if fusion_state is not None:
        document["fusion"] = fusion_state()
    # Telemetry rides along (defaulted key, format stays version 1):
    # cumulative counters survive kill-and-resume instead of resetting
    # to zero.  Omitted entirely when telemetry is off, so documents
    # from uninstrumented runs are byte-identical to older builds.
    if detector.metrics.enabled:
        document["metrics"] = detector.metrics.snapshot()
    # No indent: any indent forces CPython's pure-Python encoder, ~2.4x
    # slower on a live checkpoint.  Readers parse, never diff text.
    return json.dumps(document)


def detector_from_json(
    text: str,
    histories: Mapping[int, BlockHistory],
    parameters: Mapping[int, BlockParameters],
    metrics: Optional[Any] = None,
) -> StreamingDetector:
    """Rebuild a streaming detector from checkpoint JSON plus its model.

    Blocks present in the model but absent from the checkpoint start
    fresh (new blocks can join between checkpoints); blocks present in
    the checkpoint but unknown to the model are rejected — restoring
    against the wrong model silently corrupts every verdict.

    When the restoring process has telemetry on (``metrics`` or the
    process default registry), the checkpoint's embedded metrics
    snapshot — if any — is loaded into it, so cumulative counters
    continue from where the killed process left off.
    """
    document = parse_checkpoint_document(text)
    try:
        family = Family(document["family"])
        refinement = RefinementConfig(**document["refinement"])
        sentinel_data = document.get("sentinel")
        sentinel = (None if sentinel_data is None
                    else VantageSentinel.from_dict(sentinel_data))
        restore_clock = _time.perf_counter()
        detector = StreamingDetector(
            family, histories, parameters, float(document["start"]),
            refinement=refinement, sentinel=sentinel,
            max_quarantine_frac=float(
                document.get("max_quarantine_frac",
                             ErrorBudget().max_quarantine_frac)),
            metrics=resolve_registry(metrics))
        apply_checkpoint_state(detector, document,
                               restore_clock=restore_clock)
        return detector
    except CheckpointFormatError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointFormatError(
            f"malformed checkpoint document: {error}") from None


def parse_checkpoint_document(text: str) -> Dict[str, Any]:
    """Parse and version-check a v1 checkpoint document."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise CheckpointFormatError(f"not valid JSON: {error}") from None
    if not isinstance(document, dict):
        raise CheckpointFormatError(
            "checkpoint document must be a JSON object")
    version = document.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointFormatError(
            f"unsupported checkpoint format version {version!r} "
            f"(this build reads {CHECKPOINT_FORMAT_VERSION})")
    return document


def apply_checkpoint_state(detector: StreamingDetector,
                           document: Dict[str, Any],
                           restore_clock: Optional[float] = None) -> None:
    """Overwrite a freshly-constructed detector with checkpointed state.

    Shared by :func:`detector_from_json` and the fusion package's fused
    restore (which constructs its own detector subclass around the
    fused model, then applies the common state here).  The caller must
    have built ``detector`` against the same model the checkpoint was
    written with; per-block entries unknown to the model raise.
    """
    if restore_clock is None:
        restore_clock = _time.perf_counter()
    detector._last_time = float(document["last_time"])
    # Checkpoints from before fault containment lack these keys;
    # default to empty so they still load (format stays version 1).
    detector.dead_letters = DeadLetterRegistry.from_dict(
        document.get("dead_letters", []))
    detector.guardrails = GuardrailCounters.from_dict(
        document.get("guardrails", {}))
    for key in detector.dead_letters.keys():
        # Quarantined blocks must not restart fresh: their evidence
        # is gone and a fresh state would fabricate clean verdicts.
        detector._states.pop(key, None)
    detector.windows_closed = int(document.get("windows_closed", 0))
    detector.restored_extra = document.get("extra")
    # Re-apply hot-swapped models *before* the blocks loop: the
    # constructor installed the supplied (pre-drift) model, and the
    # loop below then overwrites the belief numbers and bin cursor,
    # so order here means a retuned block resumes with its retuned
    # parameters and its checkpointed belief — exactly the state it
    # was killed with.
    retuned_doc = document.get("retuned")
    if retuned_doc:
        r_histories, r_parameters = model_blocks_from_dict(retuned_doc)
        for key in sorted(r_parameters):
            state = detector._states.get(key)
            if state is None:
                continue
            params = r_parameters[key]
            state.params = params
            state.history = r_histories[key]
            state.belief = BeliefState(params)
            detector.histories[key] = r_histories[key]
            detector._retuned[key] = (r_histories[key], params)
    pending_doc = document.get("pending_swaps")
    if pending_doc:
        p_histories, p_parameters = model_blocks_from_dict(pending_doc)
        detector._pending_swaps = {
            key: (p_histories[key], p_parameters[key])
            for key in sorted(p_parameters)
            if key in detector._states}
    for key_text, entry in document["blocks"].items():
        key = int(key_text)
        state = detector._states.get(key)
        if state is None:
            if key in detector.dead_letters:
                continue
            raise CheckpointFormatError(
                f"checkpoint block {key:#x} is not a measurable "
                f"block of the supplied model")
        state.belief.belief = float(entry["belief"])
        state.belief.is_up = bool(entry["is_up"])
        state.belief.guardrail_trips = int(
            entry.get("guardrail_trips", 0))
        state.next_bin_end = float(entry["next_bin_end"])
        state.bin_count = int(entry["bin_count"])
        last_packet = entry.get("last_packet")
        state.last_packet = (None if last_packet is None
                             else float(last_packet))
        first = entry.get("first_packet_this_bin")
        state.first_packet_this_bin = (None if first is None
                                       else float(first))
        state.transitions = [(float(time), bool(up))
                             for time, up in entry["transitions"]]
    # The restore rewrote per-block params/histories in place; any
    # columnar cohorts built against the pre-restore model are stale.
    invalidate = getattr(detector, "_invalidate_cohorts", None)
    if invalidate is not None:
        invalidate()
    if detector.metrics.enabled:
        snapshot = document.get("metrics")
        if snapshot is not None:
            detector.metrics.restore(snapshot)
        # Rebind the restored health registries to the (restored)
        # metric series.  Backfill only when the checkpoint carried
        # no snapshot — a snapshot already counts those entries, so
        # backfilling again would double them.
        detector._register_metrics(backfill=snapshot is None)
        detector.metrics.histogram(
            "checkpoint_restore_seconds",
            "Wall-time of one checkpoint restore").observe(
                _time.perf_counter() - restore_clock)


PathLike = Union[str, "Any"]


def save_checkpoint(detector: StreamingDetector, path: PathLike,
                    extra: Optional[Dict[str, Any]] = None) -> None:
    """Atomically persist a detector checkpoint to ``path``."""
    clock = (_time.perf_counter() if detector.metrics.enabled else None)
    atomic_write_text(path, detector_to_json(detector, extra=extra))
    if clock is not None:
        detector.metrics.histogram(
            "checkpoint_save_seconds",
            "Wall-time of one atomic checkpoint write").observe(
                _time.perf_counter() - clock)
        detector.metrics.counter(
            "checkpoints_saved_total", "Checkpoints written").inc()


def _generation_path(base: str, generation: int) -> str:
    return base if generation == 0 else f"{base}.{generation}"


def save_checkpoint_rotated(detector: StreamingDetector, path: PathLike,
                            keep: int = 3,
                            extra: Optional[Dict[str, Any]] = None) -> None:
    """Persist a checkpoint, keeping the last ``keep`` generations.

    ``path`` is always the newest generation; older ones shift to
    ``path.1`` … ``path.{keep-1}`` and the oldest is dropped.  The
    rotation happens *before* the atomic write, so at every instant at
    least one complete previous generation exists on disk — a crash
    mid-save (or a save that lands corrupt for any reason outside the
    rename's atomicity, e.g. later bit rot) can never leave a partition
    with zero restorable state.
    """
    if keep < 1:
        raise ValueError("keep must be >= 1")
    base = os.fspath(path)
    for generation in range(keep - 1, 0, -1):
        try:
            os.replace(_generation_path(base, generation - 1),
                       _generation_path(base, generation))
        except OSError:
            pass  # newer generation absent (first saves): nothing to shift
    save_checkpoint(detector, base, extra=extra)


def load_checkpoint_rotated(path: PathLike, model: "TrainedModel",
                            metrics: Optional[Any] = None,
                            keep: int = 3,
                            loader: Optional[Callable[[str],
                                                      StreamingDetector]]
                            = None) -> StreamingDetector:
    """Restore from the newest loadable checkpoint generation.

    Tries ``path``, then ``path.1`` … ``path.{keep-1}``; a missing or
    corrupt generation falls through to the next-older one (the
    tolerance :func:`load_shard_document` gives cached shards, applied
    to the rotation chain).  Raises :class:`CheckpointFormatError` only
    when *no* generation is restorable.
    """
    base = os.fspath(path)
    last_error: Optional[Exception] = None
    for generation in range(max(1, keep)):
        candidate = _generation_path(base, generation)
        try:
            return load_checkpoint(candidate, model, metrics=metrics,
                                   loader=loader)
        except FileNotFoundError:
            continue
        except (OSError, CheckpointFormatError) as error:
            last_error = error
            continue
    if last_error is not None:
        raise CheckpointFormatError(
            f"no restorable checkpoint generation at {base} "
            f"(newest failure: {last_error})") from last_error
    raise FileNotFoundError(base)


def _shard_path(directory: PathLike, unit: str) -> str:
    """Cached document of one execution unit, named by its lineage id
    (``shard-00003.json``, ``shard-00003.0.1.json``)."""
    return os.path.join(os.fspath(directory), f"shard-{unit}.json")


def write_shard_manifest(directory: PathLike,
                         manifest: Dict[str, Any]) -> None:
    """Atomically persist a sharded run's plan manifest.

    The manifest identifies the plan (stage, window, chunking, and a
    digest of the block keyspace) so a resume can tell cached shard
    results from stale ones left by a differently-planned earlier run.
    """
    document = dict(manifest)
    document["format_version"] = SHARD_CHECKPOINT_FORMAT_VERSION
    os.makedirs(os.fspath(directory), exist_ok=True)
    atomic_write_text(os.path.join(os.fspath(directory), "manifest.json"),
                      json.dumps(document, indent=1))


def read_shard_manifest(directory: PathLike) -> Optional[Dict[str, Any]]:
    """The manifest of a sharded checkpoint directory, or None.

    Missing, unreadable, or future-versioned manifests all read as
    None — resume is best-effort, and "recompute everything" is always
    a correct answer.
    """
    path = os.path.join(os.fspath(directory), "manifest.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(document, dict):
        return None
    if document.get("format_version") != SHARD_CHECKPOINT_FORMAT_VERSION:
        return None
    return document


def save_shard_result(directory: PathLike, unit: str,
                      document: Dict[str, Any]) -> None:
    """Atomically persist one completed shard's result document.

    Written as each shard finishes, so a killed run resumes with every
    *completed* shard served from disk and only the remainder
    recomputed.  Atomicity matters doubly here: a torn shard file would
    otherwise poison the resume that is supposed to rescue the run.
    """
    os.makedirs(os.fspath(directory), exist_ok=True)
    atomic_write_text(_shard_path(directory, unit),
                      json.dumps(document, indent=1))


def load_shard_document(directory: PathLike, unit: str,
                        ) -> "tuple[str, Optional[Dict[str, Any]]]":
    """One cached shard document with its read status.

    Returns ``(status, document)`` where status is ``"ok"`` (document
    parsed), ``"missing"`` (no such file — the shard was simply never
    completed), or ``"corrupt"`` (a file *exists* but cannot be parsed
    — a torn write or bit rot).  The distinction matters: a missing
    shard is the normal resume case, while a corrupt one is an
    infrastructure fault the caller should count
    (``shard_cache_corrupt_total``) and delete so the resume rewrites
    it instead of tripping over it forever.
    """
    path = _shard_path(directory, unit)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        return "missing", None
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return "corrupt", None
    if not isinstance(document, dict):
        return "corrupt", None
    return "ok", document


def discard_shard_result(directory: PathLike, unit: str) -> None:
    """Best-effort removal of one cached shard file (corrupt/stale)."""
    try:
        os.remove(_shard_path(directory, unit))
    except OSError:
        pass


def prune_stale_shards(directory: PathLike, digest: str) -> int:
    """Delete cached shard files that do not belong to ``digest``.

    A checkpoint directory reused across differently-planned runs
    accumulates ``shard-*.json`` files the new plan can never read
    (their ``plan_digest`` mismatches, or they are unparseable with no
    attributable plan at all) — without pruning they sit on disk
    forever.  Called at plan time; returns the number removed.  The
    manifest itself is left alone (the caller rewrites it).
    """
    try:
        names = os.listdir(os.fspath(directory))
    except OSError:
        return 0
    removed = 0
    for name in sorted(names):
        if not (name.startswith("shard-") and name.endswith(".json")):
            continue
        path = os.path.join(os.fspath(directory), name)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            stale = (not isinstance(document, dict)
                     or document.get("plan_digest") != digest)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            stale = True
        if stale:
            try:
                os.remove(path)
                removed += 1
            except OSError:
                pass
    return removed


def load_checkpoint(path: PathLike, model: TrainedModel,
                    metrics: Optional[Any] = None,
                    loader: Optional[Callable[[str], StreamingDetector]]
                    = None) -> StreamingDetector:
    """Restore a detector from ``path`` against a trained model.

    The checkpoint's address family must match the model's.  ``loader``
    overrides the document-to-detector step (the fused live path passes
    a closure over :func:`repro.fusion.fused_detector_from_json`);
    family validation is then the loader's job.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if loader is not None:
        return loader(text)
    detector = detector_from_json(text, model.histories, model.parameters,
                                  metrics=metrics)
    if detector.family is not model.family:
        raise CheckpointFormatError(
            f"checkpoint family {detector.family} does not match model "
            f"family {model.family}")
    return detector
