"""Model-drift detection and rolling retraining.

A trained per-block model ages: providers renumber, resolver
deployments move, traffic engineering shifts rates.  A block whose
*current* healthy traffic no longer matches its trained model produces
either false outages (rate fell) or lost sensitivity (rate rose).
This module watches for that drift and drives rolling retraining — the
operational glue a long-running deployment needs around the paper's
train-once pipeline.

Drift is judged on *up* time only: comparing a day that contains a real
outage against the trained rate would flag every outage as drift, so
the audit first masks the detector's own down intervals.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import (Callable, Deque, Dict, List, Mapping, Optional, Tuple)

import numpy as np

from ..timeline import Timeline, total_duration
from .detector import BlockResult
from .history import BlockHistory, train_history
from .parameters import BlockParameters, ParameterPlanner
from .pipeline import TrainedModel

__all__ = ["DriftVerdict", "BlockDrift", "audit_drift", "refresh_model",
           "RollingRateAuditor", "retune_block"]


class DriftVerdict(enum.Enum):
    """Outcome of a drift audit for one block."""

    STABLE = "stable"
    RATE_ROSE = "rate-rose"
    RATE_FELL = "rate-fell"
    INSUFFICIENT = "insufficient-uptime"


@dataclass(frozen=True)
class BlockDrift:
    """One block's drift measurement."""

    key: int
    trained_rate: float
    observed_rate: float
    up_seconds: float
    verdict: DriftVerdict

    @property
    def ratio(self) -> float:
        """Observed/trained rate (inf when trained rate was zero)."""
        if self.trained_rate == 0:
            return float("inf") if self.observed_rate > 0 else 1.0
        return self.observed_rate / self.trained_rate

    @property
    def needs_retraining(self) -> bool:
        return self.verdict in (DriftVerdict.RATE_ROSE,
                                DriftVerdict.RATE_FELL)


def _observed_up_rate(times: np.ndarray,
                      timeline: Timeline) -> Tuple[float, float]:
    """Arrival rate over the block's detected-up intervals only."""
    up_intervals = timeline.up_intervals
    up_seconds = total_duration(up_intervals)
    if up_seconds <= 0:
        return 0.0, 0.0
    count = 0
    for start, end in up_intervals:
        left = int(np.searchsorted(times, start, side="left"))
        right = int(np.searchsorted(times, end, side="left"))
        count += right - left
    return count / up_seconds, up_seconds


def audit_drift(
    model: TrainedModel,
    results: Mapping[int, BlockResult],
    per_block: Mapping[int, np.ndarray],
    drift_factor: float = 2.0,
    min_up_seconds: float = 4.0 * 3600.0,
    min_arrivals: int = 20,
) -> Dict[int, BlockDrift]:
    """Compare each block's healthy-time rate against its trained rate.

    A block drifts when its observed up-time rate leaves
    ``[trained/drift_factor, trained*drift_factor]``.  The tolerance is
    deliberately wide: normal diurnal and sampling variation must not
    trigger daily retraining churn.
    """
    if drift_factor <= 1.0:
        raise ValueError("drift_factor must exceed 1")
    audits: Dict[int, BlockDrift] = {}
    for key, result in results.items():
        history = model.histories.get(key)
        if history is None:
            continue
        times = np.asarray(per_block.get(key, np.empty(0)), dtype=float)
        observed_rate, up_seconds = _observed_up_rate(times,
                                                      result.timeline)
        observed_count = observed_rate * up_seconds
        if up_seconds < min_up_seconds or observed_count < min_arrivals:
            verdict = DriftVerdict.INSUFFICIENT
        elif observed_rate > history.mean_rate * drift_factor:
            verdict = DriftVerdict.RATE_ROSE
        elif observed_rate < history.mean_rate / drift_factor:
            verdict = DriftVerdict.RATE_FELL
        else:
            verdict = DriftVerdict.STABLE
        audits[key] = BlockDrift(
            key=key,
            trained_rate=history.mean_rate,
            observed_rate=observed_rate,
            up_seconds=up_seconds,
            verdict=verdict,
        )
    return audits


def refresh_model(
    model: TrainedModel,
    audits: Mapping[int, BlockDrift],
    per_block: Mapping[int, np.ndarray],
    window_start: float,
    window_end: float,
    planner: Optional[ParameterPlanner] = None,
    learn_diurnal: bool = True,
) -> Tuple[TrainedModel, List[int]]:
    """Retrain only the drifted blocks on the new window.

    Returns ``(new_model, retrained_keys)``.  Stable blocks keep their
    existing histories and parameters, so a daily refresh touches the
    few blocks that actually moved.
    """
    planner = planner or ParameterPlanner()
    histories: Dict[int, BlockHistory] = dict(model.histories)
    parameters: Dict[int, BlockParameters] = dict(model.parameters)
    retrained: List[int] = []
    for key, audit in audits.items():
        if not audit.needs_retraining:
            continue
        times = per_block.get(key)
        if times is None:
            continue
        history = train_history(times, window_start, window_end,
                                learn_diurnal)
        histories[key] = history
        parameters[key] = planner.plan_block(history)
        retrained.append(key)
    refreshed = TrainedModel(
        family=model.family,
        histories=histories,
        parameters=parameters,
        train_start=model.train_start,
        train_end=window_end,
    )
    return refreshed, sorted(retrained)


def retune_block(times: np.ndarray, window_start: float, window_end: float,
                 planner: Optional[ParameterPlanner] = None,
                 learn_diurnal: bool = True,
                 ) -> Tuple[BlockHistory, BlockParameters]:
    """Re-estimate one block's model from a rolling arrival window.

    The incremental counterpart of :func:`refresh_model`: the live path
    retunes exactly the block that drifted, from exactly the arrivals
    its rolling auditor retained, without touching the rest of the
    population.  Raises :class:`~repro.core.health.BlockDataError` on
    poisoned arrivals, same as batch training.
    """
    planner = planner or ParameterPlanner()
    history = train_history(np.asarray(times, dtype=float),
                            window_start, window_end, learn_diurnal)
    return history, planner.plan_block(history)


class RollingRateAuditor:
    """Streaming drift audit over per-block rolling arrival windows.

    The batch audit (:func:`audit_drift`) needs a finished detection
    window; a live monitor cannot wait for one.  This auditor keeps
    each block's arrivals over the trailing ``window_seconds`` and, at
    every ``audit_every`` boundary, compares the block's rolling rate
    against its trained rate — *only* for blocks that were up for the
    whole trailing window with no transitions in it, the streaming
    analogue of the batch audit's up-time-only masking (a block in or
    near an outage would otherwise flag as drift).

    Deliberately decoupled from the detector: the caller supplies an
    eligibility predicate and the trained rates, so this class owns
    only the arrival bookkeeping and the verdict arithmetic.  State
    round-trips through :meth:`to_dict`/:meth:`from_dict` so a live
    worker's checkpoint can carry it and a restart audits identically.
    """

    def __init__(self, start: float, audit_every: float,
                 window_seconds: Optional[float] = None,
                 drift_factor: float = 2.0,
                 min_arrivals: int = 20) -> None:
        if audit_every <= 0:
            raise ValueError("audit_every must be positive")
        if drift_factor <= 1.0:
            raise ValueError("drift_factor must exceed 1")
        self.audit_every = float(audit_every)
        self.window_seconds = float(window_seconds
                                    if window_seconds else audit_every)
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.drift_factor = float(drift_factor)
        self.min_arrivals = int(min_arrivals)
        self.next_boundary = float(start) + self.audit_every
        self._arrivals: Dict[int, Deque[float]] = {}

    def note(self, key: int, time: float) -> None:
        """Record one arrival for ``key`` (monotone stream order)."""
        queue = self._arrivals.get(key)
        if queue is None:
            queue = deque()
            self._arrivals[key] = queue
        queue.append(float(time))

    def note_batch(self, keys: np.ndarray, times: np.ndarray) -> None:
        """Record many arrivals at once (each key's rows in stream order)."""
        if not len(keys):
            return
        order = np.argsort(keys, kind="stable")
        keys, times = keys[order], times[order].tolist()
        starts = np.flatnonzero(np.concatenate(([True],
                                               keys[1:] != keys[:-1])))
        bounds = starts.tolist() + [len(times)]
        for key, low, high in zip(keys[starts].tolist(), bounds,
                                  bounds[1:]):
            queue = self._arrivals.get(key)
            if queue is None:
                queue = deque()
                self._arrivals[key] = queue
            queue.extend(times[low:high])

    def arrivals(self, key: int) -> List[float]:
        """The retained arrivals for one block, oldest first."""
        return list(self._arrivals.get(key, ()))

    def _prune(self, horizon: float) -> None:
        for key in list(self._arrivals):
            queue = self._arrivals[key]
            while queue and queue[0] < horizon:
                queue.popleft()
            if not queue:
                del self._arrivals[key]

    def audit(self, boundary: float,
              eligible: Callable[[int], bool],
              trained_rate: Callable[[int], Optional[float]],
              ) -> Dict[int, BlockDrift]:
        """Drift verdicts at ``boundary`` over ``[boundary - W, boundary)``.

        ``eligible(key)`` must return True only for blocks whose whole
        trailing window was healthy up-time (the caller reads that off
        the detector); ``trained_rate(key)`` returns the model rate or
        None for untracked blocks.  Returns only the blocks that
        *drifted* — stable and ineligible blocks are omitted, keeping
        the hot path allocation-free when nothing moved.  Keys audit in
        sorted order so retune side effects are deterministic.
        """
        window_start = boundary - self.window_seconds
        self._prune(window_start)
        drifted: Dict[int, BlockDrift] = {}
        for key in sorted(self._arrivals):
            queue = self._arrivals[key]
            count = sum(1 for t in queue if t < boundary)
            if count < self.min_arrivals or not eligible(key):
                continue
            rate = trained_rate(key)
            if rate is None or rate <= 0:
                continue
            observed = count / self.window_seconds
            if observed > rate * self.drift_factor:
                verdict = DriftVerdict.RATE_ROSE
            elif observed < rate / self.drift_factor:
                verdict = DriftVerdict.RATE_FELL
            else:
                continue
            drifted[key] = BlockDrift(
                key=key, trained_rate=rate, observed_rate=observed,
                up_seconds=self.window_seconds, verdict=verdict)
        return drifted

    # -- checkpoint support -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "audit_every": self.audit_every,
            "window_seconds": self.window_seconds,
            "drift_factor": self.drift_factor,
            "min_arrivals": self.min_arrivals,
            "next_boundary": self.next_boundary,
            "arrivals": {str(key): list(queue)
                         for key, queue in sorted(self._arrivals.items())},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RollingRateAuditor":
        auditor = cls(
            start=0.0,
            audit_every=float(data["audit_every"]),
            window_seconds=float(data["window_seconds"]),
            drift_factor=float(data["drift_factor"]),
            min_arrivals=int(data["min_arrivals"]))
        auditor.next_boundary = float(data["next_boundary"])
        auditor._arrivals = {
            int(key): deque(float(t) for t in times)
            for key, times in dict(data.get("arrivals", {})).items()}
        return auditor
