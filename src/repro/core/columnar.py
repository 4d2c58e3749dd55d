"""Columnar cohort layout for the streaming belief engine.

At population scale (the paper judges hundreds of thousands of /24s)
the per-bin hot path must be a batched array operation — Trinocular's
Bayesian rounds and Chocolatine's telescope-scale streaming both hinge
on this.  This module holds the *data layout*: cohorts of members that
share a parameter signature, as contiguous parameter columns.  The
array kernels they feed live beside their scalar oracles in
:mod:`repro.core.belief`; :class:`~repro.core.detector.StreamingDetector`
owns the orchestration (which members close when, quarantine, hot
swaps).

Design contract — one close path:

* Every streaming bin closes through a cohort: ``advance(now)`` closes
  all members sharing a boundary in one kernel call, and a block that
  packet catch-up finds lagging closes as a one-row cohort.  Close
  *scheduling* (which bins close at which boundary) is that of a
  block-at-a-time scalar loop, so audits, hot-swap boundaries,
  checkpoints, and partition splits observe bit-identical state.
* :func:`diurnal_p_empty` replicates the scalar likelihood choice
  float for float, and the kernels replicate the scalar update, so a
  batched close equals N scalar closes bit for bit.  The scalar
  block-at-a-time detector lives in the test suite, which pins this
  equality.
* Poison is screened at the close, not at admission: a member whose
  parameters are non-finite (:attr:`Cohort.poisoned_rows`) or whose
  likelihood input comes out non-finite is dead-lettered there with
  the scalar path's :class:`~repro.core.health.BlockDataError` text.  A
  malformed profile lays out as NaN factors so that screen sees it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Tuple

import numpy as np

from .history import DIURNAL_SLOTS

__all__ = ["Cohort", "build_cohorts", "diurnal_p_empty"]


@dataclass
class Cohort:
    """One parameter group's contiguous arrays (static per member).

    ``states`` hold direct references to the detector's per-block
    state objects — the detector's dicts stay authoritative; the
    cohort only caches what does not change between hot swaps.
    Per-close values (belief, counts, ``next_bin_end``) are gathered
    fresh at each boundary, so closes never invalidate the cohort.
    """

    bin_seconds: float
    keys: List[int]
    states: List[Any]
    # -- belief-update parameter columns (one row per member) --------
    p_empty_up: np.ndarray
    noise_nonempty: np.ndarray
    prior_down: np.ndarray
    prior_up_recovery: np.ndarray
    down_threshold: np.ndarray
    up_threshold: np.ndarray
    #: rows whose ``noise_nonempty``, ``prior_down`` or
    #: ``prior_up_recovery`` is non-finite (the close dead-letters them)
    poisoned_rows: FrozenSet[int]
    # -- diurnal likelihood rows -------------------------------------
    has_diurnal: np.ndarray
    mean_rate: np.ndarray
    rate_denominator: np.ndarray
    diurnal: np.ndarray   # (n, 24) shrunk factors; 1.0 where flat
    weekly: np.ndarray    # (n, 7) shrunk factors; 1.0 where flat
    #: subclass payload (the fused engine parks per-source likelihood
    #: columns and the roster signature here).
    extras: Dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.keys)


def _shrink(profile: Any, slots: int) -> np.ndarray:
    """The likelihood shrinkage of ``BlockHistory.likelihood_rate_at``:
    below-average slots at face value, above-average slots shrunk
    toward the mean (same float ops, evaluated as an array).  A profile
    that is not ``slots`` numbers yields NaN factors."""
    try:
        profile = np.asarray(profile, dtype=float)
    except (TypeError, ValueError):
        return np.full(slots, np.nan)
    if profile.shape != (slots,):
        return np.full(slots, np.nan)
    return np.where(profile < 1.0, profile, 0.75 * profile + 0.25)


def build_cohorts(entries: List[Tuple[Any, int, Any]],
                  ) -> List[Cohort]:
    """Group ``(signature, key, state)`` rows into cohorts.

    ``entries`` must be in the detector's insertion order; grouping is
    stable so member order inside a cohort matches it.
    """
    grouped: Dict[Any, List[Tuple[int, Any]]] = {}
    for signature, key, state in entries:
        grouped.setdefault(signature, []).append((key, state))
    cohorts: List[Cohort] = []
    for signature, members in grouped.items():
        keys = [key for key, _ in members]
        states = [state for _, state in members]
        n = len(states)
        params = [state.params for state in states]
        has_diurnal = np.array(
            [state.history.diurnal_profile is not None
             for state in states], dtype=bool)
        diurnal = np.ones((n, DIURNAL_SLOTS))
        weekly = np.ones((n, 7))
        for row, state in enumerate(states):
            history = state.history
            if history.diurnal_profile is not None:
                diurnal[row] = _shrink(history.diurnal_profile,
                                       DIURNAL_SLOTS)
                if history.weekly_profile is not None:
                    weekly[row] = _shrink(history.weekly_profile, 7)
        burstiness = np.array(
            [state.history.burstiness for state in states], dtype=float)
        noise = np.array([p.noise_nonempty for p in params])
        prior_down = np.array([p.prior_down for p in params])
        prior_up = np.array([p.prior_up_recovery for p in params])
        cohorts.append(Cohort(
            bin_seconds=float(states[0].params.bin_seconds),
            keys=keys,
            states=states,
            p_empty_up=np.array([p.p_empty_up for p in params]),
            noise_nonempty=noise,
            prior_down=prior_down,
            prior_up_recovery=prior_up,
            down_threshold=np.array([p.down_threshold for p in params]),
            up_threshold=np.array([p.up_threshold for p in params]),
            poisoned_rows=frozenset(np.flatnonzero(
                ~(np.isfinite(noise) & np.isfinite(prior_down)
                  & np.isfinite(prior_up))).tolist()),
            has_diurnal=has_diurnal,
            mean_rate=np.array(
                [state.history.mean_rate for state in states], dtype=float),
            rate_denominator=np.maximum(1.0, np.sqrt(burstiness)),
            diurnal=diurnal,
            weekly=weekly,
        ))
    return cohorts


def diurnal_p_empty(cohort: Cohort, rows: np.ndarray,
                    bin_start: float) -> np.ndarray:
    """Per-member P(empty bin | up) for the bin starting at
    ``bin_start`` — ``empty_bin_probability_at`` over the selected
    rows, with the tuned ``p_empty_up`` for members without a diurnal
    profile (exactly the scalar oracle's choice).
    """
    hour = int((bin_start % 86400.0) // 3600.0) % DIURNAL_SLOTS
    day = int((bin_start % (7 * 86400.0)) // 86400.0) % 7
    factor = cohort.diurnal[rows, hour] * cohort.weekly[rows, day]
    rate = (cohort.mean_rate[rows] * factor) / cohort.rate_denominator[rows]
    from_profile = np.exp(-rate * cohort.bin_seconds)
    return np.where(cohort.has_diurnal[rows], from_profile,
                    cohort.p_empty_up[rows])
