"""Bayesian belief over block state — the B(a) of the poster.

A block is modelled as a two-state (up/down) hidden Markov chain
observed through its traffic: each time bin yields a count, and the
belief B(a) = P(up | history) is filtered forward bin by bin.

Likelihoods use presence/absence of traffic, which is robust to rate
misestimation: the informative observation is an *empty* bin, whose
probability under "up" is the tuned ``p_empty_up`` and under "down" is
``1 - noise_nonempty`` (spoofed strays aside, a down block is silent).
For non-empty bins the count magnitude is additionally informative for
blocks with meaningful rates (many packets cannot be noise), handled by
a capped count-likelihood ratio.

The recurrence is written once, in two forms pinned bit for bit:

* the scalar oracles — :class:`BeliefState` (one block, one bin) and,
  for multi-vantage fusion, :func:`bin_log_likelihood_ratio` plus
  :func:`fused_posterior`;
* the array kernels — :func:`columnar_update`, :func:`columnar_llr`
  and :func:`columnar_fused_posterior` — which replicate the scalar
  float operations in the same order over many blocks at once (numpy
  ufuncs round identically for array and scalar operands).

Every array path drives the kernels.  The batch passes
(:func:`guarded_belief_pass`, :func:`fused_belief_pass`) call them once
per bin over a whole population, and the streaming detector once per
shared bin boundary over a cohort (:mod:`repro.core.columnar`).  The
passes add only input screening around them: guardrail trips, masked
entries and pinned rows.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from .health import BlockDataError, GuardrailCounters
from .parameters import BlockParameters

__all__ = ["BeliefState", "columnar_update", "guarded_belief_pass",
           "bin_log_likelihood_ratio", "columnar_llr", "fused_posterior",
           "columnar_fused_posterior", "fused_belief_pass",
           "BELIEF_FLOOR", "BELIEF_CEIL"]

#: Belief clamp bounds; keep strictly inside (0, 1) so evidence can
#: always move the posterior back (no absorbing states).
BELIEF_FLOOR = 1e-6
BELIEF_CEIL = 1.0 - 1e-6

#: Cap on the per-bin likelihood ratio contributed by count magnitude.
#: Prevents a single flood bin from pinning the posterior so hard that
#: a genuine outage takes many bins to surface.
_COUNT_RATIO_CAP = 1e6

#: Probability clamp for degenerate likelihood parameters.  A
#: ``p_empty_up`` of exactly 0 or 1 makes one of the likelihood terms
#: vanish and the posterior absorbing; clamping strictly inside (0, 1)
#: keeps every bin's evidence finite and reversible.
_PROB_EPS = 1e-9


@dataclass
class BeliefState:
    """Streaming belief filter for one block.

    Tracks the posterior ``belief`` and a hysteresis ``is_up`` decision:
    the state flips down when belief falls below the down threshold and
    back up when it exceeds the up threshold, so beliefs wandering the
    middle ground do not flap.
    """

    params: BlockParameters
    belief: float = BELIEF_CEIL
    is_up: bool = True
    #: numerical-guardrail trips absorbed by this block (NaN/inf counts
    #: neutralised, degenerate likelihoods clamped); surfaced by the
    #: streaming detector's run health report.
    guardrail_trips: int = 0

    def update(self, count: int,
               p_empty_up: Optional[float] = None) -> bool:
        """Consume one bin's arrival count; returns the new up/down state.

        ``p_empty_up`` overrides the tuned empty-bin likelihood for this
        bin — the streaming detector passes the diurnal-aware value of
        :meth:`repro.core.history.BlockHistory.empty_bin_probability_at`.

        Numerical guardrails: a non-finite or negative ``count`` is
        neutralised to a no-evidence bin (prediction only), and a
        degenerate ``p_empty_up`` (at or beyond 0/1) is clamped strictly
        inside (0, 1); both increment :attr:`guardrail_trips`.  A
        non-finite ``p_empty_up`` raises :class:`BlockDataError` — the
        block's model itself is poisoned and the caller must quarantine,
        not filter on garbage.
        """
        params = self.params
        p_empty = (params.p_empty_up if p_empty_up is None
                   else p_empty_up)
        if not np.isfinite(p_empty):
            raise BlockDataError(
                f"non-finite p_empty_up {p_empty!r}: block model is "
                f"poisoned (bad history or parameters)")
        if not (np.isfinite(params.noise_nonempty)
                and np.isfinite(params.prior_down)
                and np.isfinite(params.prior_up_recovery)):
            # Matches the vectorised pass, which masks (and the detector
            # quarantines) rows with non-finite parameters; silently
            # filtering on garbage would diverge from it.
            raise BlockDataError(
                "non-finite likelihood/prior parameters: block model is "
                "poisoned (bad history or parameters)")
        if p_empty <= 0.0 or p_empty >= 1.0:
            p_empty = min(max(p_empty, _PROB_EPS), 1.0 - _PROB_EPS)
            self.guardrail_trips += 1
        count_valid = np.isfinite(count) and count >= 0
        if not count_valid:
            self.guardrail_trips += 1
        # Prediction step: apply the state-transition prior.
        belief = (self.belief * (1.0 - params.prior_down)
                  + (1.0 - self.belief) * params.prior_up_recovery)
        # Correction step: weigh the observation.  A poisoned count is
        # no evidence either way (likelihood 1 under both states).
        if not count_valid:
            likelihood_up = 1.0
            likelihood_down = 1.0
        elif count == 0:
            likelihood_up = p_empty
            likelihood_down = 1.0 - params.noise_nonempty
        else:
            # Arrivals are near-proof of up even in a quiet hour (floor),
            # and multiple packets make "noise" exponentially less
            # plausible: one extra factor of 1/8 per extra packet, capped.
            likelihood_up = max(1.0 - p_empty, 1e-3)
            likelihood_down = params.noise_nonempty * max(
                8.0 ** -(count - 1), 1.0 / _COUNT_RATIO_CAP)
        numerator = belief * likelihood_up
        denominator = numerator + (1.0 - belief) * likelihood_down
        belief = numerator / denominator if denominator > 0 else belief
        self.belief = float(np.clip(belief, BELIEF_FLOOR, BELIEF_CEIL))
        if self.is_up and self.belief <= params.down_threshold:
            self.is_up = False
        elif not self.is_up and self.belief >= params.up_threshold:
            self.is_up = True
        return self.is_up


def columnar_update(belief: np.ndarray, is_up: np.ndarray,
                    counts: np.ndarray, p_empty: np.ndarray,
                    noise_nonempty: np.ndarray, prior_down: np.ndarray,
                    prior_up_recovery: np.ndarray,
                    down_threshold: np.ndarray,
                    up_threshold: np.ndarray,
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised :meth:`BeliefState.update`: one bin for many blocks.

    Every branch of the scalar update is replicated operation for
    operation, the no-evidence branch included: a non-finite or
    negative count weighs 1 under both states.  ``p_empty`` must be
    finite (the scalar form raises on it; callers screen it first).
    Returns ``(new_belief, new_up, guardrail_trips)``.
    """
    degenerate = (p_empty <= 0.0) | (p_empty >= 1.0)
    p = p_empty
    if np.count_nonzero(degenerate):
        # The scalar oracle clamps ONLY the degenerate rows — an
        # in-range p_empty is consumed at face value, however tiny.
        p = np.where(degenerate,
                     np.minimum(np.maximum(p_empty, _PROB_EPS),
                                1.0 - _PROB_EPS),
                     p_empty)
    no_evidence = ~(counts >= 0)  # NaN compares False
    if counts.dtype.kind == "f":
        no_evidence |= np.isinf(counts)
    predicted = (belief * (1.0 - prior_down)
                 + (1.0 - belief) * prior_up_recovery)
    empty = counts == 0
    likelihood_up = np.where(empty, p, np.maximum(1.0 - p, 1e-3))
    with np.errstate(all="ignore"):
        discount = np.maximum(8.0 ** -(counts - 1),
                              1.0 / _COUNT_RATIO_CAP)
        likelihood_down = np.where(empty, 1.0 - noise_nonempty,
                                   noise_nonempty * discount)
        if np.count_nonzero(no_evidence):
            likelihood_up = np.where(no_evidence, 1.0, likelihood_up)
            likelihood_down = np.where(no_evidence, 1.0, likelihood_down)
        numerator = predicted * likelihood_up
        denominator = numerator + (1.0 - predicted) * likelihood_down
        positive = denominator > 0
        updated = np.where(positive,
                           numerator / np.where(positive, denominator, 1.0),
                           predicted)
    updated = np.minimum(np.maximum(updated, BELIEF_FLOOR), BELIEF_CEIL)
    new_up = np.where(is_up, updated > down_threshold,
                      updated >= up_threshold)
    return updated, new_up, degenerate.astype(np.int64) + no_evidence


def _screen(counts: np.ndarray, p_empty: np.ndarray, noise: np.ndarray,
            bad_params: np.ndarray, guardrails: GuardrailCounters,
            ) -> Tuple[np.ndarray, np.ndarray]:
    """Trip the input guardrails of one batch pass (or one source).

    Returns ``(no_evidence, bad_params)``: the count entries the
    kernels treat as no evidence (non-finite or negative), and the rows
    that cannot be filtered — ``bad_params`` widened by any non-finite
    ``noise`` or ``p_empty`` entry.  Degenerate ``p_empty`` entries are
    only counted here; the kernels clamp them.
    """
    nonfinite = ~np.isfinite(counts)
    negative = counts < 0  # NaN compares False
    guardrails.trip("nonfinite_count", int(nonfinite.sum()))
    guardrails.trip("negative_count", int(negative.sum()))
    finite_p = np.isfinite(p_empty)
    bad_params = bad_params | ~np.isfinite(noise) | ~(
        finite_p.all(axis=1) if finite_p.ndim == 2 else finite_p)
    guardrails.trip("nonfinite_parameter", int(bad_params.sum()))
    degenerate = finite_p & ((p_empty <= 0.0) | (p_empty >= 1.0))
    guardrails.trip("degenerate_p_empty", int(degenerate.sum()))
    return nonfinite | negative, bad_params


def _run_bins(step: Callable[[int, np.ndarray, np.ndarray],
                             Tuple[np.ndarray, np.ndarray]],
              n_blocks: int, n_bins: int,
              initial_belief: Optional[np.ndarray], return_beliefs: bool,
              pinned: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Drive ``step(bin_index, belief, up) -> (belief, up)`` across the
    bin grid; returns the ``(states, beliefs)`` trajectories.

    A ``pinned`` row was filtered on substitute parameters and is not a
    verdict: it is pinned "up" so no phantom events leak out should a
    caller ignore the poisoned mask.  Rows poisoned only through their
    counts keep the neutralised trajectory — bit-identical to the
    scalar filter's no-evidence handling.
    """
    belief = np.full(n_blocks, BELIEF_CEIL)
    if initial_belief is not None:
        belief = np.clip(np.asarray(initial_belief, dtype=float),
                         BELIEF_FLOOR, BELIEF_CEIL)
    up = np.ones(n_blocks, dtype=bool)
    states = np.empty((n_blocks, n_bins), dtype=bool)
    beliefs = np.empty((n_blocks, n_bins)) if return_beliefs else None
    for bin_index in range(n_bins):
        belief, up = step(bin_index, belief, up)
        states[:, bin_index] = up
        if beliefs is not None:
            beliefs[:, bin_index] = belief
    if pinned.any():
        states[pinned] = True
        if beliefs is not None:
            beliefs[pinned] = BELIEF_CEIL
    return states, beliefs


def _record_pass(metrics: Optional[Any], path: str, bins: int,
                 pass_clock: Optional[float]) -> None:
    """Meter one batch pass.  The fused pass counts source-bins, so the
    two passes write incomparable units; the ``path`` label keeps each
    series a like-for-like baseline."""
    if metrics is None:
        return
    metrics.counter(
        "belief_bins_total",
        "Bins filtered by the vectorised belief pass",
        labelnames=("path",)).labels(path=path).inc(bins)
    if pass_clock is not None:
        metrics.histogram(
            "belief_pass_seconds",
            "Wall-time of one vectorised belief pass",
            labelnames=("path",)).labels(path=path).observe(
                _time.perf_counter() - pass_clock)


def guarded_belief_pass(
    counts: np.ndarray,
    p_empty_up: np.ndarray,
    noise_nonempty: np.ndarray,
    prior_down: np.ndarray,
    prior_up_recovery: np.ndarray,
    down_threshold: float = 0.1,
    up_threshold: float = 0.9,
    initial_belief: Optional[np.ndarray] = None,
    return_beliefs: bool = False,
    guardrails: Optional[GuardrailCounters] = None,
    metrics: Optional[Any] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """Filter a whole population of blocks at once, one
    :func:`columnar_update` per bin.

    ``counts`` is ``(n_blocks, n_bins)``; all blocks in one call share a
    bin size (the detector groups them so).  ``p_empty_up`` is a
    per-block vector or a ``(n_blocks, n_bins)`` matrix for
    time-varying (diurnal-aware) likelihoods; ``noise_nonempty``,
    ``prior_down`` and ``prior_up_recovery`` are per-block vectors.
    ``return_beliefs`` also returns the full belief trajectory
    (debugging / plotting; costs memory).

    One NaN in a count matrix once produced NaN beliefs for that row
    and (worse) NaN comparisons that silently decided "up" forever.
    Here every poisoned input is detected up front and *masked*:

    * a non-finite or negative count entry is a no-evidence bin
      (likelihood 1 under both states — prediction only), the scalar
      :meth:`BeliefState.update` guardrail;
    * a degenerate likelihood (``p_empty_up`` at/beyond 0 or 1) is
      clamped strictly inside (0, 1);
    * a block whose *parameters* are non-finite cannot be filtered at
      all: its row is pinned to "up" (no events) and flagged.

    Returns ``(states, beliefs, poisoned_rows)``: the boolean
    hysteresis up/down decision after each bin, the belief trajectory
    or None, and a ``(n_blocks,)`` mask of rows whose counts or
    parameters contained poison.  Callers that care about containment
    (the batch detector) quarantine flagged rows into the dead-letter
    registry; results for those rows are placeholders, not verdicts.
    ``guardrails``, when given, accumulates trip counts.

    ``metrics``, when given, records the pass duration into the
    ``belief_pass_seconds`` histogram and the bins filtered into
    ``belief_bins_total``; with a disabled (no-op) registry the only
    cost is two no-op calls — the obs overhead benchmark pins it
    within noise of the uninstrumented pass.
    """
    guardrails = guardrails if guardrails is not None else GuardrailCounters()
    pass_clock = (_time.perf_counter()
                  if metrics is not None and metrics.enabled else None)
    counts = np.asarray(counts)
    if counts.ndim != 2:
        raise ValueError("counts must be (n_blocks, n_bins)")
    n_blocks, n_bins = counts.shape
    p_empty_up = np.asarray(p_empty_up, dtype=float)
    if p_empty_up.shape not in ((n_blocks,), (n_blocks, n_bins)):
        raise ValueError(
            f"p_empty_up must be ({n_blocks},) or ({n_blocks}, {n_bins})")
    for name, vector in (("noise_nonempty", noise_nonempty),
                         ("prior_down", prior_down),
                         ("prior_up_recovery", prior_up_recovery)):
        if np.shape(vector) != (n_blocks,):
            raise ValueError(f"{name} must have shape ({n_blocks},)")

    noise_nonempty = np.asarray(noise_nonempty, dtype=float)
    prior_down = np.asarray(prior_down, dtype=float)
    prior_up_recovery = np.asarray(prior_up_recovery, dtype=float)
    invalid_counts, bad_params = _screen(
        counts, p_empty_up, noise_nonempty,
        ~np.isfinite(prior_down) | ~np.isfinite(prior_up_recovery),
        guardrails)
    poisoned = bad_params | invalid_counts.any(axis=1)
    guardrails.trip("masked_row", int(poisoned.sum()))

    if bad_params.any():
        # Substitute inert values so the recurrence stays finite; the
        # row is pinned to "up" afterwards regardless.
        p_fill = 0.5
        if p_empty_up.ndim == 2:
            p_empty_up = np.where(bad_params[:, None],
                                  p_fill, np.nan_to_num(p_empty_up, nan=p_fill))
        else:
            p_empty_up = np.where(bad_params, p_fill,
                                  np.nan_to_num(p_empty_up, nan=p_fill))
        noise_nonempty = np.where(bad_params, 0.5,
                                  np.nan_to_num(noise_nonempty, nan=0.5))
        prior_down = np.where(bad_params, 0.0,
                              np.nan_to_num(prior_down, nan=0.0))
        prior_up_recovery = np.where(bad_params, 0.0,
                                     np.nan_to_num(prior_up_recovery, nan=0.0))
    time_varying = p_empty_up.ndim == 2

    def step(bin_index: int, belief: np.ndarray,
             up: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        p_empty = p_empty_up[:, bin_index] if time_varying else p_empty_up
        belief, up, _ = columnar_update(
            belief, up, counts[:, bin_index], p_empty, noise_nonempty,
            prior_down, prior_up_recovery, down_threshold, up_threshold)
        return belief, up

    states, beliefs = _run_bins(step, n_blocks, n_bins, initial_belief,
                                return_beliefs, bad_params)
    _record_pass(metrics, "single", n_blocks * n_bins, pass_clock)
    return states, beliefs, poisoned


# -- multi-source evidence fusion -------------------------------------------
#
# With several vantages the correction step generalises naturally in
# log-odds space: each source contributes an independent per-bin
# log-likelihood ratio log P(count|up)/P(count|down) under *its own*
# likelihood parameters, scaled by a reliability weight in [0, 1].
# Weight 1 is full Bayesian trust, weight 0 removes the source from the
# update entirely (prediction only), and intermediate weights temper a
# vantage whose recent health history is shaky — a soft version of the
# sentinel's hard quarantine that degrades evidence before the failure
# is confirmed and restores it gradually afterwards.


def bin_log_likelihood_ratio(count: float, p_empty_up: float,
                             noise_nonempty: float) -> float:
    """One bin's evidence, log P(count | up) / P(count | down).

    Uses the same presence/absence likelihoods and capped count
    discount as :meth:`BeliefState.update`, with the same guardrails: a
    non-finite likelihood parameter raises :class:`BlockDataError`
    (poisoned model), a degenerate ``p_empty_up`` is clamped strictly
    inside (0, 1), and a non-finite or negative count is no evidence
    (ratio 0).
    """
    if not (np.isfinite(p_empty_up) and np.isfinite(noise_nonempty)):
        raise BlockDataError(
            f"non-finite likelihood parameters (p_empty_up={p_empty_up!r}, "
            f"noise_nonempty={noise_nonempty!r}): source model is poisoned")
    p_empty = min(max(p_empty_up, _PROB_EPS), 1.0 - _PROB_EPS)
    noise = min(max(noise_nonempty, _PROB_EPS), 1.0 - _PROB_EPS)
    if not (np.isfinite(count) and count >= 0):
        return 0.0
    if count == 0:
        return float(np.log(p_empty) - np.log(1.0 - noise))
    likelihood_up = max(1.0 - p_empty, 1e-3)
    likelihood_down = noise * max(8.0 ** -(count - 1), 1.0 / _COUNT_RATIO_CAP)
    return float(np.log(likelihood_up) - np.log(likelihood_down))


def columnar_llr(counts: np.ndarray, p_empty: np.ndarray,
                 noise_nonempty: np.ndarray) -> np.ndarray:
    """Vectorised :func:`bin_log_likelihood_ratio` (finite inputs).

    Callers guarantee finite likelihood parameters and non-negative
    counts (cohort admission and the batch screen do), so the
    raise/no-evidence branches of the scalar form are unreachable.
    """
    p = np.minimum(np.maximum(p_empty, _PROB_EPS), 1.0 - _PROB_EPS)
    noise = np.minimum(np.maximum(noise_nonempty, _PROB_EPS),
                       1.0 - _PROB_EPS)
    empty = counts == 0
    with np.errstate(over="ignore", under="ignore"):
        discount = np.maximum(8.0 ** -(counts - 1),
                              1.0 / _COUNT_RATIO_CAP)
    return np.where(
        empty,
        np.log(p) - np.log(1.0 - noise),
        np.log(np.maximum(1.0 - p, 1e-3)) - np.log(noise * discount))


def fused_posterior(belief: float, weighted_llr: float, prior_down: float,
                    prior_up_recovery: float) -> float:
    """One fused filter step: transition prior, then log-odds evidence.

    ``weighted_llr`` is the sum over sources of ``weight_s * llr_s``
    for the bin.  Equivalent to :meth:`BeliefState.update`'s
    prediction+correction when a single source contributes at weight 1
    (up to floating-point rounding of the log/exp round trip).
    """
    if not np.isfinite(weighted_llr):
        raise BlockDataError(
            f"non-finite fused evidence {weighted_llr!r}: a source "
            f"likelihood is poisoned")
    predicted = (belief * (1.0 - prior_down)
                 + (1.0 - belief) * prior_up_recovery)
    predicted = min(max(predicted, BELIEF_FLOOR), BELIEF_CEIL)
    log_odds = np.log(predicted) - np.log1p(-predicted) + weighted_llr
    posterior = 1.0 / (1.0 + np.exp(-log_odds))
    return float(np.clip(posterior, BELIEF_FLOOR, BELIEF_CEIL))


def columnar_fused_posterior(belief: np.ndarray, is_up: np.ndarray,
                             weighted_llr: np.ndarray,
                             prior_down: np.ndarray,
                             prior_up_recovery: np.ndarray,
                             down_threshold: np.ndarray,
                             up_threshold: np.ndarray,
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`fused_posterior` + the fused hysteresis step.

    Returns ``(posterior, new_up)``; the fused path trips no
    guardrails (its clamps are silent, matching the scalar form).
    """
    predicted = (belief * (1.0 - prior_down)
                 + (1.0 - belief) * prior_up_recovery)
    predicted = np.minimum(np.maximum(predicted, BELIEF_FLOOR),
                           BELIEF_CEIL)
    log_odds = np.log(predicted) - np.log1p(-predicted) + weighted_llr
    posterior = 1.0 / (1.0 + np.exp(-log_odds))
    posterior = np.clip(posterior, BELIEF_FLOOR, BELIEF_CEIL)
    new_up = np.where(is_up, posterior > down_threshold,
                      posterior >= up_threshold)
    return posterior, new_up


def fused_belief_pass(
    counts_by_source: Sequence[np.ndarray],
    p_empty_by_source: Sequence[np.ndarray],
    noise_by_source: Sequence[np.ndarray],
    weights_by_source: Sequence[np.ndarray],
    prior_down: np.ndarray,
    prior_up_recovery: np.ndarray,
    down_threshold: float = 0.1,
    up_threshold: float = 0.9,
    initial_belief: Optional[np.ndarray] = None,
    return_beliefs: bool = False,
    guardrails: Optional[GuardrailCounters] = None,
    metrics: Optional[Any] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """Vectorised multi-source filter over a shared bin grid.

    Each source ``s`` supplies a ``(n_blocks, n_bins)`` count matrix,
    per-block likelihood parameters (``p_empty`` as a vector or a
    time-varying matrix, ``noise_nonempty`` as a vector), and a
    reliability-weight array — ``(n_bins,)`` when the weight applies to
    the whole population (vantage health is a property of the observer,
    not of any single block), or ``(n_blocks, n_bins)`` when some
    blocks do not participate in a source at all (the per-bin health
    weight times a 0/1 participation mask).  Transition priors and
    hysteresis thresholds are shared (the lead source's per-block
    tuning).

    Each source's evidence is one :func:`columnar_llr` matrix; each bin
    sums ``weight * llr`` over the contributing sources, from zero and
    in source order, and takes one :func:`columnar_fused_posterior`
    step — the scalar streaming close, bit for bit.

    Guardrail semantics mirror :func:`guarded_belief_pass` per source:
    poisoned count entries contribute zero evidence, a block with
    non-finite parameters in *any* contributing source is pinned "up"
    and flagged in the returned ``poisoned_rows`` mask.

    A bin in which *every* source is gated (zero weight) for a block is
    evidence-free and freezes that block's belief and verdict — the
    transition prior does not run, so a fully-blinded stretch can never
    drift a healthy block across the down threshold.
    """
    guardrails = guardrails if guardrails is not None else GuardrailCounters()
    pass_clock = (_time.perf_counter()
                  if metrics is not None and metrics.enabled else None)
    n_sources = len(counts_by_source)
    if n_sources == 0:
        raise ValueError("fused_belief_pass needs at least one source")
    if not (len(p_empty_by_source) == len(noise_by_source)
            == len(weights_by_source) == n_sources):
        raise ValueError("per-source argument lists must align")
    counts_by_source = [np.asarray(c) for c in counts_by_source]
    n_blocks, n_bins = counts_by_source[0].shape
    for counts in counts_by_source[1:]:
        if counts.shape != (n_blocks, n_bins):
            raise ValueError("all sources must share the bin grid "
                             f"({n_blocks}, {n_bins}); got {counts.shape}")
    prior_down = np.asarray(prior_down, dtype=float)
    prior_up_recovery = np.asarray(prior_up_recovery, dtype=float)
    if prior_down.shape != (n_blocks,) or prior_up_recovery.shape != (n_blocks,):
        raise ValueError(f"priors must have shape ({n_blocks},)")

    pinned = (~np.isfinite(prior_down)) | (~np.isfinite(prior_up_recovery))
    poisoned = pinned.copy()
    llr_by_source: List[np.ndarray] = []
    weight_rows: List[np.ndarray] = []
    for index in range(n_sources):
        counts = counts_by_source[index]
        p_empty = np.asarray(p_empty_by_source[index], dtype=float)
        noise = np.asarray(noise_by_source[index], dtype=float)
        weights = np.asarray(weights_by_source[index], dtype=float)
        if p_empty.shape not in ((n_blocks,), (n_blocks, n_bins)):
            raise ValueError(
                f"source {index}: p_empty must be ({n_blocks},) or "
                f"({n_blocks}, {n_bins})")
        if noise.shape != (n_blocks,):
            raise ValueError(f"source {index}: noise must be ({n_blocks},)")
        if weights.shape not in ((n_bins,), (n_blocks, n_bins)):
            raise ValueError(
                f"source {index}: weights must be ({n_bins},) or "
                f"({n_blocks}, {n_bins})")
        invalid, bad_params = _screen(counts, p_empty, noise,
                                      np.zeros(n_blocks, dtype=bool),
                                      guardrails)
        pinned |= bad_params
        poisoned |= bad_params | invalid.any(axis=1)
        # Pinned rows get inert finite stand-ins; masked entries weigh 0.
        p_empty = np.nan_to_num(p_empty, nan=0.5)
        llr = columnar_llr(np.where(invalid, 0, counts),
                           p_empty[:, None] if p_empty.ndim == 1 else p_empty,
                           np.nan_to_num(noise, nan=0.5)[:, None])
        if invalid.any():
            llr = np.where(invalid, 0.0, llr)
        llr_by_source.append(llr)
        weight_rows.append(np.clip(np.nan_to_num(weights, nan=0.0), 0.0, 1.0))
    guardrails.trip("masked_row", int(poisoned.sum()))

    prior_down = np.where(np.isfinite(prior_down), prior_down, 0.0)
    prior_up_recovery = np.where(np.isfinite(prior_up_recovery),
                                 prior_up_recovery, 0.0)

    def step(bin_index: int, belief: np.ndarray,
             up: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        weighted = np.zeros(n_blocks)
        contributed = np.zeros(n_blocks, dtype=bool)
        for llr, weights in zip(llr_by_source, weight_rows):
            weight = weights[..., bin_index]
            if np.max(weight) <= 0.0:
                continue
            contributed |= weight > 0.0
            weighted = weighted + weight * llr[:, bin_index]
        posterior, new_up = columnar_fused_posterior(
            belief, up, weighted, prior_down, prior_up_recovery,
            down_threshold, up_threshold)
        # An evidence-free bin (every source gated for this block) is a
        # freeze, not an update: letting the transition prior run free
        # would walk the belief toward its stationary point and
        # eventually cross the down threshold — a false onset
        # manufactured purely by the *observer's* failure.  Belief and
        # verdict hold until some vantage can see the block again.
        return (np.where(contributed, posterior, belief),
                np.where(contributed, new_up, up))

    states, beliefs = _run_bins(step, n_blocks, n_bins, initial_belief,
                                return_beliefs, pinned)
    _record_pass(metrics, "fused", n_sources * n_blocks * n_bins, pass_clock)
    return states, beliefs, poisoned
