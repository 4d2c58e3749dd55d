"""The block-at-a-time scalar streaming detectors: the equivalence oracle.

Production detectors close every bin through the columnar cohort
kernels.  These subclasses close each block's bins one at a time with
the scalar :meth:`~repro.core.belief.BeliefState.update` (and, for
fusion, :func:`~repro.core.belief.bin_log_likelihood_ratio` plus
:func:`~repro.core.belief.fused_posterior`), in block insertion order,
with the same bin-close bookkeeping: refined transition placement,
guardrail accounting, metrics and hot-swap application.  The
equivalence suite and the bin-close speedup benchmark drive them
against the production engine; any difference is a divergence of the
engine.

A poisoned model raises from the scalar math and is dead-lettered by
the supervised scope of ``advance``.  The scalar fused update checks
only the likelihoods it consumes, not the transition priors.
"""

from __future__ import annotations

from repro.core.belief import bin_log_likelihood_ratio, fused_posterior
from repro.core.detector import StreamingDetector
from repro.fusion.engine import FusedStreamingDetector

__all__ = ["ScalarStreamingDetector", "ScalarFusedStreamingDetector"]


def _scalar_advance(detector, now):
    """Close every block's complete bins up to ``now``, block by block."""
    detector._last_time = max(detector._last_time, now)
    if detector.sentinel is not None:
        detector.sentinel.advance(now)
    for key, state in list(detector._states.items()):
        try:
            detector._advance_block(key, state, now)
        except Exception as error:
            detector._quarantine(key, "stream", error)


class _ScalarClose:
    """The scalar bin close shared by both oracle detectors."""

    def _advance_block(self, key, state, now):
        while state.next_bin_end <= now:
            self._close_bin(key, state)

    def _update_belief(self, key, state, bin_start):
        """Apply one closed bin's evidence; returns the new up/down state."""
        params = state.params
        p_empty = (state.history.empty_bin_probability_at(
            bin_start, params.bin_seconds)
            if state.history.diurnal_profile is not None else None)
        return state.belief.update(state.bin_count, p_empty)

    def _close_bin(self, key, state):
        params = state.params
        was_up = state.belief.is_up
        bin_start = state.next_bin_end - params.bin_seconds
        trips_before = state.belief.guardrail_trips
        is_up = self._update_belief(key, state, bin_start)
        trip_delta = state.belief.guardrail_trips - trips_before
        if trip_delta:
            self.guardrails.trip("neutralised_bin", trip_delta)
        self._m_bins.inc()
        self._m_lag.set(self._last_time - state.next_bin_end)
        self._m_clock.set(self._last_time)
        if was_up and not is_up:
            self._m_down.inc()
            mean_gap = (1.0 / state.history.mean_rate
                        if state.history.mean_rate > 0 else params.bin_seconds)
            guard = min(self.refinement.guard_gaps * mean_gap,
                        params.bin_seconds)
            max_backfill = (self.refinement.max_backfill_bins
                            * params.bin_seconds)
            if state.last_packet is not None:
                refined = max(state.last_packet + guard,
                              bin_start - max_backfill)
            else:
                refined = bin_start
            state.transitions.append((min(refined, state.next_bin_end), False))
        elif not was_up and is_up:
            self._m_up.inc()
            if state.first_packet_this_bin is not None:
                mean_gap = (1.0 / state.history.mean_rate
                            if state.history.mean_rate > 0
                            else params.bin_seconds)
                guard = min(self.refinement.guard_gaps * mean_gap,
                            params.bin_seconds)
                recovery = state.first_packet_this_bin - guard
            else:
                recovery = bin_start
            state.transitions.append((recovery, True))
        state.bin_count = 0
        state.first_packet_this_bin = None
        self.windows_closed += 1
        swap = self._pending_swaps.pop(key, None)
        if swap is not None:
            self._apply_swap(key, state, swap[0], swap[1],
                             state.next_bin_end)
        else:
            state.next_bin_end += params.bin_seconds


class ScalarStreamingDetector(_ScalarClose, StreamingDetector):
    """:class:`StreamingDetector` closing bins one block at a time."""

    def advance(self, now):
        _scalar_advance(self, now)


class ScalarFusedStreamingDetector(_ScalarClose, FusedStreamingDetector):
    """:class:`FusedStreamingDetector` closing bins one block at a time."""

    def advance(self, now):
        if self.inline_monitors:
            for monitor in self._monitor_list:
                monitor.advance(now)
        _scalar_advance(self, now)

    def _update_belief(self, key, state, bin_start):
        params = state.params
        spec = self.specs[key]
        counts = self._source_counts.get(key)
        bin_end = state.next_bin_end
        # 0-indexed position of the closing bin on the block's lead
        # grid; a source with stride k reports when (b + 1) % k == 0.
        b = int(round((bin_start - self.start) / params.bin_seconds))
        weighted = 0.0
        contributed = False
        for name, p_empty, noise, stride in spec.likelihoods:
            if stride > 1 and (b + 1) % stride != 0:
                continue  # evidence window still open; keep accumulating
            index = self._source_index[name]
            monitor = self._monitor_list[index]
            window_start = bin_end - stride * params.bin_seconds
            weight = monitor.effective_weight(window_start, bin_end)
            count = (counts[index] if counts is not None
                     else state.bin_count)
            if counts is not None:
                counts[index] = 0  # window consumed, gated or not
            if weight <= 0.0:
                monitor.note_gated()
                continue
            contributed = True
            if name == spec.lead:
                p_empty = (state.history.empty_bin_probability_at(
                    bin_start, params.bin_seconds)
                    if state.history.diurnal_profile is not None
                    else params.p_empty_up)
                noise = params.noise_nonempty
            weighted += weight * bin_log_likelihood_ratio(
                count, p_empty, noise)
        belief = state.belief
        if contributed:
            posterior = fused_posterior(belief.belief, weighted,
                                        params.prior_down,
                                        params.prior_up_recovery)
            belief.belief = posterior
            if belief.is_up and posterior <= params.down_threshold:
                belief.is_up = False
            elif not belief.is_up and posterior >= params.up_threshold:
                belief.is_up = True
        return belief.is_up
