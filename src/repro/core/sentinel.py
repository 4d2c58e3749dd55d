"""Vantage-health sentinel: is the *observer* alive, or the observed?

The passive detector's core inference — "silence means down" — has a
fatal confound: if the vantage point itself stops capturing (service
restart, capture-buffer stall, uplink failure), every block goes silent
*simultaneously* and the naive detector reports a false mass outage.
Trinocular faces the dual problem with probe loss; Disco must separate
controller-side disconnections from real outages.  The passive
equivalent is this sentinel.

The disambiguating signal is aggregate arrival rate across *all*
blocks: a real outage, even a large one, removes a subset of the feed,
while an observer failure removes essentially all of it.  The sentinel
bins the aggregate feed coarsely (default: one minute), learns the
expected per-bin volume online (EWMA over healthy bins, or a fixed
``expected_rate`` when the operator knows it), and declares a
**quarantine** when consecutive bins fall below a small fraction of
expectation.  Between "dead" and "healthy" sits a grey zone: a bin far
under its baseline but clearly not empty is judged **depressed** — a
brownout, reported to the bin listener (so fused reliability weights
sag) without opening a quarantine.  Quarantined windows are padded by
a margin on both sides
— the detector's edge refinement places outage starts just after the
last packet seen, which for a feed gap is just *before* the gap — and
per-block down-time overlapping a quarantine is retracted by
:meth:`repro.timeline.Timeline.without_down`.

The sentinel deliberately judges volume, not block identity: it must
stay O(1) per packet at full feed rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..timeline import Interval, Timeline, merge_intervals

__all__ = ["SentinelConfig", "VantageSentinel", "suppress_quarantined"]


def suppress_quarantined(timeline: Timeline,
                         quarantined: List[Interval]) -> Timeline:
    """Retract down-time attributable to observer failure.

    A down interval whose *onset* falls inside a quarantine window was
    triggered by the feed gap, so the whole interval is retracted even
    where it outlasts the window (belief recovery lags the feed's
    return).  A down interval that began while the feed was healthy is
    genuine; only its quarantined middle is clipped out, preserving the
    verdicts on either side.
    """
    windows = merge_intervals(quarantined)
    if not windows:
        return timeline
    keep = [
        (s, e) for s, e in timeline.down_intervals
        if not any(q_start <= s < q_end for q_start, q_end in windows)
    ]
    return Timeline(timeline.start, timeline.end, keep).without_down(windows)


@dataclass(frozen=True)
class SentinelConfig:
    """Tuning knobs for the vantage-health monitor.

    ``quiet_fraction`` is the fraction of the expected per-bin volume
    below which a bin counts as quiet; ``min_quiet_bins`` consecutive
    quiet bins open a quarantine (one quiet minute is routine, several
    in a row at a busy vantage point are not).  ``depressed_fraction``
    marks the grey zone above quiet: a judgeable bin below this
    fraction of expectation (but not quiet) is *depressed* — the feed
    is flowing yet far under its baseline, a brownout rather than a
    death.  Depressed bins never open quarantines and never feed the
    learned baseline (a sustained brownout must not teach the sentinel
    that a trickle is normal); they are reported to the bin listener so
    the fusion layer's reliability weight can sag.  Setting it equal to
    ``quiet_fraction`` disables the grey zone.  ``min_expected_count``
    guards against judging a feed too sparse to judge: below this
    expected per-bin volume an empty bin carries no evidence about the
    observer.  ``margin_seconds`` pads each quarantine on both sides;
    ``ewma_alpha``/``warmup_bins`` control online rate learning when no
    ``expected_rate`` is given.
    """

    bin_seconds: float = 60.0
    quiet_fraction: float = 0.05
    min_quiet_bins: int = 2
    depressed_fraction: float = 0.5
    min_expected_count: float = 5.0
    margin_seconds: Optional[float] = None
    expected_rate: Optional[float] = None
    ewma_alpha: float = 0.1
    warmup_bins: int = 5

    def __post_init__(self) -> None:
        if self.bin_seconds <= 0:
            raise ValueError("bin_seconds must be positive")
        if not 0.0 < self.quiet_fraction < 1.0:
            raise ValueError("quiet_fraction must be in (0, 1)")
        if self.min_quiet_bins < 1:
            raise ValueError("min_quiet_bins must be >= 1")
        if not self.quiet_fraction <= self.depressed_fraction < 1.0:
            raise ValueError(
                "depressed_fraction must be in [quiet_fraction, 1)")

    @property
    def margin(self) -> float:
        return (self.bin_seconds if self.margin_seconds is None
                else self.margin_seconds)


class VantageSentinel:
    """Aggregate-feed health monitor with quarantine bookkeeping.

    Feed it every observation's timestamp (any family, any block — the
    whole tap) via :meth:`observe`, and the wall clock via
    :meth:`advance` so a totally dead feed is still judged.  Query
    :meth:`quarantined_intervals` or attach the sentinel to a
    :class:`~repro.core.detector.StreamingDetector`, whose ``finalize``
    retracts per-block down-time overlapping quarantines.
    """

    def __init__(self, start: float,
                 config: Optional[SentinelConfig] = None) -> None:
        self.config = config or SentinelConfig()
        self.start = float(start)
        self._bin_start = float(start)
        self._bin_count = 0
        self._bins_closed = 0
        self._healthy_bins = 0
        self._ewma_count: Optional[float] = None
        self._quiet_run_start: Optional[float] = None
        self._quiet_run_bins = 0
        self._closed: List[Interval] = []
        self.quarantined_bins = 0
        self._m_entered: Optional[Any] = None
        self._m_exited: Optional[Any] = None
        self._m_expected: Optional[Any] = None
        self._bin_listener: Optional[
            Callable[[float, bool, bool], None]] = None

    def set_bin_listener(
            self,
            listener: Optional[Callable[[float, bool, bool], None]]) -> None:
        """Register a callback fired once per closed bin.

        Called as ``listener(bin_start, quiet, depressed)`` immediately
        after the bin's health verdict lands — the fusion layer's
        reliability tracker hangs off this to learn a per-vantage trust
        weight with exact per-bin ordering.  At most one of ``quiet``
        and ``depressed`` is true.  Not serialised: re-attach after
        :meth:`from_dict`.
        """
        self._bin_listener = listener

    def bind_metrics(self, metrics: Any) -> "VantageSentinel":
        """Mirror quarantine decisions into a metrics registry.

        Registers ``sentinel_quarantine_entered_total`` /
        ``sentinel_quarantine_exited_total`` counters and the
        ``sentinel_expected_bin_count`` gauge.  Counters reflect
        decisions made *after* binding only; cumulative continuity
        across restarts comes from the checkpointed registry snapshot,
        not from replaying sentinel state.
        """
        self._m_entered = metrics.counter(
            "sentinel_quarantine_entered_total",
            "Feed-quarantine windows opened by the vantage sentinel")
        self._m_exited = metrics.counter(
            "sentinel_quarantine_exited_total",
            "Feed-quarantine windows closed (feed recovered)")
        self._m_expected = metrics.gauge(
            "sentinel_expected_bin_count",
            "Learned expected arrivals per sentinel bin (0 = warming up)")
        return self

    # -- feeding ------------------------------------------------------------

    def observe(self, time: float) -> None:
        """Count one arrival (monotone non-decreasing time expected)."""
        self._judge_bins_to(time)
        self._bin_count += 1

    def observe_bulk(self, time: float, count: int) -> None:
        """Count ``count`` simultaneous arrivals at ``time``.

        Offline replays feed pre-binned aggregate counts through this
        (one call per sentinel bin instead of one per packet); the
        resulting sentinel state is identical to per-packet feeding of
        the same arrivals.
        """
        self._judge_bins_to(time)
        self._bin_count += int(count)

    def advance(self, now: float) -> None:
        """Close bins up to wall-clock ``now`` (judges total silence)."""
        self._judge_bins_to(now)

    @property
    def bin_end(self) -> float:
        """End of the bin now accumulating: an arrival before it closes
        nothing."""
        return self._bin_start + self.config.bin_seconds

    # -- judging ------------------------------------------------------------

    @property
    def expected_bin_count(self) -> Optional[float]:
        """Expected arrivals per sentinel bin, or None while warming up."""
        config = self.config
        if config.expected_rate is not None:
            return config.expected_rate * config.bin_seconds
        if (self._ewma_count is None
                or self._healthy_bins < config.warmup_bins):
            return None
        return self._ewma_count

    @property
    def bins_closed(self) -> int:
        """Total sentinel bins judged so far (healthy, quiet, or warmup).

        Monotone counter; the fusion layer's reliability tracker diffs
        it between observations to learn how many health verdicts have
        landed since it last looked.
        """
        return self._bins_closed

    @property
    def suspect_since(self) -> Optional[float]:
        """Start of the current quiet run, or None while the feed looks
        healthy.

        Set from the *first* quiet bin — before ``min_quiet_bins``
        confirms a quarantine — so evidence gating can stop trusting a
        vantage the moment its feed goes suspiciously silent rather
        than one confirmation lag later.  A warm-up or unjudgeable bin
        never opens a run.
        """
        return self._quiet_run_start

    @property
    def suspect(self) -> bool:
        """True while a quiet run is open (possible vantage failure)."""
        return self._quiet_run_start is not None

    def quarantined_intervals(self) -> List[Interval]:
        """Merged quarantine windows decided so far (margins applied)."""
        intervals = list(self._closed)
        if (self._quiet_run_start is not None
                and self._quiet_run_bins >= self.config.min_quiet_bins):
            intervals.append((self._quiet_run_start - self.config.margin,
                              self._bin_start + self.config.margin))
        return merge_intervals(intervals)

    def is_quarantined(self, time: float) -> bool:
        return any(s <= time < e for s, e in self.quarantined_intervals())

    def quarantined_seconds(self) -> float:
        return sum(e - s for s, e in self.quarantined_intervals())

    def apply(self, timeline: Timeline) -> Timeline:
        """Retract down-time overlapping quarantines from a timeline."""
        return suppress_quarantined(timeline, self.quarantined_intervals())

    # -- checkpointing ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able state (config + counters) for checkpointing."""
        config = self.config
        return {
            "config": {
                "bin_seconds": config.bin_seconds,
                "quiet_fraction": config.quiet_fraction,
                "min_quiet_bins": config.min_quiet_bins,
                "depressed_fraction": config.depressed_fraction,
                "min_expected_count": config.min_expected_count,
                "margin_seconds": config.margin_seconds,
                "expected_rate": config.expected_rate,
                "ewma_alpha": config.ewma_alpha,
                "warmup_bins": config.warmup_bins,
            },
            "start": self.start,
            "bin_start": self._bin_start,
            "bin_count": self._bin_count,
            "bins_closed": self._bins_closed,
            "healthy_bins": self._healthy_bins,
            "ewma_count": self._ewma_count,
            "quiet_run_start": self._quiet_run_start,
            "quiet_run_bins": self._quiet_run_bins,
            "closed": [list(pair) for pair in self._closed],
            "quarantined_bins": self.quarantined_bins,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "VantageSentinel":
        sentinel = cls(float(data["start"]),
                       SentinelConfig(**data["config"]))
        sentinel._bin_start = float(data["bin_start"])
        sentinel._bin_count = int(data["bin_count"])
        sentinel._bins_closed = int(data["bins_closed"])
        sentinel._healthy_bins = int(data["healthy_bins"])
        ewma = data.get("ewma_count")
        sentinel._ewma_count = None if ewma is None else float(ewma)
        quiet = data.get("quiet_run_start")
        sentinel._quiet_run_start = None if quiet is None else float(quiet)
        sentinel._quiet_run_bins = int(data["quiet_run_bins"])
        sentinel._closed = [(float(s), float(e)) for s, e in data["closed"]]
        sentinel.quarantined_bins = int(data["quarantined_bins"])
        return sentinel

    # -- internals ----------------------------------------------------------

    def _judge_bins_to(self, now: float) -> None:
        config = self.config
        while self._bin_start + config.bin_seconds <= now:
            self._judge_bin()

    def _judge_bin(self) -> None:
        config = self.config
        count = self._bin_count
        closed_bin_start = self._bin_start
        expected = self.expected_bin_count
        judgeable = (expected is not None
                     and expected >= config.min_expected_count)
        quiet = judgeable and count < config.quiet_fraction * expected
        depressed = (judgeable and not quiet
                     and count < config.depressed_fraction * expected)
        if quiet:
            if self._quiet_run_start is None:
                self._quiet_run_start = self._bin_start
            self._quiet_run_bins += 1
            self.quarantined_bins += 1
            if (self._quiet_run_bins == config.min_quiet_bins
                    and self._m_entered is not None):
                self._m_entered.inc()
        else:
            if (self._quiet_run_start is not None
                    and self._quiet_run_bins >= config.min_quiet_bins):
                self._closed.append(
                    (self._quiet_run_start - config.margin,
                     self._bin_start + config.margin))
                if self._m_exited is not None:
                    self._m_exited.inc()
            self._quiet_run_start = None
            self._quiet_run_bins = 0
            # Learn the expected volume from healthy bins only, so a
            # long feed gap cannot drag the baseline to zero and mask
            # itself.  Warmup bins carry no quarantine evidence (the
            # sentinel cannot judge before the baseline exists), and
            # they must contribute none: a bin that is suspiciously
            # quiet against the baseline learned *so far* is neither
            # folded into the EWMA nor counted toward warmup, so an
            # outage in progress at cold start cannot poison the
            # baseline it will later be judged against.
            if config.expected_rate is None:
                ewma = self._ewma_count
                if ewma is None:
                    # Seed only from a bin that actually saw traffic: a
                    # sentinel started mid-outage would otherwise learn
                    # "zero is normal" and stay unjudgeable forever.
                    if count > 0:
                        self._healthy_bins += 1
                        self._ewma_count = float(count)
                elif (ewma >= config.min_expected_count
                        and count < config.depressed_fraction * ewma):
                    # Suspicious or depressed bin: no learning, no
                    # credit — a sustained brownout must not drag the
                    # baseline down to its own trickle and erase itself.
                    pass
                else:
                    self._healthy_bins += 1
                    alpha = config.ewma_alpha
                    self._ewma_count = ewma + alpha * (count - ewma)
        self._bins_closed += 1
        self._bin_count = 0
        self._bin_start += config.bin_seconds
        if self._bin_listener is not None:
            self._bin_listener(closed_bin_start, bool(quiet),
                               bool(depressed))
        if self._m_expected is not None:
            expected_now = self.expected_bin_count
            self._m_expected.set(expected_now
                                 if expected_now is not None else 0.0)
