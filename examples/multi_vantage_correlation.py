#!/usr/bin/env python3
"""Corroborating outages across vantage points and sibling blocks.

The poster: "when possible, we correlate multiple signals from the same
region to corroborate results".  Two mechanisms are demonstrated:

1. two passive services (think B-root plus a large website) each see a
   random share of every block's queries; their per-bin evidence is
   fused inside one belief filter (:mod:`repro.fusion`);
2. detected events are cross-checked against sibling blocks in the same
   /20 — a regional outage has witnesses, a lone flapping resolver does
   not.

Run:  python examples/multi_vantage_correlation.py
"""

from collections import Counter

import numpy as np

from repro.core import PassiveOutagePipeline, corroborate_events
from repro.eval import confusion_for_population
from repro.fusion import MappingSource, detect_fused, train_fused
from repro.net import Family
from repro.traffic import (
    FamilyConfig,
    InternetConfig,
    OutageModel,
    SimulatedInternet,
)

DAY = 86400.0
#: corroboration region: /12 supernets (drop 12 of 24 prefix bits)
REGION_LEVELS = 12


def detect(view, family=Family.IPV4):
    pipeline = PassiveOutagePipeline()
    train = {k: t[t < DAY] for k, t in view.items()}
    evaluate = {k: t[t >= DAY] for k, t in view.items()}
    model = pipeline.train(family, train, 0.0, DAY)
    result = pipeline.detect(model, evaluate, DAY, 2 * DAY)
    return {k: b.timeline for k, b in result.blocks.items()}


def main() -> None:
    config = InternetConfig(
        end=2 * DAY, training_seconds=DAY, seed=29,
        ipv4=FamilyConfig(
            n_blocks=400,
            outage_model=OutageModel(outage_probability=0.35)))
    internet = SimulatedInternet.build(config)

    # Inject a regional event: the /12 with the most well-heard blocks
    # loses power for an hour mid-day-two.  Every member dies together.
    # (Choosing among dense blocks keeps the demo legible — sparse
    # members would be detected too late to corroborate sharply.)
    regions = Counter(p.key >> REGION_LEVELS
                      for p in internet.family_profiles(Family.IPV4)
                      if p.mean_rate > 0.03)
    region, members = regions.most_common(1)[0]
    affected = internet.inject_regional_outage(
        Family.IPV4, region, REGION_LEVELS,
        DAY + 40000.0, DAY + 43600.0)
    print(f"injected a 1-hour regional outage across {affected} blocks "
          f"sharing the /{24 - REGION_LEVELS} region {region:#x}")
    print()

    per_block = {p.key: t for p, t in internet.passive_observations()}
    truths = {p.key: p.truth.clip(DAY, 2 * DAY)
              for p in internet.family_profiles(Family.IPV4)}

    # --- 1. split traffic across two services, detect independently ----
    rng = np.random.default_rng(0)
    vantage_a, vantage_b = {}, {}
    for key, times in per_block.items():
        to_a = rng.random(times.size) < 0.5
        vantage_a[key] = times[to_a]
        vantage_b[key] = times[~to_a]

    timelines_a = detect(vantage_a)
    timelines_b = detect(vantage_b)
    full_view = detect(per_block)

    sources = [MappingSource("A", vantage_a, family=Family.IPV4),
               MappingSource("B", vantage_b, family=Family.IPV4)]
    model = train_fused(sources, Family.IPV4, 0.0, DAY)
    detection = detect_fused(
        model, {source.name: source.per_block(Family.IPV4, DAY, 2 * DAY)
                for source in sources}, DAY, 2 * DAY)
    fused = {key: block.timeline for key, block in detection.blocks.items()}

    print("Each vantage alone vs fused, scored against truth:")
    for label, timelines in (("vantage A (half the traffic)", timelines_a),
                             ("vantage B (half the traffic)", timelines_b),
                             ("fused A+B", fused),
                             ("single full-view service", full_view)):
        confusion = confusion_for_population(timelines, truths)
        print(f"  {label:<28s} precision {confusion.precision:.4f}  "
              f"TNR {confusion.tnr:.4f}  blocks {len(timelines)}")

    # --- 2. regional corroboration over the full view -------------------
    events_by_block = {key: timeline.events(300.0)
                       for key, timeline in full_view.items()}
    corroborated = corroborate_events(events_by_block, levels=REGION_LEVELS,
                                      slack=300.0)
    with_witnesses = [c for c in corroborated if c.corroborated]
    print()
    print(f"{sum(len(v) for v in events_by_block.values())} detected "
          f"events; {len(with_witnesses)} have a witness in their "
          f"/{24 - REGION_LEVELS} region (more likely regional than "
          f"block-local)")
    recovered = [c for c in with_witnesses
                 if c.key >> REGION_LEVELS == region
                 and c.event.overlaps(
                     type(c.event)(DAY + 40000.0, DAY + 43600.0),
                     slack=600.0)]
    print(f"the injected regional event was corroborated on "
          f"{len(recovered)} of its {affected} member blocks:")
    for item in recovered[:6]:
        print(f"  block {item.key:#x}: outage at {item.event.start:,.0f}s "
              f"backed by {item.witnesses} regional witness(es)")


if __name__ == "__main__":
    main()
