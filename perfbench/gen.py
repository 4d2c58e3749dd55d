"""Seeded inputs for the benchmark workloads.

``build(workload, seed, directory)`` writes every file the program
receives for one workload (a capture and, for the streaming workloads,
a saved model) plus ``inputs.json`` describing them, and returns that
description with the simulator's ground-truth timelines.  The same
seed gives byte-identical files, whose sha256 the description carries;
a different seed gives different ones.  Nothing here is timed.  The
generator parameters of each workload live in ``map.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.pipeline import PassiveOutagePipeline
from repro.core.serialize import save_model
from repro.net.addr import Family, format_ipv4
from repro.timeline import Timeline
from repro.traffic.internet import (
    FamilyConfig,
    InternetConfig,
    SimulatedInternet,
)
from repro.traffic.outages import OutageModel
from repro.traffic.rates import RateMixture

HERE = os.path.dirname(os.path.abspath(__file__))
DAY = 86400.0
#: state queries per run; the serve workload cycles through them.  The
#: in-process lookups take microseconds each, so the list is long enough
#: that even the 99th percentile has 50 samples beyond it.
QUERIES = 5000
#: the ``.pobs`` layout documented in ``repro.telescope.capture``,
#: written in bulk (the program's writer packs one record at a time).
HEADER = struct.pack("!4sHH", b"POBS", 1, 0)
RECORD = np.dtype([("time", ">f8"), ("family", "u1"),
                   ("source", "u1", (16,)), ("qtype", ">u2")])
#: generator parameters that are population sizes; ``scale`` multiplies them.
SIZES = ("pool_blocks", "blocks", "records")


def load_map() -> Dict[str, Any]:
    with open(os.path.join(HERE, "map.json"), encoding="utf-8") as handle:
        return json.load(handle)


def parameters(workload: str, scale: float = 1.0) -> Dict[str, Any]:
    params = dict(load_map()["workloads"][workload]["generator"])
    for name in SIZES:
        if name in params:
            params[name] = max(4, int(round(params[name] * scale)))
    return params


def choose_blocks(counts: np.ndarray, blocks: int,
                  records: int) -> np.ndarray:
    """Indices of ``blocks`` pool blocks holding about ``records`` records.

    Starts from the first ``blocks`` of the pool (a random draw) and
    swaps one member at a time for the pool block that brings the total
    closest to the target, so every seed gives nearly the same input
    size while the rate mix stays the simulator's.
    """
    chosen = np.arange(blocks)
    rest = np.arange(blocks, len(counts))
    for _ in range(blocks):
        excess = int(counts[chosen].sum()) - records
        if abs(excess) <= records // 1000 or not len(rest):
            break
        change = counts[rest][None, :] - counts[chosen][:, None]
        row, column = np.unravel_index(np.abs(excess + change).argmin(),
                                       change.shape)
        if abs(excess + change[row, column]) >= abs(excess):
            break
        chosen[row], rest[column] = rest[column], chosen[row]
    return np.sort(chosen)


def displace(times: np.ndarray, start: float, horizon: float,
             fraction: float, late: int,
             rng: np.random.Generator) -> np.ndarray:
    """Bounded disorder on a time-sorted stream, file order unchanged.

    A ``fraction`` of records after ``start`` move back by less than
    the reorder horizon (re-sorted in-stream); ``late`` records move
    back by several horizons (dropped as beyond repair).
    """
    times = times.copy()
    eligible = np.flatnonzero(times >= start + 20.0 * horizon)
    picked = rng.choice(eligible, size=int(fraction * len(eligible)) + late,
                        replace=False)
    times[picked[late:]] -= rng.uniform(0.1, 0.9, len(picked) - late) * horizon
    times[picked[:late]] -= rng.uniform(3.0, 10.0, late) * horizon
    return times


def write_capture(path: str, times: np.ndarray, keys: np.ndarray) -> None:
    """IPv4 records in the given order; sources are block base addresses."""
    rows = np.zeros(len(times), dtype=RECORD)
    rows["time"] = times
    rows["family"] = int(Family.IPV4)
    base = keys.astype(np.uint32) << np.uint32(8)
    for byte in range(4):
        rows["source"][:, 12 + byte] = (base >> np.uint32(24 - 8 * byte)) & 0xFF
    with open(path, "wb") as handle:
        handle.write(HEADER)
        handle.write(rows.tobytes())


def query_addresses(queries: List[List[float]], keys: List[int]) -> List[str]:
    """Addresses for ``queries`` over the sorted served ``keys``."""
    ordered = sorted(keys)
    return [format_ipv4((ordered[int(position * len(ordered))] << 8)
                        | int(host)) for position, host in queries]


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build(workload: str, seed: int, directory: str, scale: float = 1.0,
          ) -> Tuple[Dict[str, Any], Dict[int, Timeline]]:
    """Write one workload's inputs; return their description and truth."""
    params = parameters(workload, scale)
    os.makedirs(directory, exist_ok=True)
    end = params["days"] * DAY
    internet = SimulatedInternet.build(InternetConfig(
        end=end, training_seconds=DAY, seed=seed,
        ipv4=FamilyConfig(
            n_blocks=params["pool_blocks"],
            outage_model=OutageModel(
                outage_probability=params["outage_probability"],
                extra_event_mean=params["extra_events"],
                short_fraction=params.get("short_fraction", 0.45)),
            rate_mixture=RateMixture(
                dense_fraction=params["dense_fraction"]))))
    observed = list(internet.passive_observations())
    pool = np.array([len(times) for _, times in observed])
    observed = [observed[index] for index in
                choose_blocks(pool, params["blocks"], params["records"])]
    keys = np.array([profile.key for profile, _ in observed], dtype=np.int64)
    per_block = [times for _, times in observed]
    counts = np.array([len(times) for times in per_block], dtype=np.int64)
    rng = np.random.default_rng([seed, 1])
    files: Dict[str, str] = {}
    spec: Dict[str, Any] = {"workload": workload, "seed": seed,
                            "params": params, "train_end": DAY, "end": end,
                            "records": int(counts.sum())}
    times = np.concatenate(per_block)
    block_keys = np.repeat(keys, counts)
    order = np.argsort(times, kind="stable")
    times, block_keys = times[order], block_keys[order]
    if "reorder_horizon" in params:
        times = displace(times, DAY, params["reorder_horizon"],
                         params["disorder_fraction"],
                         params["late_records"], rng)
    files["capture"] = os.path.join(directory, "capture.pobs")
    write_capture(files["capture"], times, block_keys)
    spec["skipped"] = int((times < DAY).sum())
    spec["keys"] = keys[counts > 0].tolist()
    if params.get("model"):
        model = PassiveOutagePipeline(workers=0).train(
            Family.IPV4,
            {int(key): t[t < DAY] for key, t in zip(keys, per_block)},
            0.0, DAY)
        files["model"] = os.path.join(directory, "model.json")
        save_model(model, files["model"])
        spec["measurable"] = model.measurable_keys
    # Query targets as (block position, host) pairs: each consumer maps
    # them onto the blocks it serves, so every query is a hit.
    spec["queries"] = np.column_stack(
        [rng.random(QUERIES), rng.integers(0, 256, QUERIES)]).tolist()
    spec["files"] = files
    spec["sha256"] = {name: sha256(path) for name, path in files.items()}
    with open(os.path.join(directory, "inputs.json"), "w",
              encoding="utf-8") as handle:
        json.dump(spec, handle)
    truth = {int(profile.key): profile.truth for profile, _ in observed}
    return spec, truth
