"""Point pools of the four workloads, and the committed correctness gate.

Every point a workload can run comes from a fixed pool defined here;
the seed orders each pass over a pool, and a budget shorter than one
pass takes a prefix of that order.  ``digests.json`` holds
the expected ``RunStats`` digest and exact cycle count of every pool
point, keyed by :func:`repro.core.sweep.point_key`, so any seed can be
checked without an exact rerun.  A change that moves the model on
purpose regenerates them with::

    python3 perfbench/pools.py          # rewrites perfbench/digests.json
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

ALL_APPS = ["SW", "NW", "STAR", "GG", "GL", "GKSW", "GSG", "CLUSTER",
            "PairHMM", "NvB"]
SM_APPS = ["PairHMM", "SW"]
MEM_APPS = ["GKSW", "NvB"]
#: Medium-size apps of the service mix: the ones whose cold service
#: latency stays under ~0.5 s, so one seed's mix costs what another's does.
SERVICE_MEDIUM_APPS = ["SW", "NW", "STAR", "GG", "GL", "GSG"]


def sm_configs() -> list[dict]:
    """SM-side configs: Table I scheduler, CTA and thread sweeps."""
    from repro.core.config_presets import CTA_SWEEP, SCHEDULERS, THREAD_SWEEP

    return (
        [{"scheduler": s} for s in SCHEDULERS]
        + [{"max_ctas_per_sm": n} for n in CTA_SWEEP]
        + [{"max_threads_per_sm": n} for n in THREAD_SWEEP]
    )


def mem_configs() -> list[dict]:
    """Memory-side configs: the Fig 12/16/20-22 grids."""
    from repro.core.config_presets import (
        CACHE_SWEEP,
        MEM_CONTROLLERS,
        NOC_BANDWIDTH_SWEEP,
        NOC_LATENCY_SWEEP,
        TOPOLOGIES,
    )

    return (
        [{"l1.size_bytes": l1, "l2.size_bytes": l2} for l1, l2 in CACHE_SWEEP]
        + [{"dram.controller": c} for c in MEM_CONTROLLERS]
        + [{"noc.topology": t} for t in TOPOLOGIES]
        + [{"noc.topology": "mesh", "noc.router_delay": d}
           for d in NOC_LATENCY_SWEEP]
        + [{"noc.topology": "mesh", "noc.channel_bytes": b}
           for b in NOC_BANDWIDTH_SWEEP]
    )


#: Service and fan-out configs: baseline plus one SM-side and one
#: memory-side variant, so same-app/different-config pairs exist.
MIX_CONFIGS = [
    {},
    {"scheduler": "gto"},
    {"l1.size_bytes": 32 * 1024, "l2.size_bytes": 512 * 1024},
]

#: The estimate requests' sampling knobs (the service defaults).
SAMPLE = {"sample_fraction": 0.1, "sample_seed": 0}


def make_point(abbr: str, size: str, overrides: dict, cdp: bool = False,
               estimate: bool = False):
    """A :class:`SweepPoint` for one pool entry (label = identity)."""
    from repro.core.sweep import sweep_point
    from repro.data.datasets import DatasetSize
    from repro.sim.config import GPUConfig
    from repro.sim.configfile import apply_overrides

    config = apply_overrides(GPUConfig(), overrides)
    if estimate:
        config = config.with_(**SAMPLE)
    tag = ",".join(f"{k}={v}" for k, v in sorted(overrides.items()))
    label = (f"{'est:' if estimate else ''}{abbr}{'-CDP' if cdp else ''}"
             f"/{size}/{tag or 'baseline'}")
    return sweep_point(label, abbr, config, cdp=cdp, size=DatasetSize(size))


def _unique(points: list) -> list:
    from repro.core.sweep import point_key

    seen, out = set(), []
    for point in points:
        key = point_key(point)
        if key not in seen:
            seen.add(key)
            out.append(point)
    return out


def sweep_pool(apps: list[str], configs: list[dict]) -> dict[str, list]:
    """``{app: [points]}`` at medium size, duplicate configs dropped."""
    return {
        abbr: _unique([make_point(abbr, "medium", c) for c in configs])
        for abbr in apps
    }


def service_pool() -> list[dict]:
    """Every request the ``cold-service`` workload may send."""
    requests = []
    for abbr in ALL_APPS:
        for overrides in MIX_CONFIGS:
            requests.append(_request("simulate", abbr, "small", overrides))
            requests.append(_request("estimate", abbr, "small", overrides))
    for abbr in SERVICE_MEDIUM_APPS:
        for overrides in MIX_CONFIGS:
            requests.append(_request("simulate", abbr, "medium", overrides))
    return requests


def _request(kind: str, abbr: str, size: str, overrides: dict) -> dict:
    payload = {"benchmark": abbr, "size": size, "config": dict(overrides)}
    if kind == "estimate":
        payload.update(SAMPLE)
    return {
        "kind": kind,
        "payload": payload,
        "point": make_point(abbr, size, overrides,
                            estimate=kind == "estimate"),
        "exact": make_point(abbr, size, overrides),
    }


def fanout_pool() -> list:
    """Every small point ``fanout-small`` may place in a grid."""
    return [
        make_point(abbr, "small", overrides, cdp=cdp)
        for abbr in ALL_APPS
        for cdp in (False, True)
        for overrides in MIX_CONFIGS
    ]


def all_points() -> list:
    """Every pool point (exact and estimated), deduplicated."""
    points = []
    for pool in (sweep_pool(SM_APPS, sm_configs()),
                 sweep_pool(MEM_APPS, mem_configs())):
        for app_points in pool.values():
            points.extend(app_points)
    for request in service_pool():
        points.extend([request["point"], request["exact"]])
    points.extend(fanout_pool())
    return _unique(points)


# -- the correctness gate -------------------------------------------------------

def canonical(stats_dict: dict) -> str:
    """The JSON form a stats payload has after any wire round trip."""
    return json.dumps(json.loads(json.dumps(stats_dict)), sort_keys=True)


def digest(stats_dict: dict) -> str:
    return hashlib.sha256(canonical(stats_dict).encode()).hexdigest()[:24]


def load_digests(path=DIGESTS_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)["points"]


def check(expected: dict, key: str, stats_dict: dict | None) -> str | None:
    """None when ``stats_dict`` matches the committed digest, else why not."""
    if stats_dict is None:
        return "no result"
    entry = expected.get(key)
    if entry is None:
        return f"no committed digest for point {key}"
    if digest(stats_dict) != entry["digest"]:
        return (f"stats digest {digest(stats_dict)} != committed "
                f"{entry['digest']} for {entry['label']}")
    return None


def seeded(seed: int, name: str) -> random.Random:
    """The workload's private RNG: same seed, same choices."""
    return random.Random(f"{name}:{seed}")


def passes(rng: random.Random, classes: list[list], seconds: float,
           pass_s: float, minimum: int) -> list:
    """Whole passes over every class's items, each pass in a fresh
    seeded order with the classes interleaved in proportion.

    A budget of ``seconds`` runs ``round(seconds / pass_s)`` whole
    passes (``pass_s`` is a pass's nominal wall), so every seed's run
    holds the same multiset of items and seeds differ in order, not in
    cost.  A budget under half a pass takes a prefix of one pass that
    keeps the class proportions, at least ``minimum`` items long.
    """
    out = []
    for _ in range(max(1, round(seconds / pass_s))):
        keyed = []
        for members in classes:
            order = list(members)
            rng.shuffle(order)
            keyed += [((i + rng.random()) / len(order), item)
                      for i, item in enumerate(order)]
        keyed.sort(key=lambda kv: kv[0])
        out += [item for _, item in keyed]
    if seconds < pass_s / 2:
        out = out[:max(minimum, round(len(out) * seconds / pass_s))]
    return out


def regenerate(path=DIGESTS_PATH) -> int:
    """Recompute every pool point in-process and rewrite the digests."""
    from repro.core.sweep import TraceCache, point_key, run_point
    from repro.sim.trace_store import source_fingerprint

    cache = TraceCache()
    points = {}
    for point in all_points():
        stats = run_point(point, cache).to_dict()
        points[point_key(point)] = {
            "label": point.label,
            "digest": digest(stats),
            "cycles": stats["cycles"],
            "instructions": stats["instructions"],
        }
        print(f"{point.label}: {points[point_key(point)]['digest']}",
              file=sys.stderr, flush=True)
    payload = {"source_fingerprint": source_fingerprint(), "points": points}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return len(points)


if __name__ == "__main__":
    root = HERE.parent
    sys.path.insert(0, str(root / "src"))
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    print(f"{regenerate()} digests written to {DIGESTS_PATH}")
