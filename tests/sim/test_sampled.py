"""Unit and determinism tests for the warp-sampled estimator.

The determinism lock is the load-bearing test here: the same
``(application, config, sample_seed)`` must produce the identical
:class:`EstimatedRunStats` regardless of process topology
(``--jobs`` / ``--workers``) or ambient global-RNG state.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.runner import run_benchmark
from repro.core.sweep import (
    TraceCache,
    run_point,
    run_sweep,
    sweep_point,
    trace_signature,
)
from repro.kernels import build_application
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPUSimulator
from repro.sim.replay import CachedApplication, replay_application
from repro.sim.sampled import (
    EstimatedRunStats,
    estimate_application,
    ranking_inversions,
    spearman,
)


@pytest.fixture(scope="module")
def cached_nw() -> CachedApplication:
    return CachedApplication(build_application("NW"))


@pytest.fixture(scope="module")
def cached_sw() -> CachedApplication:
    return CachedApplication(build_application("SW"))


def est_config(**overrides) -> GPUConfig:
    params = {"sample_fraction": 0.1}
    params.update(overrides)
    return GPUConfig(**params)


# -- result shape ----------------------------------------------------------

def test_returns_estimated_run_stats(cached_nw):
    stats = estimate_application(cached_nw, est_config())
    assert isinstance(stats, EstimatedRunStats)
    for metric in ("cycles", "device_time", "ipc",
                   "l1_miss_rate", "l2_miss_rate",
                   "dram_requests", "noc_bytes"):
        lo, hi = stats.interval(metric)
        assert lo <= hi
    sample = stats.sample
    assert sample["requested_fraction"] == 0.1
    assert 0 < sample["sampled_ctas"] <= sample["total_ctas"]
    assert 0 < sample["launches_kept"] <= sample["launches"]


def test_interval_brackets_estimate(cached_nw):
    stats = estimate_application(cached_nw, est_config())
    lo, hi = stats.interval("cycles")
    assert lo <= stats.cycles <= hi
    assert stats.covers("cycles", stats.cycles)
    with pytest.raises(KeyError):
        stats.covers("no_such_metric", 0.0)


def test_exact_passthroughs_are_exact(cached_nw):
    """Counts that do not depend on timing are never estimated."""
    exact = replay_application(cached_nw, GPUSimulator(GPUConfig()))
    stats = estimate_application(cached_nw, est_config())
    assert stats.instructions == exact.instructions
    assert stats.kernel_launches == exact.kernel_launches
    assert stats.device_launches == exact.device_launches
    assert stats.memcpy_calls == exact.memcpy_calls
    assert stats.pci_cycles == exact.pci_cycles


# -- exact fallback --------------------------------------------------------

def test_fraction_one_degenerates_to_exact(cached_nw):
    exact = replay_application(cached_nw, GPUSimulator(GPUConfig()))
    stats = estimate_application(cached_nw, est_config(sample_fraction=1.0))
    assert not stats.estimated
    assert stats.sample["exact_fallback"]
    assert stats.cycles == exact.cycles
    assert stats.ipc == exact.ipc
    lo, hi = stats.interval("cycles")
    assert lo == hi == exact.cycles


# -- misuse guards ---------------------------------------------------------

def test_gpu_simulator_rejects_sample_fraction(cached_nw):
    simulator = GPUSimulator(est_config())
    with pytest.raises(RuntimeError, match="sample"):
        simulator.run_application(cached_nw)


def test_estimate_requires_positive_fraction(cached_nw):
    with pytest.raises(ValueError):
        estimate_application(cached_nw, GPUConfig())


def test_estimate_requires_cached_application():
    with pytest.raises(TypeError):
        estimate_application(build_application("NW"), est_config())


def test_config_validates_sample_knobs():
    with pytest.raises(ValueError):
        GPUConfig(sample_fraction=1.5)
    with pytest.raises(ValueError):
        GPUConfig(sample_min_per_class=0)
    with pytest.raises(ValueError):
        GPUConfig(sample_max_launches_per_class=-1)


# -- determinism (the satellite lock) --------------------------------------

def test_same_seed_identical_estimates(cached_sw):
    config = est_config()
    first = estimate_application(cached_sw, config)
    second = estimate_application(cached_sw, config)
    assert dataclasses.asdict(first) == dataclasses.asdict(second)


def test_global_rng_is_neither_read_nor_written(cached_sw):
    config = est_config()
    random.seed(12345)
    state = random.getstate()
    first = estimate_application(cached_sw, config)
    assert random.getstate() == state, "estimator touched the global RNG"
    random.seed(99999)
    second = estimate_application(cached_sw, config)
    assert dataclasses.asdict(first) == dataclasses.asdict(second)


def test_seed_changes_the_sample(cached_sw):
    """Across several seeds the drawn samples must actually vary."""
    estimates = {
        estimate_application(
            cached_sw, est_config(sample_seed=seed)
        ).cycles
        for seed in range(5)
    }
    assert len(estimates) > 1


def test_identical_across_jobs():
    """Same points, jobs=0 vs jobs=2: bit-identical EstimatedRunStats.

    This is the determinism satellite: the seed travels inside the
    point's config across the process-pool boundary, and no worker
    ever consults process-local state to draw the sample.
    """
    config = est_config()
    points = [
        sweep_point(f"{abbr}|{cdp}", abbr, config, cdp=cdp)
        for abbr in ("NW", "SW")
        for cdp in (False, True)
    ]
    serial = run_sweep(points, jobs=0, store=None)
    pooled = run_sweep(points, jobs=2, store=None)
    for label in serial:
        assert dataclasses.asdict(serial[label]) == dataclasses.asdict(
            pooled[label]
        ), label
        assert isinstance(serial[label], EstimatedRunStats)


# -- sweep-engine routing --------------------------------------------------

def test_run_point_routes_to_estimator():
    point = sweep_point("NW-est", "NW", est_config())
    stats = run_point(point)
    assert isinstance(stats, EstimatedRunStats)
    assert stats.interval("cycles") is not None


def test_exact_and_estimated_points_share_traces():
    cache = TraceCache()
    exact_point = sweep_point("NW", "NW", GPUConfig())
    est_point = sweep_point("NW-est", "NW", est_config())
    run_point(exact_point, cache)
    assert (cache.misses, cache.hits) == (1, 0)
    stats = run_point(est_point, cache)
    assert (cache.misses, cache.hits) == (1, 1)
    assert isinstance(stats, EstimatedRunStats)


def test_estimate_after_store_hit_matches_storeless(tmp_path):
    """A warm store hands exact points a StoredApplication, which has
    no equivalence classes; a later estimate on the same cache must
    still get a CachedApplication and the store-less answer."""
    from repro.sim.trace_store import TraceStore

    exact_point = sweep_point("NW", "NW", GPUConfig())
    est_point = sweep_point("NW-est", "NW", est_config())
    TraceCache(store=TraceStore(tmp_path)).get(exact_point)  # warm it
    cache = TraceCache(store=TraceStore(tmp_path))
    run_point(exact_point, cache)
    assert cache.store_hits == 1
    stats = run_point(est_point, cache)
    expected = run_point(est_point, TraceCache())
    assert dataclasses.asdict(stats) == dataclasses.asdict(expected)


def test_trace_signature_excludes_sample_knobs():
    assert trace_signature(GPUConfig()) == trace_signature(
        est_config(sample_seed=7, sample_min_per_class=4)
    )


def test_run_benchmark_estimates_sampled_configs():
    stats = run_benchmark("NW", config=est_config())
    assert isinstance(stats, EstimatedRunStats)
    assert stats.sample["requested_fraction"] == 0.1


# -- ranking helpers -------------------------------------------------------

def test_spearman_perfect_and_reversed():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert spearman(xs, xs) == pytest.approx(1.0)
    assert spearman(xs, list(reversed(xs))) == pytest.approx(-1.0)


def test_spearman_handles_ties():
    rho = spearman([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0])
    assert rho == pytest.approx(1.0)


def test_ranking_inversions_counts_swaps():
    assert ranking_inversions(["a", "b", "c"], ["a", "b", "c"]) == 0
    assert ranking_inversions(["a", "b", "c"], ["b", "a", "c"]) == 1
    assert ranking_inversions(["a", "b", "c"], ["c", "b", "a"]) == 3
