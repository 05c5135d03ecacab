"""Golden bit-identity: window-barrier parallel core vs sequential.

The parallel core (``repro.sim.parallel``) shards the SM array across
N workers and synchronizes them at window barriers; within the safe
window bound it must produce field-for-field identical
:class:`RunStats` to the sequential event core on every benchmark —
sharding is only allowed to change wall-clock, never the timing model.

The full suite runs at the small dataset for shards in {2, 4} under
*both* execution backends — the in-process ``inline`` driver and the
forked process workers (``repro.sim.parallel_proc``); the heaviest benchmarks
get an extra medium-size lock, and a shards x windows matrix (marked
``slow``) locks the identity across explicit window sizes up to the
safe bound.  Relaxed mode (windows beyond the bound) is deliberately
absent from these locks: its results are approximate by design.

Each arm runs two ways, and the lock holds for both: live (a freshly
built application, the shards counting instructions inline and sending
their counts back) and through :func:`repro.core.sweep.run_point`
(replayed traces whose counts were taken at materialization).
"""

import dataclasses

import pytest

from repro.core.sweep import run_point, sweep_point
from repro.data.datasets import DatasetSize
from repro.kernels import benchmark_names
from repro.sim.config import GPUConfig


def _both(live, abbr: str, cdp: bool, size: DatasetSize,
          config: GPUConfig):
    """``[live RunStats, replayed RunStats]`` of one point."""
    point = sweep_point(abbr, abbr, config, cdp=cdp, size=size)
    return [run(point) for run in (live, run_point)]


def _sequential(live, abbr: str, cdp: bool, size: DatasetSize):
    config = GPUConfig(event_core=True)
    return [
        dataclasses.asdict(stats)
        for stats in _both(live, abbr, cdp, size, config)
    ]


def _parallel(live, abbr: str, cdp: bool, size: DatasetSize, shards: int,
              window: int = 0, executor: str = "auto"):
    config = GPUConfig(
        event_core=True,
        parallel_shards=shards,
        window_cycles=window,
        parallel_executor=executor,
    )
    return [
        dataclasses.asdict(stats)
        for stats in _both(live, abbr, cdp, size, config)
    ]


@pytest.mark.parametrize("executor", ["inline", "processes"])
@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("cdp", [False, True], ids=["plain", "cdp"])
@pytest.mark.parametrize("abbr", benchmark_names())
def test_small_suite_identical(abbr, cdp, shards, executor, live):
    """Both backends, whole suite.  CDP variants exercise the process
    backend's eligibility fallback (device launches keep the run
    in-process) — the identity contract holds either way."""
    seq = _sequential(live, abbr, cdp, DatasetSize.SMALL)
    par = _parallel(
        live, abbr, cdp, DatasetSize.SMALL, shards, executor=executor
    )
    assert par == seq


@pytest.mark.slow
@pytest.mark.parametrize("cdp", [False, True], ids=["plain", "cdp"])
@pytest.mark.parametrize("abbr", ["PairHMM", "NvB"])
def test_medium_heavyweights_identical(abbr, cdp, live):
    seq = _sequential(live, abbr, cdp, DatasetSize.MEDIUM)
    par = _parallel(live, abbr, cdp, DatasetSize.MEDIUM, 4)
    assert par == seq


@pytest.mark.slow
@pytest.mark.parametrize("window", [1, 16, 64, 131])
@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("abbr", ["NW", "PairHMM"])
def test_shards_windows_matrix_identical(abbr, shards, window, live):
    """Explicit window sizes up to the default safe bound (131)."""
    seq = _sequential(live, abbr, False, DatasetSize.SMALL)
    par = _parallel(
        live, abbr, False, DatasetSize.SMALL, shards, window=window
    )
    assert par == seq


def test_processes_match_inline(live):
    """The forked backend and the in-process driver are two mechanisms
    for the same schedule: their RunStats must agree field-for-field."""
    procs = _parallel(
        live, "PairHMM", False, DatasetSize.SMALL, 4, executor="processes"
    )
    inline = _parallel(
        live, "PairHMM", False, DatasetSize.SMALL, 4, executor="inline"
    )
    assert procs == inline


@pytest.mark.parametrize("executor", ["inline", "processes"])
def test_telemetry_differential_identical(executor, live):
    """Per-shard telemetry absorbed at finalize must reproduce the
    sequential sampler's rows and events — for both backends (the
    process backend ships each worker's Telemetry pickled at
    finalize)."""
    def stats(shards):
        config = GPUConfig(
            event_core=True, parallel_shards=shards,
            telemetry_interval=5_000, parallel_executor=executor,
        )
        return _both(live, "PairHMM", False, DatasetSize.SMALL, config)

    for seq, par in zip(stats(1), stats(4)):
        assert par.telemetry == seq.telemetry
        assert dataclasses.asdict(par) == dataclasses.asdict(seq)
