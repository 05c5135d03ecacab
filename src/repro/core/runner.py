"""Run benchmarks on the simulator and collect statistics."""

from __future__ import annotations

from repro.core.sweep import run_point, run_sweep, suite_points, sweep_point
from repro.data.datasets import DatasetSize
from repro.sim.config import GPUConfig
from repro.sim.stats import RunStats


def variant_name(abbr: str, cdp: bool) -> str:
    """Display name: ``NW`` or ``NW-CDP``."""
    return f"{abbr}-CDP" if cdp else abbr


def run_benchmark(
    abbr: str,
    cdp: bool = False,
    size: DatasetSize = DatasetSize.SMALL,
    config: GPUConfig | None = None,
    **options,
) -> RunStats:
    """Run one benchmark and return its statistics.

    The point runs like every other point (:func:`repro.core.sweep.run_point`):
    its traces are materialized (or loaded from ``REPRO_TRACE_STORE``) and
    replayed on a fresh simulator.  A config with ``sample_fraction > 0``
    returns a sampled :class:`~repro.sim.sampled.EstimatedRunStats`.
    """
    return run_point(sweep_point(
        variant_name(abbr, cdp), abbr, config or GPUConfig(),
        cdp=cdp, size=size, **options,
    ))


def run_suite(
    benchmarks: list[str] | None = None,
    cdp_variants: bool = True,
    size: DatasetSize = DatasetSize.SMALL,
    config: GPUConfig | None = None,
    jobs: int | None = 0,
) -> dict[str, RunStats]:
    """Run the whole suite; keys are variant names (``NW``, ``NW-CDP``...).

    ``jobs`` is forwarded to :func:`repro.core.sweep.run_sweep`: ``0``
    (the default) runs in-process, ``N`` across N worker processes,
    ``None`` one worker per CPU; all produce identical results.
    """
    return run_sweep(
        suite_points(benchmarks, cdp_variants, size, config), jobs=jobs
    )
