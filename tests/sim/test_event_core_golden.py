"""Golden bit-identity: event core vs scan-per-decision reference.

The event-maintained issue loop (``repro.sim.sm``, with SM-local
run-ahead for non-CDP applications) must produce field-for-field
identical :class:`RunStats` to the frozen reference core
(``repro.sim.sm_reference``) on every benchmark — the performance work
is only allowed to change wall-clock, never the timing model.

Each arm runs two ways, and the lock holds for both: live (a freshly
built application, the SM cores counting instructions inline) and
through :func:`repro.core.sweep.run_point` (replayed traces whose
counts were taken at materialization).

The full suite runs at the small dataset; the heaviest benchmarks get
an extra medium-size lock so the identity holds beyond the default
size's trace shapes.
"""

import dataclasses

import pytest

from repro.core.sweep import run_point, sweep_point
from repro.data.datasets import DatasetSize
from repro.kernels import benchmark_names
from repro.sim.config import GPUConfig


def _stats_pair(abbr: str, cdp: bool, size: DatasetSize, live):
    """``(fast, ref)``, each ``[live stats, replayed stats]``."""
    def both(config):
        point = sweep_point(abbr, abbr, config, cdp=cdp, size=size)
        return [dataclasses.asdict(run(point)) for run in (live, run_point)]

    return both(GPUConfig(event_core=True)), both(GPUConfig(event_core=False))


@pytest.mark.parametrize("cdp", [False, True], ids=["plain", "cdp"])
@pytest.mark.parametrize("abbr", benchmark_names())
def test_small_suite_identical(abbr, cdp, live):
    fast, ref = _stats_pair(abbr, cdp, DatasetSize.SMALL, live)
    assert fast == ref


@pytest.mark.parametrize("cdp", [False, True], ids=["plain", "cdp"])
@pytest.mark.parametrize("abbr", ["GKSW", "PairHMM", "NvB"])
def test_medium_heavyweights_identical(abbr, cdp, live):
    fast, ref = _stats_pair(abbr, cdp, DatasetSize.MEDIUM, live)
    assert fast == ref
