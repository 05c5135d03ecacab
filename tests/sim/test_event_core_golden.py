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

The small-suite arm also pins the outputs to committed values, not
only to each other: ``golden/event_core_small.json`` holds ``[cycles,
instructions, sha256 of RunStats.to_dict()]`` per variant at the
baseline config, checked against the stats the identity lock already
computed.  After a deliberate model change, regenerate it with::

    PYTHONPATH=src python -m tests.sim.test_event_core_golden
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.core.runner import variant_name
from repro.core.sweep import run_point, sweep_point
from repro.data.datasets import DatasetSize
from repro.kernels import benchmark_names
from repro.sim.config import GPUConfig

GOLDEN_PATH = Path(__file__).parent / "golden" / "event_core_small.json"


def _stats_pair(abbr: str, cdp: bool, size: DatasetSize, live):
    """``(fast, ref)``, each ``[live stats, replayed stats]``."""
    def both(config):
        point = sweep_point(abbr, abbr, config, cdp=cdp, size=size)
        return [run(point) for run in (live, run_point)]

    return both(GPUConfig(event_core=True)), both(GPUConfig(event_core=False))


def _asdicts(runs):
    return [dataclasses.asdict(stats) for stats in runs]


def golden_row(stats) -> list:
    """``[cycles, instructions, sha256]`` of one run's full stats."""
    payload = json.dumps(stats.to_dict(), sort_keys=True).encode()
    return [
        stats.cycles, stats.instructions, hashlib.sha256(payload).hexdigest()
    ]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("cdp", [False, True], ids=["plain", "cdp"])
@pytest.mark.parametrize("abbr", benchmark_names())
def test_small_suite_identical(abbr, cdp, live, golden):
    fast, ref = _stats_pair(abbr, cdp, DatasetSize.SMALL, live)
    assert _asdicts(fast) == _asdicts(ref)
    assert golden_row(fast[0]) == golden[variant_name(abbr, cdp)]


@pytest.mark.parametrize("cdp", [False, True], ids=["plain", "cdp"])
@pytest.mark.parametrize("abbr", ["GKSW", "PairHMM", "NvB"])
def test_medium_heavyweights_identical(abbr, cdp, live):
    fast, ref = _stats_pair(abbr, cdp, DatasetSize.MEDIUM, live)
    assert _asdicts(fast) == _asdicts(ref)


if __name__ == "__main__":
    rows = {
        variant_name(abbr, cdp): golden_row(run_point(
            sweep_point(abbr, abbr, GPUConfig(), cdp=cdp)
        ))
        for abbr in benchmark_names()
        for cdp in (False, True)
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text("{\n" + ",\n".join(
        f"  {json.dumps(name)}: {json.dumps(row)}"
        for name, row in rows.items()
    ) + "\n}\n")
    print(f"wrote {len(rows)} rows to {GOLDEN_PATH}")
