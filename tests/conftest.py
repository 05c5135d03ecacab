"""Shared fixtures for the test suite."""

import pytest

from repro.kernels import build_application
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPUSimulator


def live_stats(point):
    """Simulate a sweep point's freshly built application live.

    No trace cache, no replay, no store: the generator-driven reference
    that every replaying entry point (``run_point``, ``run_benchmark``,
    sweeps) must match bit for bit.
    """
    app = build_application(
        point.abbr, cdp=point.cdp, size=point.size, **dict(point.options)
    )
    return GPUSimulator(point.config).run_application(app)


@pytest.fixture(scope="session")
def live():
    """:func:`live_stats` as a fixture (test modules cannot import
    ``conftest`` portably)."""
    return live_stats


@pytest.fixture(autouse=True)
def _hermetic_trace_env(monkeypatch):
    """Keep the ambient trace-store/verify env out of every test.

    Tests that exercise the store or verification opt back in via
    ``monkeypatch.setenv`` / explicit arguments.
    """
    monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
    monkeypatch.delenv("REPRO_TRACE_VERIFY", raising=False)


@pytest.fixture
def small_gpu() -> GPUConfig:
    """A 4-SM machine: fast to simulate, same per-SM parameters."""
    return GPUConfig(num_sms=4)


@pytest.fixture
def tiny_gpu() -> GPUConfig:
    """A 2-SM machine with 2 memory partitions for unit-level tests."""
    return GPUConfig(num_sms=2, num_mem_partitions=2)
