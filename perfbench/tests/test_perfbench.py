"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time

import pytest

import pools
import run
import spans
import workloads
from conftest import BENCH, ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
FAR = time.monotonic() + 3600


def test_benchmark_json_names_and_units_parse():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == table
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_cli_result_line_carries_every_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-sm",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_program_source_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-sm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_plans_are_seeded():
    for name, workload in workloads.WORKLOADS.items():
        first = workload.plan(7, 5)
        assert repr(first) == repr(workload.plan(7, 5)), name
        assert repr(first) != repr(workload.plan(8, 5)), name


def test_every_pool_point_has_a_digest():
    from repro.core.sweep import point_key

    expected = pools.load_digests()
    missing = [p.label for p in pools.all_points()
               if point_key(p) not in expected]
    assert not missing


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    workload = workloads.WORKLOADS["sweep-sm"]
    workload.prepare(work)
    ctx = workload.setup(work)
    plan = workload.plan(5, 0)[:3]
    return workload, ctx, plan, work


def test_corrupted_digest_counts_in_error_rate(sweep_run):
    workload, ctx, plan, _ = sweep_run
    timed = workload.run(ctx, plan, spans.NullTracer(), FAR)
    expected = pools.load_digests()
    assert run.verify(timed, expected)[0] == 0
    corrupted = dict(expected)
    key = timed.outcomes[0].key
    corrupted[key] = dict(expected[key], digest="0" * 24)
    failed, reasons = run.verify(timed, corrupted)
    assert failed == sum(o.key == key for o in timed.outcomes) >= 1
    assert "digest" in reasons[0]


def test_layer_self_times_sum_to_traced_wall(sweep_run, tmp_path):
    workload, ctx, plan, _ = sweep_run
    tracer = spans.Tracer()
    tracer.install(after_hooks=spans.counter_hooks(tracer))
    try:
        with tracer.span("bench.traced") as root:
            timed = workload.run(ctx, plan, tracer, FAR)
    finally:
        tracer.uninstall()
    table = tracer.self_time_table(root.duration, "bench.traced")
    assert all(v >= 0 for v in table.values()), table
    assert sum(table.values()) == pytest.approx(root.duration, rel=1e-9)
    # The program's layers account for the wall; the residual is small.
    assert table["bench.other_s"] < 0.05 * root.duration
    assert table["sim.run"] > 0 and table["cache.access"] > 0
    totals = tracer.totals()
    assert totals["sim.run"]["calls"] == len(plan)
    # Uninstall restored the program's own functions.
    from repro.sim.cache import Cache
    assert not hasattr(Cache.access, "__perfbench_original__")
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(path, {"workload": "sweep-sm"})
    events = json.loads(path.read_text())["traceEvents"]
    assert {e["name"] for e in events if e["ph"] == "X"} >= {
        "bench.point", "sim.run", "sweep.run_sweep"}
    assert run.verify(timed, pools.load_digests())[0] == 0


def _fanout(tmp_path, **kwargs):
    workload = workloads.FanoutWorkload(**kwargs)
    ctx = workload.setup(tmp_path)
    try:
        plan = workload.plan(1, 0)[:2]
        return workload.run(ctx, plan, spans.NullTracer(),
                            time.monotonic() + 120)
    finally:
        workload.close(ctx)


def test_killed_worker_is_retried_not_lost(tmp_path):
    # Worker 0 dies on the second chunk frame of every life (the set-up
    # sent the first); a budget of retries this large is never used up.
    timed = _fanout(tmp_path, max_retries=20,
                    worker_env={0: {"REPRO_DIST_DIE_AFTER": "2"}})
    assert timed.counters["dist.retries"] >= 1
    assert run.verify(timed, pools.load_digests())[0] == 0


def test_killed_worker_counts_as_failed_once_retries_run_out(tmp_path):
    timed = _fanout(tmp_path, max_retries=0,
                    worker_env={0: {"REPRO_DIST_DIE_AFTER": "2"}})
    assert timed.counters["dist.retries"] >= 1
    failed, reasons = run.verify(timed, pools.load_digests())
    assert failed >= 1
    assert any("lost after retries" in r for r in reasons)


def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(i) for i in range(1, 41)]
    value, pct = run.tail(values)
    assert value == 30.0 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(75.0)
