"""Span tracing inside dsweep worker processes (traced runs only).

A traced ``fanout-small`` run puts this directory first on the workers'
``PYTHONPATH`` and names an output directory in
``PERFBENCH_WORKER_TRACE``; Python imports this module at start-up,
which wraps the same layers as the benchmark process and writes the
worker's layer totals there when it exits.
"""

import os

_OUT = os.environ.get("PERFBENCH_WORKER_TRACE")
if _OUT:
    import atexit
    import json
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import spans

    _tracer = spans.Tracer()
    _tracer.install(after_hooks=spans.counter_hooks(_tracer))

    @atexit.register
    def _dump():
        path = os.path.join(_OUT, f"worker-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump({"totals": _tracer.totals(),
                       "counters": _tracer.snapshot_counters()}, fh)
