"""One simulation repetition in a fresh process.

Usage: ``python3 perfbench/child.py '<job json>'`` with ``PYTHONPATH=src``.
The job holds the generated ``SimulationParameters`` fields, the parent's
``time.monotonic()`` just before it spawned this process, and the trace
mode: ``off``, ``spans``, or ``memory`` (spans plus tracemalloc).  Prints
one JSON document.  ``time.monotonic()`` is CLOCK_MONOTONIC on Linux, one
clock for every process, so ``setup_s`` includes interpreter start-up.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _memory_by_package(snapshot) -> dict[str, float]:
    """MB live per ``repro`` subpackage, by the allocating file."""
    totals: dict[str, float] = {}
    for stat in snapshot.statistics("filename"):
        filename = stat.traceback[0].filename.replace("\\", "/")
        marker = filename.rfind("/repro/")
        if marker < 0:
            continue
        package = filename[marker + len("/repro/"):].split("/")[0]
        if package.endswith(".py"):
            continue
        totals[package] = totals.get(package, 0.0) + stat.size / 1e6
    return totals


def main() -> int:
    job = json.loads(sys.argv[1])
    tracer = None
    if job["trace"] != "off":
        import tracing

        tracer = tracing.install(tracing.Tracer())
        tracer.run_id = int(job["run_id"])
    if job["trace"] == "memory":
        import tracemalloc

        tracemalloc.start()

    from repro.config import SimulationParameters
    from repro.metrics.summary import summary_digest
    from repro.sim.engine import Simulation

    sim = Simulation(SimulationParameters(**job["params"]))
    sim.setup()
    ready = time.monotonic()
    started = time.perf_counter()
    summary = sim.run()
    run_seconds = time.perf_counter() - started
    digest = summary_digest(summary)
    done = time.monotonic()

    result = {
        "digest": digest,
        "transactions": sim.params.num_transactions,
        "setup_s": ready - job["spawned"],
        "run_s": run_seconds,
        "turnaround_s": done - job["spawned"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if job["trace"] == "memory":
        memory = _memory_by_package(tracemalloc.take_snapshot())
        tracemalloc.stop()
        result["memory_mb"] = memory
    if tracer is not None:
        result["spans"] = tracer.summary()
        result["counts"] = dict(tracer.counts)
        result["wrapped"] = tracer.wrapped
        result["missing"] = tracer.missing
        if job.get("spans_path"):
            result["spans_written"] = tracer.write(job["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
