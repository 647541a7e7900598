"""The performance-benchmark subsystem (``python -m repro bench``).

Measures the membership-change hot path this library's scalability hinges on
— end-to-end transactions/sec on growth-heavy workloads, plus ring-operation
and assignment-lookup microbenchmarks — and writes a machine-readable report
(``BENCH_hotpath.json``) that seeds the repo's performance trajectory: every
future change to the hot path can be compared against these numbers, and CI
runs a tiny smoke configuration on every push.

Each end-to-end workload is run twice: once with the **legacy** membership
path (the seed's O(n) whole-ring rewiring and blanket assignment-cache
invalidation, restored by :func:`~repro.bench.hotpath.legacy_membership_path`)
and once with the current **incremental** path (O(log n) rewiring plus
targeted invalidation).  The report records both timings, the speedup, and —
because performance work must never change results — whether the two modes
produced bit-identical run summaries.
"""

from .hotpath import (
    HotpathBenchConfig,
    bench_assignment_lookup,
    bench_end_to_end,
    bench_quick_reference,
    bench_ring_ops,
    compare_reports,
    format_compare_table,
    legacy_membership_path,
    run_hotpath_benchmarks,
    write_report,
)

__all__ = [
    "HotpathBenchConfig",
    "bench_assignment_lookup",
    "bench_end_to_end",
    "bench_quick_reference",
    "bench_ring_ops",
    "compare_reports",
    "format_compare_table",
    "legacy_membership_path",
    "run_hotpath_benchmarks",
    "write_report",
]
