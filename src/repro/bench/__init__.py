"""Function-level profiling: ``python -m repro bench profile``.

:func:`repro.bench.profiling.profile_workload` runs the growth_stress
workload under :mod:`cProfile` and aggregates internal time by subsystem;
the command prints a hotspot table and writes the same report as JSON.  This
is the drill-down tool: end-to-end and per-layer performance is measured by
the repository benchmark (``perfbench/run.py``).
"""
