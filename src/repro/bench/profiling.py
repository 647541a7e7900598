"""Profile-guided hotspot reporting for the simulation core.

Every performance claim in this repo starts from data: ``python -m repro
bench profile`` runs a growth-heavy workload under :mod:`cProfile`,
aggregates time by subsystem (overlay / rocq / reputation / sim / metrics),
and emits both a JSON document (machine-readable, uploaded by CI) and a text
hotspot table (human-readable).  The subsystem split answers the question the
raw profiler output obscures — *which layer* owns the next optimisation —
while the top-function list pinpoints the exact loop inside it.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from pathlib import Path
from typing import Any

from ..config import SimulationParameters
from ..sim.engine import run_simulation
from ..workloads.scenarios import paper_default

__all__ = [
    "SUBSYSTEMS",
    "profile_workload",
    "profile_params",
    "format_profile_text",
    "write_profile_report",
]

#: Subsystem buckets, matched against the path of each profiled function by
#: the substring ``/repro/<name>/`` (the package layout is the ground
#: truth).
SUBSYSTEMS: tuple[str, ...] = (
    "overlay",
    "rocq",
    "reputation",
    "sim",
    "metrics",
    "peers",
    "topology",
    "core",
    "parallel",
)

#: The profiled workload: growth_stress, the arrival-heavy operating point
#: whose hot path the optimisation rounds target.
_PAPER_HORIZON = 500_000


def _subsystem_of(filename: str, funcname: str = "") -> str:
    """Map a profiled function's source path (and name) to a subsystem bucket.

    numpy frames get their own bucket rather than being attributed to
    ``stdlib/other`` (Python-level numpy wrappers) or hidden among built-ins
    (the C ufuncs, whose "filename" is ``~``).
    """
    normalised = filename.replace("\\", "/")
    if "/repro/" not in normalised:
        if "/numpy/" in normalised or "numpy" in funcname:
            return "numpy"
        return "stdlib/other"
    for name in SUBSYSTEMS:
        if f"/repro/{name}/" in normalised:
            return name
    return "repro/other"


def profile_params(
    num_transactions: int = 5_000,
    seed: int = 1,
    arrival_rate: float = 0.2,
) -> SimulationParameters:
    """The growth_stress parameters profiled by :func:`profile_workload`."""
    return (
        paper_default(seed=seed)
        .scaled(num_transactions / _PAPER_HORIZON)
        .with_overrides(arrival_rate=arrival_rate)
    )


def profile_workload(
    num_transactions: int = 5_000,
    seed: int = 1,
    top: int = 20,
    warmup: bool = True,
) -> dict[str, Any]:
    """Profile one growth_stress run; return the hotspot report document.

    The report carries three views of the same run: total wall/profile time,
    per-subsystem aggregation of internal (``tottime``) seconds with their
    share of the total, and the ``top`` functions by internal time.  An
    untimed warm-up run precedes the profiled one by default so allocator
    and bytecode-cache effects do not pollute the numbers.
    """
    params = profile_params(num_transactions=num_transactions, seed=seed)
    if warmup:
        run_simulation(params)
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    summary = run_simulation(params)
    profiler.disable()
    elapsed = time.perf_counter() - started

    stats = pstats.Stats(profiler)
    subsystems: dict[str, dict[str, float]] = {}
    functions: list[dict[str, Any]] = []
    total_internal = 0.0
    for (filename, lineno, name), (
        primitive_calls,
        total_calls,
        tottime,
        cumtime,
        _callers,
    ) in stats.stats.items():  # type: ignore[attr-defined]
        total_internal += tottime
        subsystem = _subsystem_of(filename, name)
        bucket = subsystems.setdefault(subsystem, {"tottime": 0.0, "calls": 0})
        bucket["tottime"] += tottime
        bucket["calls"] += total_calls
        functions.append(
            {
                "function": f"{Path(filename).name}:{lineno}({name})",
                "subsystem": subsystem,
                "calls": total_calls,
                "tottime": round(tottime, 6),
                "cumtime": round(cumtime, 6),
            }
        )
    functions.sort(key=lambda row: row["tottime"], reverse=True)
    subsystem_rows = [
        {
            "subsystem": name,
            "tottime": round(data["tottime"], 6),
            "share": round(data["tottime"] / total_internal, 4)
            if total_internal > 0
            else 0.0,
            "calls": int(data["calls"]),
        }
        for name, data in sorted(
            subsystems.items(), key=lambda item: item[1]["tottime"], reverse=True
        )
    ]
    return {
        "benchmark": "profile",
        "workload": "growth_stress",
        "num_transactions": params.num_transactions,
        "arrival_rate": params.arrival_rate,
        "seed": seed,
        "elapsed_seconds": round(elapsed, 4),
        "tx_per_sec": round(params.num_transactions / elapsed, 1)
        if elapsed > 0
        else None,
        "transactions_attempted": summary.transactions_attempted,
        "total_internal_seconds": round(total_internal, 4),
        "subsystems": subsystem_rows,
        "top_functions": functions[:top],
    }


def format_profile_text(report: dict[str, Any]) -> str:
    """Render the hotspot report as an aligned text table."""
    lines = [
        (
            f"profile: {report['workload']} "
            f"({report['num_transactions']:,} transactions, "
            f"seed {report['seed']}) — {report['elapsed_seconds']:.3f}s, "
            f"{report['tx_per_sec']:,.0f} tx/s"
        ),
        "",
        f"{'subsystem':<14} {'seconds':>9} {'share':>7} {'calls':>10}",
    ]
    for row in report["subsystems"]:
        lines.append(
            f"{row['subsystem']:<14} {row['tottime']:>9.4f} "
            f"{row['share']:>6.1%} {row['calls']:>10,}"
        )
    lines.append("")
    lines.append(f"{'top functions by internal time':<50} {'calls':>9} "
                 f"{'tottime':>9} {'cumtime':>9}")
    for row in report["top_functions"]:
        lines.append(
            f"{row['function'][:50]:<50} {row['calls']:>9,} "
            f"{row['tottime']:>9.4f} {row['cumtime']:>9.4f}"
        )
    return "\n".join(lines)


def write_profile_report(report: dict[str, Any], out_path: str | Path) -> Path:
    """Write the profile report as JSON and return the path."""
    path = Path(out_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path
