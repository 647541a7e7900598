"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_rocq --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py              # every workload, then one traced pass each

``--trace 0`` repeats the workload untraced for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` runs one untraced and two traced
repetitions and reports the per-layer metrics.  Human-readable tables go to
stdout first; the last line is one JSON object.  A calibration kernel is
timed beside the repetitions and printed, not applied, to tell a noisy host
from a slow change.  Every repetition's digest is checked against
``perfbench/digests.json``; a mismatch makes the exit code 1.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: Simulation seeds with recorded digests; ``--seed n`` runs seed 1 + n % 16.
SIM_SEEDS = 16
#: tiny_test seeds with recorded run digests for ``serve_mixed``.
SERVE_SEEDS = 64

#: Table 1 (``paper_default``) scaled to a horizon of ``num_transactions``:
#: rates unchanged, sampling interval scaled like ``SimulationParameters.scaled``.
WORKLOADS = {
    "paper_rocq": {"num_transactions": 30_000},
    "whitewash_eigentrust": {"num_transactions": 3_000, "reputation_scheme": "eigentrust",
                             "adversary": "whitewash_waves"},
    "serve_mixed": None,
}
#: serve_mixed: repetitions per measured run, and the fixed (runs, reads)
#: script of a traced repetition.
SERVE_REPETITIONS = 4
SERVE_SCRIPT = (4, 200)
#: Count prefix that must read 0 in a workload's traced pass:
#: whitewash_eigentrust never builds ROCQ, so a ROCQ call there is a bug.
MUST_BE_ZERO = {"whitewash_eigentrust": "rocq."}

E2E_UNITS = {"setup_s": "s", "tx_per_s": "1/s", "peak_rss_mb": "MB", "turnaround_s": "s"}


def sim_params(workload: str, seed: int) -> dict:
    """The ``SimulationParameters`` fields of one workload at one seed."""
    spec = dict(WORKLOADS[workload])
    horizon = spec["num_transactions"]
    spec["sample_interval"] = max(1.0, 5000.0 * horizon / 500_000)
    if "adversary" in spec:
        # repro.adversary.default_adversary_spec: about eight waves per run.
        interval = max(1.0, horizon / 8.0)
        spec["adversary"] = {"name": spec["adversary"], "start_time": interval,
                             "interval": interval}
    spec["seed"] = 1 + seed % SIM_SEEDS
    return spec


def serve_seeds(seed: int):
    """The tiny_test seeds of successive ``serve_mixed`` runs."""
    start = seed % SERVE_SEEDS
    return (1 + (start + index) % SERVE_SEEDS for index in itertools.count())


# ---------------------------------------------------------------------- #
# Statistics                                                               #
# ---------------------------------------------------------------------- #
def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def tail(values: list[float]) -> tuple[str, float]:
    """The highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    ordered = sorted(values)
    for label, share in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9), ("p50", 0.5)):
        if len(ordered) * (1 - share) >= 10:
            return label, ordered[int(share * len(ordered))]
    return "max", ordered[-1] if ordered else 0.0


def calibrate() -> float:
    """Seconds of a fixed pure-Python kernel (host speed, not the program's)."""
    started = time.perf_counter()
    total = 0
    for index in range(300_000):
        total = (total + index * index) % 1_000_003
    return time.perf_counter() - started


# ---------------------------------------------------------------------- #
# Simulation workloads                                                     #
# ---------------------------------------------------------------------- #
def run_child(params: dict, trace: str, run_id: int = 0, spans_path: str = "") -> dict:
    """One repetition in a fresh process (so peak RSS and set-up are its own)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    job = {"params": params, "trace": trace, "run_id": run_id, "spans_path": spans_path,
           "spawned": time.monotonic()}
    try:
        completed = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
        )
    except subprocess.TimeoutExpired:
        return {"error": "repetition timed out after 170 s"}
    if completed.returncode != 0:
        return {"error": completed.stderr.strip()[-2000:] or f"exit {completed.returncode}"}
    return json.loads(completed.stdout.splitlines()[-1])


def check(rep: dict, expected: str | None) -> str | None:
    """Why a repetition failed, or ``None``."""
    if "error" in rep:
        return rep["error"]
    if rep["digest"] != expected:
        return f"digest {rep['digest']} != recorded {expected}"
    return None


def work_counts(rep: dict) -> tuple[dict, dict]:
    """Span counts and extra counts of a traced repetition (must repeat exactly)."""
    return {name: calls for name, (_, calls) in rep["spans"].items()}, rep["counts"]


def measure_sim(workload: str, seed: int, seconds: float, digests: dict) -> dict:
    params = sim_params(workload, seed)
    expected = digests[workload].get(str(params["seed"]))
    reps, errors, calibration = [], [], []
    started = time.monotonic()
    while len(reps) + len(errors) < 3 or time.monotonic() - started < seconds:
        calibration.append(calibrate())
        rep = run_child(params, "off")
        calibration.append(calibrate())
        problem = check(rep, expected)
        if problem:
            errors.append(problem)
        else:
            reps.append(rep)
        if time.monotonic() - started > 150:
            break
    samples = {
        "setup_s": [rep["setup_s"] for rep in reps],
        "tx_per_s": [rep["transactions"] / rep["run_s"] for rep in reps],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in reps],
        "turnaround_s": [rep["turnaround_s"] for rep in reps],
    }
    return {"params": params, "samples": samples, "attempted": len(reps) + len(errors),
            "failed": len(errors), "errors": errors, "calibration": calibration,
            "extra": {}}


def trace_sim(workload: str, seed: int, digests: dict) -> dict:
    params = sim_params(workload, seed)
    expected = digests[workload].get(str(params["seed"]))
    OUT.mkdir(exist_ok=True)
    spans_path = str(OUT / f"spans-{workload}-seed{seed}.csv.gz")
    plain = run_child(params, "off")
    traced = run_child(params, "spans", run_id=1, spans_path=spans_path)
    memory = run_child(params, "memory", run_id=2)
    reps = {"untraced": plain, "traced": traced, "traced+tracemalloc": memory}
    errors = [f"{name}: {problem}" for name, rep in reps.items()
              if (problem := check(rep, expected))]
    result = {"attempted": 3, "failed": len(errors), "errors": errors, "layers": {}}
    if errors:
        return result
    return finish_trace(workload, result, traced, memory,
                        plain["transactions"] / plain["run_s"],
                        traced["transactions"] / traced["run_s"], memory["memory_mb"],
                        spans_path)


def finish_trace(workload: str, result: dict, first: dict, second: dict,
                 untraced_tps: float, traced_tps: float, memory_mb: dict,
                 spans_path: str) -> dict:
    """Per-layer metrics of the first traced repetition, and their checks.

    The traced pass fails if a layer boundary wraps no method, if a count
    differs between the two traced repetitions, or if the workload does work
    in a layer it must bypass (``MUST_BE_ZERO``).
    """
    import tracing

    problems = []
    missing = sorted(set(first["missing"]) | set(second["missing"]))
    if missing:
        problems.append("boundaries that wrap no method (update tracing.LAYERS/COUNTS): "
                        + "; ".join(missing))
    if work_counts(first) != work_counts(second):
        problems.append("counts differ between the two traced repetitions")
    layers = tracing.layer_metrics(first["spans"], first["counts"], first["transactions"])
    bypassed = MUST_BE_ZERO.get(workload)
    if bypassed:
        nonzero = [f"{name}={value}" for name, value in layers.items()
                   if name.startswith(bypassed) and name.endswith("_n") and value]
        if nonzero:
            problems.append(f"{workload} must not reach {bypassed}*: " + ", ".join(nonzero))
    for package in ("rocq", "reputation", "overlay", "peers"):
        layers[f"{package}.mem_mb"] = memory_mb.get(package, 0.0)
    layers["trace.overhead_x"] = untraced_tps / traced_tps
    result.update(layers=layers, untraced_tx_per_s=untraced_tps, traced_tx_per_s=traced_tps,
                  spans_written=first.get("spans_written", 0), spans_path=spans_path,
                  wrapped=first["wrapped"])
    if problems:
        result.update(failed=1, errors=problems)
    return result


# ---------------------------------------------------------------------- #
# serve_mixed                                                              #
# ---------------------------------------------------------------------- #
def measure_serve(seed: int, seconds: float, digests: dict) -> dict:
    import serve_client

    OUT.mkdir(exist_ok=True)
    run_seeds = serve_seeds(seed)
    drive = max(2.0, seconds / SERVE_REPETITIONS - 1.0)
    reps, calibration = [], []
    for index in range(SERVE_REPETITIONS):
        calibration.append(calibrate())
        reps.append(serve_client.run_repetition(
            ROOT, OUT, f"{os.getpid()}-{index}", run_seeds, digests["serve_mixed"],
            client_seed=seed * 1000 + index, drive_seconds=drive))
        calibration.append(calibrate())
    pooled = {key: [value for rep in reps for value in rep[key]]
              for key in ("submit_s", "query_s", "turnaround_s")}
    samples = {
        "setup_s": [rep["setup_s"] for rep in reps],
        "tx_per_s": [rep["transactions"] / rep["drive_s"] for rep in reps],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in reps],
        "turnaround_s": pooled["turnaround_s"],
    }
    tail_label, tail_value = tail(pooled["query_s"]) if pooled["query_s"] else ("p50", 0.0)
    extra = {
        "submit_p50_ms": (statistics.median(pooled["submit_s"]) * 1e3
                          if pooled["submit_s"] else 0.0, "ms", len(pooled["submit_s"])),
        "query_p50_ms": (statistics.median(pooled["query_s"]) * 1e3
                         if pooled["query_s"] else 0.0, "ms", len(pooled["query_s"])),
        f"query_tail_ms ({tail_label})": (tail_value * 1e3, "ms", len(pooled["query_s"])),
        "requests_per_s": (statistics.median(rep["completed"] / rep["drive_s"] for rep in reps),
                           "1/s", len(reps)),
    }
    return {"samples": samples, "attempted": sum(rep["attempted"] for rep in reps),
            "failed": sum(rep["failed"] for rep in reps),
            "errors": [error for rep in reps for error in rep["errors"]],
            "calibration": calibration, "extra": extra,
            "params": {"runs": "tiny_test rocq", "repetitions": SERVE_REPETITIONS,
                       "drive_s": round(drive, 2)}}


def trace_serve(seed: int, digests: dict) -> dict:
    import serve_client

    OUT.mkdir(exist_ok=True)
    spans_path = str(OUT / f"spans-serve_mixed-seed{seed}.csv.gz")
    reps = {}
    # Only the repetition whose figures are reported writes its spans.
    for index, (name, traced, spans) in enumerate(
            (("untraced", False, ""), ("traced", True, spans_path),
             ("traced again", True, ""))):
        reps[name] = serve_client.run_repetition(
            ROOT, OUT, f"{os.getpid()}-{index}", serve_seeds(seed), digests["serve_mixed"],
            client_seed=seed, script=SERVE_SCRIPT, traced=traced, spans_path=spans)
    errors = [f"{name}: {error}" for name, rep in reps.items() for error in rep["errors"]]
    failed = sum(rep["failed"] for rep in reps.values())
    result = {"attempted": sum(rep["attempted"] for rep in reps.values()),
              "failed": failed, "errors": errors, "layers": {}}
    if failed:
        return result
    plain, first = reps["untraced"], reps["traced"]
    # The server holds no simulation state at shutdown: memory reads 0.
    return finish_trace("serve_mixed", result, first, reps["traced again"],
                        plain["transactions"] / plain["drive_s"],
                        first["transactions"] / first["drive_s"], {}, spans_path)


# ---------------------------------------------------------------------- #
# Reporting                                                                #
# ---------------------------------------------------------------------- #
def report_e2e(workload: str, seed: int, measured: dict) -> dict:
    metrics = {}
    print(f"== {workload}  seed {seed}  {json.dumps(measured['params'], sort_keys=True)}")
    calibration = measured["calibration"]
    print(f"   host calibration kernel: median {statistics.median(calibration) * 1e3:.2f} ms, "
          f"spread {spread(calibration):.1%} over {len(calibration)} timings")
    print(f"   {'metric':<28}{'median':>14}  {'unit':<6}{'spread':>8}{'n':>7}")
    for name, values in measured["samples"].items():
        value = statistics.median(values) if values else 0.0
        print(f"   {name:<28}{value:>14.4f}  {E2E_UNITS[name]:<6}"
              f"{spread(values):>8.1%}{len(values):>7}")
        metrics[name] = {"value": value, "unit": E2E_UNITS[name]}
    for name, (value, unit, count) in measured["extra"].items():
        print(f"   {name:<28}{value:>14.4f}  {unit:<6}{'':>8}{count:>7}")
    attempted, failed = measured["attempted"], measured["failed"]
    print(f"   {'failed_frac':<28}{failed / max(attempted, 1):>14.4f}  "
          f"{'1':<6}{'':>8}{attempted:>7}")
    for error in measured["errors"][:5]:
        print(f"   FAILED: {error}")
    return metrics


def report_layers(workload: str, seed: int, traced: dict) -> dict:
    print(f"== {workload}  seed {seed}  traced")
    for error in traced["errors"][:5]:
        print(f"   FAILED: {error}")
    layers = traced["layers"]
    if not layers:
        return {}
    print(f"   tx_per_s untraced {traced['untraced_tx_per_s']:.1f}, traced "
          f"{traced['traced_tx_per_s']:.1f}: overhead x{layers['trace.overhead_x']:.3f}; "
          f"{traced['wrapped']} methods wrapped; {traced['spans_written']} spans "
          f"in {Path(traced['spans_path']).relative_to(ROOT)}")
    print(f"   {'metric':<34}{'value':>16}")
    for name in sorted(layers):
        if name.endswith("_per_tx") or not layers[name]:
            continue
        value = layers[name]
        per_tx = layers.get(f"{name[:-2]}_per_tx") if name.endswith("_n") else None
        extra = f"   {per_tx:.4f}/tx" if per_tx is not None else ""
        shown = f"{value:>16d}" if name.endswith("_n") else f"{value:>16.4f}"
        print(f"   {name:<34}{shown}{extra}")
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_x"):
        return "x"
    return "count" if name.endswith("_n") else "ratio"


# ---------------------------------------------------------------------- #
# Entry point                                                              #
# ---------------------------------------------------------------------- #
def run_one(workload: str, seed: int, seconds: float, trace: bool, digests: dict):
    """(metrics, attempted, failed) of one workload in one mode."""
    if trace:
        traced = (trace_serve(seed, digests) if workload == "serve_mixed"
                  else trace_sim(workload, seed, digests))
        return report_layers(workload, seed, traced), traced["attempted"], traced["failed"]
    measured = (measure_serve(seed, seconds, digests) if workload == "serve_mixed"
                else measure_sim(workload, seed, seconds, digests))
    return report_e2e(workload, seed, measured), measured["attempted"], measured["failed"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "(default: both, for --workload all)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    digests = json.loads((HERE / "digests.json").read_text())
    sys.path.insert(0, str(HERE))

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [False, True] if args.trace is None else [bool(args.trace)]
    metrics, attempted, failed = {}, 0, 0
    for trace in modes:
        for workload in workloads:
            found, tried, bad = run_one(workload, args.seed, seconds, trace, digests)
            attempted += tried
            failed += bad
            prefix = "" if len(workloads) * len(modes) == 1 else f"{workload}/"
            metrics.update({prefix + name: value for name, value in found.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
