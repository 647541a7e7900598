"""Rewrite ``perfbench/digests.json``, the benchmark's correctness reference.

Usage: ``PYTHONPATH=src python3 perfbench/record_digests.py``.  Runs every
simulation workload at each of its recorded seeds, and every ``serve_mixed``
run request, in process through the public API.  Rerun it only in a change
that is meant to alter simulation results; a change that claims to keep
results must pass against the committed file unchanged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.api.request import RunRequest
from repro.api.service import SimulationService
from repro.config import SimulationParameters
from repro.metrics.summary import summary_digest
from repro.sim.engine import run_simulation

from run import HERE, SERVE_SEEDS, SIM_SEEDS, WORKLOADS, sim_params


def main() -> int:
    digests: dict[str, dict[str, str]] = {}
    for workload, spec in WORKLOADS.items():
        if spec is None:
            continue
        digests[workload] = {}
        for seed in range(SIM_SEEDS):
            params = sim_params(workload, seed)
            summary = run_simulation(SimulationParameters(**params))
            digests[workload][str(params["seed"])] = summary_digest(summary)
            print(workload, params["seed"], file=sys.stderr)
    with SimulationService() as service:
        digests["serve_mixed"] = {
            str(seed): service.run(RunRequest.from_dict(
                {"scenario": "tiny_test", "scheme": "rocq", "seed": seed})).digest()
            for seed in range(1, SERVE_SEEDS + 1)
        }
    path = HERE / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
