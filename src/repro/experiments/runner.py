"""Run every experiment and render a paper-vs-measured report.

Usage from Python::

    from repro.experiments import run_all, render_report

    results = run_all(scale=0.05, repeats=2, seed=1, jobs=4)
    print(render_report(results))

or from the command line::

    python -m repro experiment --scale 0.05 --repeats 2 --out results/

Parallel execution
------------------
Each experiment expands its parameter sweep into a batch of
:class:`~repro.parallel.specs.RunSpec` objects — one fully resolved
(parameters, seed) pair per repeat of each sweep point — and submits the
batch to an executor from :mod:`repro.parallel`.  ``--jobs N`` selects how
many simulations run concurrently and ``--backend`` picks the concurrency
model:

``serial``
    Everything inline in this process (the default for ``--jobs 1``).
``thread``
    A thread pool; useful once run bodies release the GIL.
``process``
    A :class:`concurrent.futures.ProcessPoolExecutor` (the default for
    ``--jobs`` > 1); the backend that scales sweeps across CPU cores.

Because every spec carries a seed derived deterministically from its (sweep
name, point label, repeat index) identity, results are **bit-identical**
across backends and job counts.

``--cache-dir DIR`` additionally persists every completed run, keyed by
(parameter fingerprint, seed), so repeated invocations — and experiments
that share simulations, like Figures 4 and 5 — skip runs that were already
computed, in any order.  The fingerprint covers every parameter, including
``reputation_scheme``, so runs of different backends never collide.

Scenarios and schemes
---------------------
``--scenario NAME`` resolves the base parameters through the scenario
registry (:mod:`repro.workloads.registry`; ``python -m repro catalogue``
prints every registry) and ``--scheme NAME`` swaps the reputation backend
the simulations run on, e.g.::

    python -m repro experiment \
        --only scheme_comparison --scenario tiny_test --jobs 2
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable, Mapping, Type

from ..analysis.storage import ResultStore
from ..analysis.tables import format_markdown_table
from ..config import SimulationParameters
from ..metrics.summary import RunSummary
from ..parallel.cache import RunCache
from ..parallel.executor import Executor
from ..parallel.specs import RunSpec
from .base import Experiment, ExperimentResult
from .detection_eval import DetectionEval
from .figure1_growth import Figure1Growth
from .figure2_reputation_time import Figure2ReputationOverTime
from .figure3_naive_proportion import Figure3NaiveProportion
from .figure4_lent_amount import Figure4LentAmount
from .figure5_lent_proportion import Figure5LentProportion
from .figure6_freerider_fraction import Figure6FreeriderFraction
from .robustness_matrix import RobustnessMatrix
from .scheme_comparison import SchemeComparison
from .success_rate import SuccessRateExperiment
from .table1_parameters import Table1Parameters

__all__ = [
    "EXPERIMENTS",
    "require_known",
    "make_experiment",
    "ThroughputExecutor",
    "throughput_line",
    "execution_order",
    "run_all",
    "render_report",
]

#: Registry of every experiment: the paper's artefacts in presentation order,
#: then the reproduction's own additions (the cross-scheme comparison and the
#: scheme x attack robustness matrix).
EXPERIMENTS: dict[str, Type[Experiment]] = {
    "table1": Table1Parameters,
    "figure1": Figure1Growth,
    "success": SuccessRateExperiment,
    "figure2": Figure2ReputationOverTime,
    "figure3": Figure3NaiveProportion,
    "figure4": Figure4LentAmount,
    "figure5": Figure5LentProportion,
    "figure6": Figure6FreeriderFraction,
    "scheme_comparison": SchemeComparison,
    "robustness_matrix": RobustnessMatrix,
    "detection_eval": DetectionEval,
}


def require_known(experiment_id: str) -> Type[Experiment]:
    """The registered experiment class, or a helpful KeyError."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError as exc:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from exc


def make_experiment(
    experiment_id: str,
    scale: float = 0.1,
    repeats: int = 3,
    seed: int = 1,
    base_params: SimulationParameters | None = None,
    executor: Executor | None = None,
    cache: RunCache | None = None,
    **kwargs,
) -> Experiment:
    """Instantiate the experiment registered under ``experiment_id``.

    Extra keyword arguments are forwarded to the experiment's constructor —
    e.g. ``schemes=...``/``attacks=...`` to restrict the grid experiments to
    a sub-grid (the report generator's smoke configuration does this).
    """
    experiment_cls = require_known(experiment_id)
    return experiment_cls(
        scale=scale,
        repeats=repeats,
        seed=seed,
        base_params=base_params,
        executor=executor,
        cache=cache,
        **kwargs,
    )


def _print_to_stderr(line: str) -> None:
    print(line, file=sys.stderr)


class ThroughputExecutor(Executor):
    """Executor decorator that reports transactions/sec per completed run.

    Wraps any backend's :meth:`map_specs` and, as each simulation finishes,
    emits its throughput (``num_transactions / RunSummary.elapsed_seconds``)
    through ``emit`` — the ``--throughput`` flag of the CLI.  Cache hits never
    reach the executor, so only freshly computed runs are reported.
    """

    def __init__(self, inner: Executor, emit: Callable[[str], None]) -> None:
        self.inner = inner
        self.backend = inner.backend
        self.jobs = inner.jobs
        self._emit = emit

    def map_specs(self, specs, progress=None, on_result=None):
        def report(index: int, summary: RunSummary) -> None:
            if on_result is not None:
                on_result(index, summary)
            self._emit(throughput_line(specs[index], summary))

        return self.inner.map_specs(specs, progress=progress, on_result=report)

    def close(self) -> None:
        self.inner.close()


def throughput_line(spec: RunSpec, summary: RunSummary) -> str:
    """One human-readable throughput report for a completed run."""
    transactions = summary.params.num_transactions
    elapsed = summary.elapsed_seconds
    if elapsed > 0:
        rate = f"{transactions / elapsed:,.0f} tx/s"
    else:
        rate = "n/a"
    return (
        f"[throughput] {spec.describe()}: {transactions:,} transactions "
        f"in {elapsed:.2f}s = {rate}"
    )


def execution_order(selected: list[str]) -> list[str]:
    """Selected ids in execution order: figure4 always precedes figure5.

    Figure 5 reuses Figure 4's sweep outcome, which only exists once Figure 4
    has run — so when both are requested, figure4 is moved directly in front
    of figure5 no matter how the ids were ordered.  Results are re-assembled
    in the requested order afterwards.
    """
    order = list(selected)
    if "figure4" in order and "figure5" in order:
        order.remove("figure4")
        order.insert(order.index("figure5"), "figure4")
    return order


def run_all(
    scale: float = 0.1,
    repeats: int = 3,
    seed: int = 1,
    only: list[str] | None = None,
    store: ResultStore | None = None,
    progress: Callable[[str], None] | None = None,
    base_params: SimulationParameters | None = None,
    jobs: int = 1,
    backend: str | None = None,
    cache: RunCache | Path | str | None = None,
    throughput: bool = False,
) -> dict[str, ExperimentResult]:
    """Run the selected experiments (all by default) and validate each.

    ``jobs`` and ``backend`` configure the parallel executor shared by every
    experiment (see the module docstring); results are identical for any
    combination.  ``cache`` (a :class:`RunCache` or a directory) skips
    simulations whose (params, seed) pair was already computed.
    ``throughput`` reports each completed run's transactions/sec through
    ``progress`` (or stderr when no progress sink is given).

    Figure 5 reuses Figure 4's simulation runs when both are requested —
    regardless of the order the ids appear in ``only`` — since they share
    the exact same sweep.  The returned mapping preserves the requested
    order.

    This is a convenience wrapper: it builds a throwaway
    :class:`~repro.api.service.SimulationService` and delegates to
    :meth:`~repro.api.service.SimulationService.run_experiments`, which is
    where the orchestration now lives.  Callers running more than one suite
    should hold a service themselves to reuse its worker pool.
    """
    # Imported here, not at module top: the service layer builds on this
    # module, and this wrapper is the one edge pointing the other way.
    from ..api.service import SimulationService

    service = SimulationService(jobs=jobs, backend=backend, cache=cache)
    try:
        return service.run_experiments(
            scale=scale,
            repeats=repeats,
            seed=seed,
            only=only,
            store=store,
            progress=progress,
            base_params=base_params,
            throughput=throughput,
        )
    finally:
        service.close()


def render_report(results: Mapping[str, ExperimentResult]) -> str:
    """Render a Markdown report of every result and its shape checks."""
    lines = ["# Reproduction report", ""]
    summary_rows = []
    for experiment_id, result in results.items():
        passed = sum(1 for check in result.checks if check.passed)
        total = len(result.checks)
        summary_rows.append(
            [experiment_id, result.title, f"{passed}/{total}" if total else "n/a"]
        )
    lines.append(
        format_markdown_table(["id", "experiment", "checks passed"], summary_rows)
    )
    lines.append("")
    for experiment_id, result in results.items():
        lines.append(f"## {experiment_id} — {result.title}")
        lines.append("")
        if result.notes:
            for note in result.notes:
                lines.append(f"*{note}*")
            lines.append("")
        if result.scalars:
            lines.append(
                format_markdown_table(
                    ["quantity", "value"],
                    [[name, value] for name, value in result.scalars.items()],
                )
            )
            lines.append("")
        if result.series:
            lines.append(
                format_markdown_table(result.table_headers(), result.table_rows())
            )
            lines.append("")
        if result.checks:
            lines.append(
                format_markdown_table(
                    ["shape check", "status", "detail"],
                    [
                        [check.name, "PASS" if check.passed else "FAIL", check.detail]
                        for check in result.checks
                    ],
                )
            )
            lines.append("")
    return "\n".join(lines)
