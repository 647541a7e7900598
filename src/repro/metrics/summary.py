"""Per-run summary: the numbers the paper's figures are built from."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from ..config import SimulationParameters
from ..core.introduction import RefusalReason
from ..core.lending import LendingStats
from .collector import MetricsCollector
from .timeseries import TimeSeries

__all__ = ["RunSummary", "summary_digest"]


def _float_or_nan(value: Any) -> float:
    """Parse a float metric, mapping JSON ``null`` back to ``nan``.

    :meth:`repro.analysis.storage.ResultStore.save_json` sanitises
    non-finite floats to ``null`` (bare ``NaN`` tokens are not valid JSON),
    so a persisted summary whose metric was ``nan`` — e.g. a success rate
    over zero decisions — comes back as ``None`` and must round-trip.
    """
    return float("nan") if value is None else float(value)


def summary_digest(summary: "RunSummary") -> str:
    """Canonical digest of one run summary, ignoring wall-clock time.

    This is the currency of the repo's golden tests and of the trace
    engine: two runs are bit-identical exactly when their summary digests
    match.  Re-exported by :mod:`repro.api.results` for API users.
    """
    document = summary.to_dict()
    document.pop("elapsed_seconds", None)
    # Detection ground truth is derived observability data: the adversary
    # identity list and per-peer score snapshots are read off state the run
    # already produced, so two runs that agree on everything else cannot
    # disagree on them — stripping keeps cached fingerprints and recorded
    # trace digests stable across summaries with and without the payload.
    document.pop("adversary_identities", None)
    document.pop("detection", None)
    text = json.dumps(document, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class RunSummary:
    """Everything a figure/table needs to know about one simulation run.

    Instances are cheap, picklable value objects: the experiment harness runs
    several repeats, collects their summaries, and averages across them.
    """

    params: SimulationParameters
    seed: int
    # Final community composition --------------------------------------------
    final_cooperative: int
    final_uncooperative: int
    final_waiting: int
    final_rejected: int
    # Admission flow -----------------------------------------------------------
    arrivals_cooperative: int
    arrivals_uncooperative: int
    admitted_cooperative: int
    admitted_uncooperative: int
    refusals: dict[str, int]
    refused_due_to_introducer_reputation: int
    refused_uncooperative_by_selective: int
    # Transactions --------------------------------------------------------------
    transactions_attempted: int
    transactions_served: int
    transactions_denied: int
    success_rate: float
    # Lending -------------------------------------------------------------------
    introductions_granted: int
    audits_passed: int
    audits_failed: int
    total_reputation_lent: float
    total_rewards_paid: float
    total_stakes_lost: float
    # Time series ----------------------------------------------------------------
    cooperative_reputation: TimeSeries = field(default_factory=TimeSeries)
    uncooperative_reputation: TimeSeries = field(default_factory=TimeSeries)
    cooperative_count: TimeSeries = field(default_factory=TimeSeries)
    uncooperative_count: TimeSeries = field(default_factory=TimeSeries)
    # Wall-clock duration of the run in seconds (informational).
    elapsed_seconds: float = 0.0
    #: Every identity the configured adversary ever controlled (including
    #: burned whitewash identities that only appear in the event stream), as
    #: a sorted id list.  ``None`` on runs without an adversary.  Derived
    #: observability data, excluded from :func:`summary_digest`.
    adversary_identities: list[int] | None = None
    #: Ground-truth detection payload (per-peer final scores, labels and
    #: score-history snapshots) attached by the engine on adversary runs;
    #: consumed by :meth:`repro.detection.LabelSet.from_summary`.  ``None``
    #: without an adversary.  Excluded from :func:`summary_digest`.
    detection: dict[str, Any] | None = None

    # ------------------------------------------------------------------ #
    # Derived quantities                                                    #
    # ------------------------------------------------------------------ #
    @property
    def final_total(self) -> int:
        """Total admitted peers alive at the end of the run."""
        return self.final_cooperative + self.final_uncooperative

    @property
    def final_uncooperative_fraction(self) -> float:
        """Fraction of the final community that is uncooperative."""
        total = self.final_total
        if total == 0:
            return float("nan")
        return self.final_uncooperative / total

    @property
    def mean_cooperative_reputation(self) -> float:
        """Time-averaged reputation of cooperative peers."""
        return self.cooperative_reputation.mean()

    # ------------------------------------------------------------------ #
    # Construction                                                          #
    # ------------------------------------------------------------------ #
    @classmethod
    def from_run(
        cls,
        params: SimulationParameters,
        seed: int,
        collector: MetricsCollector,
        lending_stats: LendingStats,
        final_cooperative: int,
        final_uncooperative: int,
        final_waiting: int,
        final_rejected: int,
        elapsed_seconds: float = 0.0,
    ) -> "RunSummary":
        """Assemble a summary from the engine's end-of-run state."""
        return cls(
            params=params,
            seed=seed,
            final_cooperative=final_cooperative,
            final_uncooperative=final_uncooperative,
            final_waiting=final_waiting,
            final_rejected=final_rejected,
            arrivals_cooperative=collector.arrivals_cooperative,
            arrivals_uncooperative=collector.arrivals_uncooperative,
            admitted_cooperative=collector.admitted_cooperative,
            admitted_uncooperative=collector.admitted_uncooperative,
            refusals={r.value: c for r, c in collector.refusals.items()},
            refused_due_to_introducer_reputation=collector.refusal_count(
                RefusalReason.INSUFFICIENT_REPUTATION
            ),
            refused_uncooperative_by_selective=collector.refusal_count(
                RefusalReason.SELECTIVE_REFUSAL, cooperative=False
            ),
            transactions_attempted=collector.transactions_attempted,
            transactions_served=collector.transactions_served,
            transactions_denied=collector.transactions_denied,
            success_rate=collector.decisions.success_rate,
            introductions_granted=lending_stats.introductions_granted,
            audits_passed=lending_stats.audits_passed,
            audits_failed=lending_stats.audits_failed,
            total_reputation_lent=lending_stats.total_reputation_lent,
            total_rewards_paid=lending_stats.total_rewards_paid,
            total_stakes_lost=lending_stats.total_stakes_lost,
            cooperative_reputation=collector.cooperative_reputation,
            uncooperative_reputation=collector.uncooperative_reputation,
            cooperative_count=collector.cooperative_count,
            uncooperative_count=collector.uncooperative_count,
            elapsed_seconds=elapsed_seconds,
        )

    # ------------------------------------------------------------------ #
    # Serialisation                                                         #
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation (used by analysis.storage)."""
        document: dict[str, Any] = {
            "params": self.params.to_dict(),
            "seed": self.seed,
            "final_cooperative": self.final_cooperative,
            "final_uncooperative": self.final_uncooperative,
            "final_waiting": self.final_waiting,
            "final_rejected": self.final_rejected,
            "arrivals_cooperative": self.arrivals_cooperative,
            "arrivals_uncooperative": self.arrivals_uncooperative,
            "admitted_cooperative": self.admitted_cooperative,
            "admitted_uncooperative": self.admitted_uncooperative,
            "refusals": dict(self.refusals),
            "refused_due_to_introducer_reputation": (
                self.refused_due_to_introducer_reputation
            ),
            "refused_uncooperative_by_selective": (
                self.refused_uncooperative_by_selective
            ),
            "transactions_attempted": self.transactions_attempted,
            "transactions_served": self.transactions_served,
            "transactions_denied": self.transactions_denied,
            "success_rate": self.success_rate,
            "introductions_granted": self.introductions_granted,
            "audits_passed": self.audits_passed,
            "audits_failed": self.audits_failed,
            "total_reputation_lent": self.total_reputation_lent,
            "total_rewards_paid": self.total_rewards_paid,
            "total_stakes_lost": self.total_stakes_lost,
            "cooperative_reputation": self.cooperative_reputation.to_dict(),
            "uncooperative_reputation": self.uncooperative_reputation.to_dict(),
            "cooperative_count": self.cooperative_count.to_dict(),
            "uncooperative_count": self.uncooperative_count.to_dict(),
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.adversary_identities is not None:
            document["adversary_identities"] = list(self.adversary_identities)
        if self.detection is not None:
            document["detection"] = self.detection
        return document

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunSummary":
        """Rebuild a summary produced by :meth:`to_dict`.

        Used by the run cache (:class:`repro.parallel.cache.RunCache`) to
        rehydrate persisted runs; raises ``KeyError`` on missing fields so a
        stale document is detected rather than silently zero-filled.
        """
        return cls(
            params=SimulationParameters.from_dict(data["params"]),
            seed=int(data["seed"]),
            final_cooperative=int(data["final_cooperative"]),
            final_uncooperative=int(data["final_uncooperative"]),
            final_waiting=int(data["final_waiting"]),
            final_rejected=int(data["final_rejected"]),
            arrivals_cooperative=int(data["arrivals_cooperative"]),
            arrivals_uncooperative=int(data["arrivals_uncooperative"]),
            admitted_cooperative=int(data["admitted_cooperative"]),
            admitted_uncooperative=int(data["admitted_uncooperative"]),
            refusals={str(k): int(v) for k, v in data["refusals"].items()},
            refused_due_to_introducer_reputation=int(
                data["refused_due_to_introducer_reputation"]
            ),
            refused_uncooperative_by_selective=int(
                data["refused_uncooperative_by_selective"]
            ),
            transactions_attempted=int(data["transactions_attempted"]),
            transactions_served=int(data["transactions_served"]),
            transactions_denied=int(data["transactions_denied"]),
            success_rate=_float_or_nan(data["success_rate"]),
            introductions_granted=int(data["introductions_granted"]),
            audits_passed=int(data["audits_passed"]),
            audits_failed=int(data["audits_failed"]),
            total_reputation_lent=_float_or_nan(data["total_reputation_lent"]),
            total_rewards_paid=_float_or_nan(data["total_rewards_paid"]),
            total_stakes_lost=_float_or_nan(data["total_stakes_lost"]),
            cooperative_reputation=TimeSeries.from_dict(
                data["cooperative_reputation"]
            ),
            uncooperative_reputation=TimeSeries.from_dict(
                data["uncooperative_reputation"]
            ),
            cooperative_count=TimeSeries.from_dict(data["cooperative_count"]),
            uncooperative_count=TimeSeries.from_dict(data["uncooperative_count"]),
            elapsed_seconds=float(data["elapsed_seconds"]),
            adversary_identities=(
                [int(peer_id) for peer_id in data["adversary_identities"]]
                if data.get("adversary_identities") is not None
                else None
            ),
            detection=data.get("detection"),
        )
