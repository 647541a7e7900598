"""The replicated reputation store.

:class:`ReputationStore` is the facade the rest of the library talks to.  It
combines the overlay's score-manager assignment with the per-manager
:class:`~repro.rocq.score_manager.ScoreManager` state:

* ``global_reputation(subject)`` — query the subject's current managers and
  combine their stored values (mean by default, median available), which is
  what a peer obtains when it "asks for the reputation of the requesting
  peer" before a transaction;
* ``submit_report(report)`` — deliver a feedback report to every manager of
  the subject;
* ``apply_adjustment(adjustment)`` — deliver a lending-protocol adjustment to
  every manager of the subject and return the mean amount actually applied;
* churn hooks implementing the overlay's ``ReputationStoreProtocol`` so
  records survive manager departures.

Manager lists are cached, and the cache is kept coherent under churn by
**targeted invalidation**: alongside each cached subject the store remembers
the ring keys its assignment depends on (a reverse index from overlay arcs
to cached subjects), so a single join/leave — delivered as a
:class:`~repro.overlay.membership.MembershipChange` via
:meth:`ReputationStore.membership_changed` — evicts only the handful of
subjects whose replica keys land in the changed arc instead of clearing the
whole cache.  ``invalidate_assignments`` (the blanket clear) remains the
fallback for callers without structured change information.

On top of the assignment cache sits a **combined-reputation cache**: the
clamped mean/median ``global_reputation`` computes per subject is memoised
and invalidated whenever anything that feeds it changes — a report or
adjustment about the subject, a bootstrap install, a migrated record, a
departed manager, or an assignment eviction.  Periodic metric samples read
the reputation of *every* active peer, so between two samples the overwhelm-
ing majority of subjects are untouched and served from this cache; the
profiling harness (``python -m repro bench profile``) is what exposed that
recomputation as the dominant end-to-end cost.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..ids import PeerId
from ..overlay.assignment import ScoreManagerAssignment
from ..overlay.membership import MembershipChange
from .credibility import CredibilityRecord
from .protocol import FeedbackReport, ReputationAdjustment
from .score_manager import ReputationRecord, ScoreManager

__all__ = ["ReputationStore"]


@dataclass
class ReputationStore:
    """Replicated, manager-assigned reputation storage for the whole system.

    This is the ``rocq`` entry of the pluggable backend registry
    (:mod:`repro.reputation.backend`) and the reference implementation of the
    ``ReputationBackend`` protocol.
    """

    #: Registry name of this backend (class attribute, not a dataclass field).
    scheme = "rocq"

    assignment: ScoreManagerAssignment
    initial_credibility: float = 0.5
    credibility_gain: float = 0.1
    opinion_smoothing: float = 0.3
    use_credibility: bool = True
    use_quality: bool = True
    combine: str = "mean"
    default_reputation: float = 0.0
    _managers: dict[PeerId, ScoreManager] = field(default_factory=dict)
    _assignment_cache: dict[PeerId, list[PeerId]] = field(default_factory=dict)
    #: Reverse index: ring key -> cached subjects whose assignment depends on
    #: the node at that key (the arc it is responsible for).
    _arc_dependents: dict[int, set[PeerId]] = field(default_factory=dict, repr=False)
    #: Forward index: cached subject -> the ring keys it depends on.
    _arc_dependencies: dict[PeerId, tuple[int, ...]] = field(
        default_factory=dict, repr=False
    )
    #: Cached subject -> per-replica ``(replica_key, first_candidate_key,
    #: last_candidate_key)`` arcs (see
    #: :meth:`ScoreManagerAssignment.assignment_details`); a join outside
    #: every arc provably leaves the assignment untouched, and one inside
    #: only the second half of an arc displaces just the backup candidate.
    _arc_windows: dict[PeerId, tuple[tuple[int, int, int], ...] | None] = field(
        default_factory=dict, repr=False
    )
    #: Memoised combined reputation per subject.  Entries exist only for
    #: subjects whose assignment is cached (so every eviction path that can
    #: change the manager set also drops the combined value) and are popped
    #: by every write that can move the underlying replica values.
    _reputation_cache: dict[PeerId, float] = field(default_factory=dict, repr=False)
    #: Subjects evicted from the assignment cache by a membership change and
    #: not yet revalidated.  Revalidation is *lazy*: the resolve against the
    #: updated ring happens on the subject's next query (``managers_for``),
    #: so a burst of churn pays one resolve per subject actually touched
    #: afterwards instead of one per (change, dependent subject) pair.
    _stale: set[PeerId] = field(default_factory=set, repr=False)
    #: Per-manager hot views used by the fused report loop:
    #: ``manager_id -> (records, credibility_records, initial_cred, gain)``.
    #: The dicts are the manager's own (shared, never copied); entries are
    #: dropped with the manager.
    _manager_views: dict[
        PeerId, tuple[dict, dict, float, float]
    ] = field(default_factory=dict, repr=False)
    reports_delivered: int = 0
    adjustments_delivered: int = 0
    #: Cache-coherency telemetry (exposed for benchmarks and tests).
    full_invalidations: int = 0
    targeted_evictions: int = 0
    #: Joins that displaced only a subject's *second* manager candidate: the
    #: chosen managers (and the memoised combined reputation) stayed valid,
    #: so the cache entry was patched in place instead of evicted.
    targeted_patches: int = 0

    # ------------------------------------------------------------------ #
    # Manager plumbing                                                     #
    # ------------------------------------------------------------------ #
    def manager_state(self, manager_id: PeerId) -> ScoreManager:
        """Return (creating if needed) the state held by ``manager_id``."""
        state = self._managers.get(manager_id)
        if state is None:
            state = ScoreManager(
                manager_id=manager_id,
                initial_credibility=self.initial_credibility,
                credibility_gain=self.credibility_gain,
                opinion_smoothing=self.opinion_smoothing,
                use_credibility=self.use_credibility,
                use_quality=self.use_quality,
            )
            self._managers[manager_id] = state
        return state

    def _manager_view(self, manager_id: PeerId) -> tuple[dict, dict, float, float]:
        """Build (and cache) the fused delivery loop's view of one manager."""
        state = self._managers.get(manager_id)
        if state is None:
            state = self.manager_state(manager_id)
        credibility_table = state.credibility
        view = (
            state._records,
            credibility_table._records,
            credibility_table.initial_credibility,
            credibility_table.gain,
        )
        self._manager_views[manager_id] = view
        return view

    def managers_for(self, subject: PeerId) -> list[PeerId]:
        """Current score managers of ``subject`` (cached).

        Subjects marked stale by :meth:`membership_changed` are revalidated
        here, on first touch; the cache-hit fast path pays nothing for the
        deferral because stale subjects are never *in* the cache.
        """
        managers = self._assignment_cache.get(subject)
        if managers is None:
            if self._stale and subject in self._stale:
                return self._revalidate(subject)
            managers, dependency_keys, windows = self.assignment.assignment_details(
                subject
            )
            # An empty ring yields an empty assignment with no dependency
            # keys to watch; caching it would make the entry un-evictable.
            if dependency_keys:
                self._assignment_cache[subject] = managers
                self._arc_dependencies[subject] = dependency_keys
                self._arc_windows[subject] = windows
                for key in dependency_keys:
                    self._arc_dependents.setdefault(key, set()).add(subject)
        return managers

    def managed_by(self, manager_id: PeerId, peers: list[PeerId]) -> list[PeerId]:
        """Subset of ``peers`` managed by ``manager_id``, via the cache."""
        return self.assignment.managed_by(
            manager_id, peers, managers_lookup=self.managers_for
        )

    def invalidate_assignments(self) -> None:
        """Drop the whole assignment cache (fallback for unscoped changes)."""
        self._assignment_cache.clear()
        self._arc_dependents.clear()
        self._arc_dependencies.clear()
        self._arc_windows.clear()
        self._reputation_cache.clear()
        self._stale.clear()
        self.full_invalidations += 1

    def membership_changed(self, change: MembershipChange | None) -> None:
        """Refresh only the cache entries a single join/leave can affect.

        A cached assignment depends on a known set of ring nodes (the
        candidate successors of its replica keys).  A **leave** can only
        change assignments that depended on the departed node; a **join** can
        only change assignments that depended on the new node's successor —
        the node whose arc the newcomer split.  Each affected subject is
        popped from the assignment cache and marked stale; the resolve
        against the updated ring is deferred to the subject's next query
        (:meth:`managers_for`), so churn bursts cost one resolve per subject
        *touched afterwards* instead of one per (change, dependent) pair,
        and subjects nobody asks about again are never resolved at all.
        Everything else is untouched, so a membership change costs
        O(affected subjects) set insertions.
        """
        if change is None:
            self.invalidate_assignments()
            return
        is_leave = change.is_leave
        anchor = change.node_key if is_leave else change.successor_key
        affected = self._arc_dependents.get(anchor)
        if not affected:
            return
        joined_key = change.node_key
        joined_peer = change.peer_id
        stale = self._stale
        assignment_pop = self._assignment_cache.pop
        reputation_pop = self._reputation_cache.pop
        exclude_self = self.assignment.exclude_self
        nodes_by_key = self.assignment.ring._nodes_by_key
        evicted = 0
        # Patches re-index ``_arc_dependents`` — including, possibly, the
        # ``affected`` set being iterated — so they are collected first and
        # applied after the scan.
        deferred_patches: list[tuple[PeerId, tuple, list[int]]] = []
        for subject in affected:
            if subject in stale:
                # Already awaiting revalidation; its windows predate an
                # earlier change, so the join filter below would be
                # meaningless — and unnecessary.
                continue
            if not is_leave:
                # A join only alters this subject's assignment if the new
                # node's key falls inside one of its candidate arcs; a
                # departed node, by contrast, *was* a candidate, so leaves
                # always revalidate.  The interval tests are ``in_interval``
                # inlined (window endpoints and node keys are canonical ring
                # keys, so no modulo is needed): clockwise ``(start, end]``,
                # wrapping when ``start >= end``, plus the ``== start`` edge
                # folded into the first half.  A hit confined to the second
                # half ``(first, last]`` of its windows displaces only backup
                # candidates — the chosen managers and the memoised combined
                # reputation stay valid, so the entry is patched in place.
                windows = self._arc_windows.get(subject)
                if windows is not None:
                    evict = joined_peer == subject
                    patches: list[int] | None = None
                    if not evict:
                        for index, (start, first, end) in enumerate(windows):
                            if start < end:
                                hit = start <= joined_key <= end
                            elif start > end:
                                hit = joined_key >= start or joined_key <= end
                            else:
                                hit = True  # degenerate: spans the whole ring
                            if not hit:
                                continue
                            if start < first:
                                in_first = start <= joined_key <= first
                            elif start > first:
                                in_first = joined_key >= start or joined_key <= first
                            else:
                                in_first = True
                            if in_first or (
                                exclude_self
                                and nodes_by_key[first].peer_id == subject
                            ):
                                # The first candidate moved — or the first is
                                # the self-excluded subject, so the *chosen*
                                # manager was the second.  Either way the
                                # manager set can change: full eviction.
                                evict = True
                                break
                            if patches is None:
                                patches = [index]
                            else:
                                patches.append(index)
                    if not evict:
                        if patches is not None:
                            deferred_patches.append((subject, windows, patches))
                        continue
            if assignment_pop(subject, None) is not None:
                reputation_pop(subject, None)
                stale.add(subject)
                evicted += 1
        for subject, windows, patches in deferred_patches:
            self._patch_windows(subject, windows, patches, joined_key)
        self.targeted_evictions += evicted
        self.targeted_patches += len(deferred_patches)

    def _patch_windows(
        self,
        subject: PeerId,
        windows: tuple[tuple[int, int, int], ...],
        patches: list[int],
        joined_key: int,
    ) -> None:
        """Apply a second-candidate-only join to a cached subject in place.

        The chosen managers are untouched (the caller proved every window
        hit lies in ``(first, last]``), so only the windows and the arc
        dependency index move: the new node becomes the last candidate of
        each patched window.  The result is exactly what a full
        revalidation would cache — without the ring lookups, and without
        dropping the memoised combined reputation.
        """
        new_windows = list(windows)
        for index in patches:
            start, first, _ = new_windows[index]
            new_windows[index] = (start, first, joined_key)
        self._arc_windows[subject] = tuple(new_windows)
        # Rebuild the dependency keys in replica order (first then last per
        # window, deduplicated) — the exact order assignment_details emits.
        deps: list[int] = []
        seen: set[int] = set()
        for _, first, last in new_windows:
            if first not in seen:
                seen.add(first)
                deps.append(first)
            if last not in seen:
                seen.add(last)
                deps.append(last)
        new_deps = tuple(deps)
        old_deps = self._arc_dependencies.get(subject, ())
        if new_deps == old_deps:
            return
        old_set = set(old_deps)
        new_set = set(new_deps)
        dependents_map = self._arc_dependents
        for key in old_set - new_set:
            dependents = dependents_map.get(key)
            if dependents is not None:
                dependents.discard(subject)
                if not dependents:
                    del dependents_map[key]
        self._arc_dependencies[subject] = new_deps
        for key in new_set - old_set:
            dependents_map.setdefault(key, set()).add(subject)

    def _revalidate(self, subject: PeerId) -> list[PeerId]:
        """Resolve a stale subject against the current ring.

        Runs once per stale subject, on its first query after any number of
        membership changes, and lands on exactly the state the historical
        eager per-change revalidation converged to: the assignment depends
        only on the ring's *current* occupancy, and the memoised combined
        reputation was already dropped when the subject went stale.
        """
        self._stale.discard(subject)
        managers, dependency_keys, windows = self.assignment.assignment_details(subject)
        old_deps = self._arc_dependencies.get(subject, ())
        if not dependency_keys:
            # Ring emptied under us — drop every index entry for the subject.
            self._arc_windows.pop(subject, None)
            self._arc_dependencies.pop(subject, None)
            for key in old_deps:
                dependents = self._arc_dependents.get(key)
                if dependents is not None:
                    dependents.discard(subject)
                    if not dependents:
                        del self._arc_dependents[key]
            return managers
        self._assignment_cache[subject] = managers
        self._arc_windows[subject] = windows
        if dependency_keys != old_deps:
            # A membership change shifts at most a couple of the subject's
            # candidate nodes; only re-index the difference.
            old_set = set(old_deps)
            new_set = set(dependency_keys)
            for key in old_set - new_set:
                dependents = self._arc_dependents.get(key)
                if dependents is not None:
                    dependents.discard(subject)
                    if not dependents:
                        del self._arc_dependents[key]
            self._arc_dependencies[subject] = dependency_keys
            for key in new_set - old_set:
                self._arc_dependents.setdefault(key, set()).add(subject)
        return managers

    def _evict_subject(self, subject: PeerId) -> None:
        """Drop one subject's cached assignment and its reverse-index entries."""
        self._stale.discard(subject)
        if self._assignment_cache.pop(subject, None) is None:
            return
        self._reputation_cache.pop(subject, None)
        self._arc_windows.pop(subject, None)
        self.targeted_evictions += 1
        for key in self._arc_dependencies.pop(subject, ()):
            dependents = self._arc_dependents.get(key)
            if dependents is not None:
                dependents.discard(subject)
                if not dependents:
                    del self._arc_dependents[key]

    # ------------------------------------------------------------------ #
    # Queries                                                              #
    # ------------------------------------------------------------------ #
    def global_reputation(self, subject: PeerId) -> float:
        """Combined reputation of ``subject`` across its managers.

        Managers that have never heard of the subject are skipped; if no
        manager has a record the configured default (0 for new entrants, per
        the paper's bootstrap rule) is returned.  The combined value is
        memoised until a write or assignment eviction touches the subject.
        """
        cached = self._reputation_cache.get(subject)
        if cached is not None:
            return cached
        managers_get = self._managers.get
        values = []
        for manager_id in self.managers_for(subject):
            state = managers_get(manager_id)
            if state is None:
                continue
            # Inlined ScoreManager.reputation_of — this gather runs once per
            # memo miss per manager, and the method call dominated its cost.
            record = state._records.get(subject)
            if record is not None:
                values.append(record.value)
        if not values:
            result = self.default_reputation
        elif self.combine == "median":
            result = float(statistics.median(values))
        else:
            result = float(sum(values) / len(values))
        # Only subjects with a cached assignment are memoised: their entry is
        # guaranteed to be dropped by the eviction paths when the ring moves.
        if subject in self._assignment_cache:
            self._reputation_cache[subject] = result
        return result

    def reputations_for(self, subjects: Iterable[PeerId]) -> list[float]:
        """Combined reputations of many subjects, aligned with the input.

        The bulk form of :meth:`global_reputation` the metrics sampler calls
        once per sample: between two samples the overwhelming majority of
        subjects are untouched, so most answers come straight out of the
        memo dict without a method call.
        """
        cache_get = self._reputation_cache.get
        global_reputation = self.global_reputation
        out: list[float] = []
        append = out.append
        for subject in subjects:
            cached = cache_get(subject)
            append(cached if cached is not None else global_reputation(subject))
        return out

    def _stored_value(self, manager_id: PeerId, subject: PeerId) -> float | None:
        state = self._managers.get(manager_id)
        if state is None:
            return None
        return state.reputation_of(subject)

    def newcomer_reputation(self) -> float:
        """Reputation of a peer with no record anywhere (the paper's 0)."""
        return self.default_reputation

    def has_any_record(self, subject: PeerId) -> bool:
        """Whether at least one manager stores a record for ``subject``."""
        return any(
            self._stored_value(manager_id, subject) is not None
            for manager_id in self.managers_for(subject)
        )

    def replica_values(self, subject: PeerId) -> list[float]:
        """The individual replica values (useful for divergence metrics)."""
        return [
            value
            for manager_id in self.managers_for(subject)
            if (value := self._stored_value(manager_id, subject)) is not None
        ]

    # ------------------------------------------------------------------ #
    # Updates                                                              #
    # ------------------------------------------------------------------ #
    def submit_report(self, report: FeedbackReport) -> float:
        """Deliver ``report`` to every manager of the subject; return new mean."""
        self._reputation_cache.pop(report.subject, None)
        values = []
        for manager_id in self.managers_for(report.subject):
            state = self.manager_state(manager_id)
            values.append(state.receive_report(report))
            self.reports_delivered += 1
        if not values:
            return self.default_reputation
        return float(sum(values) / len(values))

    def submit_report_batch(self, reports: Iterable[FeedbackReport]) -> None:
        """Deliver the reports of one event dispatch, in submission order.

        Compared with calling :meth:`submit_report` per report, this skips
        the per-report combined-mean computation nobody reads (both partners
        of a transaction report on each other fire-and-forget), resolves the
        store-level plumbing once, and fuses the per-manager
        :meth:`ScoreManager.receive_report` body into the delivery loop with
        the shared configuration hoisted out (every manager is created with
        the store's constants).  The arithmetic runs in exactly the order of
        ``receive_report``, so the result is bit-identical to submitting the
        reports one at a time.

        Delivery also *pre-warms* the combined-reputation memo: after a
        report reaches every manager of the subject, the per-manager values
        collected along the way are — in the same order — exactly the list
        :meth:`global_reputation` would rebuild on its next miss, so the
        combine is computed here once (with the identical expression) and the
        subsequent serve-probability query and metrics sample hit the memo.
        """
        count = 0
        reputation_pop = self._reputation_cache.pop
        reputation_cache = self._reputation_cache
        views = self._manager_views
        assignment_get = self._assignment_cache.get
        managers_for = self.managers_for
        smoothing = self.opinion_smoothing
        use_credibility = self.use_credibility
        use_quality = self.use_quality
        is_median = self.combine == "median"
        for report in reports:
            subject = report.subject
            reputation_pop(subject, None)
            reporter = report.reporter
            report_value = report.value
            quality = report.quality
            report_time = report.time
            new_values: list[float] = []
            managers = assignment_get(subject)
            if managers is None:
                managers = managers_for(subject)
            for manager_id in managers:
                view = views.get(manager_id)
                if view is None:
                    view = self._manager_view(manager_id)
                records, cred_records, initial_cred, gain = view
                record = records.get(subject)
                if record is None:
                    record = ReputationRecord()
                    records[subject] = record
                cred = cred_records.get(reporter)
                weight = smoothing
                if use_credibility:
                    weight *= cred.value if cred is not None else initial_cred
                if use_quality:
                    weight *= quality if quality > 0.05 else 0.05
                # Inlined ReputationRecord.apply_report(report_value, weight).
                if weight > 1.0:
                    weight = 1.0
                elif weight < 0.0:
                    weight = 0.0
                if record.reports == 0 and record.adjustments == 0 and not record.seeded:
                    # First evidence with no prior: adopt the reported value
                    # outright (see apply_report for the rationale).
                    value = report_value
                else:
                    value = (1.0 - weight) * record.value + weight * report_value
                if value < 0.0:
                    value = 0.0
                elif value > 1.0:
                    value = 1.0
                record.value = value
                record.reports += 1
                record.last_update = report_time
                # Credibility updates against the post-update aggregate
                # (inlined CredibilityRecord.update).
                if cred is None:
                    cred = CredibilityRecord(value=initial_cred)
                    cred_records[reporter] = cred
                agreement = 1.0 - abs(report_value - value)
                if agreement < 0.0:
                    agreement = 0.0
                elif agreement > 1.0:
                    agreement = 1.0
                cred.value = (1.0 - gain) * cred.value + gain * agreement
                cred.reports += 1
                new_values.append(value)
                count += 1
            if new_values:
                # Same expression, same value order as global_reputation —
                # the memoised result is bit-identical to a recompute.  (A
                # non-empty manager list implies the assignment was cached
                # by managers_for, which is the memo's invariant.)
                if is_median:
                    reputation_cache[subject] = float(statistics.median(new_values))
                else:
                    reputation_cache[subject] = float(
                        sum(new_values) / len(new_values)
                    )
        self.reports_delivered += count

    def apply_adjustment(self, adjustment: ReputationAdjustment) -> float:
        """Deliver a direct adjustment to every manager; return mean applied.

        Like the batched report path, delivery pre-warms the combined-
        reputation memo: each manager's post-adjustment value is collected in
        manager order and combined with the exact expression of
        :meth:`global_reputation`, so the lending protocol's debit/credit
        pairs do not force a full recompute on the subject's next query.
        """
        subject = adjustment.subject
        self._reputation_cache.pop(subject, None)
        applied = []
        values = []
        managers = self._assignment_cache.get(subject)
        if managers is None:
            managers = self.managers_for(subject)
        views = self._manager_views
        delta = adjustment.delta
        adjustment_time = adjustment.time
        delivered = 0
        for manager_id in managers:
            view = views.get(manager_id)
            if view is None:
                view = self._manager_view(manager_id)
            records = view[0]
            record = records.get(subject)
            if record is None:
                record = ReputationRecord()
                records[subject] = record
            # Inlined ReputationRecord.apply_adjustment (identical order).
            before = record.value
            value = before + delta
            if value < 0.0:
                value = 0.0
            elif value > 1.0:
                value = 1.0
            record.value = value
            record.adjustments += 1
            record.last_update = adjustment_time
            applied.append(value - before)
            values.append(value)
            delivered += 1
        self.adjustments_delivered += delivered
        if values and subject in self._assignment_cache:
            if self.combine == "median":
                self._reputation_cache[subject] = float(statistics.median(values))
            else:
                self._reputation_cache[subject] = float(sum(values) / len(values))
        if not applied:
            return 0.0
        return float(sum(applied) / len(applied))

    def set_reputation(self, subject: PeerId, value: float, time: float = 0.0) -> None:
        """Set the stored reputation at every current manager (bootstrap)."""
        self._reputation_cache.pop(subject, None)
        for manager_id in self.managers_for(subject):
            self.manager_state(manager_id).set_reputation(subject, value, time)

    # ------------------------------------------------------------------ #
    # Churn protocol (overlay.ReputationStoreProtocol)                     #
    # ------------------------------------------------------------------ #
    def tracked_peers(self, manager_id: PeerId) -> Iterable[PeerId]:
        state = self._managers.get(manager_id)
        if state is None:
            return []
        return state.tracked_subjects()

    def export_record(self, manager_id: PeerId, subject_id: PeerId) -> object | None:
        state = self._managers.get(manager_id)
        if state is None:
            return None
        return state.export_record(subject_id)

    def install_record(
        self, manager_id: PeerId, subject_id: PeerId, record: object
    ) -> None:
        if not isinstance(record, dict):
            raise TypeError("reputation records migrate as snapshot dicts")
        self._reputation_cache.pop(subject_id, None)
        self.manager_state(manager_id).install_record(subject_id, record)

    def drop_manager(self, manager_id: PeerId) -> None:
        state = self._managers.pop(manager_id, None)
        self._manager_views.pop(manager_id, None)
        if state is not None:
            for subject in state.tracked_subjects():
                self._reputation_cache.pop(subject, None)
            state.drop_all()

    # ------------------------------------------------------------------ #
    # State digest (trace divergence bisection)                            #
    # ------------------------------------------------------------------ #
    def state_digest(self) -> str:
        """Deterministic digest of every manager's records and credibility.

        Iteration is over *sorted* manager and subject ids, so the digest is
        independent of dict insertion order; the assignment cache is derived
        state and deliberately excluded.
        """
        parts = hashlib.sha256()
        for manager_id in sorted(self._managers):
            state = self._managers[manager_id]
            parts.update(f"m{manager_id}".encode("ascii"))
            for subject in sorted(state.tracked_subjects()):
                snapshot = state.export_record(subject)
                parts.update(f"|{subject}:{snapshot!r}".encode("utf-8"))
            credibility = state.credibility
            for reporter in sorted(credibility.known_reporters()):
                record = credibility.record_for(reporter)
                parts.update(
                    f"|c{reporter}:{record.value!r}:{record.reports}".encode("ascii")
                )
        parts.update(
            f"|r{self.reports_delivered}a{self.adjustments_delivered}".encode("ascii")
        )
        return parts.hexdigest()

    # ------------------------------------------------------------------ #
    # Durable persistence (repro.storage)                                  #
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict[str, Any]:
        """JSON-serialisable snapshot covering everything :meth:`state_digest`
        hashes: every manager's record snapshots and credibility table, plus
        the delivery counters.

        Dict keys are stringified (JSON object keys are always strings);
        :meth:`restore_state` parses them back to ints.  Floats round-trip
        exactly through JSON, so a save → load → restore cycle reproduces
        the digest bit-for-bit.  Caches, telemetry counters and the
        assignment are derived/configured state and are excluded, exactly as
        they are from the digest.
        """
        managers: dict[str, Any] = {}
        for manager_id in sorted(self._managers):
            state = self._managers[manager_id]
            credibility = state.credibility
            managers[str(manager_id)] = {
                "records": {
                    str(subject): state.export_record(subject)
                    for subject in sorted(state.tracked_subjects())
                },
                "credibility": {
                    str(reporter): {
                        "value": credibility.record_for(reporter).value,
                        "reports": credibility.record_for(reporter).reports,
                    }
                    for reporter in sorted(credibility.known_reporters())
                },
            }
        return {
            "scheme": self.scheme,
            "managers": managers,
            "reports_delivered": self.reports_delivered,
            "adjustments_delivered": self.adjustments_delivered,
        }

    def restore_state(self, payload: dict[str, Any]) -> None:
        """Rebuild manager state from an :meth:`export_state` payload.

        Replaces whatever the store currently holds: existing managers and
        every derived cache (assignment, arc indices, combined-reputation
        memo, fused-loop views) are dropped, then managers are rebuilt with
        the store's own configuration via :meth:`manager_state`.  The
        assignment itself is construction-time configuration and is *not*
        part of the snapshot — the caller is responsible for constructing
        the store against the same overlay it was saved under.
        """
        self._managers.clear()
        self._manager_views.clear()
        self._assignment_cache.clear()
        self._arc_dependents.clear()
        self._arc_dependencies.clear()
        self._arc_windows.clear()
        self._reputation_cache.clear()
        self._stale.clear()
        for manager_key, manager_payload in payload.get("managers", {}).items():
            state = self.manager_state(int(manager_key))
            for subject_key, snapshot in manager_payload.get("records", {}).items():
                state._records[int(subject_key)] = ReputationRecord.from_snapshot(
                    snapshot
                )
            for reporter_key, cred in manager_payload.get("credibility", {}).items():
                state.credibility._records[int(reporter_key)] = CredibilityRecord(
                    value=float(cred["value"]), reports=int(cred["reports"])
                )
        self.reports_delivered = int(payload.get("reports_delivered", 0))
        self.adjustments_delivered = int(payload.get("adjustments_delivered", 0))
