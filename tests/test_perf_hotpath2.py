"""Hot-path round 2 regression tests.

Three safety nets around the profile-guided optimisation pass:

* **Queue ordering** — the heap :class:`EventQueue` must pop in exactly
  the (time, insertion sequence) order of a sorted-list oracle for any
  schedule/pop interleaving.
* **Golden digests** — every optimised layer (incremental EigenTrust,
  batched/inlined ROCQ aggregation, slotted events) must
  reproduce the summary digests recorded on the pre-optimisation engine.
* **Trace replay** — a trace recorded before the optimisation round must
  replay bit-identically on the optimised engine.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.adversary import default_adversary_spec
from repro.errors import SimulationError
from repro.metrics.summary import summary_digest
from repro.reputation.eigentrust import EigenTrust
from repro.sim.engine import Simulation
from repro.sim.event_queue import EventQueue
from repro.sim.events import EventKind
from repro.trace import TraceLog, replay_simulation
from repro.workloads.scenarios import paper_default

DATA_DIR = Path(__file__).resolve().parent / "data"

#: Digest of ``preopt_tiny.jsonl``'s recorded run, captured on the
#: pre-optimisation engine.
PREOPT_TRACE_DIGEST = (
    "5a0b9ba8236e8ce849ce76e77043fa582b783b0a057f09c1f9287f5a0350ad9b"
)

#: Digest of a 1,500-tx ``whitewash_waves`` run on the ``eigentrust``
#: backend, recorded while EigenTrust still rebuilt its matrix from the log
#: on every peer-set change and scaled the matrix inside the power loop.
WHITEWASH_EIGENTRUST_DIGEST = (
    "1e3ed9a59cab991d76893f57d79debf01fa6bc61e28a984c9b24fbbc7790332f"
)


def _golden_digests() -> dict[str, str]:
    return json.loads((DATA_DIR / "preopt_digests.json").read_text(encoding="utf-8"))


def _params_for(name):
    if name == "figure1_growth_1500_rocq":
        return (
            paper_default(seed=1).scaled(1500 / 500_000).with_overrides(
                arrival_rate=0.01
            )
        )
    scheme = name.replace("growth_stress_1500_", "")
    return (
        paper_default(seed=1)
        .scaled(1500 / 500_000)
        .with_overrides(arrival_rate=0.2, reputation_scheme=scheme)
    )


# --------------------------------------------------------------------- #
# Heap queue == sorted (time, sequence) oracle                           #
# --------------------------------------------------------------------- #
class TestEventQueueOrdering:
    def _random_driver(self, seed: int, steps: int = 400):
        """Drive the queue and a sorted-list oracle through one random script.

        Operations are drawn so that in-order scheduling, duplicate times and
        same-time ties (ordered by insertion sequence) all occur; after every
        step the queue must agree with the oracle on size and next time.
        """
        rng = np.random.default_rng(seed)
        queue = EventQueue()
        oracle: list[tuple[float, int]] = []
        kinds = list(EventKind)
        clock = 0.0
        for _ in range(steps):
            op = rng.random()
            if op < 0.55:
                # Mostly near-future times; occasionally far ahead, and
                # occasionally exactly "now" (ties with popped history).
                time = clock + float(rng.choice([0.0, rng.random() * 4, 40.0]))
                kind = kinds[int(rng.integers(len(kinds)))]
                event = queue.schedule(time, kind)
                assert event.time == time
                oracle.append((event.time, event.sequence))
                oracle.sort()
            elif op < 0.8 and queue:
                popped = queue.pop()
                assert (popped.time, popped.sequence) == oracle.pop(0)
                clock = popped.time
            else:
                horizon = clock + float(rng.random() * 3)
                drained = [(e.time, e.sequence) for e in queue.pop_due(horizon)]
                due = [entry for entry in oracle if entry[0] <= horizon]
                assert drained == due
                del oracle[: len(due)]
                if drained:
                    clock = drained[-1][0]
            assert len(queue) == len(oracle)
            assert queue.next_time() == (oracle[0][0] if oracle else float("inf"))
        return queue, oracle

    @pytest.mark.parametrize("seed", range(8))
    def test_pop_order_matches_sorted_oracle(self, seed):
        queue, oracle = self._random_driver(seed)
        remaining = [(e.time, e.sequence) for e in queue.pop_due(float("inf"))]
        assert remaining == oracle
        assert not queue


# --------------------------------------------------------------------- #
# Queue edge cases (the class name predates the heap-only queue)          #
# --------------------------------------------------------------------- #
class TestCalendarQueueEquivalence:
    @pytest.mark.parametrize("queue_cls", [EventQueue])
    def test_past_time_scheduling_raises(self, queue_cls):
        queue = queue_cls()
        queue.schedule(5.0, EventKind.SAMPLE)
        assert queue.pop().time == 5.0
        with pytest.raises(SimulationError):
            queue.schedule(4.999, EventKind.SAMPLE)
        # Exactly the last popped time is legal (the engine schedules
        # follow-ups at the current instant).
        queue.schedule(5.0, EventKind.SAMPLE)

    @pytest.mark.parametrize("queue_cls", [EventQueue])
    def test_pop_empty_raises(self, queue_cls):
        with pytest.raises(SimulationError):
            queue_cls().pop()

    def test_same_time_events_pop_in_insertion_order(self):
        queue = EventQueue()
        for _ in range(5):
            queue.schedule(1.0, EventKind.SAMPLE)
        sequences = [event.sequence for event in queue.pop_due(1.0)]
        assert sequences == sorted(sequences)


# --------------------------------------------------------------------- #
# Golden digests per optimisation layer                                   #
# --------------------------------------------------------------------- #
class TestGoldenDigests:
    """The optimised engine must be bit-identical to the pre-opt engine.

    Each scheme exercises a different optimised layer: ``eigentrust`` the
    incremental fixpoint, ``rocq`` the inlined manager aggregation and
    opinion pooling, and every run the slotted events + slimmed dispatch
    loop.
    """

    @pytest.mark.parametrize(
        "name", sorted(_golden_digests())
    )
    def test_reproduces_preopt_digest(self, name):
        params = _params_for(name)
        digest = summary_digest(Simulation(params).run())
        assert digest == _golden_digests()[name], (
            f"{name}: optimised engine diverged from the pre-optimisation "
            f"golden digest"
        )

    def test_whitewash_eigentrust_reproduces_recorded_digest(self):
        """Peers keep joining mid-order, so this runs the matrix remap."""
        params = (
            paper_default(seed=1)
            .scaled(1500 / 500_000)
            .with_overrides(
                reputation_scheme="eigentrust",
                adversary=default_adversary_spec("whitewash_waves", 1500),
            )
        )
        digest = summary_digest(Simulation(params).run())
        assert digest == WHITEWASH_EIGENTRUST_DIGEST


# --------------------------------------------------------------------- #
# Incremental EigenTrust == from-scratch                                  #
# --------------------------------------------------------------------- #
def _pretrust_oracle(system: EigenTrust, peers: list[int]) -> np.ndarray:
    """The pre-trust vector p, built the straightforward way."""
    trusted = [peer for peer in peers if peer in system.pre_trusted]
    vector = np.zeros(len(peers))
    if trusted:
        for peer in trusted:
            vector[peers.index(peer)] = 1.0 / len(trusted)
    elif peers:
        vector[:] = 1.0 / len(peers)
    return vector


def _local_trust_oracle(system: EigenTrust, peers: list[int]) -> np.ndarray:
    """Row-normalised local trust matrix C, rebuilt from the raw log."""
    index = {peer: position for position, peer in enumerate(peers)}
    matrix = np.zeros((len(peers), len(peers)))
    for (rater, subject), positives in system.log.positive.items():
        negatives = system.log.negative.get((rater, subject), 0)
        matrix[index[rater], index[subject]] = max(positives - negatives, 0)
    row_sums = matrix.sum(axis=1, keepdims=True)
    distribution = _pretrust_oracle(system, peers)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(row_sums > 0, matrix / row_sums, distribution)


def _power_loop_oracle(
    system: EigenTrust, matrix: np.ndarray, pretrust: np.ndarray, trust: np.ndarray
) -> np.ndarray:
    """The power loop with the damped matrix recomputed every iteration."""
    for _ in range(system.max_iterations):
        updated = (1.0 - system.damping) * matrix.T @ trust + system.damping * pretrust
        if np.abs(updated - trust).sum() < system.tolerance:
            return updated
        trust = updated
    return trust


def _raters_without_positive_trust(system: EigenTrust) -> set[int]:
    """Raters with a satisfied report on file whose positive total is zero."""
    log = system.log
    trusting = {
        rater
        for (rater, subject), positives in log.positive.items()
        if positives > log.negative.get((rater, subject), 0)
    }
    return {rater for rater, _ in log.positive} - trusting


class _FromScratchReplay:
    """Expected EigenTrust results, with nothing carried over but the warm start."""

    def __init__(self, system: EigenTrust) -> None:
        self.system = system
        self.warm: dict[int, float] = {}

    def global_trust(self) -> dict[int, float]:
        peers = sorted(self.system.log.peers)
        matrix = _local_trust_oracle(self.system, peers)
        pretrust = _pretrust_oracle(self.system, peers)
        trust = _power_loop_oracle(self.system, matrix, pretrust, pretrust.copy())
        return {peer: float(value) for peer, value in zip(peers, trust)}

    def score_table(self) -> dict[int, float]:
        peers = sorted(self.system.log.peers)
        matrix = _local_trust_oracle(self.system, peers)
        pretrust = _pretrust_oracle(self.system, peers)
        trust = np.array([self.warm.get(peer, 0.0) for peer in peers])
        total = trust.sum()
        trust = trust / total if total > 0 else pretrust.copy()
        trust = _power_loop_oracle(self.system, matrix, pretrust, trust)
        self.warm = {peer: float(value) for peer, value in zip(peers, trust)}
        maximum = float(trust.max())
        if maximum <= 0.0:
            return {peer: 0.0 for peer in peers}
        return {peer: float(value) / maximum for peer, value in zip(peers, trust)}


class TestIncrementalEigenTrust:
    def _random_feed(self, system: EigenTrust, seed: int, steps: int):
        """Yield after each refresh of one seeded random feed.

        Peer ids enter the log in a shuffled order, so most newcomers land
        below the current maximum id, in the middle of the sorted order.
        Some steps take a rater's every positive pair back to zero net
        trust, so its row falls back to pretrust; some add a peer to the
        log without any interaction, the way a restored snapshot does.
        """
        rng = np.random.default_rng(seed)
        order = [int(peer) for peer in rng.permutation(40)]
        active = order[:3]
        for step in range(steps):
            draw = rng.random()
            if draw < 0.06 and len(active) < len(order):
                active.append(order[len(active)])
            elif draw < 0.08 and len(active) < len(order):
                peer = order[len(active)]
                active.append(peer)
                system.log.peers.add(peer)
            elif draw < 0.12:
                rater = active[int(rng.integers(len(active)))]
                for (pair_rater, subject), positives in list(
                    system.log.positive.items()
                ):
                    if pair_rater == rater:
                        negatives = system.log.negative.get((rater, subject), 0)
                        for _ in range(positives - negatives):
                            system.record_interaction(rater, subject, False)
            else:
                rater, subject = rng.choice(active, size=2)
                if rater != subject:
                    system.record_interaction(
                        int(rater), int(subject), bool(rng.random() < 0.7)
                    )
            if step % 7 == 0:
                yield

    def test_incremental_matrix_equals_from_scratch(self):
        """The cached matrix equals a rebuild from the log after every refresh."""
        joins_below_max = fallen_rows = 0
        for pre_trusted in (None, {0, 1}):
            for seed in (11, 23, 37):
                system = EigenTrust(pre_trusted=pre_trusted)
                previous: list[int] = []
                for _ in self._random_feed(system, seed=seed, steps=400):
                    system.score_table()
                    peers = sorted(system.log.peers)
                    expected = _local_trust_oracle(system, peers)
                    assert np.array_equal(system._matrix, expected)
                    joined = set(peers) - set(previous)
                    if previous and min(joined, default=previous[-1]) < previous[-1]:
                        joins_below_max += 1
                    fallen_rows += len(_raters_without_positive_trust(system))
                    previous = peers
        assert joins_below_max > 0 and fallen_rows > 0

    def test_incremental_scores_equal_always_rebuild_replay(self):
        """Warm-started tables and cold global trust, refresh after refresh."""
        for pre_trusted in (None, {0, 1}):
            system = EigenTrust(pre_trusted=pre_trusted)
            replay = _FromScratchReplay(system)
            refreshes = 0
            for _ in self._random_feed(system, seed=5, steps=300):
                assert system.score_table() == replay.score_table()
                assert system.global_trust() == replay.global_trust()
                refreshes += 1
            assert refreshes > 30

    def test_peer_set_change_remaps_cached_rows(self):
        system = EigenTrust(pre_trusted={0})
        system.record_interaction(5, 9, True)
        system.record_interaction(9, 5, True)
        system.record_interaction(1, 5, False)  # rater without positive trust
        system.score_table()
        # Peer 0 (pre-trusted) and peer 7 join below the current maximum id;
        # raters 5, 9 and 1 file nothing new, so none of their rows is dirty.
        system.record_interaction(0, 7, True)
        system.score_table()
        peers = sorted(system.log.peers)
        assert peers == [0, 1, 5, 7, 9]
        assert np.array_equal(system._matrix, _local_trust_oracle(system, peers))
        # Rater 1's row moved from the uniform pretrust to peer 0's.
        assert system._matrix[1].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_pre_trusted_cannot_change_in_place(self):
        """The cached pretrust is rebuilt only when peers join, so the set
        it was built from must not change under it."""
        trusted = {0, 1}
        system = EigenTrust(pre_trusted=trusted)
        trusted.add(2)
        assert system.pre_trusted == frozenset({0, 1})
        assert isinstance(system.pre_trusted, frozenset)
        assert EigenTrust().pre_trusted == frozenset()


# --------------------------------------------------------------------- #
# Pre-optimisation trace replays bit-identically                          #
# --------------------------------------------------------------------- #
class TestPreoptTraceReplay:
    def test_preopt_trace_replays_bit_identically(self):
        log = TraceLog.load(DATA_DIR / "preopt_tiny.jsonl")
        replayed, _ = replay_simulation(log)
        assert summary_digest(replayed) == PREOPT_TRACE_DIGEST
