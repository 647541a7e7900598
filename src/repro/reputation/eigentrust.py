"""EigenTrust (Kamvar, Schlosser, Garcia-Molina, WWW 2003).

Each peer i normalises its local trust values ``c_ij`` (satisfactory minus
unsatisfactory interactions, floored at zero) and the global trust vector is
the stationary distribution of the resulting matrix, computed by power
iteration with a damping factor towards a set of pre-trusted peers — exactly
the PageRank-style construction of the original paper.

Newcomers have no incoming local trust at all, so their global trust is the
damping mass spread over the pre-trusted set (zero unless they are
pre-trusted): EigenTrust is a "both feedback counts, newcomer near the
bottom" system in the taxonomy of §1.
"""

from __future__ import annotations

import numpy as np

from ..ids import PeerId
from .base import ReputationSystem

__all__ = ["EigenTrust"]


class EigenTrust(ReputationSystem):
    """Global trust via power iteration over normalised local trust."""

    name = "eigentrust"

    def __init__(
        self,
        pre_trusted: set[PeerId] | None = None,
        damping: float = 0.15,
        max_iterations: int = 100,
        tolerance: float = 1e-10,
    ) -> None:
        super().__init__()
        if not 0.0 <= damping <= 1.0:
            raise ValueError("damping must be within [0, 1]")
        self.pre_trusted = frozenset(pre_trusted or ())
        self.damping = damping
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        # --- incremental-matrix state -------------------------------------
        #: Cached row-normalised local-trust matrix, in ``_matrix_peers`` order.
        self._matrix = np.zeros((0, 0))
        self._matrix_peers: list[PeerId] = []
        self._matrix_index: dict[PeerId, int] = {}
        self._pretrust_vector = np.zeros(0)
        #: Last converged trust vector, reused to warm-start :meth:`score_table`.
        self._warm_trust = np.zeros(0)
        #: Which cached rows hold normalised trust (the rest hold pretrust).
        self._trust_rows = np.zeros(0, dtype=bool)
        #: Raters whose local-trust row changed since the last refresh.
        self._dirty_rows: set[PeerId] = set()
        #: Per-rater net (satisfied minus unsatisfied) count per subject, so
        #: one dirty row is rebuilt without scanning every (rater, subject) pair.
        self._net_counts: dict[PeerId, dict[PeerId, int]] = {}

    # ------------------------------------------------------------------ #
    # Log ingestion                                                         #
    # ------------------------------------------------------------------ #
    def record_interaction(
        self, rater: PeerId, subject: PeerId, satisfied: bool
    ) -> None:
        """Feed one rated interaction and mark the rater's matrix row dirty.

        Only row ``rater`` of the normalised local-trust matrix depends on
        this interaction (EigenTrust normalises per rater), so the next
        :meth:`score_table` refresh re-normalises just the dirty rows — a
        rank-1-per-report update instead of an O(peers²) rebuild.
        """
        super().record_interaction(rater, subject, satisfied)
        self._dirty_rows.add(rater)
        counts = self._net_counts.get(rater)
        if counts is None:
            counts = self._net_counts[rater] = {}
        counts[subject] = counts.get(subject, 0) + (1 if satisfied else -1)

    # ------------------------------------------------------------------ #
    # Trust computation                                                     #
    # ------------------------------------------------------------------ #
    def _pretrust_distribution(
        self, peers: list[PeerId], index: dict[PeerId, int]
    ) -> np.ndarray:
        """The pre-trust vector p (uniform over pre-trusted peers, or all)."""
        trusted = [index[peer] for peer in self.pre_trusted if peer in index]
        vector = np.zeros(len(peers))
        if trusted:
            vector[trusted] = 1.0 / len(trusted)
        elif peers:
            vector[:] = 1.0 / len(peers)
        return vector

    def _remap_matrix(self, peers: list[PeerId]) -> None:
        """Carry the cached matrix over to a grown, re-sorted peer set.

        The log never forgets a peer, so the old peers are a subset of
        ``peers`` in the same relative order.  A row that held normalised
        trust keeps its values under the new column positions, with zeros
        for the newcomers: no clean rater has rated a newcomer (that report
        would have dirtied it), and the row's integer total is unchanged.
        Every other row is the pretrust vector, which depends on the peer
        set, so it is reset to the new one.  The warm-start vector moves
        with the rows; newcomers start from zero trust.
        """
        index = {peer: position for position, peer in enumerate(peers)}
        pretrust = self._pretrust_distribution(peers, index)
        positions = np.array(
            [index[peer] for peer in self._matrix_peers], dtype=np.intp
        )
        matrix = np.zeros((len(peers), len(peers)))
        # Each run of consecutive new positions is one block of old columns,
        # copied as a slice: scattering single columns is ~10x slower.
        breaks = (np.flatnonzero(np.diff(positions) != 1) + 1).tolist()
        for start, stop in zip([0, *breaks], [*breaks, len(positions)]):
            if start < stop:
                first = positions[start]
                block = self._matrix[:, start:stop]
                matrix[positions, first : first + stop - start] = block
        trust_rows = np.zeros(len(peers), dtype=bool)
        trust_rows[positions] = self._trust_rows
        matrix[~trust_rows] = pretrust
        warm_trust = np.zeros(len(peers))
        warm_trust[positions] = self._warm_trust
        self._matrix = matrix
        self._matrix_peers = peers
        self._matrix_index = index
        self._pretrust_vector = pretrust
        self._trust_rows = trust_rows
        self._warm_trust = warm_trust

    def _refresh_matrix(self, peers: list[PeerId]) -> tuple[np.ndarray, np.ndarray]:
        """Return the row-normalised matrix and pretrust vector for ``peers``.

        A changed peer set is first remapped into the new sorted order (see
        :meth:`_remap_matrix`; the first build remaps an empty matrix).
        Then only the rows of raters with new reports are recomputed, each
        a fresh count/normalise of that rater's pairwise entries.  The
        result is **bit-identical** to a from-scratch build: the counts are
        small integers, exactly representable, so a row's total is the same
        double whatever its length or summation order, and each entry is
        the same single division.
        """
        if peers != self._matrix_peers:
            self._remap_matrix(peers)
        if self._dirty_rows:
            matrix = self._matrix
            index = self._matrix_index
            for rater in self._dirty_rows:
                columns = []
                counts = []
                for subject, value in self._net_counts.get(rater, {}).items():
                    if value > 0:
                        columns.append(index[subject])
                        counts.append(value)
                total = sum(counts)
                position = index[rater]
                if total > 0:
                    row = matrix[position]
                    row[:] = 0.0
                    row[columns] = np.array(counts, dtype=float) / float(total)
                else:
                    matrix[position] = self._pretrust_vector
                self._trust_rows[position] = total > 0
            self._dirty_rows.clear()
        return self._matrix, self._pretrust_vector

    def _power_iterate(
        self, matrix: np.ndarray, pretrust: np.ndarray, start: np.ndarray
    ) -> np.ndarray:
        """Iterate ``t <- (1 - d) C^T t + d p`` from ``start`` to convergence.

        The damped transpose and the teleport term are loop invariants, so
        they are computed once; each iteration is one matrix-vector product.
        """
        scaled = (1.0 - self.damping) * matrix.T
        teleport = self.damping * pretrust
        trust = start
        for _ in range(self.max_iterations):
            updated = scaled @ trust + teleport
            if np.abs(updated - trust).sum() < self.tolerance:
                return updated
            trust = updated
        return trust

    def global_trust(self) -> dict[PeerId, float]:
        """The converged global trust vector for every peer in the log."""
        peers = sorted(self.log.peers)
        if not peers:
            return {}
        matrix, pretrust = self._refresh_matrix(peers)
        trust = self._power_iterate(matrix, pretrust, pretrust.copy())
        return dict(zip(peers, trust.tolist()))

    def score(self, peer: PeerId) -> float:
        """Global trust normalised by the maximum so scores live in [0, 1]."""
        trust = self.global_trust()
        if peer not in trust:
            return 0.0
        maximum = max(trust.values()) if trust else 0.0
        if maximum <= 0.0:
            return 0.0
        return trust[peer] / maximum

    def score_table(self) -> dict[PeerId, float]:
        """All scores from a single power iteration, warm-started.

        Computing :meth:`score` per peer would repeat the whole power
        iteration once per peer; this batch path runs it once and, unlike
        :meth:`global_trust`, starts from the previously converged vector so
        successive refreshes (the common case inside the simulation adapter)
        converge in a handful of iterations.  The local-trust matrix itself
        is kept across calls (see :meth:`_refresh_matrix`): a join remaps
        the cached rows and only rows dirtied by new reports are
        re-normalised.
        """
        peers = sorted(self.log.peers)
        if not peers:
            return {}
        matrix, pretrust = self._refresh_matrix(peers)
        total = self._warm_trust.sum()
        start = self._warm_trust / total if total > 0 else pretrust.copy()
        trust = self._warm_trust = self._power_iterate(matrix, pretrust, start)
        maximum = float(trust.max())
        if maximum <= 0.0:
            return dict.fromkeys(peers, 0.0)
        return dict(zip(peers, (trust / maximum).tolist()))
