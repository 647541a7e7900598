"""The community population registry.

Keeps every peer ever created, indexed by id, together with the derived sets
the simulator and the metrics layer query constantly: active members, waiting
applicants, and ground-truth cooperative/uncooperative partitions of the
active set.  All mutating operations keep those indices consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..errors import UnknownPeerError
from ..ids import PeerId, PeerIdAllocator
from .behavior import BehaviorModel
from .peer import Peer, PeerStatus

__all__ = ["Population"]


@dataclass
class Population:
    """Registry of all peers (active, waiting, rejected, departed).

    The :class:`Peer` objects hold all per-peer state; the registry adds
    only the index structures (active list, waiting set) that the event
    loop and the metrics samples query.
    """

    allocator: PeerIdAllocator = field(default_factory=PeerIdAllocator)
    _peers: dict[PeerId, Peer] = field(default_factory=dict)
    _active_ids: list[PeerId] = field(default_factory=list)
    _active_positions: dict[PeerId, int] = field(default_factory=dict)
    _waiting_ids: set[PeerId] = field(default_factory=set)

    # ------------------------------------------------------------------ #
    # Creation & lookup                                                    #
    # ------------------------------------------------------------------ #
    def create_peer(
        self,
        behavior: BehaviorModel,
        introducer_policy: object | None = None,
        is_founder: bool = False,
        arrived_at: float = 0.0,
    ) -> Peer:
        """Create and register a new peer in WAITING status."""
        peer = Peer(
            peer_id=self.allocator.allocate(),
            behavior=behavior,
            introducer_policy=introducer_policy,  # type: ignore[arg-type]
            is_founder=is_founder,
            arrived_at=arrived_at,
        )
        self._peers[peer.peer_id] = peer
        self._waiting_ids.add(peer.peer_id)
        return peer

    def get(self, peer_id: PeerId) -> Peer:
        """Return the peer with ``peer_id`` or raise :class:`UnknownPeerError`."""
        try:
            return self._peers[peer_id]
        except KeyError as exc:
            raise UnknownPeerError(peer_id) from exc

    def __contains__(self, peer_id: PeerId) -> bool:
        return peer_id in self._peers

    def __len__(self) -> int:
        return len(self._peers)

    def __iter__(self) -> Iterator[Peer]:
        return iter(self._peers.values())

    # ------------------------------------------------------------------ #
    # Status transitions (keep indices in sync)                            #
    # ------------------------------------------------------------------ #
    def admit(self, peer_id: PeerId, time: float, introduced_by: PeerId | None = None) -> Peer:
        """Move a waiting peer into the active community."""
        peer = self.get(peer_id)
        if peer.status == PeerStatus.ACTIVE:
            return peer
        peer.admit(time, introduced_by=introduced_by)
        self._waiting_ids.discard(peer_id)
        if peer_id not in self._active_positions:
            self._active_positions[peer_id] = len(self._active_ids)
            self._active_ids.append(peer_id)
        return peer

    def reject(self, peer_id: PeerId) -> Peer:
        """Permanently refuse a waiting peer."""
        peer = self.get(peer_id)
        peer.reject()
        self._waiting_ids.discard(peer_id)
        return peer

    def depart(self, peer_id: PeerId) -> Peer:
        """Remove an active peer from the community (it keeps its history).

        The peer's counters survive for the metrics layer, but its local
        opinion book is recycled into the shared object pool: departed peers
        never report again, and churn-heavy workloads would otherwise leave
        thousands of dead :class:`~repro.rocq.opinion.LocalOpinion` objects
        behind.
        """
        peer = self.get(peer_id)
        if peer_id in self._active_positions:
            self._remove_active(peer_id)
        self._waiting_ids.discard(peer_id)
        peer.depart()
        peer.opinions.release()
        return peer

    def _remove_active(self, peer_id: PeerId) -> None:
        """O(1) removal from the active list via swap-with-last."""
        position = self._active_positions.pop(peer_id)
        last_id = self._active_ids[-1]
        if last_id != peer_id:
            self._active_ids[position] = last_id
            self._active_positions[last_id] = position
        self._active_ids.pop()

    # ------------------------------------------------------------------ #
    # Views                                                                #
    # ------------------------------------------------------------------ #
    @property
    def active_ids(self) -> list[PeerId]:
        """Identifiers of all active peers (stable list, O(1) random pick)."""
        return self._active_ids

    def active_peers(self) -> list[Peer]:
        """All active peers."""
        return [self._peers[peer_id] for peer_id in self._active_ids]

    def waiting_peers(self) -> list[Peer]:
        """All peers still waiting for admission."""
        return [self._peers[peer_id] for peer_id in sorted(self._waiting_ids)]

    def peers_with_status(self, status: PeerStatus) -> list[Peer]:
        """All peers currently in ``status``."""
        return [peer for peer in self._peers.values() if peer.status == status]

    def active_cooperative_flags(self) -> list[bool]:
        """Ground-truth flags aligned with :attr:`active_ids`."""
        return [self._peers[peer_id].is_cooperative for peer_id in self._active_ids]

    def count_active(self, cooperative: bool | None = None) -> int:
        """Number of active peers, optionally filtered by ground truth."""
        if cooperative is None:
            return len(self._active_ids)
        return sum(
            1
            for peer_id in self._active_ids
            if self._peers[peer_id].is_cooperative == cooperative
        )

    def active_cooperative(self) -> list[Peer]:
        """Active peers whose ground-truth behaviour is cooperative."""
        return [p for p in self.active_peers() if p.is_cooperative]

    def active_uncooperative(self) -> list[Peer]:
        """Active peers whose ground-truth behaviour is uncooperative."""
        return [p for p in self.active_peers() if not p.is_cooperative]

    def founders(self) -> list[Peer]:
        """The peers that were present at time zero."""
        return [peer for peer in self._peers.values() if peer.is_founder]

    def ids(self) -> Iterable[PeerId]:
        """All peer identifiers ever allocated."""
        return self._peers.keys()
