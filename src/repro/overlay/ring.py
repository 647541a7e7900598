"""The Chord-style ring: node membership, successor lookup, finger tables.

The ring is maintained centrally (a sorted list of keys) because the paper's
simulator assumes instantaneous, loss-free message delivery; what matters for
the experiments is *which* node is responsible for *which* key, and how that
responsibility moves under churn.  Lookup nevertheless follows the Chord
finger-table walk so routing path lengths remain realistic (O(log N) hops) and
can be measured.

Membership changes are incremental, as in Chord itself: a join or leave only
touches the two neighbouring nodes' successor/predecessor pointers, and the
ring records which arc changed hands in :attr:`ChordRing.last_change` so
downstream caches can invalidate selectively.  The property tests check the
pointers against a whole-ring rewire of the sorted keys after every change.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from ..errors import UnknownPeerError
from ..ids import KEY_SPACE_BITS, PeerId
from .hashing import in_interval
from .membership import MembershipChange, MembershipKind
from .node import OverlayNode

#: Size of the identifier circle, hoisted: computing ``1 << 160`` and taking
#: a 160-bit modulo on every lookup is measurable on the assignment hot path,
#: and keys produced by ``hash_to_key``/``replica_key`` are already in range.
_KEY_SPACE = 1 << KEY_SPACE_BITS

__all__ = ["ChordRing"]


@dataclass
class ChordRing:
    """In-memory Chord ring holding one :class:`OverlayNode` per live peer."""

    _nodes_by_key: dict[int, OverlayNode] = field(default_factory=dict)
    _nodes_by_peer: dict[PeerId, OverlayNode] = field(default_factory=dict)
    _sorted_keys: list[int] = field(default_factory=list)
    #: The :class:`MembershipChange` produced by the most recent ``join`` or
    #: ``leave`` (``None`` initially, and after an idempotent no-op join).
    last_change: MembershipChange | None = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    # Membership                                                           #
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._sorted_keys)

    def __contains__(self, peer_id: PeerId) -> bool:
        return peer_id in self._nodes_by_peer

    def peers(self) -> list[PeerId]:
        """Return the peer ids of all live overlay nodes (unordered)."""
        return list(self._nodes_by_peer)

    def node_for_peer(self, peer_id: PeerId) -> OverlayNode:
        """Return the overlay node owned by ``peer_id``."""
        try:
            return self._nodes_by_peer[peer_id]
        except KeyError as exc:
            raise UnknownPeerError(peer_id) from exc

    def join(self, peer_id: PeerId) -> OverlayNode:
        """Add ``peer_id``'s node to the ring and wire its neighbours.

        Only the new node and its two ring neighbours are touched: an
        O(log n) position lookup, O(1) pointer updates, and one C-level
        memmove of the sorted key list (``list.insert``) — no Python-level
        work proportional to ring size, unlike the old whole-ring rewiring.
        The arc the node takes over from its successor is recorded in
        :attr:`last_change`.
        """
        if peer_id in self._nodes_by_peer:
            self.last_change = None
            return self._nodes_by_peer[peer_id]
        node = OverlayNode(peer_id=peer_id)
        # Handle the (astronomically unlikely) key collision by linear probing.
        while node.key in self._nodes_by_key:
            node.key = (node.key + 1) % (1 << KEY_SPACE_BITS)
        self._nodes_by_key[node.key] = node
        self._nodes_by_peer[peer_id] = node
        index = bisect_left(self._sorted_keys, node.key)
        self._sorted_keys.insert(index, node.key)
        total = len(self._sorted_keys)
        successor_key = self._sorted_keys[(index + 1) % total]
        predecessor_key = self._sorted_keys[(index - 1) % total]
        node.successor = successor_key
        node.predecessor = predecessor_key
        # On a single-node ring both neighbours are the node itself, and the
        # two writes below simply re-assert its self-pointers.
        self._nodes_by_key[predecessor_key].successor = node.key
        self._nodes_by_key[successor_key].predecessor = node.key
        self.last_change = MembershipChange(
            kind=MembershipKind.JOIN,
            peer_id=peer_id,
            node_key=node.key,
            predecessor_key=predecessor_key,
            successor_key=successor_key,
            ring_size=total,
        )
        return node

    def leave(self, peer_id: PeerId) -> OverlayNode:
        """Remove ``peer_id``'s node from the ring and return it.

        The departing node's predecessor and successor are linked to each
        other directly; no other node is touched.  The arc the node hands
        back to its successor is recorded in :attr:`last_change`.
        """
        node = self.node_for_peer(peer_id)
        del self._nodes_by_peer[peer_id]
        del self._nodes_by_key[node.key]
        index = bisect_left(self._sorted_keys, node.key)
        if index < len(self._sorted_keys) and self._sorted_keys[index] == node.key:
            self._sorted_keys.pop(index)
        total = len(self._sorted_keys)
        if total:
            successor_key = self._sorted_keys[index % total]
            predecessor_key = self._sorted_keys[(index - 1) % total]
            self._nodes_by_key[predecessor_key].successor = successor_key
            self._nodes_by_key[successor_key].predecessor = predecessor_key
        else:
            successor_key = node.key
            predecessor_key = node.key
        node.clear_routing_state()
        self.last_change = MembershipChange(
            kind=MembershipKind.LEAVE,
            peer_id=peer_id,
            node_key=node.key,
            predecessor_key=predecessor_key,
            successor_key=successor_key,
            ring_size=total,
        )
        return node

    # ------------------------------------------------------------------ #
    # Responsibility                                                       #
    # ------------------------------------------------------------------ #
    def successor_of(self, key: int) -> OverlayNode:
        """Return the node responsible for ``key`` (its clockwise successor)."""
        if not self._sorted_keys:
            raise UnknownPeerError(-1)
        if key >= _KEY_SPACE or key < 0:
            key %= _KEY_SPACE
        index = bisect_left(self._sorted_keys, key)
        if index == len(self._sorted_keys):
            index = 0
        return self._nodes_by_key[self._sorted_keys[index]]

    def successors_of(self, key: int, count: int) -> list[OverlayNode]:
        """Return up to ``count`` distinct nodes clockwise from ``key``."""
        keys = self._sorted_keys
        total = len(keys)
        if not total:
            return []
        if count > total:
            count = total
        if key >= _KEY_SPACE or key < 0:
            key %= _KEY_SPACE
        start = bisect_left(keys, key)
        if start == total:
            start = 0
        nodes = self._nodes_by_key
        end = start + count
        if end <= total:
            return [nodes[ring_key] for ring_key in keys[start:end]]
        return [nodes[keys[index % total]] for index in range(start, end)]

    def successor_pair(self, key: int) -> tuple[OverlayNode | None, OverlayNode | None]:
        """The first two distinct nodes clockwise from ``key`` as a tuple.

        Equivalent to ``successors_of(key, 2)`` but without building a list —
        manager assignment resolves two candidates per replica key, and on
        churn-heavy workloads that resolution runs once per cached subject per
        membership change, so the list allocation is measurable.  The second
        element is ``None`` on a single-node ring; both are ``None`` when the
        ring is empty.
        """
        keys = self._sorted_keys
        total = len(keys)
        if not total:
            return None, None
        if key >= _KEY_SPACE or key < 0:
            key %= _KEY_SPACE
        index = bisect_left(keys, key)
        if index == total:
            index = 0
        nodes = self._nodes_by_key
        first = nodes[keys[index]]
        if total == 1:
            return first, None
        index += 1
        second = nodes[keys[index if index < total else 0]]
        return first, second

    def responsible_peer(self, key: int) -> PeerId:
        """Peer id of the node responsible for ``key``."""
        return self.successor_of(key).peer_id

    # ------------------------------------------------------------------ #
    # Finger tables                                                        #
    # ------------------------------------------------------------------ #
    def build_fingers(self, peer_id: PeerId) -> None:
        """(Re)build the full finger table of ``peer_id``'s node."""
        node = self.node_for_peer(peer_id)
        node.fingers = [
            self.successor_of(node.finger_start(i)).key for i in range(KEY_SPACE_BITS)
        ]

    def closest_preceding_key(self, from_key: int, target: int) -> int | None:
        """Finger-table step: the known key closest to (but before) ``target``.

        Returns ``None`` when no finger precedes the target, in which case the
        lookup falls through to the successor pointer.
        """
        node = self._nodes_by_key.get(from_key)
        if node is None or not node.fingers:
            return None
        for finger_key in reversed(node.fingers):
            if finger_key in self._nodes_by_key and in_interval(
                finger_key, from_key, target, inclusive_right=False
            ):
                return finger_key
        return None
