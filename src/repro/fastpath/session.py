"""Array-plane delivery: the per-user transport loops as reductions.

:class:`ArrayRekeySession` is a :class:`~repro.transport.session.RekeySession`
whose receiver side keeps no per-user objects.  Receiver state lives in
arrays indexed by *position* (index into ``user_ids``), and each round
touches only the users that can still change:

- **own-slot reception** — an ENC packet covers exactly the users inside
  its ``<frm, to>`` range, which for a user is its own plan slot or a
  last-block duplicate of it (a duplicate repeats its original's range).
  Coverage is one O(N) gather of each active user's own-slot column,
  plus the duplicates' few position ranges;
- only the users still pending after coverage (a few percent after
  round 1, and the only rows later rounds read) get the per-block
  codeword counts and the block-ID estimator updates, O(pending ×
  packets);
- FEC recovery and NACK synthesis at the round boundary run over the
  pending rows only.

So a round costs the topology's O(N × packets) loss draws plus O(N)
here, plus O(pending × packets).  Only the NACK packets themselves
(small, post-loss) and the unicast mop-up stay object-level.

**Equivalence contract** (enforced by ``tests/fastpath``): identical RNG
draw sequence (one multicast draw per round, the same per-user unicast
draws), identical NACK packets in the same order, identical round/
unicast statistics, identical per-user recovery rounds and recovered
encryptions, identical protocol *events* on the obs bus.  The facts that
make the vectorization exact:

- a done user ignores every further packet, so its internal state is
  unobservable — its counts and estimator bounds are never read again,
  so they are not kept up to date;
- every codeword ``(block, seq)`` is multicast at most once per session
  (ENC only in round 1, parity rows always fresh), so per-block payload
  counts are plain cumulative sums, no dedup;
- for a user that is *not* done, the estimator's ``exact`` flag is never
  set (a covering packet implies done), and its low/high updates are
  order-independent max/min accumulations;
- a pending user's own block always lies inside its ``[low, high]``
  range, so recovery-by-decode is exactly "own block has ≥ k codewords
  within the pre-tightening range";
- every non-duplicate slot of a decoded block ``b ≠ own_block`` sits on
  the same side of the user's ID, so each block's estimator contribution
  collapses to three static per-block aggregates.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TransportError
from repro.rekey.packets import NackPacket, NackRequest, PacketType
from repro.transport.session import RekeySession

#: Sentinel for an unbounded estimator upper bound (``math.inf`` in the
#: object-level estimator); large enough that min() against any real
#: block bound always prefers the bound.
_INF = np.int64(1) << 60


def _ceil_div(numerator, denominator):
    """Element-wise ``ceil(numerator / denominator)`` for ints (any sign)."""
    return -((-numerator) // denominator)


class _UserView:
    """Read-only per-user facade over the session's arrays.

    Presents the slice of :class:`~repro.transport.user.UserTransport`
    that differential tests compare: ``done``, ``recovery_round`` and
    ``recovered_encryptions``.  Views are built on demand by
    :attr:`ArrayRekeySession.users`; the session never holds them.
    """

    __slots__ = ("_session", "_position", "user_id")

    def __init__(self, session, position, user_id):
        self._session = session
        self._position = position
        self.user_id = user_id

    @property
    def done(self):
        return bool(self._session._done[self._position])

    @property
    def recovery_round(self):
        if not self.done:
            return None
        return int(self._session._recovery_round[self._position])

    @property
    def recovered_encryptions(self):
        session = self._session
        if not self.done:
            return None
        usr = session._usr_encryptions.get(self._position)
        if usr is not None:
            return list(usr)
        slot = int(session._own_slot[self._position])
        return list(session.message.enc_packets()[slot].encryptions)

    def __repr__(self):
        return "_UserView(user=%d, done=%s)" % (self.user_id, self.done)


class ArrayRekeySession(RekeySession):
    """The ``engine="numpy"`` delivery session (see module docstring)."""

    def _init_receivers(self):
        message = self.message
        n = len(self.user_ids)
        k = message.k
        self._n_blocks = message.n_blocks
        self._uid = np.asarray(self.user_ids, dtype=np.int64)

        enc = message.enc_packets()
        self._n_slots = len(enc)
        slot_frm = np.array([p.frm_id for p in enc], dtype=np.int64)
        slot_to = np.array([p.to_id for p in enc], dtype=np.int64)
        slot_block = np.array([p.block_id for p in enc], dtype=np.int64)
        slot_seq = np.array([p.seq_in_block for p in enc], dtype=np.int64)
        slot_dup = np.array([p.is_duplicate for p in enc], dtype=bool)

        # The covering (non-duplicate) slot per user: non-dup slots in
        # block-major order are the plan order, whose <frm, to> intervals
        # are disjoint and increasing (the UKA invariant the block-ID
        # estimator itself relies on).
        nd = np.flatnonzero(~slot_dup)
        position = np.searchsorted(slot_to[nd], self._uid, side="left")
        own = nd[position]
        if np.any(slot_frm[own] > self._uid) or np.any(
            slot_to[own] < self._uid
        ):
            raise TransportError(
                "message plans do not cover every session user"
            )
        self._own_slot = own
        self._own_block = slot_block[own]

        # A last-block duplicate repeats its original's <frm, to>, so it
        # covers exactly the users whose own slot is that original: one
        # contiguous position range, since ``own`` ascends with the IDs.
        dup = np.flatnonzero(slot_dup)
        original = nd[np.searchsorted(slot_to[nd], slot_to[dup])]
        self._dup_cover = [
            (slot, start, stop)
            for slot, start, stop in zip(
                dup.tolist(),
                np.searchsorted(own, original, side="left").tolist(),
                np.searchsorted(own, original, side="right").tolist(),
            )
            if start < stop
        ]

        # Static estimator contributions of each decoded block's
        # non-duplicate slots (all same-side for a pending user):
        # a block below the user's own tightens low (and the step-6
        # upper bound); a block above tightens high to b - 1.
        degree = self._degree_hint()
        remaining = degree * (message.max_kid + 1) - slot_to[nd]
        nd_hi_above = slot_block[nd] + _ceil_div(
            remaining - (k - 1 - slot_seq[nd]), k
        )
        nd_lo = np.where(
            slot_seq[nd] == k - 1, slot_block[nd] + 1, slot_block[nd]
        )
        self._lo_from_block = np.zeros(self._n_blocks, dtype=np.int64)
        np.maximum.at(self._lo_from_block, slot_block[nd], nd_lo)
        self._hi_above_block = np.full(self._n_blocks, _INF, dtype=np.int64)
        np.minimum.at(self._hi_above_block, slot_block[nd], nd_hi_above)

        self._done = np.zeros(n, dtype=bool)
        self._recovery_round = np.zeros(n, dtype=np.int64)
        self._counts = np.zeros((n, self._n_blocks), dtype=np.int32)
        self._low = np.zeros(n, dtype=np.int64)
        self._high = np.full(n, _INF, dtype=np.int64)
        self._usr_encryptions = {}

    @property
    def users(self):
        """``{user_id: view}`` over the arrays, built fresh per access."""
        return {
            user_id: _UserView(self, position, user_id)
            for position, user_id in enumerate(self.user_ids)
        }

    def recovered_shared(self):
        """Each position's recovered encryptions, in ID order.

        ``None`` for a user still pending.  Members recovered by the
        same multicast slot share that slot's tuple (whichever packet
        delivered them — original, duplicate or FEC-decoded — carries
        the same encryptions), which is what lets the fleet absorber
        index each tuple once instead of re-scanning it per member.
        Callers must not mutate the tuples.
        """
        by_slot = [packet.encryptions for packet in self.message.enc_packets()]
        recovered = [
            by_slot[slot] if done else None
            for slot, done in zip(self._own_slot.tolist(), self._done.tolist())
        ]
        for position, encryptions in self._usr_encryptions.items():
            recovered[position] = encryptions
        return recovered

    # -- multicast reception ------------------------------------------------

    def _deliver_round(self, planned, clock):
        if not planned:
            return clock
        times = clock + np.array([p.offset for p in planned])
        received = self.topology.multicast_reception(times, rng=self._rng)
        packets = [p.packet for p in planned]
        enc_cols = [
            column
            for column, packet in enumerate(packets)
            if packet.packet_type is PacketType.ENC
        ]
        pending = np.flatnonzero(~self._done)
        if enc_cols:
            pending = self._cover(received, packets, enc_cols, pending)
        if pending.size:
            self._ingest(
                received[self._rows[pending]], packets, enc_cols, pending
            )
        return float(times[-1])

    def _cover(self, received, packets, enc_cols, active):
        """Finish the active users an ENC packet reached; return the rest.

        Reads, per active user, only the columns of its own plan slot.
        """
        k = self.message.k
        column_of_slot = np.full(self._n_slots, -1, dtype=np.int64)
        for column in enc_cols:
            packet = packets[column]
            column_of_slot[packet.block_id * k + packet.seq_in_block] = column
        hit = np.zeros(len(self._uid), dtype=bool)
        own_column = column_of_slot[self._own_slot[active]]
        sent = own_column >= 0
        hit[active[sent]] = received[
            self._rows[active[sent]], own_column[sent]
        ]
        for slot, start, stop in self._dup_cover:
            column = column_of_slot[slot]
            if column >= 0:
                hit[start:stop] |= received[self._rows[start:stop], column]
        covered = hit[active]
        newly_done = active[covered]
        self._done[newly_done] = True
        self._recovery_round[newly_done] = self.server.rounds_completed
        return active[~covered]

    def _ingest(self, got, packets, enc_cols, pending):
        """Codeword counts and estimator bounds for the pending rows.

        ``got`` is the round's reception matrix restricted to the
        ``pending`` positions' rows.
        """
        # Per-block codeword counts (ENC and PARITY both count): group
        # the round's columns by block and sum each group in one pass.
        p_block = np.array([p.block_id for p in packets], dtype=np.int64)
        order = np.argsort(p_block, kind="stable")
        sorted_blocks = p_block[order]
        starts = np.flatnonzero(
            np.r_[True, sorted_blocks[1:] != sorted_blocks[:-1]]
        )
        self._counts[np.ix_(pending, sorted_blocks[starts])] += (
            np.add.reduceat(got[:, order].astype(np.int32), starts, axis=1)
        )

        nd_cols = [c for c in enc_cols if not packets[c].is_duplicate]
        if not nd_cols:
            return
        enc = [packets[c] for c in nd_cols]
        frm = np.array([p.frm_id for p in enc], dtype=np.int64)
        to = np.array([p.to_id for p in enc], dtype=np.int64)
        blk = np.array([p.block_id for p in enc], dtype=np.int64)
        seq = np.array([p.seq_in_block for p in enc], dtype=np.int64)
        max_kid = np.array([p.max_kid for p in enc], dtype=np.int64)
        got = got[:, nd_cols]
        k = self.message.k
        degree = self._degree_hint()
        col_lo = np.where(seq == k - 1, blk + 1, blk)
        col_hi_above = blk + _ceil_div(
            degree * (max_kid + 1) - to - (k - 1 - seq), k
        )
        col_hi_below = np.where(seq == 0, blk - 1, blk)

        uid = self._uid[pending][:, None]
        above = got & (uid > to[None, :])
        below = got & (uid < frm[None, :])
        low_new = np.max(np.where(above, col_lo[None, :], -1), axis=1)
        high_new = np.minimum(
            np.min(np.where(above, col_hi_above[None, :], _INF), axis=1),
            np.min(np.where(below, col_hi_below[None, :], _INF), axis=1),
        )
        self._low[pending] = np.maximum(self._low[pending], low_new)
        self._high[pending] = np.minimum(self._high[pending], high_new)

    # -- round boundary -----------------------------------------------------

    def _collect_nacks(self):
        pending = np.flatnonzero(~self._done)
        if not pending.size:
            return []
        n_blocks = self._n_blocks
        k = self.message.k
        counts = self._counts[pending]
        low = self._low[pending]
        high = self._high[pending]
        own_block = self._own_block[pending]

        # FEC recovery over the pre-tightening range: a pending user
        # decodes every block in [low, min(high, B-1)] with >= k
        # codewords; decoding its own block makes it done, the others
        # only tighten the estimator (static per-block aggregates — see
        # module docstring).
        block_axis = np.arange(n_blocks, dtype=np.int64)[None, :]
        candidates = (
            (counts >= k)
            & (block_axis >= low[:, None])
            & (block_axis <= np.minimum(high, n_blocks - 1)[:, None])
        )
        own_decoded = candidates[np.arange(len(pending)), own_block]
        newly_done = pending[own_decoded]
        self._done[newly_done] = True
        self._recovery_round[newly_done] = self.server.rounds_completed

        still = ~own_decoded
        pending, counts, low, high = (
            pending[still], counts[still], low[still], high[still]
        )
        candidates, own_block = candidates[still], own_block[still]
        below = candidates & (block_axis < own_block[:, None])
        above = candidates & (block_axis > own_block[:, None])
        low = np.maximum(
            low,
            np.max(np.where(below, self._lo_from_block[None, :], -1), axis=1),
        )
        high = np.minimum(
            high,
            np.minimum(
                np.min(
                    np.where(below, self._hi_above_block[None, :], _INF),
                    axis=1,
                ),
                np.min(np.where(above, block_axis - 1, _INF), axis=1),
            ),
        )
        self._low[pending] = low
        self._high[pending] = high

        # NACKs come from the freshly tightened range; the pending set is
        # small after round 1, so real packet objects (the chaos layer's
        # seam) cost nothing.
        nacks = []
        message_id = self.message.message_id
        ranges = zip(
            pending.tolist(),
            low.tolist(),
            np.minimum(high, n_blocks - 1).tolist(),
        )
        for row, (position, first, last) in enumerate(ranges):
            requests = []
            for block_id in range(first, last + 1):
                shortfall = k - int(counts[row, block_id])
                if shortfall > 0:
                    requests.append(
                        NackRequest(block_id=block_id, n_parity=shortfall)
                    )
            if requests:
                nacks.append(
                    NackPacket(
                        rekey_message_id=message_id,
                        user_id=int(self._uid[position]),
                        requests=tuple(requests),
                    )
                )
        return nacks

    # -- unicast and aggregates ---------------------------------------------

    def _on_usr(self, position, usr):
        if usr.rekey_message_id != self.message.message_id:
            raise TransportError(
                "packet for message %d delivered to session %d"
                % (usr.rekey_message_id, self.message.message_id)
            )
        if usr.user_id != self.user_ids[position]:
            raise TransportError(
                "USR packet for user %d delivered to user %d"
                % (usr.user_id, self.user_ids[position])
            )
        if self._done[position]:
            return
        self._usr_encryptions[position] = tuple(usr.encryptions)
        self._done[position] = True
        self._recovery_round[position] = 0

    def _n_done(self):
        return int(self._done.sum())

    def _pending_positions(self):
        return np.flatnonzero(~self._done).tolist()

    def _user_rounds(self):
        return self._recovery_round.astype(int)
