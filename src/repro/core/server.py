"""The key server: registration, key management, rekey-message emission.

:class:`GroupKeyServer` glues the substrates together: it owns the keyed
:class:`~repro.keytree.tree.KeyTree`, collects join/leave requests over
a rekey interval, runs the marking algorithm at interval end, and builds
the signed rekey message.  A :class:`~repro.crypto.cost.CostMeter`
records the crypto work for the processing-time analyses.
"""

from __future__ import annotations

from repro.crypto.cipher import XorStreamCipher
from repro.crypto.cost import CostMeter
from repro.crypto.keys import KeyFactory
from repro.crypto.signer import SignatureScheme
from repro.errors import (
    ConfigurationError,
    DuplicateUserError,
    UnknownUserError,
)
from repro.keytree.marking import make_marking
from repro.keytree.tree import KeyTree
from repro.rekey.message import RekeyMessageBuilder

_MESSAGE_ID_SPACE = 64  # the 6-bit rekey-message ID field


class GroupKeyServer:
    """A single key server managing one secure group."""

    def __init__(self, initial_users, config=None):
        from repro.core.config import GroupConfig

        self.config = config or GroupConfig()
        self.meter = CostMeter()
        self._factory = KeyFactory(
            seed=self.config.crypto_seed, meter=self.meter
        )
        self._cipher = XorStreamCipher(meter=self.meter)
        self.signer = SignatureScheme(
            secret_seed=self.config.crypto_seed, meter=self.meter
        )
        initial_users = list(initial_users)
        if not initial_users:
            raise ConfigurationError(
                "a group needs at least one initial member"
            )
        self.tree = KeyTree.full_balanced(
            initial_users, self.config.degree, key_factory=self._factory
        )
        self._marking = make_marking(
            self.config.incremental_marking, engine=self.config.engine
        )
        self._builder = RekeyMessageBuilder(
            packet_size=self.config.packet_size,
            block_size=self.config.block_size,
            cipher=self._cipher,
            signer=self.signer,
            coder_kind=self.config.fec_coder,
            engine=self.config.engine,
        )
        # Insertion-ordered dicts used as ordered sets: O(1) membership
        # tests and cancels, arrival order preserved for marking and WAL.
        self._pending_joins = {}
        self._pending_leaves = {}
        self._next_message_id = 0
        self.intervals_processed = 0
        from repro.obs.recorder import NULL

        self.obs = NULL

    def set_observer(self, obs):
        """Attach an observability recorder to the whole pipeline.

        Propagates to the marking algorithm and the message builder
        (which hands it on to messages and their FEC coders), so one
        call instruments marking, encryption, signing, and encoding.
        """
        self.obs = obs
        self._marking.obs = obs
        self._builder.obs = obs
        return self

    # -- membership requests -------------------------------------------------

    @property
    def n_users(self):
        return self.tree.n_users

    @property
    def users(self):
        return self.tree.users

    @property
    def group_key(self):
        """The current group key (root of the key tree)."""
        return self.tree.group_key

    @property
    def pending_requests(self):
        """(joins, leaves) collected so far this interval."""
        return list(self._pending_joins), list(self._pending_leaves)

    def request_join(self, user):
        """Queue an (authenticated) join for the next rekey interval.

        A member with a leave already queued this interval may re-join:
        the marking algorithm renews its slot in place (Replace), so its
        old individual key still dies with the interval.
        """
        if user in self._pending_joins:
            raise DuplicateUserError("user %r already joined/queued" % (user,))
        if self.tree.has_user(user) and user not in self._pending_leaves:
            raise DuplicateUserError("user %r already joined/queued" % (user,))
        self._pending_joins[user] = None

    def request_leave(self, user):
        """Queue a leave for the next rekey interval."""
        if user in self._pending_joins:
            # Joined (or re-joined) and left within one interval: cancel
            # the join; a member's earlier queued leave, if any, stands.
            del self._pending_joins[user]
            return
        if user in self._pending_leaves:
            raise ConfigurationError("leave already queued for %r" % (user,))
        if not self.tree.has_user(user):
            raise UnknownUserError("unknown user %r" % (user,))
        self._pending_leaves[user] = None

    # -- interval processing ------------------------------------------------

    def rekey(self):
        """End the interval: run marking, build and sign the message.

        Returns ``(batch_result, rekey_message)``.  The message is empty
        when no membership changed.
        """
        joins, leaves = list(self._pending_joins), list(self._pending_leaves)
        self._pending_joins, self._pending_leaves = {}, {}
        batch = self._marking.apply(self.tree, joins=joins, leaves=leaves)
        message_id = self._next_message_id
        self._next_message_id = (message_id + 1) % _MESSAGE_ID_SPACE
        message = self._builder.build(batch, message_id=message_id)
        self.intervals_processed += 1
        return batch, message

    # -- registration-time state for members ------------------------------

    def registration_state(self, user):
        """What the registrar hands a member: its ID and path keys.

        Returns ``(user_id, {node_id: key})``.  (In deployment this
        travels over the SSL registration channel.)
        """
        user_id = self.tree.user_node_id(user)
        path = self.tree.path_ids(user)
        return user_id, {node_id: self.tree.key_of(node_id) for node_id in path}

    def usr_packet_hint(self, message, user):
        """Current u-node ID for ``user`` (for unicast addressing)."""
        return self.tree.user_node_id(user)

    # -- persistence ---------------------------------------------------------

    def snapshot(self):
        """Capture restartable server state as a JSON-safe dict.

        Pending join/leave queues are *not* captured (a restarted server
        re-collects requests; periodic batching makes the loss benign —
        clients simply retry within the interval).
        """
        from repro.keytree.persistence import tree_to_dict

        return {
            "tree": tree_to_dict(self.tree),
            "next_message_id": self._next_message_id,
            "intervals_processed": self.intervals_processed,
            "crypto_seed": self.config.crypto_seed,
        }

    @classmethod
    def restore(cls, snapshot, config=None):
        """Rebuild a server from :meth:`snapshot` output.

        ``config`` must match the snapshot's structural parameters
        (degree, packet size); the crypto seed is taken from the
        snapshot so key derivation continues exactly.
        """
        from repro.core.config import GroupConfig
        from repro.keytree.persistence import tree_from_dict

        config = config or GroupConfig()
        if config.crypto_seed != snapshot["crypto_seed"]:
            config = GroupConfig(
                **{
                    **config.__dict__,
                    "crypto_seed": snapshot["crypto_seed"],
                }
            )
        server = cls.__new__(cls)
        server.config = config
        server.meter = CostMeter()
        server._factory = KeyFactory(
            seed=config.crypto_seed, meter=server.meter
        )
        server._cipher = XorStreamCipher(meter=server.meter)
        server.signer = SignatureScheme(
            secret_seed=config.crypto_seed, meter=server.meter
        )
        server.tree = tree_from_dict(
            snapshot["tree"], key_factory=server._factory
        )
        if server.tree.degree != config.degree:
            raise ConfigurationError(
                "snapshot degree %d != config degree %d"
                % (server.tree.degree, config.degree)
            )
        server._marking = make_marking(
            config.incremental_marking, engine=config.engine
        )
        server._builder = RekeyMessageBuilder(
            packet_size=config.packet_size,
            block_size=config.block_size,
            cipher=server._cipher,
            signer=server.signer,
            coder_kind=config.fec_coder,
            engine=config.engine,
        )
        server._pending_joins = {}
        server._pending_leaves = {}
        server._next_message_id = int(snapshot["next_message_id"])
        server.intervals_processed = int(snapshot["intervals_processed"])
        return server

    def __repr__(self):
        return "GroupKeyServer(users=%d, intervals=%d)" % (
            self.n_users,
            self.intervals_processed,
        )
