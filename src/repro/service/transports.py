"""Delivery backends: how the daemon moves a rekey message to members.

Three interchangeable paths behind one ``deliver()`` interface:

- :class:`DirectDelivery` — idealised loss-free channel (each member
  processes its ENC packet directly); the fast path for recovery tests
  and very long soaks;
- :class:`SessionDelivery` — the paper's transport: a full
  :class:`~repro.transport.session.RekeySession` over the burst-loss
  topology, with the ``AdjustRho`` controller carried *across*
  intervals (the per-interval ρ trajectory the metrics report);
- :class:`UdpDelivery` — real loopback UDP via
  :func:`repro.net.run_udp_rekey` (one socket per member, injected
  receiver-side loss).

**Graceful degradation.**  Every backend takes a per-interval deadline
in multicast rounds.  When multicast has not finished everyone by the
deadline, the tail is handled per the daemon's policy and the decision
is recorded in the :class:`DeliveryReport`:

- ``unicast`` policy → the transport switches the stragglers to
  unicast USR packets inside the interval (decision
  ``"unicast-cutover"``);
- ``carry`` policy → the stragglers' key updates are *carried over*:
  they stay stale this interval and the daemon serves them by unicast
  from the stored message at the start of the next interval (decision
  ``"carry-over"``); only :class:`SessionDelivery` distinguishes this —
  the direct path never degrades, and the UDP path always cuts over.

One approximation, documented: ``RekeySession`` reports first-round
NACK *counts* but not per-user parity shortfalls, so ``AdjustRho`` is
driven with one-parity requests per NACKing user.  The step direction
(and the convergence target numNACK) is preserved; only the upward step
size is conservative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ServiceError
from repro.obs.recorder import NULL
from repro.sim.topology import MulticastTopology
from repro.transport.adaptive import ProactivityController
from repro.transport.session import RekeySession, SessionConfig
from repro.util.rng import RandomSource

IN_DEADLINE = "in-deadline"
UNICAST_CUTOVER = "unicast-cutover"
CARRY_OVER = "carry-over"


@dataclass
class DeliveryReport:
    """What one interval's delivery did, for the metrics ledger."""

    mode: str
    decision: str = IN_DEADLINE
    rho: float = 0.0
    multicast_rounds: int = 0
    first_round_nacks: int = 0
    unicast_served: int = 0
    #: per-user multicast recovery round (1-based; 0 = not by multicast);
    #: None when the backend cannot observe per-user rounds (UDP).
    recovery_rounds: list = None
    #: names whose key updates were deferred to the next interval
    carried: list = field(default_factory=list)
    #: backend-specific extras (packet counts etc.)
    detail: dict = field(default_factory=dict)


class DeliveryBackend:
    """Interface: deliver ``message`` to ``fleet``, honouring a deadline."""

    #: observability recorder; the daemon injects its own via
    #: :meth:`set_observer` so deliveries share the interval context
    obs = NULL

    def set_observer(self, obs):
        self.obs = obs
        return self

    def deliver(self, message, fleet, deadline_rounds=2, policy="unicast"):
        raise NotImplementedError


class DirectDelivery(DeliveryBackend):
    """Loss-free delivery: every member sees every distinct ENC packet."""

    def deliver(self, message, fleet, deadline_rounds=2, policy="unicast"):
        packets = [p for p in message.enc_packets() if not p.is_duplicate]
        for member in fleet.members.values():
            for packet in packets:
                if member.process_enc_packet(packet):
                    break
        n_users = len(message.needs_by_user)
        return DeliveryReport(
            mode="direct",
            rho=0.0,
            multicast_rounds=1,
            recovery_rounds=[1] * n_users,
            detail={"packets_sent": len(packets)},
        )


class SessionDelivery(DeliveryBackend):
    """The simulated lossy transport, with cross-interval ρ adaptation."""

    def __init__(self, config, seed=None, adapt_rho=True, chaos=None):
        """``config`` is the group's :class:`~repro.core.config.GroupConfig`
        (loss topology, ρ/numNACK starting points, pacing).  ``chaos``
        is an optional feedback-fault hook handed to every session (see
        :class:`repro.chaos.faults.FeedbackChaos`)."""
        self.config = config
        self._random_source = RandomSource(
            config.seed if seed is None else seed
        )
        self.adapt_rho = bool(adapt_rho)
        self.chaos = chaos
        #: "python" runs the per-object oracle session and per-member
        #: absorption; anything else the array plane (repro.fastpath) —
        #: identical output either way, held together by tests/fastpath
        self.engine = getattr(config, "engine", "python")
        self.controller = ProactivityController(
            k=config.block_size,
            rho=config.rho,
            num_nack=config.num_nack,
            rng=self._random_source.generator(),
            rho_max=getattr(config, "rho_max", None),
        )

    @property
    def rho(self):
        return self.controller.rho

    def deliver(self, message, fleet, deadline_rounds=2, policy="unicast"):
        topology = MulticastTopology(
            len(message.needs_by_user),
            params=self.config.loss,
            random_source=self._random_source.child(),
        )
        self.controller.k = message.k
        rho = self.controller.rho
        session_class = RekeySession
        if self.engine != "python":
            from repro.fastpath.session import ArrayRekeySession

            session_class = ArrayRekeySession
        session = session_class(
            message,
            topology,
            SessionConfig(
                rho=rho,
                sending_interval_ms=self.config.sending_interval_ms,
                max_multicast_rounds=deadline_rounds,
            ),
            rng=self._random_source.generator(),
            obs=self.obs,
            chaos=self.chaos,
        )
        stats = session.run()
        if self.adapt_rho:
            # Shortfall magnitudes are not surfaced; see module docstring.
            self.controller.update([1] * stats.first_round_nacks)
            if self.controller.last_rho_clamped and self.obs.enabled:
                self.obs.emit(
                    "rho_clamped",
                    rho=self.controller.rho,
                    rho_max=self.controller.rho_max,
                )

        absorber = None
        if self.engine != "python":
            from repro.fastpath.absorb import FleetAbsorber

            absorber = FleetAbsorber(self.config.degree)
            absorber.relocate_fleet(fleet, message.max_kid)
        else:
            fleet.relocate_all(message.max_kid)
        by_id = fleet.by_user_id()
        user_rounds = {
            user_id: int(stats.user_rounds[index])
            for index, user_id in enumerate(session.user_ids)
        }
        carried = []
        if policy == "carry":
            carried = sorted(
                by_id[user_id].name
                for user_id, rounds in user_rounds.items()
                if rounds == 0 and user_id in by_id
            )
        carried_set = set(carried)
        if absorber is not None:
            # Read straight from the array session: no per-user objects,
            # and members recovered by one multicast slot share its
            # encryption tuple, which the absorber indexes once.
            recovered = session.recovered_shared()
        for position, user_id in enumerate(session.user_ids):
            member = by_id.get(user_id)
            if member is None:
                raise ServiceError(
                    "transport served unknown user ID %d" % user_id
                )
            if member.name in carried_set:
                continue
            if absorber is not None:
                absorber.absorb(member, recovered[position])
            else:
                member.absorb_encryptions(
                    session.users[user_id].recovered_encryptions,
                    max_kid=message.max_kid,
                )

        if carried:
            decision = CARRY_OVER
            unicast_served = 0
        elif stats.unicast.users_served:
            decision = UNICAST_CUTOVER
            unicast_served = stats.unicast.users_served
        else:
            decision = IN_DEADLINE
            unicast_served = 0
        return DeliveryReport(
            mode="session",
            decision=decision,
            rho=rho,
            multicast_rounds=stats.n_multicast_rounds,
            first_round_nacks=stats.first_round_nacks,
            unicast_served=unicast_served,
            recovery_rounds=[
                user_rounds[user_id] for user_id in session.user_ids
            ],
            carried=carried,
            detail={
                "multicast_packets": stats.total_multicast_packets,
                "bandwidth_overhead": round(stats.bandwidth_overhead, 3),
                "usr_packets": stats.unicast.usr_packets_sent,
            },
        )


class UdpDelivery(DeliveryBackend):
    """Real loopback-UDP delivery (small groups, integration realism).

    The UDP driver always escalates stragglers to unicast inside the
    interval, so the ``carry`` policy degrades to ``unicast`` here (the
    decision is still recorded honestly as ``"unicast-cutover"``).
    """

    def __init__(self, config, drop_probability=0.15, seed=None):
        self.config = config
        self.drop_probability = float(drop_probability)
        self._seed = config.seed if seed is None else seed
        self._calls = 0

    def deliver(self, message, fleet, deadline_rounds=2, policy="unicast"):
        from repro.net import run_udp_rekey

        policy_ignored = policy == "carry"
        if policy_ignored:
            # Not silent: operators configured carry but the UDP path
            # cannot defer stragglers — say so on the bus and in the
            # report so the daemon's ledger can count it.
            self.obs.emit(
                "degradation_policy_ignored",
                transport="udp",
                policy=policy,
                effective="unicast",
            )
        fleet.relocate_all(message.max_kid)
        self._calls += 1
        report = run_udp_rekey(
            message,
            members_by_user_id=fleet.by_user_id(),
            rho=self.config.rho,
            drop_probability=self.drop_probability,
            max_multicast_rounds=deadline_rounds,
            seed=self._seed + self._calls,
        )
        degraded = report["unicast_users"] > 0
        detail = {
            "packets_sent": report["packets_sent"],
            "packets_dropped": report["packets_dropped"],
        }
        if policy_ignored:
            detail["policy_ignored"] = True
        return DeliveryReport(
            mode="udp",
            decision=UNICAST_CUTOVER if degraded else IN_DEADLINE,
            rho=self.config.rho,
            multicast_rounds=report["rounds"],
            unicast_served=report["unicast_users"],
            recovery_rounds=None,
            detail=detail,
        )


def make_backend(kind, config, seed=None, drop_probability=0.15,
                 host="127.0.0.1", port=0, workers=0):
    """CLI-facing factory: ``direct`` / ``sim`` / ``udp`` / ``wire``."""
    if kind == "direct":
        return DirectDelivery()
    if kind == "sim":
        return SessionDelivery(config, seed=seed)
    if kind == "udp":
        return UdpDelivery(
            config, drop_probability=drop_probability, seed=seed
        )
    if kind == "wire":
        # Imported lazily: the wire plane pulls in asyncio machinery the
        # simulated backends never need.
        from repro.wire.delivery import WireDelivery

        return WireDelivery(
            config, seed=seed, host=host, port=port, workers=workers
        )
    raise ServiceError("unknown transport backend %r" % (kind,))
