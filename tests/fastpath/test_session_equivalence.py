"""Differential: ArrayRekeySession vs the object-level RekeySession.

Both sessions get identically-seeded topologies and RNGs and the same
wire message; every observable must match exactly — per-round counters,
per-user recovery rounds, unicast totals, and the exact encryptions
each user walks away with.  Trials cover clean delivery, loss heavy
enough to force extra rounds and the unicast cutover, multicast-only
mode, and both parity generation modes (per-block oracle vs the batched
stacked cache).
"""

import numpy as np
import pytest

from repro.core.config import GroupConfig
from repro.core.server import GroupKeyServer
from repro.fastpath.session import ArrayRekeySession
from repro.sim.topology import LossParameters, MulticastTopology
from repro.transport.session import RekeySession, SessionConfig
from repro.util.rng import RandomSource


def make_message(n_users=90, n_leave=18, n_join=6, seed=5, block_size=5):
    server = GroupKeyServer(
        ["s%04d" % i for i in range(n_users)],
        config=GroupConfig(block_size=block_size, crypto_seed=seed),
    )
    rng = np.random.default_rng(seed)
    for name in rng.choice(sorted(server.users), n_leave, replace=False):
        server.request_leave(str(name))
    for i in range(n_join):
        server.request_join("j%04d" % i)
    _, message = server.rekey()
    assert not message.is_empty
    return message


def stats_digest(stats):
    return {
        "rounds": [
            (
                r.round_index,
                r.enc_packets_sent,
                r.parity_packets_sent,
                r.nacks_received,
                r.users_recovered_total,
            )
            for r in stats.rounds
        ],
        "unicast": (
            stats.unicast.users_served,
            stats.unicast.usr_packets_sent,
            stats.unicast.usr_bytes_sent,
            stats.unicast.attempts,
        ),
        "user_rounds": stats.user_rounds.tolist(),
        "n_users": stats.n_users,
        "overhead": round(stats.bandwidth_overhead, 9),
    }


def users_digest(session):
    out = {}
    for user_id, user in session.users.items():
        recovered = user.recovered_encryptions
        out[user_id] = (
            user.done,
            user.recovery_round,
            None
            if recovered is None
            else [(e.encryption_id, e.ciphertext) for e in recovered],
        )
    return out


def run_both(message, loss, config, seed):
    digests = []
    for session_class in (RekeySession, ArrayRekeySession):
        topology = MulticastTopology(
            len(message.needs_by_user),
            params=loss,
            random_source=RandomSource(seed).child(),
        )
        session = session_class(
            message,
            topology,
            config,
            rng=RandomSource(seed + 1).generator(),
        )
        stats = session.run()
        digests.append((stats_digest(stats), users_digest(session)))
    return digests


LOSS_LEVELS = {
    "paper-default": LossParameters(),
    "high": LossParameters(alpha=0.5, p_high=0.45),
    "lossless": LossParameters(p_high=0.0, p_low=0.0, p_source=0.0),
}


@pytest.mark.parametrize("loss_name", sorted(LOSS_LEVELS))
@pytest.mark.parametrize("multicast_only", [False, True])
@pytest.mark.parametrize("seed", [3, 17])
def test_session_equivalence(loss_name, multicast_only, seed):
    message = make_message(seed=seed)
    config = SessionConfig(
        rho=1.0,
        max_multicast_rounds=12 if multicast_only else 2,
        multicast_only=multicast_only,
    )
    oracle, fast = run_both(
        message, LOSS_LEVELS[loss_name], config, seed=seed * 7 + 1
    )
    assert oracle == fast


@pytest.mark.parametrize("batch_parity", [False, True])
def test_parity_mode_does_not_change_bytes(batch_parity):
    """The same session over a message in either parity mode must be
    indistinguishable — the batched cache is a pure implementation
    swap."""
    results = []
    for mode in (False, batch_parity):
        message = make_message(seed=29)
        message.batch_parity = mode
        oracle, fast = run_both(
            message,
            LOSS_LEVELS["high"],
            SessionConfig(rho=1.0, max_multicast_rounds=4),
            seed=41,
        )
        assert oracle == fast
        results.append(oracle)
    assert results[0] == results[1]


def test_adaptive_rho_trajectory_matches():
    """Chained sessions feeding an AdjustRho controller: the rho the
    *next* interval uses depends on the NACK counts the engines report,
    so trajectory equality catches any feedback drift."""
    from repro.transport.adaptive import ProactivityController

    trajectories = []
    for session_class in (RekeySession, ArrayRekeySession):
        controller = ProactivityController(
            k=5, rho=1.0, num_nack=20,
            rng=RandomSource(77).generator(),
        )
        trajectory = []
        for seed in (3, 5, 9, 11):
            message = make_message(seed=seed)
            controller.k = message.k
            topology = MulticastTopology(
                len(message.needs_by_user),
                params=LOSS_LEVELS["high"],
                random_source=RandomSource(seed + 100).child(),
            )
            session = session_class(
                message,
                topology,
                SessionConfig(rho=controller.rho, max_multicast_rounds=2),
                rng=RandomSource(seed + 200).generator(),
            )
            stats = session.run()
            controller.update([1] * stats.first_round_nacks)
            trajectory.append(round(controller.rho, 12))
        trajectories.append(trajectory)
    assert trajectories[0] == trajectories[1]


class _RecordingTopology(MulticastTopology):
    """Keeps every multicast reception matrix it hands out."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.receptions = []

    def multicast_reception(self, times, rng=None):
        received = super().multicast_reception(times, rng=rng)
        self.receptions.append(received.copy())
        return received


def test_last_block_duplicates_cover_users():
    """k+1 ENC packets: the last block is one real packet plus k-1
    duplicates of it.  Under heavy loss some of its users miss the real
    packet and are covered only through a duplicate, and some stay
    pending into round 3; both engines must still agree exactly."""
    k = 4
    message = make_message(n_users=200, n_leave=50, block_size=k)
    enc = message.enc_packets()
    real = [p for p in enc if not p.is_duplicate]
    assert len(real) == k + 1 and len(enc) == 2 * k
    loss = LossParameters(alpha=0.5, p_high=0.5, p_source=0.2)
    config = SessionConfig(rho=1.0, max_multicast_rounds=4)
    seed = 5
    oracle, fast = run_both(message, loss, config, seed=seed)
    assert oracle == fast

    # Replay the array session with a recording topology to show that
    # the scenario really exercises duplicate-only coverage.
    topology = _RecordingTopology(
        len(message.needs_by_user),
        params=loss,
        random_source=RandomSource(seed).child(),
    )
    session = ArrayRekeySession(
        message, topology, config, rng=RandomSource(seed + 1).generator()
    )
    stats = session.run()
    assert stats.n_multicast_rounds >= 3
    assert any(r >= 3 for r in stats.user_rounds.tolist())
    # Round 1 sends the slots block-interleaved: slot (b, s) goes out as
    # column s * n_blocks + b.
    column = {
        id(p): p.seq_in_block * message.n_blocks + p.block_id for p in enc
    }
    last = real[-1]
    duplicates = [column[id(p)] for p in enc if p.is_duplicate]
    round_one = topology.receptions[0]
    dup_only = 0
    for position, user_id in enumerate(session.user_ids):
        if last.frm_id <= user_id <= last.to_id:
            row = round_one[session._rows[position]]
            if not row[column[id(last)]] and row[duplicates].any():
                dup_only += 1
    assert dup_only > 0


def test_delivered_session_is_freed_without_the_collector(monkeypatch):
    """The array session holds no reference cycle: once
    ``SessionDelivery.deliver`` returns, plain reference counting has
    already freed it, with the cyclic collector switched off."""
    import gc
    import weakref

    from repro.service.churn import PoissonChurn
    from repro.service.daemon import RekeyDaemon
    from repro.service.transports import SessionDelivery

    sessions = []
    alive_after_deliver = []
    run = ArrayRekeySession.run
    deliver = SessionDelivery.deliver

    def recording_run(self):
        sessions.append(weakref.ref(self))
        return run(self)

    def checked_deliver(self, *args, **kwargs):
        report = deliver(self, *args, **kwargs)
        alive_after_deliver.append(sessions[-1]() is not None)
        return report

    monkeypatch.setattr(ArrayRekeySession, "run", recording_run)
    monkeypatch.setattr(SessionDelivery, "deliver", checked_deliver)
    config = GroupConfig(block_size=5, seed=3, engine="numpy")
    daemon = RekeyDaemon.start_new(
        ["m-%03d" % i for i in range(48)],
        config=config,
        backend=SessionDelivery(config, seed=4),
        churn=PoissonChurn(alpha=0.3),
        seed=3,
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        daemon.run(3)
    finally:
        if enabled:
            gc.enable()
    assert alive_after_deliver and not any(alive_after_deliver)
