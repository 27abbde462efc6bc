"""The four key-server workloads and the one place the daemon is configured.

Every workload runs the real :class:`~repro.service.daemon.RekeyDaemon`
with d=4, Poisson churn and benchmark-driven intake; they differ in group
size, churn rate, durability and delivery backend (see ``README.md`` for
why each was chosen).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    n_users: int
    alpha: float
    backend: str  # "sim" or "wire"
    #: measured intervals per episode (see ``bench``): a few seconds'
    #: worth, so that even a short run repeats its episode
    episode_intervals: int
    durable: bool = False
    block_size: int = 10
    why: str = ""

    def with_users(self, n_users):
        """The same workload on a smaller group (smoke tests)."""
        return dataclasses.replace(self, n_users=int(n_users))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-4k",
            n_users=4096,
            alpha=0.20,
            backend="sim",
            episode_intervals=20,
            why="the paper's defaults: server rekey and member "
            "simulation each take about half of an interval",
        ),
        Workload(
            "large-16k",
            n_users=16384,
            alpha=0.20,
            backend="sim",
            episode_intervals=5,
            why="4x batches: intake list scans and per-round session "
            "bookkeeping grow faster than N here",
        ),
        Workload(
            "durable-trickle",
            n_users=4096,
            alpha=0.02,
            backend="sim",
            episode_intervals=25,
            durable=True,
            why="writes beside reads: fsynced WAL appends and full-tree "
            "snapshots lead server work, marking nearly vanishes",
        ),
        Workload(
            "wire-512",
            n_users=512,
            alpha=0.15,
            backend="wire",
            episode_intervals=8,
            block_size=5,
            why="the only workload on the asyncio UDP wire plane: codec, "
            "NACK aggregation windows and real loopback sockets",
        ),
    )
}


def make_config(workload, seed):
    """The group configuration; the engine is chosen here and only here."""
    from repro.core.config import GroupConfig

    return GroupConfig(
        engine="numpy",
        degree=4,
        block_size=workload.block_size,
        seed=seed,
        crypto_seed=seed,
    )
