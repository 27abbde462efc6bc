"""The closed-loop load generator and its end-to-end metrics.

One run is a series of episodes, repeated until the time budget is
spent.  An episode, seeded from the run's seed and its own index, sets a
daemon up (a fresh ``RekeyDaemon.start_new`` plus one warm-up interval;
the median over episodes is ``setup_s``) and drives it for the
workload's ``episode_intervals`` intervals.  Each interval's joins and
leaves are drawn from the benchmark's own RNG, seeded by (episode seed,
interval), *outside* the timed region, submitted one by one through
``submit_join``/``submit_leave``, and followed by one ``run_interval()``
on a daemon built with ``NoChurn``.  Episodes keep every run's state
alike: the daemon keeps every evicted member, so its heap, and the cost
of garbage collection, grow with every interval; in one long episode,
how far they grew would depend on how many intervals the host's speed
fitted into the budget.

The correctness oracle runs outside the timed region: after every
episode, the fleet agreement check (excluding members whose updates are
still carried over); and a SHA-256 over the first episodes' protocol
fields, which must not depend on timing, is the run's digest.

The host is shared, and its speed drifts: for a second or more at a
time the same code runs 1.4-1.7x slower, and the level it returns to
moves by up to 25% within an hour.  So a fixed pure-Python probe runs
(untimed, on this thread's CPU time) before and after every set-up and
interval, and every end-to-end time is reported at a reference speed
(see :func:`at_reference`): its CPU part scaled by ``REFERENCE_PROBE_S``
over the mean of the two probes around it, its waits (fsync, sockets)
as measured.  The probe does not run the program, so a change to the
program moves the scaled times as much as the wall times.  The
wall-time medians go to the run context.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from time import perf_counter, process_time, thread_time

import numpy as np

from repro.errors import ReproError
from repro.service import (
    DaemonConfig,
    NoChurn,
    PoissonChurn,
    RekeyDaemon,
    make_backend,
)
from repro.service.transports import DeliveryBackend

from workloads import make_config

#: what :func:`host_probe` takes on the reference host (2 vCPUs of an
#: Intel Xeon at 2.0 GHz, Python 3.11) when nothing else slows it down;
#: end-to-end times are scaled to this probe time
REFERENCE_PROBE_S = 1.30e-3

#: episodes every run measures, however short its budget
MIN_EPISODES = 2

#: the protocol fields of an interval record that go into the digest
DIGEST_FIELDS = (
    "interval",
    "n_joins",
    "n_leaves",
    "n_encryptions",
    "n_enc_packets",
    "decision",
    "group_key_fp",
)


def host_probe(repeats=3):
    """CPU seconds a fixed pure-Python kernel takes on this thread now
    (best of ``repeats``): how fast the host runs this process at the
    moment.  CPU time leaves out waits for the interpreter lock, so the
    program's other threads do not count.  The kernel allocates almost
    no tracked objects and runs with the collector off, so it neither
    pays for nor shifts the program's garbage collections."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            start = thread_time()
            table = {}
            total = 0
            for i in range(10000):
                table[i & 1023] = total
                total += i * 3 % 7
            sorted(str(i) for i in range(1500))
            best = min(best, thread_time() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def at_reference(wall, cpu, probe_s):
    """``wall`` seconds, ``cpu`` of them on this process's CPU time,
    while the host probe took ``probe_s``, at the reference speed: the
    CPU part scaled by ``REFERENCE_PROBE_S / probe_s``, the rest (waits
    for the disk, sockets or timers, which a slow host does not slow)
    as measured."""
    cpu = min(cpu, wall)
    return cpu * REFERENCE_PROBE_S / probe_s + (wall - cpu)


@dataclass
class SetupSample:
    seconds: float
    cpu_s: float
    #: the mean of the host probes just before and just after
    probe_s: float

    def at_reference(self):
        return at_reference(self.seconds, self.cpu_s, self.probe_s)


class TimedBackend(DeliveryBackend):
    """Times the backend it wraps, so server work can be told apart
    from delivery (the wall time spent outside ``deliver``)."""

    def __init__(self, inner):
        self.inner = inner
        #: (wall seconds, CPU seconds, message, report) of the latest
        #: delivery
        self.last = None

    def set_observer(self, obs):
        self.inner.set_observer(obs)
        return self

    def deliver(self, message, fleet, deadline_rounds=2, policy="unicast"):
        cpu = process_time()
        start = perf_counter()
        report = self.inner.deliver(
            message, fleet, deadline_rounds=deadline_rounds, policy=policy
        )
        wall = perf_counter() - start
        self.last = (wall, process_time() - cpu, message, report)
        return report

    def close(self):
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()


@dataclass
class IntervalSample:
    """What the loop measured around one interval."""

    interval: int
    #: the interval's index among the run's measured intervals (-1 for
    #: a warm-up interval); traced spans carry it
    seq: int
    record: object
    traced: bool
    requests: int
    rejected: int
    submit_s: float
    interval_s: float
    #: per-call latency of each submit (seconds)
    latencies: list = field(default_factory=list)
    deliver_s: float = 0.0
    #: process CPU time of the submits, the interval and the delivery
    submit_cpu_s: float = 0.0
    interval_cpu_s: float = 0.0
    deliver_cpu_s: float = 0.0
    #: the mean of the host probes just before and just after
    probe_s: float = REFERENCE_PROBE_S
    addressed: int = 0
    missed: int = 0
    packets: int = 0
    report: object = None

    def interval_at_reference(self):
        return at_reference(self.interval_s, self.interval_cpu_s, self.probe_s)

    def server_at_reference(self):
        return at_reference(
            self.interval_s - self.deliver_s,
            self.interval_cpu_s - self.deliver_cpu_s,
            self.probe_s,
        )

    def submit_factor(self):
        """What each submit's wall time is multiplied by to put it at
        the reference speed (the interval's submits share one CPU part)."""
        if self.submit_s <= 0:
            return 1.0
        return (
            at_reference(self.submit_s, self.submit_cpu_s, self.probe_s)
            / self.submit_s
        )


def episode_seed(seed, episode):
    """The seed of a run's ``episode``-th episode (0 is the warm-up),
    from both alone: episodes are independent draws of the workload."""
    return int(np.random.SeedSequence((seed, episode)).generate_state(1)[0])


def protocol_line(record):
    return json.dumps([getattr(record, name) for name in DIGEST_FIELDS])


def rekey_packets(report):
    """ENC + PARITY + USR packets one delivery sent (datagrams on wire)."""
    detail = report.detail
    if "datagrams_sent" in detail:
        return int(detail["datagrams_sent"])
    return int(detail.get("multicast_packets", 0)) + int(
        detail.get("usr_packets", 0)
    )


@dataclass
class Run:
    """One workload run: daemon, samples and everything to report."""

    workload: object
    seed: int
    state_root: str
    #: one ``SetupSample`` per measured episode
    setup_s: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    #: each episode's protocol lines, warm-up interval first; the first
    #: is the unmeasured warm-up episode of :meth:`setup`
    episode_lines: list = field(default_factory=list)
    daemon: object = None
    backend: object = None
    state_dir: object = None
    #: peak RSS (MB) at the end of the run
    rss_mb: float = 0.0
    episode_seed: int = 0

    # -- set-up -------------------------------------------------------------

    def _build(self):
        workload = self.workload
        seed = self.episode_seed
        config = make_config(workload, seed)
        inner = make_backend(
            workload.backend, config, seed=seed + 1, workers=0
        )
        backend = TimedBackend(inner)
        state_dir = None
        if workload.durable:
            state_dir = tempfile.mkdtemp(prefix="state-", dir=self.state_root)
        daemon = RekeyDaemon.start_new(
            ["m%05d" % i for i in range(workload.n_users)],
            config=config,
            backend=backend,
            churn=NoChurn(),
            service=DaemonConfig(state_dir=state_dir, verify_invariants=False),
            seed=seed,
        )
        return daemon, backend, state_dir

    def _start_episode(self):
        """Replace the daemon with a fresh one and run its warm-up
        interval; return the set-up's timing."""
        self.close()
        self.episode_seed = episode_seed(self.seed, len(self.episode_lines))
        # Collect the last episode's daemon now, so that no set-up (and
        # no measured interval) pays for its predecessor.
        gc.collect()
        before = host_probe()
        cpu = process_time()
        start = perf_counter()
        self.daemon, self.backend, self.state_dir = self._build()
        sample = self.step()
        seconds = perf_counter() - start
        cpu = process_time() - cpu
        self.episode_lines.append([protocol_line(sample.record)])
        return SetupSample(seconds, cpu, (before + host_probe()) / 2)

    def setup(self):
        """One unmeasured set-up, so that the measured ones start warm."""
        self._start_episode()

    # -- the closed loop ----------------------------------------------------

    def events(self, interval):
        """This interval's joins and leaves, from the episode's seed and
        the interval alone.

        Leaves are Poisson(alpha * N); joins are Poisson(alpha * N0), so
        the group size reverts to its initial N0 instead of drifting
        like a random walk (which moved a wire-512 group by over 10%
        within one run, and so made runs of different seeds differ).
        """
        members = self.daemon.server.users
        alpha = self.workload.alpha
        churn = PoissonChurn(
            alpha, alpha_join=alpha * self.workload.n_users / len(members)
        )
        rng = np.random.default_rng((self.episode_seed, interval))
        return churn.events(interval, members, rng)

    def step(self, recorder=None, seq=-1):
        """Run one interval: draw, submit one by one, ``run_interval``.
        A ``recorder`` marks the interval traced and gets ``seq``."""
        daemon = self.daemon
        interval = daemon.server.intervals_processed
        events = self.events(interval)
        if recorder is not None:
            recorder.interval_id = seq
        rejected = 0
        latencies = []
        submit_cpu = process_time()
        submit_start = perf_counter()
        for submit, names in (
            (daemon.submit_join, events.joins),
            (daemon.submit_leave, events.leaves),
        ):
            for name in names:
                start = perf_counter()
                try:
                    submit(name)
                except ReproError:
                    rejected += 1
                latencies.append(perf_counter() - start)
        interval_start = perf_counter()
        interval_cpu = process_time()
        self.backend.last = None
        record = daemon.run_interval()
        end = perf_counter()
        end_cpu = process_time()
        sample = IntervalSample(
            interval=interval,
            seq=seq,
            record=record,
            traced=recorder is not None,
            requests=events.n_events,
            rejected=rejected,
            submit_s=interval_start - submit_start,
            interval_s=end - interval_start,
            latencies=latencies,
            submit_cpu_s=interval_cpu - submit_cpu,
            interval_cpu_s=end_cpu - interval_cpu,
        )
        if self.backend.last is not None:
            sample.deliver_s, sample.deliver_cpu_s, message, report = (
                self.backend.last
            )
            sample.report = report
            sample.addressed = len(message.needs_by_user)
            sample.missed = report.unicast_served + len(report.carried)
            sample.packets = rekey_packets(report)
        return sample

    def measure(self, seconds, trace=False, recorder=None, probes=None):
        """Run episodes until ``seconds`` have passed and at least
        ``MIN_EPISODES`` ran.  With ``trace``, every other interval of
        an episode runs with the probes installed."""
        start = perf_counter()
        episodes = 0
        while episodes < MIN_EPISODES or perf_counter() - start < seconds:
            self.setup_s.append(self._start_episode())
            before = host_probe()
            for k in range(self.workload.episode_intervals):
                traced = trace and k % 2 == 1
                seq = len(self.samples)
                if traced:
                    probes.install()
                try:
                    sample = self.step(recorder if traced else None, seq)
                finally:
                    if traced:
                        probes.remove()
                after = host_probe()
                sample.probe_s = (before + after) / 2
                before = after
                self.samples.append(sample)
                self.episode_lines[-1].append(protocol_line(sample.record))
            self.check()
            episodes += 1
        self.rss_mb = peak_rss_mb()

    # -- correctness --------------------------------------------------------

    def digest(self):
        """SHA-256 over the protocol fields (no timings) of the warm-up
        episode and the first ``MIN_EPISODES`` measured ones."""
        lines = [
            line
            for episode in self.episode_lines[: MIN_EPISODES + 1]
            for line in episode
        ]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def check(self):
        """Raise unless the fleet agrees with the server, leaving out
        members whose updates are still carried over."""
        self.daemon.fleet.check_agreement(
            self.daemon.server, exclude=self.daemon.pending_carry_names()
        )

    def close(self):
        if self.daemon is not None:
            self.daemon.close()
            self.backend.close()
            self.daemon = self.backend = None
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)
            self.state_dir = None

    # -- end-to-end metrics -------------------------------------------------

    def medians(self, scaled=True):
        """Median set-up (s), submit (us), interval and server (ms) time
        over the untraced intervals: at the reference speed, or in wall
        time if not ``scaled``."""
        untraced = [s for s in self.samples if not s.traced]
        median = statistics.median
        if scaled:
            return {
                "setup_s": median(s.at_reference() for s in self.setup_s),
                "submit_us_p50": median(
                    t * s.submit_factor()
                    for s in untraced
                    for t in s.latencies
                )
                * 1e6,
                "interval_ms_p50": median(
                    s.interval_at_reference() for s in untraced
                )
                * 1e3,
                "server_ms_p50": median(
                    s.server_at_reference() for s in untraced
                )
                * 1e3,
            }
        return {
            "setup_s": median(s.seconds for s in self.setup_s),
            "submit_us_p50": median(t for s in untraced for t in s.latencies)
            * 1e6,
            "interval_ms_p50": median(s.interval_s for s in untraced) * 1e3,
            "server_ms_p50": median(
                s.interval_s - s.deliver_s for s in untraced
            )
            * 1e3,
        }

    def end_to_end(self):
        """The end-to-end metrics, every time at the reference speed."""
        untraced = [s for s in self.samples if not s.traced]
        busy = sum(
            sum(s.latencies) * s.submit_factor() + s.interval_at_reference()
            for s in untraced
        )
        accepted = sum(s.requests - s.rejected for s in untraced)
        units = {
            "setup_s": "s",
            "submit_us_p50": "us",
            "interval_ms_p50": "ms",
            "server_ms_p50": "ms",
        }
        metrics = {
            name: (value, units[name])
            for name, value in self.medians().items()
        }
        metrics["requests_per_s"] = (accepted / busy, "1/s")
        metrics["rekey_packets_per_interval"] = (
            statistics.fmean(s.packets for s in untraced),
            "count",
        )
        metrics["peak_rss_mb"] = (self.rss_mb, "MB")
        return metrics

    def tails(self):
        """Each tail, in wall time, with where it sits: percentile,
        samples, and samples beyond it.  The submit tail is taken within
        each interval's batch of submits; its value and placement are
        medians over intervals.

        Neither is an end-to-end metric.  On durable-trickle the submit
        tail is an fsync tail, and it spread by 40-50% between runs.  On
        paper-4k about one interval in four takes 1.3-2.7x as long as
        the others, so the interval tail falls at the edge between the
        two groups; it spread by 30% between runs."""
        untraced = [s for s in self.samples if not s.traced]
        batches = [tail(s.latencies) for s in untraced if s.latencies]
        value, percentile, beyond = tail([s.interval_s for s in untraced])
        return {
            "submit_us_tail": {
                "value": statistics.median(v for v, _, _ in batches) * 1e6,
                "percentile": statistics.median(p for _, p, _ in batches),
                "samples": statistics.median(
                    len(s.latencies) for s in untraced
                ),
                "beyond": statistics.median(b for _, _, b in batches),
                "intervals": len(batches),
            },
            "interval_ms_tail": {
                "value": value * 1e3,
                "percentile": percentile,
                "samples": len(untraced),
                "beyond": beyond,
            },
        }


def tail(values, beyond=10):
    """The highest percentile with at least ``beyond`` samples above it,
    but never below the median.

    Returns ``(value, percentile, samples_beyond)``.  With fewer than
    ``2 * beyond + 1`` samples no percentile above the median has
    ``beyond`` samples above it; the (lower) median is returned then, and
    ``samples_beyond`` says how many samples exceed it.
    """
    ordered = sorted(values)
    index = max(len(ordered) - beyond - 1, (len(ordered) - 1) // 2)
    return (
        ordered[index],
        100.0 * (index + 1) / len(ordered),
        len(ordered) - index - 1,
    )


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def state_root(checkout):
    """Working space for durable state, inside the checkout."""
    root = os.path.join(checkout, ".perfbench_tmp")
    os.makedirs(root, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=root)
