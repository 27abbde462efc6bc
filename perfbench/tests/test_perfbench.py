"""The benchmark's own tests.

Run from the root of a checkout::

    python -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, CHECKOUT

import bench
import layers
from repro.errors import ServiceError
from tracer import Probes, SpanRecorder
from workloads import WORKLOADS

SMOKE_USERS = 256


def _spec():
    with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run_cli(workload, trace, seed=5):
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(BENCH, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0",
            "--trace", str(trace),
            "--users", str(SMOKE_USERS),
        ],
        cwd=CHECKOUT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


def test_per_layer_names_match_benchmark_json():
    spec = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert spec == {name: unit for name, (unit, _) in layers.METRICS.items()}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_is_correct_and_deterministic(workload):
    """Every workload passes its oracle at tiny N, prints exactly the
    metrics BENCHMARK.json names, and digests identically traced or not."""
    spec = _spec()
    digests = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, lines, stderr = _run_cli(workload, trace)
        assert code == 0, stderr
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[section]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == expected
        digests.append(json.loads(lines[-2])["context"]["digest"])
    assert digests[0] == digests[1]


def test_sources_missing_exits_nonzero_without_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            shutil.copy(os.path.join(BENCH, name), bare / "perfbench" / name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-4k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _small_run(tmp_path, name="paper-4k", users=SMOKE_USERS):
    run = bench.Run(WORKLOADS[name].with_users(users), 3, str(tmp_path))
    run.setup()
    return run


def test_oracle_rejects_a_desynced_member(tmp_path):
    run = _small_run(tmp_path)
    try:
        run.measure(0)
        run.check()
        # A member that missed one rekey keeps its old path keys.
        member = sorted(run.daemon.fleet.members.items())[0][1]
        stale = (member.user_id, dict(member.path_keys))
        run.step()
        member.user_id, member.path_keys = stale
        assert member.group_key != run.daemon.server.group_key
        with pytest.raises(ServiceError):
            run.check()
    finally:
        run.close()


def test_digest_depends_on_the_seed_alone(tmp_path):
    digests = []
    for seed in (3, 3, 4):
        run = bench.Run(
            WORKLOADS["paper-4k"].with_users(SMOKE_USERS), seed, str(tmp_path)
        )
        try:
            run.setup()
            run.measure(0)
        finally:
            run.close()
        digests.append(run.digest())
    assert digests[0] == digests[1] != digests[2]
    run.episode_lines[1][-1] = "something else"
    assert run.digest() != digests[2]


def test_self_times_and_other_add_up_to_the_interval(tmp_path):
    recorder = SpanRecorder()
    probes = Probes(recorder, bench.TimedBackend)
    run = _small_run(tmp_path)
    try:
        run.measure(0, trace=True, recorder=recorder, probes=probes)
    finally:
        run.close()
    assert not probes.installed
    cols = recorder.columns()
    # children run inside their parent, so no self time is negative
    assert cols["self"].min() > -1e-6
    rows = layers.interval_rows(recorder, run.samples)
    assert rows
    for row in rows:
        total = sum(row["self_ms"].values()) + row["other_ms"]
        assert total == pytest.approx(row["wall_ms"], rel=1e-9)
        assert 0 <= row["other_ms"] < row["wall_ms"]
        assert row["ms"]["service.interval"] <= row["wall_ms"]
        assert row["calls"]["service.interval"] == 1
    metrics = layers.per_layer(recorder, run.samples)
    assert set(metrics) == set(layers.METRICS)
    assert metrics["keytree.marking.encryptions"][0] > 0
    assert metrics["crypto.decrypt.calls"][0] > 0
    assert metrics["fastpath.absorb.decrypts_per_call"][0] > 0
    # collector pauses are charged to the traced interval they fell in
    assert set(recorder.gc_ms) <= {s.seq for s in run.samples if s.traced}


def test_probes_restore_every_attribute(tmp_path):
    from repro.fec.rse import RSECoder
    from repro.keytree import persistence
    from repro.service.daemon import RekeyDaemon

    before = (
        RekeyDaemon.run_interval,
        persistence.save_server,
        "parity" in vars(RSECoder),
    )
    probes = Probes(SpanRecorder(), bench.TimedBackend)
    probes.install()
    assert RekeyDaemon.run_interval is not before[0]
    probes.remove()
    after = (
        RekeyDaemon.run_interval,
        persistence.save_server,
        "parity" in vars(RSECoder),
    )
    assert after == before


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, percentile, beyond = bench.tail(list(range(100)))
    assert (value, beyond) == (89, 10)
    assert percentile == pytest.approx(90.0)
    # too few samples for ten beyond anything above the median
    assert bench.tail(list(range(9))) == (4, pytest.approx(500 / 9), 4)
    assert bench.tail([3.0, 1.0, 2.0, 4.0]) == (2.0, 50.0, 2)


def test_end_to_end_times_are_scaled_to_the_reference_probe():
    """On a host that runs the probe in twice the reference time, CPU
    time counts half; waits count as measured."""
    slow = 2 * bench.REFERENCE_PROBE_S
    run = bench.Run(WORKLOADS["paper-4k"], 1, "unused")
    run.setup_s = [
        bench.SetupSample(0.4, 0.4, slow),
        bench.SetupSample(0.6, 0.6, slow),
    ]
    run.samples = [
        bench.IntervalSample(
            interval=i, seq=i, record=None, traced=False, requests=2,
            rejected=0, submit_s=2e-5, interval_s=0.2,
            latencies=[1e-5, 1e-5], deliver_s=0.15, probe_s=slow, packets=9,
            # the submits wait half their time (an fsync); the interval
            # waits 0.1 s, all of it in the delivery
            submit_cpu_s=1e-5, interval_cpu_s=0.1, deliver_cpu_s=0.05,
        )
        for i in range(3)
    ]
    metrics = {name: value for name, (value, _) in run.end_to_end().items()}
    assert metrics["setup_s"] == pytest.approx(0.25)
    assert metrics["submit_us_p50"] == pytest.approx(7.5)
    assert metrics["interval_ms_p50"] == pytest.approx(150.0)
    assert metrics["server_ms_p50"] == pytest.approx(25.0)
    busy = 3 * (2 * 7.5e-6 + 0.15)
    assert metrics["requests_per_s"] == pytest.approx(6 / busy)
    assert metrics["rekey_packets_per_interval"] == 9
    wall = run.medians(scaled=False)
    assert wall["interval_ms_p50"] == pytest.approx(200.0)
    assert wall["setup_s"] == pytest.approx(0.5)


def test_cpu_time_never_counts_for_more_than_the_wall_time():
    assert bench.at_reference(1.0, 1.2, bench.REFERENCE_PROBE_S) == 1.0
    assert bench.at_reference(1.0, 0.0, 4 * bench.REFERENCE_PROBE_S) == 1.0
