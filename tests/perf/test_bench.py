"""Unit tests for the perf library and the regression gate.

These never run the timed suite at measurement fidelity — they verify
the *machinery*: summary statistics, the pairwise-ratio speedup, the
document schema, and the compare_bench gate logic (loaded straight from
``benchmarks/perf/compare_bench.py``, which is deliberately
stdlib-only).
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from repro.perf import SCALE_PARAMS, SCALES, format_table, run_suite
from repro.perf.bench import _interleaved, _paired, _summary

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
COMPARE_PATH = os.path.abspath(
    os.path.join(REPO_ROOT, "benchmarks", "perf", "compare_bench.py")
)
PERF_DIR = os.path.dirname(COMPARE_PATH)


def load_compare_bench():
    spec = importlib.util.spec_from_file_location(
        "compare_bench", COMPARE_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSummaryStatistics:
    def test_summary_fields(self):
        summary = _summary([0.2, 0.1, 0.4, 0.3, 0.5])
        assert summary["reps"] == 5
        assert summary["median_s"] == 0.3
        assert summary["p90_s"] == 0.5
        assert summary["ops_per_s"] == pytest.approx(1 / 0.3)

    def test_paired_uses_pairwise_ratios(self):
        # One corrupted pair (load spike hit the fast side): the median
        # pairwise ratio shrugs it off where a ratio of medians drifts.
        fast = [1.0, 1.0, 9.0, 1.0, 1.0]
        slow = [5.0, 5.0, 9.0, 5.0, 5.0]
        entry = _paired(fast, slow, params={})
        assert entry["speedup"] == 5.0

    def test_paired_falls_back_to_median_ratio(self):
        entry = _paired([1.0, 1.0, 1.0], [4.0, 4.0], params={})
        assert entry["speedup"] == pytest.approx(4.0)

    def test_interleaved_alternates_and_divides_inner(self):
        calls = []
        fast, slow = _interleaved(
            lambda: calls.append("f"),
            lambda: calls.append("s"),
            pairs=2,
            warmup=1,
            inner=3,
        )
        # warmup: f s; pair 0: fff sss; pair 1 (swapped): sss fff
        assert "".join(calls) == "fs" + "fffsss" + "sssfff"
        assert len(fast) == len(slow) == 2


class TestSuiteDocument:
    def test_scales_are_declared(self):
        assert set(SCALES) == set(SCALE_PARAMS)
        for params in SCALE_PARAMS.values():
            assert params["n_users"] > 0

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            run_suite("enormous")

    def test_format_table_handles_both_entry_kinds(self):
        document = {
            "benchmarks": {
                "paired": {
                    "fast": {"median_s": 0.001, "p90_s": 0.002},
                    "speedup": 5.0,
                },
                "single": {
                    "fast": {"median_s": 0.003, "p90_s": 0.004},
                },
            }
        }
        lines = format_table(document)
        assert len(lines) == 3
        assert "5.00x" in lines[1]
        assert lines[2].rstrip().endswith("-")


def make_document(**speedups):
    return {
        "schema": 1,
        "meta": {"scale": "quick"},
        "benchmarks": {
            name: {
                "params": {},
                "fast": {"median_s": 0.001, "p90_s": 0.001},
                "reference": {"median_s": 0.001 * s, "p90_s": 0.001 * s},
                "speedup": s,
            }
            for name, s in speedups.items()
        },
    }


class TestCompareGate:
    def test_no_regression(self):
        compare_bench = load_compare_bench()
        results = list(
            compare_bench.compare(
                make_document(rse=5.0),
                make_document(rse=5.0),
                tolerance=0.20,
                absolute=False,
            )
        )
        assert all(ok for _, ok, _ in results)

    def test_regression_beyond_tolerance_fails(self):
        compare_bench = load_compare_bench()
        results = dict(
            (name, ok)
            for name, ok, _ in compare_bench.compare(
                make_document(rse=3.9, marking=4.5),
                make_document(rse=5.0, marking=4.5),
                tolerance=0.20,
                absolute=False,
            )
        )
        assert results["rse"] is False  # 3.9 < 5.0 * 0.8
        assert results["marking"] is True

    def test_regression_within_tolerance_passes(self):
        compare_bench = load_compare_bench()
        results = list(
            compare_bench.compare(
                make_document(rse=4.1),
                make_document(rse=5.0),
                tolerance=0.20,
                absolute=False,
            )
        )
        assert all(ok for _, ok, _ in results)

    def test_new_and_removed_benchmarks_never_fail(self):
        compare_bench = load_compare_bench()
        results = list(
            compare_bench.compare(
                make_document(added=1.0),
                make_document(removed=9.0),
                tolerance=0.20,
                absolute=False,
            )
        )
        assert all(ok for _, ok, _ in results)

    def test_absolute_gate_catches_walltime_regression(self):
        compare_bench = load_compare_bench()
        current = make_document(rse=5.0)
        current["benchmarks"]["rse"]["fast"]["median_s"] = 0.005
        results = [
            ok
            for _, ok, _ in compare_bench.compare(
                current,
                make_document(rse=5.0),
                tolerance=0.20,
                absolute=True,
            )
        ]
        assert False in results  # 5ms vs 1ms baseline

    def test_overhead_gate_passes_near_unity(self):
        compare_bench = load_compare_bench()
        results = dict(
            (name, ok)
            for name, ok, _ in compare_bench.compare(
                make_document(daemon_obs=1.1),
                make_document(),  # overhead gates need no baseline entry
                tolerance=0.25,
                absolute=False,
                overhead=["daemon_obs"],
            )
        )
        assert results["daemon_obs"] is True

    def test_overhead_gate_fails_above_ceiling(self):
        compare_bench = load_compare_bench()
        results = dict(
            (name, ok)
            for name, ok, _ in compare_bench.compare(
                make_document(daemon_obs=1.6),
                make_document(),
                tolerance=0.25,
                absolute=False,
                overhead=["daemon_obs"],
            )
        )
        assert results["daemon_obs"] is False

    def test_overhead_gate_is_a_ceiling_not_a_floor(self):
        # A high baseline ratio must not raise the ceiling: the gate is
        # absolute (1 + tolerance), independent of the baseline entry.
        compare_bench = load_compare_bench()
        results = dict(
            (name, ok)
            for name, ok, _ in compare_bench.compare(
                make_document(daemon_obs=1.4),
                make_document(daemon_obs=2.0),
                tolerance=0.25,
                absolute=False,
                overhead=["daemon_obs"],
            )
        )
        assert results["daemon_obs"] is False

    def test_overhead_gate_requires_paired_benchmark(self):
        compare_bench = load_compare_bench()
        document = make_document(daemon_obs=1.0)
        del document["benchmarks"]["daemon_obs"]["speedup"]
        results = dict(
            (name, ok)
            for name, ok, _ in compare_bench.compare(
                document,
                make_document(),
                tolerance=0.25,
                absolute=False,
                overhead=["daemon_obs"],
            )
        )
        assert results["daemon_obs"] is False

    def scaling_verdict(self, current, baseline):
        compare_bench = load_compare_bench()
        document = make_document(wire_fleet=current or 1.0)
        if current is None:
            del document["benchmarks"]["wire_fleet"]["speedup"]
        results = dict(
            (name, ok)
            for name, ok, _ in compare_bench.compare(
                document,
                make_document(wire_fleet=baseline),
                tolerance=0.25,
                absolute=False,
                scaling=["wire_fleet"],
            )
        )
        return results["wire_fleet"]

    def test_scaling_gate_passes_a_plane_that_scales_better(self):
        # The speedup floor would fail this (5.0 < 15.7 * 0.75); a lower
        # cost multiplier is an improvement, so the ceiling passes it.
        assert self.scaling_verdict(current=5.0, baseline=15.7) is True

    def test_scaling_gate_passes_within_tolerance(self):
        assert self.scaling_verdict(current=19.0, baseline=15.7) is True

    def test_scaling_gate_fails_a_worse_blowup(self):
        # The speedup floor would pass this; the ceiling is 15.7 * 1.25.
        assert self.scaling_verdict(current=20.0, baseline=15.7) is False

    def test_scaling_gate_requires_paired_benchmarks(self):
        assert self.scaling_verdict(current=None, baseline=15.7) is False

    def test_cli_overhead_flag(self, tmp_path):
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_document()))
        for ratio, expected in ((1.05, 0), (1.9, 1)):
            current.write_text(json.dumps(make_document(daemon_obs=ratio)))
            proc = subprocess.run(
                [
                    sys.executable, COMPARE_PATH, str(current),
                    str(baseline), "--overhead", "daemon_obs",
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == expected, proc.stdout

    def test_cli_scaling_flag(self, tmp_path):
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_document(wire_fleet=8.0)))
        for ratio, expected in ((4.0, 0), (10.5, 1)):
            current.write_text(json.dumps(make_document(wire_fleet=ratio)))
            proc = subprocess.run(
                [
                    sys.executable, COMPARE_PATH, str(current),
                    str(baseline), "--tolerance", "0.25",
                    "--scaling", "wire_fleet",
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == expected, proc.stdout

    def test_cli_exit_codes(self, tmp_path):
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_document(rse=5.0)))
        for speedup, expected in ((5.0, 0), (1.0, 1)):
            current.write_text(json.dumps(make_document(rse=speedup)))
            proc = subprocess.run(
                [sys.executable, COMPARE_PATH, str(current), str(baseline)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == expected, proc.stdout


class TestCommittedArtifacts:
    """The repo ships measured documents; keep them loadable and sane."""

    @pytest.mark.parametrize(
        "filename,scale",
        [
            ("BENCH_perf.json", "full"),
            ("baseline.json", "full"),
            ("baseline_quick.json", "quick"),
        ],
    )
    def test_committed_documents(self, filename, scale):
        with open(os.path.join(PERF_DIR, filename)) as handle:
            document = json.load(handle)
        assert document["schema"] == 1
        assert document["meta"]["scale"] == scale
        for name in (
            "rse_encode",
            "rse_decode",
            "marking",
            "assignment",
            "fleet_interval",
            "daemon_interval",
            "interval_fastpath",
        ):
            assert name in document["benchmarks"]

    def test_committed_full_run_meets_acceptance(self):
        """The acceptance numbers, pinned to the committed full-scale
        run: matrix encode at least 5x the scalar reference at k=10,
        h=10, 1 KB; the end-to-end daemon interval at N=4096 (numpy
        engine, incremental marking, matrix coder) at least 5x the
        pre-optimization pipeline; and the engine-only differential
        (interval_fastpath: numpy vs python with marking/coder held
        fixed) a clear win in its own right."""
        with open(os.path.join(PERF_DIR, "BENCH_perf.json")) as handle:
            document = json.load(handle)
        benchmarks = document["benchmarks"]
        assert benchmarks["rse_encode"]["params"] == {
            "k": 10,
            "h": 10,
            "packet_bytes": 1024,
        }
        assert benchmarks["rse_encode"]["speedup"] >= 5.0
        assert benchmarks["daemon_interval"]["params"]["n_users"] == 4096
        assert benchmarks["daemon_interval"]["speedup"] >= 5.0
        assert benchmarks["interval_fastpath"]["params"]["n_users"] == 4096
        assert benchmarks["interval_fastpath"]["speedup"] >= 2.0
