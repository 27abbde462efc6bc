"""Run one key-server workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-4k --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics, at the reference speed of
``bench.REFERENCE_PROBE_S``; ``--trace 1`` the per-layer metrics of a
traced run (every other interval of an episode runs with the probes of
``tracer.py`` installed), in wall time.  The process runs on one CPU.
The last line of standard output is the result object; the line before
it holds the run context.  The exit code is 0 for a correct run, 1 when
the correctness oracle or the program failed, and 2 when the program's
sources are not there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SOURCES = os.path.join(CHECKOUT, "src")

#: statfs(2) magic numbers of the filesystems a state dir may sit on
_FS_MAGIC = {
    0xEF53: "ext4",
    0x01021994: "tmpfs",
    0x794C7630: "overlayfs",
    0x58465342: "xfs",
    0x9123683E: "btrfs",
    0x2FC12FC1: "zfs",
    0x6969: "nfs",
    0x65735546: "fuse",
}


def filesystem_type(path):
    """The type of the filesystem holding ``path``, from statfs(2)."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    statfs = libc.statfs
    statfs.argtypes = [ctypes.c_char_p, ctypes.c_void_p]
    statfs.restype = ctypes.c_int
    buffer = ctypes.create_string_buffer(256)  # > sizeof(struct statfs)
    if statfs(os.fsencode(path), buffer) != 0:
        return "unknown"
    magic = ctypes.c_ulong.from_buffer(buffer).value & 0xFFFFFFFF
    return _FS_MAGIC.get(magic, hex(magic))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--users",
        type=int,
        default=None,
        help="override the workload's group size (smoke tests)",
    )
    return parser.parse_args(argv)


def host_probe_summary(run):
    """The host probe around the run's untraced intervals (ms)."""
    import statistics

    probes = [s.probe_s * 1e3 for s in run.samples if not s.traced]
    return {
        "min": round(min(probes), 4),
        "median": round(statistics.median(probes), 4),
        "max": round(max(probes), 4),
    }


def pin_to_one_cpu():
    """Run every thread of this process on one CPU, the highest this
    process may use, and return it (None if the host refused) with how
    many it could use.

    The host probe then measures the CPU the program runs on; the wire
    workload's event-loop thread no longer hands the interpreter lock
    across CPUs whose speeds differ from second to second."""
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return None, len(allowed)
    return cpu, len(allowed)


def context(run, args, state_fs, cpu, nproc):
    import numpy

    import bench

    workload = run.workload
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "n_users": workload.n_users,
        "alpha": workload.alpha,
        "nproc": nproc,
        "pinned_cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "state_dir_fs": state_fs if workload.durable else None,
        "network": "loopback" if workload.backend == "wire" else None,
        "setup_s": [round(s.seconds, 6) for s in run.setup_s],
        "episodes": len(run.setup_s),
        "intervals": len(run.samples),
        "reference_probe_ms": bench.REFERENCE_PROBE_S * 1e3,
        "host_probe_ms": host_probe_summary(run),
        "wall": run.medians(scaled=False),
        "traced_intervals": sum(s.traced for s in run.samples),
        "tails": run.tails(),
        "digest": run.digest(),
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCES, "repro")):
        print(
            "perfbench: no program sources at %s; run from a full checkout"
            % SOURCES,
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SOURCES)
    cpu, nproc = pin_to_one_cpu()

    import bench
    import layers
    from tracer import Probes, SpanRecorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            "perfbench: unknown workload %r (known: %s)"
            % (args.workload, ", ".join(WORKLOADS)),
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    if args.users is not None:
        workload = workload.with_users(args.users)

    state_root = bench.state_root(CHECKOUT)
    state_fs = filesystem_type(state_root)
    run = bench.Run(workload, args.seed, state_root)
    recorder = probes = None
    if args.trace:
        recorder = SpanRecorder()
        probes = Probes(recorder, bench.TimedBackend)
    correct = True
    metrics = {}
    try:
        run.setup()
        run.measure(
            args.seconds, trace=bool(args.trace), recorder=recorder,
            probes=probes,
        )
        if args.trace:
            metrics = layers.per_layer(recorder, run.samples)
        else:
            metrics = run.end_to_end()
        facts = context(run, args, state_fs, cpu, nproc)
        print(json.dumps({"context": facts}))
    except Exception:  # any failure marks the run failed, with its trace
        traceback.print_exc()
        correct = False
        metrics = {}
    finally:
        run.close()
        shutil.rmtree(state_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(state_root))
        except OSError:
            pass
    if correct and args.trace:
        out_dir = os.path.join(CHECKOUT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        recorder.write(
            os.path.join(
                out_dir, "spans-%s-seed%d.npz" % (workload.name, args.seed)
            )
        )
    rejected = sum(s.rejected for s in run.samples)
    attempted = sum(s.requests for s in run.samples) + len(run.samples)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, attempted),
                "failed": rejected + (0 if correct else 1),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
