"""Per-layer metrics of a traced run.

Each traced interval gets one row: the span table from
:class:`tracer.SpanRecorder` summed per span name, plus the counts the
interval's ``DeliveryReport`` carries.  Unless its unit says otherwise,
a metric is the median over traced intervals of a per-interval sum in
milliseconds.

Three sums exist per span name: ``ms`` (wall time of the outermost
calls, so a layer that calls itself is not counted twice), ``self_ms``
(duration minus direct children) and ``calls`` (outermost calls).  On
every interval the self times of all spans plus ``other.ms`` add up to
the interval's wall time, submits included.
"""

from __future__ import annotations

import statistics

import numpy as np

#: metric name -> (unit, how): ("ms"|"self_ms"|"cpu_ms"|"wait_ms"|
#: "calls"|"value", span name) reads the span sums, ("report", key) a
#: delivery report count, ("row", key) a per-interval row field, and
#: ("run", key) a whole-run figure computed in :func:`per_layer`.
METRICS = {
    "service.submit.self_ms": ("ms", ("self_ms", "service.submit")),
    "service.wal.append.calls": ("count", ("calls", "service.wal.append")),
    "service.wal.append.ms": ("ms", ("ms", "service.wal.append")),
    "service.wal.append.bytes": ("bytes", ("value", "service.wal.append")),
    "service.fleet.ms": ("ms", ("ms", "service.fleet")),
    "service.interval.self_ms": ("ms", ("self_ms", "service.interval")),
    "service.deliver.ms": ("ms", ("ms", "service.deliver")),
    "service.deliver.cpu_ms": ("ms", ("cpu_ms", "service.deliver")),
    "service.failed_ops": ("count", ("run", "failed_ops")),
    "service.deadline_miss_ratio": ("ratio", ("run", "deadline_miss")),
    "core.request.calls": ("count", ("calls", "core.request")),
    "core.request.self_ms": ("ms", ("self_ms", "core.request")),
    "core.rekey.self_ms": ("ms", ("self_ms", "core.rekey")),
    "keytree.marking.ms": ("ms", ("ms", "keytree.marking")),
    "keytree.marking.encryptions": ("count", ("value", "keytree.marking")),
    "keytree.persist.ms": ("ms", ("ms", "keytree.persist")),
    "keytree.persist.bytes": ("bytes", ("value", "keytree.persist")),
    "crypto.keygen.calls": ("count", ("calls", "crypto.keygen")),
    "crypto.keygen.ms": ("ms", ("ms", "crypto.keygen")),
    "crypto.encrypt.calls": ("count", ("calls", "crypto.encrypt")),
    "crypto.encrypt.ms": ("ms", ("ms", "crypto.encrypt")),
    "crypto.sign.ms": ("ms", ("ms", "crypto.sign")),
    "crypto.decrypt.calls": ("count", ("calls", "crypto.decrypt")),
    "crypto.decrypt.ms": ("ms", ("ms", "crypto.decrypt")),
    "rekey.build.self_ms": ("ms", ("self_ms", "rekey.build")),
    "rekey.assign.ms": ("ms", ("ms", "rekey.assign")),
    "rekey.enc_packets": ("count", ("value", "rekey.build")),
    "fec.encode.calls": ("count", ("calls", "fec.encode")),
    "fec.encode.ms": ("ms", ("ms", "fec.encode")),
    "fec.encode.bytes": ("bytes", ("value", "fec.encode")),
    "fec.decode.calls": ("count", ("calls", "fec.decode")),
    "fec.decode.ms": ("ms", ("ms", "fec.decode")),
    "transport.session.self_ms": ("ms", ("self_ms", "transport.session")),
    "transport.rounds": ("count", ("report", "rounds")),
    "transport.first_round_nacks": ("count", ("report", "first_round_nacks")),
    "transport.parity_packets": ("count", ("value", "transport.session")),
    "transport.usr_packets": ("count", ("report", "usr_packets")),
    "sim.topology.ms": ("ms", ("ms", "sim.topology")),
    "fastpath.absorb.calls": ("count", ("calls", "fastpath.absorb")),
    "fastpath.absorb.self_ms": ("ms", ("self_ms", "fastpath.absorb")),
    "fastpath.absorb.decrypts_per_call": ("ratio", ("run", "decrypts")),
    "fastpath.relocate.ms": ("ms", ("ms", "fastpath.relocate")),
    "wire.deliver.ms": ("ms", ("ms", "wire.deliver")),
    "wire.deliver.cpu_ms": ("ms", ("cpu_ms", "wire.deliver")),
    "wire.deliver.wait_ms": ("ms", ("wait_ms", "wire.deliver")),
    "wire.datagrams_sent": ("count", ("report", "datagrams_sent")),
    "wire.data_dropped": ("count", ("report", "data_dropped")),
    "wire.feedback_retries": ("count", ("report", "feedback_retries")),
    "wire.unicast_retries": ("count", ("report", "unicast_retries")),
    "wire.retry_ratio": ("ratio", ("run", "retry_ratio")),
    "runtime.gc_ms": ("ms", ("row", "gc_ms")),
    "other.ms": ("ms", ("row", "other_ms")),
    "tracing.overhead_ms": ("ms", ("run", "overhead")),
    "tracing.spans": ("count", ("row", "spans")),
}

_RETRY_KEYS = ("announce_retries", "feedback_retries", "unicast_retries")


def _report_count(report, key):
    if report is None:
        return 0
    if key == "rounds":
        return report.multicast_rounds
    if key == "first_round_nacks":
        return report.first_round_nacks
    return report.detail.get(key, 0)


def interval_rows(recorder, samples):
    """One dict per traced interval: every span sum by kind and name,
    plus ``wall_ms``, ``gc_ms``, ``other_ms`` and ``spans``."""
    traced = [s for s in samples if s.traced]
    if not traced:
        return []
    cols = recorder.columns()
    names = recorder.names
    ids = np.array([s.seq for s in traced])
    width = len(names)
    slot = np.searchsorted(ids, cols["interval"])
    slot = np.minimum(slot, len(ids) - 1)
    mine = ids[slot] == cols["interval"]
    key = slot * width + cols["name"]

    def table(weights, mask):
        return np.bincount(
            key[mask], weights=weights[mask], minlength=len(ids) * width
        ).reshape(len(ids), width)

    outer = mine & cols["outer"]
    ledger = mine & ~cols["detached"]
    sums = {
        "ms": table(cols["duration"] * 1e3, outer),
        "cpu_ms": table(cols["cpu"] * 1e3, outer),
        "calls": table(np.ones(len(key)), outer),
        "value": table(cols["value"], outer),
        "self_ms": table(cols["self"] * 1e3, mine),
        "ledger_ms": table(cols["self"] * 1e3, ledger),
    }
    sums["wait_ms"] = sums["ms"] - sums["cpu_ms"]
    decrypt = _decrypts_in_absorb(cols, names)
    spans = np.bincount(slot[mine], minlength=len(ids))
    rows = []
    for row, sample in enumerate(traced):
        wall_ms = (sample.submit_s + sample.interval_s) * 1e3
        out = {
            kind: {
                name: float(sums[kind][row, index])
                for index, name in enumerate(names)
            }
            for kind in ("ms", "cpu_ms", "calls", "value", "self_ms",
                         "wait_ms")
        }
        out["report"] = sample.report
        out["wall_ms"] = wall_ms
        out["ledger_ms"] = float(sums["ledger_ms"][row].sum())
        out["other_ms"] = wall_ms - out["ledger_ms"]
        out["gc_ms"] = recorder.gc_ms.get(sample.seq, 0.0)
        out["spans"] = int(spans[row])
        out["decrypts_in_absorb"] = int(
            np.count_nonzero(decrypt & (cols["interval"] == sample.seq))
        )
        rows.append(out)
    return rows


def _decrypts_in_absorb(cols, names):
    if "crypto.decrypt" not in names or "fastpath.absorb" not in names:
        return np.zeros(len(cols["name"]), dtype=bool)
    decrypt = names.index("crypto.decrypt")
    absorb = names.index("fastpath.absorb")
    parent = cols["parent"]
    has_parent = parent >= 0
    under = np.zeros(len(parent), dtype=bool)
    under[has_parent] = cols["name"][parent[has_parent]] == absorb
    return (cols["name"] == decrypt) & under


def per_layer(recorder, samples):
    """Every metric of :data:`METRICS` as ``{name: (value, unit)}``."""
    rows = interval_rows(recorder, samples)
    traced_ms = [s.interval_s * 1e3 for s in samples if s.traced]
    untraced_ms = [s.interval_s * 1e3 for s in samples if not s.traced]
    absorb_calls = sum(r["calls"].get("fastpath.absorb", 0) for r in rows)
    decrypts = sum(r["decrypts_in_absorb"] for r in rows)
    datagrams = retries = 0
    for row in rows:
        datagrams += _report_count(row["report"], "datagrams_sent")
        retries += sum(
            _report_count(row["report"], key) for key in _RETRY_KEYS
        )
    run = {
        "failed_ops": sum(s.rejected for s in samples),
        "deadline_miss": sum(s.missed for s in samples)
        / max(1, sum(s.addressed for s in samples)),
        "decrypts": decrypts / absorb_calls if absorb_calls else 0.0,
        "retry_ratio": retries / datagrams if datagrams else 0.0,
        "overhead": (
            statistics.median(traced_ms) - statistics.median(untraced_ms)
            if traced_ms and untraced_ms
            else 0.0
        ),
    }
    out = {}
    for metric, (unit, (kind, key)) in METRICS.items():
        if kind == "run":
            value = run[key]
        elif kind == "report":
            value = _median(_report_count(r["report"], key) for r in rows)
        elif kind == "row":
            value = _median(r[key] for r in rows)
        else:
            value = _median(r[kind].get(key, 0.0) for r in rows)
        out[metric] = (float(value), unit)
    return out


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0
