"""In-memory span recorder and the probes that feed it.

The traced run wraps the *public* entry points of each module (the
table in :func:`_probe_table`) so that every call becomes a span: name, start, end,
process CPU time at both ends, parent span and interval id.  Nothing in
the program is edited; :meth:`Probes.install` swaps the class or module
attribute for a timing wrapper and :meth:`Probes.remove` puts the
original back.

Spans live in flat ``array`` columns (about 60 bytes each) and are only
aggregated, or written out, when the run ends.  A span's *self time* is
its duration minus the durations of its direct children.

Threads: the thread that installs the probes is the *root* thread (the
daemon's).  A span opened on another thread (the wire plane's event
loop) with nothing open on its own thread is parented to the root
thread's innermost open span, since the root thread is then blocked
waiting for that work; if the root thread has nothing open either the
span is *detached* and left out of the interval's time ledger.
"""

from __future__ import annotations

import gc
import os
import threading
from array import array
from time import perf_counter, process_time

#: parent column values that are not span indices
NO_PARENT = -1
DETACHED = -2


class SpanRecorder:
    """Columns of spans, plus GC pause time per interval."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.interval = array("l")
        self.start = array("d")
        self.end = array("d")
        self.cpu_start = array("d")
        self.cpu_end = array("d")
        #: span index -> the probe's measured value (bytes, counts)
        self.value = {}
        #: interval id -> milliseconds spent in the cyclic GC
        self.gc_ms = {}
        #: interval the next spans belong to (set by the workload loop)
        self.interval_id = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack = None
        self._gc_started = None

    def name_id(self, name):
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def bind_root_thread(self):
        self._root_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name_id):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is self._root_stack:
            parent = NO_PARENT
        elif self._root_stack:
            parent = self._root_stack[-1]
        else:
            parent = DETACHED
        with self._lock:
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(parent)
            self.interval.append(self.interval_id)
            self.end.append(0.0)
            self.cpu_end.append(0.0)
            self.cpu_start.append(process_time())
            self.start.append(perf_counter())
        stack.append(index)
        return index

    def close(self, index):
        end = perf_counter()
        self.cpu_end[index] = process_time()
        self.end[index] = end
        self._stack().pop()

    # -- garbage collector pauses -------------------------------------------

    def on_gc(self, phase, info):
        if phase == "start":
            self._gc_started = perf_counter()
        elif self._gc_started is not None:
            elapsed = (perf_counter() - self._gc_started) * 1e3
            self._gc_started = None
            key = self.interval_id
            self.gc_ms[key] = self.gc_ms.get(key, 0.0) + elapsed

    # -- analysis -----------------------------------------------------------

    def columns(self):
        """The span table as numpy arrays (seconds), plus derived
        ``self`` time, ``outer`` (no ancestor of the same name) and
        ``detached`` (no root-thread ancestor) columns."""
        import numpy as np

        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start)
        end = np.array(self.end)
        duration = end - start
        children = np.zeros(len(name))
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        outer = np.ones(len(name), dtype=bool)
        detached = parent == DETACHED
        ancestor = parent.copy()
        while True:
            live = ancestor >= 0
            if not live.any():
                break
            hop = ancestor[live]
            outer[live] &= name[hop] != name[live]
            ancestor[live] = parent[hop]
            detached |= ancestor == DETACHED
        value = np.zeros(len(name))
        for index, number in self.value.items():
            value[index] = number
        return {
            "name": name,
            "parent": parent,
            "interval": np.array(self.interval, dtype=np.int64),
            "start": start,
            "end": end,
            "duration": duration,
            "cpu": np.array(self.cpu_end) - np.array(self.cpu_start),
            "self": duration - children,
            "outer": outer,
            "detached": detached,
            "value": value,
        }

    def write(self, path):
        """Write every span to ``path`` as one ``.npz`` archive."""
        import numpy as np

        cols = self.columns()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{
                key: cols[key]
                for key in (
                    "name", "parent", "interval", "start", "end", "cpu",
                    "value",
                )
            },
        )


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _parity_bytes(args, result, before):
    if result and isinstance(result[0], (list, tuple)):
        return sum(len(row) for rows in result for row in rows)
    return sum(len(row) for row in result)


def _probe_table(timed_backend_class):
    """(owner, attribute, span name, before, value) for every probe.

    ``before(args)`` runs ahead of the call; ``value(args, result,
    before)`` after it, and its number is stored with the span.
    """
    from repro.core.server import GroupKeyServer
    from repro.crypto.cipher import XorStreamCipher
    from repro.crypto.keys import KeyFactory
    from repro.crypto.signer import SignatureScheme
    from repro.fastpath.absorb import FleetAbsorber
    from repro.fec.rse import RSECoder
    from repro.keytree import persistence
    from repro.keytree.marking import MarkingAlgorithm
    from repro.rekey.assignment import UserOrientedKeyAssignment
    from repro.rekey.message import RekeyMessageBuilder
    from repro.service.daemon import RekeyDaemon
    from repro.service.members import MemberFleet
    from repro.service.wal import WriteAheadLog
    from repro.sim.topology import MulticastTopology
    from repro.transport.session import RekeySession
    from repro.wire.delivery import WireDelivery

    return [
        (RekeyDaemon, "submit_join", "service.submit", None, None),
        (RekeyDaemon, "submit_leave", "service.submit", None, None),
        (
            WriteAheadLog,
            "append",
            "service.wal.append",
            lambda args: _file_size(args[0].path),
            lambda args, result, before: _file_size(args[0].path) - before,
        ),
        (MemberFleet, "register", "service.fleet", None, None),
        (MemberFleet, "evict", "service.fleet", None, None),
        (RekeyDaemon, "run_interval", "service.interval", None, None),
        (timed_backend_class, "deliver", "service.deliver", None, None),
        (GroupKeyServer, "request_join", "core.request", None, None),
        (GroupKeyServer, "request_leave", "core.request", None, None),
        (GroupKeyServer, "rekey", "core.rekey", None, None),
        (
            MarkingAlgorithm,
            "apply",
            "keytree.marking",
            None,
            lambda args, result, before: result.n_encryptions,
        ),
        (
            persistence,
            "save_server",
            "keytree.persist",
            None,
            lambda args, result, before: _file_size(args[1]),
        ),
        (KeyFactory, "new_key", "crypto.keygen", None, None),
        (XorStreamCipher, "encrypt_key", "crypto.encrypt", None, None),
        (SignatureScheme, "sign", "crypto.sign", None, None),
        (XorStreamCipher, "decrypt_key", "crypto.decrypt", None, None),
        (
            RekeyMessageBuilder,
            "build",
            "rekey.build",
            None,
            lambda args, result, before: result.n_enc_packets,
        ),
        (UserOrientedKeyAssignment, "assign", "rekey.assign", None, None),
        (RSECoder, "parity", "fec.encode", None, _parity_bytes),
        (RSECoder, "parity_blocks", "fec.encode", None, _parity_bytes),
        (RSECoder, "decode", "fec.decode", None, None),
        (
            RekeySession,
            "run",
            "transport.session",
            None,
            lambda args, result, before: sum(
                r.parity_packets_sent for r in result.rounds
            ),
        ),
        (MulticastTopology, "__init__", "sim.topology", None, None),
        (FleetAbsorber, "absorb", "fastpath.absorb", None, None),
        (FleetAbsorber, "relocate_fleet", "fastpath.relocate", None, None),
        (WireDelivery, "deliver", "wire.deliver", None, None),
    ]


def _wrap(recorder, fn, name_id, before, value):
    if before is None and value is None:

        def traced(*args, **kwargs):
            index = recorder.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(index)

    else:

        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            index = recorder.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if value is not None:
                recorder.value[index] = value(args, result, state)
            return result

    return traced


class Probes:
    """Installs the probe table around one recorder, and removes it."""

    def __init__(self, recorder, timed_backend_class):
        self.recorder = recorder
        self._table = _probe_table(timed_backend_class)
        self._saved = []

    @property
    def installed(self):
        return bool(self._saved)

    def install(self):
        recorder = self.recorder
        recorder.bind_root_thread()
        for owner, attr, name, before, value in self._table:
            own = attr in vars(owner)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, own, original))
            setattr(
                owner,
                attr,
                _wrap(recorder, original, recorder.name_id(name), before, value),
            )
        gc.callbacks.append(recorder.on_gc)

    def remove(self):
        gc.callbacks.remove(self.recorder.on_gc)
        for owner, attr, own, original in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved = []
