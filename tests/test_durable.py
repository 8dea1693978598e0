"""One crash-safety suite over every sealed on-disk format.

Every format is built from :mod:`repro.durable`, and each one is driven
here through its own reader, so the damage policy under test is the one
the format documents (docs/architecture.md, "On-disk formats"):

* a single-bit flip anywhere in the sealed bytes is rejected (raised,
  treated as absent, quarantined or skipped) — or, when the flip does
  not change what the bytes mean (``1e-05`` vs ``1E-05``), the reader
  returns exactly what was written; it never returns anything else;
* any truncation of a single-record file is rejected;
* a JSONL log cut at any byte keeps every record before the cut and
  skips the torn tail without quarantining it; the next append cuts
  that tail and lands intact;
* two processes appending to the same log lose and tear no line.
"""

import os
import subprocess
import sys
import tempfile
import time
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from repro.cluster.coordinator import load_manifest, submit
from repro.cluster.lease import LEASE_DIR, LEASE_SUFFIX, Lease, LeaseManager
from repro.durable import read_record, write_record
from repro.errors import ClusterError, TraceStoreError
from repro.fleet.cache import QUARANTINE_SUFFIX, ResultCache
from repro.fleet.spec import CampaignJob
from repro.fleet.store import ResultStore
from repro.resilience.journal import AdmissionJournal
from repro.traces.summary import load_summary, write_summary

REJECTED = object()

scalars = (st.none() | st.booleans() | st.integers(-2**40, 2**40)
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.text(max_size=10))
bodies = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.recursive(scalars,
                 lambda children: st.lists(children, max_size=3)
                 | st.dictionaries(st.text(max_size=5), children,
                                   max_size=3),
                 max_leaves=8),
    min_size=1, max_size=4)
JOB = CampaignJob(name="cust-00", domain="engine", device="tc1797")


# -- single-record formats: write(directory, body) -> (path, expected),
#    read(path) -> the decoded value or REJECTED ----------------------------
def _write_lease(directory, body):
    os.makedirs(os.path.join(directory, LEASE_DIR))
    path = os.path.join(directory, LEASE_DIR, "batch-0000" + LEASE_SUFFIX)
    lease = Lease(resource="batch-0000", node=str(body), token=7,
                  claimed_at=1.5, expires_at=11.5e-5)
    write_record(path, lease.to_record())
    return path, lease


def _read_lease(path):
    manager = LeaseManager(os.path.dirname(os.path.dirname(path)), "node-b")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lease = manager.read("batch-0000")   # damaged -> treated as absent
    return REJECTED if lease is None else lease


def _write_fence(directory, body):
    path = os.path.join(directory, "fence.json")
    record = {"kind": "fence", "token": len(str(body)), "body": body}
    write_record(path, record)
    return path, record


def _read_fence(path):
    try:
        return read_record(path)
    except ValueError:
        return REJECTED


def _write_manifest(directory, body):
    path = submit(directory, [JOB], checkpoint_every=1000)
    return path, load_manifest(directory)


def _read_manifest(path):
    try:
        return load_manifest(os.path.dirname(path))
    except ClusterError:
        return REJECTED


def _write_cache(directory, body):
    return ResultCache(directory).store(JOB, body), body


def _read_cache(path):
    cache = ResultCache(os.path.dirname(path))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        payload = cache.lookup(JOB)
    if payload is None:
        # the cache's policy: a damaged entry is moved aside, never served
        assert os.path.exists(path + QUARANTINE_SUFFIX)
        return REJECTED
    return payload


def _write_checkpoint(directory, body):
    path = os.path.join(directory, "job.ckpt")
    save_checkpoint(path, body, {"cycle": 42})
    return path, (body, {"cycle": 42})


def _read_checkpoint(path):
    try:
        return load_checkpoint(path)
    except CheckpointError:
        return REJECTED


def _write_summary(directory, body):
    path = os.path.join(directory, "run.rtrace.summary.json")
    write_summary(path, body)
    return path, body


def _read_summary(path):
    try:
        return load_summary(path)
    except TraceStoreError:
        return REJECTED


SINGLE = {
    "lease": (_write_lease, _read_lease),
    "fence": (_write_fence, _read_fence),
    "manifest": (_write_manifest, _read_manifest),
    "cache-entry": (_write_cache, _read_cache),
    "checkpoint": (_write_checkpoint, _read_checkpoint),
    "trace-summary": (_write_summary, _read_summary),
}


def _rewrite(path, data):
    with open(path, "wb") as handle:
        handle.write(data)


@pytest.mark.parametrize("fmt", sorted(SINGLE))
@settings(max_examples=40, deadline=None)
@given(body=bodies, data=st.data())
def test_single_bit_flip_is_rejected(fmt, body, data):
    """Each of the eight bits of one byte, in turn: the high bit makes
    the byte invalid UTF-8, which readers must treat as damage too."""
    write, read = SINGLE[fmt]
    with tempfile.TemporaryDirectory() as directory:
        path, expected = write(directory, body)
        assert read(path) == expected          # the intact file loads
        with open(path, "rb") as handle:
            sealed = handle.read()
        position = data.draw(st.integers(0, len(sealed) - 1))
        for bit in range(8):
            flipped = bytearray(sealed)
            flipped[position] ^= 1 << bit
            _rewrite(path, bytes(flipped))
            outcome = read(path)
            assert outcome is REJECTED or outcome == expected
            if os.path.exists(path + QUARANTINE_SUFFIX):
                os.remove(path + QUARANTINE_SUFFIX)   # the next flip's own


@pytest.mark.parametrize("fmt", sorted(SINGLE))
@settings(max_examples=40, deadline=None)
@given(body=bodies, data=st.data())
def test_any_truncation_is_rejected(fmt, body, data):
    write, read = SINGLE[fmt]
    with tempfile.TemporaryDirectory() as directory:
        path, _ = write(directory, body)
        with open(path, "rb") as handle:
            sealed = handle.read()
        # the trailing newline terminates the document; any cut that
        # removes a byte of the document itself must be detected
        content = sealed.rstrip(b"\n")
        _rewrite(path, content[:data.draw(st.integers(0, len(content) - 1))])
        assert read(path) is REJECTED


# -- sealed JSONL logs: open(directory) -> (append, read) ---------------------
def _store(directory):
    store = ResultStore(directory)

    def read():
        """Damaged lines are quarantined; returns (records, damaged)."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = store.load()
        damaged = 0
        if os.path.exists(store.quarantine_path):
            with open(store.quarantine_path) as handle:
                damaged = len(handle.read().splitlines())
        return records, damaged
    return store.path, store.append, read


def _journal(directory):
    journal = AdmissionJournal(directory, name="cluster.jsonl")

    def read():
        """Damaged lines are skipped with a warning."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = journal.replay()
        damaged = sum("damaged" in str(w.message) for w in caught)
        return records, damaged

    def append(record):
        journal.append(record.pop("op"), **record)
    return journal.path, append, read


LOGS = {"result-store": _store, "journal": _journal}


def _records(bodies_):
    return [{"op": "state", "job_id": f"job-{i}", "body": body}
            for i, body in enumerate(bodies_)]


@pytest.mark.parametrize("fmt", sorted(LOGS))
@settings(max_examples=40, deadline=None)
@given(items=st.lists(bodies, min_size=3, max_size=3), data=st.data())
def test_log_line_bit_flip_is_contained(fmt, items, data):
    """A flip inside one line costs at most that line; its neighbours
    load intact, and the damage is reported the format's way."""
    with tempfile.TemporaryDirectory() as directory:
        path, append, read = LOGS[fmt](directory)
        records = _records(items)
        for record in records:
            append(dict(record))
        with open(path, "rb") as handle:
            sealed = handle.read()
        start = sealed.index(b"\n") + 1
        end = sealed.index(b"\n", start)      # the middle line's content
        position = data.draw(st.integers(start, end - 1))
        for bit in range(8):
            flipped = bytearray(sealed)
            flipped[position] ^= 1 << bit
            _rewrite(path, bytes(flipped))
            loaded, damaged = read()
            assert loaded[0] == records[0] and loaded[-1] == records[2]
            assert loaded == records or (len(loaded) == 2 and damaged >= 1)
            if os.path.exists(path + QUARANTINE_SUFFIX):
                os.remove(path + QUARANTINE_SUFFIX)   # the next flip's own


@pytest.mark.parametrize("fmt", sorted(LOGS))
@settings(max_examples=40, deadline=None)
@given(items=st.lists(bodies, min_size=1, max_size=4), extra=bodies,
       data=st.data())
def test_torn_log_tail_is_skipped_and_the_prefix_survives(fmt, items, extra,
                                                          data):
    """A kill mid-append leaves a torn tail: readers skip it, and the
    next append (a resumed or surviving writer) cuts it instead of
    merging its own line into it."""
    with tempfile.TemporaryDirectory() as directory:
        path, append, read = LOGS[fmt](directory)
        records = _records(items)
        for record in records:
            append(dict(record))
        with open(path, "rb") as handle:
            sealed = handle.read()
        keep = data.draw(st.integers(0, len(sealed)))
        _rewrite(path, sealed[:keep])
        prefix = records[:sealed[:keep].count(b"\n")]
        loaded, damaged = read()
        assert loaded == prefix
        assert damaged == 0                   # torn is not damaged
        new = {"op": "state", "job_id": "job-new", "body": extra}
        append(dict(new))
        loaded, damaged = read()
        assert loaded == prefix + [new]
        assert damaged == 0


# -- concurrent writers -------------------------------------------------------
APPENDER = r"""
import os, sys, time
from repro.fleet.store import ResultStore
from repro.resilience.journal import AdmissionJournal
kind, directory, who = sys.argv[1:4]
pad = who * 4000                  # each line spans several write buffers
open(os.path.join(directory, who + ".ready"), "w").close()
while not os.path.exists(os.path.join(directory, "go")):
    time.sleep(0.002)
if kind == "result-store":
    store = ResultStore(directory)
    for i in range(25):
        store.append({"job_id": f"{who}-{i:03d}", "status": "ok",
                      "pad": pad})
else:
    journal = AdmissionJournal(directory, name="cluster.jsonl")
    for i in range(25):
        journal.append("claim", node=who, resource=f"batch-{i:04d}",
                       pad=pad)
"""


@pytest.mark.parametrize("fmt", sorted(LOGS))
def test_concurrent_appends_lose_and_tear_no_line(fmt, tmp_path):
    directory = str(tmp_path)
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                       "src"))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    writers = ("alpha", "beta")
    procs = [subprocess.Popen([sys.executable, "-c", APPENDER, fmt,
                               directory, who], env=env)
             for who in writers]
    try:
        while not all(os.path.exists(os.path.join(directory, who + ".ready"))
                      for who in writers):
            assert all(proc.poll() is None for proc in procs)
            time.sleep(0.01)
        open(os.path.join(directory, "go"), "w").close()
        for proc in procs:
            assert proc.wait(timeout=120) == 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
    loaded, damaged = LOGS[fmt](directory)[2]()
    assert damaged == 0 and len(loaded) == 50
    keys = {(r.get("job_id") or r["node"], r.get("resource"))
            for r in loaded}
    assert len(keys) == 50
