"""JSONL campaign result store — crash-consistent by construction.

One line per completed job record, appended as jobs finish so a killed
campaign leaves a valid prefix behind — that prefix is exactly what
``--resume`` picks up.  The file is a :class:`repro.durable.SealedLog`:
appends are locked, flushed and fsynced, and every line carries a
``_crc32`` seal, so a torn tail from a SIGKILL *and* a bit-flipped line
from a bad disk are both detected on load.  Damaged lines are
quarantined to ``campaign.jsonl.quarantine`` with a warning — never
silently dropped, and never allowed to raise: every intact record after
a damaged one is still recovered.

The store is append-only for the whole life of a campaign directory: a
fresh (non-resume) run starts it empty, a resumed run appends after the
prior prefix (the first append cuts a killed writer's torn tail), and
nothing ever reorders it, so records stay in completion order.  That is
what makes the store safe to *tail while a writer appends*:
:meth:`ResultStore.tail` consumes only newline-terminated lines, and an
offset it returned stays valid for good, so a reader polling a live
campaign (the ``repro.serve`` result stream and results pager) never
misreads an append in flight as damage and never misses a record.

The sorted, deterministic artifact is the separate ``aggregate.json``
(no wall-clock, no attempt counts, sorted by job id), which is the
thing asserted byte-identical across worker counts — and across
crash/resume cycles (see docs/checkpoint.md).
"""

from __future__ import annotations

import os
import warnings
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .. import durable
# the line format lives in repro.durable; re-exported for existing callers
from ..durable import seal_record, unseal_record  # noqa: F401

STORE_NAME = "campaign.jsonl"
AGGREGATE_NAME = "aggregate.json"

#: damaged lines are preserved here, one per line, for post-mortems
QUARANTINE_SUFFIX = ".quarantine"


class ResultStore:
    """Append-only JSONL record log of one campaign directory."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, STORE_NAME)
        self.aggregate_path = os.path.join(directory, AGGREGATE_NAME)
        self.quarantine_path = self.path + QUARANTINE_SUFFIX
        self.log = durable.SealedLog(self.path)

    def lock(self):
        """Advisory inter-process lock on the store (``flock``).

        Held around every :meth:`append`, so two writer *processes* (the
        multi-node cluster's whole premise) can never interleave a torn
        line.  Callers may also take it explicitly to make a
        read-then-append sequence atomic against other writers — it is
        reentrant-unsafe, so never nest it.
        """
        return durable.lock(self.log.lock_path)

    def append(self, record: Dict,
               fence: Optional[Callable[[], None]] = None) -> None:
        """Durably append one checksummed record line.

        The line is fsynced before returning, so a record the caller
        believes is stored survives an immediate process kill; the worst
        a crash can leave is one torn final line, which :meth:`load`
        skips and the next append cuts.

        ``fence`` is the stale-claim guard for multi-node execution: a
        callable invoked *inside* the store lock, before any byte is
        written.  If it raises (``repro.errors.StaleLeaseError`` by
        convention), nothing is appended — which is how a revived node
        that lost its lease while paused is prevented from
        double-committing work that has since migrated to another node.
        """
        self.log.append(record, fence)

    def load(self) -> List[Dict]:
        """Read back every intact record, quarantining damaged lines.

        A corrupt *complete* line (newline-terminated but failing its CRC
        or JSON parse) is quarantined: warn, copy the raw line to the
        quarantine file unless it already holds that line, keep scanning
        — records after the damage are not lost, and repeated loads of
        one store do not grow the quarantine file.  An *unterminated*
        final fragment is either an append in flight on a live writer or
        a torn tail from a kill mid-append: it is skipped with a
        warning, never quarantined, and left in the file — the writer
        finishes it, or the next append cuts it.
        """
        records, damaged, _, torn = self.log.read()
        if torn:
            warnings.warn(
                f"result store {self.path}: ignoring an unterminated "
                f"partial tail line ({torn} bytes) — either an "
                f"append in flight or a torn tail from a kill",
                RuntimeWarning, stacklevel=2)
        if damaged:
            try:
                with open(self.quarantine_path, encoding="utf-8") as handle:
                    preserved = set(handle.read().split("\n"))
            except FileNotFoundError:
                preserved = set()
        for line, reason in damaged:
            warnings.warn(
                f"result store {self.path}: skipping damaged record "
                f"({reason}); preserved in {self.quarantine_path}",
                RuntimeWarning, stacklevel=2)
            if line not in preserved:
                preserved.add(line)
                with open(self.quarantine_path, "a",
                          encoding="utf-8") as handle:
                    handle.write(line + "\n")
        return records

    def tail(self, offset: int = 0) -> Tuple[List[Dict], int]:
        """Incrementally read records appended at or after byte ``offset``.

        The concurrent-tailer API: safe to call while a writer is
        appending, and the returned offset stays valid for good; see
        :meth:`repro.durable.SealedLog.read` for the partial-line and
        record-boundary rules.  Damaged complete
        lines are skipped with a warning but never quarantined: a tailer
        is a read-only observer and must not race the writer (or other
        tailers) for the quarantine file.

        Returns ``(records, next_offset)``.
        """
        records, damaged, next_offset, _ = self.log.read(offset)
        for _line, reason in damaged:
            warnings.warn(
                f"result store {self.path}: tail skipped a damaged "
                f"record ({reason})", RuntimeWarning, stacklevel=2)
        return records, next_offset

    def rewrite(self, records: Iterable[Dict]) -> None:
        """Atomically replace the log with ``records``.

        Public API only: no campaign path calls it, since the store of
        a campaign directory is append-only (see the module docstring).
        """
        self.log.rewrite(records)

    def clear(self) -> None:
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass

    def write_aggregate(self, records: Iterable[Dict],
                        quarantined: Iterable[Dict]) -> str:
        """Write the deterministic aggregate artifact.

        Only content-derived fields go in: job spec, digest, and result
        payload for completed jobs, plus the ids of quarantined jobs.
        Timing and attempt metadata stay in the JSONL log — they vary
        between runs and would break the byte-identity guarantee.
        """
        body = {
            "jobs": [
                {
                    "job_id": record["job_id"],
                    "digest": record["digest"],
                    "job": record["job"],
                    "payload": record["payload"],
                }
                for record in sorted(records, key=lambda r: r["job_id"])
            ],
            "quarantined": sorted(
                record["job_id"] for record in quarantined),
        }
        durable.atomic_write(self.aggregate_path,
                             durable.canonical_json(body))
        return self.aggregate_path
