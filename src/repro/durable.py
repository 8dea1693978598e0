"""Crash-safety primitives shared by every on-disk format.

The profiles this package gathers come from runs that cannot be
repeated identically, so whatever reaches the disk must survive a kill
at any instruction.  Every persistent artifact is built from the pieces
below — one canonical serialisation and CRC, one atomic write, one
sidecar lock, one sealed-record format and one sealed JSONL log; the
per-format table (writer, seal, damage policy) is in
``docs/architecture.md`` under "On-disk formats".
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

try:                                   # POSIX advisory file locking
    import fcntl
except ImportError:                    # pragma: no cover - non-POSIX host
    fcntl = None

#: per-record checksum field of the sealed line format
CRC_FIELD = "_crc32"

#: sidecar suffix of a :class:`SealedLog`'s inter-process lock
LOCK_SUFFIX = ".lock"

#: the mode a plain ``open(path, "w")`` would create (``mkstemp`` is 0600);
#: read once at import — the umask can only be read by setting it
_UMASK = os.umask(0o022)
os.umask(_UMASK)
FILE_MODE = 0o666 & ~_UMASK


def canonical_json(payload) -> str:
    """Canonical (sorted, whitespace-free) JSON used for hashing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def crc(payload) -> int:
    """CRC-32 over the canonical JSON of ``payload``."""
    return zlib.crc32(canonical_json(payload).encode("utf-8"))


def atomic_write(path: str, text: str) -> None:
    """tmp + fsync + rename: readers see the old file or the new one.

    The temp file lives in the target's directory (``os.replace`` is
    only atomic within one filesystem) and is removed if anything fails
    before the rename.  The result gets :data:`FILE_MODE`, like any file
    the package opens for writing.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               suffix=".tmp")
    try:
        os.chmod(tmp, FILE_MODE)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@contextmanager
def lock(path: str):
    """Exclusive advisory ``flock`` on the sidecar file ``path``.

    The lock lives in a sidecar, never in the guarded file itself, whose
    atomic rewrite would otherwise swap the inode out from under a
    waiting locker.  The kernel drops it when the holder dies, so a
    SIGKILLed process never wedges its peers.  Not reentrant: never nest
    two locks on the same path in one process.  A no-op where ``fcntl``
    is missing.
    """
    if fcntl is None:                  # pragma: no cover - non-POSIX host
        yield
        return
    with open(path, "a") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def seal_record(record: Dict) -> str:
    """Render one record line with its ``_crc32`` over the canonical rest."""
    body = {key: value for key, value in record.items() if key != CRC_FIELD}
    sealed = dict(body)
    sealed[CRC_FIELD] = crc(body)
    return json.dumps(sealed, sort_keys=True)


def _near_crc_field(key: str) -> bool:
    """A key one character away from ``_crc32``: a bit-flipped seal."""
    return len(key) == len(CRC_FIELD) and sum(
        a != b for a, b in zip(key, CRC_FIELD)) == 1


def unseal_record(line: str) -> Dict:
    """Parse and verify one record line; raises ``ValueError`` if damaged.

    A record without ``_crc32`` predates the checksums and loads
    unchanged — unless one of its keys is a near miss of the field name,
    which is what a bit flip in the seal itself looks like.
    """
    record = json.loads(line)          # may raise JSONDecodeError
    if not isinstance(record, dict):
        raise ValueError("record line is not a JSON object")
    if CRC_FIELD in record:
        stored = record.pop(CRC_FIELD)
        computed = crc(record)
        if computed != stored:
            raise ValueError(
                f"record failed its CRC check (stored {stored}, "
                f"computed {computed})")
    elif any(_near_crc_field(key) for key in record):
        raise ValueError("record has a damaged checksum field name")
    return record


def write_record(path: str, record: Dict) -> None:
    """Atomically store one sealed record as the whole file ``path``."""
    atomic_write(path, seal_record(record) + "\n")


def read_record(path: str) -> Dict:
    """Read back a :func:`write_record` file.

    Raises ``FileNotFoundError`` when it is missing and ``ValueError``
    when it is damaged; the caller decides what either means.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    return unseal_record(data.decode("utf-8", "replace").strip())


def _cut_torn_tail(handle) -> None:
    """Truncate ``handle``'s file after its last newline, if it has a tail."""
    end = handle.seek(0, os.SEEK_END)
    if end == 0:
        return
    handle.seek(end - 1)
    if handle.read(1) == b"\n":
        return
    handle.seek(0)                     # rare: only after a killed writer
    handle.truncate(handle.read().rfind(b"\n") + 1)


class SealedLog:
    """Append-only JSONL file of sealed records.

    Appends and rewrites run under the ``<path>.lock`` sidecar, so any
    number of writer processes serialize whole lines instead of
    interleaving bytes.  :meth:`read` reports damage but never acts on
    it: what a damaged line means (quarantine, warn, skip) is the
    caller's policy.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.lock_path = path + LOCK_SUFFIX

    def append(self, record: Dict,
               fence: Optional[Callable[[], None]] = None) -> None:
        """Durably append one sealed line (flushed and fsynced).

        ``fence`` runs inside the lock before any byte is written; if it
        raises, nothing is appended.

        An unterminated tail is cut back to the last newline first.
        Every append holds the lock, so such a tail cannot be an append
        in flight: it is what a killed writer left, and the new line
        would otherwise merge into it and be lost with it.
        """
        with lock(self.lock_path):
            if fence is not None:
                fence()
            with open(self.path, "a+b") as handle:
                _cut_torn_tail(handle)
                handle.write(seal_record(record).encode("utf-8") + b"\n")
                handle.flush()
                os.fsync(handle.fileno())

    def rewrite(self, records: Iterable[Dict]) -> None:
        """Atomically replace the whole log with ``records``."""
        text = "".join(seal_record(record) + "\n" for record in records)
        with lock(self.lock_path):
            atomic_write(self.path, text)

    def read(self, offset: int = 0
             ) -> Tuple[List[Dict], List[Tuple[str, str]], int, int]:
        """Read the sealed lines at or after byte ``offset``.

        Returns ``(records, damaged, next_offset, torn)``: the intact
        records, the damaged complete lines as ``(line, reason)`` pairs,
        the offset to resume from, and the byte length of an
        unterminated last line.

        Only newline-terminated lines are consumed.  An unterminated
        last line is an append in flight, which its writer will finish,
        or a torn tail from a kill, which the next :meth:`append` cuts;
        either way it is left alone and only its length is reported.
        Appends never move a consumed line, so an offset this method
        returned stays valid.  An ``offset`` that does not sit on a
        record boundary (the byte before it is not a newline, or the
        file is shorter: a caller's guess, or a log that was cleared or
        compacted by :meth:`rewrite`) reads nothing and is returned
        unchanged, so a tailer never misreads mid-line bytes as damage.
        """
        offset = max(offset, 0)
        try:
            with open(self.path, "rb") as handle:
                if offset:
                    handle.seek(offset - 1)
                    if handle.read(1) != b"\n":
                        return [], [], offset, 0
                chunk = handle.read()
        except FileNotFoundError:
            return [], [], offset, 0
        complete, sep, torn = chunk.rpartition(b"\n")
        records: List[Dict] = []
        damaged: List[Tuple[str, str]] = []
        if sep:
            for raw in complete.split(b"\n"):
                line = raw.decode("utf-8", "replace")
                if not line.strip():
                    continue
                try:
                    records.append(unseal_record(line))
                except ValueError as exc:
                    damaged.append((line, str(exc)))
        return records, damaged, offset + len(complete) + len(sep), len(torn)
