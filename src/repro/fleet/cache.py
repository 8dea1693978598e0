"""Content-addressed result cache for profiling campaigns.

Each entry is one file, ``<digest>.json``, where the digest is the job's
content hash (spec + package version + payload schema — see
:func:`repro.fleet.spec.job_digest`).  Re-running a campaign therefore
only executes jobs whose spec, device config, or simulator version
actually changed; everything else is a hit.

The cache is safe to share between *processes and nodes* (it is the
multi-node fleet's dedupe layer):

* writes go through :func:`repro.durable.atomic_write` — concurrent
  writers of the same digest race harmlessly (last rename wins, both
  wrote the same bytes) and a killed writer can never leave a
  half-written entry under the final name;
* every entry carries a CRC-32 over the canonical serialisation of its
  payload, re-verified on :meth:`lookup` together with the entry's
  digest field, so a bit-flipped or foreign entry is **quarantined**
  (moved to ``<digest>.json.quarantine`` for post-mortems) and reported
  as a miss instead of being served as science.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Dict, Optional

from ..durable import atomic_write, canonical_json, crc
from ..obs import runtime as _obs
from .spec import CampaignJob

#: a damaged entry is preserved under this suffix, never served again
QUARANTINE_SUFFIX = ".quarantine"

#: per-entry checksum over the canonical payload serialisation
PAYLOAD_CRC_FIELD = "payload_crc32"


#: CRC-32 over the canonical JSON of a job payload
payload_crc = crc


class ResultCache:
    """Directory of content-addressed job payloads."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, f"{digest}.json")

    def _quarantine(self, path: str, reason: str) -> None:
        """Move a bad entry aside: a miss now, evidence later."""
        warnings.warn(
            f"result cache {path}: quarantining damaged entry ({reason})",
            RuntimeWarning, stacklevel=3)
        try:
            os.replace(path, path + QUARANTINE_SUFFIX)
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass

    def lookup(self, job: CampaignJob) -> Optional[Dict]:
        """Return the cached payload for ``job``, or None on miss.

        The entry is re-verified before it is served: its recorded
        digest must match the job's (a foreign entry copied into the
        wrong name is not a hit) and its payload must reproduce the
        stored CRC (a torn or bit-flipped entry is not a hit).  Either
        mismatch quarantines the entry and reports a miss — the job
        simply re-executes, which is always safe.
        """
        path = self._path(job.digest)
        try:
            with open(path, "r") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self._note("miss", job)
            return None
        except (ValueError, OSError):
            # unreadable entry: quarantine it and treat as a miss
            self._quarantine(path, "not parseable as JSON")
            self._note("miss", job)
            return None
        payload = entry.get("payload") if isinstance(entry, dict) else None
        if not isinstance(payload, dict):
            self._quarantine(path, "entry has no payload object")
            self._note("miss", job)
            return None
        if entry.get("digest") != job.digest:
            self._quarantine(
                path, f"digest mismatch: entry claims "
                      f"{str(entry.get('digest'))[:12]}..., "
                      f"job is {job.digest[:12]}...")
            self._note("miss", job)
            return None
        stored_crc = entry.get(PAYLOAD_CRC_FIELD)
        if stored_crc is not None and stored_crc != crc(payload):
            self._quarantine(path, "payload failed its CRC check")
            self._note("miss", job)
            return None
        self._note("hit", job)
        return payload

    def _note(self, result: str, job: CampaignJob) -> None:
        if result == "hit":
            self.hits += 1
        else:
            self.misses += 1
        tel = _obs._active
        if tel is not None:
            tel.cache_lookup(result, job.digest)

    def store(self, job: CampaignJob, payload: Dict) -> str:
        """Persist a job payload atomically; returns the entry path.

        Concurrent multi-node writers of the same digest each land a
        complete entry (payloads are deterministic, so whichever rename
        wins the bytes are the same).  The fsync matters on the shared
        directory: a node may crash right after another node's lookup
        decision depended on this entry existing.
        """
        path = self._path(job.digest)
        atomic_write(path, canonical_json({
            "digest": job.digest,
            "job": job.to_dict(),
            "payload": payload,
            PAYLOAD_CRC_FIELD: crc(payload),
        }))
        return path

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.root)
                   if name.endswith(".json"))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
