"""ProfileStore: the persistent, fleet-shared profile-index store.

Today a job's profile index dies with its process (checkpoints aside).
The store gives indexes a life beyond the run: a directory of
append-only JSON segments, one sub-directory per :func:`job digest
<repro.serve.keys.job_digest>`, versioned by the simulator/cost-model
:func:`schema <repro.serve.keys.store_schema_version>`.

Design rules, in priority order:

* **crash safety** -- a segment becomes visible only through an atomic
  ``os.replace``; a writer killed mid-write leaves a ``*.tmp`` file the
  loader never reads.  There is no read-modify-write anywhere: writers
  only ever *add* segments, so no fsync ordering between writers
  matters.
* **self-healing integrity** -- every segment is stamped with a sha256
  checksum at :meth:`put` and verified on every read.  A torn, trailing
  -garbage, or bit-flipped segment is **quarantined** (moved to
  ``quarantine/`` under the store root, counted in
  ``serve.store.corrupt``) rather than crashed on, trusted, or silently
  dropped -- Daydream's trust-the-trace rule applied to the knowledge
  base: never serve a measurement whose integrity cannot be verified,
  and never lose the evidence either.  ``load()`` always succeeds on
  the surviving segments.
* **first-writer-wins determinism** -- loading a job merges its
  segments in sorted filename order (names embed a nanosecond
  timestamp, then pid, then a per-writer sequence number) through
  :meth:`repro.core.profile_index.ProfileIndex.merge`, which dedupes
  repeated keys and keeps quarantine sentinels sticky.  Concurrent
  writers therefore race only on *who lands the earlier filename*;
  every subsequent load of the same segment set produces the same
  index, byte for byte.
* **eviction on version change** -- every segment records the schema it
  was measured under.  Opening a store whose ``META.json`` carries a
  different schema rewrites META and drops the stale segments; a stale
  segment that survives (e.g. written concurrently by an old-schema
  process) is filtered at load time, so version skew can degrade reuse
  but never correctness.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass

from ..core.profile_index import ProfileIndex, untuple
from ..obs.observer import NULL_OBSERVER
from .keys import store_schema_version

#: layout version of the store directory itself (META + segments);
#: version 2 added the per-segment sha256 integrity stamp
STORE_VERSION = 2

_META = "META.json"
_INDEX_DIR = "index"
_QUARANTINE_DIR = "quarantine"

#: segment classification outcomes (see :meth:`ProfileStore._classify`)
SEG_OK = "ok"
SEG_CORRUPT = "corrupt"      # torn, bit-flipped, or checksum-less v2
SEG_STALE = "stale"          # schema mismatch (old simulator semantics)
SEG_LEGACY = "legacy"        # pre-checksum layout (store version < 2)


def segment_checksum(body: dict) -> str:
    """sha256 over the canonical JSON of a segment's payload body.

    The body is the ``{"version", "schema", "entries"}`` triple -- the
    checksum therefore covers every byte that affects what ``load()``
    would merge, so flipping *any* of them is detected."""
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class SegmentInfo:
    """Outcome of one :meth:`ProfileStore.put`."""

    path: str
    entries: int


class ProfileStore:
    """Append-only on-disk store of profile indexes, keyed by job digest."""

    def __init__(self, root: str, schema: str | None = None,
                 observer=NULL_OBSERVER):
        self.root = os.path.abspath(root)
        self.schema = schema if schema is not None else store_schema_version()
        self._observer = observer
        #: segments dropped because their schema no longer matches
        self.evicted_segments = 0
        #: segments found corrupt (torn tail, flipped byte, missing or
        #: mismatching checksum) -- every one is also quarantined
        self.corrupt_segments = 0
        #: corrupt segments successfully moved to ``quarantine/``
        self.quarantined_segments = 0
        self._seq = 0
        self._open()

    # -- layout -------------------------------------------------------------

    def _index_root(self) -> str:
        return os.path.join(self.root, _INDEX_DIR)

    def _quarantine_root(self) -> str:
        return os.path.join(self.root, _QUARANTINE_DIR)

    def _job_dir(self, digest: str) -> str:
        if not digest or not all(c in "0123456789abcdef" for c in digest):
            raise ValueError(f"malformed job digest {digest!r}")
        return os.path.join(self._index_root(), digest)

    def _open(self) -> None:
        os.makedirs(self._index_root(), exist_ok=True)
        meta_path = os.path.join(self.root, _META)
        meta = None
        if os.path.exists(meta_path):
            try:
                with open(meta_path) as fh:
                    meta = json.load(fh)
            except (OSError, ValueError):
                meta = None  # torn META: treat as a fresh store
        if (
            meta is not None
            and meta.get("store_version") == STORE_VERSION
            and meta.get("schema") == self.schema
        ):
            return
        # version mismatch (or first open): stamp the new identity first
        # -- readers filter segments by schema, so a concurrent old-schema
        # writer cannot poison the store while we sweep -- then evict
        self._write_meta(meta_path)
        if meta is not None:
            self.evicted_segments += self.evict_stale()

    def _write_meta(self, meta_path: str) -> None:
        doc = {"store_version": STORE_VERSION, "schema": self.schema}
        tmp = f"{meta_path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, meta_path)

    def evict_stale(self) -> int:
        """Remove every stale or legacy segment; quarantine corrupt ones.

        Best-effort: a file another process removed first just counts as
        already gone.  Returns the number of segments removed."""
        removed = 0
        for digest in self.jobs():
            job_dir = self._job_dir(digest)
            for name in self._segment_names(job_dir):
                path = os.path.join(job_dir, name)
                verdict, _doc = self._classify(path)
                if verdict == SEG_OK:
                    continue
                if verdict == SEG_CORRUPT:
                    self._quarantine(path, digest)
                    continue
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    pass
        return removed

    # -- writing ------------------------------------------------------------

    def put(self, digest: str, measurements) -> SegmentInfo | None:
        """Append one segment of ``(key, value)`` measurements for a job.

        ``measurements`` may be a :class:`ProfileIndex`, a mapping, or an
        iterable of pairs.  Returns None (and writes nothing) when there
        is nothing to persist.  The segment body is checksummed, written
        to a ``.tmp`` path, and published with one atomic rename."""
        if isinstance(measurements, ProfileIndex):
            items = list(measurements.snapshot().items())
        elif hasattr(measurements, "items"):
            items = list(measurements.items())
        else:
            items = list(measurements)
        if not items:
            return None
        job_dir = self._job_dir(digest)
        os.makedirs(job_dir, exist_ok=True)
        self._seq += 1
        name = (
            f"seg-{time.time_ns():020d}-{os.getpid():08d}-{self._seq:06d}.json"
        )
        body = {
            "version": STORE_VERSION,
            "schema": self.schema,
            "entries": [
                {"key": list(key), "value": value} for key, value in items
            ],
        }
        doc = dict(body)
        # the checksum is computed over the JSON-normalized body (what a
        # reader will reconstruct after json.load), not the Python one
        doc["sha256"] = segment_checksum(_normalize_body(body))
        path = os.path.join(job_dir, name)
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
        return SegmentInfo(path=path, entries=len(items))

    # -- reading ------------------------------------------------------------

    @staticmethod
    def _segment_names(job_dir: str) -> list[str]:
        try:
            names = os.listdir(job_dir)
        except OSError:
            return []
        return sorted(
            n for n in names if n.startswith("seg-") and n.endswith(".json")
        )

    def _classify(self, path: str) -> tuple[str, dict | None]:
        """Read and verify one segment file.

        Returns ``(verdict, doc)``; ``doc`` is only non-None for
        :data:`SEG_OK`.  Verification order matters: the checksum is
        checked *before* the schema, because a bit flip inside the
        schema field must read as corruption, not as a stale segment."""
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return SEG_CORRUPT, None
        if not isinstance(doc, dict) or not isinstance(
            doc.get("entries"), list
        ):
            return SEG_CORRUPT, None
        if "sha256" not in doc:
            # a checksum-less segment claiming the current layout is
            # corrupt; one from an older layout is merely legacy
            if doc.get("version") == STORE_VERSION:
                return SEG_CORRUPT, None
            return SEG_LEGACY, None
        body = {k: doc.get(k) for k in ("version", "schema", "entries")}
        if segment_checksum(body) != doc["sha256"]:
            return SEG_CORRUPT, None
        if doc.get("schema") != self.schema:
            return SEG_STALE, None  # survivor of an eviction sweep
        return SEG_OK, doc

    def _read_segment(self, path: str) -> dict | None:
        """One verified segment document, or None for anything unusable.

        Corrupt files are quarantined as a side effect -- callers never
        see (and can never merge) unverified measurements."""
        verdict, doc = self._classify(path)
        if verdict == SEG_CORRUPT:
            self._quarantine(path)
            return None
        return doc  # None for stale/legacy too

    def _quarantine(self, path: str, digest: str | None = None) -> None:
        """Move a corrupt segment aside; count it; never raise.

        The file is preserved under ``quarantine/`` (prefixed with its
        job digest) so corruption is evidence, not a silent deletion.
        Losing the race to another process's quarantine is fine."""
        self.corrupt_segments += 1
        self._observer.count("serve.store.corrupt")
        if digest is None:
            digest = os.path.basename(os.path.dirname(path))
        try:
            os.makedirs(self._quarantine_root(), exist_ok=True)
            os.replace(path, os.path.join(
                self._quarantine_root(),
                f"{digest}__{os.path.basename(path)}",
            ))
            self.quarantined_segments += 1
            self._observer.count("serve.store.quarantined")
        except OSError:
            pass

    def quarantined(self) -> list[str]:
        """Filenames currently sitting in ``quarantine/``, sorted."""
        try:
            return sorted(os.listdir(self._quarantine_root()))
        except OSError:
            return []

    def entries(self, digest: str) -> list[tuple[tuple, float]]:
        """The job's merged measurements, first-writer-wins, as pairs.

        Deterministic for a given segment set: segments merge in sorted
        filename order, and within a segment in recorded order."""
        index = self.load(digest)
        return [] if index is None else list(index.snapshot().items())

    def load(self, digest: str) -> ProfileIndex | None:
        """Merge every live, verified segment of one job into an index.

        Returns None when the job has no (readable, schema-matching)
        segments at all -- "never seen" and "empty" are different
        answers to a warm-start probe.  Corrupt segments are quarantined
        on the way through; the merge proceeds over the survivors."""
        job_dir = self._job_dir(digest)
        names = self._segment_names(job_dir)
        index = ProfileIndex()
        seen_any = False
        for name in names:
            doc = self._read_segment(os.path.join(job_dir, name))
            if doc is None:
                continue
            seen_any = True
            index.merge(
                (untuple(entry["key"]), entry["value"])
                for entry in doc["entries"]
            )
        return index if seen_any else None

    def jobs(self) -> list[str]:
        """Digests with at least one segment directory, sorted."""
        try:
            names = os.listdir(self._index_root())
        except OSError:
            return []
        return sorted(n for n in names if not n.startswith("."))

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        jobs = self.jobs()
        segments = sum(
            len(self._segment_names(self._job_dir(d))) for d in jobs
        )
        return {
            "root": self.root,
            "schema": self.schema,
            "jobs": len(jobs),
            "segments": segments,
            "evicted_segments": self.evicted_segments,
            "corrupt_segments": self.corrupt_segments,
            "quarantined_segments": self.quarantined_segments,
            "quarantine_dir_entries": len(self.quarantined()),
        }


def _normalize_body(body: dict):
    """Round-trip a body through JSON so the checksum sees exactly what a
    reader will reconstruct (tuples already listified by the caller;
    this canonicalizes e.g. ``-0.0`` and non-string dict keys)."""
    return json.loads(json.dumps(body))
