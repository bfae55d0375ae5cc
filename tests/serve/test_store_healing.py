"""ProfileStore self-healing: checksums, quarantine, malformed segments.

``_read_segment`` is the trust boundary between disk and the fleet's
shared knowledge: anything it cannot verify must be skipped and
quarantined -- never raised on, never merged, never silently deleted.
These tests feed it every malformed shape a crash or flaky disk
produces and pin the quarantine bookkeeping.
"""

import json
import os

import pytest

from repro.obs.observer import Observer
from repro.serve.store import (
    SEG_CORRUPT,
    SEG_LEGACY,
    SEG_OK,
    SEG_STALE,
    STORE_VERSION,
    ProfileStore,
    segment_checksum,
)

DIGEST = "ab" * 32
GOOD = [(("op", "heal", i), float(i + 1)) for i in range(3)]


def seg_path(store, name="seg-99999999999999999999-x.json"):
    path = os.path.join(store._job_dir(DIGEST), name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def write_raw(store, text, name="seg-99999999999999999999-x.json"):
    path = seg_path(store, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


class TestMalformedSegments:
    """S3: ``_read_segment`` on hostile inputs -- skip, quarantine, count."""

    @pytest.mark.parametrize("payload,label", [
        ('{"version": 2, "schema": "x", "entr', "truncated-json"),
        ("", "empty-file"),
        ('["not", "a", "segment", "dict"]', "non-dict-payload"),
        ('"just a string"', "scalar-payload"),
        ('{"version": 2, "schema": "x", "entries": 42}', "entries-not-list"),
    ])
    def test_malformed_is_quarantined_never_raised(self, tmp_path, payload,
                                                   label):
        store = ProfileStore(str(tmp_path))
        store.put(DIGEST, GOOD)
        bad = write_raw(store, payload)

        index = store.load(DIGEST)
        assert index is not None, f"{label}: survivors were lost"
        assert len(index.snapshot()) == len(GOOD)
        assert store.corrupt_segments == 1
        assert store.quarantined_segments == 1
        assert not os.path.exists(bad)
        (quarantined,) = store.quarantined()
        assert quarantined.startswith(DIGEST)  # evidence kept, attributed

    def test_wrong_schema_segment_beside_valid_is_skipped_not_corrupt(
        self, tmp_path
    ):
        store = ProfileStore(str(tmp_path))
        store.put(DIGEST, GOOD)
        # a well-formed, correctly-checksummed segment from another
        # schema: filtered (stale), not quarantined -- it is not damaged
        body = {
            "version": STORE_VERSION, "schema": "some-other-schema",
            "entries": [{"key": ["op"], "value": 1.0}],
        }
        doc = dict(body, sha256=segment_checksum(
            json.loads(json.dumps(body))
        ))
        write_raw(store, json.dumps(doc))

        index = store.load(DIGEST)
        assert len(index.snapshot()) == len(GOOD)
        assert store.corrupt_segments == 0
        assert store.quarantined() == []

    def test_checksumless_current_version_segment_is_corrupt(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        doc = {"version": STORE_VERSION, "schema": store.schema,
               "entries": [{"key": ["op"], "value": 1.0}]}
        write_raw(store, json.dumps(doc))
        assert store.load(DIGEST) is None
        assert store.corrupt_segments == 1

    def test_legacy_prechecksum_segment_is_skipped_quietly(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        doc = {"version": 1, "schema": store.schema,
               "entries": [{"key": ["op"], "value": 1.0}]}
        path = write_raw(store, json.dumps(doc))
        assert store.load(DIGEST) is None  # never merged unverified
        assert store.corrupt_segments == 0  # but not slandered either
        assert os.path.exists(path)


class TestBitFlips:
    def test_every_byte_matters(self, tmp_path):
        """Flip each byte of a committed segment in turn: all detected."""
        store = ProfileStore(str(tmp_path))
        info = store.put(DIGEST, GOOD)
        with open(info.path, "rb") as fh:
            pristine = fh.read()
        # step through the file so the sweep stays fast but covers the
        # header, checksum field, keys, and values alike
        for offset in range(0, len(pristine), 7):
            flipped = bytearray(pristine)
            flipped[offset] ^= 0x01
            if bytes(flipped) == pristine:
                continue
            fresh = ProfileStore(str(tmp_path))
            with open(info.path, "wb") as fh:
                fh.write(bytes(flipped))
            verdict, doc = fresh._classify(info.path)
            assert verdict == SEG_CORRUPT, (
                f"flip at byte {offset} went undetected"
            )
            assert doc is None
        with open(info.path, "wb") as fh:
            fh.write(pristine)
        assert ProfileStore(str(tmp_path))._classify(info.path)[0] == SEG_OK

    def test_flip_is_quarantined_and_counted_in_metrics(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        info = store.put(DIGEST, GOOD)
        with open(info.path, "rb") as fh:
            raw = bytearray(fh.read())
        raw[len(raw) // 2] ^= 0xFF
        with open(info.path, "wb") as fh:
            fh.write(raw)

        observer = Observer()
        fresh = ProfileStore(str(tmp_path), observer=observer)
        assert fresh.load(DIGEST) is None
        snap = observer.metrics().snapshot()
        assert snap["serve.store.corrupt"]["value"] == 1
        assert snap["serve.store.quarantined"]["value"] == 1
        assert len(fresh.quarantined()) == 1
        stats = fresh.stats()
        assert stats["corrupt_segments"] == 1
        assert stats["quarantined_segments"] == 1
        assert stats["quarantine_dir_entries"] == 1

    def test_flip_in_schema_field_reads_as_corruption_not_stale(
        self, tmp_path
    ):
        store = ProfileStore(str(tmp_path))
        info = store.put(DIGEST, GOOD)
        with open(info.path) as fh:
            text = fh.read()
        mangled = text.replace(store.schema, "x" + store.schema[1:], 1)
        assert mangled != text
        with open(info.path, "w") as fh:
            fh.write(mangled)
        fresh = ProfileStore(str(tmp_path))
        assert fresh._classify(info.path)[0] == SEG_CORRUPT


class TestVerdicts:
    def test_ok_segment_classifies_ok(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        info = store.put(DIGEST, GOOD)
        verdict, doc = store._classify(info.path)
        assert verdict == SEG_OK
        assert doc["sha256"] == segment_checksum(
            {k: doc[k] for k in ("version", "schema", "entries")}
        )

    def test_stale_vs_legacy_vs_corrupt_are_distinct(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        body = {"version": STORE_VERSION, "schema": "other",
                "entries": []}
        stale = dict(body, sha256=segment_checksum(
            json.loads(json.dumps(body))
        ))
        assert store._classify(
            write_raw(store, json.dumps(stale), "seg-1-stale.json")
        )[0] == SEG_STALE
        legacy = {"version": 1, "schema": store.schema, "entries": []}
        assert store._classify(
            write_raw(store, json.dumps(legacy), "seg-2-legacy.json")
        )[0] == SEG_LEGACY
        assert store._classify(
            write_raw(store, "{", "seg-3-torn.json")
        )[0] == SEG_CORRUPT

    def test_quarantine_survives_collisions(self, tmp_path):
        """Two corrupt segments with the same name from different jobs
        both land in quarantine (digest-prefixed names)."""
        store = ProfileStore(str(tmp_path))
        other = "cd" * 32
        for digest in (DIGEST, other):
            path = os.path.join(store._job_dir(digest), "seg-1-x.json")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                fh.write("{torn")
            store.load(digest)
        assert len(store.quarantined()) == 2
