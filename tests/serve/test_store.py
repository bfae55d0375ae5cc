"""ProfileStore conformance: round-trip fidelity, crash safety,
version eviction, and multi-process first-writer-wins determinism.

The store is the serve daemon's only durable state; these tests pin the
contracts ``docs/serving.md`` promises: what goes in comes out (sentinel
values and nested tuple keys included), a torn write is invisible, a
schema change evicts, and concurrent writers cannot make two readers
disagree.
"""

import json
import multiprocessing
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import QUARANTINED_US
from repro.core.profile_index import ProfileIndex
from repro.serve.keys import store_schema_version
from repro.serve.store import ProfileStore

DIGEST = "ab" * 32
OTHER = "cd" * 32

# profile-index keys are context-mangled tuples: atoms and nested tuples
# of strings/ints, e.g. (("compare", "fk"),) or ("fusion", ("cell", 2))
atoms = st.one_of(st.text(max_size=8), st.integers(-1000, 1000))
keys = st.lists(
    st.one_of(atoms, st.tuples(atoms, atoms)), min_size=1, max_size=4
).map(tuple)
values = st.one_of(
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
    st.just(QUARANTINED_US),
)


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(entries=st.dictionaries(keys, values, max_size=12))
    def test_put_load_identity(self, tmp_path_factory, entries):
        root = tmp_path_factory.mktemp("store")
        store = ProfileStore(str(root))
        info = store.put(DIGEST, entries)
        loaded = store.load(DIGEST)
        if not entries:
            assert info is None
            assert loaded is None  # nothing written => never seen
        else:
            assert info.entries == len(entries)
            assert loaded.snapshot() == entries

    def test_quarantine_sentinel_survives(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        store.put(DIGEST, {("bad", ("cell", 0)): QUARANTINED_US})
        loaded = store.load(DIGEST)
        assert loaded.get(("bad", ("cell", 0))) == QUARANTINED_US

    def test_profile_index_input(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        index = ProfileIndex()
        index.record(("a", 1), 10.0)
        index.record((("compare", "fk"),), 20.0)
        store.put(DIGEST, index)
        assert store.entries(DIGEST) == [
            (("a", 1), 10.0), ((("compare", "fk"),), 20.0),
        ]

    def test_jobs_are_isolated(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        store.put(DIGEST, {("a",): 1.0})
        store.put(OTHER, {("b",): 2.0})
        assert store.load(DIGEST).snapshot() == {("a",): 1.0}
        assert store.load(OTHER).snapshot() == {("b",): 2.0}
        assert store.jobs() == sorted([DIGEST, OTHER])

    def test_malformed_digest_rejected(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        for bad in ("", "not-hex", "../escape", "AB" * 32):
            with pytest.raises(ValueError):
                store.put(bad, {("a",): 1.0})
            with pytest.raises(ValueError):
                store.load(bad)


class TestMergeSemantics:
    def test_first_segment_wins(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        store.put(DIGEST, {("a",): 10.0})
        store.put(DIGEST, {("a",): 99.0, ("b",): 2.0})
        assert store.load(DIGEST).snapshot() == {("a",): 10.0, ("b",): 2.0}

    def test_quarantine_sticky_across_segments(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        store.put(DIGEST, {("bad",): QUARANTINED_US})
        store.put(DIGEST, {("bad",): 5.0})
        assert store.load(DIGEST).get(("bad",)) == QUARANTINED_US

    def test_never_seen_vs_empty(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        assert store.load(DIGEST) is None
        assert store.entries(DIGEST) == []


class TestCrashSafety:
    def test_tmp_file_invisible(self, tmp_path):
        """A writer killed before the atomic rename leaves only a
        ``*.tmp`` file, which the loader must never read."""
        store = ProfileStore(str(tmp_path))
        store.put(DIGEST, {("a",): 1.0})
        job_dir = os.path.join(store.root, "index", DIGEST)
        torn = os.path.join(
            job_dir, "seg-00000000000000000000-00000000-000001.json.tmp"
        )
        with open(torn, "w") as fh:
            fh.write('{"version": 1, "schema": "x", "entries": [{"key"')
        assert store.load(DIGEST).snapshot() == {("a",): 1.0}
        assert store.corrupt_segments == 0

    def test_corrupt_segment_skipped_not_fatal(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        store.put(DIGEST, {("a",): 1.0})
        job_dir = os.path.join(store.root, "index", DIGEST)
        with open(os.path.join(job_dir, "seg-zzz-corrupt.json"), "w") as fh:
            fh.write("{truncated")
        assert store.load(DIGEST).snapshot() == {("a",): 1.0}
        assert store.corrupt_segments == 1

    def test_torn_meta_recovers(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        store.put(DIGEST, {("a",): 1.0})
        with open(os.path.join(store.root, "META.json"), "w") as fh:
            fh.write("{half a doc")
        reopened = ProfileStore(str(tmp_path))
        assert reopened.load(DIGEST).snapshot() == {("a",): 1.0}


class TestVersionEviction:
    def test_schema_change_evicts(self, tmp_path):
        old = ProfileStore(str(tmp_path), schema="old-schema-0000")
        old.put(DIGEST, {("a",): 1.0})
        new = ProfileStore(str(tmp_path))  # real schema != "old-schema-0000"
        assert new.evicted_segments == 1
        assert new.load(DIGEST) is None
        with open(os.path.join(str(tmp_path), "META.json")) as fh:
            assert json.load(fh)["schema"] == store_schema_version()

    def test_same_schema_keeps(self, tmp_path):
        ProfileStore(str(tmp_path)).put(DIGEST, {("a",): 1.0})
        reopened = ProfileStore(str(tmp_path))
        assert reopened.evicted_segments == 0
        assert reopened.load(DIGEST).snapshot() == {("a",): 1.0}

    def test_stale_survivor_filtered_at_read(self, tmp_path):
        """A segment written concurrently by an old-schema process after
        the eviction sweep must be filtered when loading, not merged."""
        store = ProfileStore(str(tmp_path))
        store.put(DIGEST, {("a",): 1.0})
        job_dir = os.path.join(store.root, "index", DIGEST)
        straggler = os.path.join(
            job_dir, "seg-00000000000000000001-00000001-000001.json"
        )
        with open(straggler, "w") as fh:
            json.dump({"version": 1, "schema": "stale-0000",
                       "entries": [{"key": ["poison"], "value": 666.0}]}, fh)
        assert store.load(DIGEST).snapshot() == {("a",): 1.0}

    def test_schema_version_tracks_simulator_source(self):
        """The schema digest is a pure function of the measurement-
        semantics module sources -- stable within a process."""
        v = store_schema_version()
        assert isinstance(v, str) and len(v) == 16
        assert v == store_schema_version()

    def test_schema_covers_the_stream_engine(self):
        """An edit to the engine that times every stored measurement
        makes existing stores stale."""
        from repro.serve.keys import SCHEMA_MODULES

        assert "repro.gpu.streams" in SCHEMA_MODULES


def _writer(args):
    """Concurrent-writer body (module-level: must pickle under spawn)."""
    root, writer_id = args
    store = ProfileStore(root)
    for batch in range(3):
        store.put(DIGEST, {
            ("shared", batch): float(writer_id),
            ("private", writer_id, batch): 1.0,
        })
    return writer_id


class TestConcurrentWriters:
    def test_multiprocess_first_writer_wins_determinism(self, tmp_path):
        """N processes race segments into one job; every subsequent load
        of the resulting segment set is identical, shared keys carry
        exactly one writer's value, and no write is lost."""
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(3) as pool:
            done = pool.map(_writer, [(str(tmp_path), w) for w in range(3)])
        assert sorted(done) == [0, 1, 2]

        store = ProfileStore(str(tmp_path))
        first = store.load(DIGEST).snapshot()
        for _ in range(3):
            assert ProfileStore(str(tmp_path)).load(DIGEST).snapshot() == first
        for batch in range(3):
            assert first[("shared", batch)] in (0.0, 1.0, 2.0)
            for writer in range(3):
                assert first[("private", writer, batch)] == 1.0
        # the winning value per shared key is the sorted-first segment's
        segments = sorted(
            os.listdir(os.path.join(store.root, "index", DIGEST))
        )
        expected = {}
        for name in segments:
            with open(os.path.join(store.root, "index", DIGEST, name)) as fh:
                for entry in json.load(fh)["entries"]:
                    expected.setdefault(tuple(
                        tuple(p) if isinstance(p, list) else p
                        for p in entry["key"]
                    ), entry["value"])
        assert first == expected
