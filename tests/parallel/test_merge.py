"""ProfileIndex.merge: the canonical write path for measurements.

The wirer's recording, warm starts and the fleet search's worker results
all go through it, and lean on its invariants: first-writer-wins dedupe
(measuring the same key twice must not double-count), and sticky
quarantine (a clean sample must never resurrect a configuration the
wirer quarantined).
"""

from repro.core import QUARANTINED_US
from repro.core.profile_index import ProfileIndex


class TestMergeDedupe:
    def test_first_writer_wins(self):
        index = ProfileIndex()
        out = index.merge([(("a",), 10.0), (("a",), 99.0)])
        assert index.get(("a",)) == 10.0
        assert out == {"merged": 1, "duplicates": 1, "quarantine_protected": 0}

    def test_existing_entry_not_overwritten_or_bumped(self):
        index = ProfileIndex()
        index.record(("a",), 10.0)
        hits_before = index._store[("a",)].hits
        out = index.merge({("a",): 99.0})
        assert index.get(("a",)) == 10.0
        assert index._store[("a",)].hits == hits_before
        assert out["duplicates"] == 1

    def test_accepts_mapping_and_iterable(self):
        for measurements in ({("a",): 1.0, ("b",): 2.0},
                             [(("a",), 1.0), (("b",), 2.0)]):
            index = ProfileIndex()
            out = index.merge(measurements)
            assert out["merged"] == 2
            assert index.get(("a",)) == 1.0
            assert index.get(("b",)) == 2.0

    def test_insertion_order_preserved(self):
        """Replaying worker results in candidate order must reproduce a
        serial run's store byte for byte -- dict order is part of the
        contract (checkpoints serialize entries in insertion order)."""
        index = ProfileIndex()
        index.merge([(("c",), 3.0), (("a",), 1.0), (("b",), 2.0)])
        assert list(index.snapshot()) == [("c",), ("a",), ("b",)]


class TestMergeQuarantine:
    def test_quarantine_never_overwritten(self):
        index = ProfileIndex()
        index.record(("bad",), QUARANTINED_US)
        out = index.merge({("bad",): 42.0})
        assert index.get(("bad",)) == QUARANTINED_US
        assert out == {"merged": 0, "duplicates": 0, "quarantine_protected": 1}

    def test_quarantine_on_quarantine_is_duplicate(self):
        index = ProfileIndex()
        index.record(("bad",), QUARANTINED_US)
        out = index.merge({("bad",): QUARANTINED_US})
        assert out["quarantine_protected"] == 0
        assert out["duplicates"] == 1

    def test_fresh_quarantine_merges(self):
        index = ProfileIndex()
        out = index.merge({("bad",): QUARANTINED_US})
        assert out["merged"] == 1
        assert index.get(("bad",)) == QUARANTINED_US
