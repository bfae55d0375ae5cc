"""Cross-job warm start: its acceptance gate, pinned as tests.

A cold run populates a store; a warm rerun of the identical job must
converge to a *bit-identical* winner while measuring at most half the
configurations (in practice: zero -- every profile-index probe hits).
Also pinned: provenance attribution of warm-seeded entries, digest
sensitivity (a different job must not inherit), the store/report
accounting the CLI surfaces, and graceful degradation when a committed
segment is corrupted on disk.
"""

import glob
import os

import pytest

from repro.core.session import AstraSession
from repro.models import build_scrnn, scrnn
from repro.serve.keys import job_digest
from repro.serve.store import ProfileStore

BUDGET = 400

#: budgets large enough for the *cold* run to converge (not be capped):
#: a budget-capped cold run publishes a partial index, and the warm
#: rerun then spends its budget measuring configurations the cold run
#: never reached -- deeper exploration, but not the reuse this gate pins
CONVERGED_BUDGET = {"scrnn": 400, "milstm": 1200}


def _run(model, store, budget=BUDGET, **kwargs):
    session = AstraSession(model, store=store, **kwargs)
    try:
        return session.optimize(max_minibatches=budget), session
    finally:
        session.close()


def _assignment(report):
    return {k: repr(v) for k, v in report.astra.assignment.items()}


class TestWarmConvergence:
    @pytest.mark.parametrize("model_name", ["scrnn", "milstm"])
    def test_identical_winner_fewer_configs(
        self, model_name, tiny_scrnn, tiny_milstm, tmp_path
    ):
        model = {"scrnn": tiny_scrnn, "milstm": tiny_milstm}[model_name]
        budget = CONVERGED_BUDGET[model_name]
        store = str(tmp_path / "store")
        cold, _ = _run(model, store, budget=budget)
        warm, _ = _run(model, store, budget=budget)

        assert cold.configs_explored > 0
        assert _assignment(warm) == _assignment(cold)
        assert warm.best_time_us == cold.best_time_us
        assert warm.speedup_over_native == cold.speedup_over_native
        # the acceptance gate: at most 50% of the cold measurements --
        # and on the deterministic simulator a full index means zero
        assert warm.configs_explored <= 0.5 * cold.configs_explored
        assert warm.configs_explored == 0

    def test_warm_report_accounting(self, tiny_scrnn, tmp_path):
        store = str(tmp_path / "store")
        cold, _ = _run(tiny_scrnn, store)
        assert cold.warm["seeded_entries"] == 0
        assert cold.warm["sources"] == [
            {"source": "store", "seeded_entries": 0, "duplicates": 0}
        ]
        warm, session = _run(tiny_scrnn, store)
        assert warm.warm["seeded_entries"] > 0
        assert warm.warm["digest"] == session.job_digest()
        (src,) = warm.warm["sources"]
        assert src["source"] == "store"
        assert src["seeded_entries"] == warm.warm["seeded_entries"]

    def test_cold_without_store_has_no_warm_block(self, tiny_scrnn):
        session = AstraSession(tiny_scrnn)
        try:
            report = session.optimize(max_minibatches=BUDGET)
        finally:
            session.close()
        assert report.warm == {}
        assert session.job_digest() is None


class TestProvenanceAttribution:
    def test_warm_seeded_entries_attributed(self, tiny_scrnn, tmp_path):
        from repro.obs.observer import Observer
        from repro.obs.provenance import ProvenanceLog

        store = str(tmp_path / "store")
        _run(tiny_scrnn, store)
        observer = Observer()
        warm, _ = _run(tiny_scrnn, store, observer=observer)
        log = observer.provenance()
        (event,) = log.warm_events()
        assert event["source"] == "store"
        assert event["entries"] == warm.warm["seeded_entries"]
        assert event["digest"] == warm.warm["digest"]
        # warm events precede every exploration event and survive both
        # serialization and rendering
        assert log.events[0]["event"] == "warm"
        replayed = ProvenanceLog.from_dict(log.to_dict())
        assert replayed.warm_events() == log.warm_events()
        assert "warm-start:" in log.render()

    def test_cold_run_records_no_warm_event(self, tiny_scrnn):
        from repro.obs.observer import Observer

        observer = Observer()
        session = AstraSession(tiny_scrnn, observer=observer)
        try:
            session.optimize(max_minibatches=BUDGET)
        finally:
            session.close()
        assert observer.provenance().warm_events() == []


class TestDigestIsolation:
    def test_different_job_does_not_inherit(
        self, tiny_scrnn, tiny_milstm, tmp_path
    ):
        store = str(tmp_path / "store")
        _run(tiny_scrnn, store)
        other, _ = _run(tiny_milstm, store)
        assert other.warm["seeded_entries"] == 0
        assert other.configs_explored > 0

    def test_feature_set_changes_digest(self, tiny_scrnn, device):
        from repro.core.enumerator import AstraFeatures

        d_all = job_digest(tiny_scrnn.graph, device, AstraFeatures.preset("all"))
        d_fk = job_digest(tiny_scrnn.graph, device, AstraFeatures.preset("FK"))
        assert d_all != d_fk

    def test_seed_excluded_from_digest(self, tiny_scrnn, tmp_path):
        """Base-clock measurements are seed-independent, so tenants with
        different seeds deliberately share one warm-start key."""
        store = str(tmp_path / "store")
        cold, _ = _run(tiny_scrnn, store, seed=0)
        warm, _ = _run(tiny_scrnn, store, seed=7)
        assert warm.warm["seeded_entries"] > 0
        assert _assignment(warm) == _assignment(cold)


class TestPublishDelta:
    def test_second_run_publishes_nothing_new(self, tiny_scrnn, tmp_path):
        store_path = str(tmp_path / "store")
        _run(tiny_scrnn, store_path)
        store = ProfileStore(store_path)
        (digest,) = store.jobs()
        segments_after_cold = store.stats()["segments"]
        _run(tiny_scrnn, store_path)
        assert ProfileStore(store_path).stats()["segments"] == \
            segments_after_cold
        assert ProfileStore(store_path).load(digest).snapshot() == \
            store.load(digest).snapshot()

    def test_store_directory_layout(self, tiny_scrnn, tmp_path):
        store_path = str(tmp_path / "store")
        _, session = _run(tiny_scrnn, store_path)
        digest = session.job_digest()
        assert os.path.isfile(os.path.join(store_path, "META.json"))
        job_dir = os.path.join(store_path, "index", digest)
        segments = [n for n in os.listdir(job_dir) if n.endswith(".json")]
        assert len(segments) == 1
        assert segments[0].startswith("seg-")


class TestCorruptStoreDegrades:
    def test_bit_flip_quarantines_and_reruns_to_reference_winner(
        self, tmp_path
    ):
        """One flipped byte in the only committed segment: the warm rerun
        detects it by checksum, quarantines and counts it, runs cold, and
        still lands on the reference winner."""
        model = build_scrnn(scrnn.DEFAULT_CONFIG.scaled(batch_size=4, seq_len=3))
        root = str(tmp_path / "store")
        reference, _ = _run(model, ProfileStore(root))
        (victim,) = glob.glob(os.path.join(root, "index", "*", "seg-*.json"))
        with open(victim, "rb") as fh:
            raw = bytearray(fh.read())
        raw[len(raw) // 2] ^= 0xFF
        with open(victim, "wb") as fh:
            fh.write(raw)

        store = ProfileStore(root)
        rerun, _ = _run(model, store)
        assert store.corrupt_segments == 1
        assert store.quarantined_segments == 1
        assert len(store.quarantined()) == 1
        assert not os.path.exists(victim)
        assert rerun.warm["seeded_entries"] == 0
        assert rerun.configs_explored > 0
        assert _assignment(rerun) == _assignment(reference)
        assert rerun.best_time_us == reference.best_time_us
