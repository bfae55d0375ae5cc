"""Stores written by older versions keep working.

Older versions also kept learned-cost-model artifacts under ``models/``
in the store root.  The store no longer reads that directory: a store
that still holds one must open, evict and warm-start exactly as one
without it, and leave the directory alone (docs/serving.md).
"""

import json

from repro.core.session import AstraSession
from repro.serve.keys import store_schema_version
from repro.serve.store import ProfileStore

#: enough for tiny milstm's cold run to converge (tests/serve/test_warm_start.py)
BUDGET = 1200


def _leftover_artifact(root) -> str:
    """Write a ``models/cost-model.json`` shaped like an older version's."""
    body = {
        "artifact": "astra-learned-cost-model",
        "version": 1,
        "schema": store_schema_version(),
        "features_digest": "0" * 16,
        "weights": [0.0, 1.0],
        "records": 128,
        "calibration": "kfold",
        "sha256": "0" * 64,
    }
    path = root / "models" / "cost-model.json"
    path.parent.mkdir(parents=True)
    text = json.dumps(body, sort_keys=True, indent=1)
    path.write_text(text)
    return text


def _run(model, store):
    session = AstraSession(model, store=store)
    try:
        return session.optimize(max_minibatches=BUDGET)
    finally:
        session.close()


def _assignment(report):
    return {k: repr(v) for k, v in report.astra.assignment.items()}


def test_leftover_models_dir_still_warm_starts(tiny_milstm, tmp_path):
    root = tmp_path / "store"
    cold = _run(tiny_milstm, str(root))
    text = _leftover_artifact(root)

    store = ProfileStore(str(root))
    assert store.evict_stale() == 0
    stats = store.stats()
    assert stats["segments"] > 0
    assert stats["quarantine_dir_entries"] == 0

    warm = _run(tiny_milstm, str(root))
    assert warm.warm["seeded_entries"] > 0
    assert warm.configs_explored == 0
    assert _assignment(warm) == _assignment(cold)
    assert warm.best_time_us == cold.best_time_us
    assert (root / "models" / "cost-model.json").read_text() == text


def test_schema_change_evicts_segments_and_ignores_models_dir(tmp_path):
    root = tmp_path / "store"
    ProfileStore(str(root)).put("ab" * 8, {("k",): 1.0})
    text = _leftover_artifact(root)

    # a schema change runs evict_stale on open
    store = ProfileStore(str(root), schema="0123456789abcdef")
    assert store.evicted_segments == 1
    assert store.stats()["quarantine_dir_entries"] == 0
    assert (root / "models" / "cost-model.json").read_text() == text
