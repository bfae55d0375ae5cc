"""Import budget: what a job loads is what it runs.

Every case runs in a fresh interpreter, since this test process has long
since imported everything.  Set-up (``import repro`` and constructing a
session) must not load numpy, the HTTP stack or any subsystem the job
never calls, and ``optimize`` must import no module set-up did not.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: modules a default session never executes (docs/performance.md, "Cold start")
NOT_AT_SETUP = (
    "numpy",
    "http.client",
    "ssl",
    "repro.check.hb",
    "repro.faults.chaos",
    "repro.obs.analysis",
    "repro.serve.server",
)

TINY_SESSION = """
from repro import AstraSession
from repro.models import ModelConfig, build_scrnn

model = build_scrnn(ModelConfig(
    batch_size=4, seq_len=3, hidden_size=32, embed_size=32, vocab_size=50,
))
session = AstraSession(model, features="all")
"""


def run_fresh(code: str):
    """Run ``code`` in a fresh interpreter and return the JSON value it
    leaves in ``result``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{code}\nprint(json.dumps(result))"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_session_setup_loads_nothing_it_does_not_run():
    loaded = run_fresh(
        f"import repro\n{TINY_SESSION}\n"
        f"result = sorted(set({NOT_AT_SETUP!r}) & set(sys.modules))"
    )
    assert loaded == []


def test_optimize_imports_no_new_repro_module():
    # a base-clock run draws no jitter, so it never needs numpy either
    added = run_fresh(TINY_SESSION + """
before = set(sys.modules)
session.optimize(max_minibatches=200)
result = sorted(
    m for m in set(sys.modules) - before if m.startswith("repro") or m == "numpy"
)
""")
    assert added == []


def test_single_job_loads_no_process_pool():
    """Exploration measures in the caller: only the fleet search, which
    measures strategies on a process pool, loads ``repro.parallel``."""
    loaded = run_fresh(TINY_SESSION + """
session.optimize(max_minibatches=200)
result = sorted(m for m in sys.modules if m.startswith("repro.parallel"))
""")
    assert loaded == []
    fleet = run_fresh("""
from repro.fleet import get_fleet, run_fleet_search
from repro.models import ModelConfig, build_scrnn

run_fleet_search(
    build_scrnn, ModelConfig(batch_size=64, seq_len=2), get_fleet("hetero"),
    model_name="scrnn",
)
result = "repro.parallel.engine" in sys.modules
""")
    assert fleet is True


def test_profile_store_does_not_load_the_http_stack():
    loaded = run_fresh("""
from repro.serve.store import ProfileStore
result = sorted(m for m in sys.modules if m == "http" or m.startswith("http."))
""")
    assert loaded == []


def test_cli_import_loads_no_numpy():
    assert run_fresh('import repro.cli\nresult = "numpy" in sys.modules') is False
