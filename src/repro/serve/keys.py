"""Identity keys for the optimization-as-a-service store.

Two kinds of identity gate what measurements may be shared:

* **job digest** -- *which measurements belong to which job*.  A job is
  keyed by what determines its profile-index contents: the structural
  signature of its traced graph (via
  :func:`repro.perf.signature.plan_digest` of the canonical native
  plan -- exactly the key AutoTVM-style measurement corpora transfer
  on), the device model, the feature set, the base exploration context,
  and the measurement policy.  Two jobs with equal digests explore the
  same key space and measure the same values on the deterministic
  simulator, so one job's index warm-starts the other.  The *seed* is
  deliberately excluded: base-clock measurements are seed-independent,
  and cross-tenant reuse (the "millions of users" scenario) only works
  if tenants with different seeds share a key.

* **schema version** -- *whether stored measurements are still
  meaningful at all*.  Profile values are produced by the simulator and
  priced by the cost model; if either changes, every persisted number
  is stale.  The schema version is a digest of the source text of the
  modules that define measurement semantics, so bumping any of them
  automatically invalidates (evicts) the store -- no manual version
  constant to forget.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import tokenize

#: layout version of the job-digest document itself
JOB_KEY_VERSION = 1

#: the modules whose source defines what a stored microsecond *means*:
#: the stream engine that simulates the timeline, the executor's
#: measurement mediation, the kernel cost model, the GEMM library
#: physics, and the measurement policy semantics (robust-min, quarantine
#: sentinel)
SCHEMA_MODULES = (
    "repro.gpu.streams",
    "repro.runtime.executor",
    "repro.gpu.cost_model",
    "repro.gpu.libraries",
    "repro.gpu.kernels",
    "repro.core.measurement",
)

_SCHEMA_CACHE: str | None = None


def store_schema_version() -> str:
    """Digest of the simulator / cost-model identity (hex, 16 chars).

    Computed once per process from the source text of
    :data:`SCHEMA_MODULES`; any edit to those modules changes the
    version and invalidates persisted profile indexes.
    """
    global _SCHEMA_CACHE
    if _SCHEMA_CACHE is None:
        digest = hashlib.sha256()
        for name in SCHEMA_MODULES:
            # the source is read, not imported: a digest runs no module
            with tokenize.open(importlib.util.find_spec(name).origin) as fh:
                source = fh.read()
            digest.update(name.encode("utf-8"))
            digest.update(source.encode("utf-8"))
        _SCHEMA_CACHE = digest.hexdigest()[:16]
    return _SCHEMA_CACHE


def job_digest(graph, device, features, context=(), policy=None) -> str:
    """Stable identity of one optimization job's measurement space.

    Equal digests => equal profile-index key space *and* equal measured
    values on the deterministic simulator, so indexes may be shared.
    The graph is signed through its canonical native plan: the plan
    signature covers every node, shape, and kernel parameter the
    dispatcher would see, which is exactly what the profile keys are
    derived from.
    """
    from ..baselines.native import native_plan
    from ..perf.signature import plan_digest

    doc = {
        "version": JOB_KEY_VERSION,
        "plan": plan_digest(native_plan(graph)),
        "device": device.name,
        "features": repr(features),
        "context": repr(tuple(context)),
        "policy": repr(policy) if policy is not None else None,
    }
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
