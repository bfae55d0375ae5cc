"""Optimization-as-a-service: profile store, serve daemon, warm start.

See ``docs/serving.md``.  The pieces:

- :mod:`repro.serve.keys` -- job digests and the store schema version,
- :mod:`repro.serve.store` -- the persistent on-disk profile-index store
  (checksummed segments, corrupt ones quarantined),
- :mod:`repro.serve.journal` -- the durable write-ahead job journal,
- :mod:`repro.serve.jobs` -- job specs and the supervised bounded job
  queue (retries, deadlines, dead-lettering, crash recovery),
- :mod:`repro.serve.server` -- the stdlib HTTP daemon (``repro serve``),
- :mod:`repro.serve.client` -- the matching resilient client
  (``optimize --server``),
- :mod:`repro.serve.chaos` -- the daemon-level chaos harness
  (``repro chaos-serve``).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "server": ("AstraServer",),
    "client": (
        "CircuitOpenError", "ServeClient", "ServeConnectionError", "ServeError",
        "ServeResponseError", "ServeTransportError",
    ),
    "jobs": (
        "IdempotencyConflictError", "Job", "JobQueue", "JobSpec", "JobSpecError",
        "QueueClosedError", "QueueFullError", "run_job",
    ),
    "journal": ("JobJournal", "JournalState"),
    "store": ("ProfileStore",),
    "keys": ("job_digest", "store_schema_version"),
})
