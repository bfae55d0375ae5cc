"""Cross-job warm start: the persistent profile store.

See ``docs/serving.md``.  The pieces:

- :mod:`repro.serve.keys` -- job digests and the store schema version,
- :mod:`repro.serve.store` -- the persistent on-disk profile-index store
  (checksummed segments, corrupt ones quarantined) that
  ``optimize --store`` warm-starts from and publishes to.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "store": ("ProfileStore",),
    "keys": ("job_digest", "store_schema_version"),
})
