"""Continuous-profiling service (``repro.serve``).

The always-on grown-up of the one-shot ``hpcview run`` pipeline: an
asyncio ingest front end accepting codec-v2 ``.rpdb`` blobs from
concurrent clients (:mod:`repro.serve.service`), a sharded on-disk
store that folds each leaf's door decode into a per-app live rollup and
compacts by encoding it (:mod:`repro.serve.store` — byte-identical
to a sequential :func:`repro.core.merge.merge_profiles` of the same
leaves), and a query layer serving the analysis views with
generation-keyed memoization (:mod:`repro.serve.query`).

The whole service is self-instrumented through :mod:`repro.obs`:
ingest/compaction/query spans on the ``serve`` trace lane and
``repro_serve_*`` counters/gauges/histograms, introspectable live via
the ``metricsz`` query view.  CLI entry points: ``hpcview serve`` and
``hpcview query``.
"""

from repro.serve.query import QueryEngine, VIEWS
from repro.serve.service import ProfileService, ServeClient
from repro.serve.store import CompactionResult, LeafRef, ProfileStore, StoreStats

__all__ = [
    "CompactionResult",
    "LeafRef",
    "ProfileService",
    "ProfileStore",
    "QueryEngine",
    "ServeClient",
    "StoreStats",
    "VIEWS",
]
