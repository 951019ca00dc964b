"""Analysis-as-a-service: the hardened async WCRT job server.

The paper's exact timed-automata analysis is only a *service* if arbitrary
-- even hostile -- models can be submitted continuously without wedging a
worker, losing a request or recomputing what was already answered.  This
package provides that server on the stdlib alone:

* :mod:`repro.serve.http`    -- a minimal HTTP/1.1 layer over asyncio streams,
* :mod:`repro.serve.jobs`    -- one request as a task for the supervised
  worker pool the sweeps run on (:class:`repro.sweep.supervisor.WorkerPool`),
* :mod:`repro.serve.cache`   -- the crash-safe ``repro-cache-v1`` journal,
* :mod:`repro.serve.breaker` -- the per-fingerprint circuit breaker,
* :mod:`repro.serve.server`  -- admission control, coalescing, degradation,
  graceful drain, ``/healthz`` + ``/metrics``,
* :mod:`repro.serve.cli`     -- the ``repro-serve`` entry point,
* :mod:`repro.serve.smoke`   -- the CI cache-consistency + chaos smoke.

See ``docs/serving.md`` for the API and the operational semantics.
"""

from repro.serve.breaker import CircuitBreaker
from repro.serve.cache import (
    CACHE_SCHEMA,
    ResultCache,
    canonical_json,
    load_cache,
    request_fingerprint,
)
from repro.serve.jobs import AnalysisJob, analysis_options
from repro.serve.server import AnalysisServer, Metrics, ServerConfig

__all__ = [
    "AnalysisJob",
    "AnalysisServer",
    "CACHE_SCHEMA",
    "CircuitBreaker",
    "Metrics",
    "ResultCache",
    "ServerConfig",
    "analysis_options",
    "canonical_json",
    "load_cache",
    "request_fingerprint",
]
