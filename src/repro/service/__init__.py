"""Solver-as-a-service: the async HTTP layer above the declarative facade.

The service turns ``repro.solve`` into network infrastructure -- the
workload shape of Luo & El Baz's *online* dynamic flow shop work
(re-solving against arriving jobs and breakdowns) -- with nothing beyond
the stdlib: ``asyncio`` for the HTTP front, ``multiprocessing`` for the
solver pool, ``json`` on the wire.

* :mod:`repro.service.jobs` -- job lifecycle (queued -> running ->
  done/failed/cancelled), idempotent job keys
  (:meth:`repro.api.SolverSpec.cache_key`), and the LRU result cache that
  serves repeat traffic without re-solving.
* :mod:`repro.service.pool` -- the supervised process pool (shared with
  sweeps): a queue-depth limit (HTTP 429), one ordered progress channel
  per job, and recovery from dead workers.
* :mod:`repro.service.sessions` -- event-driven dynamic sessions over
  :class:`~repro.extensions.dynamic.PredictiveReactiveScheduler`.
* :mod:`repro.service.server` -- the asyncio endpoints (``/solve``,
  ``/sweep``, ``/jobs/{id}``, SSE ``/jobs/{id}/stream``, ``/sessions``,
  ``/healthz``, ``/metrics``) behind ``repro serve``.
"""

from .jobs import Job, JobStore
from .pool import PoolSaturated, WorkerPool
from .server import SolverServer, serve_in_thread
from .sessions import SessionStore, event_from_dict

__all__ = ["Job", "JobStore", "PoolSaturated", "WorkerPool",
           "SolverServer", "serve_in_thread", "SessionStore",
           "event_from_dict"]
