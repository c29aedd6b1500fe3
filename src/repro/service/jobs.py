"""Job lifecycle, idempotent keys and the LRU result cache.

A :class:`Job` is one submitted solve moving through the lifecycle
``queued -> running -> done | failed | cancelled``.  Jobs are identified
by their spec's :meth:`~repro.api.SolverSpec.cache_key` -- solver runs
are deterministic in (resolved spec, seed), so two submissions with equal
keys are the *same* job: a duplicate submit while the first is in flight
coalesces onto it, and a duplicate after completion is served straight
from the store's result cache without re-solving.  The store is bounded:
terminal jobs beyond ``cache_size`` are evicted oldest-first (LRU on
last access), active jobs are never evicted (the worker pool's queue
depth bounds those).

The store is deliberately not thread-safe: the server confines it to the
event-loop thread and bridges pool callbacks in with
``loop.call_soon_threadsafe``.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Job", "JobStore", "JOB_STATES", "TERMINAL_STATES",
           "LATENCY_BUCKETS", "job_id_for"]

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")


def job_id_for(key: str) -> str:
    """Deterministic job id for a cache key (idempotent by construction)."""
    return "j-" + key[:16]

#: Upper edges (seconds) of the solve-latency histogram ``/metrics`` reports.
LATENCY_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
                   float("inf"))


@dataclass
class Job:
    """One solve moving through the service."""

    id: str
    key: str
    spec: dict[str, Any]
    state: str = "queued"
    submitted: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    result: dict[str, Any] | None = None
    error: str | None = None
    elapsed: float | None = None
    #: per-generation progress events (what the SSE endpoint replays)
    progress: list[dict[str, Any]] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self, include_result: bool = True) -> dict[str, Any]:
        """JSON-safe status payload (``GET /jobs/{id}``)."""
        out: dict[str, Any] = {
            "job_id": self.id, "key": self.key, "state": self.state,
            "spec": self.spec, "submitted": self.submitted,
            "started": self.started, "finished": self.finished,
            "elapsed": self.elapsed, "generations_seen": len(self.progress),
        }
        if self.error is not None:
            out["error"] = self.error
        if include_result and self.result is not None:
            out["result"] = self.result
        return out


class JobStore:
    """Bounded registry of jobs with idempotency and cache accounting."""

    def __init__(self, cache_size: int = 256):
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self.cache_size = cache_size
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        # metrics
        self.cache_hits = 0        # duplicate of a completed job
        self.coalesced = 0         # duplicate of an in-flight job
        self.cache_misses = 0      # genuinely new work
        self.solves_executed = 0   # jobs that actually reached a worker
        self._latency_counts = [0] * len(LATENCY_BUCKETS)
        self._latency_sum = 0.0
        self._latency_n = 0

    # -- submission --------------------------------------------------------------
    def submit(self, spec: dict[str, Any], key: str) -> tuple[Job, bool]:
        """Register a submission; returns ``(job, created)``.

        ``created=False`` means the submission was idempotent: the key
        matched a live job (coalesced) or a completed one (cache hit) and
        no new solve is needed.  A key whose previous job failed or was
        cancelled is retried as a fresh job (errors are not cached).
        """
        job_id = job_id_for(key)
        existing = self._jobs.get(job_id)
        if existing is not None and existing.state not in ("failed",
                                                           "cancelled"):
            if existing.state == "done":
                self.cache_hits += 1
            else:
                self.coalesced += 1
            self._jobs.move_to_end(job_id)
            return existing, False
        self.cache_misses += 1
        job = Job(id=job_id, key=key, spec=spec)
        self._jobs[job_id] = job
        self._jobs.move_to_end(job_id)  # a failed-job retry reuses the slot
        self._evict()
        return job, True

    def _evict(self) -> None:
        """Drop least-recently-touched *terminal* jobs beyond capacity."""
        excess = len(self._jobs) - self.cache_size
        if excess <= 0:
            return
        for job_id in [jid for jid, job in self._jobs.items()
                       if job.terminal][:excess]:
            del self._jobs[job_id]

    # -- lifecycle transitions ---------------------------------------------------
    def get(self, job_id: str) -> Job | None:
        job = self._jobs.get(job_id)
        if job is not None:
            self._jobs.move_to_end(job_id)
        return job

    def mark_running(self, job_id: str) -> None:
        job = self._jobs.get(job_id)
        if job is not None and job.state == "queued":
            job.state = "running"
            job.started = time.time()

    def record_progress(self, job_id: str, event: dict[str, Any]) -> None:
        job = self._jobs.get(job_id)
        if job is not None and not job.terminal:
            job.progress.append(event)

    def finish(self, job_id: str, outcome: dict[str, Any]) -> None:
        """Apply a worker outcome (the dict ``pool.solve_outcome`` returns)."""
        job = self._jobs.get(job_id)
        if job is None or job.terminal:
            return
        job.finished = time.time()
        job.elapsed = outcome.get("elapsed")
        self.solves_executed += 1
        if outcome.get("ok"):
            job.state = "done"
            job.result = outcome.get("report")
        else:
            job.state = "failed"
            job.error = outcome.get("error", "unknown worker failure")
        if job.elapsed is not None:
            self._observe_latency(float(job.elapsed))

    def cancel(self, job_id: str) -> bool:
        """Mark a *queued* job cancelled; running jobs are not preemptible."""
        job = self._jobs.get(job_id)
        if job is None or job.state != "queued":
            return False
        job.state = "cancelled"
        job.finished = time.time()
        return True

    # -- metrics -----------------------------------------------------------------
    def _observe_latency(self, seconds: float) -> None:
        self._latency_sum += seconds
        self._latency_n += 1
        for i, edge in enumerate(LATENCY_BUCKETS):
            if seconds <= edge:
                self._latency_counts[i] += 1
                break

    def states(self) -> dict[str, int]:
        counts = dict.fromkeys(JOB_STATES, 0)
        for job in self._jobs.values():
            counts[job.state] += 1
        return counts

    def metrics(self) -> dict[str, Any]:
        """The ``/metrics`` payload fragment this store owns."""
        lookups = self.cache_hits + self.coalesced + self.cache_misses
        buckets = {("+inf" if edge == float("inf") else f"{edge:g}"): count
                   for edge, count in zip(LATENCY_BUCKETS,
                                          self._latency_counts)}
        return {
            "jobs": self.states(),
            "cache": {
                "hits": self.cache_hits,
                "coalesced": self.coalesced,
                "misses": self.cache_misses,
                "hit_rate": ((self.cache_hits + self.coalesced) / lookups
                             if lookups else 0.0),
                "size": len(self._jobs),
                "capacity": self.cache_size,
            },
            "solves_executed": self.solves_executed,
            "solve_latency": {
                "count": self._latency_n,
                "mean": (self._latency_sum / self._latency_n
                         if self._latency_n else 0.0),
                "buckets": buckets,
            },
        }

    def mean_latency(self, default: float = 1.0) -> float:
        """Average solve wall time so far (the Retry-After estimate)."""
        return (self._latency_sum / self._latency_n if self._latency_n
                else default)
