"""The supervised process pool that runs solver specs.

The one master-slave dispatcher for whole solver runs, shared by the HTTP
service and :class:`~repro.api.SolverService` sweeps.  Admission is capped
at ``workers + queue_depth`` jobs (:class:`PoolSaturated` -> HTTP 429).
A job's progress frames end with an ``end`` marker on one pipe, and its
future resolves only once the drain thread has forwarded that marker.
When a worker dies, the pool writes the marker for it, rebuilds the
executor once (``restarts``) and re-runs each lost job once, alone.
"""

from __future__ import annotations

import functools
import multiprocessing
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["PoolSaturated", "WorkerPool", "solve_outcome", "run_job"]


class PoolSaturated(RuntimeError):
    """The pool's admission cap (workers + queue depth) is reached."""

    def __init__(self, capacity: int, pending: int):
        super().__init__(f"worker pool saturated: {pending} job(s) "
                         f"in flight >= capacity {capacity}")
        self.capacity = capacity
        self.pending = pending


def solve_outcome(spec: dict[str, Any], observers: tuple = (),
                  validate: bool = True) -> dict[str, Any]:
    """Solve one spec into ``{ok, report | error, elapsed}``; never raises."""
    from ..api.facade import solve
    t0 = time.perf_counter()
    try:
        report = solve(spec, observers=observers, validate=validate)
        return {"ok": True, "report": report.to_dict(),
                "elapsed": time.perf_counter() - t0}
    except Exception as exc:  # noqa: BLE001 - becomes the job's failure
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}",
                "elapsed": time.perf_counter() - t0}


# Write end of the pool's event pipe in a worker, ``None`` elsewhere.
# Events stay far below PIPE_BUF (4096 bytes), so every write is atomic:
# workers share the pipe without a lock that a killed worker could hold.
_EVENTS = None


def _init_worker(events) -> None:
    global _EVENTS
    _EVENTS = events
    # Workers are long-lived: memoise resolved instances (and with them
    # the decode tables lazily attached to instance objects) so repeat
    # jobs on the same instance skip table construction entirely.
    from ..api.components import enable_instance_cache
    enable_instance_cache(maxsize=32)


def _generation_frame(job_id: str, generation, population, evaluations,
                      elapsed, **extra) -> None:
    stats = population.stats()
    _EVENTS.send({"event": "generation", "job_id": job_id,
                  "generation": int(generation),
                  "best": float(stats.best), "mean": float(stats.mean),
                  "std": float(stats.std), "worst": float(stats.worst),
                  "evaluations": int(evaluations),
                  "elapsed": float(elapsed)})


def run_job(job_id: str, spec: dict[str, Any],
            progress: bool = True) -> dict[str, Any]:
    """The one task that solves a spec, in a pool worker or in process;
    with ``progress`` in a worker, it sends the ``running`` event, one frame
    per generation and the ``end`` marker down the pool's pipe, in order."""
    if not progress or _EVENTS is None:
        return solve_outcome(spec)
    from ..core.observers import CallbackObserver
    _EVENTS.send({"event": "running", "job_id": job_id})
    outcome = solve_outcome(spec, (CallbackObserver(
        functools.partial(_generation_frame, job_id)),))
    _EVENTS.send({"event": "end", "job_id": job_id})
    return outcome


@dataclass
class _Job:
    future: Future
    streams: bool                 # frames still expected, up to "end"
    work: Future | None = None    # the executor's future
    outcome: dict[str, Any] | None = None


class WorkerPool:
    """Supervised process pool with bounded admission and ordered events.

    Parameters
    ----------
    workers:
        solver processes.
    queue_depth:
        jobs allowed to *wait* beyond the ones running; admission
        capacity is ``workers + queue_depth``.
    on_event:
        callback for ``running`` and ``generation`` events; invoked on
        the drain thread, so implementations must be thread-safe (the
        server bridges into the event loop with ``call_soon_threadsafe``).
        Without one, workers send no progress at all.
    """

    def __init__(self, workers: int = 2, queue_depth: int = 16,
                 on_event: Callable[[dict[str, Any]], None] | None = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        self.workers = workers
        self.queue_depth = queue_depth
        self.capacity = workers + queue_depth
        self.on_event = on_event
        #: times the shared executor was rebuilt after a worker died
        self.restarts = 0
        self._ctx = multiprocessing.get_context()
        self._reader, self._writer = self._ctx.Pipe(duplex=False)
        self._executor = self._new_executor(workers)
        # isolated retries run at most ``workers`` processes at a time
        self._retry_slots = threading.BoundedSemaphore(workers)
        self._lock = threading.Lock()
        self._jobs: dict[str, _Job] = {}
        self._closed = False
        threading.Thread(target=self._drain_loop, daemon=True,
                         name="repro-service-progress").start()

    def _new_executor(self, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers, mp_context=self._ctx,
            initializer=_init_worker, initargs=(self._writer,))

    # -- admission ---------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Jobs admitted and not yet finished (running + waiting)."""
        with self._lock:
            return len(self._jobs)

    @property
    def waiting(self) -> int:
        """Admitted jobs beyond the worker count (the queue depth now)."""
        return max(0, self.pending - self.workers)

    def submit(self, job_id: str, spec: dict[str, Any]) -> Future:
        """Admit one job (:class:`PoolSaturated` beyond capacity); the
        returned future resolves to its outcome dict."""
        streams = self.on_event is not None
        job = _Job(Future(), streams)
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is shut down")
            if len(self._jobs) >= self.capacity:
                raise PoolSaturated(self.capacity, len(self._jobs))
            self._jobs[job_id] = job
            executor = self._executor
        args = (run_job, job_id, spec, streams)
        try:
            try:
                work = executor.submit(*args)
            except BrokenProcessPool:  # a worker died since the last job
                executor = self._rebuild(executor)
                work = executor.submit(*args)
        except BaseException:
            with self._lock:
                self._jobs.pop(job_id, None)
            raise
        job.work = work
        work.add_done_callback(functools.partial(
            self._on_work_done, job_id, spec, executor))
        return job.future

    def cancel(self, job_id: str) -> bool:
        """Cancel a job no worker has taken yet; ``False`` once it runs."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.work is None or not job.work.cancel():
                return False
            del self._jobs[job_id]
        return job.future.cancel()

    def _advance(self, job_id: str,
                 outcome: dict[str, Any] | None = None) -> None:
        """Record a job's outcome, or with ``None`` the end of its frames;
        resolve its future once it has both."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None and outcome is None:
                job.streams = False
            elif job is not None:
                job.outcome = outcome
            if job is None or job.streams or job.outcome is None:
                return
            del self._jobs[job_id]
        job.future.set_result(job.outcome)

    # -- supervision -----------------------------------------------------------
    def _on_work_done(self, job_id: str, spec: dict[str, Any],
                      executor: ProcessPoolExecutor, work: Future) -> None:
        if work.cancelled():
            return  # cancel() or shutdown() settled the job
        if work.exception() is None:
            return self._advance(job_id, work.result())
        # the dead worker's frames are all in the pipe: close them
        self._writer.send({"event": "end", "job_id": job_id})
        if isinstance(work.exception(), BrokenProcessPool):
            self._rebuild(executor)
        threading.Thread(target=self._retry, args=(job_id, spec),
                         name="repro-service-retry", daemon=True).start()

    def _rebuild(self, broken: ProcessPoolExecutor) -> ProcessPoolExecutor:
        """Replace a broken shared executor once; returns the current one."""
        with self._lock:
            if self._executor is broken and not self._closed:
                self._executor = self._new_executor(self.workers)
                self.restarts += 1
            return self._executor

    def _retry(self, job_id: str, spec: dict[str, Any]) -> None:
        """Re-run a lost job once, alone and without progress frames (a
        stream never repeats a generation); a second death fails the job."""
        with self._retry_slots:
            with self._lock:
                if job_id not in self._jobs:  # resolved, or shut down
                    return
            try:
                with self._new_executor(1) as solo:
                    outcome = solo.submit(run_job, job_id, spec,
                                          False).result()
            except Exception as exc:  # noqa: BLE001 - the retry died too
                outcome = {"ok": False, "error": (
                    f"{type(exc).__name__}: worker process died "
                    f"({exc or 'no diagnostic'})")}
            self._advance(job_id, outcome)

    # -- the ordered channel ---------------------------------------------------
    def _drain_loop(self) -> None:
        while True:
            try:
                event = self._reader.recv()
            except (EOFError, OSError):
                return
            if event is None:  # the pipe closes when the pool is collected
                return
            if event["event"] == "end":
                self._advance(event["job_id"])
                continue
            try:  # progress is only sent when there is an on_event
                self.on_event(event)
            except Exception:  # noqa: BLE001 - a bad consumer must not
                pass           # kill the drain for every other job

    def shutdown(self) -> None:
        """Stop accepting work and cancel every unfinished job; the drain
        runs on until running jobs end, so no worker blocks on the pipe."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            jobs, self._jobs = self._jobs, {}
            executor = self._executor
        executor.shutdown(wait=False, cancel_futures=True)
        for job in jobs.values():
            job.future.cancel()
        running = [job.work for job in jobs.values() if job.work is not None]
        threading.Thread(target=lambda: (wait(running),
                                         self._writer.send(None)),
                         name="repro-service-close", daemon=True).start()
