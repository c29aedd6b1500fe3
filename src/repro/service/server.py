"""The asyncio HTTP solver server (``repro serve``).

A dependency-free HTTP/1.1 front end over the declarative facade: specs
go in as JSON, jobs come back as JSON, progress streams out as
Server-Sent Events.  One connection per request (``Connection: close``),
which keeps the protocol surface tiny and is plenty for a solver whose
unit of work is seconds, not microseconds.

Endpoints
---------
``POST /solve``
    body = a :class:`~repro.api.SolverSpec` JSON dict.  202 with
    ``{job_id, state, cached}`` (200 when idempotency already has the
    result), 400 on spec errors, 429 + ``Retry-After`` when the worker
    pool is saturated.  Engines tagged ``heuristic=True`` (``neh``,
    ``johnson``, ``spt``, ``edd``) take the *fast-answer tier*: the
    deterministic millisecond solve runs inline and the response is an
    immediate 200 with the finished result -- no worker-pool round trip,
    no queue slot consumed.
``POST /sweep``
    body = a :class:`~repro.api.ScenarioSweep` JSON dict; expands,
    deduplicates, submits every spec.  All-or-nothing admission: 429 when
    the expansion does not fit the pool's free capacity.
``GET /jobs/{id}`` / ``DELETE /jobs/{id}``
    status+result retrieval / cancel (only queued jobs are cancellable;
    running ones answer 409).
``GET /jobs/{id}/stream``
    SSE: replays buffered per-generation stats, then live events until
    the job reaches a terminal state (``event:`` = ``running``,
    ``generation``, ``done``, ``failed``, ``cancelled``).
``POST /sessions`` / ``GET|DELETE /sessions/{id}`` /
``POST /sessions/{id}/events``
    event-driven dynamic scheduling (see
    :mod:`repro.service.sessions`).
``GET /healthz`` / ``GET /metrics``
    liveness / jobs-by-state, cache hit rate, queue depth and the
    solve-latency histogram.

Threading model: the :class:`~repro.service.jobs.JobStore` and
:class:`~repro.service.sessions.SessionStore` are confined to the event
loop.  Worker-pool completion callbacks and progress-drain events arrive
on foreign threads and are bridged in with ``call_soon_threadsafe``;
session GA solves run on the loop's executor under a per-session lock.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import threading
import time
from http import HTTPStatus
from typing import Any

from ..api.registry import SpecError
from ..api.spec import SolverSpec
from ..api.sweep import ScenarioSweep
from .jobs import Job, JobStore, job_id_for
from .pool import PoolSaturated, WorkerPool, solve_outcome
from .sessions import SessionStore

__all__ = ["SolverServer", "serve_in_thread", "ServerHandle"]


class _HttpError(Exception):
    """Internal: raise anywhere in a route to emit a JSON error response."""

    def __init__(self, status: int, message: str,
                 headers: tuple[tuple[str, str], ...] = ()):
        super().__init__(message)
        self.status = status
        self.headers = headers


class SolverServer:
    """One solver service: HTTP front, worker pool, job/session stores."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8080,
                 workers: int = 2, queue_depth: int = 16,
                 cache_size: int = 256, max_sessions: int = 64):
        self.host = host
        self.port = port
        self.jobs = JobStore(cache_size=cache_size)
        self.sessions = SessionStore(max_sessions=max_sessions)
        self._workers = workers
        self._queue_depth = queue_depth
        self.pool: WorkerPool | None = None
        self._session_locks: dict[str, asyncio.Lock] = {}
        self._job_changed: dict[str, asyncio.Event] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self.started = time.time()

    # -- lifecycle ---------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and start the pool; idempotent-free, call once."""
        self._loop = asyncio.get_running_loop()
        self.pool = WorkerPool(workers=self._workers,
                               queue_depth=self._queue_depth,
                               on_event=functools.partial(
                                   self._call_on_loop,
                                   self._apply_worker_event))
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until cancelled; calls :meth:`start` first if needed."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        finally:
            await self.close()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None
        # wake any SSE streamer still waiting so connections drain
        for event in self._job_changed.values():
            event.set()

    # -- worker bridge (foreign threads -> event loop) ---------------------------
    def _call_on_loop(self, callback, *args) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(callback, *args)

    def _apply_worker_event(self, event: dict[str, Any]) -> None:
        job_id = event.get("job_id")
        if event.get("event") == "running":
            self.jobs.mark_running(job_id)
        else:
            self.jobs.record_progress(job_id, event)
        self._notify_job(job_id)

    def _on_job_done(self, job_id: str, future) -> None:
        """Completion callback (drain thread, after the job's last progress
        event) -> loop-confined finish, queued behind every frame."""
        if not future.cancelled():
            self._call_on_loop(self._finish_job, job_id, future.result())

    def _finish_job(self, job_id: str, outcome: dict[str, Any]) -> None:
        self.jobs.finish(job_id, outcome)
        self._notify_job(job_id)

    def _notify_job(self, job_id: str) -> None:
        event = self._job_changed.get(job_id)
        if event is not None:
            event.set()

    # -- submission core ---------------------------------------------------------
    def _retry_after(self) -> int:
        """Seconds until a queue slot should free up (Retry-After)."""
        pool = self.pool
        waiting = pool.pending if pool is not None else 1
        per_slot = self.jobs.mean_latency(default=1.0)
        return max(1, math.ceil(per_slot * waiting / max(1, pool.workers)))

    def _submit_spec(self, spec_dict: dict[str, Any]) -> tuple[Job, bool]:
        """Validate + dedupe + admit one spec; raises _HttpError on 400/429."""
        try:
            spec = SolverSpec.from_dict(spec_dict)
            spec.validate()
        except SpecError as exc:
            raise _HttpError(400, str(exc)) from exc
        job, created = self.jobs.submit(spec.to_dict(), spec.cache_key())
        if not created:
            return job, False
        if self._is_heuristic(spec.engine):
            # fast-answer tier: constructive heuristics are deterministic
            # millisecond solves, so running them inline (and answering
            # POST /solve with the finished result) beats paying a worker
            # process round trip; the pool stays free for real GA runs
            self._run_inline(job)
            return job, True
        try:
            future = self.pool.submit(job.id, job.spec)
        except PoolSaturated as exc:
            # roll the phantom job back out of the store
            self.jobs.cancel(job.id)
            raise _HttpError(
                429, f"{exc}; retry later",
                headers=(("Retry-After", str(self._retry_after())),)
            ) from exc
        future.add_done_callback(functools.partial(self._on_job_done, job.id))
        return job, True

    @staticmethod
    def _is_heuristic(engine: str) -> bool:
        """True for engines tagged ``heuristic=True`` (fast-tier eligible)."""
        from ..api.registry import engine_entry
        try:
            return bool(engine_entry(engine).tags.get("heuristic"))
        except SpecError:
            return False

    def _run_inline(self, job: Job) -> None:
        """Solve a fast-tier job on the serving thread, worker-outcome shaped."""
        self.jobs.mark_running(job.id)
        # _submit_spec already validated the spec
        self.jobs.finish(job.id, solve_outcome(job.spec, validate=False))
        self._notify_job(job.id)

    # -- routes ------------------------------------------------------------------
    async def _route(self, method: str, path: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        parts = [p for p in path.split("?")[0].split("/") if p]
        if method == "GET" and parts == ["healthz"]:
            return _respond(writer, 200, {
                "status": "ok", "workers": self.pool.workers,
                "queue_depth": self.pool.queue_depth,
                "restarts": self.pool.restarts,
                "uptime": time.time() - self.started})
        if method == "GET" and parts == ["metrics"]:
            return _respond(writer, 200, self._metrics())
        if method == "POST" and parts == ["solve"]:
            job, created = self._submit_spec(_parse_json(body))
            status = 202 if not job.terminal else 200
            return _respond(writer, status, {
                "job_id": job.id, "state": job.state,
                "cached": not created,
                **({"result": job.result} if job.state == "done" else {})})
        if method == "POST" and parts == ["sweep"]:
            return self._post_sweep(_parse_json(body), writer)
        if parts and parts[0] == "jobs":
            return await self._route_jobs(method, parts, writer)
        if parts and parts[0] == "sessions":
            return await self._route_sessions(method, parts, body, writer)
        raise _HttpError(404, f"no route for {method} {path}")

    def _post_sweep(self, data: dict[str, Any],
                    writer: asyncio.StreamWriter) -> None:
        try:
            sweep = ScenarioSweep.from_dict(data)
            specs = sweep.specs()
        except SpecError as exc:
            raise _HttpError(400, str(exc)) from exc
        raw = len(sweep)
        # all-or-nothing admission: count the specs that would need a
        # worker slot (no live job under their key), and refuse the whole
        # batch if they don't fit -- a half-admitted sweep is worse than a
        # clean 429
        need = 0
        for spec in specs:
            if self._is_heuristic(spec.engine):
                continue  # fast tier: answered inline, needs no pool slot
            job = self.jobs.get(job_id_for(spec.cache_key()))
            if job is None or job.state in ("failed", "cancelled"):
                need += 1
        free = self.pool.capacity - self.pool.pending
        if need > free:
            raise _HttpError(
                429, f"sweep needs {need} pool slot(s), {free} free",
                headers=(("Retry-After", str(self._retry_after())),))
        out = []
        for spec in specs:
            job, created = self._submit_spec(spec.to_dict())
            out.append({"job_id": job.id, "state": job.state,
                        "cached": not created})
        return _respond(writer, 202, {
            "jobs": out, "submitted": len(out),
            "deduplicated": raw - len(specs),
            "cached": sum(1 for j in out if j["cached"])})

    async def _route_jobs(self, method: str, parts: list[str],
                          writer: asyncio.StreamWriter) -> None:
        if len(parts) < 2:
            raise _HttpError(404, "job id required")
        job = self.jobs.get(parts[1])
        if job is None:
            raise _HttpError(404, f"unknown job {parts[1]!r}")
        if method == "GET" and len(parts) == 2:
            return _respond(writer, 200, job.to_dict())
        if method == "GET" and parts[2:] == ["stream"]:
            return await self._stream_job(job, writer)
        if method == "DELETE" and len(parts) == 2:
            if job.terminal:
                return _respond(writer, 200, {"job_id": job.id,
                                              "state": job.state})
            if self.pool.cancel(job.id):
                self.jobs.cancel(job.id)
                self._notify_job(job.id)
                return _respond(writer, 200, {"job_id": job.id,
                                              "state": job.state})
            raise _HttpError(409, f"job {job.id} is {job.state}; a "
                                  f"running solve cannot be preempted")
        raise _HttpError(404, f"no route for {method} on jobs")

    async def _stream_job(self, job: Job,
                          writer: asyncio.StreamWriter) -> None:
        """SSE: replay buffered progress, then follow until terminal."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n")
        changed = self._job_changed.setdefault(job.id, asyncio.Event())
        sent = 0
        running_sent = False
        try:
            while True:
                # clear *before* reading, so anything appended during the
                # drain await below re-sets the flag and wait() returns
                # immediately instead of stalling one event behind
                changed.clear()
                if not running_sent and job.state != "queued":
                    _sse(writer, "running", {"job_id": job.id})
                    running_sent = True
                while sent < len(job.progress):
                    _sse(writer, "generation", job.progress[sent])
                    sent += 1
                await writer.drain()
                if job.terminal:
                    break
                await changed.wait()
            summary = {"job_id": job.id, "state": job.state,
                       "elapsed": job.elapsed}
            if job.state == "done":
                report = job.result or {}
                summary["best_objective"] = report.get("best_objective")
                summary["generations"] = report.get("generations")
            elif job.error is not None:
                summary["error"] = job.error
            _sse(writer, job.state, summary)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-stream; nothing to clean up
        finally:
            # drop the wakeup event once the job can never fire it again
            if job.terminal:
                self._job_changed.pop(job.id, None)

    async def _route_sessions(self, method: str, parts: list[str],
                              body: bytes,
                              writer: asyncio.StreamWriter) -> None:
        loop = asyncio.get_running_loop()
        if method == "POST" and len(parts) == 1:
            try:
                session = self.sessions.create(_parse_json(body))
            except SpecError as exc:
                raise _HttpError(400, str(exc)) from exc
            lock = self._session_locks.setdefault(session.id,
                                                  asyncio.Lock())
            async with lock:
                plan = await loop.run_in_executor(None, session.start)
            return _respond(writer, 201,
                            {"session_id": session.id,
                             "instance": session.instance_name, **plan})
        if len(parts) < 2:
            raise _HttpError(404, "session id required")
        session = self.sessions.get(parts[1])
        if session is None:
            raise _HttpError(404, f"unknown session {parts[1]!r}")
        if method == "GET" and len(parts) == 2:
            return _respond(writer, 200, session.to_dict())
        if method == "DELETE" and len(parts) == 2:
            self.sessions.delete(session.id)
            self._session_locks.pop(session.id, None)
            return _respond(writer, 200, {"session_id": session.id,
                                          "state": "deleted"})
        if method == "POST" and parts[2:] == ["events"]:
            payload = _parse_json(body)
            lock = self._session_locks.setdefault(session.id,
                                                  asyncio.Lock())
            async with lock:
                try:
                    result = await loop.run_in_executor(
                        None, session.handle, payload)
                except SpecError as exc:
                    raise _HttpError(400, str(exc)) from exc
            return _respond(writer, 200, result)
        raise _HttpError(404, f"no route for {method} on sessions")

    def _metrics(self) -> dict[str, Any]:
        pool = self.pool
        return {
            **self.jobs.metrics(),
            "queue": {"workers": pool.workers,
                      "queue_depth_limit": pool.queue_depth,
                      "capacity": pool.capacity,
                      "pending": pool.pending,
                      "waiting": pool.waiting,
                      "restarts": pool.restarts},
            "sessions": self.sessions.metrics(),
            "uptime": time.time() - self.started,
        }

    # -- connection handling -----------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            method, path, body = await _read_request(reader)
        except (_HttpError, asyncio.IncompleteReadError, ValueError):
            writer.close()
            return
        try:
            await self._route(method, path, body, writer)
        except _HttpError as exc:
            _respond(writer, exc.status, {"error": str(exc)},
                     headers=exc.headers)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except Exception as exc:  # noqa: BLE001 - last-resort 500; the
            # server must survive any single request
            _respond(writer, 500,
                     {"error": f"{type(exc).__name__}: {exc}"})
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


# -- wire helpers ----------------------------------------------------------------

_MAX_BODY = 16 * 1024 * 1024


async def _read_request(reader: asyncio.StreamReader
                        ) -> tuple[str, str, bytes]:
    request_line = await reader.readline()
    try:
        method, path, _version = request_line.decode("ascii").split()
    except ValueError as exc:
        raise ValueError(f"malformed request line "
                         f"{request_line!r}") from exc
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or 0)
    if length < 0 or length > _MAX_BODY:
        raise ValueError(f"bad content-length {length}")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), path, body


def _parse_json(body: bytes) -> dict[str, Any]:
    try:
        data = json.loads(body.decode("utf-8") or "null")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _HttpError(400, f"body is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise _HttpError(400, f"body must be a JSON object, got "
                              f"{type(data).__name__}")
    return data


def _respond(writer: asyncio.StreamWriter, status: int,
             payload: dict[str, Any],
             headers: tuple[tuple[str, str], ...] = ()) -> None:
    body = json.dumps(payload).encode("utf-8")
    phrase = HTTPStatus(status).phrase
    head = (f"HTTP/1.1 {status} {phrase}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n")
    for name, value in headers:
        head += f"{name}: {value}\r\n"
    writer.write(head.encode("ascii") + b"\r\n" + body)


def _sse(writer: asyncio.StreamWriter, event: str,
         data: dict[str, Any]) -> None:
    """One Server-Sent Event frame: ``event:`` name + JSON ``data:``."""
    writer.write(f"event: {event}\ndata: {json.dumps(data)}\n\n"
                 .encode("utf-8"))


# -- embedding helper (tests, benchmarks, notebooks) ------------------------------

class ServerHandle:
    """A running server on a background thread; ``stop()`` tears it down."""

    def __init__(self, server: SolverServer, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop):
        self.server = server
        self._thread = thread
        self._loop = loop

    @property
    def base_url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def stop(self, timeout: float = 10.0) -> None:
        loop = self._loop
        if loop.is_closed():
            return
        closed = asyncio.run_coroutine_threadsafe(self.server.close(), loop)
        try:
            closed.result(timeout=timeout)
        except Exception:  # noqa: BLE001 - tear the loop down regardless
            pass
        loop.call_soon_threadsafe(loop.stop)
        self._thread.join(timeout=timeout)


def serve_in_thread(host: str = "127.0.0.1", port: int = 0,
                    **kwargs: Any) -> ServerHandle:
    """Start a :class:`SolverServer` on a daemon thread; returns a handle.

    ``port=0`` binds an ephemeral port (read it back from
    ``handle.server.port``).  The embedding seam used by the test suite,
    the service benchmark, and anyone wanting an in-process server.
    """
    server = SolverServer(host=host, port=port, **kwargs)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: list[BaseException] = []

    def runner() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # noqa: BLE001 - surfaced to caller
            failure.append(exc)
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(target=runner, name="repro-service-http",
                              daemon=True)
    thread.start()
    if not started.wait(timeout=30.0):
        raise RuntimeError("server failed to start within 30s")
    if failure:
        raise failure[0]
    return ServerHandle(server, thread, loop)
