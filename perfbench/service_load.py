"""The service workload: closed-loop clients against ``repro serve``.

An in-process server (``serve_in_thread``, one worker process) takes two
client threads.  Each client repeats a cycle of nine requests and sends
the next one only when the previous one has its result:

* six GA jobs (simple, array substrate, population 60, 60 generations,
  distinct seeds, cycling the three instances), which run on the worker
  pool; the client follows ``GET /jobs/{id}/stream`` to the terminal
  event, then fetches the result;
* two NEH jobs on the job shop, answered inline by the fast tier;
* one resubmit of the cycle's first spec, answered from the cache.

NEH (~12 ms of compute) outnumbers cache hits (~1 ms, mostly scheduling
jitter) two to one, so the fast tier's median is an NEH time rather than
a point on the edge between the two.  NEH on the 50-job flow shop is
left out: it holds the event loop for ~0.2 s and would put a random
share of pool jobs into the latency tail.  Rates and medians come from
the best of four consecutive slices of the run: other tenants of a
shared machine only ever slow it down, in bursts of a few seconds.
Every returned best genome is re-decoded and audited after the run.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.service import serve_in_thread

from common import INSTANCES, References, median, percentile
from tracer import Tracer, api_layer

CLIENTS = 2
WORKERS = 1
GA = {"population_size": 60}
TERMINATION = {"max_generations": 60}
CYCLE = ("ga", "ga", "ga", "neh", "ga", "ga", "ga", "neh", "resubmit")
SLICES = 4
NEH_INSTANCE = "ft10-shaped"
TERMINAL = ("done", "failed", "cancelled")
TIMEOUT = 60.0


def _http(base: str, method: str, path: str,
          payload: dict | None = None) -> tuple[int, dict]:
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=TIMEOUT) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        body = exc.read()
        exc.close()
        return exc.code, json.loads(body or b"{}")


def _follow(base: str, job_id: str) -> str:
    """Read the job's SSE stream to the end; returns the terminal event."""
    state = ""
    with urllib.request.urlopen(f"{base}/jobs/{job_id}/stream",
                                timeout=TIMEOUT) as resp:
        for raw in resp:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("event: ") and line[7:] in TERMINAL:
                state = line[7:]
    return state


@dataclass
class Request:
    kind: str
    instance: str
    t0: float
    t_admit: float = 0.0
    t_end: float = 0.0
    tier: str = ""            # "pool" or "fast"
    job_id: str = ""
    result: dict[str, Any] | None = None
    error: str | None = None


@dataclass
class JobClock:
    """Server-side timestamps, taken by wrappers around the job store."""

    submitted: dict[str, float] = field(default_factory=dict)
    running: dict[str, float] = field(default_factory=dict)
    finished: dict[str, float] = field(default_factory=dict)
    solve_s: dict[str, float] = field(default_factory=dict)
    frames: int = 0
    dropped: int = 0

    def install(self, tracer: Tracer) -> None:
        from repro.service.jobs import JobStore
        from repro.service.pool import WorkerPool
        clock, now = self, time.perf_counter
        submit = WorkerPool.__dict__["submit"]
        mark_running = JobStore.__dict__["mark_running"]
        record_progress = JobStore.__dict__["record_progress"]
        finish = JobStore.__dict__["finish"]

        def traced_submit(pool, job_id, spec):
            clock.submitted[job_id] = now()
            return submit(pool, job_id, spec)

        def traced_mark_running(store, job_id):
            if job_id in clock.submitted and job_id not in clock.running:
                clock.running[job_id] = now()
            return mark_running(store, job_id)

        def traced_record_progress(store, job_id, event):
            clock.frames += 1
            # peek without the LRU touch JobStore.get would make
            job = store._jobs.get(job_id)
            clock.dropped += job is None or job.terminal
            return record_progress(store, job_id, event)

        def traced_finish(store, job_id, outcome):
            if job_id in clock.submitted:
                clock.finished[job_id] = now()
                clock.solve_s[job_id] = float(outcome.get("elapsed") or 0.0)
            return finish(store, job_id, outcome)

        tracer.patch(WorkerPool, "submit", traced_submit)
        tracer.patch(JobStore, "mark_running", traced_mark_running)
        tracer.patch(JobStore, "record_progress", traced_record_progress)
        tracer.patch(JobStore, "finish", traced_finish)


class ServiceWorkload:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.refs = References()
        self.handle = serve_in_thread(workers=WORKERS)
        self.base = self.handle.base_url
        self.streams = [random.Random(f"{workload}:{seed}:{client}")
                        for client in range(CLIENTS)]
        self.attempted = 0
        self.failures: list[str] = []
        try:
            self._warm_up()
        except BaseException:
            self.close()
            raise

    def _warm_up(self) -> None:
        """Spawn the worker and let it memoise every instance."""
        for instance in INSTANCES:
            status, body = _http(self.base, "POST", "/solve", {
                "instance": instance, "substrate": "array", "seed": 0,
                "ga": {"population_size": 10},
                "termination": {"max_generations": 2}})
            if status not in (200, 202):
                raise RuntimeError(f"warm-up POST answered {status}: {body}")
            deadline = time.monotonic() + TIMEOUT
            while body.get("state") not in TERMINAL:
                if time.monotonic() > deadline:
                    raise RuntimeError("warm-up job did not finish")
                time.sleep(0.01)
                _, body = _http(self.base, "GET", f"/jobs/{body['job_id']}")
            if body["state"] != "done":
                raise RuntimeError(f"warm-up job ended {body['state']}")

    def close(self) -> None:
        self.handle.stop()
        for child in multiprocessing.active_children():
            child.join(timeout=10)
            if child.is_alive():
                child.terminate()
                child.join(timeout=5)

    # -- clients ---------------------------------------------------------------------
    def _spec(self, client: int, kind: str, history: list[dict]) -> dict:
        rng = self.streams[client]
        if kind == "resubmit":
            return history[0]
        if kind == "neh":
            return {"instance": NEH_INSTANCE,
                    "engine": "neh", "seed": rng.randrange(2 ** 31)}
        spec = {"instance": INSTANCES[len(history) % len(INSTANCES)],
                "engine": "simple", "substrate": "array", "ga": dict(GA),
                "termination": dict(TERMINATION),
                "seed": rng.randrange(2 ** 31)}
        history.append(spec)
        return spec

    def _request(self, kind: str, spec: dict) -> Request:
        req = Request(kind, spec["instance"], time.perf_counter())
        try:
            status, body = _http(self.base, "POST", "/solve", spec)
            req.t_admit = time.perf_counter()
            if status not in (200, 202):
                req.error = f"POST /solve answered {status}: {body}"
            elif body.get("state") == "done":
                req.tier, req.result = "fast", body["result"]
            else:
                req.tier, req.job_id = "pool", body["job_id"]
                state = _follow(self.base, req.job_id)
                status, job = _http(self.base, "GET", f"/jobs/{req.job_id}")
                if state != "done" or job.get("state") != "done":
                    req.error = (f"job {req.job_id} streamed {state!r}, "
                                 f"status {job.get('state')!r}")
                else:
                    req.result = job["result"]
        except (OSError, ValueError, KeyError) as exc:
            req.error = f"{type(exc).__name__}: {exc}"
        req.t_end = time.perf_counter()
        return req

    def _client(self, client: int, stop_at: float, start: threading.Barrier,
                out: list[Request]) -> None:
        start.wait()
        while time.perf_counter() < stop_at:
            history: list[dict] = []
            for kind in CYCLE:
                if time.perf_counter() >= stop_at:
                    break
                out.append(self._request(kind, self._spec(client, kind,
                                                          history)))

    def window(self, seconds: float) -> tuple[list[Request], float]:
        """Run both clients for ``seconds``; returns requests and wall."""
        requests: list[list[Request]] = [[] for _ in range(CLIENTS)]
        start = threading.Barrier(CLIENTS + 1)
        t0 = time.perf_counter()
        stop_at = t0 + seconds
        threads = [threading.Thread(target=self._client,
                                    args=(c, stop_at, start, requests[c]),
                                    name=f"bench-client-{c}")
                   for c in range(CLIENTS)]
        for thread in threads:
            thread.start()
        start.wait()
        t0 = time.perf_counter()
        for thread in threads:
            thread.join(timeout=seconds + 4 * TIMEOUT)
            if thread.is_alive():
                raise RuntimeError("a benchmark client did not finish")
        done = [r for client in requests for r in client]
        wall = max(r.t_end for r in done) - t0
        self._audit(done)
        return done, wall

    def _audit(self, requests: list[Request]) -> None:
        self.attempted += len(requests)
        for req in requests:
            if req.error is None:
                req.error = self.refs.check(req.instance,
                                            req.result["best_genome"],
                                            req.result["best_objective"])
            if req.error is not None:
                self.failures.append(req.error)

    # -- the two kinds of run ------------------------------------------------------
    @staticmethod
    def _tiers(requests: list[Request]) -> tuple[list, list]:
        """Successful pool jobs and fast-tier answers."""
        pool = [r for r in requests if r.error is None and r.tier == "pool"]
        fast = [r for r in requests if r.error is None and r.tier == "fast"]
        return pool, fast

    def measure(self, seconds: float) -> dict[str, float]:
        requests, wall = self.window(seconds)
        pool, fast = self._tiers(requests)
        if not pool or not fast:
            raise RuntimeError("no request succeeded: "
                               + "; ".join(self.failures[:3]))
        t0 = min(r.t0 for r in requests)
        edges = np.linspace(t0, t0 + wall, SLICES + 1)
        rates, evals, p50s, fast_p50s = [], [], [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            done = [r for r in pool if lo <= r.t_end <= hi]
            answered = [r.t_end - r.t0 for r in fast if lo <= r.t_end <= hi]
            rates.append(len(done) / (hi - lo))
            evals.append(sum(r.result["evaluations"] for r in done)
                         / (hi - lo))
            if done:
                p50s.append(percentile([r.t_end - r.t0 for r in done], 0.5))
            if answered:
                fast_p50s.append(percentile(answered, 0.5))
        p90 = percentile([r.t_end - r.t0 for r in pool], 0.9)
        print(f"# {len(requests)} requests in {wall:.2f} s; per slice pool "
              + ", ".join(p.describe() for p in p50s) + "; fast "
              + ", ".join(p.describe() for p in fast_p50s)
              + f"; whole run pool {p90.describe()}")
        return {
            "evals_per_s": max(evals),
            "quality_ratio": float(np.mean(
                [r.result["best_objective"] / self.refs.neh[r.instance]
                 for r in pool])),
            "latency_s.p50": min(p.value for p in p50s),
            "latency_s.p90": p90.value,
            "fast_latency_s.p50": min(p.value for p in fast_p50s),
            "jobs_per_s": max(rates),
        }

    def trace(self, seconds: float, dump_path: str) -> dict[str, float]:
        """Untraced half, then a traced half with server-side clocks."""
        untraced, _ = self.window(seconds / 2)
        _, before = _http(self.base, "GET", "/metrics")
        tracer, clock = Tracer(), JobClock()
        tracer.install((api_layer, clock.install))
        try:
            requests, _wall = self.window(seconds / 2)
        finally:
            tracer.uninstall()
        _, after = _http(self.base, "GET", "/metrics")
        pool, _fast = self._tiers(requests)
        for req in pool:
            job = req.job_id
            if job not in clock.finished or job not in clock.running:
                continue
            root = tracer.record("service.request", req.t0, req.t_end)
            tracer.record("service.admit", req.t0, req.t_admit, root)
            tracer.record("service.queue_wait", clock.submitted[job],
                          clock.running[job], root)
            run = tracer.record("service.run", clock.running[job],
                                clock.finished[job], root)
            tracer.record("service.solve",
                          clock.finished[job] - clock.solve_s[job],
                          clock.finished[job], run)
        per_job = {name: tracer.durations(name) for name in (
            "service.request", "service.admit", "service.queue_wait",
            "service.run", "service.solve")}
        if not per_job["service.request"]:
            raise RuntimeError("no traced pool job completed")
        self_times = tracer.self_times()
        handoff = [run - solve for run, solve in zip(
            per_job["service.run"], per_job["service.solve"])]
        requests_wall = sum(per_job["service.request"])
        untraced_p50 = percentile([r.t_end - r.t0 for r in
                                   self._tiers(untraced)[0]], 0.5).value
        traced_p50 = percentile(per_job["service.request"], 0.5).value
        values = {
            "api.resolve_s": self_times.get("api.resolve", 0.0)
            / len(requests),
            "service.admit_s": median(per_job["service.admit"]),
            "service.queue_wait_s": median(per_job["service.queue_wait"]),
            "service.queue_wait_s.p90": percentile(
                per_job["service.queue_wait"], 0.9).value,
            "service.run_s": median(per_job["service.run"]),
            "service.solve_s": median(per_job["service.solve"]),
            "service.handoff_s": median(handoff),
            "service.progress.frames": clock.frames,
            "service.progress.dropped": clock.dropped,
            "service.cache.hits": after["cache"]["hits"]
            - before["cache"]["hits"],
            "service.cache.misses": after["cache"]["misses"]
            - before["cache"]["misses"],
            "trace.coverage": 1.0 - self_times["service.request"]
            / requests_wall,
            "trace.overhead": traced_p50 / untraced_p50 - 1.0,
            "trace.remainder_s": self_times["service.request"]
            / len(per_job["service.request"]),
        }
        print(f"# traced {len(requests)} requests, "
              f"{len(per_job['service.request'])} pool jobs with every "
              f"server timestamp; p50 latency {traced_p50:.4f} s traced vs "
              f"{untraced_p50:.4f} s untraced")
        tracer.dump(dump_path, {"workload": self.workload})
        return values
