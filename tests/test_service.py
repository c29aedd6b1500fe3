"""End-to-end tests for the solver service (``repro.service``).

Every HTTP test talks to a real :class:`SolverServer` running on a
background thread (``serve_in_thread``) through ``urllib`` -- the same
wire a remote client would use.  Unit tests for the JobStore and event
parsing ride along at the bottom.
"""

import functools
import json
import multiprocessing
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import SolverSpec, solve
from repro.api.components import (disable_instance_cache,
                                  enable_instance_cache,
                                  instance_cache_stats, resolve_instance)
from repro.core.ga import GAConfig
from repro.extensions.dynamic import (JobArrival, MachineBreakdown,
                                      PredictiveReactiveScheduler,
                                      demo_event_stream)
from repro.instances import get_instance
from repro.service import SolverServer, serve_in_thread
from repro.service.jobs import JobStore, job_id_for
from repro.service import pool as pool_mod
from repro.service.pool import (PoolSaturated, WorkerPool, _init_worker,
                                run_job as _real_run_job)
from repro.service.sessions import event_from_dict
from repro.api.registry import SpecError

FAST = SolverSpec(instance="ft06", ga={"population_size": 10},
                  termination={"max_generations": 2}, seed=3)

#: keeps a single worker busy for ~1.5s: every evaluation burns 50ms of
#: CPU, so even the initial population (8 evals) outlives any request
SLOW = SolverSpec(instance="ft06", ga={"population_size": 8},
                  termination={"time_limit": 1.5}, eval_cost=0.05,
                  seed=91)

#: a spec carrying this seed hard-kills its worker process (os._exit
#: skips all exception handling, modelling a segfault or the OOM killer)
POISON_SEED = 666


def _lethal_run_job(job_id, spec, *args):
    # module-level so the pooled future can pickle it by reference; the
    # forked worker inherits this module and resolves the same function
    if spec.get("seed") == POISON_SEED:
        time.sleep(0.3)  # long enough for a bystander to queue behind it
        os._exit(13)
    return _real_run_job(job_id, spec, *args)


# -- wire helpers -----------------------------------------------------------------

def req(base, method, path, payload=None, timeout=60.0):
    """One HTTP request; returns (status, headers, parsed JSON body)."""
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        body = exc.read()
        return exc.code, dict(exc.headers), json.loads(body or b"{}")


def wait_terminal(base, job_id, timeout=60.0):
    """Poll ``GET /jobs/{id}`` until the job reaches a terminal state."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, _, body = req(base, "GET", f"/jobs/{job_id}")
        if body.get("state") in ("done", "failed", "cancelled"):
            return body
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} not terminal within {timeout}s")


def sse_frames(base, job_id, timeout=60.0):
    """Consume ``GET /jobs/{id}/stream`` to EOF; returns (event, data) list."""
    request = urllib.request.Request(f"{base}/jobs/{job_id}/stream")
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        assert resp.headers["Content-Type"] == "text/event-stream"
        raw = resp.read().decode("utf-8")
    frames = []
    for chunk in raw.split("\n\n"):
        if not chunk.strip():
            continue
        event = data = None
        for line in chunk.splitlines():
            if line.startswith("event: "):
                event = line[len("event: "):]
            elif line.startswith("data: "):
                data = json.loads(line[len("data: "):])
        frames.append((event, data))
    return frames


@pytest.fixture(scope="module")
def server():
    handle = serve_in_thread(workers=2, queue_depth=8, cache_size=32)
    yield handle.base_url
    handle.stop()


# -- jobs: submit / poll / cache / stream -----------------------------------------

class TestSolveEndpoint:
    def test_submit_poll_result_matches_in_process_solve(self, server):
        status, _, body = req(server, "POST", "/solve", FAST.to_dict())
        assert status == 202
        assert body["state"] == "queued" and body["cached"] is False
        assert body["job_id"] == job_id_for(FAST.cache_key())
        final = wait_terminal(server, body["job_id"])
        assert final["state"] == "done"
        assert final["elapsed"] > 0
        # solves are deterministic in (spec, seed): the service result is
        # bit-identical to calling the facade in process
        local = solve(FAST)
        assert final["result"]["best_objective"] == local.best_objective
        assert final["result"]["best_genome"] == \
            local.to_dict()["best_genome"]

    def test_duplicate_submit_served_from_cache(self, server):
        req(server, "POST", "/solve", FAST.to_dict())
        wait_terminal(server, job_id_for(FAST.cache_key()))
        _, _, before = req(server, "GET", "/metrics")
        status, _, body = req(server, "POST", "/solve", FAST.to_dict())
        assert status == 200  # idempotent resubmit answers immediately
        assert body["cached"] is True and body["state"] == "done"
        assert body["job_id"] == job_id_for(FAST.cache_key())
        assert body["result"]["best_objective"] > 0
        _, _, after = req(server, "GET", "/metrics")
        # no re-solve happened; the hit is accounted
        assert after["solves_executed"] == before["solves_executed"]
        assert after["cache"]["hits"] == before["cache"]["hits"] + 1

    def test_heuristic_engine_takes_fast_answer_tier(self, server):
        # heuristic engines are answered inline: POST /solve returns 200
        # with the finished result, no pool round trip, no polling needed
        spec = SolverSpec(instance="hfs-10x3x2-shaped", engine="neh",
                          termination={"max_generations": 1})
        _, _, before = req(server, "GET", "/metrics")
        status, _, body = req(server, "POST", "/solve", spec.to_dict())
        assert status == 200
        assert body["state"] == "done" and body["cached"] is False
        assert body["result"]["best_objective"] == \
            solve(spec).best_objective
        _, _, after = req(server, "GET", "/metrics")
        assert after["solves_executed"] == before["solves_executed"] + 1
        # no worker slot was consumed at any point
        assert after["queue"]["pending"] == before["queue"]["pending"]
        # resubmission is a plain cache hit
        status, _, again = req(server, "POST", "/solve", spec.to_dict())
        assert status == 200 and again["cached"] is True

    def test_stream_replays_generations_then_done(self, server):
        spec = FAST.replace(seed=17, termination={"max_generations": 3})
        _, _, body = req(server, "POST", "/solve", spec.to_dict())
        frames = sse_frames(server, body["job_id"])  # follows live to EOF
        events = [e for e, _ in frames]
        assert events[0] == "running"
        assert events[-1] == "done"
        generations = [d["generation"] for e, d in frames
                       if e == "generation"]
        # generation 0 (initial population) through max_generations
        assert generations == sorted(generations)
        assert generations[0] == 0 and generations[-1] == 3
        for event, data in frames:
            if event == "generation":
                assert data["best"] <= data["mean"] <= data["worst"]
                assert data["evaluations"] > 0
        done = frames[-1][1]
        assert done["best_objective"] > 0 and done["elapsed"] > 0
        # a second stream of the now-terminal job replays the same frames
        assert sse_frames(server, body["job_id"]) == frames

    def test_failed_solve_is_a_structured_job_failure(self, server):
        # passes validate() (keys are known) but fails at resolve time
        # inside the worker: weights must be true or an [lo, hi] pair
        spec = FAST.replace(seed=23, instance_params={"weights": [3]})
        status, _, body = req(server, "POST", "/solve", spec.to_dict())
        assert status == 202
        final = wait_terminal(server, body["job_id"])
        assert final["state"] == "failed"
        assert "instance_params" in final["error"]
        # failures are not cached: resubmitting retries as a fresh job
        status, _, retry = req(server, "POST", "/solve", spec.to_dict())
        assert status == 202 and retry["cached"] is False
        wait_terminal(server, retry["job_id"])

    def test_invalid_spec_rejected_with_400(self, server):
        status, _, body = req(server, "POST", "/solve",
                              {"instance": "nope-instance"})
        assert status == 400
        assert "unknown instance" in body["error"]
        status, _, body = req(server, "POST", "/solve",
                              {"instance": "ft06", "engine": "teleport"})
        assert status == 400
        assert "unknown engine" in body["error"]

    def test_malformed_bodies_are_400(self, server):
        request = urllib.request.Request(
            server + "/solve", data=b"{not json", method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 400

    def test_unknown_job_and_route_are_404(self, server):
        assert req(server, "GET", "/jobs/j-ffffffffffffffff")[0] == 404
        assert req(server, "GET", "/jobs/j-ffffffffffffffff/stream")[0] == 404
        assert req(server, "GET", "/no/such/route")[0] == 404

    def test_healthz_and_metrics_shapes(self, server):
        status, _, health = req(server, "GET", "/healthz")
        assert status == 200 and health["status"] == "ok"
        assert health["workers"] == 2 and health["queue_depth"] == 8
        _, _, metrics = req(server, "GET", "/metrics")
        assert set(metrics["jobs"]) == {"queued", "running", "done",
                                        "failed", "cancelled"}
        assert metrics["cache"]["capacity"] == 32
        assert metrics["queue"]["capacity"] == 10
        assert metrics["solve_latency"]["count"] >= 1
        assert metrics["solve_latency"]["mean"] > 0
        assert sum(metrics["solve_latency"]["buckets"].values()) \
            == metrics["solve_latency"]["count"]


class TestSweepEndpoint:
    def test_sweep_expands_dedupes_and_reuses_cache(self, server):
        # make sure the base spec's result is already cached
        req(server, "POST", "/solve", FAST.to_dict())
        wait_terminal(server, job_id_for(FAST.cache_key()))
        sweep = {"base": FAST.to_dict(),
                 "engines": ["simple", "serial"],  # alias == duplicate
                 "seeds": [3, 4]}
        status, _, body = req(server, "POST", "/sweep", sweep)
        assert status == 202
        # raw product 2x2=4; 'serial' resolves to 'simple', so 2 survive
        assert body["submitted"] == 2 and body["deduplicated"] == 2
        assert body["cached"] == 1  # seed=3 is the already-solved FAST
        for job in body["jobs"]:
            final = wait_terminal(server, job["job_id"])
            assert final["state"] == "done"

    def test_sweep_validates_like_solve(self, server):
        status, _, body = req(server, "POST", "/sweep",
                              {"engines": ["simple"]})
        assert status == 400 and "base" in body["error"]


# -- backpressure: saturation, Retry-After, cancellation --------------------------

class TestBackpressure:
    @pytest.fixture(scope="class")
    def tiny(self):
        handle = serve_in_thread(workers=1, queue_depth=3)
        yield handle.base_url
        handle.stop()

    def test_saturation_cancellation_and_drain(self, tiny):
        # fill the pool: 1 slow running + 3 queued = capacity 4
        _, _, slow = req(tiny, "POST", "/solve", SLOW.to_dict())
        cheap = [FAST.replace(seed=100 + i) for i in range(3)]
        queued = [req(tiny, "POST", "/solve", s.to_dict())[2]
                  for s in cheap]
        # one more distinct spec cannot be admitted
        status, headers, body = req(tiny, "POST", "/solve",
                                    FAST.replace(seed=999).to_dict())
        assert status == 429
        assert "saturated" in body["error"]
        assert int(headers["Retry-After"]) >= 1
        # a saturated sweep is refused whole: it creates no job at all
        # (jobs may still move between states meanwhile)
        _, _, before = req(tiny, "GET", "/metrics")
        sweep = {"base": FAST.to_dict(), "seeds": [801, 802]}
        status, headers, body = req(tiny, "POST", "/sweep", sweep)
        assert status == 429 and "Retry-After" in headers
        _, _, after = req(tiny, "GET", "/metrics")
        assert sum(after["jobs"].values()) == sum(before["jobs"].values())
        assert after["cache"]["misses"] == before["cache"]["misses"]
        # ...but a duplicate of an in-flight job coalesces, no slot needed
        status, _, body = req(tiny, "POST", "/solve", SLOW.to_dict())
        assert status == 202
        assert body["cached"] is True and body["job_id"] == slow["job_id"]
        # cancel the most recently queued job (not yet handed to a worker)
        victim = queued[-1]["job_id"]
        status, _, body = req(tiny, "DELETE", f"/jobs/{victim}")
        assert status == 200 and body["state"] == "cancelled"
        assert wait_terminal(tiny, victim)["state"] == "cancelled"
        # the running job cannot be preempted
        status, _, body = req(tiny, "DELETE", f"/jobs/{slow['job_id']}")
        assert status == 409
        # the freed slot admits new work again
        status, _, body = req(tiny, "POST", "/solve",
                              FAST.replace(seed=999).to_dict())
        assert status == 202
        # everything admitted eventually drains to a terminal state
        assert wait_terminal(tiny, slow["job_id"])["state"] == "done"
        assert wait_terminal(tiny, body["job_id"])["state"] == "done"
        for j in queued[:-1]:
            assert wait_terminal(tiny, j["job_id"])["state"] == "done"
        # deleting an already-terminal job reports its state, idempotently
        status, _, body = req(tiny, "DELETE", f"/jobs/{slow['job_id']}")
        assert status == 200 and body["state"] == "done"


# -- crash recovery ---------------------------------------------------------------

@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker poisoning relies on fork inheriting the patched "
           "module state")
def test_dead_worker_is_replaced_and_reported(monkeypatch):
    """A spec that kills the only worker fails alone: the job queued
    behind it completes, the pool is rebuilt once, and the server keeps
    serving and reports the restart."""
    monkeypatch.setattr(pool_mod, "run_job", _lethal_run_job)
    handle = serve_in_thread(workers=1, queue_depth=4)
    try:
        base = handle.base_url
        bystander = FAST.replace(seed=31)
        status, _, killer = req(base, "POST", "/solve",
                                FAST.replace(seed=POISON_SEED).to_dict())
        assert status == 202
        _, _, queued = req(base, "POST", "/solve", bystander.to_dict())
        failed = wait_terminal(base, killer["job_id"])
        assert failed["state"] == "failed"
        assert "worker process died" in failed["error"]
        done = wait_terminal(base, queued["job_id"])
        assert done["state"] == "done"
        local = solve(bystander)
        assert done["result"]["best_objective"] == local.best_objective
        assert done["result"]["best_genome"] == \
            local.to_dict()["best_genome"]
        status, _, after = req(base, "POST", "/solve",
                               FAST.replace(seed=32).to_dict())
        assert status == 202
        assert wait_terminal(base, after["job_id"])["state"] == "done"
        _, _, health = req(base, "GET", "/healthz")
        assert health["status"] == "ok" and health["restarts"] == 1
        _, _, metrics = req(base, "GET", "/metrics")
        assert metrics["queue"]["restarts"] == 1
    finally:
        handle.stop()


# -- dynamic sessions -------------------------------------------------------------

def event_payload(event):
    """Serialise a dynamic Event the way a remote client would."""
    if isinstance(event, JobArrival):
        return {"type": "arrival", "time": event.time,
                "processing": list(event.processing)}
    assert isinstance(event, MachineBreakdown)
    return {"type": "breakdown", "time": event.time,
            "machine": event.machine, "duration": event.duration}


class TestSessions:
    PARAMS = {"instance": "ta-fs-20x5-shaped", "population": 16,
              "generations": 3, "seed": 5}

    def test_session_replays_e25_scenario_over_http(self, server):
        """The served session equals the in-process predictive-reactive
        loop, event for event, and honours the E25 freeze invariant."""
        instance = get_instance(self.PARAMS["instance"])
        events = list(demo_event_stream(instance, n_events=2, seed=5))

        status, _, created = req(server, "POST", "/sessions", self.PARAMS)
        assert status == 201
        sid = created["session_id"]
        assert sorted(created["sequence"]) == list(range(instance.n_jobs))

        # in-process reference with identical parameters
        sched = PredictiveReactiveScheduler(
            instance, config=GAConfig(population_size=16),
            generations=3, seed=5, warm_start=True)
        _, cmax0 = sched.start()
        assert created["predicted_makespan"] == cmax0

        for event in events:
            status, _, got = req(server, "POST", f"/sessions/{sid}/events",
                                 event_payload(event))
            assert status == 200
            point = sched.handle_event(event)
            # E25 freeze invariant, now over the wire
            assert 0 <= got["frozen"] <= got["jobs_remaining"]
            assert got["frozen"] == point.frozen
            assert got["jobs_remaining"] == point.jobs_remaining
            assert got["predicted_makespan"] == point.predicted_makespan
            assert got["sequence"] == [int(j) for j in sched.sequence]
            assert sorted(got["sequence"]) == \
                list(range(got["jobs_remaining"]))

        status, _, state = req(server, "GET", f"/sessions/{sid}")
        assert status == 200
        assert state["events_handled"] == len(events)
        assert len(state["reschedules"]) == len(events)
        for p in state["reschedules"]:
            assert 0 <= p["frozen"] <= p["jobs_remaining"]

        status, _, _ = req(server, "DELETE", f"/sessions/{sid}")
        assert status == 200
        assert req(server, "GET", f"/sessions/{sid}")[0] == 404

    def test_out_of_order_event_is_rejected(self, server):
        _, _, created = req(server, "POST", "/sessions", self.PARAMS)
        sid = created["session_id"]
        ok = {"type": "breakdown", "time": 50.0, "machine": 0,
              "duration": 10.0}
        assert req(server, "POST", f"/sessions/{sid}/events", ok)[0] == 200
        late = dict(ok, time=10.0)
        status, _, body = req(server, "POST", f"/sessions/{sid}/events",
                              late)
        assert status == 400
        assert "non-decreasing" in body["error"]
        req(server, "DELETE", f"/sessions/{sid}")

    def test_session_validation_errors(self, server):
        cases = [
            ({}, "instance"),
            ({"instance": "nope"}, "unknown instance"),
            ({"instance": "ft06"}, "FlowShopInstance"),  # job shop
            (dict(self.PARAMS, bogus=1), "unknown field"),
        ]
        for params, needle in cases:
            status, _, body = req(server, "POST", "/sessions", params)
            assert status == 400, params
            assert needle in body["error"]
        _, _, created = req(server, "POST", "/sessions", self.PARAMS)
        sid = created["session_id"]
        status, _, body = req(server, "POST", f"/sessions/{sid}/events",
                              {"type": "eclipse", "time": 1.0})
        assert status == 400 and "unknown type" in body["error"]
        req(server, "DELETE", f"/sessions/{sid}")
        assert req(server, "DELETE", f"/sessions/{sid}")[0] == 404


# -- unit: job store --------------------------------------------------------------

class TestJobStore:
    def test_idempotent_submit_and_cache_accounting(self):
        store = JobStore(cache_size=4)
        job, created = store.submit({"seed": 1}, "a" * 64)
        assert created and job.state == "queued"
        again, created = store.submit({"seed": 1}, "a" * 64)
        assert not created and again is job  # in flight -> coalesced
        assert store.coalesced == 1
        store.mark_running(job.id)
        store.finish(job.id, {"ok": True, "report": {"best_objective": 9},
                              "elapsed": 0.5})
        assert job.state == "done" and job.result["best_objective"] == 9
        _, created = store.submit({"seed": 1}, "a" * 64)
        assert not created and store.cache_hits == 1
        metrics = store.metrics()
        assert metrics["cache"]["hit_rate"] == pytest.approx(2 / 3)
        assert metrics["solve_latency"]["count"] == 1
        assert store.mean_latency() == pytest.approx(0.5)

    def test_failed_jobs_are_retried_not_cached(self):
        store = JobStore()
        job, _ = store.submit({}, "b" * 64)
        store.finish(job.id, {"ok": False, "error": "boom", "elapsed": 0.1})
        assert job.state == "failed" and job.error == "boom"
        retry, created = store.submit({}, "b" * 64)
        assert created and retry is not job and retry.state == "queued"

    def test_eviction_drops_only_terminal_jobs(self):
        store = JobStore(cache_size=2)
        done1, _ = store.submit({}, "1" * 64)
        store.finish(done1.id, {"ok": True, "report": {}, "elapsed": 0.1})
        live, _ = store.submit({}, "2" * 64)   # queued: never evicted
        done2, _ = store.submit({}, "3" * 64)
        store.finish(done2.id, {"ok": True, "report": {}, "elapsed": 0.1})
        live2, _ = store.submit({}, "4" * 64)  # overflow by 2 -> both done
        assert store.get(done1.id) is None     # jobs evicted, live jobs
        assert store.get(done2.id) is None     # held regardless
        assert store.get(live.id) is live
        assert store.get(live2.id) is live2

    def test_cancel_only_applies_to_queued_jobs(self):
        store = JobStore()
        job, _ = store.submit({}, "c" * 64)
        store.mark_running(job.id)
        assert not store.cancel(job.id)
        queued, _ = store.submit({}, "d" * 64)
        assert store.cancel(queued.id) and queued.state == "cancelled"
        # terminal jobs ignore further transitions
        store.finish(queued.id, {"ok": True, "report": {}})
        assert queued.state == "cancelled" and queued.result is None


# -- unit: worker pool admission --------------------------------------------------

class TestWorkerPoolAdmission:
    def test_capacity_is_workers_plus_queue_depth(self):
        pool = WorkerPool(workers=1, queue_depth=1)
        try:
            slow = SLOW.to_dict()
            pool.submit("j-1", slow)
            pool.submit("j-2", slow)
            with pytest.raises(PoolSaturated, match="saturated"):
                pool.submit("j-3", slow)
            assert pool.pending == 2 and pool.waiting == 1
        finally:
            pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.submit("j-4", slow)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(workers=0)
        with pytest.raises(ValueError, match="queue_depth"):
            WorkerPool(queue_depth=-1)


class TestWorkerPoolChannel:
    def test_slow_consumer_sees_every_frame_before_the_outcome(self):
        """The running event and every generation frame of a job reach
        ``on_event`` before its future resolves, even when the consumer is
        slower than the workers, so the store drops no frame."""
        store, lock = JobStore(), threading.Lock()
        seen, at_finish, late = {}, {}, []

        def on_event(event):
            time.sleep(0.02)
            with lock:
                job = store.get(event["job_id"])
                seen.setdefault(job.id, []).append(event["event"])
                if job.terminal:  # the drain swallows exceptions
                    late.append(event)
                if event["event"] == "running":
                    store.mark_running(job.id)
                else:
                    store.record_progress(job.id, event)

        def on_done(job_id, future):
            with lock:
                at_finish[job_id] = list(seen.get(job_id, ()))
                store.finish(job_id, future.result())

        pool = WorkerPool(workers=2, queue_depth=10, on_event=on_event)
        futures = []
        try:
            for i in range(10):
                spec = FAST.replace(seed=200 + i,
                                    termination={"max_generations": 4})
                with lock:
                    job, _ = store.submit(spec.to_dict(), spec.cache_key())
                future = pool.submit(job.id, job.spec)
                future.add_done_callback(functools.partial(on_done, job.id))
                futures.append((job.id, future))
            for _, future in futures:
                future.result(timeout=60)
        finally:
            pool.shutdown()
        for job_id, _ in futures:
            assert at_finish[job_id] == ["running"] + ["generation"] * 5
            assert seen[job_id] == at_finish[job_id]
            job = store.get(job_id)
            assert job.state == "done"
            assert [f["generation"] for f in job.progress] == list(range(5))
        assert late == []


# -- unit: per-worker instance cache ----------------------------------------------

class TestWorkerInstanceCache:
    """Long-lived workers memoise resolved instances (and with them the
    decode tables lazily attached to instance objects) in a bounded LRU."""

    def teardown_method(self):
        disable_instance_cache()

    def test_init_worker_enables_the_cache(self):
        _init_worker(None)
        stats = instance_cache_stats()
        assert stats["enabled"] is True and stats["maxsize"] == 32

    def test_repeat_resolution_is_a_cache_hit_sharing_decode_tables(self):
        enable_instance_cache(maxsize=4)
        spec = SolverSpec(instance="fjsp-8x5-shaped",
                          termination={"max_generations": 1})
        first = resolve_instance(spec)
        sentinel = object()  # stand-in for the memoised FJSP decode tables
        first._fjsp_batch_tables = sentinel
        second = resolve_instance(spec)
        assert second is first  # same object => memoised tables survive
        assert second._fjsp_batch_tables is sentinel
        stats = instance_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_key_includes_instance_params(self):
        enable_instance_cache(maxsize=4)
        plain = SolverSpec(instance="ft06",
                           termination={"max_generations": 1})
        due = plain.replace(instance_params={"due_tau": 1.5})
        assert resolve_instance(plain) is not resolve_instance(due)
        assert instance_cache_stats()["misses"] == 2
        assert resolve_instance(due) is resolve_instance(due)
        assert instance_cache_stats()["hits"] >= 2

    def test_lru_bound_evicts_oldest(self):
        enable_instance_cache(maxsize=2)
        names = ["ft06", "ta-fs-20x5-shaped", "ta-os-5x5-shaped"]
        for name in names:
            resolve_instance(SolverSpec(
                instance=name, termination={"max_generations": 1}))
        stats = instance_cache_stats()
        assert stats["size"] == 2 and stats["evictions"] == 1
        # the evicted (oldest) entry resolves fresh -> a miss, not a hit
        resolve_instance(SolverSpec(instance="ft06",
                                    termination={"max_generations": 1}))
        assert instance_cache_stats()["misses"] == 4

    def test_disabled_cache_resolves_fresh(self):
        disable_instance_cache()
        spec = SolverSpec(instance="ft06",
                          termination={"max_generations": 1})
        assert resolve_instance(spec) is not resolve_instance(spec)
        assert instance_cache_stats()["enabled"] is False


# -- unit: event parsing ----------------------------------------------------------

class TestEventFromDict:
    def test_round_trips_both_event_kinds(self):
        arrival = event_from_dict({"type": "arrival", "time": 3.0,
                                   "processing": [1, 2, 3]})
        assert isinstance(arrival, JobArrival)
        assert arrival.processing == (1.0, 2.0, 3.0)
        brk = event_from_dict({"type": "breakdown", "time": 4,
                               "machine": 1, "duration": 9.5})
        assert isinstance(brk, MachineBreakdown)
        assert brk.machine == 1 and brk.duration == 9.5

    def test_shape_errors_are_spec_errors(self):
        for bad, needle in [
            ([], "JSON object"),
            ({"type": "solar-flare", "time": 1}, "unknown type"),
            ({"type": "arrival"}, "time"),
            ({"type": "arrival", "time": 1}, "arrival payload"),
            ({"type": "breakdown", "time": 1}, "breakdown payload"),
            ({"type": "breakdown", "time": "soon", "machine": 0,
              "duration": 1}, "number"),
        ]:
            with pytest.raises(SpecError, match=needle):
                event_from_dict(bad)


# -- server lifecycle -------------------------------------------------------------

class TestServerLifecycle:
    def test_ephemeral_port_and_clean_stop(self):
        handle = serve_in_thread(workers=1, queue_depth=1)
        try:
            assert handle.server.port != 0
            status, _, _ = req(handle.base_url, "GET", "/healthz")
            assert status == 200
        finally:
            handle.stop()
        handle.stop()  # idempotent

    def test_server_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            SolverServer(cache_size=0)
