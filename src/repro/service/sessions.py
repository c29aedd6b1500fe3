"""Event-driven dynamic scheduling sessions.

A session wraps one
:class:`~repro.extensions.dynamic.PredictiveReactiveScheduler`: creating
it builds the initial predictive schedule, and every event POSTed into it
(a job arrival or machine breakdown, as JSON) triggers one incremental
reactive re-solve -- started jobs stay frozen, the remainder is
re-optimised warm-started from the incumbent population -- whose result
is returned to the caller.  This is the online half of the
predictive-reactive loop served over HTTP: the client owns the event
stream, the service owns the schedule.

Blocking GA work happens inside :meth:`DynamicSession.start` /
:meth:`DynamicSession.handle`; the server runs both on its executor and
serialises them with a per-session lock (re-solves mutate scheduler
state, so two events for one session must never interleave).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Mapping

from ..api.registry import SpecError
from ..core.ga import GAConfig
from ..instances import get_instance

if TYPE_CHECKING:
    from ..extensions.dynamic import Event

# The scheduler and its events load with the first session or event, so
# ``import repro.service`` pulls in none of the scenario extensions.

__all__ = ["DynamicSession", "SessionStore", "event_from_dict"]

_EVENT_KINDS = ("arrival", "breakdown")


def event_from_dict(data: Mapping[str, Any]) -> Event:
    """Build a dynamic event from its JSON form.

    ``{"type": "arrival", "time": t, "processing": [...]}`` or
    ``{"type": "breakdown", "time": t, "machine": m, "duration": d}``.
    Shape errors raise :class:`SpecError` (the server's 400 path).
    """
    from ..extensions.dynamic import JobArrival, MachineBreakdown
    if not isinstance(data, Mapping):
        raise SpecError(f"event must be a JSON object, got "
                        f"{type(data).__name__}")
    kind = data.get("type")
    if kind not in _EVENT_KINDS:
        raise SpecError(f"event: unknown type {kind!r}; "
                        f"accepted: {list(_EVENT_KINDS)}")
    try:
        when = float(data["time"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"event: 'time' must be a number: {exc}") from exc
    try:
        if kind == "arrival":
            processing = tuple(float(p) for p in data["processing"])
            return JobArrival(time=when, processing=processing)
        return MachineBreakdown(time=when, machine=int(data["machine"]),
                                duration=float(data["duration"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"event: invalid {kind} payload: {exc}") from exc


class DynamicSession:
    """One live predictive-reactive scheduler behind the session API."""

    def __init__(self, session_id: str, params: Mapping[str, Any]):
        from ..extensions.dynamic import PredictiveReactiveScheduler
        known = {"instance", "population", "generations", "seed",
                 "warm_start", "substrate"}
        unknown = sorted(set(params) - known)
        if unknown:
            raise SpecError(f"session: unknown field(s) {unknown}; "
                            f"valid fields: {sorted(known)}")
        name = params.get("instance")
        if not isinstance(name, str):
            raise SpecError("session: missing required 'instance' name")
        try:
            instance = get_instance(name)
        except KeyError as exc:
            raise SpecError(f"session: unknown instance {name!r}") from exc
        if type(instance).__name__ != "FlowShopInstance":
            raise SpecError(
                f"session: {name!r} is a {type(instance).__name__}; "
                f"dynamic sessions need a FlowShopInstance")
        try:
            config = GAConfig(
                population_size=int(params.get("population", 30)),
                substrate=str(params.get("substrate", "object")))
        except (TypeError, ValueError) as exc:
            raise SpecError(f"session: {exc}") from exc
        self.id = session_id
        self.instance_name = name
        self.created = time.time()
        self.events_handled = 0
        self.scheduler = PredictiveReactiveScheduler(
            instance, config=config,
            generations=int(params.get("generations", 15)),
            seed=int(params.get("seed", 0)),
            warm_start=bool(params.get("warm_start", True)))

    # Both solve entry points are blocking (GA runs); the server calls
    # them on its executor under the per-session lock.
    def start(self) -> dict[str, Any]:
        """Build the initial predictive schedule; returns the plan."""
        sequence, cmax = self.scheduler.start()
        return {"sequence": [int(j) for j in sequence],
                "predicted_makespan": float(cmax)}

    def handle(self, event_data: Mapping[str, Any]) -> dict[str, Any]:
        """Apply one event and re-solve; returns the incremental result."""
        event = event_from_dict(event_data)
        try:
            point = self.scheduler.handle_event(event)
        except ValueError as exc:  # out-of-order event, bad arrival shape
            raise SpecError(f"event: {exc}") from exc
        self.events_handled += 1
        return {"session_id": self.id,
                "event": type(point.trigger).__name__,
                "time": point.time,
                "frozen": point.frozen,
                "jobs_remaining": point.jobs_remaining,
                "predicted_makespan": float(point.predicted_makespan),
                "sequence": [int(j) for j in self.scheduler.sequence]}

    def to_dict(self) -> dict[str, Any]:
        """Status payload (``GET /sessions/{id}``)."""
        sched = self.scheduler
        out: dict[str, Any] = {
            "session_id": self.id,
            "instance": self.instance_name,
            "jobs_now": sched.current_instance.n_jobs,
            "warm_start": sched.warm_start,
            "events_handled": self.events_handled,
            "created": self.created,
            "reschedules": [
                {"time": p.time, "event": type(p.trigger).__name__,
                 "frozen": p.frozen, "jobs_remaining": p.jobs_remaining,
                 "predicted_makespan": float(p.predicted_makespan)}
                for p in sched.reschedules],
        }
        plan = sched.sequence
        if plan is not None:
            out["sequence"] = [int(j) for j in plan]
            out["predicted_makespan"] = float(sched.predicted_makespan)
        return out


class SessionStore:
    """Registry of live sessions (event-loop confined, like the JobStore)."""

    def __init__(self, max_sessions: int = 64):
        self.max_sessions = max_sessions
        self._sessions: dict[str, DynamicSession] = {}
        self._counter = 0
        self.created_total = 0

    def create(self, params: Mapping[str, Any]) -> DynamicSession:
        if len(self._sessions) >= self.max_sessions:
            raise SpecError(f"session: at capacity "
                            f"({self.max_sessions} live sessions); "
                            f"DELETE one first")
        self._counter += 1
        session = DynamicSession(f"s-{self._counter}", params)
        self._sessions[session.id] = session
        self.created_total += 1
        return session

    def get(self, session_id: str) -> DynamicSession | None:
        return self._sessions.get(session_id)

    def delete(self, session_id: str) -> bool:
        return self._sessions.pop(session_id, None) is not None

    def metrics(self) -> dict[str, Any]:
        return {"active": len(self._sessions),
                "created_total": self.created_total,
                "events_handled": sum(s.events_handled
                                      for s in self._sessions.values())}
