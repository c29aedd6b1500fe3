"""The declarative, serializable solver specification.

A :class:`SolverSpec` captures one complete solver run along the survey's
independent axes -- instance, encoding, objective, GA hyper-parameters,
termination, parallel engine -- as plain data: every field is a string,
number, bool, or a dict/list of those, so a spec round-trips through JSON
(``to_dict()`` / ``from_dict()`` / ``to_json()`` / ``from_json()``)
without loss.  Engines, encodings and objectives are addressed *by name*
through the registries in :mod:`repro.api.registry`; resolution to live
objects happens in :func:`repro.api.facade.solve`.

Validation (:meth:`SolverSpec.validate`) produces actionable errors: an
unknown name reports the valid options plus close-match suggestions, an
unknown parameter reports the accepted parameter schema, an out-of-range
hyper-parameter surfaces the underlying ``GAConfig`` message with the
spec path prefixed.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from .registry import (SpecError, encoding_entry, engine_entry,
                       objective_entry, suggest)

__all__ = ["SolverSpec", "SpecError", "GA_KEYS", "TERMINATION_KEYS",
           "INSTANCE_PARAM_KEYS"]

#: GAConfig hyper-parameters a spec may set.  Operator *instances*
#: (selection/crossover/mutation objects) are deliberately not
#: spec-addressable: they resolve to the per-genome-kind defaults, which
#: keeps every spec JSON-serializable.
GA_KEYS = ("population_size", "crossover_rate", "mutation_rate", "n_elites",
           "immigration_rate", "generation_gap", "seeding")

def _termination_builders(instance=None) -> dict:
    """Criterion name -> constructor; the single termination vocabulary.

    Both :data:`TERMINATION_KEYS` (what ``validate`` accepts) and
    :func:`repro.api.facade.resolve_termination` (what ``solve`` builds)
    derive from this mapping, so the two can never drift apart.

    ``instance`` supplies the resolved instance object to criteria that
    need instance data: ``proven_gap`` takes the gap *fraction* as its
    spec value (spec values stay plain numbers) and resolves the lower
    bound from the instance -- a proven optimum from
    :data:`repro.instances.KNOWN_OPTIMA` when one exists, else the
    combinatorial bound.
    """
    from ..core.termination import (MaxEvaluations, MaxGenerations,
                                    ProvenGap, Stagnation, TargetObjective,
                                    TimeLimit)

    def _proven_gap(v):
        if instance is None:
            raise SpecError(
                "termination: proven_gap needs a resolved instance; "
                "build ProvenGap(lower_bound, gap) directly when calling "
                "engines outside repro.solve()")
        from ..instances.library import known_lower_bound
        try:
            bound = known_lower_bound(instance)
        except KeyError as exc:
            raise SpecError(f"termination: proven_gap: {exc}") from exc
        return ProvenGap(bound, gap=float(v))

    return {
        "max_generations": lambda v: MaxGenerations(int(v)),
        "max_evaluations": lambda v: MaxEvaluations(int(v)),
        "time_limit": lambda v: TimeLimit(float(v)),
        "target": lambda v: TargetObjective(float(v)),
        "stagnation": lambda v: Stagnation(int(v)),
        "proven_gap": _proven_gap,
    }


#: Termination criteria a spec may combine (disjunction: first to fire).
TERMINATION_KEYS = tuple(_termination_builders())

#: Instance post-processing knobs (due dates / weights for the tardiness
#: and weighted families, applied deterministically).
INSTANCE_PARAM_KEYS = ("due_tau", "weights")

_FIELD_NAMES: tuple[str, ...] = (
    "instance", "encoding", "encoding_params", "objective",
    "objective_params", "ga", "termination", "engine", "engine_params",
    "seed", "eval_cost", "instance_params", "substrate", "backend")


@dataclass(frozen=True)
class SolverSpec:
    """One declarative solver run; frozen, hashable-free plain data.

    Attributes
    ----------
    instance:
        registry name from :func:`repro.instances.available_instances`.
    encoding:
        encoding name (see :func:`repro.api.available_encodings`);
        ``None`` picks the documented default for the instance's problem
        class.
    encoding_params:
        keyword parameters for the encoding factory (e.g.
        ``{"mode": "active"}`` for the operation-based encoding).
    objective:
        objective name (see :func:`repro.api.available_objectives`).
    objective_params:
        keyword parameters for the objective factory (e.g. the
        ``{"parts": [[0.7, "makespan"], [0.3, "maximum_tardiness"]]}`` of
        a weighted combination).
    ga:
        ``GAConfig`` scalar hyper-parameters (subset of :data:`GA_KEYS`).
        ``population_size`` is the *total* population; multi-population
        engines split it (see
        :func:`repro.parallel.island.default_island_population`).
    termination:
        criteria from :data:`TERMINATION_KEYS`; several combine as a
        disjunction (stop when any fires).
    engine:
        engine name or alias (see :func:`repro.api.available_engines`).
    engine_params:
        engine-specific parameters (workers, islands, topology, migration
        interval/rate, grid rows/cols, neighborhood, ...).
    seed:
        root RNG seed; equal specs produce bit-identical runs.
    eval_cost:
        artificial per-evaluation CPU cost in seconds (the master-slave
        expensive-fitness regime); disables the vectorised batch path.
    instance_params:
        instance post-processing: ``due_tau`` attaches TWK due dates,
        ``weights`` (``true`` or ``[lo, hi]``) attaches job weights.
    substrate:
        the GA engines choose their generation from the input: when the
        genomes stack into a chromosome matrix (cells row-major for the
        cellular engines) and every operator has a batch twin, every
        stage runs as a matrix kernel (see :mod:`repro.core.substrate`);
        other inputs breed ``Individual`` objects pair by pair.
        ``"object"`` (default) accepts both; ``"array"`` refuses an input
        that does not stack.  Both give bit-identical runs on a
        stackable input; ``report.extra["substrate"]`` names the path
        that ran.
    backend:
        array namespace the batch kernels run on (see
        :mod:`repro.core.backend`): ``"numpy"`` (default, bit-identical
        to the plain NumPy path) or ``"instrumented"`` (NumPy wrapped with
        Array-API-subset enforcement, bit-identical results -- the CI
        conformance backend).
    """

    instance: str
    encoding: str | None = None
    encoding_params: dict[str, Any] = field(default_factory=dict)
    objective: str = "makespan"
    objective_params: dict[str, Any] = field(default_factory=dict)
    ga: dict[str, Any] = field(default_factory=dict)
    termination: dict[str, Any] = field(
        default_factory=lambda: {"max_generations": 100})
    engine: str = "simple"
    engine_params: dict[str, Any] = field(default_factory=dict)
    seed: int = 42
    eval_cost: float = 0.0
    instance_params: dict[str, Any] = field(default_factory=dict)
    substrate: str = "object"
    backend: str = "numpy"

    def __post_init__(self) -> None:
        # normalise: None -> {}, defensive copy so a frozen spec cannot be
        # mutated through a shared dict the caller still holds
        for name in ("encoding_params", "objective_params", "ga",
                     "termination", "engine_params", "instance_params"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, Mapping):
                raise SpecError(
                    f"{name}: must be a mapping of parameter names to "
                    f"values, got {type(value).__name__} {value!r}")
            object.__setattr__(self, name,
                               copy.deepcopy(dict(value or {})))

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-data dict; ``SolverSpec.from_dict`` inverts it exactly."""
        return {
            "instance": self.instance,
            "encoding": self.encoding,
            "encoding_params": copy.deepcopy(self.encoding_params),
            "objective": self.objective,
            "objective_params": copy.deepcopy(self.objective_params),
            "ga": copy.deepcopy(self.ga),
            "termination": copy.deepcopy(self.termination),
            "engine": self.engine,
            "engine_params": copy.deepcopy(self.engine_params),
            "seed": self.seed,
            "eval_cost": self.eval_cost,
            "instance_params": copy.deepcopy(self.instance_params),
            "substrate": self.substrate,
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolverSpec":
        """Build a spec from a plain dict; unknown keys are an error."""
        if not isinstance(data, Mapping):
            raise SpecError(f"spec must be a mapping, got "
                            f"{type(data).__name__}")
        unknown = sorted(set(data) - set(_FIELD_NAMES))
        if unknown:
            hints = "".join(suggest(k, _FIELD_NAMES) for k in unknown)
            raise SpecError(f"unknown spec field(s) {unknown}{hints}; "
                            f"valid fields: {sorted(_FIELD_NAMES)}")
        if "instance" not in data:
            raise SpecError("spec is missing the required 'instance' field")
        return cls(**{k: copy.deepcopy(v) for k, v in data.items()})

    def to_json(self, **kwargs) -> str:
        """JSON text of :meth:`to_dict` (sorted keys by default)."""
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "SolverSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def replace(self, **changes: Any) -> "SolverSpec":
        """Copy with fields replaced (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)

    def cache_key(self) -> str:
        """Canonical content hash identifying this solve (idempotency key).

        The key is the SHA-256 of the *resolved* spec -- canonical engine
        name (aliases normalised), concrete encoding name (per-class
        default filled in), the engine's full parameter set (registry
        defaults merged under the spec's overrides) -- serialized as
        canonical JSON (sorted keys, compact separators).  Because solver
        runs are deterministic in their spec and ``seed``, two specs with
        equal keys produce bit-identical reports, so the key is safe to
        use for result caching: the solver service serves repeat traffic
        from cache, and :meth:`ScenarioSweep.specs` drops duplicate
        expansions (e.g. an alias and its canonical name on the same
        axis).

        Stable across dict ordering and JSON round-trips:
        ``SolverSpec.from_json(spec.to_json()).cache_key()
        == spec.cache_key()``, and a spec hashes equal to its resolved
        form.  A spec that cannot be resolved (unknown names) falls back
        to hashing its raw fields -- the key never raises, so failed
        submissions still deduplicate.
        """
        from .facade import resolve_spec
        try:
            resolved = resolve_spec(self)
        except (SpecError, KeyError):
            resolved = self
        payload = json.dumps(resolved.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- validation --------------------------------------------------------------
    def validate(self, instance=None) -> "SolverSpec":
        """Check every name and parameter; returns ``self`` when valid.

        Raises :class:`SpecError` with an actionable message naming the
        offending field, the offending value, and the valid options.
        ``instance`` optionally passes an already-constructed instance
        object so callers that resolved one (the facade) avoid building
        it again just to learn its problem class.
        """
        from ..instances import available_instances
        from .components import default_encoding_name, instance_class_name

        names = available_instances()
        if self.instance not in names:
            raise SpecError(
                f"instance: unknown instance {self.instance!r}"
                f"{suggest(self.instance, names)}; see "
                f"repro.instances.available_instances()")

        bad_inst = sorted(set(self.instance_params) - set(INSTANCE_PARAM_KEYS))
        if bad_inst:
            raise SpecError(
                f"instance_params: unknown key(s) {bad_inst}; "
                f"accepted: {sorted(INSTANCE_PARAM_KEYS)}")

        if instance is None:
            instance = self.instance  # class resolved from the name below
        if self.encoding is not None:
            entry = encoding_entry(self.encoding)
            entry.check_params(self.encoding_params, "encoding_params")
            accepted = entry.tags.get("instance_classes", ())
            cls_name = instance_class_name(instance)
            if accepted and cls_name not in accepted:
                raise SpecError(
                    f"encoding: {entry.name!r} decodes "
                    f"{sorted(accepted)} instances, but {self.instance!r} "
                    f"is a {cls_name}")
        else:
            # raises SpecError when no default encoding exists
            default_encoding_name(instance)

        obj_entry = objective_entry(self.objective)
        obj_entry.check_params(self.objective_params, "objective_params")

        bad_ga = sorted(set(self.ga) - set(GA_KEYS))
        if bad_ga:
            hints = "".join(suggest(k, GA_KEYS) for k in bad_ga)
            raise SpecError(
                f"ga: unknown hyper-parameter(s) {bad_ga}{hints}; "
                f"accepted: {sorted(GA_KEYS)} (operator choices are not "
                f"spec-addressable; they resolve to per-genome-kind "
                f"defaults)")
        from ..core.ga import GAConfig
        try:
            GAConfig(**self.ga)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"ga: {exc}") from exc

        if not self.termination:
            raise SpecError(
                f"termination: at least one criterion required; "
                f"accepted: {sorted(TERMINATION_KEYS)}")
        bad_term = sorted(set(self.termination) - set(TERMINATION_KEYS))
        if bad_term:
            hints = "".join(suggest(k, TERMINATION_KEYS) for k in bad_term)
            raise SpecError(
                f"termination: unknown criterion(s) {bad_term}{hints}; "
                f"accepted: {sorted(TERMINATION_KEYS)}")
        for key, value in self.termination.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SpecError(
                    f"termination: {key} must be a number, got {value!r}")

        eng_entry = engine_entry(self.engine)
        eng_entry.check_params(self.engine_params, "engine_params")
        check = eng_entry.tags.get("check_params")
        if check is not None:
            check(dict(eng_entry.params, **self.engine_params))

        from ..core.substrate import SUBSTRATES
        if self.substrate not in SUBSTRATES:
            raise SpecError(
                f"substrate: unknown substrate {self.substrate!r}"
                f"{suggest(self.substrate, SUBSTRATES)}; "
                f"available: {sorted(SUBSTRATES)}")
        if self.substrate == "array" \
                and not eng_entry.tags.get("array_substrate"):
            from .registry import ENGINES
            supported = [e.name for e in ENGINES.entries()
                         if e.tags.get("array_substrate")]
            raise SpecError(
                f"substrate: engine {eng_entry.name!r} runs on the object "
                f"substrate only; substrate='array' is supported by "
                f"{supported}")

        from ..core.backend import BACKENDS
        if self.backend not in BACKENDS:
            raise SpecError(
                f"backend: unknown backend {self.backend!r}"
                f"{suggest(self.backend, BACKENDS)}; "
                f"known backends: {sorted(BACKENDS)}")

        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise SpecError(f"seed: must be an int, got {self.seed!r}")
        if not isinstance(self.eval_cost, (int, float)) or self.eval_cost < 0:
            raise SpecError(
                f"eval_cost: must be a non-negative number, got "
                f"{self.eval_cost!r}")
        return self
