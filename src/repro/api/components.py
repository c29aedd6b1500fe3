"""Built-in encoding and objective registrations + problem resolution.

Populates the :mod:`repro.api.registry` registries with every chromosome
representation of Section III.A and every optimality criterion of
Section II, then provides the resolution steps
``spec -> instance -> encoding -> objective -> Problem`` that
:func:`repro.api.facade.solve` composes.

Each encoding entry is tagged with the instance classes it can decode
(``instance_classes``), whether it is the documented default for a class
(``default_for``), and a representative registry instance
(``sample_instance``) used by conformance tests to exercise every
combination the registries expose.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Any

from ..encodings import (DispatchRuleEncoding, FlexibleJobShopEncoding,
                         FlowShopPermutationEncoding, HybridFlowShopEncoding,
                         LotStreamingEncoding, OpenShopPairSequenceEncoding,
                         OpenShopPermutationEncoding, OperationBasedEncoding,
                         Problem, RandomKeysFlowShopEncoding,
                         RandomKeysJobShopEncoding)
from ..instances import get_instance, with_due_dates_twk, with_weights
from ..scheduling.objectives import (Makespan, MaximumTardiness,
                                     TotalFlowTime, TotalWeightedCompletion,
                                     TotalWeightedTardiness,
                                     TotalWeightedUnitPenalty,
                                     WeightedCombination)
from .registry import (ENCODINGS, SpecError, register_encoding,
                       register_objective)

__all__ = ["resolve_instance", "resolve_encoding", "resolve_objective",
           "resolve_problem", "default_encoding_name",
           "instance_class_name", "enable_instance_cache",
           "disable_instance_cache", "instance_cache_stats"]


# -- per-process instance cache --------------------------------------------------
#
# Long-lived solver workers (see :mod:`repro.service.pool`) resolve the
# same named instances over and over.  Instance construction itself is
# cheap-ish (Taillard LCG loops), but the *decode tables* lazily memoised
# on the instance object (e.g. the flattened FJSP alternative tables the
# batch decoder attaches as ``_fjsp_batch_tables``) are not -- rebuilding
# them per job throws away exactly the work a resident worker should
# amortise.  The cache is opt-in and bounded: plain library use keeps the
# documented fresh-instance contract.

_INSTANCE_CACHE: OrderedDict | None = None
_INSTANCE_CACHE_MAX = 0
_INSTANCE_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def enable_instance_cache(maxsize: int = 32) -> None:
    """Memoise resolved instances in a bounded per-process LRU.

    Keyed on ``(spec.instance, spec.instance_params)``; a hit returns the
    *same* instance object, so decode tables memoised on it survive
    across jobs.  ``maxsize <= 0`` disables the cache.  Intended for
    long-lived workers (the service pool enables it at worker init);
    counters reset on every call.
    """
    global _INSTANCE_CACHE, _INSTANCE_CACHE_MAX
    _INSTANCE_CACHE_STATS.update(hits=0, misses=0, evictions=0)
    if maxsize <= 0:
        _INSTANCE_CACHE = None
        _INSTANCE_CACHE_MAX = 0
    else:
        _INSTANCE_CACHE = OrderedDict()
        _INSTANCE_CACHE_MAX = int(maxsize)


def disable_instance_cache() -> None:
    """Drop the instance cache and return to fresh-instance resolution."""
    enable_instance_cache(0)


def instance_cache_stats() -> dict[str, int | bool]:
    """Cache observability: enabled flag, size/capacity, hit counters."""
    return {"enabled": _INSTANCE_CACHE is not None,
            "size": len(_INSTANCE_CACHE or ()),
            "maxsize": _INSTANCE_CACHE_MAX,
            **_INSTANCE_CACHE_STATS}


def _instance_cache_key(spec) -> tuple[str, str]:
    return (spec.instance,
            json.dumps(spec.instance_params, sort_keys=True, default=repr))


# -- encodings (Section III.A) ---------------------------------------------------

@register_encoding(
    "operation-based", aliases=("operation_based",),
    description="Job shop permutation-with-repetition (direct encoding)",
    params={"mode": "semi_active"},
    instance_classes=("JobShopInstance",),
    default_for=("JobShopInstance",),
    sample_instance="ft06")
def _operation_based(instance, mode: str = "semi_active"):
    return OperationBasedEncoding(instance, mode=mode)


@register_encoding(
    "permutation", aliases=("flowshop-permutation",),
    description="Flow shop job permutation (the standard n-string)",
    params={},
    instance_classes=("FlowShopInstance",),
    default_for=("FlowShopInstance",),
    sample_instance="ta-fs-20x5-shaped")
def _flowshop_permutation(instance):
    return FlowShopPermutationEncoding(instance)


@register_encoding(
    "random-keys-flowshop", aliases=("random_keys_flowshop",),
    description="Flow shop random keys (real vector, argsort decode)",
    params={},
    instance_classes=("FlowShopInstance",),
    sample_instance="ta-fs-20x5-shaped")
def _random_keys_flowshop(instance):
    return RandomKeysFlowShopEncoding(instance)


@register_encoding(
    "random-keys-jobshop", aliases=("random_keys_jobshop",),
    description="Job shop random keys (indirect real-vector encoding)",
    params={},
    instance_classes=("JobShopInstance",),
    sample_instance="ft06")
def _random_keys_jobshop(instance):
    return RandomKeysJobShopEncoding(instance)


@register_encoding(
    "dispatch-rules", aliases=("dispatch_rules",),
    description="Job shop dispatching-rule alphabet (indirect encoding)",
    params={"rules": ("SPT", "LPT", "MWR", "LWR", "FIFO")},
    instance_classes=("JobShopInstance",),
    sample_instance="ft06")
def _dispatch_rules(instance, rules=("SPT", "LPT", "MWR", "LWR", "FIFO")):
    return DispatchRuleEncoding(instance, rules=tuple(rules))


@register_encoding(
    "openshop-permutation", aliases=("openshop_permutation",),
    description="Open shop job repetitions + greedy LPT decoder",
    params={"decoder": "lpt_task"},
    instance_classes=("OpenShopInstance",),
    default_for=("OpenShopInstance",),
    sample_instance="ta-os-5x5-shaped")
def _openshop_permutation(instance, decoder: str = "lpt_task"):
    return OpenShopPermutationEncoding(instance, decoder=decoder)


@register_encoding(
    "openshop-pairs", aliases=("openshop_pairs",),
    description="Open shop operation-id permutation (vectorised decode)",
    params={},
    instance_classes=("OpenShopInstance",),
    sample_instance="ta-os-5x5-shaped")
def _openshop_pairs(instance):
    return OpenShopPairSequenceEncoding(instance)


@register_encoding(
    "flexible-job-shop", aliases=("flexible_job_shop", "fjsp"),
    description="FJSP two-part (machine assignment, operation sequence)",
    params={},
    instance_classes=("FlexibleJobShopInstance",),
    default_for=("FlexibleJobShopInstance",),
    sample_instance="fjsp-8x5-shaped")
def _flexible_job_shop(instance):
    return FlexibleJobShopEncoding(instance)


@register_encoding(
    "hybrid-flow-shop", aliases=("hybrid_flow_shop", "hfs"),
    description="Hybrid flow shop (assignment matrix, job permutation)",
    params={"use_assignment": True},
    instance_classes=("FlexibleFlowShopInstance",),
    default_for=("FlexibleFlowShopInstance",),
    sample_instance="hfs-10x3x2-shaped")
def _hybrid_flow_shop(instance, use_assignment: bool = True):
    return HybridFlowShopEncoding(instance, use_assignment=use_assignment)


@register_encoding(
    "lot-streaming", aliases=("lot_streaming",),
    description="HFS lot streaming (sublot-size keys, job permutation)",
    params={"sublots": 2},
    instance_classes=("FlexibleFlowShopInstance",),
    sample_instance="hfs-10x3x2-shaped")
def _lot_streaming(instance, sublots: int = 2):
    return LotStreamingEncoding(instance, sublots=sublots)


@register_encoding(
    "fuzzy-flowshop", aliases=("fuzzy_flowshop", "fuzzy"),
    description="Fuzzy flow shop random keys scored by agreement index",
    params={"spread": 0.2, "due_tau": 1.5, "fuzzy_seed": 1},
    instance_classes=("FlowShopInstance",),
    sample_instance="ta-fs-20x5-shaped")
def _fuzzy_flowshop(instance, spread: float = 0.2, due_tau: float = 1.5,
                    fuzzy_seed: int = 1):
    from ..extensions.fuzzy import (FuzzyFlowShopEncoding,
                                    FuzzyFlowShopInstance)
    fuzzy = FuzzyFlowShopInstance.from_crisp(
        instance, spread=float(spread), due_tau=float(due_tau),
        seed=int(fuzzy_seed))
    return FuzzyFlowShopEncoding(fuzzy)


@register_encoding(
    "stochastic-jobshop", aliases=("stochastic_jobshop", "stochastic"),
    description="Stochastic job shop, CRN expected makespan over K scenarios",
    params={"spread": 0.25, "distribution": "uniform", "n_scenarios": 16,
            "scenario_seed": 0},
    instance_classes=("JobShopInstance",),
    sample_instance="ft06")
def _stochastic_jobshop(instance, spread: float = 0.25,
                        distribution: str = "uniform", n_scenarios: int = 16,
                        scenario_seed: int = 0):
    from ..extensions.stochastic import (StochasticJobShopEncoding,
                                         StochasticJobShopInstance)
    stochastic = StochasticJobShopInstance(
        instance, spread=float(spread), distribution=str(distribution),
        n_scenarios=int(n_scenarios), seed=int(scenario_seed))
    return StochasticJobShopEncoding(stochastic)


# -- objectives (Section II) -----------------------------------------------------

@register_objective("makespan", aliases=("cmax",),
                    description="C_max — the dominant surveyed criterion",
                    params={})
def _makespan():
    return Makespan()


@register_objective("total-weighted-completion",
                    aliases=("total_weighted_completion", "sum-wc"),
                    description="Σ w_j C_j (Bozejko & Wodecki [31])",
                    params={})
def _total_weighted_completion():
    return TotalWeightedCompletion()


@register_objective("total-weighted-tardiness",
                    aliases=("total_weighted_tardiness", "sum-wt"),
                    description="Σ w_j T_j", params={})
def _total_weighted_tardiness():
    return TotalWeightedTardiness()


@register_objective("total-weighted-unit-penalty",
                    aliases=("total_weighted_unit_penalty", "sum-wu"),
                    description="Σ w_j U_j (weighted late-job count)",
                    params={})
def _total_weighted_unit_penalty():
    return TotalWeightedUnitPenalty()


@register_objective("maximum-tardiness", aliases=("maximum_tardiness", "tmax"),
                    description="T_max (Rashidi et al. [38])", params={})
def _maximum_tardiness():
    return MaximumTardiness()


@register_objective("total-flow-time", aliases=("total_flow_time",),
                    description="Σ (C_j − R_j), unweighted flow time",
                    params={})
def _total_flow_time():
    return TotalFlowTime()


@register_objective(
    "energy-capped-makespan", aliases=("energy_capped_makespan",),
    description="C_max + penalty x peak-power overshoot (energy-aware)",
    params={"peak_cap": None, "penalty": 10.0, "processing_watts": 10.0,
            "idle_watts": 2.0})
def _energy_capped_makespan(peak_cap=None, penalty: float = 10.0,
                            processing_watts: float = 10.0,
                            idle_watts: float = 2.0):
    from ..extensions.energy import EnergyAwareObjective
    cap = float("inf") if peak_cap is None else float(peak_cap)
    return EnergyAwareObjective(peak_cap=cap, penalty=float(penalty),
                                processing_watts=float(processing_watts),
                                idle_watts=float(idle_watts))


@register_objective(
    "energy-makespan", aliases=("energy_makespan",),
    description="w_e x energy + w_c x C_max weighted scalarisation",
    params={"weights": (0.5, 0.5), "processing_watts": 10.0,
            "idle_watts": 2.0})
def _energy_makespan(weights=(0.5, 0.5), processing_watts: float = 10.0,
                     idle_watts: float = 2.0):
    from ..extensions.energy import EnergyMakespanVector
    try:
        w_energy, w_makespan = (float(w) for w in weights)
    except (TypeError, ValueError) as exc:
        raise SpecError("objective_params: 'weights' takes an "
                        "[energy, makespan] pair") from exc
    return EnergyMakespanVector(weights=(w_energy, w_makespan),
                                processing_watts=float(processing_watts),
                                idle_watts=float(idle_watts))


@register_objective(
    "weighted", aliases=("weighted-combination", "weighted_combination"),
    description="Linear combination of named criteria ('any combination')",
    params={"parts": ()})
def _weighted(parts=()):
    if not parts:
        raise SpecError(
            "objective_params: 'weighted' needs parts, e.g. "
            "{'parts': [[0.7, 'makespan'], [0.3, 'maximum-tardiness']]}")
    resolved = []
    for item in parts:
        try:
            weight, name = item
        except (TypeError, ValueError) as exc:
            raise SpecError(
                f"objective_params: each part must be a [weight, name] "
                f"pair, got {item!r}") from exc
        if name in ("weighted", "weighted-combination",
                    "weighted_combination"):
            raise SpecError("objective_params: 'weighted' parts cannot nest "
                            "another weighted combination")
        resolved.append((float(weight), _make_objective(str(name))))
    return WeightedCombination(resolved)


def _make_objective(name: str, **params: Any):
    from .registry import objective_entry
    entry = objective_entry(name)
    entry.check_params(params, "objective_params")
    return entry.factory(**params)


# -- resolution ------------------------------------------------------------------

def instance_class_name(instance_or_name) -> str:
    """Class name of a registry instance (``'JobShopInstance'`` etc.)."""
    if isinstance(instance_or_name, str):
        instance_or_name = get_instance(instance_or_name)
    return type(instance_or_name).__name__


def default_encoding_name(instance_or_name) -> str:
    """The documented default encoding for an instance's problem class."""
    cls_name = instance_class_name(instance_or_name)
    for entry in ENCODINGS.entries():
        if cls_name in entry.tags.get("default_for", ()):
            return entry.name
    raise SpecError(f"no default encoding for {cls_name}; set "
                    f"spec.encoding explicitly (available: "
                    f"{ENCODINGS.names()})")


def resolve_instance(spec):
    """Instance named by ``spec.instance``, post-processed.

    ``instance_params.due_tau`` attaches TWK due dates (tardiness-family
    objectives need finite due dates); ``instance_params.weights`` --
    ``true`` or an ``[lo, hi]`` pair -- attaches job weights.  Both are
    deterministic (Taillard LCG streams), so resolution is pure: with
    :func:`enable_instance_cache` on (service workers), equal
    ``(instance, instance_params)`` keys share one instance object and
    its memoised decode tables; otherwise every call builds fresh.
    """
    if _INSTANCE_CACHE is None:
        return _build_instance(spec)
    key = _instance_cache_key(spec)
    cached = _INSTANCE_CACHE.get(key)
    if cached is not None:
        _INSTANCE_CACHE.move_to_end(key)
        _INSTANCE_CACHE_STATS["hits"] += 1
        return cached
    _INSTANCE_CACHE_STATS["misses"] += 1
    instance = _build_instance(spec)
    _INSTANCE_CACHE[key] = instance
    while len(_INSTANCE_CACHE) > _INSTANCE_CACHE_MAX:
        _INSTANCE_CACHE.popitem(last=False)
        _INSTANCE_CACHE_STATS["evictions"] += 1
    return instance


def _build_instance(spec):
    try:
        instance = get_instance(spec.instance)
    except KeyError as exc:
        from ..instances import available_instances
        from .registry import suggest
        raise SpecError(
            f"instance: unknown instance {spec.instance!r}"
            f"{suggest(spec.instance, available_instances())}") from exc
    params = spec.instance_params
    try:
        if params.get("due_tau") is not None:
            instance = with_due_dates_twk(instance,
                                          tau=float(params["due_tau"]))
        weights = params.get("weights")
        if weights:
            if weights is True:
                instance = with_weights(instance)
            else:
                lo, hi = weights
                instance = with_weights(instance, lo=int(lo), hi=int(hi))
    except (TypeError, ValueError) as exc:
        raise SpecError(
            f"instance_params: {exc} (due_tau takes a number; weights "
            f"takes true or an [lo, hi] pair)") from exc
    return instance


def resolve_encoding(spec, instance):
    """Encoding object for ``spec`` bound to ``instance``."""
    name = spec.encoding or default_encoding_name(instance)
    entry = ENCODINGS.get(name)
    accepted = entry.tags.get("instance_classes", ())
    cls_name = type(instance).__name__
    if accepted and cls_name not in accepted:
        raise SpecError(
            f"encoding: {entry.name!r} decodes {sorted(accepted)} "
            f"instances, but {instance.name!r} is a {cls_name}")
    entry.check_params(spec.encoding_params, "encoding_params")
    try:
        return entry.factory(instance, **spec.encoding_params)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"encoding_params: {exc}") from exc


def resolve_objective(spec):
    """Objective object named by ``spec.objective``."""
    try:
        return _make_objective(spec.objective, **spec.objective_params)
    except SpecError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecError(f"objective_params: {exc}") from exc


def resolve_problem(spec, instance=None) -> Problem:
    """``spec -> Problem`` (instance + encoding + objective + eval_cost).

    ``instance`` optionally reuses an already-resolved instance object
    (the facade resolves once and threads it through every step).
    """
    if instance is None:
        instance = resolve_instance(spec)
    encoding = resolve_encoding(spec, instance)
    objective = resolve_objective(spec)
    return Problem(encoding, objective, eval_cost=spec.eval_cost)
