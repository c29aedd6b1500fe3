"""Per-pair variation and the choice between the two generation paths.

The scalar crossovers and mutations with a batch kernel are that kernel
on a one-row block.  Inputs that do not stack into a matrix breed pair
by pair (``SimpleGA.make_offspring``, ``CellularGA._breed_cell``);
every other input runs the array generation.  Checked against the
per-pair loops transcribed in ``scalar_reference``:

1. every operator call equals its transcribed body, in results and in
   RNG state;
2. the per-pair generations equal the transcribed loops over every
   registered crossover x mutation, at the rate extremes and in
   between, with odd broods, partial replacement and immigration;
3. an array generation makes one crossover and one mutation kernel
   call;
4. engines take the array path exactly when the input stacks, whatever
   ``substrate`` says, and refuse a repairing crossover on an
   assignment part on both paths.
"""

from functools import partial

import numpy as np
import pytest

import repro
import scalar_reference
from repro import CellularGA, GAConfig, IslandGA, MaxGenerations, SimpleGA
from repro.core.population import Population
from repro.core.substrate import ArrayPopulationView
from repro.encodings import (DispatchRuleEncoding,
                             FlowShopPermutationEncoding,
                             HybridFlowShopEncoding, OperationBasedEncoding,
                             Problem, RandomKeysFlowShopEncoding)
from repro.instances import flexible_flow_shop, flow_shop, job_shop
from repro.operators import (ArithmeticCrossover, AssignmentMutation,
                             CompositeCrossover, CompositeMutation,
                             GaussianKeyMutation, InversionMutation,
                             JobBasedCrossover, KernelCrossover,
                             KernelMutation, LinearOrderCrossover,
                             NPointCrossover, OrderCrossover,
                             ParameterizedUniformCrossover, PMXCrossover,
                             ResampleKeyMutation, ScrambleMutation,
                             ShiftMutation, SwapMutation, UniformCrossover)
from repro.operators import batch
from repro.operators.batch import SplitTwin


def same(x, y) -> bool:
    """Equal genomes: structure, dtype, shape and bytes."""
    if isinstance(x, tuple):
        return (isinstance(y, tuple) and len(x) == len(y)
                and all(same(a, b) for a, b in zip(x, y)))
    return (isinstance(y, np.ndarray) and x.dtype == y.dtype
            and x.shape == y.shape and x.tobytes() == y.tobytes())


def arrays(genome) -> list:
    return list(genome) if isinstance(genome, tuple) else [genome]


def _buffer(array: np.ndarray) -> np.ndarray:
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def owned(genomes) -> bool:
    """Each array of ``genomes`` sits alone in its own buffer."""
    flat = [a for g in genomes for a in arrays(g)]
    return (all(_buffer(a).nbytes == a.nbytes for a in flat)
            and not any(np.shares_memory(flat[i], flat[j])
                        for i in range(len(flat)) for j in range(i)))


# -- 1. operator calls vs their transcribed loops -----------------------------

KINDS = ("permutation", "repetition", "real", "2-D")


def genome_pair(kind: str, n: int, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "permutation":
        return rng.permutation(n), rng.permutation(n)
    if kind == "repetition":
        base = np.arange(n, dtype=np.int64) % max(1, n // 5)
        return rng.permutation(base), rng.permutation(base)
    if kind == "real":
        return rng.random(n), rng.random(n)
    # an HFS-style (jobs, stages) machine-assignment part
    return rng.integers(0, 3, size=(n, 3)), rng.integers(0, 3, size=(n, 3))


CROSSOVERS = [
    (OrderCrossover(), ("permutation", "repetition")),
    (PMXCrossover(), ("permutation",)),
    (JobBasedCrossover(), ("permutation", "repetition")),
    (NPointCrossover(1), KINDS),
    (NPointCrossover(3), KINDS),
    (NPointCrossover(2, repair=False), KINDS),
    (UniformCrossover(), KINDS),
    (UniformCrossover(0.3, repair=False), KINDS),
    (ParameterizedUniformCrossover(0.6), ("real", "permutation")),
    (ArithmeticCrossover(), ("real", "2-D")),
    (ArithmeticCrossover(0.25), ("real",)),
]

MUTATIONS = [
    (SwapMutation(), ("permutation", "repetition", "real")),
    (SwapMutation(3), ("permutation", "repetition")),
    (ShiftMutation(), ("permutation", "repetition", "real")),
    (InversionMutation(), ("permutation", "repetition", "real")),
    (AssignmentMutation(np.array([3, 2, 4]), rate=0.4),
     ("2-D", "permutation")),
    (GaussianKeyMutation(sigma=0.2, rate=0.5), ("real",)),
]


def _describe(op) -> str:
    return f"{type(op).__name__}{sorted(vars(op).items())}"


@pytest.mark.parametrize("n", (1, 2, 10, 50))
@pytest.mark.parametrize(
    "op,kind", [(op, kind) for op, kinds in CROSSOVERS for kind in kinds],
    ids=lambda v: v if isinstance(v, str) else _describe(v))
def test_crossover_call_is_its_transcribed_loop(op, kind, n):
    for seed in range(3):
        a, b = genome_pair(kind, n, seed)
        rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
        got = op(a, b, rng)
        want = scalar_reference.reference(op)(a, b, ref_rng)
        assert same(got[0], want[0]) and same(got[1], want[1])
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert owned([*got, a, b])


@pytest.mark.parametrize("n", (1, 2, 10, 50))
@pytest.mark.parametrize(
    "op,kind", [(op, kind) for op, kinds in MUTATIONS for kind in kinds],
    ids=lambda v: v if isinstance(v, str) else _describe(v))
def test_mutation_call_is_its_transcribed_loop(op, kind, n):
    for seed in range(3):
        genome = genome_pair(kind, n, seed)[0]
        rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
        got = op(genome, rng)
        want = scalar_reference.reference(op)(genome, ref_rng)
        assert same(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert owned([got, genome])


def built_in_kernel_operators() -> set:
    """Library operator classes with a registered batch twin."""
    return {cls for cls in [*batch._BATCH_CROSSOVERS, *batch._BATCH_MUTATIONS]
            if cls.__module__.startswith("repro.")}


def test_kernel_operator_bases_leave_the_draw_to_subclasses():
    rng, genome = np.random.default_rng(0), np.arange(4)
    with pytest.raises(NotImplementedError):
        KernelCrossover()(genome, genome, rng)
    with pytest.raises(NotImplementedError):
        KernelMutation()(genome, rng)


def test_every_kernel_operator_is_transcribed():
    """The deleted scalar bodies all have a transcription to test against."""
    assert built_in_kernel_operators() <= set(scalar_reference.TRANSCRIBED)


# -- 2. whole generations vs the per-pair loops -------------------------------

class RotateCrossover:
    """A third-party crossover: no batch kernel, so per pair only."""

    def __call__(self, a, b, rng):
        k = int(rng.integers(0, len(a)))
        return np.roll(a, k), np.roll(b, -k)


class ReverseMutation:
    """A third-party mutation: no batch kernel, so per pair only."""

    def __call__(self, genome, rng):
        return genome[::-1].copy() if rng.random() < 0.5 else genome.copy()


def _hfs():
    problem = Problem(HybridFlowShopEncoding(
        flexible_flow_shop(5, (2, 3), seed=4)))
    spans = problem.encoding.part_spans
    domains = problem.encoding.assignment_domain_sizes()
    crossovers = [
        # the default: uniform on the 2-D assignment part, OX on the order
        CompositeCrossover([UniformCrossover(repair=False), OrderCrossover()],
                           spans),
        CompositeCrossover([NPointCrossover(2, repair=False),
                            PMXCrossover()], spans),
        CompositeCrossover([None, JobBasedCrossover()], spans),
        # real-valued assignment parts: crossed genomes mix dtypes
        CompositeCrossover([ArithmeticCrossover(), OrderCrossover()],
                           spans),
        CompositeCrossover([UniformCrossover(repair=False),
                            OrderCrossover()]),  # no spans: per pair only
    ]
    mutations = [
        CompositeMutation([AssignmentMutation(domains, rate=0.3),
                           SwapMutation()], spans),
        CompositeMutation([None, InversionMutation()], spans),
        CompositeMutation([AssignmentMutation(domains), ShiftMutation()]),
    ]
    return problem, crossovers, mutations


def families() -> dict:
    """Problem plus compatible crossovers and mutations, per genome kind."""
    return {
        "permutation": (
            Problem(FlowShopPermutationEncoding(flow_shop(7, 3, seed=1))),
            [OrderCrossover(), PMXCrossover(), JobBasedCrossover(),
             NPointCrossover(2), UniformCrossover(), LinearOrderCrossover(),
             RotateCrossover()],
            [SwapMutation(), ShiftMutation(), InversionMutation(),
             ScrambleMutation(), ReverseMutation()]),
        "repetition": (
            Problem(OperationBasedEncoding(job_shop(3, 3, seed=2))),
            [OrderCrossover(), JobBasedCrossover(), NPointCrossover(1),
             UniformCrossover()],
            [SwapMutation(2), ShiftMutation(), InversionMutation()]),
        "real": (
            Problem(RandomKeysFlowShopEncoding(flow_shop(7, 3, seed=3))),
            [ParameterizedUniformCrossover(0.6), ArithmeticCrossover(),
             UniformCrossover(repair=False), NPointCrossover(1)],
            [GaussianKeyMutation(), ResampleKeyMutation(0.3),
             SwapMutation()]),
        # integer genomes that a real-valued crossover turns into floats:
        # a generation mixes int and float children
        "rules": (
            Problem(DispatchRuleEncoding(job_shop(3, 3, seed=5))),
            [ParameterizedUniformCrossover(0.6), UniformCrossover()],
            [AssignmentMutation(np.array([5]), rate=0.3), SwapMutation()]),
        "hfs": _hfs(),
    }


FAMILIES = families()
OPERATOR_CASES = [(family, i, j)
                  for family, (_, xs, ms) in FAMILIES.items()
                  for i in range(len(xs)) for j in range(len(ms))]
RATES = [(0.0, 0.0), (0.0, 0.5), (0.0, 1.0), (0.5, 0.0), (0.5, 0.5),
         (0.5, 1.0), (1.0, 0.0), (1.0, 0.5), (1.0, 1.0)]
SHAPES = [dict(population_size=9),                        # odd brood
          dict(population_size=10, generation_gap=0.5),   # 5 bred
          dict(population_size=10, immigration_rate=0.1)]


def test_cases_cover_every_registered_operator():
    covered = {type(op) for _, xs, ms in FAMILIES.values()
               for op in [*xs, *ms]}
    assert built_in_kernel_operators() <= covered


def recorded(fn, log: list):
    def wrapper(*args):
        out = fn(*args)
        log.append([ind.genome for ind in
                    (out if isinstance(out, list) else [out])])
        return out
    return wrapper


def compare_logs(new_log, ref_log):
    assert len(new_log) == len(ref_log) > 0
    for new, ref in zip(new_log, ref_log):
        assert len(new) == len(ref)
        assert all(same(a, b) for a, b in zip(new, ref))
        assert owned(new)


def run_simple(family, crossover, mutation, seed=0, **config):
    problem = FAMILIES[family][0]
    logs = []
    engines = []
    for reference in (False, True):
        with scalar_reference.per_pair():
            ga = SimpleGA(problem, GAConfig(crossover=crossover,
                                            mutation=mutation, **config),
                          MaxGenerations(3), seed=seed)
        log = []
        fn = (partial(scalar_reference.make_offspring, ga) if reference
              else ga.make_offspring)
        ga.make_offspring = recorded(fn, log)
        ga.run()
        logs.append(log)
        engines.append(ga)
    compare_logs(*logs)
    new, ref = engines
    assert new.rng.bit_generator.state == ref.rng.bit_generator.state
    assert all(same(a.genome, b.genome) for a, b in
               zip(new.population, ref.population))


def run_cellular(family, crossover, mutation, seed=0, update="synchronous",
                 **config):
    problem = FAMILIES[family][0]
    logs = []
    engines = []
    for reference in (False, True):
        with scalar_reference.per_pair():
            cga = CellularGA(problem, rows=3, cols=3,
                             config=GAConfig(crossover=crossover,
                                             mutation=mutation, **config),
                             termination=MaxGenerations(3), seed=seed,
                             update=update)
        log = []
        fn = (partial(scalar_reference.breed_cell, cga) if reference
              else cga._breed_cell)
        cga._breed_cell = recorded(fn, log)
        cga.run()
        logs.append(log)
        engines.append(cga)
    compare_logs(*logs)
    new, ref = engines
    assert new.rng.bit_generator.state == ref.rng.bit_generator.state
    assert all(same(a.genome, b.genome) for a, b in
               zip(new.population, ref.population))


@pytest.mark.parametrize("rates", [(1.0, 1.0), (0.5, 0.5)])
@pytest.mark.parametrize("family,i,j", OPERATOR_CASES)
def test_make_offspring_equals_per_pair_loop(family, i, j, rates):
    _, crossovers, mutations = FAMILIES[family]
    run_simple(family, crossovers[i], mutations[j], population_size=9,
               crossover_rate=rates[0], mutation_rate=rates[1])


@pytest.mark.parametrize("rates", [(1.0, 1.0), (0.5, 0.5)])
@pytest.mark.parametrize("family,i,j", OPERATOR_CASES)
def test_synchronous_cells_equal_per_cell_loop(family, i, j, rates):
    _, crossovers, mutations = FAMILIES[family]
    run_cellular(family, crossovers[i], mutations[j],
                 crossover_rate=rates[0], mutation_rate=rates[1])


@pytest.mark.parametrize("rates", RATES)
@pytest.mark.parametrize("family", list(FAMILIES))
def test_rate_extremes_and_between(family, rates):
    _, crossovers, mutations = FAMILIES[family]
    run_simple(family, crossovers[0], mutations[0], seed=1,
               population_size=9, crossover_rate=rates[0],
               mutation_rate=rates[1])
    run_cellular(family, crossovers[0], mutations[0], seed=1,
                 crossover_rate=rates[0], mutation_rate=rates[1])


@pytest.mark.parametrize("shape", SHAPES,
                         ids=["odd", "gap-0.5", "immigration-0.1"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_brood_shapes(family, shape):
    _, crossovers, mutations = FAMILIES[family]
    for i, j in ((0, 0), (len(crossovers) - 1, len(mutations) - 1)):
        run_simple(family, crossovers[i], mutations[j], seed=2,
                   crossover_rate=0.7, mutation_rate=0.6, **shape)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_asynchronous_cells_equal_per_cell_loop(family):
    _, crossovers, mutations = FAMILIES[family]
    run_cellular(family, crossovers[0], mutations[0], seed=3,
                 update="asynchronous", crossover_rate=0.8,
                 mutation_rate=0.8)


# -- 3. one kernel call per operator and array generation ---------------------

@pytest.fixture
def kernel_calls(monkeypatch):
    """Rows of every crossover / mutation kernel call, in call order."""
    calls = {"crossover": [], "mutation": []}
    for registry, kind in ((batch._BATCH_CROSSOVERS, "crossover"),
                           (batch._BATCH_MUTATIONS, "mutation")):
        for cls, twin in list(registry.items()):
            if not isinstance(twin, SplitTwin):  # a one-shot test twin
                continue

            def kernel(op, *args, _kernel=twin.kernel, _log=calls[kind]):
                _log.append(args[0].shape[0])
                return _kernel(op, *args)
            monkeypatch.setitem(registry, cls,
                                SplitTwin(twin.draw, kernel))
    return calls


SPY_CONFIG = dict(population_size=16, crossover_rate=1.0, mutation_rate=1.0,
                  crossover=OrderCrossover(), mutation=SwapMutation())


def _flow_problem():
    return Problem(FlowShopPermutationEncoding(flow_shop(8, 3, seed=7)))


def test_simple_generation_is_one_kernel_call_per_operator(kernel_calls):
    SimpleGA(_flow_problem(), GAConfig(**SPY_CONFIG), MaxGenerations(10),
             seed=1).run()
    assert kernel_calls["crossover"] == [8] * 10  # 16 bred: 8 pairs
    assert kernel_calls["mutation"] == [16] * 10


def test_synchronous_cellular_generation_is_one_call(kernel_calls):
    CellularGA(_flow_problem(), rows=4, cols=4,
               config=GAConfig(**SPY_CONFIG),
               termination=MaxGenerations(10), seed=1).run()
    assert kernel_calls["crossover"] == [16] * 10
    assert kernel_calls["mutation"] == [16] * 10


# -- 4. the path follows the input -------------------------------------------

def _lot_streaming_problem():
    from repro.encodings import LotStreamingEncoding
    return Problem(LotStreamingEncoding(flexible_flow_shop(4, (2, 2), seed=3)))


def _per_pair(engine) -> bool:
    """Whether ``engine`` bred ``Individual`` objects pair by pair."""
    pop = engine.population
    return (engine.substrate == "object" and isinstance(pop, Population)
            and not isinstance(pop, ArrayPopulationView))


FALLBACKS = {
    "lot-streaming": lambda: SimpleGA(
        _lot_streaming_problem(), GAConfig(population_size=8),
        MaxGenerations(2), seed=0),
    "lox": lambda: SimpleGA(
        _flow_problem(), GAConfig(population_size=8,
                                  crossover=LinearOrderCrossover()),
        MaxGenerations(2), seed=0),
    "scramble": lambda: SimpleGA(
        _flow_problem(), GAConfig(population_size=8,
                                  mutation=ScrambleMutation()),
        MaxGenerations(2), seed=0),
    "cellular-lox": lambda: CellularGA(
        _flow_problem(), rows=3, cols=3,
        config=GAConfig(crossover=LinearOrderCrossover()),
        termination=MaxGenerations(2), seed=0),
    "async-sweep": lambda: CellularGA(
        _flow_problem(), rows=3, cols=3, update="asynchronous",
        termination=MaxGenerations(2), seed=0),
}


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_inputs_that_do_not_stack_breed_per_pair(name):
    engine = FALLBACKS[name]()
    engine.run()
    assert _per_pair(engine)


def test_island_merging_and_mixed_islands_breed_per_pair():
    problem = _flow_problem()
    merging = IslandGA(problem, n_islands=2,
                       config=GAConfig(population_size=8),
                       termination=MaxGenerations(4), seed=0,
                       merge_on_stagnation=40)
    mixed = IslandGA(problem, n_islands=2,
                     config=[GAConfig(population_size=8),
                             GAConfig(population_size=8,
                                      crossover=LinearOrderCrossover())],
                     termination=MaxGenerations(4), seed=0)
    for engine in (merging, mixed):
        result = engine.run()
        assert result.extra["substrate"] == "object"
        assert all(_per_pair(isl) for isl in engine.islands)


def test_stackable_input_runs_the_array_path_on_either_substrate():
    problem = _flow_problem()
    ga = SimpleGA(problem, GAConfig(population_size=8), MaxGenerations(2),
                  seed=0)
    cga = CellularGA(problem, rows=3, cols=3,
                     termination=MaxGenerations(2), seed=0)
    ga.run()
    cga.run()
    assert ga.substrate == cga.substrate == "array"
    assert ga.arrays is not None and cga.arrays is not None


GA_SPECS = {
    "simple": {},
    "master-slave": {"backend": "serial"},
    "island": {"islands": 2},
    "cellular": {"rows": 3, "cols": 3},
    "hybrid": {"islands": 2, "rows": 3, "cols": 3, "migration_interval": 2},
    "two-level": {"islands": 2, "migration_interval": 2,
                  "broadcast_interval": 4},
}


@pytest.mark.parametrize("instance", ["ft06", "fjsp-8x5-shaped"])
@pytest.mark.parametrize("engine", sorted(GA_SPECS))
def test_object_and_array_substrates_agree_bit_for_bit(engine, instance):
    reports = [repro.solve(repro.SolverSpec(
        instance=instance, engine=engine, engine_params=GA_SPECS[engine],
        substrate=substrate, seed=3, ga={"population_size": 18},
        termination={"max_generations": 6}))
        for substrate in ("object", "array")]
    a, b = reports
    assert a.extra["substrate"] == b.extra["substrate"] == "array"
    assert a.best_objective == b.best_objective
    assert a.evaluations == b.evaluations
    assert a.to_dict()["best_genome"] == b.to_dict()["best_genome"]


@pytest.mark.parametrize("instance", ["hfs-10x3x2-shaped",
                                      "fjsp-8x5-shaped"])
def test_repairing_assignment_crossover_is_refused_per_pair_too(instance):
    # the per-pair call would repair machine indices to parent A's
    # multiset, moving them onto operations outside their domains
    from repro.encodings.assignment_sequence import FlexibleJobShopEncoding
    from repro.instances import get_instance
    inst = get_instance(instance)
    encoding = (HybridFlowShopEncoding(inst) if instance.startswith("hfs")
                else FlexibleJobShopEncoding(inst))
    problem = Problem(encoding)
    for part in (NPointCrossover(2), UniformCrossover()):
        for spans in (encoding.part_spans, None):  # no spans: per pair
            cross = CompositeCrossover([part, None], spans)
            with pytest.raises(ValueError, match="assignment part"):
                SimpleGA(problem, GAConfig(crossover=cross),
                         MaxGenerations(2), seed=0)
            with pytest.raises(ValueError, match="assignment part"):
                CellularGA(problem, rows=2, cols=2,
                           config=GAConfig(crossover=cross),
                           update="asynchronous")
