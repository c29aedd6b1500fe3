"""Tests for the pluggable array backend (``repro.core.backend``).

Covers the two-backend registry, the instrumented namespace's
Array-API-subset enforcement, the foreign-namespace adapter's
fallbacks, instrumented == numpy bit-identity and int64 index pinning.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from scalar_reference import path
import repro
from repro.api import SolverSpec, solve
from repro.api.registry import SpecError
from repro.core.backend import (ARRAY_API_NAMES, BACKENDS, COMPAT_NAMES,
                                EXTENSION_NAMES, ArrayBackend,
                                BackendPortabilityError, NamespaceAdapter,
                                active_backend, active_namespace,
                                available_backends, get_backend, use_backend)
from repro.core.ga import GAConfig
from repro.core.substrate import (ArrayState, make_offspring_matrix,
                                  stable_topk)
from repro.encodings import OperationBasedEncoding, Problem
from repro.instances import get_instance
from repro.parallel.fine_grained import CellularGA, grid_neighbor_table


# -- registry ----------------------------------------------------------------------

class TestRegistry:
    def test_exactly_numpy_and_instrumented(self):
        assert available_backends() == BACKENDS == ("numpy", "instrumented")
        assert repro.available_backends() == BACKENDS  # package-level export

    def test_get_backend_returns_cached_singletons(self):
        assert get_backend("numpy") is get_backend("numpy")
        assert get_backend("numpy").name == "numpy"
        assert get_backend() is get_backend("numpy")  # default

    def test_unknown_backend_is_value_error(self):
        with pytest.raises(ValueError, match="unknown backend 'tpu'"):
            get_backend("tpu")


class TestSpecIntegration:
    @pytest.mark.parametrize("name", ["tpu", "cupy"])
    def test_unknown_backend_in_spec_is_spec_error(self, name):
        spec = SolverSpec(instance="ft06", backend=name,
                          termination={"max_generations": 1})
        with pytest.raises(SpecError, match="unknown backend") as err:
            spec.validate()
        assert "numpy" in str(err.value)
        assert "instrumented" in str(err.value)

    def test_backend_round_trips_through_spec_json(self):
        spec = SolverSpec(instance="ft06", backend="instrumented",
                          termination={"max_generations": 1})
        again = SolverSpec.from_json(spec.to_json())
        assert again.backend == "instrumented" and again == spec

    def test_backend_changes_cache_key(self):
        base = SolverSpec(instance="ft06",
                          termination={"max_generations": 1})
        other = base.replace(backend="instrumented")
        assert base.cache_key() != other.cache_key()


# -- the active-backend context ----------------------------------------------------

class TestActiveBackend:
    def test_default_is_numpy(self):
        assert active_backend().name == "numpy"
        assert active_namespace() is get_backend("numpy").xp

    def test_use_backend_scopes_and_restores(self):
        with use_backend("instrumented") as backend:
            assert backend is get_backend("instrumented")
            assert active_backend() is backend
            assert active_namespace() is backend.xp
        assert active_backend().name == "numpy"

    def test_use_backend_accepts_backend_objects(self):
        backend = ArrayBackend("custom", get_backend("numpy").xp)
        with use_backend(backend):
            assert active_backend() is backend

    def test_nested_contexts(self):
        with use_backend("instrumented"):
            with use_backend("numpy"):
                assert active_backend().name == "numpy"
            assert active_backend().name == "instrumented"


# -- the instrumented namespace ----------------------------------------------------

class TestInstrumentedNamespace:
    def test_allowed_names_forward_to_numpy(self):
        xp = get_backend("instrumented").xp
        assert xp.sum is np.sum  # literal forwarding => bit-identity
        assert xp.int64 is np.int64
        np.testing.assert_array_equal(
            xp.stable_argsort(np.asarray([2.0, 1.0, 1.0, 0.5])),
            [3, 1, 2, 0])

    def test_numpy_only_names_raise_portability_error(self):
        xp = get_backend("instrumented").xp
        for name in ("flatnonzero", "vectorize", "frombuffer", "matrix",
                     "argwhere"):
            with pytest.raises(BackendPortabilityError,
                               match="Array-API subset"):
                getattr(xp, name)
        # the error message points at the portability docs
        with pytest.raises(BackendPortabilityError,
                           match="backend-portable"):
            xp.nansum

    def test_used_names_are_recorded(self):
        xp = get_backend("instrumented").xp
        xp.arange  # noqa: B018 - touching the attribute is the point
        assert "arange" in xp.used
        assert xp.used <= (ARRAY_API_NAMES | EXTENSION_NAMES | COMPAT_NAMES)

    def test_extension_helpers_match_numpy_spellings(self):
        xp = get_backend("instrumented").xp
        rng = np.random.default_rng(7)
        x = rng.integers(0, 50, size=40)
        np.testing.assert_array_equal(
            xp.stable_argsort(x), np.argsort(x, kind="stable"))
        np.testing.assert_array_equal(
            xp.bincount(x, minlength=60), np.bincount(x, minlength=60))
        np.testing.assert_array_equal(
            xp.maximum_accumulate(x), np.maximum.accumulate(x))
        np.testing.assert_array_equal(
            sorted(xp.partition(np.copy(x), 5)[:5]), np.sort(x)[:5])
        acc = np.zeros(8)
        xp.scatter_add(acc, x % 8, np.ones_like(x, dtype=float))
        np.testing.assert_array_equal(acc, np.bincount(x % 8, minlength=8))
        copied = xp.copy(x)
        assert copied is not x
        np.testing.assert_array_equal(copied, x)


# -- the foreign-namespace adapter -------------------------------------------------

def _standard_only_namespace(argsort_takes_stable=True):
    """A namespace with only Array-API spellings: no ``partition``,
    ``argpartition``, ``copy``, ``concatenate`` or ``cumsum``, so every
    :class:`NamespaceAdapter` helper has to take its fallback."""
    def argsort(x, axis=-1, **kwargs):
        if "stable" in kwargs:
            if not argsort_takes_stable:
                raise TypeError("argsort() got an unexpected keyword "
                                "argument 'stable'")
            kind = "stable" if kwargs.pop("stable") else None
        else:
            kind = kwargs.pop("kind", None)
        assert not kwargs
        return np.argsort(x, axis=axis, kind=kind)

    def asarray(x, copy=None):
        return np.array(x, copy=True) if copy else np.asarray(x)

    return SimpleNamespace(argsort=argsort, sort=np.sort, asarray=asarray,
                           concat=np.concatenate,
                           cumulative_sum=np.cumsum)


class TestNamespaceAdapter:
    """The adapter's fallbacks, driven without array-api-strict."""

    TIES = np.asarray([3, 1, 2, 1, 3, 1])

    @pytest.mark.parametrize("takes_stable", [True, False])
    def test_stable_argsort_keeps_tie_order(self, takes_stable):
        xp = NamespaceAdapter(_standard_only_namespace(takes_stable))
        np.testing.assert_array_equal(xp.stable_argsort(self.TIES),
                                      [1, 3, 5, 2, 0, 4])
        # long enough that an unstable sort would reorder ties
        x = np.random.default_rng(0).integers(0, 3, size=500)
        np.testing.assert_array_equal(xp.stable_argsort(x),
                                      np.lexsort((np.arange(x.size), x)))

    def test_partition_falls_back_to_sort(self):
        xp = NamespaceAdapter(_standard_only_namespace())
        x = np.asarray([5, 2, 9, 1, 7, 3])
        got = xp.partition(x, 2)
        np.testing.assert_array_equal(np.sort(got[:3]),
                                      np.sort(np.partition(x, 2)[:3]))
        assert got[2] == np.partition(x, 2)[2]

    def test_argpartition_falls_back_to_argsort(self):
        xp = NamespaceAdapter(_standard_only_namespace())
        x = np.asarray([[5.0, 2.0, 9.0, 1.0], [0.5, 4.0, 3.0, 8.0]])
        got = xp.argpartition(x, 1, axis=-1)
        want = np.argpartition(x, 1, axis=-1)
        np.testing.assert_array_equal(np.sort(got[:, :2], axis=-1),
                                      np.sort(want[:, :2], axis=-1))

    def test_copy_falls_back_to_asarray_copy(self):
        xp = NamespaceAdapter(_standard_only_namespace())
        x = np.arange(4)
        copied = xp.copy(x)
        copied[0] = 99
        np.testing.assert_array_equal(x, [0, 1, 2, 3])

    def test_concatenate_falls_back_to_concat(self):
        xp = NamespaceAdapter(_standard_only_namespace())
        got = xp.concatenate([np.ones((1, 2)), np.zeros((2, 2))], axis=0)
        np.testing.assert_array_equal(got, [[1, 1], [0, 0], [0, 0]])

    def test_cumsum_falls_back_to_cumulative_sum(self):
        xp = NamespaceAdapter(_standard_only_namespace())
        np.testing.assert_array_equal(
            xp.cumsum(np.asarray([[1, 2], [3, 4]]), axis=1), [[1, 3], [3, 7]])

    def test_helpers_use_the_namespace_spelling_when_present(self):
        xp = NamespaceAdapter(np)
        x = np.asarray([5, 2, 9, 1, 7, 3])
        np.testing.assert_array_equal(xp.partition(x, 2), np.partition(x, 2))
        np.testing.assert_array_equal(xp.argpartition(x, 2),
                                      np.argpartition(x, 2))
        np.testing.assert_array_equal(xp.cumsum(x), np.cumsum(x))
        np.testing.assert_array_equal(xp.stable_argsort(self.TIES),
                                      np.argsort(self.TIES, kind="stable"))

    def test_other_names_forward_to_the_wrapped_namespace(self):
        xp = NamespaceAdapter(np)
        for name in ("take_along_axis", "put_along_axis", "bincount"):
            assert getattr(xp, name) is getattr(np, name)

    def test_missing_names_raise_attribute_error(self):
        xp = NamespaceAdapter(_standard_only_namespace())
        for name in ("scatter_add", "maximum_accumulate", "bincount"):
            with pytest.raises(AttributeError):
                getattr(xp, name)


# -- bit identity ------------------------------------------------------------------

class TestBitIdentity:
    @pytest.mark.parametrize("substrate", ["object", "array"])
    def test_instrumented_equals_numpy(self, substrate):
        base = SolverSpec(instance="ft06", substrate=substrate,
                          ga={"population_size": 20},
                          termination={"max_generations": 4}, seed=13)
        with path(substrate):
            a = solve(base)
            b = solve(base.replace(backend="instrumented"))
        assert a.extra["substrate"] == substrate
        assert a.best_objective == b.best_objective
        assert a.evaluations == b.evaluations
        np.testing.assert_array_equal(a.best_genome, b.best_genome)

    def test_make_offspring_matrix_instrumented_equals_numpy(self):
        """A whole breeding step runs inside the instrumented subset and
        breeds the numpy backend's offspring from the same stream."""
        problem = Problem(OperationBasedEncoding(get_instance("ft06")))
        config = GAConfig(population_size=16).resolved(problem)
        matrix = problem.random_matrix(16, np.random.default_rng(3))
        results = {}
        for name in BACKENDS:
            rng = np.random.default_rng(4)
            with use_backend(name):
                offspring = make_offspring_matrix(
                    ArrayState(matrix.copy(), np.arange(16, dtype=float)),
                    config, problem, rng, count=16)
            results[name] = (offspring, rng.bit_generator.state)
        assert results["numpy"][0].shape == matrix.shape
        np.testing.assert_array_equal(results["numpy"][0],
                                      results["instrumented"][0])
        assert results["numpy"][1] == results["instrumented"][1]

    def test_cellular_grid_generation_instrumented_equals_numpy(self):
        """One synchronous cellular generation runs inside the
        instrumented subset and leaves the numpy backend's grid."""
        problem = Problem(OperationBasedEncoding(get_instance("ft06")))
        grids = {}
        for name in BACKENDS:
            ga = CellularGA(problem, rows=4, cols=4,
                            config=GAConfig(substrate="array"), seed=5)
            with use_backend(name):
                ga.initialize()
                ga._step_grid()
            grids[name] = ga.arrays
        np.testing.assert_array_equal(grids["numpy"].matrix,
                                      grids["instrumented"].matrix)
        np.testing.assert_array_equal(grids["numpy"].objectives,
                                      grids["instrumented"].objectives)


# -- int64 index pinning (platform-independent dtypes) -----------------------------

class TestInt64Pinning:
    """Index arrays are pinned to int64 regardless of the platform's
    default int (Windows/32-bit would otherwise produce int32)."""

    def test_stable_topk_returns_int64(self):
        values = np.asarray([3.0, 1.0, 2.0, 1.0])
        assert stable_topk(values, 2).dtype == np.int64
        assert stable_topk(values, 0).dtype == np.int64
        assert stable_topk(values, 4).dtype == np.int64

    def test_grid_neighbor_table_is_int64(self):
        table = grid_neighbor_table(3, 4, ((0, 1), (1, 0)))
        assert table.dtype == np.int64

    def test_operation_stages_is_int64(self):
        from repro.scheduling.batch import operation_stages
        instance = get_instance("ft06")
        rng = np.random.default_rng(4)
        seqs = np.stack([rng.permutation(np.repeat(
            np.arange(instance.n_jobs), instance.n_machines))
            for _ in range(3)])
        assert operation_stages(instance, seqs).dtype == np.int64

    def test_permutation_matrix_decode_is_int64(self):
        from repro.extensions.fuzzy import (FuzzyFlowShopEncoding,
                                            FuzzyFlowShopInstance)
        fuzzy = FuzzyFlowShopInstance.from_crisp(
            get_instance("ta-fs-20x5-shaped"), seed=1)
        keys = np.random.default_rng(2).random((5, fuzzy.n_jobs))
        perms = FuzzyFlowShopEncoding(fuzzy).permutation_matrix(keys)
        assert perms.dtype == np.int64
