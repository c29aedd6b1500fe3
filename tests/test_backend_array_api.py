"""Strict Array-API conformance for the portable kernels.

Runs only when ``array-api-strict`` is installed (a dedicated CI leg
installs it; the tests skip cleanly elsewhere).  The strict namespace
implements *exactly* the Array-API standard -- no NumPy extras, no
implicit conversions -- so driving the portable kernels through
:meth:`ArrayBackend.from_namespace` proves they contain no hidden
NumPy-isms, which is what the instrumented backend checks by name.
"""

import numpy as np
import pytest

array_api_strict = pytest.importorskip("array_api_strict")

from repro.core.backend import ArrayBackend, use_backend  # noqa: E402
from repro.core.substrate import stable_topk  # noqa: E402
from repro.instances import get_instance  # noqa: E402
from repro.scheduling.flowshop import (flowshop_makespan,  # noqa: E402
                                       flowshop_makespan_population)

STRICT = ArrayBackend.from_namespace(array_api_strict, name="strict")


class TestStrictNamespace:
    def test_flowshop_makespan_population_runs_strict(self):
        """The flagship portable kernel runs unchanged on the strict
        namespace and matches both the numpy path and the scalar
        reference decoder."""
        instance = get_instance("ta-fs-20x5-shaped")
        rng = np.random.default_rng(11)
        perms = np.stack([rng.permutation(instance.n_jobs)
                          for _ in range(8)])
        reference = flowshop_makespan_population(instance, perms)
        with use_backend(STRICT):
            strict = flowshop_makespan_population(
                instance, array_api_strict.asarray(perms))
        np.testing.assert_array_equal(np.asarray(strict), reference)
        for row, cmax in zip(perms, np.asarray(strict)):
            assert flowshop_makespan(instance, row) == cmax

    def test_stable_topk_runs_strict(self):
        values = np.asarray([4.0, 1.0, 3.0, 1.0, 2.0, 1.0])
        reference = stable_topk(values, 4)
        with use_backend(STRICT):
            strict = stable_topk(array_api_strict.asarray(values), 4)
        np.testing.assert_array_equal(np.asarray(strict), reference)
        # ties keep first-index order (the stable contract)
        np.testing.assert_array_equal(np.asarray(strict), [1, 3, 5, 4])

    def test_adapter_extensions_resolve_on_strict(self):
        xp = STRICT.xp
        x = array_api_strict.asarray([3, 1, 2, 1])
        np.testing.assert_array_equal(np.asarray(xp.stable_argsort(x)),
                                      [1, 3, 2, 0])
        copied = xp.copy(x)
        assert copied is not x
        np.testing.assert_array_equal(np.asarray(copied), np.asarray(x))
