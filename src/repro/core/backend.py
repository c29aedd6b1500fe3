"""Pluggable array backends: Array-API-style ``xp`` namespaces.

The array substrate (:mod:`repro.core.substrate`) made whole generations
matrix-shaped; this module makes the *namespace* those matrices run on a
runtime choice, which is the precondition for the device-resident
evolution of Luo & El Baz's GPU island papers (arXiv:1903.10722,
arXiv:1903.10741): decode, score, select, cross, mutate and merge all
execute on one backend, with host transfer only at explicit seams.

Four backends are registered:

``numpy``
    the default.  Its namespace forwards every attribute to NumPy
    (cached per instance after first lookup), so kernels routed through
    it are *byte-identical* to calling NumPy directly -- the bit-identity
    contracts of the substrate conformance suite are preserved by
    construction.
``instrumented``
    always available, used by CI in place of a GPU.  Same NumPy
    forwarding, but attribute access is restricted to the Array-API
    subset the kernels are allowed to use (plus the explicit extension
    helpers below), and every host<->device transfer seam is counted --
    so tests can assert *zero transfers inside a generation* without any
    accelerator hardware, and any NumPy-only call sneaking into a kernel
    fails loudly.
``cupy`` / ``jax``
    optional, import-guarded.  When the package is missing they degrade
    to :class:`BackendUnavailable` with an actionable message, which the
    declarative layer translates into a ``SpecError`` exactly like the
    ``cpsat`` engine does for OR-Tools.

Kernels obtain the namespace via :func:`active_namespace` (a context
variable defaulting to the numpy backend); :func:`use_backend` scopes a
backend to a ``with`` block and is the single seam the solve facade
wraps engine runs in.

**Extensions.**  The Array-API standard has no stable-sort spelling, no
``bincount``, no scatter-add and no ``put_along_axis``; the namespaces
therefore carry a small set of explicit helpers (``stable_argsort``,
``take_along_axis``, ``put_along_axis``, ``scatter_add``, ``bincount``,
``maximum_accumulate``, ``partition``) that each backend implements with
its native primitives.  Kernels must use these helpers instead of the
NumPy-only spellings -- the instrumented backend enforces it.
"""

from __future__ import annotations

import contextvars
import importlib.util
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

__all__ = [
    "BACKENDS", "available_backends",
    "ArrayBackend", "ArrayRNG",
    "BackendUnavailable", "BackendPortabilityError",
    "get_backend", "active_backend", "active_namespace", "use_backend",
    "ARRAY_API_NAMES", "EXTENSION_NAMES", "COMPAT_NAMES",
]

#: Registered backend names, in listing order.  ``numpy`` and
#: ``instrumented`` always resolve; ``cupy``/``jax`` need their package.
BACKENDS = ("numpy", "instrumented", "cupy", "jax")


class BackendUnavailable(RuntimeError):
    """An optional backend's package is not importable.

    Carries an actionable message (which package, how to install it,
    what *is* available) so the declarative layer can surface it as a
    ``SpecError`` verbatim -- the same degradation contract as the
    ``cpsat`` engine's ``ExactBackendUnavailable``.
    """

    def __init__(self, backend: str, package: str):
        super().__init__(
            f"backend {backend!r} needs the optional {package} package "
            f"(pip install {package}); backends available here: "
            f"{', '.join(available_backends())}")
        self.backend = backend
        self.package = package


class BackendPortabilityError(AttributeError):
    """A kernel touched a namespace attribute outside the allowed subset.

    Raised by the instrumented backend only: the numpy backend forwards
    everything.  Hitting this means a kernel would break on a real
    device backend -- use the Array-API spelling or one of the explicit
    extension helpers.
    """


# -- the allowed namespace subset -------------------------------------------------

#: Curated Array-API standard names (2023.12 + the 2024 additions the
#: kernels rely on).  The instrumented backend allows exactly these plus
#: :data:`EXTENSION_NAMES` and :data:`COMPAT_NAMES`.
ARRAY_API_NAMES = frozenset({
    # creation
    "arange", "asarray", "empty", "empty_like", "eye", "full", "full_like",
    "linspace", "meshgrid", "ones", "ones_like", "tril", "triu", "zeros",
    "zeros_like",
    # dtypes + dtype utilities
    "bool", "int8", "int16", "int32", "int64", "uint8", "uint16", "uint32",
    "uint64", "float32", "float64", "astype", "can_cast", "finfo", "iinfo",
    "isdtype", "result_type",
    # elementwise
    "abs", "add", "ceil", "clip", "copysign", "cos", "divide", "equal",
    "exp", "expm1", "floor", "floor_divide", "greater", "greater_equal",
    "hypot", "isfinite", "isinf", "isnan", "less", "less_equal", "log",
    "log1p", "log2", "log10", "logaddexp", "logical_and", "logical_not",
    "logical_or", "logical_xor", "maximum", "minimum", "multiply",
    "negative", "not_equal", "positive", "pow", "remainder", "round",
    "sign", "sin", "sqrt", "square", "subtract", "tan", "trunc",
    # manipulation
    "broadcast_arrays", "broadcast_to", "concat", "expand_dims", "flip",
    "moveaxis", "permute_dims", "repeat", "reshape", "roll", "squeeze",
    "stack", "tile", "unstack",
    # searching / sorting / sets
    "argmax", "argmin", "count_nonzero", "nonzero", "searchsorted",
    "where", "argsort", "sort", "unique_all", "unique_counts",
    "unique_inverse", "unique_values",
    # statistical / utility
    "cumulative_sum", "max", "mean", "min", "prod", "std", "sum", "var",
    "all", "any", "diff", "take", "take_along_axis",
    # linear algebra
    "matmul", "tensordot", "vecdot",
})

#: Explicit portable helpers the namespaces implement themselves (no
#: Array-API spelling exists): kernels must call these instead of the
#: NumPy-only ``kind="stable"`` / ``np.add.at`` / ``np.bincount`` /
#: ``np.put_along_axis`` / ``np.maximum.accumulate`` / ``np.partition``.
EXTENSION_NAMES = frozenset({
    "stable_argsort", "put_along_axis", "scatter_add", "bincount",
    "maximum_accumulate", "partition", "argpartition", "copy",
})

#: NumPy-family spellings that every targeted namespace (numpy, cupy,
#: jax.numpy) provides and the kernels may keep: the Array-API renames
#: (``concat``/``cumulative_sum``) only landed in NumPy 2.0 and the CI
#: still runs a NumPy 1.22 leg, plus in-place/layout helpers the
#: substrate's stable-buffer contract needs.
COMPAT_NAMES = frozenset({
    "concatenate", "cumsum", "copyto", "ascontiguousarray", "errstate",
})

_ALLOWED_NAMES = ARRAY_API_NAMES | EXTENSION_NAMES | COMPAT_NAMES


# -- namespaces -------------------------------------------------------------------

class NumpyNamespace:
    """``xp`` namespace forwarding to NumPy, byte-identical to ``np``.

    Attribute lookups resolve on NumPy and are cached into the instance
    dict, so after first touch ``xp.foo`` costs one dict hit -- the same
    as the module attribute lookup ``np.foo`` it replaces (the <5%
    dispatch-overhead gate of ``benchmarks/bench_backend.py`` rides on
    this).  The extension helpers below are the only code of its own.
    """

    # -- portable extensions (no Array-API spelling exists) --
    @staticmethod
    def stable_argsort(x, axis=-1):
        """``argsort`` with guaranteed-stable ties (NumPy ``kind="stable"``)."""
        return np.argsort(x, axis=axis, kind="stable")

    @staticmethod
    def put_along_axis(x, indices, values, axis):
        np.put_along_axis(x, indices, values, axis=axis)

    @staticmethod
    def scatter_add(x, indices, values):
        """In-place unbuffered ``x[indices] += values`` (NumPy ``add.at``)."""
        np.add.at(x, indices, values)

    @staticmethod
    def bincount(x, minlength=0):
        return np.bincount(x, minlength=minlength)

    @staticmethod
    def maximum_accumulate(x):
        """Running maximum along the last axis (NumPy ``maximum.accumulate``)."""
        return np.maximum.accumulate(x)

    @staticmethod
    def partition(x, kth):
        return np.partition(x, kth)

    @staticmethod
    def argpartition(x, kth, axis=-1):
        return np.argpartition(x, kth, axis=axis)

    @staticmethod
    def copy(x):
        """Detached copy (Array-API arrays have no ``.copy()`` method)."""
        return np.copy(x)

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        value = getattr(np, name)
        setattr(self, name, value)  # cache: next access is a dict hit
        return value


class InstrumentedNamespace(NumpyNamespace):
    """NumPy forwarding restricted to the allowed Array-API subset.

    Names outside :data:`ARRAY_API_NAMES` | :data:`EXTENSION_NAMES` |
    :data:`COMPAT_NAMES` raise :class:`BackendPortabilityError` instead
    of resolving, and every allowed name is recorded in :attr:`used`
    (first touch) so tests can see exactly which surface the kernels
    exercise.  Results are bit-identical to the numpy backend -- the
    values *are* NumPy's.
    """

    def __init__(self) -> None:
        self.used: set[str] = set()

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        if name not in _ALLOWED_NAMES:
            raise BackendPortabilityError(
                f"xp.{name} is outside the Array-API subset the kernels "
                f"may use; spell it with a standard name or an explicit "
                f"extension helper ({', '.join(sorted(EXTENSION_NAMES))}) "
                f"-- see docs/architecture.md, 'Writing backend-portable "
                f"kernels'")
        self.used.add(name)
        value = getattr(np, name)
        setattr(self, name, value)
        return value


class NamespaceAdapter:
    """Wrap a foreign Array-API namespace, adding the repro extensions.

    Used for ``array-api-strict`` in CI and as the base for the
    cupy/jax namespaces: forwards attribute access to the wrapped
    module and implements the extension helpers in terms of standard
    operations where the module lacks a native spelling.
    """

    def __init__(self, xp: Any):
        self._wrapped = xp

    def stable_argsort(self, x, axis=-1):
        xp = self._wrapped
        try:
            return xp.argsort(x, axis=axis, stable=True)  # Array-API spelling
        except TypeError:
            return xp.argsort(x, axis=axis, kind="stable")

    def take_along_axis(self, x, indices, axis):
        fn = getattr(self._wrapped, "take_along_axis", None)
        if fn is not None:
            return fn(x, indices, axis=axis)
        raise BackendPortabilityError(
            f"{self._wrapped.__name__} provides no take_along_axis")

    def put_along_axis(self, x, indices, values, axis):
        fn = getattr(self._wrapped, "put_along_axis", None)
        if fn is None:
            raise BackendPortabilityError(
                f"{self._wrapped.__name__} provides no put_along_axis")
        fn(x, indices, values, axis=axis)

    def scatter_add(self, x, indices, values):
        add = getattr(self._wrapped, "add", None)
        at = getattr(add, "at", None)
        if at is None:
            raise BackendPortabilityError(
                f"{self._wrapped.__name__} provides no unbuffered "
                f"scatter-add")
        at(x, indices, values)

    def bincount(self, x, minlength=0):
        fn = getattr(self._wrapped, "bincount", None)
        if fn is not None:
            return fn(x, minlength=minlength)
        raise BackendPortabilityError(
            f"{self._wrapped.__name__} provides no bincount")

    def maximum_accumulate(self, x):
        maximum = getattr(self._wrapped, "maximum", None)
        accumulate = getattr(maximum, "accumulate", None)
        if accumulate is not None:
            return accumulate(x)
        raise BackendPortabilityError(
            f"{self._wrapped.__name__} provides no maximum.accumulate")

    def partition(self, x, kth):
        fn = getattr(self._wrapped, "partition", None)
        if fn is not None:
            return fn(x, kth)
        return self._wrapped.sort(x)  # slower but order-equivalent

    def argpartition(self, x, kth, axis=-1):
        fn = getattr(self._wrapped, "argpartition", None)
        if fn is not None:
            return fn(x, kth, axis=axis)
        return self._wrapped.argsort(x, axis=axis)  # slower, same prefix set

    def copy(self, x):
        fn = getattr(self._wrapped, "copy", None)
        if fn is not None:
            return fn(x)
        return self._wrapped.asarray(x, copy=True)  # Array-API spelling

    def concatenate(self, arrays, axis=0):
        fn = getattr(self._wrapped, "concatenate", None)
        if fn is None:
            fn = self._wrapped.concat  # Array-API spelling
        return fn(arrays, axis=axis)

    def cumsum(self, x, axis=None):
        fn = getattr(self._wrapped, "cumsum", None)
        if fn is None:
            fn = self._wrapped.cumulative_sum
        return fn(x, axis=axis)

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        value = getattr(self._wrapped, name)
        setattr(self, name, value)
        return value


# -- RNG adapter ------------------------------------------------------------------

class ArrayRNG:
    """Adapter pinning ``np.random.Generator`` draw semantics.

    Wraps a host :class:`numpy.random.Generator` and forwards each draw
    method 1:1, so its streams are bit-identical to the wrapped
    generator's (property-tested with hypothesis in
    ``tests/test_backend.py``).  Device backends substitute a subclass
    that draws on-device where the distribution allows and falls back to
    host draws + :meth:`ArrayBackend.to_device` where it does not --
    keeping the *semantics* (and therefore the conformance contracts)
    identical across backends.
    """

    __slots__ = ("_generator",)

    def __init__(self, generator: np.random.Generator):
        self._generator = generator

    @property
    def bit_generator(self):
        return self._generator.bit_generator

    def random(self, size=None):
        return self._generator.random(size)

    def integers(self, low, high=None, size=None):
        return self._generator.integers(low, high, size=size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._generator.uniform(low, high, size=size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._generator.normal(loc, scale, size=size)

    def choice(self, a, size=None, replace=True, p=None):
        return self._generator.choice(a, size=size, replace=replace, p=p)

    def permutation(self, x):
        return self._generator.permutation(x)

    def shuffle(self, x) -> None:
        self._generator.shuffle(x)

    def spawn(self, n_children: int) -> list["ArrayRNG"]:
        return [type(self)(g) for g in self._generator.spawn(n_children)]


# -- backend object ---------------------------------------------------------------

def _identity(x):
    return x


class ArrayBackend:
    """One array execution target: namespace + RNG factory + transfer seams.

    ``to_device``/``to_host``/``asnumpy`` are the *only* sanctioned
    host<->device crossing points; each call increments
    :attr:`transfers`, which the instrumented backend's tests use to
    prove kernels stay device-resident for an entire generation.  On the
    numpy-family backends the conversions are identity (plus
    ``np.asarray`` for :meth:`asnumpy`), so counting is the whole cost.
    """

    def __init__(self, name: str, xp: Any,
                 rng_factory: Callable[..., Any] | None = None,
                 asnumpy: Callable[[Any], np.ndarray] | None = None,
                 to_device: Callable[[Any], Any] | None = None,
                 to_host: Callable[[Any], Any] | None = None):
        self.name = name
        self.xp = xp
        self._rng_factory = rng_factory or np.random.default_rng
        self._asnumpy = asnumpy or np.asarray
        self._to_device = to_device or _identity
        self._to_host = to_host or _identity
        self.transfers = {"to_device": 0, "to_host": 0, "asnumpy": 0}

    def __repr__(self) -> str:
        return f"ArrayBackend({self.name!r})"

    def rng(self, seed=None):
        """A generator with ``np.random.Generator`` draw semantics."""
        return self._rng_factory(seed)

    # -- transfer seams (the countable boundary) --
    def to_device(self, x):
        """Move host data onto the backend's device (identity on numpy)."""
        self.transfers["to_device"] += 1
        return self._to_device(x)

    def to_host(self, x):
        """Move device data back to the host (identity on numpy)."""
        self.transfers["to_host"] += 1
        return self._to_host(x)

    def asnumpy(self, x) -> np.ndarray:
        """Materialise ``x`` as a host ``np.ndarray`` (report boundary)."""
        self.transfers["asnumpy"] += 1
        return self._asnumpy(x)

    def reset_transfers(self) -> None:
        for key in self.transfers:
            self.transfers[key] = 0

    def total_transfers(self) -> int:
        return sum(self.transfers.values())

    @classmethod
    def from_namespace(cls, xp: Any, name: str = "custom",
                       **kwargs) -> "ArrayBackend":
        """Backend over any Array-API namespace (e.g. ``array_api_strict``).

        The namespace is wrapped in :class:`NamespaceAdapter` so the
        repro extension helpers resolve; conversions default to
        ``np.asarray`` round trips, which every Array-API library's
        arrays support via the buffer/DLPack protocols.
        """
        return cls(name, NamespaceAdapter(xp), **kwargs)


# -- registry ---------------------------------------------------------------------

def _make_numpy() -> ArrayBackend:
    return ArrayBackend("numpy", NumpyNamespace())


def _make_instrumented() -> ArrayBackend:
    return ArrayBackend(
        "instrumented", InstrumentedNamespace(),
        rng_factory=lambda seed=None: ArrayRNG(np.random.default_rng(seed)))


def _make_cupy() -> ArrayBackend:
    try:
        import cupy
    except ImportError as exc:
        raise BackendUnavailable("cupy", "cupy") from exc
    return ArrayBackend(
        "cupy", NamespaceAdapter(cupy),
        rng_factory=lambda seed=None: ArrayRNG(np.random.default_rng(seed)),
        asnumpy=cupy.asnumpy, to_device=cupy.asarray, to_host=cupy.asnumpy)


def _make_jax() -> ArrayBackend:
    try:
        import jax
        import jax.numpy as jnp
    except ImportError as exc:
        raise BackendUnavailable("jax", "jax") from exc
    return ArrayBackend(
        "jax", NamespaceAdapter(jnp),
        rng_factory=lambda seed=None: ArrayRNG(np.random.default_rng(seed)),
        asnumpy=np.asarray, to_device=jax.device_put, to_host=jax.device_get)


_FACTORIES: dict[str, Callable[[], ArrayBackend]] = {
    "numpy": _make_numpy,
    "instrumented": _make_instrumented,
    "cupy": _make_cupy,
    "jax": _make_jax,
}

#: Optional backends and the module whose presence makes them available.
_OPTIONAL_PACKAGES = {"cupy": "cupy", "jax": "jax"}

_BACKEND_CACHE: dict[str, ArrayBackend] = {}


def available_backends() -> tuple[str, ...]:
    """Backend names usable in this environment (package importable)."""
    names = []
    for name in BACKENDS:
        package = _OPTIONAL_PACKAGES.get(name)
        if package is not None and importlib.util.find_spec(package) is None:
            continue
        names.append(name)
    return tuple(names)


def get_backend(name: str = "numpy") -> ArrayBackend:
    """Resolve a backend by name (cached singletons).

    Raises ``ValueError`` for unknown names and
    :class:`BackendUnavailable` for known-but-uninstalled ones; the
    declarative layer maps both onto ``SpecError``.
    """
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown backend {name!r}; known backends: "
            f"{', '.join(BACKENDS)}")
    backend = _BACKEND_CACHE.get(name)
    if backend is None:
        backend = _FACTORIES[name]()
        _BACKEND_CACHE[name] = backend
    return backend


# -- active-backend context -------------------------------------------------------

_ACTIVE: contextvars.ContextVar[ArrayBackend | None] = \
    contextvars.ContextVar("repro_array_backend", default=None)


def active_backend() -> ArrayBackend:
    """The backend in effect (the numpy backend outside any context)."""
    backend = _ACTIVE.get()
    return backend if backend is not None else get_backend("numpy")


def active_namespace() -> Any:
    """The active backend's ``xp`` namespace -- what kernels call."""
    backend = _ACTIVE.get()
    return (backend if backend is not None
            else get_backend("numpy")).xp


@contextmanager
def use_backend(backend: str | ArrayBackend) -> Iterator[ArrayBackend]:
    """Scope a backend to a ``with`` block (context-variable based, so
    concurrent solves on other threads keep their own backend)."""
    if isinstance(backend, str):
        backend = get_backend(backend)
    token = _ACTIVE.set(backend)
    try:
        yield backend
    finally:
        _ACTIVE.reset(token)
