"""Pluggable array backends: Array-API-style ``xp`` namespaces.

The array substrate (:mod:`repro.core.substrate`) made whole generations
matrix-shaped; this module makes the *namespace* those matrices run on a
runtime choice, so the batch kernels can be checked for portability
(Array-API subset only) without changing a single result.  All arrays
stay host NumPy arrays; nothing crosses a device boundary.

Two backends are registered:

``numpy``
    the default.  Its namespace forwards every attribute to NumPy
    (cached per instance after first lookup), so kernels routed through
    it are *byte-identical* to calling NumPy directly -- the bit-identity
    contracts of the substrate conformance suite are preserved by
    construction.
``instrumented``
    the CI conformance backend.  Same NumPy forwarding, but attribute
    access is restricted to the Array-API subset the kernels are allowed
    to use (plus the explicit extension helpers below), so any
    NumPy-only call sneaking into a kernel fails loudly while results
    stay bit-identical to ``numpy``.

:meth:`ArrayBackend.from_namespace` wraps any other Array-API namespace
(``array-api-strict`` on a dedicated CI leg) for the same purpose.

Kernels obtain the namespace via :func:`active_namespace` (a context
variable defaulting to the numpy backend); :func:`use_backend` scopes a
backend to a ``with`` block and is the single seam the solve facade
wraps engine runs in.

**Extensions.**  The Array-API standard has no stable-sort spelling, no
``bincount``, no scatter-add and no ``put_along_axis``; the kernels
therefore call a small set of explicit helpers (``stable_argsort``,
``put_along_axis``, ``scatter_add``, ``bincount``,
``maximum_accumulate``, ``partition``, ``argpartition``, ``copy``,
``take_into``) instead of the NumPy-only spellings -- the instrumented
backend enforces it.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

__all__ = [
    "BACKENDS", "available_backends",
    "ArrayBackend", "BackendPortabilityError",
    "get_backend", "active_backend", "active_namespace", "use_backend",
    "ARRAY_API_NAMES", "EXTENSION_NAMES", "COMPAT_NAMES",
]

#: Registered backend names, in listing order.
BACKENDS = ("numpy", "instrumented")


class BackendPortabilityError(AttributeError):
    """A kernel touched a namespace attribute outside the allowed subset.

    Raised by the instrumented backend only: the numpy backend forwards
    everything.  Hitting this means a kernel depends on a NumPy-only
    spelling -- use the Array-API spelling or one of the explicit
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

#: Explicit portable helpers (no Array-API spelling exists): kernels must
#: call these instead of the NumPy-only ``kind="stable"`` / ``np.add.at``
#: / ``np.maximum.accumulate`` spellings, and ``take_into`` gathers
#: into a reused buffer (:mod:`repro.core.workspace`).  ``bincount``,
#: ``put_along_axis``, ``partition``, ``argpartition`` and ``copy`` are
#: the NumPy functions themselves, allowed by name.
EXTENSION_NAMES = frozenset({
    "stable_argsort", "put_along_axis", "scatter_add", "bincount",
    "maximum_accumulate", "partition", "argpartition", "copy", "take_into",
})

#: NumPy spellings the kernels may keep: the Array-API renames
#: (``concat``/``cumulative_sum``) only landed in NumPy 2.0 and the CI
#: still runs a NumPy 1.22 leg (:class:`NamespaceAdapter` maps them back
#: for strict namespaces), plus in-place/layout helpers the substrate's
#: stable-buffer contract needs.
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
    this).  The extension helpers whose NumPy spelling differs are the
    only code of its own; the others (``bincount``, ``copy``, ...) are
    NumPy's own functions.
    """

    # -- portable extensions whose NumPy spelling differs --
    @staticmethod
    def stable_argsort(x, axis=-1):
        """``argsort`` with guaranteed-stable ties (NumPy ``kind="stable"``)."""
        return np.argsort(x, axis=axis, kind="stable")

    @staticmethod
    def scatter_add(x, indices, values):
        """In-place unbuffered ``x[indices] += values`` (NumPy ``add.at``)."""
        np.add.at(x, indices, values)

    @staticmethod
    def maximum_accumulate(x):
        """Running maximum along the last axis (NumPy ``maximum.accumulate``)."""
        return np.maximum.accumulate(x)

    @staticmethod
    def take_into(x, indices, out, axis=None):
        """``take(x, indices, axis)`` written into ``out``, which it returns.

        ``indices`` must be in range: NumPy's raise mode would gather
        into a temporary copy of ``out`` first, so this clips instead and
        the caller checks its indices once, up front.
        """
        return np.take(x, indices, axis=axis, out=out, mode="clip")

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
    """Wrap a foreign Array-API namespace (``array-api-strict`` in CI).

    Forwards attribute access to the wrapped module and implements the
    extension helpers that have a standard-operation fallback where the
    module lacks the NumPy spelling.  Helpers without one (e.g.
    ``scatter_add``) simply forward, so a module lacking them raises
    ``AttributeError`` like any other missing name.
    """

    def __init__(self, xp: Any):
        self._wrapped = xp

    def stable_argsort(self, x, axis=-1):
        xp = self._wrapped
        try:
            return xp.argsort(x, axis=axis, stable=True)  # Array-API spelling
        except TypeError:
            return xp.argsort(x, axis=axis, kind="stable")

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

    def take_into(self, x, indices, out, axis=None):
        xp = self._wrapped
        if axis is None:
            x, axis = xp.reshape(x, (-1,)), 0
        taken = xp.take(x, xp.reshape(indices, (-1,)), axis=axis)
        out[...] = xp.reshape(taken, out.shape)
        return out

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


# -- backend object ---------------------------------------------------------------

class ArrayBackend:
    """One array execution target: a name plus its ``xp`` namespace."""

    def __init__(self, name: str, xp: Any):
        self.name = name
        self.xp = xp

    def __repr__(self) -> str:
        return f"ArrayBackend({self.name!r})"

    @classmethod
    def from_namespace(cls, xp: Any, name: str = "custom") -> "ArrayBackend":
        """Backend over any Array-API namespace (e.g. ``array_api_strict``).

        The namespace is wrapped in :class:`NamespaceAdapter` so the
        repro extension helpers resolve.
        """
        return cls(name, NamespaceAdapter(xp))


# -- registry ---------------------------------------------------------------------

_FACTORIES: dict[str, Callable[[], ArrayBackend]] = {
    "numpy": lambda: ArrayBackend("numpy", NumpyNamespace()),
    "instrumented": lambda: ArrayBackend("instrumented",
                                         InstrumentedNamespace()),
}

_BACKEND_CACHE: dict[str, ArrayBackend] = {}


def available_backends() -> tuple[str, ...]:
    """Backend names usable in this environment (all registered ones)."""
    return BACKENDS


def get_backend(name: str = "numpy") -> ArrayBackend:
    """Resolve a backend by name (cached singletons).

    Raises ``ValueError`` for unknown names; the declarative layer maps
    it onto ``SpecError``.
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
