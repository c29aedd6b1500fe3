"""Reused buffers for the generation hot path.

A generation decodes, breeds and merges arrays of the same few shapes;
allocated afresh, their pages went back to the OS after every
generation and were faulted in again on the next.  The ownership rule
(see ``docs/architecture.md``, "Workspaces"): scratch that never leaves
a function comes from :func:`scratch`, one grow-only :class:`Workspace`
per thread; buffers that outlive a call belong to the data's owner (an
:class:`~repro.core.substrate.ArrayState` carries a :class:`Workspace`
for its brood); no public function returns scratch.
"""

from __future__ import annotations

import math
import threading
from typing import Any

from .backend import active_namespace as _xp

__all__ = ["Workspace", "scratch"]


class Workspace:
    """Named grow-only buffers, handed out as views sized to each call.

    One flat buffer per ``(name, dtype)``: a request for fewer elements
    than the buffer holds views its front, a larger one replaces it.  So
    calls whose row counts change (NEH's 1..n insertion candidates, the
    island engine's init and lockstep shapes) share one buffer per name,
    and the set of buffers never grows past the set of names.  The view
    is uninitialised and valid until the next request for that name.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, Any], Any] = {}

    def __reduce__(self):
        # buffers are scratch: a copy or an unpickled object starts empty
        return Workspace, ()

    def get(self, name: str, shape: tuple[int, ...], dtype: Any) -> Any:
        size = math.prod(shape)
        buffer = self._buffers.get((name, dtype))
        if buffer is None or buffer.shape[0] < size:
            buffer = _xp().empty(size, dtype=dtype)
            self._buffers[(name, dtype)] = buffer
        return buffer[:size].reshape(shape)


_LOCAL = threading.local()


def scratch(name: str, shape: tuple[int, ...], dtype: Any) -> Any:
    """This thread's ``name`` buffer as an uninitialised ``shape`` view.

    For scratch that never leaves the calling function: the next request
    for ``name`` on this thread overwrites it.
    """
    workspace = getattr(_LOCAL, "workspace", None)
    if workspace is None:
        workspace = _LOCAL.workspace = Workspace()
    return workspace.get(name, shape, dtype)
