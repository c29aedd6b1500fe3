#!/usr/bin/env python
"""Backend-portability lint: no new bare ``np.`` in kernel modules.

The batch kernels route their array work through the active Array-API
namespace (``xp = active_namespace()``, see ``src/repro/core/backend.py``
and the "Writing backend-portable kernels" section of
``docs/architecture.md``).  Some host-side NumPy legitimately remains --
validation error paths, scalar reference decoders, init-time table
construction, ``np.ndarray`` type hints -- so an outright ban is wrong.
Instead this lint pins the *count* of ``np.`` references per kernel
module: new hot-path NumPy cannot sneak in, while the audited remainder
stays put.

* count > baseline: **fail** -- route the new code through ``xp`` (or,
  for genuinely host-side work, lower it into a non-kernel module or
  update the baseline in the same commit with a justification).
* count < baseline: **warn** -- tighten the baseline to lock in the
  improvement.

Run::

    python tools/lint_backend.py

CI runs it on every leg; exit status 1 on any regression.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Audited ``np.`` reference count per kernel module.  Raising a number
#: here requires a justification in the same commit.
BASELINES = {
    # 119 -> 59: the draw/kernel twins annotate through the module's
    # Array / Generator aliases
    "src/repro/operators/batch.py": 59,
    # 60 -> 71: batch_completion_hybrid_flowshop -- signature hints,
    # docstring references and the validate-path error reporting; the
    # decode itself runs entirely on the active namespace (the
    # instrumented-backend conformance sweep pins instrumented == numpy).
    # 71 -> 68: the HFS tables no longer build a stage-offset array
    "src/repro/scheduling/batch.py": 68,
    "src/repro/scheduling/flowshop.py": 23,
    # 31 -> 12: signatures annotate through the module's Array /
    # Generator aliases
    "src/repro/core/substrate.py": 9,
    "src/repro/parallel/fine_grained.py": 3,
    # island 4 -> 3, hybrid 3 -> 1: one exchange loop serves ring
    # migration and broadcast, and the hybrids subclass IslandGA
    "src/repro/parallel/island.py": 3,
    "src/repro/parallel/hybrid.py": 1,
    "src/repro/extensions/fuzzy.py": 42,
    "src/repro/extensions/stochastic.py": 18,
    "src/repro/extensions/energy.py": 30,
}

_NP_REF = re.compile(r"\bnp\.")


def check() -> list[str]:
    """Return a list of violation messages (empty = clean)."""
    problems = []
    for rel_path, baseline in BASELINES.items():
        path = ROOT / rel_path
        if not path.is_file():
            problems.append(f"{rel_path}: kernel module missing "
                            f"(update tools/lint_backend.py)")
            continue
        count = len(_NP_REF.findall(path.read_text(encoding="utf-8")))
        if count > baseline:
            problems.append(
                f"{rel_path}: {count} bare np. references exceed the "
                f"audited baseline of {baseline} -- route new kernel "
                f"code through the active namespace "
                f"(xp = active_namespace())")
        elif count < baseline:
            print(f"note: {rel_path} is down to {count} np. references "
                  f"(baseline {baseline}); tighten the baseline")
    return problems


def main() -> int:
    problems = check()
    for problem in problems:
        print(f"lint_backend: {problem}", file=sys.stderr)
    if not problems:
        print(f"lint_backend: OK ({len(BASELINES)} kernel modules at or "
              f"under baseline)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
