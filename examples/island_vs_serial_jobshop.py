"""Island GA vs serial GA on a 10x10 job shop (the survey's Section III.D).

Reproduces, at example scale, the comparison behind Park et al. [26] and
Asadzadeh et al. [27]: an island model with ring migration against a
panmictic GA with the same total population and evaluation budget.

Run with::

    python examples/island_vs_serial_jobshop.py
"""

import numpy as np

from repro import GAConfig, MaxGenerations, Problem, SimpleGA
from repro.encodings import OperationBasedEncoding
from repro.instances import get_instance
from repro.operators import TournamentSelection
from repro.parallel import IslandGA, MigrationPolicy, RingTopology


def ascii_curve(values, width: int = 60, label: str = "") -> str:
    """Render a convergence curve as a one-line sparkline."""
    v = np.asarray(values, dtype=float)
    lo, hi = v.min(), v.max()
    if hi == lo:
        return f"{label:>8} | {'-' * width} {v[-1]:g}"
    chars = " .:-=+*#%@"
    idx = np.linspace(0, len(v) - 1, width).astype(int)
    scaled = ((v[idx] - lo) / (hi - lo) * (len(chars) - 1)).astype(int)
    return (f"{label:>8} | "
            + "".join(chars[len(chars) - 1 - s] for s in scaled)
            + f" {v[-1]:g}")


def main() -> None:
    instance = get_instance("ft10-shaped")
    problem = Problem(OperationBasedEncoding(instance))
    total_pop, gens, seed = 48, 250, 90000
    sel = TournamentSelection(2)

    serial = SimpleGA(problem,
                      GAConfig(population_size=total_pop, selection=sel,
                               mutation_rate=0.15),
                      MaxGenerations(gens), seed=seed).run()

    engine = IslandGA(problem, n_islands=4,
                      config=GAConfig(population_size=total_pop // 4,
                                      selection=sel, mutation_rate=0.15),
                      topology=RingTopology(4),
                      migration=MigrationPolicy(interval=10, rate=2,
                                                emigrant="best",
                                                replacement="worst"),
                      termination=MaxGenerations(gens), seed=seed)
    island = engine.run()

    print(f"instance {instance.name}: {instance.n_jobs} jobs x "
          f"{instance.n_machines} machines")
    print(f"serial GA : best = {serial.best_objective:g}  "
          f"({serial.evaluations} evaluations)")
    print(f"island GA : best = {island.best_objective:g}  "
          f"({island.evaluations} evaluations, 4 islands, ring, "
          f"best-replace-worst every 10 generations)")

    print("\nconvergence (best-so-far; darker = worse):")
    print(ascii_curve(serial.history.best_curve(), label="serial"))
    print(ascii_curve(island.global_history.best_curve(), label="island"))

    print("\nper-island final bests:",
          [f"{isl.population.best_objective():g}" for isl in engine.islands])
    print("\nnote: single-seed outcomes vary; experiment E09 "
          "(benchmarks/bench_e09.py) repeats this comparison over several "
          "seeds and checks Park et al.'s claim statistically.")


if __name__ == "__main__":
    main()
