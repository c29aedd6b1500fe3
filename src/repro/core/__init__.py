"""GA engine core: individuals, populations, fitness, termination, engine."""

from .individual import Individual
from .population import Population, PopulationStats, hamming_distance
from .fitness import (HeuristicOffsetFitness, NegationFitness, RankFitness,
                      ReciprocalFitness, apply_fitness, apply_fitness_array)
from .termination import (AllOf, AnyOf, MaxEvaluations, MaxGenerations,
                          ProvenGap, Stagnation, TargetObjective,
                          Termination, TerminationState, TimeLimit)
from .observers import (CallbackObserver, GenerationRecord, HistoryRecorder,
                        Observer)
from .rng import RngStream, derive_rng, make_rng, spawn_rngs, spawn_seeds
from .substrate import (SUBSTRATES, ArrayPopulationView, ArrayState,
                        available_substrates)
from .ga import GAConfig, GAResult, SimpleGA

__all__ = [
    "Individual", "Population", "PopulationStats", "hamming_distance",
    "SUBSTRATES", "available_substrates", "ArrayState",
    "ArrayPopulationView",
    "HeuristicOffsetFitness", "ReciprocalFitness", "RankFitness",
    "NegationFitness", "apply_fitness", "apply_fitness_array",
    "Termination", "TerminationState", "MaxGenerations", "MaxEvaluations",
    "TimeLimit", "TargetObjective", "ProvenGap", "Stagnation", "AnyOf",
    "AllOf",
    "Observer", "HistoryRecorder", "CallbackObserver", "GenerationRecord",
    "make_rng", "spawn_rngs", "spawn_seeds", "derive_rng", "RngStream",
    "GAConfig", "GAResult", "SimpleGA",
]
