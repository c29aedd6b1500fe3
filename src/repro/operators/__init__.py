"""Genetic operators: selection, crossover, mutation, repair."""

from .selection import (ElitistRouletteSelection, RandomSelection,
                        RankSelection, RouletteWheelSelection, Selection,
                        StochasticUniversalSampling, TournamentSelection)
from .crossover import (ArithmeticCrossover, CompositeCrossover, Crossover,
                        CycleCrossover, JobBasedCrossover, KernelCrossover,
                        LinearOrderCrossover, MultiStepCrossoverFusion,
                        NPointCrossover, OrderCrossover,
                        ParameterizedUniformCrossover, PathRelinkingCrossover,
                        PMXCrossover, PositionBasedCrossover,
                        TimeHorizonCrossover, UniformCrossover,
                        default_crossover_for)
from .mutation import (AssignmentMutation, CompositeMutation,
                       GaussianKeyMutation, IntegerResetMutation,
                       InversionMutation, KernelMutation, Mutation,
                       ResampleKeyMutation, ScrambleMutation, ShiftMutation,
                       SwapMutation,
                       default_mutation_for)
from .gt_crossover import GTThreeParentCrossover
from .repair import is_permutation, is_repetition_of, repair_to_multiset
from .batch import (batch_crossover_for, batch_mutation_for,
                    batch_selection_for, register_batch_crossover,
                    register_batch_mutation, register_batch_selection,
                    supported_batch_operators)

__all__ = [
    "Selection", "RouletteWheelSelection", "StochasticUniversalSampling",
    "TournamentSelection", "ElitistRouletteSelection", "RandomSelection",
    "RankSelection",
    "Crossover", "KernelCrossover", "NPointCrossover", "UniformCrossover",
    "ParameterizedUniformCrossover", "ArithmeticCrossover", "PMXCrossover",
    "OrderCrossover", "LinearOrderCrossover", "CycleCrossover",
    "PositionBasedCrossover", "JobBasedCrossover", "MultiStepCrossoverFusion",
    "PathRelinkingCrossover", "TimeHorizonCrossover", "CompositeCrossover",
    "default_crossover_for",
    "Mutation", "KernelMutation", "SwapMutation", "ShiftMutation",
    "InversionMutation", "ScrambleMutation", "GaussianKeyMutation",
    "ResampleKeyMutation", "AssignmentMutation", "IntegerResetMutation",
    "CompositeMutation",
    "default_mutation_for",
    "GTThreeParentCrossover",
    "repair_to_multiset", "is_permutation", "is_repetition_of",
    "batch_selection_for", "batch_crossover_for", "batch_mutation_for",
    "register_batch_selection", "register_batch_crossover",
    "register_batch_mutation", "supported_batch_operators",
]
