"""Per-pair runs pinned at their results before selections became their
batch twins.

Lot-streaming genomes and LOX (no batch kernel) do not stack, nor do
islands that ``merge_on_stagnation``, so these runs breed ``Individual``
objects pair by pair and select through each built-in selection's
index twin.  Each case pins the best objective (float hex), the
evaluations, a sha256 of the best genome and a sha256 of every history
record (the global history for the island runs).  The merging islands'
global records from the first merge on cover only the active islands,
so they differ from the records of those earlier runs, which still
counted the retired islands.
"""

import hashlib

import numpy as np
import pytest

from repro import GAConfig, IslandGA, MaxGenerations, SimpleGA, SolverSpec
from repro.api.components import resolve_problem
from repro.operators import (ElitistRouletteSelection, LinearOrderCrossover,
                             RandomSelection, RankSelection,
                             RouletteWheelSelection,
                             StochasticUniversalSampling, TournamentSelection)

SELECTIONS = {
    "roulette": RouletteWheelSelection,
    "sus": StochasticUniversalSampling,
    "tournament": lambda: TournamentSelection(3),
    "elitist-roulette": lambda: ElitistRouletteSelection(0.2),
    "random": RandomSelection,
    "rank": RankSelection,
}


def problem(name):
    if name == "lot":
        return resolve_problem(SolverSpec(instance="hfs-10x3x2-shaped",
                                          encoding="lot-streaming"))
    return resolve_problem(SolverSpec(instance="ta-fs-20x5-shaped"))


def genome_digest(genome):
    digest = hashlib.sha256()
    for part in genome if isinstance(genome, tuple) else (genome,):
        part = np.ascontiguousarray(part)
        digest.update(f"{part.dtype}{part.shape}".encode() + part.tobytes())
    return digest.hexdigest()


def history_digest(history):
    digest = hashlib.sha256()
    for r in history.records:
        digest.update(repr((r.generation, r.evaluations,
                            [float(x).hex() for x in
                             (r.best, r.mean, r.std, r.worst)])).encode())
    return digest.hexdigest()


def run(case, seed):
    """``(substrate, best hex, evaluations, genome sha, history sha)``."""
    if case in ("merge-islands", "lot-islands"):
        ga = IslandGA(problem("fs" if case == "merge-islands" else "lot"),
                      n_islands=4, config=GAConfig(population_size=10),
                      termination=MaxGenerations(40), seed=seed,
                      merge_on_stagnation=(3 if case == "merge-islands"
                                           else None))
    else:
        name, selection = case.split("/")
        crossover = LinearOrderCrossover() if name == "lox" else None
        ga = SimpleGA(problem(name),
                      GAConfig(population_size=16, crossover=crossover,
                               selection=SELECTIONS[selection]()),
                      MaxGenerations(10), seed=seed)
    result = ga.run()
    history = (result.global_history if isinstance(ga, IslandGA)
               else result.history)
    return (ga.substrate, float(result.best.objective).hex(),
            result.evaluations, genome_digest(result.best.genome),
            history_digest(history))


PINS = {
    ("lot/roulette", 1): (
        "0x1.0da6a0e5db305p+8", 176,
        "50eff6bb48c1497c0dd90e212f427746"
        "7427b4da3e51cf095d8fbf4f1a679579",
        "44cb2c3c9295ade901844ca0ccee92f9"
        "62504c6f6f208df73b3b41d50d2c7ee5"),
    ("lot/roulette", 2): (
        "0x1.1fb727ef72c59p+8", 176,
        "f4eed2f6d2d4707c1a4c232c3c6b636a"
        "ec5c290d046b625a19ab783f51a95adf",
        "8adca349541e812e3929fe4983938aa9"
        "ce5a27d17af129e1e26c190b8ef0633f"),
    ("lot/sus", 1): (
        "0x1.159bf0109f581p+8", 176,
        "4822707c07978f4c44ea840e1c12e2ef"
        "26816f1049bf21ff5594598e0f708e4c",
        "41682acca2efd9bd4bde13ac813e21a3"
        "4a24d67fde8edfb7afc2d0000dccfaf5"),
    ("lot/sus", 2): (
        "0x1.10381f19e4e76p+8", 176,
        "d4b49be941f8920840deb0b7a33c480d"
        "4d9a2509909d44d580de0f6cf8f46b5f",
        "6cd632db33b2a47e2e645ae3899d9d80"
        "a13e2dbbcbc8ac188ff699fa767fef21"),
    ("lot/tournament", 1): (
        "0x1.12a15886cc6bfp+8", 176,
        "2aa6c5e7b5c175b67170fdcc96b3f917"
        "1f0f0f200ae7bed24cd243abb9dbfef5",
        "39bbfed26d9768426dd7530571dae4e7"
        "fd376859a26a0c6f33ffcec9c1c0a0b9"),
    ("lot/tournament", 2): (
        "0x1.1203458870c42p+8", 176,
        "970f120d3283572fcb170b0a94faf15c"
        "c878edbab0660b1773d23f8a1930e2a3",
        "36ac441d76c2a52f8cbbe7bb4754584d"
        "71a74984ed6f1d8afc27547defb4900d"),
    ("lot/elitist-roulette", 1): (
        "0x1.1e173742f90d3p+8", 176,
        "afc265cb1b6c64f57b5a4e92fa36ed30"
        "4fb2140ed126782f228c7ea643a41b7e",
        "628f55831facc749f19e6471d5fdde99"
        "44814b1ed1d576060fc13406cda05c4b"),
    ("lot/elitist-roulette", 2): (
        "0x1.11f1dadace1c4p+8", 176,
        "539001465b433aa4d83d6c945d52a84b"
        "78f02a533ca49eea9b6ee4e6e98804f8",
        "cd03d1e0bd877796ff4337369fbd243d"
        "7150ed290420af89b0c8f9de50fba5e1"),
    ("lot/random", 1): (
        "0x1.18e20a30c452dp+8", 176,
        "37f93a98793ae9a06017b71cf5ae705b"
        "c278b5c8a36fc8168b9cbca8b9d4ceb7",
        "978447ba248abe4c6bfd2de1820e1f61"
        "6b373c224fdc5cffb03954568cfa399e"),
    ("lot/random", 2): (
        "0x1.21b74a27de55bp+8", 176,
        "d401fc1e78ce485715e333d3cd6e0adb"
        "5d2b3ceaffd890d99419ffeb9df1360f",
        "1c669b7f814d6e439d80260471a4d6af"
        "19789bff84f9c13ec55ad0a684621001"),
    ("lot/rank", 1): (
        "0x1.0ae92df17fc9cp+8", 176,
        "27ff8921257b7e83ec9becde7911e41e"
        "98c03719cf18f84bc34995ec25dd4a4c",
        "28a217d4e0b5c06dece56c540b81c4b4"
        "06726533c00f059e05d3beffa69d83fd"),
    ("lot/rank", 2): (
        "0x1.1079321b0dc26p+8", 176,
        "51efb46bf2fbf07c5e23a79ea0865080"
        "42ff964b727e553fa5a5c7e22e120a6a",
        "6d15d0380ca675e484aa2231157ae216"
        "e0ccbb8483c42939c7764c92a19bcb27"),
    ("lox/roulette", 1): (
        "0x1.5080000000000p+10", 176,
        "c2794be97a05dfd7848a7c6fd518dc93"
        "a37c2ff32d630b5856d926a1405af8ee",
        "f12971764b2d9152993c63df08e04832"
        "629a10a7a84d416a5efe01abce6757ed"),
    ("lox/roulette", 2): (
        "0x1.5d80000000000p+10", 176,
        "bf9eecdc6223358e6be9c6cf9878fb47"
        "de759eb9020498f0dc764da28e5db088",
        "74bd89c8e532d02c743109538f6c0ac4"
        "57fdae0020129bed3d2edc8e4b303f77"),
    ("lox/sus", 1): (
        "0x1.5140000000000p+10", 176,
        "d22b80083036482e38ed0b0dc93ab387"
        "321e4f458deb4ccba2d1bb3a6041fcde",
        "7ff023898d91fcfc34ec98c3af19ff36"
        "5151a386bc291595e06bd3cd697e5a91"),
    ("lox/sus", 2): (
        "0x1.5680000000000p+10", 176,
        "75822af9c3ebf4b981b196eb4c9a9e5c"
        "30b9e16d76dbfcd9fa0107ce71ee512c",
        "34975287adce0380363bb39adfd30da4"
        "14e70b16dfa77983c90ec3de37781f46"),
    ("lox/tournament", 1): (
        "0x1.4fc0000000000p+10", 176,
        "14da68275795bd81ec0c8cf3e1409a3f"
        "65509721f782e2a9c7e24890b391ff9b",
        "f6909a20ef407db31cc3374f290b5de7"
        "e07f01c4a165fc7a2cc506a25d68c917"),
    ("lox/tournament", 2): (
        "0x1.5200000000000p+10", 176,
        "eef050739bce07b2f630bf45810d0820"
        "4fde3da35243b69929ce3bc3b10ebee1",
        "30750a3d2f16997c5f20057676f2a680"
        "0d5cd426ec7cbd9d8bb85dd4756db35d"),
    ("lox/elitist-roulette", 1): (
        "0x1.51c0000000000p+10", 176,
        "c82225a2757635abc046d5d5a28c8011"
        "4c74ccd6517069449f3906778c6353d8",
        "2697918d99d8fc414d8f22b81ba9ee5e"
        "005c7a38fb22726a7dfea4d6e55c786d"),
    ("lox/elitist-roulette", 2): (
        "0x1.5880000000000p+10", 176,
        "2e7b44f1560ee54a85e2b7b14a57ffb8"
        "6219f77dbb342da67df548e56f0a1cb7",
        "b5e732c721c141dffdfb83dc938f1dea"
        "f4a43f0f66b5e19cfd2555334c4a0c01"),
    ("lox/random", 1): (
        "0x1.4fc0000000000p+10", 176,
        "805ab27e97194161b7d2c1ab606a4eb7"
        "f06241fcf119d16a767156c6ad5d3d5e",
        "4cc57ea0412ff649ab182ae1963586b3"
        "adcffdcf1f90a51ff0e0f5e1e3c01c5a"),
    ("lox/random", 2): (
        "0x1.5d80000000000p+10", 176,
        "2fc7a29458fc9df48739f51f043b67bb"
        "e3ef8bc9b6e8367950ea7103399b355f",
        "f56ea1c86c071bdb601d01c7bca7d683"
        "40229f165ee09fb7a1584e78632480cd"),
    ("lox/rank", 1): (
        "0x1.6040000000000p+10", 176,
        "82dccd4e97fe06e642e18dd6f53507f1"
        "900051b9bd6ed5358500f06e3e13ec45",
        "0a53642a1ce0ffdc7900446ecdede0c8"
        "055ef15c5d35160ca6c28c6fe3ee51d1"),
    ("lox/rank", 2): (
        "0x1.52c0000000000p+10", 176,
        "17fbae9dabfbd4df056e78808f972f5b"
        "6a9153ef49933c11a87b2fd4ae65271f",
        "8235ade9b886cf155ee86a4e5795ebde"
        "fd24bc74951f7f51ba9fed7795e76aa0"),
    ("merge-islands", 1): (
        "0x1.4fc0000000000p+10", 1290,
        "f739b6c29313bdb9c6f930dcee33fb3c"
        "c1295012db2349a94c67a6eba2b825c1",
        "ca111a5acb56aa846c38fe024a931051"
        "192549d6eb4ad622eaff2245947ffa2b"),
    ("merge-islands", 2): (
        "0x1.4fc0000000000p+10", 1040,
        "a8974b2b065223be4393d437446bb25b"
        "e86a42ab6998eb076ae95b5a3ec56b81",
        "0a8636afe2509d49e7a93f62486fb3e6"
        "36f6ee8fc6e51bbfa34b1fc43b665e62"),
    ("lot-islands", 1): (
        "0x1.f944f66da1de9p+7", 1640,
        "8db1379ff5742d38a636f37ba83ae0da"
        "717ed25a6d375dab42e8a78c47ca42be",
        "83ae74c14e6f9e85aefa5b259f9341d9"
        "0aaab8307ea9902a63635b11cf20026d"),
    ("lot-islands", 2): (
        "0x1.f55aadfbeed7ep+7", 1640,
        "cf6d677c59c11dd181cd862d9edb9cf9"
        "09117c2460491ddb2eca0a70b6bc308c",
        "3269a024696ea66ffa7b8962c0633b0e"
        "ecafbff2f840b5c621949e11c478bb50"),
}


@pytest.mark.parametrize("case, seed", sorted(PINS),
                         ids=lambda value: str(value))
def test_per_pair_run_is_pinned(case, seed):
    assert run(case, seed) == ("object", *PINS[case, seed])


def test_every_case_is_pinned():
    cases = {f"{name}/{selection}" for name in ("lot", "lox")
             for selection in SELECTIONS}
    cases |= {"merge-islands", "lot-islands"}
    assert set(PINS) == {(case, seed) for case in cases for seed in (1, 2)}
