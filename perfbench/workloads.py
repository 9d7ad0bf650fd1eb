"""The three benchmark workloads.

Every workload is closed-loop: one process, one thread, and the next
round starts when the previous one returns.  A workload builds its
inputs from the seed alone, runs its rounds between
``timeline.begin()`` and ``timeline.end()`` so that only protocol work
is timed, and checks every round against an oracle.  After the timed
rounds it replays a prefix of the run from the same seed, untimed, and
requires the same parameter or aggregate digest.  The replay runs after
the timed rounds because the program memoises key agreements and mask
expansions process-wide: a replayed round inside the timed window
would hit those caches and read faster than a fresh one.

``repro`` is imported by the worker (``modules``) so that the import is
timed as part of set-up; the methods below import names from modules
that are already loaded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import traceback

import numpy as np

#: Training rounds replayed from the seed for the determinism check.
REPLAY_ROUNDS = 1


@dataclasses.dataclass
class Outcome:
    """What a workload's run produced, besides its round times.

    Attributes:
        attempted: Rounds started.
        failed: Rounds that raised, aborted or released a wrong aggregate.
        included: Per round, included participants / sampled participants.
        wire_bytes: Per round, protocol bytes.
        phase_bytes: Mean protocol bytes per round, by phase.
        quality: Named model and privacy results (``test_accuracy``,
            ``epsilon_spent``, ``epsilon_budget``) where they exist.
        checks: Named run-level correctness checks.
    """

    attempted: int = 0
    failed: int = 0
    included: list[float] = dataclasses.field(default_factory=list)
    wire_bytes: list[int] = dataclasses.field(default_factory=list)
    phase_bytes: dict[str, float] = dataclasses.field(default_factory=dict)
    quality: dict[str, float] = dataclasses.field(default_factory=dict)
    checks: dict[str, bool] = dataclasses.field(default_factory=dict)


class _Stop(Exception):
    """Ends a replay once its prefix has run."""


def _digest(*arrays) -> str:
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()


def _modular_sum(rows, modulus: int) -> np.ndarray:
    """The oracle: the direct column sum mod ``modulus``."""
    return np.mod(np.asarray(rows, dtype=np.int64).sum(axis=0), modulus)


class SmmTrain:
    """The paper's FL training: SMM over the black-box SecAgg contract.

    The scaled-down Figure-2 geometry (MNIST surrogate, d = 12,730
    padded to 16,384, |B| = 100, m = 2^8, gamma = 32, epsilon = 3).  The
    schedule is a fixed 80 rounds, because held-out accuracy is steady
    across seeds at 80 rounds and not at 40; the run therefore lasts
    longer than ``seconds``.
    """

    name = "smm-train"
    modules = ("repro", "repro.fl", "repro.accounting.rdp")
    params = {
        "participants": 12_000,
        "test_records": 500,
        "hidden": 16,
        "expected_batch": 100,
        "rounds": 80,
        "modulus": 2**8,
        "gamma": 32.0,
        "epsilon": 3.0,
        "delta": 1e-5,
        "learning_rate": 0.01,
        "secagg": "ZeroSumMaskProtocol",
    }

    def build(self, seed: int) -> None:
        from repro.fl import mnist_surrogate

        self.seed = seed
        p = self.params
        self.train, self.test = mnist_surrogate(
            np.random.default_rng([seed, 0]), p["participants"], p["test_records"]
        )

    def _trainer(self, on_round, aggregator):
        from repro import CompressionConfig, PrivacyBudget, SkellamMixtureMechanism
        from repro.fl import FederatedTrainer, MLPClassifier, TrainingConfig

        class HookedTrainer(FederatedTrainer):
            def _select_round_participants(self, rng, round_index):
                on_round(round_index, self.model)
                return super()._select_round_participants(rng, round_index)

        p = self.params
        mechanism = SkellamMixtureMechanism(
            CompressionConfig(modulus=p["modulus"], gamma=p["gamma"])
        )
        # Swapped in so the timed run can check every secure sum against
        # the direct modular sum of its inputs.
        mechanism._secagg_factory = aggregator
        model = MLPClassifier(
            [self.train.num_features, p["hidden"], self.train.num_classes],
            np.random.default_rng([self.seed, 1]),
        )
        config = TrainingConfig(
            rounds=p["rounds"],
            expected_batch=p["expected_batch"],
            budget=PrivacyBudget(epsilon=p["epsilon"], delta=p["delta"]),
            learning_rate=p["learning_rate"],
        )
        return HookedTrainer(model, mechanism, self.train, self.test, config)

    def run(self, seconds: float, timeline) -> Outcome:
        from repro.accounting.rdp import RdpAccountant
        from repro.secagg.protocol import ZeroSumMaskProtocol

        outcome = Outcome()
        sums: list[tuple[int, bool]] = []  # (carried bytes, sum correct)

        class CheckedAggregator(ZeroSumMaskProtocol):
            def run(self, inputs):
                result = super().run(inputs)
                words = np.asarray(inputs).size
                bits = math.ceil(math.log2(self.modulus))
                sums.append((
                    words * bits // 8,
                    np.array_equal(result, _modular_sum(inputs, self.modulus)),
                ))
                return result

        prefix: dict[str, str] = {}

        def on_round(round_index, model):
            if round_index == REPLAY_ROUNDS + 1:
                prefix["run"] = _digest(model.get_flat_parameters())
            timeline.begin()

        trainer = self._trainer(on_round, CheckedAggregator)
        history = trainer.run(np.random.default_rng([self.seed, 2]))
        timeline.end()

        outcome.attempted = len(timeline.durations)
        outcome.failed = outcome.attempted - sum(ok for _, ok in sums)
        outcome.included = [1.0] * len(sums)
        outcome.wire_bytes = [carried for carried, _ in sums]
        budget = trainer.config.budget
        ledger = RdpAccountant(orders=budget.orders)
        ledger.step_subsampled(
            trainer.mechanism.per_round_rdp_curve(),
            trainer.sampling_rate,
            count=len(sums),
        )
        outcome.quality = {
            "test_accuracy": history.final_accuracy,
            "epsilon_spent": ledger.epsilon(budget.delta),
            "epsilon_budget": budget.epsilon,
        }
        outcome.checks["epsilon_within_budget"] = (
            outcome.quality["epsilon_spent"] <= budget.epsilon
        )

        def stop_after_prefix(round_index, model):
            if round_index == REPLAY_ROUNDS + 1:
                prefix["replay"] = _digest(model.get_flat_parameters())
                raise _Stop

        try:
            self._trainer(stop_after_prefix, ZeroSumMaskProtocol).run(
                np.random.default_rng([self.seed, 2])
            )
        except _Stop:
            pass
        outcome.checks["replay_digest"] = prefix.get("run") == prefix.get("replay")
        return outcome


class SimTrain:
    """SimulationEngine DP training with real Bonawitz rounds.

    Small cohort, large d: pairwise-mask PRG expansion dominates.  Every
    one of the 32 registered clients is sampled each round: a round's
    mask expansion grows with the square of its cohort, so Poisson
    cohorts of mean 32 from a larger population make a 12-round run's
    work vary by about 10% from seed to seed.
    """

    name = "sim-train"
    modules = ("repro", "repro.simulation")
    params = {
        "population": 32,
        "expected_cohort": 32,
        "hidden": 8,
        "rounds": 12,
        "epsilon": 5.0,
        "dropout_rate": 0.1,
        "topology": "flat",
        "telemetry": True,
        "verify_aggregate": True,
    }

    def build(self, seed: int) -> None:
        self.seed = seed
        self.engine = self._engine()

    def _engine(self):
        from repro.simulation import (
            BernoulliDropout,
            SimulationConfig,
            SimulationEngine,
        )

        p = self.params
        config = SimulationConfig(
            population_size=p["population"],
            expected_cohort=p["expected_cohort"],
            rounds=p["rounds"],
            hidden=p["hidden"],
            epsilon=p["epsilon"],
            seed=self.seed,
            verify_aggregate=p["verify_aggregate"],
            telemetry=p["telemetry"],
        )
        return SimulationEngine(config, availability=BernoulliDropout(p["dropout_rate"]))

    @staticmethod
    def _hook(engine, on_round) -> None:
        """Call ``on_round`` as each training round samples its cohort."""
        sample_cohort = engine.population.sample_cohort

        def hooked(round_index, expected_size):
            on_round(round_index, engine.model)
            return sample_cohort(round_index, expected_size)

        engine.population.sample_cohort = hooked

    def run(self, seconds: float, timeline) -> Outcome:
        from repro.secagg.statemachine import PHASE_TAGS

        prefix: dict[str, str] = {}

        def on_round(round_index, model):
            if round_index == REPLAY_ROUNDS + 1:
                prefix["run"] = _digest(model.get_flat_parameters())
            timeline.begin()

        self._hook(self.engine, on_round)
        result = self.engine.run()
        timeline.end()

        outcome = Outcome(attempted=len(timeline.durations))
        for record in result.records:
            if record.aborted or record.aggregate_matches is not True:
                outcome.failed += 1
            if record.cohort:
                outcome.included.append(len(record.included) / len(record.cohort))
            outcome.wire_bytes.append(record.wire_bytes)
        rounds = max(1, len(result.records))
        outcome.phase_bytes = {
            tag: result.metrics.counter_sum("secagg_wire_bytes_total", phase=tag)
            / rounds
            for tag in PHASE_TAGS.values()
        }
        outcome.quality = {
            "test_accuracy": result.final_accuracy,
            "epsilon_spent": result.epsilon,
        }

        def stop_after_prefix(round_index, model):
            if round_index == REPLAY_ROUNDS + 1:
                prefix["replay"] = _digest(model.get_flat_parameters())
                raise _Stop

        replay = self._engine()
        self._hook(replay, stop_after_prefix)
        try:
            replay.run()
        except _Stop:
            pass
        outcome.checks["replay_digest"] = prefix.get("run") == prefix.get("replay")
        return outcome


class TreeSecagg:
    """``HierarchicalSecAggRound`` over an 8x4 tree with SecAgg composition.

    Many small rounds: 32 leaf rounds of 16 clients plus 9 composition
    rounds, so per-round fixed costs dominate.  Each round aggregates
    fresh seeded vectors for the full population of 512.

    ``seconds`` sets the number of rounds through a fixed nominal round
    time, not through the clock, so that every commit measures the same
    rounds: round times can drift over the first rounds of a process as
    the program's process-wide memo caches fill, and a clock-bounded
    run would include more or fewer of the later rounds depending on
    its speed.
    """

    name = "tree-secagg"
    modules = ("repro", "repro.simulation")
    #: Seconds one round takes on a 2-vCPU x86 host (sets the round count).
    nominal_round_s = 1.2
    #: A run always measures at least this many rounds.
    min_rounds = 2
    params = {
        "population": 512,
        "cohort": "full",
        "topology": "8x4",
        "composer": "secagg",
        "dropout_rate": 0.1,
        "dimension": 64,
        "modulus": 2**16,
        "threshold_fraction": 0.6,
        "backend": "inline",
    }

    def build(self, seed: int) -> None:
        from repro.simulation import BernoulliDropout, Population

        p = self.params
        self.seed = seed
        self.population = Population(
            p["population"], availability=BernoulliDropout(p["dropout_rate"]), seed=seed
        )

    def rounds(self, seconds: float) -> int:
        return max(self.min_rounds, round(seconds / self.nominal_round_s))

    def round_inputs(self, index: int):
        p = self.params
        cohort = self.population.sample_cohort(index, p["population"])
        rng = np.random.default_rng([self.seed, index])
        vectors = {
            u: rng.integers(0, p["modulus"], size=p["dimension"], dtype=np.int64)
            for u in cohort
        }
        return index, vectors, self.population.plans(index, cohort)

    def execute(self, inputs):
        """One round; returns ``(modular_sum, included, wire)``."""
        from repro.simulation import HierarchicalSecAggRound, SimulatedClock

        index, vectors, plans = inputs
        p = self.params
        result = HierarchicalSecAggRound(
            vectors=vectors,
            modulus=p["modulus"],
            clock=SimulatedClock(),
            rng=self.population.round_rng(index, purpose=2),
            topology=p["topology"],
            threshold_fraction=p["threshold_fraction"],
            composer=p["composer"],
            plans=plans,
            backend=p["backend"],
        ).execute()
        if result.composer != p["composer"]:
            raise RuntimeError(f"round composed with {result.composer}")
        return result.modular_sum, result.included, result.wire

    def run(self, seconds: float, timeline) -> Outcome:
        from repro.secagg.statemachine import PHASE_TAGS

        outcome = Outcome()
        totals = dict.fromkeys(PHASE_TAGS.values(), 0)
        digests: list[str] = []
        for index in range(self.rounds(seconds)):
            inputs = self.round_inputs(index)
            _, vectors, _ = inputs
            outcome.attempted += 1
            timeline.begin()
            try:
                modular_sum, included, wire = self.execute(inputs)
            except Exception:  # A round that raises is a failed round.
                traceback.print_exc()
                outcome.failed += 1
                continue
            finally:
                timeline.end()
            expected = _modular_sum(
                [vectors[u] for u in sorted(included)], self.params["modulus"]
            )
            if not np.array_equal(modular_sum, expected):
                outcome.failed += 1
            digests.append(_digest(modular_sum, sorted(included)))
            outcome.included.append(len(included) / len(vectors))
            outcome.wire_bytes.append(wire.total_bytes)
            for tag, phase in wire.phase_totals().items():
                totals[tag] = totals.get(tag, 0) + phase["up_bytes"] + phase["down_bytes"]
        measured = max(1, len(outcome.wire_bytes))
        outcome.phase_bytes = {tag: total / measured for tag, total in totals.items()}
        replay_sum, replay_included, _ = self.execute(self.round_inputs(0))
        outcome.checks["replay_digest"] = bool(digests) and digests[0] == _digest(
            replay_sum, sorted(replay_included)
        )
        return outcome


WORKLOADS = {
    workload.name: workload
    for workload in (SmmTrain, SimTrain, TreeSecagg)
}
