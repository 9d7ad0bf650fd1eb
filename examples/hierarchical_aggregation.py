"""Hierarchy equivalence: one cohort, four aggregation-tree shapes.

The aggregation tree changes *who can see what*, never the sum.  This
example runs the **same cohort with the same seed** through four
shapes:

* flat            — one Bonawitz round over the whole cohort;
* 2-level clear   — 8 leaf shards, sums composed by modular addition
                    (the composing server sees every shard sum);
* 2-level secagg  — 8 leaf shards, composed by an *outer* Bonawitz
                    round with one client per shard sum (shard sums
                    stay masked);
* 3-level secagg  — a 4x4 region→global tree, every interior level
                    SecAgg-composed.

and asserts the SHA-256 digest of the aggregate is identical across
all four: pairwise masks cancel over the survivor set at every level,
so hierarchical composition — clear or cryptographic — is bit-exact.

With ``--metrics-out`` the run also writes a Prometheus snapshot of
the secagg-composed runs, where the per-level labels on the phase
histograms (``level="0"``, ``level="1"``) make each composition
round's cost visible — the artifact CI uploads.

Run:
    python examples/hierarchical_aggregation.py [--clients 512]
"""

import argparse
import hashlib

import numpy as np

from repro.simulation import (
    AsyncSecAggRound,
    HierarchicalSecAggRound,
    SimulatedClock,
    shamir_threshold,
)
from repro.telemetry import MetricsRegistry

MODULUS = 2**32
DIMENSION = 64
SEED = 20220811


def digest(vector: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(vector, dtype=np.int64).tobytes()
    ).hexdigest()


def flat_round(vectors: dict) -> tuple[str, int]:
    clock = SimulatedClock()
    round_ = AsyncSecAggRound(
        vectors=vectors,
        modulus=MODULUS,
        threshold=shamir_threshold(0.8, len(vectors)),
        clock=clock,
        rng=np.random.default_rng(SEED),
    )
    outcome = clock.run(round_.run())
    return digest(outcome.modular_sum), len(outcome.included)


def tree_round(
    vectors: dict,
    topology: str,
    composer: str,
    metrics: MetricsRegistry | None,
) -> tuple[str, int]:
    clock = SimulatedClock()
    round_ = HierarchicalSecAggRound(
        vectors=vectors,
        modulus=MODULUS,
        clock=clock,
        rng=np.random.default_rng(SEED),
        topology=topology,
        threshold_fraction=0.8,
        composer=composer,
        metrics=metrics,
    )
    outcome = round_.execute()
    assert outcome.composer == composer
    return digest(outcome.modular_sum), len(outcome.included)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=64,
                        help="cohort size (CI runs 512)")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the secagg-composed runs' metrics "
                             "(with per-level labels) as Prometheus text")
    args = parser.parse_args()

    rng = np.random.default_rng(SEED)
    vectors = {
        u: rng.integers(0, MODULUS, size=DIMENSION)
        for u in range(1, args.clients + 1)
    }
    metrics = MetricsRegistry()

    print(f"cohort: {args.clients} clients, dimension {DIMENSION}, "
          f"modulus 2^32")
    shapes = {
        "flat": lambda: flat_round(vectors),
        "2-level clear (8 shards)": lambda: tree_round(
            vectors, "8", "clear", None
        ),
        "2-level secagg (8 shards)": lambda: tree_round(
            vectors, "8", "secagg", metrics
        ),
        "3-level secagg (4x4 tree)": lambda: tree_round(
            vectors, "4x4", "secagg", metrics
        ),
    }
    digests = {}
    for name, run in shapes.items():
        digests[name], included = run()
        print(f"  {name:>26s}: included={included:4d} "
              f"digest={digests[name][:16]}…")

    identical = len(set(digests.values())) == 1
    print(f"digest-identical across composers: {identical}")
    assert identical, digests

    levels = sorted(
        {
            value
            for series in metrics.snapshot().series
            for key, value in series.labels
            if key == "level"
        }
    )
    print(f"composition rounds metered at levels: {levels}")
    assert levels, "secagg composition should meter per-level series"

    if args.metrics_out:
        from repro.telemetry import MetricsReport

        report = MetricsReport(snapshot=metrics.snapshot())
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(report.to_prometheus())
        print(f"per-level metrics written to {args.metrics_out}")


if __name__ == "__main__":
    main()
