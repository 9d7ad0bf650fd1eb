"""Composition of shard-level secure aggregates.

Hierarchical secure aggregation structures a large federation as ``k``
independent SecAgg instances — one per shard of the cohort — whose
outputs are combined at each interior node of the aggregation tree.
Two interchangeable :class:`Composer` strategies exist:

* :class:`ClearComposer` — the outer modular addition of the hybrid
  approach (Truex et al., DDP-SA): free, but the composing server sees
  every intermediate shard sum in plaintext.  Because modular addition
  over the same ``Z_m`` is associative and commutative,

  ``(Σ_{u ∈ S_1} x_u mod m) + ... + (Σ_{u ∈ S_k} x_u mod m)  mod m``

  is *bit-identical* to the flat sum over the union of the shards'
  survivor sets.  That identity is what the simulation's
  ``verify_aggregate`` oracle asserts round by round.
* :class:`SecAggComposer` — an outer Bonawitz round over the child
  sums, run by :func:`~repro.secagg.bonawitz.run_bonawitz` with one
  client per child, so the composing node only ever receives *masked*
  inputs and no intermediate aggregate is exposed.  The threshold is
  the child count: children are in-process coordinators that never
  drop, so masks cancel over the complete set and the composed sum is
  bit-identical to the clear composition — the composer changes who
  can see what, never the sum.
"""

from __future__ import annotations

import abc
import dataclasses
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.secagg.bonawitz import run_bonawitz

if TYPE_CHECKING:
    from repro.secagg.wire import WireStats
    from repro.telemetry.registry import MetricsRegistry


def _reduced_sums(
    shard_sums: Sequence[np.ndarray], modulus: int
) -> list[np.ndarray]:
    """Validate child sums and reduce each into ``Z_m``.

    Raises:
        ConfigurationError: If no sums are given, the modulus is below
            2, or the sums do not share one 1-d shape.
    """
    if modulus < 2:
        raise ConfigurationError(f"modulus must be >= 2, got {modulus}")
    if not shard_sums:
        raise ConfigurationError("need at least one shard sum to compose")
    arrays = [np.asarray(shard_sum, dtype=np.int64) for shard_sum in shard_sums]
    shapes = {array.shape for array in arrays}
    if len(shapes) != 1 or len(next(iter(shapes))) != 1:
        raise ConfigurationError(
            f"shard sums must share one 1-d shape, got {shapes}"
        )
    return [np.mod(array, modulus) for array in arrays]


def compose_shard_sums(
    shard_sums: Sequence[np.ndarray], modulus: int
) -> np.ndarray:
    """Outer modular addition of per-shard secure aggregates.

    Args:
        shard_sums: One modular sum per (successful) shard, all of the
            same 1-d shape over ``Z_m``.
        modulus: The shared aggregation modulus ``m``.

    Returns:
        ``Σ_shards shard_sum mod m`` as a length-``d`` int64 array —
        equal to the flat modular sum over the union of the shards'
        included clients.

    Raises:
        ConfigurationError: If no sums are given or shapes disagree.
    """
    arrays = _reduced_sums(shard_sums, modulus)
    total = arrays[0]
    for array in arrays[1:]:
        total = np.mod(total + array, modulus)
    return total


@dataclasses.dataclass(frozen=True)
class ComposeResult:
    """What one interior node's composition produced.

    Attributes:
        modular_sum: ``Σ child_sums mod m``.
        wire: Wire accounting for the composition round itself, or
            ``None`` when composition needed no protocol (clear
            addition, or a single-child passthrough).
    """

    modular_sum: np.ndarray
    wire: "WireStats | None" = None


class Composer(abc.ABC):
    """Strategy for combining child sums at an interior tree node."""

    #: Registry key and the name annotated onto outcomes and traces.
    name: str = ""

    @abc.abstractmethod
    def compose(
        self,
        child_sums: Sequence[np.ndarray],
        modulus: int,
        rng: np.random.Generator | None = None,
        level: int = 0,
        metrics: "MetricsRegistry | None" = None,
    ) -> ComposeResult:
        """Combine ``child_sums`` into one modular sum.

        Args:
            child_sums: At least one per-child modular sum, all of the
                same 1-d shape over ``Z_m``.
            modulus: The shared aggregation modulus ``m``.
            rng: Node-local randomness (required by cryptographic
                composers, ignored by the clear one).
            level: Tree depth of the composing node (0 = root), used
                only for telemetry labels.
            metrics: Optional registry for composer-side counters.
        """


class ClearComposer(Composer):
    """Plaintext modular addition — fast, but the composing node sees
    every intermediate sum.  Its runs are deliberately *visible*: each
    one increments ``compose_clear_total`` so privacy-relevant
    configuration shows up in ``/metrics``.
    """

    name = "clear"

    def compose(
        self,
        child_sums: Sequence[np.ndarray],
        modulus: int,
        rng: np.random.Generator | None = None,
        level: int = 0,
        metrics: "MetricsRegistry | None" = None,
    ) -> ComposeResult:
        total = compose_shard_sums(child_sums, modulus)
        if metrics is not None:
            metrics.counter(
                "compose_clear_total",
                "Interior-node compositions performed in the clear "
                "(intermediate sums visible to the composing node).",
            ).labels(level=str(level)).inc()
        return ComposeResult(modular_sum=total)


class SecAggComposer(Composer):
    """An outer Bonawitz round over the child sums.

    Each child sum becomes one client's private input to
    :func:`~repro.secagg.bonawitz.run_bonawitz`, so the composing node
    only receives masked frames and no intermediate aggregate is ever
    exposed.  The Shamir threshold is the child count, so a lost child
    fails the round loudly instead of being recovered around.  A
    single child is passed through (there is nothing to hide from a
    node with one child — its "intermediate" sum *is* its output).
    """

    name = "secagg"

    def __init__(self, mask_prg: str | None = None) -> None:
        self._mask_prg = mask_prg

    def compose(
        self,
        child_sums: Sequence[np.ndarray],
        modulus: int,
        rng: np.random.Generator | None = None,
        level: int = 0,
        metrics: "MetricsRegistry | None" = None,
    ) -> ComposeResult:
        arrays = _reduced_sums(child_sums, modulus)
        if len(arrays) == 1:
            return ComposeResult(modular_sum=arrays[0])
        if rng is None:
            raise ConfigurationError(
                "the secagg composer needs node-local randomness (rng)"
            )
        outcome = run_bonawitz(
            np.stack(arrays),
            modulus,
            threshold=len(arrays),
            rng=rng,
            mask_prg=self._mask_prg,
            metrics=metrics,
        )
        return ComposeResult(modular_sum=outcome.modular_sum, wire=outcome.wire)


#: Composer registry keyed by the ``--compose`` / config knob value.
COMPOSERS: dict[str, type[Composer]] = {
    ClearComposer.name: ClearComposer,
    SecAggComposer.name: SecAggComposer,
}


def get_composer(
    composer: "Composer | str | None", mask_prg: str | None = None
) -> Composer:
    """Resolve a composer instance from a name, instance, or ``None``.

    ``None`` defaults to the clear composer.  Instances pass through
    so callers can inject custom strategies.
    """
    if composer is None:
        return ClearComposer()
    if isinstance(composer, Composer):
        return composer
    if composer not in COMPOSERS:
        raise ConfigurationError(
            f"unknown composer {composer!r}; expected one of "
            f"{sorted(COMPOSERS)}"
        )
    if composer == SecAggComposer.name:
        return SecAggComposer(mask_prg=mask_prg)
    return COMPOSERS[composer]()
