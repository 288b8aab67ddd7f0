"""Fine-tuning datasets and global-batch iteration.

A :class:`FinetuneDataset` is an ordered stream of :class:`Sample` records
(lengths only -- content never affects throughput).  The order is the
dataset's *training order*: the scheduler must never reorder samples across
global-batch boundaries (that would change the gradient-update sequence),
so global batches are formed here, by position, exactly as a dataloader
would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.distributions import (
    LengthDistribution,
    MixtureDistribution,
    get_distribution,
)
from repro.errors import ReproError

__all__ = ["Sample", "FinetuneDataset", "synthetic_dataset"]


@dataclass(frozen=True)
class Sample:
    """One training sample: its owner job, position, and token length.

    Attributes:
        adapter_id: The fine-tuning job (LoRA adapter) that owns it.
        index: Position within the adapter's dataset (training order).
        length: Token count.
    """

    adapter_id: int
    index: int
    length: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ReproError(f"sample length must be positive: {self}")


@dataclass
class FinetuneDataset:
    """An adapter's dataset: ordered samples plus provenance metadata."""

    adapter_id: int
    samples: list[Sample]
    source: str = "synthetic"

    def __post_init__(self) -> None:
        if not self.samples:
            raise ReproError("dataset must contain at least one sample")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def lengths(self) -> np.ndarray:
        """All sample lengths in training order."""
        return np.asarray([s.length for s in self.samples], dtype=np.int64)

    def mean_length(self) -> float:
        """Average sample length (used by head-tail adapter grouping)."""
        return self.length_moments()[0]

    def length_moments(self) -> tuple[float, float]:
        """``(mean, mean square)`` sample length, computed once.

        The serving layer's cost estimator prices jobs from these
        moments on every routing/admission/ordering decision; samples
        never change after construction, so they are cached on first
        use.  Both moments are exact integer sums divided once by the
        sample count (a correctly rounded quotient): the same floats a
        float64 mean gives whenever its sums stay below ``2**53``, and
        no numpy round trip on the many small window datasets a fleet
        builds per wave.
        """
        cached = self.__dict__.get("_length_moments")
        if cached is None:
            total = squares = 0
            for sample in self.samples:
                length = sample.length
                total += length
                squares += length * length
            count = len(self.samples)
            cached = (float(total / count), float(squares / count))
            self.__dict__["_length_moments"] = cached
        return cached

    def total_tokens(self) -> int:
        """Total token count of the dataset (an exact integer sum)."""
        return int(sum(sample.length for sample in self.samples))

    def global_batches(self, global_batch_size: int) -> list[list[Sample]]:
        """Split into consecutive global batches of ``global_batch_size``.

        The final batch may be smaller.  Order is preserved: batch ``j``
        holds samples ``[j*gbs, (j+1)*gbs)`` of the training stream.
        """
        if global_batch_size <= 0:
            raise ReproError(f"global batch size must be positive, got "
                             f"{global_batch_size}")
        return [
            self.samples[i : i + global_batch_size]
            for i in range(0, len(self.samples), global_batch_size)
        ]


def synthetic_dataset(
    adapter_id: int,
    dataset: str | LengthDistribution | MixtureDistribution,
    num_samples: int,
    seed: int = 0,
) -> FinetuneDataset:
    """Generate a deterministic synthetic dataset for one adapter.

    Args:
        adapter_id: Owning job id.
        dataset: Distribution key (``"xsum"``, ``"cnn_dailymail"``,
            ``"wikisum"``, ``"mixed"``) or a distribution object.
        num_samples: Stream length.
        seed: RNG seed; the same seed always yields the same stream.
    """
    distribution = (
        get_distribution(dataset) if isinstance(dataset, str) else dataset
    )
    rng = np.random.default_rng((seed, adapter_id))
    lengths = distribution.sample(num_samples, rng)
    samples = [
        Sample(adapter_id=adapter_id, index=i, length=int(length))
        for i, length in enumerate(lengths)
    ]
    return FinetuneDataset(
        adapter_id=adapter_id, samples=samples, source=distribution.key
    )
