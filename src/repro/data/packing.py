"""The three batching schemes of Figure 2 and their efficiency accounting.

* **Batch padding** (Figure 2a): every sample in a microbatch is padded to
  the longest (or a preset) length; wasted computation on pad tokens.
* **Dataset pre-packing** (Figure 2b): samples are concatenated into
  fixed-length packs ahead of time; no padding waste, but the number of
  samples per optimizer step becomes variable, perturbing training
  semantics.
* **On-the-fly packing** (Figure 2c): each batch keeps a deterministic
  sample count and concatenates its samples without padding; microbatch
  token counts become variable -- which is precisely the load-imbalance
  problem (Figure 6) the LoRAFusion scheduler solves.
* **Knapsack assembly** (length-aware streaming packing): samples are
  grouped by first-fit-decreasing on length (:func:`greedy_knapsack`),
  so each knapsack's token total approaches capacity instead of
  tracking arrival order.

The paper adopts on-the-fly packing throughout; the serve layer
(``docs/serving.md``, "Length-aware packing") builds its knapsack wave
assembly on the fourth scheme; the first two are provided for the
motivation benches and comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError

__all__ = [
    "PaddedBatch",
    "Pack",
    "greedy_knapsack",
    "pad_batches",
    "prepack_dataset",
    "onthefly_microbatches",
    "padding_waste",
]


@dataclass(frozen=True)
class PaddedBatch:
    """A padded microbatch: real tokens plus padding to a uniform length."""

    lengths: tuple[int, ...]
    padded_length: int

    @property
    def real_tokens(self) -> int:
        """Tokens carrying gradient signal."""
        return sum(self.lengths)

    @property
    def total_tokens(self) -> int:
        """Tokens actually computed, padding included."""
        return self.padded_length * len(self.lengths)

    @property
    def wasted_tokens(self) -> int:
        """Pad tokens (computed but useless)."""
        return self.total_tokens - self.real_tokens


@dataclass(frozen=True)
class Pack:
    """A fixed-capacity pack of concatenated samples (pre-packing)."""

    lengths: tuple[int, ...]
    capacity: int

    @property
    def total_tokens(self) -> int:
        """Tokens in the pack (<= capacity)."""
        return sum(self.lengths)

    @property
    def sample_count(self) -> int:
        """Number of samples merged into this pack (variable!)."""
        return len(self.lengths)


def pad_batches(
    lengths: list[int], microbatch_size: int, preset_length: int | None = None
) -> list[PaddedBatch]:
    """Figure 2a: group consecutive samples and pad to a uniform length.

    Args:
        lengths: Sample lengths in training order.
        microbatch_size: Samples per microbatch.
        preset_length: Pad target; defaults to each batch's local maximum.
    """
    if microbatch_size <= 0:
        raise ReproError("microbatch_size must be positive")
    batches = []
    for i in range(0, len(lengths), microbatch_size):
        group = tuple(lengths[i : i + microbatch_size])
        target = preset_length if preset_length is not None else max(group)
        if any(l > target for l in group):
            raise ReproError(
                f"sample of length {max(group)} exceeds preset length {target}"
            )
        batches.append(PaddedBatch(lengths=group, padded_length=target))
    return batches


def prepack_dataset(lengths: list[int], capacity: int) -> list[Pack]:
    """Figure 2b: greedily concatenate the stream into fixed-size packs.

    Samples are taken in order; a pack closes when the next sample would
    overflow ``capacity``.  Sample counts per pack vary, which is the
    training-semantics drawback the paper notes.
    """
    if capacity <= 0:
        raise ReproError("capacity must be positive")
    packs: list[Pack] = []
    current: list[int] = []
    used = 0
    for length in lengths:
        if length > capacity:
            raise ReproError(f"sample length {length} exceeds capacity {capacity}")
        if used + length > capacity:
            packs.append(Pack(lengths=tuple(current), capacity=capacity))
            current, used = [], 0
        current.append(length)
        used += length
    if current:
        packs.append(Pack(lengths=tuple(current), capacity=capacity))
    return packs


def onthefly_microbatches(
    lengths: list[int], microbatch_size: int
) -> list[list[int]]:
    """Figure 2c: deterministic sample count, concatenated without padding.

    Returns the per-microbatch sample-length lists whose highly variable
    totals are plotted in Figure 6.
    """
    if microbatch_size <= 0:
        raise ReproError("microbatch_size must be positive")
    return [
        list(lengths[i : i + microbatch_size])
        for i in range(0, len(lengths), microbatch_size)
    ]


def greedy_knapsack(lengths: list[int], capacity: int) -> list[list[int]]:
    """Length-aware knapsack assembly: classic first-fit-decreasing.

    Samples are sorted by length descending (ties broken by original
    index ascending -- fully deterministic) and each is placed into the
    first open knapsack whose remaining capacity fits it, opening a new
    knapsack when none does.

    Returns:
        Knapsacks in creation order, each a list of indices into
        ``lengths`` in placement order (decreasing length).  Every index
        appears exactly once.
    """
    if capacity <= 0:
        raise ReproError(f"capacity must be positive, got {capacity}")
    for length in lengths:
        if length <= 0:
            raise ReproError(f"sample length {length} must be positive")
        if length > capacity:
            raise ReproError(
                f"sample length {length} exceeds capacity {capacity}"
            )
    order = sorted(range(len(lengths)), key=lambda i: (-lengths[i], i))
    knapsacks: list[list[int]] = []
    remaining: list[int] = []
    for i in order:
        length = lengths[i]
        for k, room in enumerate(remaining):
            if length <= room:
                knapsacks[k].append(i)
                remaining[k] -= length
                break
        else:
            knapsacks.append([i])
            remaining.append(capacity - length)
    return knapsacks


def padding_waste(batches: list[PaddedBatch]) -> float:
    """Fraction of computed tokens that are padding."""
    total = sum(b.total_tokens for b in batches)
    if total == 0:
        return 0.0
    return sum(b.wasted_tokens for b in batches) / total
