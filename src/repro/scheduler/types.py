"""Core datatypes shared by the multi-LoRA scheduler."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.data.dataset import FinetuneDataset, Sample
from repro.errors import CapacityError, ScheduleError, require_int
from repro.models.layer_costs import MicrobatchShape

__all__ = ["AdapterJob", "Assignment", "JobWindow", "Microbatch", "Schedule"]


@functools.lru_cache(maxsize=4096)
def _one_batch(batch: int) -> frozenset[int]:
    """``{batch}``, shared: most adapters bring one batch to a microbatch,
    and microbatches that keep their batch maps share these sets.  Bounded,
    since batch indices grow with a job's length; an evicted index only
    costs a fresh set."""
    return frozenset((batch,))


@dataclass(frozen=True)
class AdapterJob:
    """One fine-tuning job: an adapter, its dataset, and its batch size.

    Attributes:
        adapter_id: Adapter identity (unique across jobs).
        dataset: The job's ordered sample stream.
        global_batch_size: Samples per optimizer step.
        batch_offset: Absolute index of the dataset's first global batch.
            The scheduler labels assignments ``batch_offset + local_step``
            (zero for offline, whole-horizon jobs; online windows are
            :class:`JobWindow` slices carrying their own offset).
    """

    adapter_id: int
    dataset: FinetuneDataset
    global_batch_size: int
    batch_offset: int = 0

    def __post_init__(self) -> None:
        gbs, offset = self.global_batch_size, self.batch_offset
        # Plain ints skip the typed check: fleets build thousands of jobs.
        if type(gbs) is not int or type(offset) is not int:
            require_int(global_batch_size=gbs, batch_offset=offset)
        if not isinstance(self.dataset, FinetuneDataset):
            raise ScheduleError(
                f"dataset must be a FinetuneDataset, got {self.dataset!r}"
            )
        if gbs <= 0:
            raise ScheduleError("global_batch_size must be positive")
        if offset < 0:
            raise ScheduleError("batch_offset must be non-negative")
        if self.dataset.adapter_id != self.adapter_id:
            raise ScheduleError(
                f"dataset belongs to adapter {self.dataset.adapter_id}, "
                f"job is adapter {self.adapter_id}"
            )

    @property
    def samples(self) -> list[Sample]:
        """The dataset's samples, in training order."""
        return self.dataset.samples

    def num_global_batches(self) -> int:
        """Optimizer steps this job will take."""
        return math.ceil(len(self.dataset) / self.global_batch_size)

    def mean_length(self) -> float:
        """Mean sample length (drives head-tail grouping)."""
        return self.dataset.mean_length()


class JobWindow(NamedTuple):
    """A job's next global batches, handed to the scheduler as a slice.

    The online orchestrator plans each wave from these: one tuple per
    live job, whose ``samples`` are the slice
    ``samples[batch_offset*gbs : end*gbs]`` of the job's dataset, so no
    dataset or :class:`AdapterJob` is rebuilt (or revalidated) per wave.
    The scheduler and groupers read the same fields of either type.

    Attributes:
        adapter_id: The job's adapter.
        batch_offset: Absolute index of the window's first global batch.
        global_batch_size: Samples per optimizer step.
        samples: The window's samples, in training order.
    """

    adapter_id: int
    batch_offset: int
    global_batch_size: int
    samples: list[Sample]

    def num_global_batches(self) -> int:
        """Optimizer steps the window spans."""
        return -(-len(self.samples) // self.global_batch_size)

    def mean_length(self) -> float:
        """Mean sample length of the window (the same exact quotient as
        :meth:`~repro.data.dataset.FinetuneDataset.length_moments`)."""
        return sum(sample.length for sample in self.samples) / len(self.samples)


#: What the scheduler plans: whole jobs offline, windows online.
PlannedJob = AdapterJob | JobWindow


@dataclass(frozen=True)
class Assignment:
    """One sample placed into a microbatch.

    Attributes:
        sample: The sample.
        global_batch: The sample's global-batch index for its adapter --
            the optimizer step whose gradient it contributes to.  Preserved
            under merging (a shifted sample keeps its original index).
    """

    sample: Sample
    global_batch: int

    @property
    def adapter_id(self) -> int:
        """Owning adapter."""
        return self.sample.adapter_id

    @property
    def length(self) -> int:
        """Token length."""
        return self.sample.length


@dataclass
class Microbatch:
    """A scheduled microbatch: assignments plus capacity bookkeeping.

    Token accounting follows the paper's MILP: each adapter's tokens inside
    a microbatch are padded up to a multiple of ``padding_multiple`` (``P``)
    so the FusedMultiLoRA tile table never straddles adapters.

    Attributes:
        assignments: Samples in this microbatch.  Pass them at construction
            or append through :meth:`add`, which keeps the token totals.
        capacity: Token budget (padded tokens must not exceed it).
        padding_multiple: The padding granule ``P``.
        group: Adapter-group index that produced this microbatch.
        step: Global-batch step index within the group's stream (window
            local under online scheduling; absolute batch indices live on
            the assignments).
        plan_id: Replanning wave that emitted this microbatch.  Offline
            schedules are one wave (0); the online orchestrator stamps
            each window's wave so spliced streams stay traceable back to
            the plan that produced every microbatch.
        replica: Pipeline replica that executed this microbatch.  Zero for
            single-pipeline runs; a :class:`~repro.serve.replicaset.ReplicaSet`
            stamps each replica's stream so merged traces stay attributable
            to the pipeline that ran every slot.
    """

    assignments: list[Assignment] = field(default_factory=list)
    capacity: int = 8192
    padding_multiple: int = 64
    group: int = 0
    step: int = 0
    plan_id: int = 0
    replica: int = 0
    # Token totals, kept in step with ``assignments`` by ``__post_init__``
    # and ``add``.  Integers, so reading them equals a rescan exactly;
    # derived, so they stay out of ``__eq__`` and ``repr``.
    _raw: dict[int, int] = field(init=False, repr=False, compare=False)
    _padded: int = field(init=False, repr=False, compare=False)
    _sum_sq: int = field(init=False, repr=False, compare=False)
    # The adapter -> global batches map, built by the first
    # ``batches_by_adapter`` call and kept in step by ``add`` after it.
    _batches: dict[int, frozenset[int]] | None = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        raw: dict[int, int] = {}
        sum_sq = 0
        for assignment in self.assignments:
            sample = assignment.sample
            raw[sample.adapter_id] = raw.get(sample.adapter_id, 0) + sample.length
            sum_sq += sample.length * sample.length
        self._raw = raw
        self._padded = sum(self._padded_of(tokens) for tokens in raw.values())
        self._sum_sq = sum_sq
        self._batches = None

    def _padded_of(self, tokens: int) -> int:
        """``tokens`` padded up to the next multiple of ``P``."""
        p = self.padding_multiple
        return -(-tokens // p) * p

    def _growth(self, adapter_id: int, length: int) -> int:
        """Padded tokens that adding ``length`` of ``adapter_id`` costs."""
        current = self._raw.get(adapter_id, 0)
        return self._padded_of(current + length) - self._padded_of(current)

    @property
    def is_noop(self) -> bool:
        """True for bubble-restoring no-op microbatches."""
        return not self.assignments

    def tokens_by_adapter(self) -> dict[int, int]:
        """Raw (unpadded) token counts per adapter, in first-seen order."""
        return dict(self._raw)

    @property
    def padded_tokens(self) -> int:
        """Total padded tokens (the quantity capped by ``capacity``)."""
        return self._padded

    @property
    def real_tokens(self) -> int:
        """Total unpadded tokens."""
        return sum(self._raw.values())

    @property
    def num_adapters(self) -> int:
        """Distinct adapters present."""
        return len(self._raw)

    def fits(self, sample: Sample) -> bool:
        """Whether adding ``sample`` keeps the microbatch within capacity."""
        growth = self._growth(sample.adapter_id, sample.length)
        return self._padded + growth <= self.capacity

    def add(self, assignment: Assignment) -> None:
        """Add a sample, enforcing the capacity invariant."""
        adapter_id, length = assignment.adapter_id, assignment.length
        growth = self._growth(adapter_id, length)
        if self._padded + growth > self.capacity:
            raise CapacityError(
                f"sample of length {length} does not fit "
                f"(used {self.padded_tokens}/{self.capacity})"
            )
        self.assignments.append(assignment)
        self._raw[adapter_id] = self._raw.get(adapter_id, 0) + length
        self._padded += growth
        self._sum_sq += length * length
        if self._batches is not None:
            self._note_batch(adapter_id, assignment.global_batch)

    def _note_batch(self, adapter_id: int, batch: int) -> None:
        batches = self._batches.get(adapter_id)
        if batches is None:
            self._batches[adapter_id] = _one_batch(batch)
        elif batch not in batches:
            self._batches[adapter_id] = batches | {batch}

    def shape(self) -> MicrobatchShape:
        """Workload descriptor for the cost model (padded tokens)."""
        return MicrobatchShape(
            tokens=self._padded,
            sum_sq_len=float(self._sum_sq),
            num_adapters=len(self._raw),
        )

    def batches_by_adapter(self) -> dict[int, frozenset[int]]:
        """Which global-batch indices each adapter contributes.

        Built on the first call and kept in step by :meth:`add`, so the
        map is shared: callers must not mutate it.  A no-op's empty map
        is not kept: streams hold many no-ops.
        """
        if not self.assignments:
            return {}
        if self._batches is None:
            self._batches = {}
            for assignment in self.assignments:
                self._note_batch(assignment.adapter_id, assignment.global_batch)
        return self._batches


@dataclass
class Schedule:
    """The scheduler's output: an ordered microbatch stream plus stats.

    Attributes:
        microbatches: Execution order (includes no-ops).
        num_stages: Pipeline depth the schedule was verified against.
        stats: Free-form counters (milp wins, merges, no-ops inserted...).
    """

    microbatches: list[Microbatch]
    num_stages: int = 1
    stats: dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.microbatches)

    @property
    def total_tokens(self) -> int:
        """Real (unpadded) tokens across the schedule."""
        return sum(mb.real_tokens for mb in self.microbatches)

    @property
    def total_padded_tokens(self) -> int:
        """Padded tokens across the schedule."""
        return sum(mb.padded_tokens for mb in self.microbatches)

    def to_dict(self) -> dict:
        """JSON-serializable representation (orchestrator trace dumps)."""
        return {
            "num_stages": self.num_stages,
            "stats": dict(self.stats),
            "microbatches": [
                {
                    "capacity": mb.capacity,
                    "padding_multiple": mb.padding_multiple,
                    "group": mb.group,
                    "step": mb.step,
                    "plan_id": mb.plan_id,
                    "replica": mb.replica,
                    "assignments": [
                        {
                            "adapter_id": a.adapter_id,
                            "index": a.sample.index,
                            "length": a.length,
                            "global_batch": a.global_batch,
                        }
                        for a in mb.assignments
                    ],
                }
                for mb in self.microbatches
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Schedule":
        """Rebuild a schedule dumped by :meth:`to_dict`."""
        microbatches = []
        for entry in payload["microbatches"]:
            microbatches.append(
                Microbatch(
                    assignments=[
                        Assignment(
                            sample=Sample(
                                adapter_id=a["adapter_id"],
                                index=a["index"],
                                length=a["length"],
                            ),
                            global_batch=a["global_batch"],
                        )
                        for a in entry["assignments"]
                    ],
                    capacity=entry["capacity"],
                    padding_multiple=entry["padding_multiple"],
                    group=entry["group"],
                    step=entry["step"],
                    plan_id=entry.get("plan_id", 0),
                    replica=entry.get("replica", 0),
                )
            )
        return cls(
            microbatches=microbatches,
            num_stages=payload["num_stages"],
            stats=dict(payload.get("stats", {})),
        )
