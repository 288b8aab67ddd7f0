"""Job-level contribution of the paper: the multi-LoRA scheduler."""

from repro.scheduler.bubble import (
    BubbleViolation,
    dependency_gap,
    find_violations,
    insert_noops,
)
from repro.scheduler.greedy import check_sample_fits_capacity, greedy_pack
from repro.scheduler.grouping import (
    StickyGrouper,
    head_tail_groups,
    knapsack_groups,
)
from repro.scheduler.merging import merge_pass
from repro.scheduler.milp import MILPResult, milp_pack
from repro.scheduler.scheduler import (
    MultiLoRAScheduler,
    PackingPlan,
    SchedulerConfig,
    pack_global_batch,
)
from repro.scheduler.types import (
    AdapterJob,
    Assignment,
    JobWindow,
    Microbatch,
    Schedule,
)

__all__ = [
    "AdapterJob",
    "Assignment",
    "BubbleViolation",
    "JobWindow",
    "MILPResult",
    "Microbatch",
    "MultiLoRAScheduler",
    "PackingPlan",
    "Schedule",
    "SchedulerConfig",
    "StickyGrouper",
    "check_sample_fits_capacity",
    "dependency_gap",
    "find_violations",
    "greedy_pack",
    "head_tail_groups",
    "insert_noops",
    "knapsack_groups",
    "merge_pass",
    "milp_pack",
    "pack_global_batch",
]
