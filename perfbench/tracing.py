"""Per-layer attribution for the traced run, from outside the program.

:meth:`Tracer.install` wraps the public functions and methods of each
layer of ``src/repro`` -- a layer is named after its module -- and
:meth:`Tracer.uninstall` puts every original back, so untraced repeats
run the program untouched.  While the tracer is active each wrapped call
is a span on an in-memory stack; a layer's self time is the duration of
its spans minus the time their child spans cover.  Counting wrappers
(the event heap) record counts without a span.

Wrappers replace class attributes and module bindings, never the
objects the program holds, so the program's own dispatch is unchanged:
``getattr(policy, "choose_arrays")`` still finds the array path, and
``inspect.signature`` still sees the original parameters through
``functools.wraps``.  A target the program no longer defines is skipped
and listed in :attr:`Tracer.missing`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["LAYERS", "PER_LAYER", "TARGETS", "Tracer", "layer_metrics"]

#: hook(tracer, args, kwargs, result, elapsed); ``before`` hooks get
#: ``result=None`` and ``elapsed=0.0``.
Hook = Callable[["Tracer", tuple, dict, Any, float], None]


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``"module:name"`` or ``"module:Class.method"``.

    ``layer=None`` counts calls without opening a span.
    """

    path: str
    layer: str | None
    before: Hook | None = None
    after: Hook | None = None


def _count(name: str) -> Hook:
    def hook(tracer, args, kwargs, result, elapsed):
        tracer.counts[name] += 1

    return hook


def _milp(tracer, args, kwargs, result, elapsed):
    tracer.counts["scheduler.milp_calls"] += 1
    tracer.counts["scheduler.milp_s"] += elapsed
    if not result.stage2_optimal:
        tracer.counts["scheduler.milp_limit_hits"] += 1


def _plan_step(tracer, args, kwargs, result, elapsed):
    tracer.counts["scheduler.milp_wins"] += result.milp_wins


def _assemble(tracer, args, kwargs, result, elapsed):
    tracer.counts["scheduler.microbatches"] += len(result.microbatches)
    # The span has closed, so the innermost open one is the caller's.
    if tracer.current_layer() == "orchestrator":
        tracer.counts["orchestrator.replans"] += 1


def _stage_time(tracer, args, kwargs, result, elapsed):
    key = (args, tuple(sorted(kwargs.items())))
    tracer.counts["models.stage_time_calls"] += 1
    if key in tracer.seen:
        tracer.counts["models.stage_time_repeats"] += 1
    else:
        tracer.seen.add(key)


def _submit(tracer, args, kwargs, result, elapsed):
    tracer.counts["gateway.submit_calls"] += 1
    if type(result).__name__ == "GatewayOverload":
        tracer.counts["gateway.sheds"] += 1


def _cancel(tracer, args, kwargs, result, elapsed):
    event = args[1] if len(args) > 1 else kwargs["event"]
    if not event.cancelled:
        tracer.counts["events.cancelled"] += 1


def _popped(tracer, args, kwargs, result, elapsed):
    if result is not None:
        tracer.counts["events.popped"] += 1


def _executor_submit(tracer, args, kwargs, result, elapsed):
    microbatch = args[1] if len(args) > 1 else kwargs["microbatch"]
    tracer.counts["executors.microbatches"] += 1
    if microbatch.is_noop:
        tracer.counts["executors.noops"] += 1


def _methods(module: str, cls: str, names: str, layer: str) -> list[Target]:
    return [Target(f"{module}:{cls}.{name}", layer) for name in names.split()]


#: Every wrapped callable, by layer.  ``admission`` covers
#: ``serve.admission`` and ``serve.ordering``; ``events`` only counts.
TARGETS: tuple[Target, ...] = (
    Target("repro.scheduler.scheduler:MultiLoRAScheduler.schedule", "scheduler"),
    Target(
        "repro.scheduler.scheduler:MultiLoRAScheduler.plan_step",
        "scheduler",
        after=_plan_step,
    ),
    Target(
        "repro.scheduler.scheduler:MultiLoRAScheduler.assemble",
        "scheduler",
        after=_assemble,
    ),
    Target("repro.scheduler.milp:milp_pack", "scheduler", after=_milp),
    Target("repro.scheduler.grouping:StickyGrouper.groups_for", "scheduler"),
    Target("repro.scheduler.bubble:insert_noops", "scheduler"),
    Target("repro.scheduler.bubble:find_violations", "scheduler"),
    Target("repro.distsim.systems:stage_times", "distsim"),
    Target("repro.distsim.systems:to_pipeline_microbatch", "distsim"),
    Target("repro.distsim.pipeline:simulate_stream", "distsim"),
    Target(
        "repro.models.layer_costs:LayerCostModel.stage_time",
        "models",
        before=_stage_time,
    ),
    Target("repro.models.layer_costs:LayerCostModel.optimizer_step_time", "models"),
    # Not wrapped, to keep the overhead down: TenantProfile.from_job (a
    # cached getter called ~120 times per gateway job) and
    # CostEstimator.batch_seconds (called once per job_seconds call).
    *_methods(
        "repro.serve.costing",
        "CostEstimator",
        "microbatch_seconds roundtrip_seconds job_seconds placement_seconds "
        "job_seconds_batch placement_seconds_batch pack_fragmentation "
        "wave_seconds schedule_seconds",
        "costing",
    ),
    Target("repro.serve.costing:CalibrationTracker.observe", "costing"),
    Target("repro.serve.gateway:ServeGateway.submit", "gateway", after=_submit),
    Target("repro.serve.gateway:ServeGateway.drain", "gateway"),
    Target(
        "repro.serve.events:EventKernel.schedule",
        None,
        after=_count("events.scheduled"),
    ),
    Target(
        "repro.serve.events:EventKernel.post", None, after=_count("events.scheduled")
    ),
    Target("repro.serve.events:EventKernel.cancel", None, before=_cancel),
    Target("repro.serve.events:EventKernel.pop_until", None, after=_popped),
    Target("repro.serve.router:TenantRouter.route", "router"),
    Target("repro.serve.router:TenantRouter.reassign", "router"),
    Target(
        "repro.serve.router:CostAwareRouting.choose_arrays",
        None,
        after=_count("router.array_calls"),
    ),
    Target("repro.serve.ordering:policy_keys", "admission"),
    *[
        target
        for cls in (
            "FCFSOrdering",
            "SRPTOrdering",
            "PriorityOrdering",
            "DeadlineOrdering",
        )
        for target in _methods("repro.serve.ordering", cls, "key keys", "admission")
    ],
    *_methods(
        "repro.serve.admission",
        "SlotAdmission",
        "max_concurrent interleave_key",
        "admission",
    ),
    *_methods(
        "repro.serve.admission",
        "DeadlineFeasibilityAdmission",
        "max_concurrent interleave_key feasible feasible_arrival",
        "admission",
    ),
    *_methods(
        "repro.serve.orchestrator",
        "OnlineOrchestrator",
        "start offer step finish eject_job inject_job drain_for flush "
        "outstanding_batches expected_remaining_seconds expected_wave_seconds "
        "deadline_pressure live_mean_lengths live_profiles live_priorities "
        "migratable_jobs drainable_jobs",
        "orchestrator",
    ),
    *_methods(
        "repro.serve.executors",
        "StreamingSimExecutor",
        "add_job remove_job export_job import_job drain drain_job advance",
        "executors",
    ),
    Target(
        "repro.serve.executors:StreamingSimExecutor.submit",
        "executors",
        before=_executor_submit,
    ),
    *_methods(
        "repro.serve.splice", "StreamSplicer", "splice retire truncate", "splice"
    ),
    Target(
        "repro.serve.autoscaler:FleetAutoscaler.plan",
        "autoscaler",
        after=_count("autoscaler.plan_calls"),
    ),
    Target(
        "repro.serve.autoscaler:FleetAutoscaler.on_joined",
        "autoscaler",
        after=_count("autoscaler.joins"),
    ),
    *_methods(
        "repro.serve.autoscaler",
        "FleetAutoscaler",
        "on_retired pick_reclaim_victims",
        "autoscaler",
    ),
    *_methods(
        "repro.serve.replicaset", "ReplicaSet", "run open_session", "replicaset"
    ),
    *_methods(
        "repro.serve.replicaset", "FleetSession", "ingest advance finish", "replicaset"
    ),
)

#: Layers with spans, door first.
LAYERS = (
    "gateway",
    "replicaset",
    "router",
    "admission",
    "orchestrator",
    "scheduler",
    "splice",
    "executors",
    "autoscaler",
    "costing",
    "distsim",
    "models",
)

#: Per-layer metric -> (unit, end-to-end metric it should move, the
#: workload it should move on; it is predicted flat on the others).
PER_LAYER: dict[str, tuple[str, str, str]] = {
    "scheduler.self_frac": ("ratio", "us_per_item", "offline-milp"),
    "scheduler.milp_calls": ("count", "us_per_item", "offline-milp"),
    "scheduler.milp_frac": ("ratio", "us_per_item", "offline-milp"),
    "scheduler.milp_limit_hits": ("count", "us_per_item", "offline-milp"),
    "scheduler.milp_win_frac": ("ratio", "sim_tokens_per_s", "offline-milp"),
    "scheduler.microbatches": ("count", "sim_tokens_per_s", "offline-milp"),
    "distsim.self_frac": ("ratio", "none: simulation, not tuning", "offline-milp"),
    "models.self_frac": ("ratio", "us_per_item", "gateway-elastic"),
    "models.stage_time_calls": ("count", "us_per_item", "gateway-elastic"),
    "models.stage_time_repeat_frac": ("ratio", "us_per_item", "gateway-elastic"),
    "costing.self_frac": ("ratio", "us_per_item", "gateway-elastic, fleet-512"),
    "costing.calls": ("count", "us_per_item", "gateway-elastic, fleet-512"),
    "gateway.self_frac": ("ratio", "us_per_item, admit_p99_us", "gateway-elastic"),
    "gateway.submit_calls": ("count", "us_per_item, admit_p50_us", "gateway-elastic"),
    "gateway.sheds": ("count", "goodput_frac", "gateway-elastic"),
    "events.scheduled": ("count", "us_per_item", "fleet-512"),
    "events.popped": ("count", "us_per_item", "fleet-512"),
    "events.cancelled_frac": ("ratio", "us_per_item", "fleet-512"),
    "router.self_frac": ("ratio", "us_per_item", "fleet-512"),
    "router.calls": ("count", "us_per_item", "fleet-512"),
    "admission.self_frac": ("ratio", "us_per_item, goodput_frac", "gateway-elastic"),
    "admission.calls": ("count", "us_per_item, goodput_frac", "gateway-elastic"),
    "orchestrator.self_frac": ("ratio", "us_per_item", "fleet-512, gateway-elastic"),
    "orchestrator.replans": ("count", "us_per_item", "fleet-512, gateway-elastic"),
    "executors.self_frac": ("ratio", "us_per_item", "fleet-512"),
    "executors.microbatches": ("count", "us_per_item", "fleet-512"),
    "executors.noop_frac": ("ratio", "us_per_item", "fleet-512"),
    "splice.self_frac": ("ratio", "us_per_item", "fleet-512"),
    "autoscaler.self_frac": ("ratio", "us_per_item", "gateway-elastic"),
    "autoscaler.plan_calls": ("count", "us_per_item", "gateway-elastic"),
    "autoscaler.joins": ("count", "dollars_per_job", "gateway-elastic"),
    "replicaset.self_frac": ("ratio", "us_per_item", "fleet-512"),
    "other.self_frac": ("ratio", "none: wall no layer accounts for", "all"),
    "trace.wall_s": ("s", "none: traced wall of the phase", "all"),
    "trace.overhead_frac": ("ratio", "none: traced / untraced wall - 1", "all"),
}


class Tracer:
    """Spans and counts of one traced repeat, plus the installed wrappers."""

    def __init__(self) -> None:
        self.active = False
        self.missing: list[str] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        """Forget every span and count (the wrappers stay installed)."""
        self._stack: list[list] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.entries: Counter[str] = Counter()
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.seen: set = set()

    def current_layer(self) -> str | None:
        """The layer of the innermost open span."""
        return self._stack[-1][0] if self._stack else None

    # -- spans ---------------------------------------------------------------

    def _enter(self, layer: str) -> list:
        if not self._stack or self._stack[-1][0] != layer:
            self.entries[layer] += 1
        frame = [layer, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        elapsed = time.perf_counter() - frame[2]
        self._stack.pop()
        self.self_s[frame[0]] += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed
        return elapsed

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer, layer = self, target.layer
        before, after = target.before, target.after
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_span(*args, **kwargs):
                if not tracer.active:
                    return await fn(*args, **kwargs)
                frame = tracer._enter(layer)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    elapsed = tracer._exit(frame)
                if after is not None:
                    after(tracer, args, kwargs, result, elapsed)
                return result

            return async_span
        if layer is None:

            @functools.wraps(fn)
            def count(*args, **kwargs):
                if tracer.active and before is not None:
                    before(tracer, args, kwargs, None, 0.0)
                result = fn(*args, **kwargs)
                if tracer.active and after is not None:
                    after(tracer, args, kwargs, result, 0.0)
                return result

            return count

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs, None, 0.0)
            frame = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer._exit(frame)
            if after is not None:
                after(tracer, args, kwargs, result, elapsed)
            return result

        return span

    # -- installation --------------------------------------------------------

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        """Patch every target's wrapper in (see the module docstring)."""
        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")
        self.missing = []
        for target in targets:
            module_name, _, qualname = target.path.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                self._patch_method(getattr(module, owner_name, None), attr, target)
            else:
                self._patch_function(getattr(module, attr, None), target)

    def _patch_method(self, cls: type | None, name: str, target: Target) -> None:
        owner = next(
            (klass for klass in getattr(cls, "__mro__", ()) if name in vars(klass)),
            None,
        )
        raw = vars(owner)[name] if owner is not None else None
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(self._wrap(raw.__func__, target))
        elif inspect.isfunction(raw):
            wrapped = self._wrap(raw, target)
        else:
            self.missing.append(target.path)
            return
        setattr(owner, name, wrapped)
        self._patches.append((owner, name, raw))

    def _patch_function(self, fn: Callable | None, target: Target) -> None:
        if not inspect.isfunction(fn):
            self.missing.append(target.path)
            return
        wrapped = self._wrap(fn, target)
        # Modules that imported the function by name call it through
        # their own binding, so every binding is patched.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, name, wrapped)
                    self._patches.append((module, name, fn))

    def uninstall(self) -> None:
        """Restore every patched attribute to its original."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced repeat whose phase took ``wall``.

    ``trace.overhead_frac`` needs the untraced wall, so the caller adds it.
    """
    counts, entries = tracer.counts, tracer.entries
    metrics = {f"{layer}.self_frac": tracer.self_s[layer] / wall for layer in LAYERS}
    metrics["other.self_frac"] = (wall - sum(tracer.self_s.values())) / wall

    def share(part: str, whole: str) -> float:
        return counts[part] / counts[whole] if counts[whole] else 0.0

    metrics.update(
        {
            "scheduler.milp_calls": counts["scheduler.milp_calls"],
            "scheduler.milp_frac": counts["scheduler.milp_s"] / wall,
            "scheduler.milp_limit_hits": counts["scheduler.milp_limit_hits"],
            "scheduler.milp_win_frac": share(
                "scheduler.milp_wins", "scheduler.milp_calls"
            ),
            "scheduler.microbatches": counts["scheduler.microbatches"],
            "models.stage_time_calls": counts["models.stage_time_calls"],
            "models.stage_time_repeat_frac": share(
                "models.stage_time_repeats", "models.stage_time_calls"
            ),
            "costing.calls": float(entries["costing"]),
            "gateway.submit_calls": counts["gateway.submit_calls"],
            "gateway.sheds": counts["gateway.sheds"],
            "events.scheduled": counts["events.scheduled"],
            "events.popped": counts["events.popped"],
            "events.cancelled_frac": share("events.cancelled", "events.scheduled"),
            "router.calls": float(entries["router"]),
            "admission.calls": float(entries["admission"]),
            "orchestrator.replans": counts["orchestrator.replans"],
            "executors.microbatches": counts["executors.microbatches"],
            "executors.noop_frac": share(
                "executors.noops", "executors.microbatches"
            ),
            "autoscaler.plan_calls": counts["autoscaler.plan_calls"],
            "autoscaler.joins": counts["autoscaler.joins"],
            "trace.wall_s": wall,
        }
    )
    return metrics
