"""Offline autotuning over the serve config space: Pareto-front capacity planning.

The serve layer (:mod:`repro.serve`) exposes a cross-product of knobs
-- router x ordering x admission gate x planning window x rebalancer x
fleet size / autoscaler budget -- and choosing a combination per
workload is guesswork.  This package closes that loop offline: describe
the candidate space declaratively, collapse candidates that provably
replay identically (no simulation), replay a trace through the
event-driven :class:`~repro.serve.replicaset.ReplicaSet` kernel for
each representative, and keep the Pareto front over (mean JCT, deadline
goodput, dollars).  The front doubles as a capacity planner:
:func:`recommend` picks the cheapest front entry that meets an SLO
target.  The full reference -- search-space table, collapse rules,
artifact format, planning walkthrough -- is ``docs/tuning.md``.

Exported API, by concern (one line each; the docstrings carry the
contracts):

**Search space** (``docs/tuning.md`` section "The search space")
  * :class:`SearchSpace` -- per-axis value tuples whose cross-product
    is the candidate set, enumerated deterministically as
    :class:`~repro.serve.config.ServeConfig` bundles.
  * :func:`default_space` -- the stock space the manual documents axis
    by axis.
  * :func:`single_policy_defaults` -- one-knob baseline configs the
    tuning benchmark gates the tuned pick against.
  * :data:`NON_SEARCH_FIELDS` -- the config fields the space
    deliberately never sweeps (the live gateway's door limits; trace
    replay never meets the door).

**Collapse** (``docs/tuning.md`` section "Equivalence collapse")
  * :func:`canonical` -- collapse behaviorally equivalent candidates to
    one representative (exact identities, not approximations).

**Tuning & recommendation** (``docs/tuning.md`` section "Running the tuner")
  * :func:`tune` -- collapse, then simulate every representative;
    returns the measured Pareto front.
  * :func:`evaluate` -- replay one config on a trace, reduced to an
    objective point.
  * :class:`Trial` / :class:`TuneReport` -- one simulated candidate;
    the full run accounting plus the front.
  * :class:`SLOTarget` -- optional ceilings/floors per objective axis.
  * :func:`recommend` / :class:`Recommendation` -- capacity planning:
    the cheapest SLO-meeting front entry, or the least-violating one
    flagged infeasible.

**Objectives & artifacts** (``docs/tuning.md`` section "The artifact")
  * :class:`ObjectivePoint` -- one run on the three objective axes
    (plus GPU-seconds for readability).
  * :func:`dominates` / :func:`pareto_front` -- Pareto dominance and
    the non-dominated subset.
  * :func:`front_to_json` / :func:`point_as_dict` -- the committed,
    bit-identical JSON artifact rendering.
"""

from repro.tune.pareto import ObjectivePoint, dominates, pareto_front
from repro.tune.pruner import canonical
from repro.tune.report import front_to_json, point_as_dict
from repro.tune.runner import (
    Recommendation,
    SLOTarget,
    Trial,
    TuneReport,
    evaluate,
    recommend,
    tune,
)
from repro.tune.space import (
    NON_SEARCH_FIELDS,
    SearchSpace,
    default_space,
    single_policy_defaults,
)

__all__ = [
    "NON_SEARCH_FIELDS",
    "ObjectivePoint",
    "Recommendation",
    "SLOTarget",
    "SearchSpace",
    "Trial",
    "TuneReport",
    "canonical",
    "default_space",
    "dominates",
    "evaluate",
    "front_to_json",
    "pareto_front",
    "point_as_dict",
    "recommend",
    "single_policy_defaults",
    "tune",
]
