"""Artifact rendering: the Pareto front as committed, diffable JSON.

The tuning benchmark commits its front to
``benchmarks/results/autotune_front.json`` and the CI gate re-derives
it on a second seed run, so the rendering must be *bit-identical*
across runs and platforms: keys are sorted, floats are rounded to a
fixed precision before serialization (so accumulated float noise below
the reported precision cannot flip a digit), non-finite values are
mapped to ``None`` (JSON has no ``Infinity``), and the text ends in
exactly one newline.  :func:`front_to_json` is the only writer; the
tuning benchmark's ``check`` is the reader, run at bench time and on
the committed artifact (configs round-trip through
:meth:`~repro.serve.config.ServeConfig.from_dict` unchanged, front
points are mutually non-dominated).
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.tune.pareto import ObjectivePoint
from repro.tune.runner import TuneReport

__all__ = ["front_to_json", "point_as_dict"]

#: Decimal places every float in the artifact is rounded to before
#: serialization -- coarse enough to absorb sub-precision float noise,
#: fine enough that virtual-seconds metrics stay meaningfully distinct.
ARTIFACT_PRECISION = 6


def _finite(value: float) -> float | None:
    """JSON-safe float: rounded, with non-finite mapped to ``None``."""
    if not math.isfinite(value):
        return None
    return round(value, ARTIFACT_PRECISION)


def point_as_dict(point: ObjectivePoint) -> dict[str, Any]:
    """One objective point as a JSON-ready mapping.

    ``mean_jct`` is ``None`` when the run finished nothing (the
    in-memory point carries ``inf``, which JSON cannot); readers treat
    ``None`` as worst-possible on the axis.
    """
    return {
        "mean_jct": _finite(point.mean_jct),
        "goodput": point.goodput,
        "dollars": _finite(point.dollars),
        "gpu_seconds": _finite(point.gpu_seconds),
    }


def front_to_json(report: TuneReport) -> str:
    """Render a :class:`~repro.tune.runner.TuneReport` as artifact text.

    The document carries the search accounting (raw candidates,
    equivalence collapses, simulations) next to the front
    itself -- each front entry is the config's compact label, its full
    :meth:`~repro.serve.config.ServeConfig.to_dict` bundle (so the
    exact winning config can be rebuilt from the artifact alone), and
    its objective point.  Entries keep the report's cheapest-first
    order.  Deterministic: equal reports render byte-identical text.
    """
    document = {
        "objectives": {
            "minimize": ["mean_jct", "dollars"],
            "maximize": ["goodput"],
        },
        "search": {
            "candidates": report.candidates,
            "collapsed": report.collapsed,
            "simulated": report.simulated,
        },
        "front": [
            {
                "label": trial.config.label(),
                "config": trial.config.to_dict(),
                "point": point_as_dict(trial.point),
            }
            for trial in report.front
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
