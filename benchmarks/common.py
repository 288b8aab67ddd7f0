"""Shared helpers for the figure-reproduction and serving benchmarks.

Every ``bench_fig*.py`` regenerates one figure of the paper's evaluation:
it computes the figure's series with this repository's models/simulators,
prints a paper-vs-measured table, writes it under ``benchmarks/results/``,
and wraps the core computation in pytest-benchmark for timing.

The serving benches build their results as rows (``{scenario: {column:
value}}``, full precision), commit them as ``<name>.json`` next to the
``<name>.txt`` table rendered from the same rows
(:func:`write_results`), and state their claims once, as a
``check(rows) -> list[str]`` run both on a fresh sweep and on the
committed JSON (``scripts/check_bench_results.py``), at full precision
and as the table shows them (:func:`at_both_precisions`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.data import synthetic_dataset
from repro.distsim import ClusterSpec
from repro.gpu import H100
from repro.scheduler import AdapterJob
from repro.serve import JobOutcome

RESULTS_DIR = Path(__file__).parent / "results"

#: Standard 4-adapter workloads of Section 6.1.
DATASET_SETTINGS = {
    "XSUM": ["xsum"] * 4,
    "CNNDM": ["cnn_dailymail"] * 4,
    "WikiSum": ["wikisum"] * 4,
    "Mixed": ["mixed"] * 4,
    "Het": ["xsum", "cnn_dailymail", "wikisum", "mixed"],
}


def make_jobs(datasets, samples=16, gbs=8, seed=11):
    """Four fine-tuning jobs with the given per-adapter datasets."""
    return [
        AdapterJob(a, synthetic_dataset(a, name, samples, seed=seed), gbs)
        for a, name in enumerate(datasets)
    ]


def h100_cluster(num_gpus):
    """An H100 cluster of the given size."""
    return ClusterSpec(gpu=H100, num_gpus=num_gpus)


def write_table(name: str, lines: list[str]) -> None:
    """Print a results table and persist it under benchmarks/results/."""
    text = "\n".join(lines)
    print("\n" + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def fmt_row(cells, widths):
    """Fixed-width table row."""
    return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))


def render_results(title, columns, rows):
    """The text lines of a results table rendered from ``rows``.

    ``columns`` are ``(header, width, spec)`` triples, the first one the
    scenario name; each header is also the row key its cells come from.
    A cell renders as ``format(value, spec)``, ``str(value)`` when
    ``spec`` is ``None``, and ``-`` when the value is ``None``.  Row keys
    no column names are JSON-only: values a claim reads but the table
    does not show.
    """
    widths = [width for _, width, _ in columns]
    lines = [title, fmt_row([header for header, _, _ in columns], widths)]
    for scenario, row in rows.items():
        cells = [scenario] + [
            "-" if row[header] is None
            else str(row[header]) if spec is None
            else format(row[header], spec)
            for header, _, spec in columns[1:]
        ]
        lines.append(fmt_row(cells, widths))
    return lines


def write_results(name, lines, rows):
    """Commit ``rows`` as ``<name>.json`` and table ``lines`` as ``.txt``."""
    write_table(name, lines)
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(rows, indent=2, default=lambda value: value.item()) + "\n"
    )


def shown(rows, columns):
    """``rows`` as their table shows them: each formatted cell read back.

    Cells a ``columns`` spec formats become the number they print as
    (``.1%`` cells back as fractions); every other value is unchanged.
    """
    specs = {header: spec for header, _, spec in columns[1:] if spec}

    def read_back(value, spec):
        text = format(value, spec)
        return float(text[:-1]) / 100 if text.endswith("%") else float(text)

    return {
        scenario: {
            key: value if key not in specs or value is None
            else read_back(value, specs[key])
            for key, value in row.items()
        }
        for scenario, row in rows.items()
    }


def at_both_precisions(claims, rows, columns):
    """Every problem ``claims(rows)`` finds, also as the table shows ``rows``.

    A strict win below the table's digits prints as a tie, so a claim
    must hold on the full-precision rows and on their rounded cells
    (:func:`shown`); problems found on the rounded cells say so.
    """
    return claims(rows) + [
        f"{problem} (at table precision)"
        for problem in claims(shown(rows, columns))
    ]


def load_rows(name):
    """The committed rows of ``benchmarks/results/<name>.json``."""
    return json.loads((RESULTS_DIR / f"{name}.json").read_text())


def require(problems):
    """Fail with every broken claim a ``check`` returned; no-op if none."""
    if problems:
        raise AssertionError("\n".join(problems))


def unfinished(result):
    """Jobs a run neither finished nor shed at the door (claims want 0)."""
    return sum(
        1
        for record in result.records.values()
        if record.finish_time is None
        and record.outcome is not JobOutcome.REJECTED
    )
