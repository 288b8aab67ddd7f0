"""The pair-run claim and no-regression rules of ``scripts/pair_bench.py``."""

import pytest

from scripts.pair_bench import (
    Spread,
    code_lines,
    figure_lines,
    figures,
    gain_ratio,
    regression,
    verdict,
    wins_and_ties,
)

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]


def test_spread_is_median_and_quartiles():
    spread = Spread.of([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (spread.q1, spread.median, spread.q3) == (2.0, 3.0, 4.0)
    assert spread.iqr == 2.0
    assert Spread.of([7.0]) == Spread(7.0, 7.0, 7.0)


def test_clear_gain_holds_in_either_direction():
    faster = [value - 20.0 for value in PARENT]
    result = verdict(PARENT, faster, "lower")
    assert (result.wins, result.ties, result.pairs) == (10, 0, 10)
    assert result.holds
    higher = verdict(PARENT, [value + 20.0 for value in PARENT], "higher")
    assert higher.holds
    # The same runs read in the wrong direction are ten losses.
    assert verdict(PARENT, faster, "higher").wins == 0


def test_nine_of_ten_is_enough_and_eight_is_not():
    change = [value - 20.0 for value in PARENT]
    change[0] = PARENT[0] + 1.0  # one loss
    assert verdict(PARENT, change, "lower").holds
    change[1] = PARENT[1] + 1.0  # two losses
    result = verdict(PARENT, change, "lower")
    assert result.wins == 8
    assert not result.holds


def test_ties_count_for_neither_side():
    change = [value - 20.0 for value in PARENT]
    change[0] = PARENT[0]
    assert wins_and_ties(PARENT, change, "lower") == (9, 1)
    change[1] = PARENT[1]
    result = verdict(PARENT, change, "lower")
    assert (result.wins, result.ties) == (8, 2)
    assert not result.holds


def test_median_gap_must_exceed_the_parent_iqr():
    # Every pair is a win, but by less than the parent's own spread.
    parent_iqr = Spread.of(PARENT).iqr
    assert parent_iqr == pytest.approx(2.0)
    result = verdict(PARENT, [value - 1.0 for value in PARENT], "lower")
    assert result.wins == 10
    assert not result.holds
    # A gap equal to the IQR is not "more than" it.
    assert not verdict(PARENT, [v - parent_iqr for v in PARENT], "lower").holds


def test_fewer_than_ten_pairs_never_claim():
    result = verdict(PARENT[:9], [value - 50.0 for value in PARENT[:9]], "lower")
    assert result.wins == 9
    assert not result.holds


def test_unequal_runs_and_unknown_direction_raise():
    with pytest.raises(ValueError):
        wins_and_ties([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        wins_and_ties([1.0], [1.0], "sideways")


def test_gain_ratio_reads_in_the_better_direction():
    base, change = Spread.of([119.0]), Spread.of([100.0])
    assert gain_ratio(base, change, "lower") == pytest.approx(1.19)
    assert gain_ratio(change, base, "higher") == pytest.approx(1.19)
    assert gain_ratio(base, change, "higher") < 1.0


def test_regression_ok_within_the_bound():
    # PARENT's IQR/median is 0.02: a 10% bound resolves it.
    assert regression(PARENT, [v + 5.0 for v in PARENT], "lower", 0.1) == "ok"
    assert regression(PARENT, [v - 5.0 for v in PARENT], "higher", 0.1) == "ok"
    # Worse by exactly the bound is still within it.
    assert regression(PARENT, [v + 10.0 for v in PARENT], "lower", 0.1) == "ok"
    # Better is never a regression.
    assert regression(PARENT, [v - 30.0 for v in PARENT], "lower", 0.1) == "ok"


def test_regression_flags_worse_by_more_than_the_bound():
    assert (
        regression(PARENT, [v + 11.0 for v in PARENT], "lower", 0.1) == "REGRESSED"
    )
    assert (
        regression(PARENT, [v - 11.0 for v in PARENT], "higher", 0.1) == "REGRESSED"
    )


def test_regression_unresolved_when_the_parent_spreads_wider_than_the_bound():
    # IQR/median 0.02 exceeds a 1% bound: the runs cannot tell.
    assert regression(PARENT, PARENT, "lower", 0.01) == "unresolved"
    assert regression(PARENT, [v + 50.0 for v in PARENT], "lower", 0.01) == (
        "unresolved"
    )
    # Unless every change run reads better than every parent run.
    assert regression(PARENT, [v - 10.0 for v in PARENT], "lower", 0.01) == "ok"
    assert regression(PARENT, [v + 10.0 for v in PARENT], "higher", 0.01) == "ok"


def test_code_lines_are_reported_for_both_sides(tmp_path):
    sources = {
        "base": {"src/a.py": "x = 1\n", "src/repro/serve/b.py": "y = 2\nz = 3\n"},
        "change": {
            "src/a.py": '"""Docstring."""\n\n# comment\nx = 1\n',
            "src/repro/serve/b.py": "y = 2\n",
        },
    }
    for side, files in sources.items():
        for name, text in files.items():
            path = tmp_path / side / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    src, serve = code_lines(tmp_path / "base", tmp_path / "change")
    assert src.split() == "src code lines base 3 change 2 (-1)".split()
    assert serve.split() == "src/repro/serve code lines base 2 change 1 (-1)".split()


#: The tail of a gateway perfbench report, as ``perfbench/run.py`` prints it.
REPORT = """\
workload figures:
  us_per_job                   245.113 us     n=12 repeats
  admit_p50_us                 42.5113 us     n=18000 submits
  admit_p99_us                 461.027 us     n=18000 submits
{"correct": true}
"""


def test_figures_are_parsed_from_the_report():
    assert figures(REPORT) == {"admit_p50_us": 42.5113, "admit_p99_us": 461.027}
    assert figures("workload figures:\n  us_per_job 10 us n=3 repeats\n") == {}


def test_figure_lines_print_both_sides_spread_without_a_verdict():
    base = [{"admit_p50_us": v, "admit_p99_us": 10 * v} for v in (1.0, 2.0, 3.0)]
    change = [{"admit_p50_us": v, "admit_p99_us": 10 * v} for v in (4.0, 5.0, 6.0)]
    p50, p99 = figure_lines(base, change)
    assert p50.split() == (
        "admit_p50_us base 2 [1.5, 2.5] change 5 [4.5, 5.5] (figure, no verdict)"
    ).split()
    assert p99.split()[:2] == ["admit_p99_us", "base"]
    # A workload without a door prints no figure, so no line either.
    assert figure_lines([{}], [{}]) == []
