"""Tests for the exact two-stage search, checked against the HiGHS oracle.

The reference below is Algorithm 1 as the paper states it: greedy
first-fit-decreasing, then both MILP stages solved to optimality by HiGHS
(:mod:`tests.scheduler.milp_reference`), then the selection rule.  The
search must reach the oracle's objectives -- bin count, then smallest
bin -- on every instance; its layout may differ where optimal packings
tie.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import Sample
from repro.scheduler import greedy_pack, milp_pack, pack_global_batch
from repro.scheduler import milp as milp_module
from repro.scheduler.milp import bin_count_lower_bound, stage2_floor
from repro.scheduler import scheduler as scheduler_module
from tests.scheduler.het import GENERATOR_SEEDS, captured_calls
from tests.scheduler.milp_reference import two_stage
from tests.scheduler.search_reference import reference_search


def objectives(bins):
    return len(bins), min(mb.padded_tokens for mb in bins)


def reference_pack(samples, capacity, p):
    """Algorithm 1 with the oracle: ``(bins, method)``."""
    greedy = greedy_pack(samples, capacity, p)
    if len(greedy) <= 1:
        return greedy, "greedy"
    bins = two_stage(samples, capacity, p, len(greedy)).microbatches
    if bins is None or objectives(bins) >= objectives(greedy):
        return greedy, "greedy"
    return bins, "milp"


def mixed_entries(spec):
    """spec: list of (adapter_id, length)."""
    counters = {}
    out = []
    for adapter_id, length in spec:
        index = counters.get(adapter_id, 0)
        counters[adapter_id] = index + 1
        out.append((Sample(adapter_id, index, length), 0))
    return out


@st.composite
def instances(draw):
    """2-3 adapters, 4-10 samples, capacity 2048-8192, P 64 or 128."""
    p = draw(st.sampled_from([64, 128]))
    capacity = draw(st.integers(2048 // p, 8192 // p)) * p
    num_adapters = draw(st.integers(2, 3))
    spec = draw(
        st.lists(
            st.tuples(st.integers(0, num_adapters - 1), st.integers(1, capacity)),
            min_size=4,
            max_size=10,
        )
    )
    return mixed_entries(spec), capacity, p


def floor_of(samples, capacity, p, num_bins):
    """:func:`stage2_floor` of ``samples`` packed into ``num_bins`` bins."""
    totals = {}
    for sample, _ in samples:
        totals[sample.adapter_id] = totals.get(sample.adapter_id, 0) + sample.length
    volume = sum(-(-tokens // p) * p for tokens in totals.values())
    shortest = -(-min(sample.length for sample, _ in samples) // p) * p
    return stage2_floor(
        num_bins, capacity, bin_count_lower_bound(samples, capacity, p),
        volume, shortest,
    )


def search(samples, capacity, p):
    greedy = greedy_pack(samples, capacity, p)
    return milp_pack(samples, capacity, p, [mb.padded_tokens for mb in greedy])


class TestAgainstOracle:
    @given(instances())
    @settings(max_examples=40, deadline=None)
    def test_search_reaches_the_oracle_objectives(self, instance):
        samples, capacity, p = instance
        greedy = greedy_pack(samples, capacity, p)
        if len(greedy) <= 1:
            return
        result = search(samples, capacity, p)
        oracle = two_stage(samples, capacity, p, len(greedy))
        assert result.stage1_optimal and result.stage2_optimal
        assert (result.num_bins, result.min_bin_tokens) == (
            oracle.num_bins,
            oracle.min_bin_tokens,
        )
        assert oracle.min_bin_tokens >= floor_of(samples, capacity, p,
                                                 oracle.num_bins)


class TestBinCountLowerBound:
    @given(instances())
    @settings(max_examples=30, deadline=None)
    def test_no_returned_packing_beats_the_bound(self, instance):
        samples, capacity, p = instance
        bound = bin_count_lower_bound(samples, capacity, p)
        greedy = greedy_pack(samples, capacity, p)
        assert bound <= len(greedy)
        result = milp_pack(samples, capacity, p, [mb.padded_tokens for mb in greedy])
        assert bound <= result.num_bins
        if result.microbatches is not None:
            assert bound <= len(result.microbatches)

    def test_volume_bound_counts_padding_per_adapter(self):
        # Two adapters of 65 tokens each pad to 128 apiece: 256 > 192.
        samples = mixed_entries([(0, 65), (1, 65)])
        assert bin_count_lower_bound(samples, 192, 64) == 2

    def test_halves_are_counted_by_length(self):
        # Padded past half (128 > 96) yet one adapter's 130 tokens pad to
        # 192 and fit together, so they do not force a bin each.
        samples = mixed_entries([(0, 65), (0, 65)])
        assert bin_count_lower_bound(samples, 192, 64) == 1
        assert len(greedy_pack(samples, 192, 64)) == 1
        samples = mixed_entries([(0, 97), (1, 97), (0, 97)])
        assert bin_count_lower_bound(samples, 192, 64) == 3


class TestNoWinSearch:
    @given(instances())
    @settings(max_examples=30, deadline=None)
    def test_a_declined_solve_would_have_been_discarded(self, instance):
        samples, capacity, p = instance
        if search(samples, capacity, p).microbatches is not None:
            return
        assert reference_pack(samples, capacity, p)[1] == "greedy"

    @given(instances())
    @settings(max_examples=30, deadline=None)
    def test_pack_global_batch_matches_the_reference(self, instance):
        samples, capacity, p = instance
        bins, method = pack_global_batch(samples, capacity, p, use_milp=True)
        want_bins, want_method = reference_pack(samples, capacity, p)
        assert method == want_method
        assert objectives(bins) == objectives(want_bins)

    def test_fewer_bins_are_a_win(self):
        # FFD needs 3 bins where 2 suffice: the search finds the packing
        # with an empty third bin and searches again at two.
        samples = mixed_entries([(0, l * 64) for l in (7, 6, 5, 4, 3, 3)])
        result = search(samples, 14 * 64, 64)
        assert result.num_bins == 2 and len(result.microbatches) == 2
        assert result.stage1_optimal and result.stage2_optimal

    def test_fewer_bins_are_searched_again(self):
        # The first packing with an empty bin has 3 bins but a full third
        # one; searching again at 3 bins lowers the smallest to 448.
        samples = mixed_entries(
            [(0, 200), (0, 162), (1, 354), (0, 256), (0, 64), (0, 162),
             (1, 121), (1, 81)]
        )
        greedy = greedy_pack(samples, 512, 64)
        assert objectives(greedy) == (4, 64)
        result = milp_pack(samples, 512, 64, [mb.padded_tokens for mb in greedy])
        assert objectives(result.microbatches) == (3, 448)

    def test_bins_are_told_apart_by_contents_not_load(self):
        # Bins with equal padded loads can hold different raw tokens, so
        # leave different slack: the search must try each of them.
        samples = mixed_entries(
            [(0, 192), (0, 384), (0, 98), (0, 162), (0, 384), (0, 98), (0, 290)]
        )
        result = search(samples, 384, 64)
        assert objectives(result.microbatches) == (5, 192)

    def test_uniform_items_prove_without_a_solve(self):
        # Greedy is already optimal: the search proves it and keeps it.
        samples = mixed_entries([(0, 512)] * 4)
        result = search(samples, 1024, 64)
        assert result.microbatches is None
        assert (result.num_bins, result.min_bin_tokens) == (2, 1024)
        assert result.stage2_optimal and result.nodes <= 4
        bins, method = pack_global_batch(samples, 1024, 64, use_milp=True)
        assert (len(bins), method) == (2, "greedy")

    def test_exhausted_budget_keeps_the_best_incumbent(self, monkeypatch):
        # One of the TestMILPPath packing tasks: proving its optimum
        # (3,648) takes ~32k placements, so 1,000 stop the search early.
        samples = mixed_entries(
            [(1, n) for n in (1004, 1315, 879, 891, 1018, 896, 594, 937)]
            + [(3, n) for n in (1453, 360, 1715, 524, 3907, 906, 2637, 752)]
        )
        capacity, p = 4096, 64
        greedy = greedy_pack(samples, capacity, p)
        monkeypatch.setattr(milp_module, "SEARCH_NODE_BUDGET", 1000)
        loads = [mb.padded_tokens for mb in greedy]
        first = milp_pack(samples, capacity, p, loads)
        second = milp_pack(samples, capacity, p, loads)
        assert not first.stage2_optimal and first.nodes == 1000
        bins = first.microbatches
        assert all(mb.padded_tokens <= capacity for mb in bins)
        placed = sorted(
            (a.adapter_id, a.sample.index) for mb in bins for a in mb.assignments
        )
        assert placed == sorted((s.adapter_id, s.index) for s, _ in samples)
        assert objectives(bins) <= objectives(greedy)
        assert objectives(bins) == (first.num_bins, first.min_bin_tokens)
        assert repr(first) == repr(second)


class TestStageOneSkip:
    def test_stage_two_alone_when_the_bound_is_met(self, monkeypatch):
        # Greedy's two bins meet the lower bound, so stage 1 is proven
        # even when the search stops before proving stage 2.
        samples = mixed_entries([(0, l * 64) for l in (5, 5, 2)])
        greedy = greedy_pack(samples, 8 * 64, 64)
        assert bin_count_lower_bound(samples, 8 * 64, 64) == len(greedy) == 2
        monkeypatch.setattr(milp_module, "SEARCH_NODE_BUDGET", 1)
        result = milp_pack(samples, 8 * 64, 64, [mb.padded_tokens for mb in greedy])
        assert result.num_bins == 2 and result.stage1_optimal
        assert not result.stage2_optimal

    def test_exhausted_budget_leaves_stage_one_open(self, monkeypatch):
        # Greedy's three bins exceed the bound of two, and one placement
        # cannot show whether two suffice.
        samples = mixed_entries([(0, l * 64) for l in (7, 6, 5, 4, 3, 3)])
        greedy = greedy_pack(samples, 14 * 64, 64)
        assert bin_count_lower_bound(samples, 14 * 64, 64) < len(greedy)
        monkeypatch.setattr(milp_module, "SEARCH_NODE_BUDGET", 1)
        result = milp_pack(samples, 14 * 64, 64, [mb.padded_tokens for mb in greedy])
        assert result.microbatches is None and result.num_bins == 3
        assert not result.stage1_optimal and not result.stage2_optimal

    def test_no_stage_two_incumbent_means_greedy(self):
        # The only 2-bin packings are greedy's own split: nothing beats it.
        samples = mixed_entries([(0, 8 * 64), (0, 5 * 64), (1, 3 * 64)])
        greedy = greedy_pack(samples, 8 * 64, 64)
        result = milp_pack(samples, 8 * 64, 64, [mb.padded_tokens for mb in greedy])
        assert result.microbatches is None and result.stage2_optimal
        assert (result.num_bins, result.min_bin_tokens) == objectives(greedy)


def without_floor(samples, capacity, p, loads):
    """``milp_pack`` with the stage-2 floor forced to 0."""
    with mock.patch.object(milp_module, "stage2_floor", lambda *args: 0):
        return milp_pack(samples, capacity, p, loads)


def same_answer(with_floor, without):
    """The packing and every flag agree; the floor only saves nodes."""
    assert with_floor.microbatches == without.microbatches
    assert (
        with_floor.num_bins,
        with_floor.min_bin_tokens,
        with_floor.stage1_optimal,
        with_floor.stage2_optimal,
    ) == (
        without.num_bins,
        without.min_bin_tokens,
        without.stage1_optimal,
        without.stage2_optimal,
    )
    assert with_floor.nodes <= without.nodes


class TestStageTwoFloor:
    def test_zero_while_a_bin_may_be_empty(self):
        # Three bins above the bound of two, volume fits in two bins.
        assert stage2_floor(3, 512, 2, 768, 128) == 0

    def test_at_the_bound_every_bin_holds_a_sample(self):
        # Two bins at the bound, volume 768 leaves at least 256 in each.
        assert stage2_floor(2, 512, 2, 768, 128) == 256
        assert stage2_floor(2, 512, 2, 768, 320) == 320

    def test_volume_past_one_bin_fewer_proves_a_floor(self):
        # Above the halves bound of two but 1,100 tokens need all three.
        assert stage2_floor(3, 512, 2, 1100, 64) == 1100 - 1024

    def test_an_incumbent_at_the_floor_is_not_searched(self):
        samples = mixed_entries([(0, 512)] * 4)
        result = search(samples, 1024, 64)
        assert result.nodes == 0 and result.microbatches is None
        assert result.stage1_optimal and result.stage2_optimal

    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_floor_changes_no_answer(self, instance):
        samples, capacity, p = instance
        loads = [mb.padded_tokens for mb in greedy_pack(samples, capacity, p)]
        same_answer(
            milp_pack(samples, capacity, p, loads),
            without_floor(samples, capacity, p, loads),
        )

    def test_floor_changes_no_answer_on_offline_milp_tasks(self):
        calls = 0
        for seed in GENERATOR_SEEDS:
            for args in captured_calls(scheduler_module, "milp_pack", seed, 4):
                same_answer(milp_pack(*args), without_floor(*args))
                calls += 1
        assert calls > 400


class TestNodesByStage:
    def test_no_fewer_bins_means_all_nodes_are_stage_two(self):
        samples = mixed_entries(
            [(0, 192), (0, 384), (0, 98), (0, 162), (0, 384), (0, 98), (0, 290)]
        )
        result = search(samples, 384, 64)
        assert result.num_bins == len(greedy_pack(samples, 384, 64))
        assert result.stage2_nodes == result.nodes > 0

    def test_fewer_bins_split_the_count(self):
        # Stage 1 empties greedy's fourth bin; stage 2 then lowers the
        # smallest of three to 448.
        samples = mixed_entries(
            [(0, 200), (0, 162), (1, 354), (0, 256), (0, 64), (0, 162),
             (1, 121), (1, 81)]
        )
        result = search(samples, 512, 64)
        assert result.num_bins == 3
        assert 0 < result.stage2_nodes < result.nodes

    def test_a_stage_one_win_at_the_floor_needs_no_stage_two(self):
        # Two full bins: the floor at two bins is the capacity.
        samples = mixed_entries([(0, l * 64) for l in (7, 6, 5, 4, 3, 3)])
        result = search(samples, 14 * 64, 64)
        assert result.num_bins == 2 and result.stage2_nodes == 0 < result.nodes


def search_calls(samples, capacity, p):
    """The ``_search`` calls ``milp_pack`` makes from greedy's packing."""
    calls = []
    real = milp_module._search

    def record(*args):
        calls.append(args)
        return real(*args)

    with mock.patch.object(milp_module, "_search", record):
        search(samples, capacity, p)
    return calls


def same_as_reference(args):
    """The trimmed search and the reference agree, also when the budget
    runs out half way."""
    result = milp_module._search(*args)
    assert result == reference_search(*args)
    short = (*args[:-1], result[1] // 2)
    assert milp_module._search(*short) == reference_search(*short)


class TestTrimmedSearch:
    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_reference_search(self, instance):
        for args in search_calls(*instance):
            same_as_reference(args)

    def test_matches_the_reference_on_offline_milp_tasks(self):
        calls = [
            args
            for seed in GENERATOR_SEEDS
            for args in captured_calls(milp_module, "_search", seed, 4)
        ]
        assert len(calls) > 300
        for args in calls:
            same_as_reference(args)
