"""Tests for the batching schemes of Figure 2 plus knapsack packing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    greedy_knapsack,
    onthefly_microbatches,
    pad_batches,
    padding_waste,
    prepack_dataset,
)
from repro.errors import ReproError

LENGTHS = [100, 300, 50, 400, 250, 120, 80, 500]


class TestPadding:
    def test_pads_to_local_max(self):
        batches = pad_batches(LENGTHS, microbatch_size=4)
        assert batches[0].padded_length == 400
        assert batches[0].total_tokens == 1600
        assert batches[0].wasted_tokens == 1600 - 850

    def test_preset_length(self):
        batches = pad_batches(LENGTHS, 4, preset_length=512)
        assert all(b.padded_length == 512 for b in batches)

    def test_sample_exceeding_preset_rejected(self):
        with pytest.raises(ReproError):
            pad_batches(LENGTHS, 4, preset_length=300)

    def test_waste_fraction(self):
        batches = pad_batches([100, 100], 2)
        assert padding_waste(batches) == 0.0
        batches = pad_batches([100, 300], 2)
        assert padding_waste(batches) == pytest.approx(200 / 600)


class TestPrepacking:
    def test_packs_in_order_until_capacity(self):
        packs = prepack_dataset(LENGTHS, capacity=500)
        flat = [l for p in packs for l in p.lengths]
        assert flat == LENGTHS  # order preserved
        assert all(p.total_tokens <= 500 for p in packs)

    def test_variable_sample_count(self):
        # The training-semantics drawback the paper notes.
        packs = prepack_dataset(LENGTHS, capacity=500)
        counts = {p.sample_count for p in packs}
        assert len(counts) > 1

    def test_oversized_sample_rejected(self):
        with pytest.raises(ReproError):
            prepack_dataset([600], capacity=500)


class TestOnTheFly:
    def test_deterministic_sample_count(self):
        mbs = onthefly_microbatches(LENGTHS, 4)
        assert [len(m) for m in mbs] == [4, 4]

    def test_token_counts_vary(self):
        # Figure 6: variable tokens per microbatch at fixed sample count.
        mbs = onthefly_microbatches(LENGTHS, 4)
        totals = [sum(m) for m in mbs]
        assert totals[0] != totals[1]

    def test_no_tokens_lost(self):
        mbs = onthefly_microbatches(LENGTHS, 3)
        assert sum(sum(m) for m in mbs) == sum(LENGTHS)


class TestGreedyKnapsack:
    def test_first_fit_decreasing(self):
        packs = greedy_knapsack(LENGTHS, capacity=512)
        # Longest first: 500 opens knapsack 0; 400 cannot join it.
        assert packs[0][0] == 7
        assert all(
            sum(LENGTHS[i] for i in pack) <= 512 for pack in packs
        )

    def test_every_index_exactly_once(self):
        packs = greedy_knapsack(LENGTHS, capacity=600)
        assert sorted(i for pack in packs for i in pack) == list(
            range(len(LENGTHS))
        )

    def test_deterministic(self):
        assert greedy_knapsack(LENGTHS, 512) == greedy_knapsack(LENGTHS, 512)

    def test_equal_lengths_break_ties_by_index(self):
        packs = greedy_knapsack([100, 100, 100], capacity=200)
        assert packs == [[0, 1], [2]]

    def test_empty_lengths_give_no_knapsacks(self):
        assert greedy_knapsack([], capacity=512) == []

    def test_oversized_length_rejected(self):
        with pytest.raises(ReproError):
            greedy_knapsack([600], capacity=500)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ReproError):
            greedy_knapsack([0], capacity=500)

    def test_bad_capacity_rejected(self):
        with pytest.raises(ReproError):
            greedy_knapsack([100], capacity=0)


class TestProperties:
    @given(
        lengths=st.lists(st.integers(1, 1000), min_size=1, max_size=50),
        mbs=st.integers(1, 8),
    )
    @settings(max_examples=50, deadline=None)
    def test_onthefly_partition_is_exact(self, lengths, mbs):
        batches = onthefly_microbatches(lengths, mbs)
        assert [l for b in batches for l in b] == lengths

    @given(
        lengths=st.lists(st.integers(1, 500), min_size=1, max_size=50),
        capacity=st.integers(500, 2000),
    )
    @settings(max_examples=50, deadline=None)
    def test_prepack_respects_capacity_and_order(self, lengths, capacity):
        packs = prepack_dataset(lengths, capacity)
        assert all(p.total_tokens <= capacity for p in packs)
        assert [l for p in packs for l in p.lengths] == lengths

    @given(
        lengths=st.lists(st.integers(1, 500), min_size=1, max_size=50),
        mbs=st.integers(1, 8),
    )
    @settings(max_examples=50, deadline=None)
    def test_padding_never_negative(self, lengths, mbs):
        batches = pad_batches(lengths, mbs)
        assert all(b.wasted_tokens >= 0 for b in batches)
        assert 0.0 <= padding_waste(batches) < 1.0

    @given(
        lengths=st.lists(st.integers(1, 500), min_size=0, max_size=50),
        capacity=st.integers(500, 2000),
    )
    @settings(max_examples=50, deadline=None)
    def test_knapsack_is_a_partition_within_capacity(self, lengths, capacity):
        packs = greedy_knapsack(lengths, capacity)
        assert sorted(i for p in packs for i in p) == list(range(len(lengths)))
        assert all(sum(lengths[i] for i in p) <= capacity for p in packs)
        # Determinism: a second call reproduces the packing exactly.
        assert packs == greedy_knapsack(lengths, capacity)

    @given(lengths=st.lists(st.integers(1, 500), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_knapsack_never_beats_the_token_lower_bound(self, lengths):
        # FFD can never use fewer bins than ceil(total / capacity).
        capacity = 500
        packs = greedy_knapsack(lengths, capacity)
        assert len(packs) >= -(-sum(lengths) // capacity)
