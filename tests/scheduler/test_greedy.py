"""Tests for greedy first-fit-decreasing packing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import Sample
from repro.errors import CapacityError
from repro.scheduler import greedy_pack
from repro.scheduler.greedy import check_sample_fits_capacity, greedy_layout
from tests.scheduler.greedy_reference import reference_greedy_pack


def entries(lengths, aid=0, batch=0):
    return [(Sample(aid, i, l), batch) for i, l in enumerate(lengths)]


class TestGreedyPack:
    def test_single_bin_when_everything_fits(self):
        bins = greedy_pack(entries([100, 200, 300]), capacity=1024,
                           padding_multiple=64)
        assert len(bins) == 1
        assert bins[0].real_tokens == 600

    def test_opens_new_bins_on_overflow(self):
        bins = greedy_pack(entries([500, 500, 500]), capacity=640,
                           padding_multiple=64)
        assert len(bins) == 3

    def test_first_fit_decreasing_beats_naive_order(self):
        # FFD packs [6,5,4,3,2,2] into capacity-8 bins optimally (3 bins);
        # in-order first-fit would need 4.
        lengths = [2, 6, 2, 5, 4, 3]
        bins = greedy_pack(entries([l * 64 for l in lengths]), capacity=512,
                           padding_multiple=64)
        assert len(bins) == 3

    def test_every_sample_placed_exactly_once(self):
        lengths = [100, 900, 450, 222, 77, 333]
        bins = greedy_pack(entries(lengths), capacity=1024, padding_multiple=64)
        placed = sorted(
            a.sample.index for mb in bins for a in mb.assignments
        )
        assert placed == list(range(len(lengths)))

    def test_oversized_sample_raises(self):
        with pytest.raises(CapacityError):
            greedy_pack(entries([2000]), capacity=1024, padding_multiple=64)

    def test_padded_sample_at_exact_capacity_ok(self):
        check_sample_fits_capacity(Sample(0, 0, 1000), 1024, 64)
        with pytest.raises(CapacityError):
            check_sample_fits_capacity(Sample(0, 0, 1025), 1024, 64)

    def test_multi_adapter_padding_respected(self):
        # Two adapters of 33 tokens each pad to 64 each = 128 > 64.
        samples = [(Sample(0, 0, 33), 0), (Sample(1, 0, 33), 0)]
        bins = greedy_pack(samples, capacity=64, padding_multiple=64)
        assert len(bins) == 2

    def test_batch_index_preserved(self):
        samples = [(Sample(0, 0, 100), 7)]
        bins = greedy_pack(samples, capacity=1024, padding_multiple=64)
        assert bins[0].assignments[0].global_batch == 7


class TestGreedyProperties:
    @given(
        lengths=st.lists(st.integers(1, 2000), min_size=1, max_size=40),
        capacity_mult=st.integers(32, 64),
    )
    @settings(max_examples=50, deadline=None)
    def test_invariants(self, lengths, capacity_mult):
        capacity = capacity_mult * 64
        lengths = [min(l, capacity) for l in lengths]
        bins = greedy_pack(entries(lengths), capacity=capacity,
                           padding_multiple=64)
        # capacity respected
        assert all(mb.padded_tokens <= capacity for mb in bins)
        # all samples placed once
        placed = sorted(a.sample.index for mb in bins for a in mb.assignments)
        assert placed == list(range(len(lengths)))
        # no empty bins
        assert all(not mb.is_noop for mb in bins)


@st.composite
def tasks(draw):
    """1-4 adapters, 0-30 samples with tied lengths, any batch labels."""
    p = draw(st.sampled_from([1, 8, 64, 128]))
    capacity = draw(st.integers(1, 4096 // p)) * p
    spec = draw(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from([1, p, capacity // 2, capacity])
                | st.integers(1, capacity),
                st.integers(0, 2),
            ),
            max_size=30,
        )
    )
    counters: dict[int, int] = {}
    samples = []
    for adapter_id, length, batch in spec:
        index = counters.get(adapter_id, 0)
        counters[adapter_id] = index + 1
        samples.append((Sample(adapter_id, index, max(1, length)), batch))
    return samples, capacity, p


class TestAgainstReference:
    @given(tasks())
    @settings(max_examples=200, deadline=None)
    def test_same_bins_as_the_microbatch_packer(self, task):
        samples, capacity, p = task
        bins = greedy_pack(samples, capacity, p)
        reference = reference_greedy_pack(samples, capacity, p)
        assert bins == reference
        assert [list(mb.tokens_by_adapter().items()) for mb in bins] == [
            list(mb.tokens_by_adapter().items()) for mb in reference
        ]
        members, loads = greedy_layout(samples, capacity, p)
        assert loads == [mb.padded_tokens for mb in reference]
        assert [[samples[s] for s in bin_] for bin_ in members] == [
            [(a.sample, a.global_batch) for a in mb.assignments]
            for mb in reference
        ]
