"""Tests for the two-stage bin packing (Equations 3 and 4)."""

import sys

from repro.data.dataset import Sample
from repro.scheduler import greedy_pack, milp_pack, pack_global_batch
from repro.scheduler import milp as milp_module


def entries(lengths, aid=0, batch=0):
    return [(Sample(aid, i, l), batch) for i, l in enumerate(lengths)]


def mixed_entries(spec, batch=0):
    """spec: list of (adapter_id, length)."""
    out = []
    counters = {}
    for aid, length in spec:
        idx = counters.get(aid, 0)
        counters[aid] = idx + 1
        out.append((Sample(aid, idx, length), batch))
    return out


class TestStage1:
    def test_beats_greedy_on_adversarial_instance(self):
        # Lengths (x64): [5,5,4,4,3,3] into capacity 8x64. FFD needs 4 bins
        # (5+3, 5+3, 4+4, ...) -> actually FFD: 5,5,4,4,3,3 -> [5,3],[5,3],
        # [4,4] = 3 bins; craft a case where FFD is suboptimal:
        # [7,6,5,4,3,3] cap 14: FFD -> [7,6],[5,4,3],[3] = 3 bins;
        # optimal -> [7,4,3],[6,5,3] = 2 bins.
        lengths = [l * 64 for l in (7, 6, 5, 4, 3, 3)]
        capacity = 14 * 64
        greedy = greedy_pack(entries(lengths), capacity, 64)
        assert len(greedy) == 3
        result = milp_pack(
            entries(lengths), capacity, 64, [mb.padded_tokens for mb in greedy]
        )
        assert result.microbatches is not None
        assert result.num_bins == 2

    def test_batches_deeper_than_the_recursion_limit_are_searched(
        self, monkeypatch
    ):
        # One search level per sample: the first dive alone goes deeper
        # than Python's recursion limit.
        samples = [
            (Sample(i % 2, i // 2, 64 * (1 + (i * 7) % 13) - i % 5), 0)
            for i in range(sys.getrecursionlimit() + 100)
        ]
        greedy = greedy_pack(samples, 8192, 64)
        monkeypatch.setattr(milp_module, "SEARCH_NODE_BUDGET", len(samples) + 1)
        result = milp_pack(samples, 8192, 64, [mb.padded_tokens for mb in greedy])
        assert result.nodes == len(samples) + 1 and not result.stage2_optimal
        assert result.num_bins <= len(greedy)

    def test_single_bin_returns_none(self):
        samples = entries([100, 100])
        greedy = greedy_pack(samples, 1024, 64)
        result = milp_pack(samples, 1024, 64, [mb.padded_tokens for mb in greedy])
        assert result.microbatches is None

    def test_empty_returns_none(self):
        result = milp_pack([], 1024, 64, [])
        assert result.microbatches is None

    def test_all_samples_assigned_once(self):
        lengths = [l * 64 for l in (7, 6, 5, 4, 3, 3)]
        samples = entries(lengths)
        greedy = greedy_pack(samples, 14 * 64, 64)
        result = milp_pack(samples, 14 * 64, 64, [mb.padded_tokens for mb in greedy])
        placed = sorted(
            a.sample.index
            for mb in result.microbatches
            for a in mb.assignments
        )
        assert placed == list(range(6))

    def test_capacity_respected(self):
        lengths = [l * 64 for l in (7, 6, 5, 4, 3, 3)]
        samples = entries(lengths)
        greedy = greedy_pack(samples, 14 * 64, 64)
        result = milp_pack(samples, 14 * 64, 64, [mb.padded_tokens for mb in greedy])
        assert all(mb.padded_tokens <= 14 * 64 for mb in result.microbatches)


class TestStage2:
    def test_smallest_bin_is_last_and_minimised(self):
        # FFD packs (4, 3) and (3, 2, 2) x64 into 448 + 448; stage 2 moves
        # tokens forward to leave the final bin as empty as possible.
        lengths = [l * 64 for l in (4, 3, 3, 2, 2)]
        greedy = greedy_pack(entries(lengths), 8 * 64, 64)
        assert [mb.padded_tokens for mb in greedy] == [448, 448]
        result = milp_pack(
            entries(lengths), 8 * 64, 64, [mb.padded_tokens for mb in greedy]
        )
        assert result.microbatches is not None
        sizes = [mb.padded_tokens for mb in result.microbatches]
        assert sizes == [512, 384]
        assert result.min_bin_tokens == min(sizes)

    def test_multi_adapter_padding_multiples_respected(self):
        spec = [(2, 224), (1, 101), (2, 81), (1, 67), (0, 230), (0, 28)]
        samples = mixed_entries(spec)
        greedy = greedy_pack(samples, 256, 64)
        result = milp_pack(samples, 256, 64, [mb.padded_tokens for mb in greedy])
        assert result.microbatches is not None
        for mb in result.microbatches:
            assert mb.padded_tokens <= 256
            # Each adapter's share is padded to a multiple of 64 on its own.
            assert mb.padded_tokens == sum(
                -(-tokens // 64) * 64 for tokens in mb.tokens_by_adapter().values()
            )


class TestAlgorithm1Selection:
    def test_pack_global_batch_prefers_strictly_better_milp(self):
        lengths = [l * 64 for l in (7, 6, 5, 4, 3, 3)]
        bins, method = pack_global_batch(entries(lengths), 14 * 64, 64,
                                         use_milp=True)
        assert method == "milp"
        assert len(bins) == 2

    def test_pack_global_batch_greedy_when_disabled(self):
        bins, method = pack_global_batch(entries([100, 200]), 1024, 64,
                                         use_milp=False)
        assert method == "greedy"

    def test_greedy_kept_when_milp_no_better(self):
        # Uniform items: greedy is already optimal in bins and min-bin.
        lengths = [512] * 4
        bins, method = pack_global_batch(entries(lengths), 1024, 64,
                                         use_milp=True)
        assert len(bins) == 2
        # Either answer is 2 bins; Algorithm 1 line 8 prefers greedy when
        # the MILP min-bin is not strictly smaller.
        assert method == "greedy"

    def test_tiny_budget_falls_back_to_greedy(self, monkeypatch):
        # One placement reaches no leaf, so greedy's packing stands.
        monkeypatch.setattr(milp_module, "SEARCH_NODE_BUDGET", 1)
        lengths = [64 * (i % 7 + 1) for i in range(30)]
        bins, method = pack_global_batch(entries(lengths), 512, 64,
                                         use_milp=True)
        assert method == "greedy"
        assert bins
