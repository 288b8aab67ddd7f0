"""Tests for the certificates that let Algorithm 1 skip MILP solves.

The reference below is Algorithm 1 as it stood before the certificates:
greedy first-fit-decreasing, then both MILP stages solved unconditionally,
then the selection rule.  ``pack_global_batch`` must return exactly what
it returns on every instance; the certificates may only skip solves whose
answer the selection rule would discard.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import Sample
from repro.scheduler import greedy_pack, milp_pack, pack_global_batch
from repro.scheduler import milp as milp_module
from repro.scheduler import scheduler as scheduler_module
from repro.scheduler.milp import bin_count_lower_bound, proves_no_win

TIMEOUT = 10.0


def two_stage(samples, capacity, p, max_bins, timeout=TIMEOUT):
    """Stage 1 then stage 2, always solved; None when greedy is kept."""
    x1, used, _ = milp_module._stage1(samples, capacity, p, max_bins, timeout)
    if x1 is None or used <= 0:
        return None
    x2, _ = milp_module._stage2(samples, capacity, p, used, timeout)
    return milp_module._bins_from_assignment(
        x2 if x2 is not None else x1, samples, capacity, p
    )


def reference_pack(samples, capacity, p):
    """Algorithm 1 with no certificates: ``(bins, method)``."""
    greedy = greedy_pack(samples, capacity, p)
    if len(greedy) <= 1:
        return greedy, "greedy"
    bins = two_stage(samples, capacity, p, len(greedy))
    if bins is None or len(bins) > len(greedy):
        return greedy, "greedy"
    greedy_min = min(mb.padded_tokens for mb in greedy)
    smallest = min(mb.padded_tokens for mb in bins)
    if len(bins) == len(greedy) and smallest >= greedy_min:
        return greedy, "greedy"
    return bins, "milp"


def contents(bins):
    return [
        [(a.adapter_id, a.sample.index, a.global_batch) for a in mb.assignments]
        for mb in bins
    ]


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


class TestBinCountLowerBound:
    @given(instances())
    @settings(max_examples=30, deadline=None)
    def test_no_returned_packing_beats_the_bound(self, instance):
        samples, capacity, p = instance
        bound = bin_count_lower_bound(samples, capacity, p)
        greedy = greedy_pack(samples, capacity, p)
        assert bound <= len(greedy)
        result = milp_pack(samples, capacity, p, max_bins=len(greedy),
                           timeout=TIMEOUT)
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
        greedy = greedy_pack(samples, capacity, p)
        if len(greedy) <= 1:
            return
        greedy_min = min(mb.padded_tokens for mb in greedy)
        if not proves_no_win(samples, capacity, p, len(greedy), greedy_min):
            return
        assert reference_pack(samples, capacity, p)[1] == "greedy"

    @given(instances())
    @settings(max_examples=30, deadline=None)
    def test_pack_global_batch_matches_the_reference(self, instance):
        samples, capacity, p = instance
        bins, method = pack_global_batch(samples, capacity, p, use_milp=True,
                                         milp_timeout=TIMEOUT)
        want_bins, want_method = reference_pack(samples, capacity, p)
        assert method == want_method
        assert contents(bins) == contents(want_bins)

    def test_fewer_bins_are_a_win(self):
        # FFD needs 3 bins where 2 suffice: the search finds the packing
        # with an empty third bin and declines to prove.
        samples = mixed_entries([(0, l * 64) for l in (7, 6, 5, 4, 3, 3)])
        greedy = greedy_pack(samples, 14 * 64, 64)
        smallest = min(mb.padded_tokens for mb in greedy)
        assert not proves_no_win(samples, 14 * 64, 64, len(greedy), smallest)

    def test_uniform_items_prove_without_a_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(scheduler_module, "milp_pack",
                            lambda *a, **k: calls.append(a) or milp_pack(*a, **k))
        samples = mixed_entries([(0, 512)] * 4)
        bins, method = pack_global_batch(samples, 1024, 64, use_milp=True,
                                         milp_timeout=TIMEOUT)
        assert (len(bins), method, calls) == (2, "greedy", [])

    def test_exhausted_budget_still_reaches_the_milp(self, monkeypatch):
        samples = mixed_entries([(0, 1696), (0, 529), (0, 493), (1, 574)])
        capacity, p = 2112, 64
        greedy = greedy_pack(samples, capacity, p)
        smallest = min(mb.padded_tokens for mb in greedy)
        assert proves_no_win(samples, capacity, p, len(greedy), smallest)
        monkeypatch.setattr(milp_module, "NO_WIN_NODE_BUDGET", 1)
        assert not proves_no_win(samples, capacity, p, len(greedy), smallest)
        calls = []
        monkeypatch.setattr(scheduler_module, "milp_pack",
                            lambda *a, **k: calls.append(a) or milp_pack(*a, **k))
        bins, method = pack_global_batch(samples, capacity, p, use_milp=True,
                                         milp_timeout=TIMEOUT)
        assert len(calls) == 1
        want_bins, want_method = reference_pack(samples, capacity, p)
        assert (method, contents(bins)) == (want_method, contents(want_bins))


class TestStageOneSkip:
    def test_stage_two_alone_when_the_bound_is_met(self, monkeypatch):
        samples = mixed_entries([(0, l * 64) for l in (6, 5, 3, 2)])
        assert bin_count_lower_bound(samples, 8 * 64, 64) == 2

        def no_stage1(*args, **kwargs):
            raise AssertionError("stage 1 ran although the bound was met")

        monkeypatch.setattr(milp_module, "_stage1", no_stage1)
        result = milp_pack(samples, 8 * 64, 64, max_bins=2, timeout=TIMEOUT)
        assert result.num_bins == 2 and result.stage1_optimal

    def test_no_stage_two_incumbent_means_greedy(self, monkeypatch):
        samples = mixed_entries([(0, l * 64) for l in (6, 5, 3, 2)])
        monkeypatch.setattr(milp_module, "_stage2", lambda *a, **k: (None, False))
        result = milp_pack(samples, 8 * 64, 64, max_bins=2, timeout=TIMEOUT)
        assert result.microbatches is None

