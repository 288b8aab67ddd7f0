"""Tests for the 1F1B pipeline simulator."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distsim import PipelineMicrobatch, simulate_flushed, simulate_stream
from repro.errors import SimulationError
from tests.distsim.pipeline_reference import reference_simulate_stream

S = 4


def uniform(n, f=1.0, b=2.0, pairs=None, stages=S):
    return [
        PipelineMicrobatch(
            fwd_times=(f,) * stages,
            bwd_times=(b,) * stages,
            adapter_batches=frozenset(pairs[i]) if pairs else frozenset(),
        )
        for i in range(n)
    ]


class TestUniform1F1B:
    @pytest.mark.parametrize("m", [4, 8, 16, 64])
    def test_makespan_matches_closed_form(self, m):
        # Uniform per-stage times: T = (M + S - 1) * (f + b).
        result = simulate_stream(uniform(m), S)
        assert result.makespan == pytest.approx((m + S - 1) * 3.0)

    @pytest.mark.parametrize("m", [4, 8, 32])
    def test_bubble_ratio_matches_closed_form(self, m):
        result = simulate_stream(uniform(m), S)
        expected = (S - 1) * 3.0 / ((m + S - 1) * 3.0)
        assert result.bubble_ratio == pytest.approx(expected)

    def test_bubble_shrinks_with_more_microbatches(self):
        # Figure 5's PP trend: larger global batches -> fewer bubbles.
        bubbles = [simulate_stream(uniform(m), S).bubble_ratio
                   for m in (4, 8, 16, 32)]
        assert bubbles == sorted(bubbles, reverse=True)

    def test_single_stage_has_no_bubbles(self):
        result = simulate_stream(uniform(8, stages=1), 1)
        assert result.bubble_ratio == pytest.approx(0.0)
        assert result.makespan == pytest.approx(8 * 3.0)

    def test_empty_stream(self):
        result = simulate_stream([], S)
        assert result.makespan == 0.0

    def test_stage_count_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            simulate_stream(uniform(4, stages=2), 4)


class TestTypedRefusal:
    """Invalid depths and clocks raise SimulationError, never a bare error."""

    @pytest.mark.parametrize("num_stages", [0, -2])
    def test_non_positive_depth_rejected(self, num_stages):
        with pytest.raises(SimulationError, match="num_stages"):
            simulate_stream([PipelineMicrobatch((), ())], num_stages)
        with pytest.raises(SimulationError, match="num_stages"):
            simulate_stream([], num_stages)
        with pytest.raises(SimulationError, match="num_stages"):
            simulate_flushed([], num_stages)
        with pytest.raises(SimulationError, match="num_stages"):
            simulate_flushed([[PipelineMicrobatch((), ())]], num_stages)

    @pytest.mark.parametrize("start_time", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_time_rejected(self, start_time):
        with pytest.raises(SimulationError, match="start_time"):
            simulate_stream(uniform(4), S, start_time=start_time)
        with pytest.raises(SimulationError, match="start_time"):
            simulate_stream([], S, start_time=start_time)


class TestVariableSizes:
    def test_slow_microbatch_stalls_pipeline(self):
        mbs = uniform(8)
        slow = PipelineMicrobatch(fwd_times=(10.0,) * S, bwd_times=(20.0,) * S)
        result_uniform = simulate_stream(mbs, S)
        result_skewed = simulate_stream(mbs[:4] + [slow] + mbs[4:7], S)
        # Same microbatch count; the skewed stream is slower and bubblier.
        assert result_skewed.makespan > result_uniform.makespan
        assert result_skewed.bubble_ratio > result_uniform.bubble_ratio

    def test_last_stage_imbalance_creates_bubbles(self):
        # A heavier last stage (LM head) idles the others -- the effect the
        # paper says caps LoRAFusion at ~11% bubbles.
        mbs = [
            PipelineMicrobatch(fwd_times=(1.0, 1.0, 1.0, 1.3),
                               bwd_times=(2.0, 2.0, 2.0, 2.6))
            for _ in range(32)
        ]
        result = simulate_stream(mbs, S)
        baseline = simulate_stream(uniform(32), S)
        assert result.bubble_ratio > baseline.bubble_ratio


class TestAdapterDependencies:
    def test_spaced_batches_do_not_stall(self):
        # Two adapters interleave in blocks of 4: gap between an adapter's
        # consecutive batches is >= S, so throughput matches uniform 1F1B.
        pairs = []
        for step in range(4):
            pairs.extend([[(0, step)]] * 4)
            pairs.extend([[(1, step)]] * 4)
        result = simulate_stream(uniform(32, pairs=pairs), S)
        free = simulate_stream(uniform(32), S)
        assert result.makespan == pytest.approx(free.makespan)

    def test_violating_stream_deadlocks(self):
        pairs = [[(0, i // 2)] for i in range(8)]  # gap 2 < S
        with pytest.raises(SimulationError, match="deadlock"):
            simulate_stream(uniform(8, pairs=pairs), S)

    def test_noop_slots_resolve_dependencies(self):
        # Insert zero-work no-ops to restore the gap: stream must complete.
        pairs = [[(0, 0)], [(0, 0)]]
        mbs = uniform(2, pairs=pairs)
        noop = PipelineMicrobatch(fwd_times=(0.0,) * S, bwd_times=(0.0,) * S)
        stream = mbs[:2] + [noop] * (S - 1) + uniform(2, pairs=[[(0, 1)]] * 2)
        result = simulate_stream(stream, S)
        assert result.makespan > 0


class TestFlushedExecution:
    def test_flush_slower_than_stream(self):
        batches = [uniform(4) for _ in range(4)]
        flushed = simulate_flushed(batches, S)
        streamed = simulate_stream([mb for b in batches for mb in b], S)
        assert flushed.makespan > streamed.makespan

    def test_flushed_bubble_matches_per_batch_ramp(self):
        # Four batches of 4 microbatches: every batch pays the full ramp.
        flushed = simulate_flushed([uniform(4) for _ in range(4)], S)
        per_batch = simulate_stream(uniform(4), S)
        assert flushed.bubble_ratio == pytest.approx(per_batch.bubble_ratio)
        assert flushed.makespan == pytest.approx(4 * per_batch.makespan)


@st.composite
def streams(draw):
    """A stage count, a start time and a microbatch stream that may deadlock.

    Microbatches are no-ops or carry up to three ``(adapter, batch)``
    pairs of up to three adapters, so cross-batch and multi-adapter
    dependencies both occur, satisfied or not.
    """
    num_stages = draw(st.integers(1, 5))
    start_time = draw(st.sampled_from([0.0, 1.7, -3.25, 1e6]))
    times = st.tuples(*[st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.5])] * num_stages)
    pair = st.tuples(st.integers(0, 2), st.integers(0, 3))
    mbs = []
    for _ in range(draw(st.integers(0, 14))):
        if draw(st.booleans()) and draw(st.booleans()):
            zeros = (0.0,) * num_stages
            mbs.append(PipelineMicrobatch(zeros, zeros))
            continue
        mbs.append(PipelineMicrobatch(
            draw(times), draw(times),
            frozenset(draw(st.lists(pair, min_size=1, max_size=3))),
        ))
    return mbs, num_stages, start_time


class TestMatchesInOrderReference:
    """The incremental core times a stream exactly as the in-order
    simulator does, and deadlocks exactly where it does."""

    @settings(max_examples=400, deadline=None)
    @given(streams())
    def test_equal_or_both_deadlock(self, case):
        mbs, num_stages, start_time = case
        try:
            expected = reference_simulate_stream(mbs, num_stages, start_time)
        except SimulationError:
            with pytest.raises(SimulationError, match="deadlock"):
                simulate_stream(mbs, num_stages, start_time)
            return
        result = simulate_stream(mbs, num_stages, start_time)
        assert result.makespan == expected.makespan
        assert result.busy == expected.busy
        assert result.num_microbatches == expected.num_microbatches
        assert result.num_stages == expected.num_stages

    def test_scheduled_stream_matches(self):
        # Spaced adapter batches with no-op slots, the shape the
        # scheduler emits: no deadlock, identical timing.
        pairs = [[(0, step), (1, step)] for step in range(3) for _ in range(2)]
        mbs = uniform(6, pairs=pairs)
        noop = PipelineMicrobatch((0.0,) * S, (0.0,) * S)
        stream = []
        for k in range(0, 6, 2):
            stream += mbs[k:k + 2] + [noop] * (S - 1)
        for start in (0.0, 1.7):
            expected = reference_simulate_stream(stream, S, start)
            result = simulate_stream(stream, S, start)
            assert (result.makespan, result.busy) == (
                expected.makespan, expected.busy)
