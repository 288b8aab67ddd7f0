"""Tests for the discrete-event kernel: ordering, cancellation, lanes."""

from repro.serve import Event, EventKernel, EventKind


def drain(kernel):
    """Pop everything, returning ``(time, kind, lane, payload)`` tuples."""
    popped = []
    while (event := kernel.pop()) is not None:
        popped.append((event.time, event.kind, event.lane, event.payload))
    return popped


class TestDeterministicOrder:
    def test_pops_in_time_order(self):
        kernel = EventKernel()
        kernel.schedule(3.0, EventKind.WAVE_CLOSE, "c")
        kernel.schedule(1.0, EventKind.WAVE_CLOSE, "a")
        kernel.schedule(2.0, EventKind.WAVE_CLOSE, "b")
        assert [p[3] for p in drain(kernel)] == ["a", "b", "c"]

    def test_equal_time_breaks_by_kind_rank(self):
        # An arrival and a wave close at the same instant: the arrival
        # wins (EventKind.ARRIVAL ranks lowest), which is exactly the
        # lockstep loop's strict ``clock < next_arrival`` step gate.
        kernel = EventKernel()
        kernel.schedule(1.0, EventKind.WAVE_CLOSE, "step")
        kernel.schedule(1.0, EventKind.ARRIVAL, "arrive")
        assert [p[3] for p in drain(kernel)] == ["arrive", "step"]

    def test_equal_time_and_kind_breaks_by_lane(self):
        # Two replicas due at the same clock step in replica-id order --
        # the lockstep ``min(..., key=(clock, index))`` scan.
        kernel = EventKernel()
        kernel.schedule(1.0, EventKind.WAVE_CLOSE, "r2", lane=2)
        kernel.schedule(1.0, EventKind.WAVE_CLOSE, "r0", lane=0)
        kernel.schedule(1.0, EventKind.WAVE_CLOSE, "r1", lane=1)
        assert [p[3] for p in drain(kernel)] == ["r0", "r1", "r2"]

    def test_full_tie_breaks_by_schedule_order(self):
        kernel = EventKernel()
        kernel.schedule(1.0, EventKind.ARRIVAL, "first", lane=7)
        kernel.schedule(1.0, EventKind.ARRIVAL, "second", lane=7)
        assert [p[3] for p in drain(kernel)] == ["first", "second"]

    def test_two_identical_schedules_pop_identically(self):
        # Byte-level determinism: the same schedule drained twice yields
        # the same pop sequence, including every tie.
        def build():
            kernel = EventKernel()
            for seed in (5, 3, 9, 3, 1):
                kernel.schedule(float(seed % 4), EventKind(seed % 5), seed,
                                lane=seed % 3)
            return kernel

        first, second = drain(build()), drain(build())
        assert repr(first) == repr(second)


class TestClockSemantics:
    def test_now_tracks_popped_heap_events(self):
        kernel = EventKernel()
        kernel.schedule(2.5, EventKind.ARRIVAL, None)
        assert kernel.now == 0.0
        kernel.pop()
        assert kernel.now == 2.5

    def test_empty_kernel_pops_none(self):
        kernel = EventKernel()
        assert kernel.pop() is None
        assert len(kernel) == 0

    def test_processed_counts_by_kind(self):
        kernel = EventKernel()
        kernel.schedule(1.0, EventKind.ARRIVAL, None)
        kernel.schedule(2.0, EventKind.ARRIVAL, None)
        kernel.schedule(3.0, EventKind.WAVE_CLOSE, None)
        drain(kernel)
        assert kernel.processed[EventKind.ARRIVAL] == 2
        assert kernel.processed[EventKind.WAVE_CLOSE] == 1
        assert sum(kernel.processed.values()) == 3


class TestCancellation:
    def test_cancelled_event_is_skipped(self):
        kernel = EventKernel()
        doomed = kernel.schedule(1.0, EventKind.WAVE_CLOSE, "doomed")
        kernel.schedule(2.0, EventKind.WAVE_CLOSE, "kept")
        kernel.cancel(doomed)
        assert [p[3] for p in drain(kernel)] == ["kept"]

    def test_cancel_is_idempotent(self):
        kernel = EventKernel()
        doomed = kernel.schedule(1.0, EventKind.WAVE_CLOSE, None)
        kernel.cancel(doomed)
        kernel.cancel(doomed)  # second cancel must not corrupt the count
        assert drain(kernel) == []
        assert len(kernel) == 0

    def test_len_excludes_cancelled(self):
        kernel = EventKernel()
        live = kernel.schedule(1.0, EventKind.ARRIVAL, None)
        doomed = kernel.schedule(2.0, EventKind.ARRIVAL, None)
        kernel.cancel(doomed)
        assert len(kernel) == 1
        kernel.cancel(live)
        assert len(kernel) == 0

    def test_cancelling_a_handed_out_event_changes_no_count(self):
        # A handler may cancel the very event it was handed; the event is
        # no longer queued, so the live count must not drop below zero.
        kernel = EventKernel()
        timed = kernel.schedule(1.0, EventKind.WAVE_CLOSE, None)
        posted = kernel.post(EventKind.REBALANCE, None)
        assert kernel.pop() is posted and kernel.pop() is timed
        kernel.cancel(timed)
        kernel.cancel(posted)
        assert len(kernel) == 0
        later = kernel.schedule(2.0, EventKind.ARRIVAL, None)
        assert len(kernel) == 1 and kernel.pop() is later

    def test_cancelled_events_are_not_counted_processed(self):
        kernel = EventKernel()
        doomed = kernel.schedule(1.0, EventKind.MIGRATION, None)
        kernel.cancel(doomed)
        drain(kernel)
        assert sum(kernel.processed.values()) == 0


class TestImmediateLane:
    def test_posted_events_beat_earlier_heap_events(self):
        # The control cascade: a posted REBALANCE runs before a heap
        # WAVE_CLOSE at an *earlier* time -- control is synchronous with
        # the event that posted it, like the lockstep loop's in-line
        # ``_rebalance()`` call.
        kernel = EventKernel()
        kernel.schedule(0.5, EventKind.WAVE_CLOSE, "heap")
        kernel.post(EventKind.REBALANCE, "soon")
        assert [p[3] for p in drain(kernel)] == ["soon", "heap"]

    def test_posted_events_drain_fifo(self):
        kernel = EventKernel()
        kernel.post(EventKind.REBALANCE, "a")
        kernel.post(EventKind.MIGRATION, "b")
        kernel.post(EventKind.REBALANCE, "c")
        assert [p[3] for p in drain(kernel)] == ["a", "b", "c"]

    def test_post_does_not_advance_now(self):
        kernel = EventKernel()
        kernel.schedule(4.0, EventKind.WAVE_CLOSE, None)
        kernel.pop()
        kernel.post(EventKind.REBALANCE, None)
        kernel.pop()
        assert kernel.now == 4.0

    def test_cancelled_posted_event_is_skipped(self):
        kernel = EventKernel()
        doomed = kernel.post(EventKind.FLUSH, "doomed")
        kernel.post(EventKind.FLUSH, "kept")
        kernel.cancel(doomed)
        assert [p[3] for p in drain(kernel)] == ["kept"]


class TestEventSortKey:
    def test_sort_key_shape(self):
        event = Event(time=1.5, kind=EventKind.MIGRATION, lane=3, seq=7)
        # The kernel's heap key is ``(time, priority, seq)``.
        key = (event.time, event.priority, event.seq)
        assert key == (1.5, (int(EventKind.MIGRATION), 3), 7)

    def test_priority_ranks_kinds(self):
        arrival = Event(time=0.0, kind=EventKind.ARRIVAL, lane=0, seq=0)
        close = Event(time=0.0, kind=EventKind.WAVE_CLOSE, lane=0, seq=1)
        assert arrival.priority < close.priority
