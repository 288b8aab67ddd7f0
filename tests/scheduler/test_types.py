"""Tests for scheduler datatypes: microbatch token accounting."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import FinetuneDataset, Sample
from repro.distsim.systems import onthefly_microbatches_for_batch
from repro.errors import CapacityError, ScheduleError
from repro.scheduler import AdapterJob, Assignment, Microbatch, Schedule
from tests.scheduler.het import GENERATOR_SEEDS, het_scheduler


def sample(aid, idx, length):
    return Sample(adapter_id=aid, index=idx, length=length)


class TestAdapterJob:
    def test_dataset_ownership_checked(self):
        ds = FinetuneDataset(1, [sample(1, 0, 100)])
        with pytest.raises(ScheduleError):
            AdapterJob(adapter_id=2, dataset=ds, global_batch_size=4)

    def test_num_global_batches(self):
        ds = FinetuneDataset(0, [sample(0, i, 10) for i in range(10)])
        job = AdapterJob(0, ds, global_batch_size=4)
        assert job.num_global_batches() == 3


class TestMicrobatchAccounting:
    def test_padding_rounds_per_adapter(self):
        mb = Microbatch(capacity=1024, padding_multiple=64)
        mb.add(Assignment(sample(0, 0, 100), 0))
        mb.add(Assignment(sample(0, 1, 27), 0))
        mb.add(Assignment(sample(1, 0, 65), 0))
        # adapter 0: 127 -> 128; adapter 1: 65 -> 128.
        assert mb.tokens_by_adapter() == {0: 127, 1: 65}
        assert mb.padded_tokens == 256
        assert mb.real_tokens == 192

    def test_capacity_enforced_on_padded_tokens(self):
        mb = Microbatch(capacity=128, padding_multiple=64)
        mb.add(Assignment(sample(0, 0, 60), 0))
        # 60 real tokens pad to 64; adding a second adapter's 70 tokens
        # pads to 128 -> 192 total > 128 capacity.
        assert not mb.fits(sample(1, 0, 70))
        with pytest.raises(CapacityError):
            mb.add(Assignment(sample(1, 0, 70), 0))

    def test_same_adapter_shares_padding_slack(self):
        mb = Microbatch(capacity=128, padding_multiple=64)
        mb.add(Assignment(sample(0, 0, 60), 0))
        # Same adapter: 60 + 4 = 64 padded, no new padding granule.
        assert mb.fits(sample(0, 1, 4))

    def test_noop_detection(self):
        assert Microbatch().is_noop
        mb = Microbatch(capacity=64, padding_multiple=64)
        mb.add(Assignment(sample(0, 0, 10), 0))
        assert not mb.is_noop

    def test_shape_reports_padded_tokens_and_adapters(self):
        mb = Microbatch(capacity=1024, padding_multiple=64)
        mb.add(Assignment(sample(0, 0, 100), 0))
        mb.add(Assignment(sample(1, 0, 50), 0))
        shape = mb.shape()
        assert shape.tokens == mb.padded_tokens
        assert shape.num_adapters == 2
        assert shape.sum_sq_len == 100**2 + 50**2

    def test_batches_by_adapter(self):
        mb = Microbatch(capacity=1024, padding_multiple=64)
        mb.add(Assignment(sample(0, 0, 10), 3))
        mb.add(Assignment(sample(0, 1, 10), 4))
        mb.add(Assignment(sample(1, 0, 10), 3))
        assert mb.batches_by_adapter() == {0: {3, 4}, 1: {3}}

    def test_batches_by_adapter_is_kept_in_step_by_add(self):
        mb = Microbatch(assignments=[Assignment(sample(0, 0, 10), 3)],
                        capacity=1024, padding_multiple=64)
        batches = mb.batches_by_adapter()
        mb.add(Assignment(sample(0, 1, 10), 4))
        mb.add(Assignment(sample(1, 0, 10), 3))
        assert mb.batches_by_adapter() is batches
        assert batches == {0: {3, 4}, 1: {3}}


def rescanned(mb):
    """Every token total of ``mb``, recounted from its assignments."""
    raw: dict[int, int] = {}
    for a in mb.assignments:
        raw[a.adapter_id] = raw.get(a.adapter_id, 0) + a.length
    p = mb.padding_multiple
    padded = {aid: math.ceil(tokens / p) * p for aid, tokens in raw.items()}
    lengths = [a.length for a in mb.assignments]
    return {
        "tokens_by_adapter": list(raw.items()),
        "padded_tokens": sum(padded.values()),
        "real_tokens": sum(lengths),
        "num_adapters": len(raw),
        "shape": (sum(padded.values()), float(sum(l * l for l in lengths)),
                  len(raw)),
    }


def counted(mb):
    """The same totals, read from the microbatch's bookkeeping."""
    shape = mb.shape()
    return {
        "tokens_by_adapter": list(mb.tokens_by_adapter().items()),
        "padded_tokens": mb.padded_tokens,
        "real_tokens": mb.real_tokens,
        "num_adapters": mb.num_adapters,
        "shape": (shape.tokens, shape.sum_sq_len, shape.num_adapters),
    }


def rescan_fits(mb, s):
    """``fits`` recomputed from a rescan."""
    raw = dict(rescanned(mb)["tokens_by_adapter"])
    p = mb.padding_multiple
    padded = {aid: math.ceil(tokens / p) * p for aid, tokens in raw.items()}
    grown = math.ceil((raw.get(s.adapter_id, 0) + s.length) / p) * p
    total = sum(padded.values()) - padded.get(s.adapter_id, 0) + grown
    return total <= mb.capacity


class TestIncrementalTotals:
    def test_overfilled_onthefly_microbatch_counts_its_list(self):
        # The fixed-count baselines overfill by design: 3 x 100 tokens in
        # a 128-token microbatch.  The list is counted as passed, never
        # refused, and further ``fits`` checks see the overfill.
        batch = [sample(0, i, 100) for i in range(3)] + [sample(1, 0, 30)]
        mbs = onthefly_microbatches_for_batch(
            batch, microbatch_samples=4, step=2, capacity=128,
            padding_multiple=64,
        )
        assert len(mbs) == 1
        mb = mbs[0]
        assert mb.padded_tokens == 320 + 64 > mb.capacity
        assert counted(mb) == rescanned(mb)
        assert not mb.fits(sample(1, 1, 1))
        assert [a.global_batch for a in mb.assignments] == [2, 2, 2, 2]

    def test_add_and_list_construction_agree(self):
        items = [Assignment(sample(a % 3, i, 17 * i + 5), 0)
                 for i, a in enumerate(range(9))]
        built = Microbatch(assignments=list(items), capacity=4096,
                           padding_multiple=64)
        added = Microbatch(capacity=4096, padding_multiple=64)
        for item in items:
            added.add(item)
        assert counted(built) == counted(added) == rescanned(added)

    def test_bookkeeping_stays_out_of_eq_repr_and_dicts(self):
        first = Microbatch(capacity=256, padding_multiple=64, step=1)
        first.add(Assignment(sample(0, 0, 100), 1))
        second = Microbatch(
            assignments=[Assignment(sample(0, 0, 100), 1)],
            capacity=256, padding_multiple=64, step=1,
        )
        assert first == second
        assert first != Microbatch(capacity=256, padding_multiple=64, step=1)
        assert "_raw" not in repr(first)
        first.batches_by_adapter()
        assert first == second and "_batches" not in repr(first)
        schedule = Schedule(microbatches=[first, Microbatch()], num_stages=2)
        payload = schedule.to_dict()
        assert set(payload["microbatches"][0]) == {
            "capacity", "padding_multiple", "group", "step", "plan_id",
            "replica", "assignments",
        }
        rebuilt = Schedule.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt.microbatches == schedule.microbatches
        assert counted(rebuilt.microbatches[0]) == counted(first)


def rescanned_batches(mb):
    batches: dict[int, set[int]] = {}
    for a in mb.assignments:
        batches.setdefault(a.adapter_id, set()).add(a.global_batch)
    return batches


def test_batch_maps_match_a_rescan_after_every_add(monkeypatch):
    """Over a whole schedule: greedy, the search, merge probes and merges."""
    adds = []
    real_add = Microbatch.add

    def checked_add(self, assignment):
        real_add(self, assignment)
        adds.append(self)
        assert self.batches_by_adapter() == rescanned_batches(self)

    monkeypatch.setattr(Microbatch, "add", checked_add)
    scheduler = het_scheduler(GENERATOR_SEEDS[0], global_batch_size=4,
                              num_stages=1)
    schedule = scheduler.schedule()
    assert schedule.stats["merges"] > 0 and adds
    for mb in schedule.microbatches:
        assert mb.batches_by_adapter() == rescanned_batches(mb)


@pytest.mark.slow
@given(
    padding=st.sampled_from([1, 8, 64]),
    capacity_granules=st.integers(1, 40),
    initial=st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 300)), max_size=12
    ),
    adds=st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 300)), max_size=30
    ),
)
@settings(max_examples=300, deadline=None)
def test_incremental_totals_match_a_rescan(padding, capacity_granules,
                                           initial, adds):
    """Random list construction (overfilled allowed) then random ``add``s."""
    capacity = capacity_granules * 64
    mb = Microbatch(
        assignments=[Assignment(sample(a, i, n), 0)
                     for i, (a, n) in enumerate(initial)],
        capacity=capacity,
        padding_multiple=padding,
    )
    assert counted(mb) == rescanned(mb)
    for i, (adapter, length) in enumerate(adds):
        candidate = sample(adapter, 100 + i, length)
        expected = rescan_fits(mb, candidate)
        assert mb.fits(candidate) == expected
        if expected:
            mb.add(Assignment(candidate, 0))
        else:
            with pytest.raises(CapacityError):
                mb.add(Assignment(candidate, 0))
        assert counted(mb) == rescanned(mb)


class TestSchedule:
    def test_token_totals(self):
        mb = Microbatch(capacity=256, padding_multiple=64)
        mb.add(Assignment(sample(0, 0, 100), 0))
        schedule = Schedule(microbatches=[mb, Microbatch()])
        assert schedule.total_tokens == 100
        assert schedule.total_padded_tokens == 128
        assert len(schedule) == 2


class TestScheduleSerialization:
    def make_schedule(self):
        mb1 = Microbatch(capacity=256, padding_multiple=64, group=1, step=2,
                         plan_id=3, replica=2)
        mb1.add(Assignment(sample(0, 4, 100), 2))
        mb1.add(Assignment(sample(1, 0, 40), 2))
        noop = Microbatch(capacity=256, padding_multiple=64, plan_id=3,
                          replica=2)
        return Schedule(
            microbatches=[mb1, noop],
            num_stages=4,
            stats={"merges": 1.0, "noops_inserted": 1.0},
        )

    def test_round_trip_through_json(self):
        schedule = self.make_schedule()
        rebuilt = Schedule.from_dict(json.loads(json.dumps(schedule.to_dict())))
        assert rebuilt.num_stages == schedule.num_stages
        assert rebuilt.stats == schedule.stats
        assert len(rebuilt) == len(schedule)
        for original, copy in zip(schedule.microbatches, rebuilt.microbatches):
            assert copy.capacity == original.capacity
            assert copy.padding_multiple == original.padding_multiple
            assert (copy.group, copy.step, copy.plan_id, copy.replica) == (
                original.group, original.step, original.plan_id,
                original.replica,
            )
            assert copy.padded_tokens == original.padded_tokens
            assert [
                (a.adapter_id, a.sample.index, a.length, a.global_batch)
                for a in copy.assignments
            ] == [
                (a.adapter_id, a.sample.index, a.length, a.global_batch)
                for a in original.assignments
            ]

    def test_round_trip_preserves_noops(self):
        rebuilt = Schedule.from_dict(self.make_schedule().to_dict())
        assert rebuilt.microbatches[1].is_noop

    def test_missing_plan_id_defaults_to_zero(self):
        payload = self.make_schedule().to_dict()
        for entry in payload["microbatches"]:
            del entry["plan_id"]
        rebuilt = Schedule.from_dict(payload)
        assert all(mb.plan_id == 0 for mb in rebuilt.microbatches)

    def test_missing_replica_defaults_to_zero(self):
        # Dumps that predate multi-replica serving stay loadable.
        payload = self.make_schedule().to_dict()
        for entry in payload["microbatches"]:
            del entry["replica"]
        rebuilt = Schedule.from_dict(payload)
        assert all(mb.replica == 0 for mb in rebuilt.microbatches)
