"""The record contract of the hot-path value types.

``KernelProfile``, ``MicrobatchShape`` and ``JobView`` are built by the
tens of thousands per serving run, so they are ``NamedTuple``s rather
than frozen dataclasses.  They must still read as the frozen dataclasses
they replaced: immutable, hashable, equal by value, with the same repr
and the same methods.
"""

import pytest

from repro.gpu.roofline import KernelProfile
from repro.models.layer_costs import MicrobatchShape
from repro.serve.ordering import JobView


def kernel():
    return KernelProfile("k", 10.0, 20.0, 30.0, uses_tensor_cores=False,
                         category="elementwise", mem_efficiency_scale=0.5)


def shape():
    return MicrobatchShape.from_lengths([100, 200], num_adapters=2)


def view(**overrides):
    fields = dict(adapter_id=3, arrival_time=1.5, priority=2, deadline=None,
                  remaining_batches=4, admitted=True, remaining_seconds=0.25)
    fields.update(overrides)
    return JobView(**fields)


#: (factory, an attribute to assign, the repr the frozen dataclass printed).
RECORDS = [
    (
        kernel,
        "flops",
        "KernelProfile(name='k', flops=10.0, bytes_read=20.0, "
        "bytes_written=30.0, uses_tensor_cores=False, category='elementwise', "
        "gemm_efficiency_scale=1.0, mem_efficiency_scale=0.5, "
        "extra_latency_us=0.0)",
    ),
    (
        shape,
        "tokens",
        "MicrobatchShape(tokens=300, sum_sq_len=50000.0, num_adapters=2)",
    ),
    (
        view,
        "remaining_seconds",
        "JobView(adapter_id=3, arrival_time=1.5, priority=2, deadline=None, "
        "remaining_batches=4, admitted=True, remaining_seconds=0.25)",
    ),
]
IDS = ["KernelProfile", "MicrobatchShape", "JobView"]


class TestRecordContract:
    @pytest.mark.parametrize("make, attr, text", RECORDS, ids=IDS)
    def test_assigning_an_attribute_raises(self, make, attr, text):
        record = make()
        with pytest.raises(AttributeError):
            setattr(record, attr, 1)
        with pytest.raises(AttributeError):
            record.undeclared = 1

    @pytest.mark.parametrize("make, attr, text", RECORDS, ids=IDS)
    def test_repr_is_the_dataclass_repr(self, make, attr, text):
        assert repr(make()) == text

    @pytest.mark.parametrize("make, attr, text", RECORDS, ids=IDS)
    def test_equal_values_hash_equal(self, make, attr, text):
        a, b = make(), make()
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


class TestRecordMethods:
    """Each method returns what the frozen dataclass returned."""

    def test_kernel_profile(self):
        p = kernel()
        assert p.bytes_total == 50.0
        assert repr(p.scaled(2.0)) == (
            "KernelProfile(name='k', flops=20.0, bytes_read=40.0, "
            "bytes_written=60.0, uses_tensor_cores=False, "
            "category='elementwise', gemm_efficiency_scale=1.0, "
            "mem_efficiency_scale=0.5, extra_latency_us=0.0)"
        )
        assert p.scaled(2.0) == KernelProfile(
            "k", 20.0, 40.0, 60.0, uses_tensor_cores=False,
            category="elementwise", mem_efficiency_scale=0.5,
        )
        assert p == kernel()  # scaling returned a copy

    def test_microbatch_shape(self):
        assert shape() == MicrobatchShape(300, 50000.0, 2)
        assert MicrobatchShape.from_lengths([7]) == MicrobatchShape(7, 49.0, 1)
        assert type(shape().sum_sq_len) is float

    def test_job_view(self):
        priced, unpriced = view(), view(remaining_seconds=None, deadline=9.0)
        assert priced.remaining_work() == 0.25
        assert unpriced.remaining_work() == 4.0
        assert type(unpriced.remaining_work()) is float
        assert priced.waited(4.0) == 2.5
        assert priced.waited(1.0) == 0.0
