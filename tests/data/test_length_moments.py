"""Exact length moments: integer sums, divided once, equal numpy's floats.

:meth:`FinetuneDataset.length_moments` and
:meth:`~FinetuneDataset.total_tokens` sum Python ints.  Those sums are
exact, and so are numpy's float64 sums of the same lengths while they
stay below ``2**53`` (65,536-token samples, 4,096 of them, square-sum to
under ``2**45``), so one correctly rounded division gives the very float
``lengths.astype(float).mean()`` does.  Every check is ``==``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import FinetuneDataset, Sample, synthetic_dataset


def dataset(lengths):
    return FinetuneDataset(
        0, [Sample(0, i, int(length)) for i, length in enumerate(lengths)]
    )


def numpy_reference(lengths):
    """The float64 moments and the int64 total, computed by numpy."""
    array = np.asarray(lengths, dtype=np.int64)
    floats = array.astype(float)
    return (
        (float(floats.mean()), float((floats**2).mean())),
        int(array.sum()),
    )


def assert_matches_numpy(lengths):
    ds = dataset(lengths)
    moments, total = numpy_reference(lengths)
    assert ds.length_moments() == moments
    assert ds.total_tokens() == total
    assert all(type(value) is float for value in ds.length_moments())
    assert type(ds.total_tokens()) is int


@pytest.mark.parametrize(
    "lengths",
    [
        [7],
        [1, 2, 2],  # a mean with no finite binary expansion
        [10, 20, 30],
        [65_536] * 4_096,  # the largest sums the property draws
        [1, 65_536, 3, 40_000, 17],
        np.random.default_rng(5).integers(1, 65_537, size=4_096).tolist(),
    ],
)
def test_moments_equal_numpy(lengths):
    assert_matches_numpy(lengths)


@pytest.mark.parametrize("name", ["xsum", "cnn_dailymail", "wikisum", "mixed"])
def test_synthetic_datasets_equal_numpy(name):
    ds = synthetic_dataset(3, name, 257, seed=11)
    assert_matches_numpy([sample.length for sample in ds.samples])


def test_moments_are_cached():
    ds = dataset([3, 4, 5])
    assert ds.length_moments() is ds.length_moments()
    assert ds.mean_length() == 4.0


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(
    lengths=st.lists(
        st.integers(min_value=1, max_value=65_536), min_size=1, max_size=4_096
    )
)
def test_moments_equal_numpy_property(lengths):
    assert_matches_numpy(lengths)
