"""Dataset substrate: length distributions, sample streams, packing, arrivals."""

from repro.data.arrivals import poisson_times, trace_times
from repro.data.dataset import FinetuneDataset, Sample, synthetic_dataset
from repro.data.distributions import (
    CNN_DAILYMAIL,
    MIXED,
    WIKISUM,
    XSUM,
    LengthDistribution,
    MixtureDistribution,
    get_distribution,
    list_distributions,
)
from repro.data.packing import (
    Pack,
    PaddedBatch,
    greedy_knapsack,
    onthefly_microbatches,
    pad_batches,
    padding_waste,
    prepack_dataset,
)

__all__ = [
    "CNN_DAILYMAIL",
    "FinetuneDataset",
    "LengthDistribution",
    "MIXED",
    "MixtureDistribution",
    "Pack",
    "PaddedBatch",
    "Sample",
    "WIKISUM",
    "XSUM",
    "get_distribution",
    "greedy_knapsack",
    "list_distributions",
    "onthefly_microbatches",
    "pad_batches",
    "padding_waste",
    "poisson_times",
    "prepack_dataset",
    "synthetic_dataset",
    "trace_times",
]
