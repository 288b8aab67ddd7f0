"""Boundary validation of :class:`~repro.serve.jobs.ServeJob`."""

import math

import pytest

from repro.data import synthetic_dataset
from repro.errors import ScheduleError
from repro.scheduler import AdapterJob
from repro.serve import ServeJob

JOB = AdapterJob(0, synthetic_dataset(0, "xsum", 4, seed=3), 2)
NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("stamp", NON_FINITE, ids=repr)
def test_non_finite_arrival_time_rejected(stamp):
    with pytest.raises(ScheduleError, match="arrival_time"):
        ServeJob(job=JOB, arrival_time=stamp)


@pytest.mark.parametrize("deadline", NON_FINITE, ids=repr)
def test_non_finite_deadline_rejected(deadline):
    with pytest.raises(ScheduleError, match="deadline"):
        ServeJob(job=JOB, arrival_time=1.0, deadline=deadline)


def test_finite_times_accepted():
    job = ServeJob(job=JOB, arrival_time=0.0, deadline=5.0)
    assert (job.arrival_time, job.deadline) == (0.0, 5.0)
    assert ServeJob(job=JOB, arrival_time=2.5).deadline is None
