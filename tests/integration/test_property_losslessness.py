"""Property test: arbitrary disturbance interleavings stay lossless.

Hypothesis drives an elastic numeric fleet through randomized schedules
of offers, preemptions (policy-driven evictions plus explicit
eject-and-hold "bounces"), cross-pipeline migrations, and **scale
events** -- pipelines joining mid-run, graceful retirements, and spot
reclamations that evacuate a pipeline wholesale -- at arbitrary points
of the serving loop.  Whatever the interleaving, every surviving
tenant's final adapter weights must be **identical (atol=0)** to
sequential solo training -- the paper's losslessness guarantee lifted to
the full online/SLO/migration/autoscaling machinery -- and replaying
the same interleaving must reproduce byte-identical job records.

The deterministic acceptance tests
(``test_online_losslessness.py``, ``test_migration_losslessness.py``,
``test_preemption_losslessness.py``) pin specific scenarios; this test
searches the interleaving space around them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import train_job_sequentially
from repro.core.lora import LoRAConfig
from repro.data.dataset import FinetuneDataset, Sample
from repro.models import TINY, TinyLoRATransformer
from repro.runtime import MultiLoRAEngine, NumericJob
from repro.scheduler import AdapterJob, SchedulerConfig
from repro.serve import (
    NumericExecutor,
    OnlineOrchestrator,
    OrchestratorConfig,
    PriorityOrdering,
    ServeJob,
    SlotAdmission,
)
from tests.helpers import fingerprint

MODEL_SEED = 23
MAX_ITERATIONS = 500
#: Pipelines a scenario may grow to (each join builds a full model).
MAX_PIPELINES = 4


def make_serve_job(adapter_id, num_samples, rank, arrival, priority):
    rng = np.random.default_rng(100 + adapter_id)
    streams = [
        rng.integers(0, TINY.vocab_size, int(rng.integers(5, 12)))
        for _ in range(num_samples)
    ]
    numeric = NumericJob(
        adapter_id=adapter_id,
        lora=LoRAConfig(rank=rank, alpha=1.0, dropout=0.0,
                        adapter_id=adapter_id),
        token_streams=streams,
        global_batch_size=2,
    )
    dataset = FinetuneDataset(
        adapter_id,
        [Sample(adapter_id, i, len(t)) for i, t in enumerate(streams)],
    )
    return ServeJob(
        job=AdapterJob(adapter_id, dataset, 2),
        arrival_time=arrival,
        numeric=numeric,
        priority=priority,
    )


def make_orchestrator(model):
    engine = MultiLoRAEngine(model, exact_accumulation=True)
    config = OrchestratorConfig(
        scheduler=SchedulerConfig(capacity=64, padding_multiple=1,
                                  num_stages=2, use_milp=False,
                                  group_size=2),
        window_batches=1,
        admission=SlotAdmission(2),
        ordering=PriorityOrdering(),
        mid_wave_admission=True,
    )
    return OnlineOrchestrator(NumericExecutor(engine), config)


job_spec = st.tuples(
    st.integers(min_value=4, max_value=8),   # samples
    st.sampled_from([2, 3]),                 # rank
    st.sampled_from([0.0, 1.0, 2.0]),        # arrival
    st.integers(min_value=0, max_value=1),   # priority
)

action_spec = st.tuples(
    st.integers(min_value=0, max_value=3),   # loop iterations to wait
    st.integers(min_value=0, max_value=2),   # job index (mod num_jobs)
    st.sampled_from(
        ["migrate", "bounce", "join", "retire", "reclaim"]
    ),
)


def run_scenario(specs, actions, hold):
    """Serve the workload under the given disturbance schedule.

    Returns ``(models, records, owner)``: every model ever in the fleet
    (retired pipelines keep the weights of the jobs that finished on
    them), the merged job records, and each tenant's final pipeline.
    """
    workload = [
        make_serve_job(aid, samples, rank, arrival, priority)
        for aid, (samples, rank, arrival, priority) in enumerate(specs)
    ]
    models = [
        TinyLoRATransformer(TINY, np.random.default_rng(MODEL_SEED))
        for _ in range(2)
    ]
    orchestrators = [make_orchestrator(model) for model in models]
    orchestrators[0].start(workload)  # every tenant lands on pipeline 0
    orchestrators[1].start([])
    alive = {0, 1}
    owner = {job.adapter_id: 0 for job in workload}

    queue = list(actions)
    countdown = queue[0][0] if queue else None
    held = []  # (ticket, release_at_iteration)

    def movable(orchestrator, adapter_id):
        return any(
            aid == adapter_id for aid, *_ in orchestrator.migratable_jobs()
        )

    def try_inject(ticket):
        """Place a ticket on whichever *alive* pipeline can take it."""
        for index in sorted(alive):
            orchestrator = orchestrators[index]
            if ticket.payload is None or orchestrator.slots_free != 0:
                orchestrator.inject_job(ticket)
                owner[ticket.adapter_id] = index
                return True
        return False

    def evacuate(index):
        """Empty pipeline ``index`` losslessly and take it out of the
        fleet -- the shared spine of graceful retirement and
        reclamation: flush to a step boundary, eject everything
        unfinished, re-place or hold each ticket."""
        alive.discard(index)  # before placement: never a target again
        source = orchestrators[index]
        source.flush()
        for adapter_id in sorted(
            aid for aid, *_ in source.migratable_jobs()
        ):
            ticket = source.eject_job(adapter_id)
            owner[adapter_id] = None
            if not try_inject(ticket):
                held.append((ticket, iteration + 1))
        assert not source.has_work()  # evacuation is total

    iteration = 0
    while (
        any(orchestrators[i].has_work() for i in alive) or held
    ) and iteration < MAX_ITERATIONS:
        iteration += 1
        still_held = []
        for ticket, release_at in held:
            if iteration < release_at or not try_inject(ticket):
                still_held.append((ticket, release_at))
        held = still_held
        for index in sorted(alive):
            if orchestrators[index].has_work():
                orchestrators[index].step()
        if countdown is None:
            continue
        if countdown > 0:
            countdown -= 1
            continue
        _, job_index, kind = queue.pop(0)
        countdown = queue[0][0] if queue else None
        if kind == "join":
            if len(orchestrators) < MAX_PIPELINES:
                model = TinyLoRATransformer(
                    TINY, np.random.default_rng(MODEL_SEED)
                )
                orchestrator = make_orchestrator(model)
                orchestrator.start([])
                models.append(model)
                orchestrators.append(orchestrator)
                alive.add(len(orchestrators) - 1)
            continue
        if kind == "reclaim":
            # A provider takes the newest pipeline back (mirroring
            # newest-first spot victim selection); the last alive
            # pipeline always survives.
            if len(alive) > 1:
                evacuate(max(alive))
            continue
        adapter_id = workload[job_index % len(workload)].adapter_id
        source_index = owner.get(adapter_id)
        if source_index is None:
            continue  # currently held as a ticket
        if kind == "retire":
            # Gracefully drain the chosen job's pipeline out of the
            # fleet (never the last one; finished tenants' weights stay
            # on its model).
            if source_index in alive and len(alive) > 1:
                evacuate(source_index)
            continue
        source = orchestrators[source_index]
        if not movable(source, adapter_id):
            continue
        ticket = source.eject_job(adapter_id)
        owner[adapter_id] = None
        if kind == "migrate":
            if not try_inject(ticket):
                held.append((ticket, iteration + 1))
        else:  # bounce: hold the ticket, resume later
            held.append((ticket, iteration + hold))

    assert not held, "tickets never re-injected (scheduler wedged?)"
    records = {}
    for index, orchestrator in enumerate(orchestrators):
        result = orchestrator.finish()
        if index in alive:
            assert result.violations == 0
        records.update(result.records)
    return workload, models, records, owner


@pytest.mark.slow
@settings(max_examples=12, deadline=None)
@given(
    specs=st.lists(job_spec, min_size=2, max_size=3),
    actions=st.lists(action_spec, min_size=0, max_size=6),
    hold=st.integers(min_value=1, max_value=4),
)
def test_interleaved_disturbances_preserve_losslessness(specs, actions, hold):
    workload, models, records, owner = run_scenario(specs, actions, hold)

    # Replaying the same interleaving reproduces the records exactly --
    # scale events included, the system stays deterministic.
    _, _, replay_records, _ = run_scenario(specs, actions, hold)
    assert fingerprint(replay_records) == fingerprint(records)

    for serve_job in workload:
        record = records[serve_job.adapter_id]
        assert record.finish_time is not None
        reference = TinyLoRATransformer(TINY, np.random.default_rng(MODEL_SEED))
        train_job_sequentially(reference, serve_job.numeric)
        final_model = models[owner[serve_job.adapter_id]]
        online = final_model.adapter_state(serve_job.adapter_id)
        solo = reference.adapter_state(serve_job.adapter_id)
        for key in online:
            np.testing.assert_array_equal(online[key].a, solo[key].a)
            np.testing.assert_array_equal(online[key].b, solo[key].b)
