"""Golden corpus: every pinned fleet scenario replays to its digests.

``tests/golden/fleet_corpus.json`` pins, per scenario of
``tests/golden/scenarios.py``, a sha256 of the per-job records and of
the per-replica fingerprint plus the per-kind event counts.  The
equivalence suite only catches a change that makes the event loop and
the lockstep reference *differ*; this corpus also catches drift that
changes both the same way, and pins the elastic and gateway paths the
reference cannot run at all.  Regenerate only for an intended behaviour
change (``scripts/gen_golden_corpus.py``).
"""

import json
from pathlib import Path

import pytest

from tests.golden.scenarios import SCENARIOS, entry

CORPUS = json.loads(
    (Path(__file__).resolve().parents[1] / "golden/fleet_corpus.json").read_text()
)["scenarios"]


def test_corpus_covers_every_scenario():
    assert sorted(CORPUS) == sorted(s.name for s in SCENARIOS)
    assert len(CORPUS) >= 12


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_scenario_replays_its_digests(scenario):
    assert entry(*scenario.run()) == CORPUS[scenario.name]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_every_rebalance_event_continues_a_pass_that_acted(name):
    # A pass's first check runs in the pump, not as an event; only a
    # migration or a drain posts the REBALANCE that checks again.
    events = CORPUS[name]["events_processed"]
    acted = events.get("MIGRATION", 0) + events.get("FLUSH", 0)
    assert events.get("REBALANCE", 0) == acted
