r"""The schedules did not move — as a red/green fact.

One SHA-256 over ``schedule_to_json`` of the seven subgraphs and the unique
subprograms of bert-128 and t5-128, compiled for AMPERE and VOLTA (54
schedules): search spaces, chosen configs, memory levels and UTA plans are
all in that JSON, so any compile-path change that alters a decision — or
the order of a search space — turns this red.  A PR that is *meant* to
move schedules regenerates the pin from the repository root and says why:

    PYTHONPATH=src python -c "from tests.test_schedule_pin import \
        schedules_digest as d; print(d())"

and pastes the result into ``PINNED``.  The value below was computed on
the parent of the PR that added this test (c10fa2c), before its change.
"""

import hashlib

from repro.core.serialize import schedule_to_json
from repro.hw import AMPERE, VOLTA
from repro.models import build_model
from repro.pipeline import compile_for, compile_model_for
from tests.core.test_resources import SUBGRAPHS

PINNED = "75678ad0bcba0ce60d1bc3625ea4d9d1b0363e641ef3013337e42be6ae8f60be"


def schedules_digest() -> str:
    digest = hashlib.sha256()
    for gpu in (AMPERE, VOLTA):
        for build in SUBGRAPHS.values():
            digest.update(schedule_to_json(compile_for(build(), gpu)[0])
                          .encode())
        for name in ("bert", "t5"):
            model = compile_model_for(build_model(name, 1, seq=128), gpu)
            for sub in model.subprograms:
                digest.update(schedule_to_json(sub.schedule).encode())
    return digest.hexdigest()


def test_schedules_are_the_pinned_ones():
    assert schedules_digest() == PINNED
