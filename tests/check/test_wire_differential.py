"""Three-way wire-mode differential: text, binary and pipelined replay
bit-identically.

Thin pytest wrapper over :mod:`repro.check.wire` — the same harness
``repro-check differential`` runs.  Each script boots a fresh served
stack per wire mode and compares the full normalised lock trace plus
every response string; any divergence raises CheckError with the first
differing event.
"""

import pytest

from repro.check.wire import (
    SCRIPTS,
    WIRE_MODES,
    assert_wire_modes_agree,
    wire_fingerprints,
)


@pytest.mark.parametrize("script", list(SCRIPTS))
def test_wire_modes_replay_identically(script):
    fingerprints = wire_fingerprints(script)
    events = assert_wire_modes_agree(fingerprints, script=script)
    assert events > 0
    assert list(fingerprints) == list(WIRE_MODES)


def test_divergence_is_reported():
    fingerprints = wire_fingerprints("partlib", modes=("text", "binary"))
    broken = dict(fingerprints)
    events, responses = broken["binary"]
    broken["binary"] = (events, responses[:-1] + ("ERR TAMPERED",))
    from repro.errors import CheckError

    with pytest.raises(CheckError, match="diverge.*partlib"):
        assert_wire_modes_agree(broken, script="partlib")
