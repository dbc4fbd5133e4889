"""Timing is pinned: the records of three fixed sweeps (two full-detail,
one sampled) must hash to the committed digests in ``records.json``.

A failure here means cycles, cache statistics, the instruction mix or
the obs snapshot of some point moved.  If that was the intent,
regenerate the file (``PYTHONPATH=src python -m tests.golden.regen``)
and explain the drift in the change log; otherwise it is a regression.
"""

from __future__ import annotations

import json

from tests.golden.regen import GOLDEN, digests


def test_records_match_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    actual = digests()
    assert actual["fig8"] == expected["fig8"]
    assert actual["matrix"] == expected["matrix"]
    assert actual["sampled"] == expected["sampled"]
