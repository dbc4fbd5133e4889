"""The recording engine's step stream is pinned: every column of each
kernel's :class:`~repro.cpu.blockcache.Recording` must hash to the
digests committed in ``recordings.json``.

A failure means the translated engine now groups, orders or fetches
steps differently — a block event split or merged, a data reference
moved, a translation read at another moment.  Replayed timing may still
agree, but the recording is no longer the parent's; regenerate the file
(``PYTHONPATH=src python -m tests.golden.recordings``) only when that is
the intent, and say why in the change log.
"""

from __future__ import annotations

import json

from tests.golden.recordings import GOLDEN, digests


def test_every_recording_column_matches_its_digest():
    expected = json.loads(GOLDEN.read_text())
    actual = digests()
    assert sorted(actual) == sorted(expected)
    for kernel, columns in expected.items():
        assert actual[kernel] == columns, kernel
