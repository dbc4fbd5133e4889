"""Golden digests of the recording engine's step stream.

A :class:`~repro.cpu.blockcache.Recording` is what every exact and
sampled sweep replays, so how the translated engine groups steps into
block executions is part of the record, not an engine detail.  This
module pins the sha256 of each of its columns for every registry kernel
(``fir_stream`` and ``xtea_stream`` included), recorded whole on the
default configuration, plus one ``xtea_stream`` recording stopped at
sampled-window style marks, which ends step budgets mid-loop.

Regenerate ``recordings.json`` only for an intended change to the step
stream, and say why in the change log::

    PYTHONPATH=src python -m tests.golden.recordings
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.core import ArchitectureConfig
from repro.core.replay import record
from repro.workloads import all_workloads, get

GOLDEN = Path(__file__).with_name("recordings.json")

#: Recording budget: far above any kernel's step count.
MAX_INSTRUCTIONS = 50_000_000
#: Program steps the marked recording stops at.
MARKS = (1, 997, 5_000, 40_003, 123_457, 600_001)

_COLUMNS = ("events", "refs", "step_pcs", "step_words", "iflushes",
            "code_lo", "code_hi", "code_at")


def _digest_array(values) -> str:
    if sys.byteorder != "little":
        values = type(values)(values.typecode, values)
        values.byteswap()
    return hashlib.sha256(values.tobytes()).hexdigest()


def recording_digests(recorded) -> dict[str, str]:
    """sha256 per column of *recorded*'s recording, its blocks as
    ``(entry, words)`` and its window, instruction count and marks."""
    recording = recorded.recording
    out = {name: _digest_array(getattr(recording, name))
           for name in _COLUMNS}
    blocks = "\n".join(
        f"{block.entry:08x}:" + ",".join(f"{inst.word:08x}"
                                          for inst in block.insts)
        for block in recording.blocks)
    out["blocks"] = hashlib.sha256(blocks.encode()).hexdigest()
    summary = json.dumps({"window": list(recorded.window),
                          "instructions": recorded.instructions,
                          "marks": {str(step): list(mark) for step, mark
                                    in sorted(recorded.marks.items())}},
                         sort_keys=True)
    out["summary"] = hashlib.sha256(summary.encode()).hexdigest()
    return out


def kernels() -> list:
    return [*all_workloads(), get("fir_stream"), get("xtea_stream")]


def digests() -> dict[str, dict[str, str]]:
    config = ArchitectureConfig()
    out = {kernel.name: recording_digests(
               record(config, kernel.image(), MAX_INSTRUCTIONS))
           for kernel in kernels()}
    out["xtea_stream/marked"] = recording_digests(
        record(config, get("xtea_stream").image(), MAX_INSTRUCTIONS,
               marks=MARKS))
    return out


def main() -> None:
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
