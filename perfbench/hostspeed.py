"""Host-speed calibration for a shared, noisy machine.

On a host whose cores are shared with other tenants, the same pass can
take 3.3 s in one minute and 6.5 s in the next; wall time alone cannot
gate a change.  :class:`HostSampler` measures host speed *while* the
work runs: an interval timer interrupts the main thread every
:data:`INTERVAL_S` and times one fixed quantum of reference work,
alternating between two kinds:

* an *object* quantum — a tiny cache model over 64 entries, which
  slows down more than the simulator when a neighbour competes for the
  core;
* a *machine* quantum — a small fetch/decode/execute loop over a 1 MB
  memory, which slows down less.

The samples' own time is taken out of the measured interval, and the
rest is divided by the mean slowdown of the two kinds against their
time on a quiet host (:data:`QUIET_S`), giving *reference seconds*:
about what the work takes on a quiet host.

The quanta are benchmark code, so a change to the simulator cannot
speed them up.
"""

from __future__ import annotations

import random
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: Seconds between host-speed samples.
INTERVAL_S = 0.05
#: Mean seconds each quantum takes, interrupting the simulator, on a
#: quiet 2-vCPU x86-64 host (Python 3.11).
QUIET_S = {"object": 0.00077, "machine": 0.00063}


class _Line:
    __slots__ = ("tag", "hits")

    def __init__(self, tag: int):
        self.tag = tag
        self.hits = 0


def object_quantum() -> float:
    """Seconds for a direct-mapped cache model fed 1 500 addresses."""
    start = time.perf_counter()
    lines: dict[int, _Line] = {}
    x = 12345
    for _ in range(1_500):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        index, tag = (x >> 5) & 63, (x >> 11) & 0x1F
        line = lines.get(index)
        if line is None or line.tag != tag:
            lines[index] = _Line(tag)
        else:
            line.hits += 1
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds for 25 object quanta (~20 ms): a fixed pure-Python loop
    timed before each pass, recorded as ``host.calib_s``."""
    return sum(object_quantum() for _ in range(25))


class _Machine:
    """A toy register machine over a 1 MB memory, stepping a fixed
    pseudo-random program: fetch, memoised decode, execute."""

    def __init__(self):
        rng = random.Random(7)
        self.memory = bytearray(rng.randbytes(1 << 20))
        self.program = [rng.randrange(1 << 32) for _ in range(4096)]
        self.regs = [0] * 32
        self.decoded: dict[int, tuple] = {}
        self.tags: dict[int, int] = {}
        self.pc = 0
        for _ in self.program:  # decode the whole program once
            self.step()

    def decode(self, word: int) -> tuple:
        fields = self.decoded.get(word)
        if fields is None:
            fields = self.decoded[word] = (
                word >> 30, (word >> 25) & 31, (word >> 20) & 31,
                word & 0xFFFFC)
        return fields

    def load(self, address: int) -> int:
        index = (address >> 5) & 255
        if self.tags.get(index) != address >> 13:
            self.tags[index] = address >> 13
        return int.from_bytes(self.memory[address:address + 4], "big")

    def step(self) -> None:
        kind, rd, rs, imm = self.decode(self.program[self.pc])
        self.pc = (self.pc + 1) & 4095
        regs = self.regs
        if kind == 0:
            regs[rd] = (regs[rs] + imm) & 0xFFFFFFFF
        elif kind == 1:
            regs[rd] = self.load((regs[rs] ^ imm) & 0xFFFFC)
        elif kind == 2:
            regs[rd] = (regs[rs] ^ (imm << 3)) & 0xFFFFFFFF
        else:
            self.memory[imm:imm + 4] = regs[rs].to_bytes(4, "big")
        regs[0] = 0

    def quantum(self) -> float:
        """Seconds for 700 steps."""
        start = time.perf_counter()
        step = self.step
        for _ in range(700):
            step()
        return time.perf_counter() - start


@dataclass
class Measurement:
    #: Host seconds of the work, sampling time excluded.
    net_s: float = 0.0
    #: Mean slowdown of the quanta against a quiet host (1.0 = quiet).
    slowdown: float = 1.0

    @property
    def reference_s(self) -> float:
        """The work's seconds at quiet-host speed."""
        return self.net_s / self.slowdown


class HostSampler:
    """``with sampler.measure() as m: work()`` fills ``m`` on exit."""

    def __init__(self):
        machine = _Machine()
        self._quanta = {"object": object_quantum,
                        "machine": machine.quantum}
        self._spent: dict[str, list[float]] = {}
        self._sampled_ns = 0

    def _sample(self, signum=None, frame=None) -> None:
        kind = min(self._spent, key=lambda k: len(self._spent[k]))
        seconds = self._quanta[kind]()
        self._spent[kind].append(seconds)
        self._sampled_ns += int(seconds * 1e9)

    def clock_ns(self) -> int:
        """``perf_counter_ns`` minus all time spent in quanta, so that
        spans timed with it exclude the sampling."""
        return time.perf_counter_ns() - self._sampled_ns

    @contextmanager
    def measure(self):
        self._spent = {kind: [] for kind in self._quanta}
        measurement = Measurement()
        previous = signal.signal(signal.SIGALRM, self._sample)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield measurement
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            elapsed = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
            inside = sum(sum(times) for times in self._spent.values())
            while not all(self._spent.values()):  # shorter than 2 ticks
                self._sample()
            measurement.net_s = elapsed - inside
            measurement.slowdown = sum(
                sum(times) / len(times) / QUIET_S[kind]
                for kind, times in self._spent.items()) / len(self._spent)
