"""leon_ctrl: the control state machine and disconnect circuitry (paper
§3.1, Figures 5 and 6).

Responsibilities, exactly as the paper divides them:

* **Disconnect circuitry** (:class:`GatedSram`) — a mux between the LEON
  processor and main memory.  While disconnected, LEON's data bus is
  driven with zeros (reads return 0, writes are swallowed), so the boot
  ROM's polling loop keeps reading a zero mailbox.
* **Bus snooping** — leon_ctrl watches LEON's address bus.  Fetching the
  polling-loop head means LEON is parked (program finished or never
  started); fetching the error-state address means a trap fell through to
  the error handler, and an error packet must be emitted (§4.1).
* **Program dispatch** — after the user loads a program (written straight
  into SRAM through the host side of the mux), leon_ctrl writes the start
  address into the mailbox word, reconnects LEON, and arms the cycle
  counter.  When LEON returns to the polling loop, it disconnects again,
  freezes the counter and clears the mailbox so the program does not
  immediately re-execute.
"""

from __future__ import annotations

from typing import Callable

from repro.mem.sram import SramBank
from repro.net.protocol import (
    LeonState,
    LoadChunk,
    ProgramAssembler,
)
from repro.peripherals.cycle_counter import CycleCounter

ERROR_TRAP_FELL_THROUGH = 0x01
ERROR_BAD_READ = 0x02
ERROR_NOT_LOADED = 0x03


class GatedSram:
    """AHB-slave wrapper implementing the Figure 6 mux.

    When ``connected`` is False, processor-side reads return zero and
    writes vanish (the circuit "always drive[s] 0s on the LEON
    processor's data bus"); host-side access through the underlying
    :class:`~repro.mem.sram.SramBank` is unaffected.
    """

    def __init__(self, sram: SramBank):
        self.sram = sram
        self.connected = True
        self.blocked_reads = 0
        self.blocked_writes = 0

    def read(self, address: int, size: int) -> tuple[int, int]:
        if not self.connected:
            self.blocked_reads += 1
            return 0, self.sram.wait_states
        return self.sram.read(address, size)

    def write(self, address: int, size: int, value: int) -> int:
        if not self.connected:
            self.blocked_writes += 1
            return self.sram.wait_states
        return self.sram.write(address, size, value)

    def read_burst(self, address: int, nwords: int) -> tuple[list[int], int]:
        if not self.connected:
            self.blocked_reads += nwords
            return [0] * nwords, self.sram.wait_states * nwords
        return self.sram.read_burst(address, nwords)


class LeonController:
    """The leon_ctrl entity: command execution + LEON supervision.

    Wire :meth:`snoop_fetch` to the integer unit's ``on_fetch`` hook.
    Event callbacks (``on_error``, ``on_done``) feed the packet generator.
    """

    def __init__(
        self,
        gate: GatedSram,
        cycle_counter: CycleCounter,
        poll_address: int,
        error_address: int,
        mailbox_address: int,
        flush_caches: Callable[[], None] | None = None,
        extra_memories: list | None = None,
    ):
        self.gate = gate
        # Host-addressable memories beyond SRAM (the FPX SDRAM, through
        # its dedicated arbiter port): lets Load Program / Read Memory
        # target SDRAM — the paper's in-development path for loading
        # larger payloads ("such as Linux") there.
        self.extra_memories = list(extra_memories or [])
        self.cycle_counter = cycle_counter
        self.poll_address = poll_address
        self.error_address = error_address
        self.mailbox_address = mailbox_address
        self.flush_caches = flush_caches
        self.assembler = ProgramAssembler()
        self.state = LeonState.RESET
        self.loaded_base: int | None = None
        self.last_entry: int | None = None
        # True once LEON has been observed fetching the dispatched
        # program's entry point.  Until then, fetches of the polling-loop
        # head just mean the processor hasn't picked up the mailbox yet —
        # not that the program finished.
        self._dispatched = False
        self.programs_run = 0
        self.error_code: int | None = None
        self.on_done: Callable[[int], None] | None = None   # cycles
        self.on_error: Callable[[int], None] | None = None  # error code

    # ------------------------------------------------------------------
    # Bus snooping (wired to IntegerUnit.on_fetch)
    # ------------------------------------------------------------------

    def snoop_fetch(self, pc: int) -> None:
        if self.state == LeonState.RUNNING and not self._dispatched:
            if pc == self.last_entry:
                self._dispatched = True
            return
        if pc == self.poll_address:
            if self.state == LeonState.RUNNING:
                # Program returned to the polling loop: it is done.
                cycles = self.cycle_counter.freeze()
                self.gate.connected = False
                self.gate.sram.host_write_word(self.mailbox_address, 0)
                self.state = LeonState.DONE
                if self.on_done is not None:
                    self.on_done(cycles)
            elif self.state == LeonState.RESET:
                # Boot completed; park disconnected until a program loads.
                self.gate.connected = False
                self.state = LeonState.POLLING
        elif pc == self.error_address and self.state != LeonState.ERROR:
            self.enter_error(ERROR_TRAP_FELL_THROUGH)

    def enter_error(self, code: int) -> None:
        """The error state: stop the counter and report *code*."""
        self.state = LeonState.ERROR
        self.error_code = code
        self.cycle_counter.freeze()
        if self.on_error is not None:
            self.on_error(code)

    # ------------------------------------------------------------------
    # Command execution (driven by the Control Packet Processor)
    # ------------------------------------------------------------------

    def _host_memory_for(self, address: int):
        """SRAM by default; an extra memory (SDRAM) when it owns *address*."""
        for memory in self.extra_memories:
            if memory.base <= address < memory.base + memory.size:
                return memory
        return self.gate.sram

    def handle_load_chunk(self, chunk: LoadChunk) -> tuple[int, int]:
        """Write one program chunk into main memory (SRAM or SDRAM);
        returns (received, total)."""
        if self.state in (LeonState.POLLING, LeonState.DONE, LeonState.ERROR):
            self.state = LeonState.LOADING
            self.assembler.reset()
        self.assembler.add(chunk)
        self._host_memory_for(chunk.address).host_write(chunk.address,
                                                        chunk.data)
        if self.assembler.complete:
            self.loaded_base = self.assembler.base_address()
        return self.assembler.received, self.assembler.total or 0

    def start(self, entry: int = 0) -> int | None:
        """Dispatch the loaded program; returns the entry address used,
        or None if nothing is loaded."""
        if self.state == LeonState.RUNNING:
            # Duplicate START (UDP may deliver a command twice, and the
            # control software retries): acknowledge without disturbing
            # the run in progress.
            return self.last_entry
        if entry == 0:
            if self.loaded_base is None:
                self.error_code = ERROR_NOT_LOADED
                return None
            entry = self.loaded_base
        # Re-running an already-loaded program is allowed ("or the user
        # sends a command to re-execute a program already loaded").
        if self.flush_caches is not None:
            self.flush_caches()
        self.gate.sram.host_write_word(self.mailbox_address, entry)
        self.gate.connected = True
        self.cycle_counter.arm()
        self._dispatched = False
        self.state = LeonState.RUNNING
        self.last_entry = entry
        self.programs_run += 1
        return entry

    def read_memory(self, address: int, length: int) -> bytes | None:
        """Host-side memory read for the Read Memory command."""
        try:
            return self._host_memory_for(address).host_read(address, length)
        except Exception:
            self.error_code = ERROR_BAD_READ
            return None

    def status(self) -> tuple[LeonState, int]:
        return self.state, self.cycle_counter.value()

    def reset(self) -> None:
        """Restart command: back to the post-power-on state.  The gate is
        reconnected so the boot code can run; it disconnects again when
        the polling loop is reached.  Loaded-program state is discarded."""
        self.state = LeonState.RESET
        self.gate.connected = True
        self._dispatched = False
        self.assembler.reset()
        self.loaded_base = None
        self.error_code = None
        self.cycle_counter.freeze()
