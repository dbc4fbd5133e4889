"""Architectural state checkpointing for the two-speed execution engine.

An :class:`ArchState` is everything the *architecture* defines about a
running Liquid processor system: register file (all windows), control
registers (PSR/WIM/TBR/Y), ancillary state registers, PC/nPC/annul, the
full memory image and the peripherals' observable state.  Caches and
their replacement generators are not part of it: a restored window
starts from :meth:`~repro.core.sim.Simulator._normalize_window_start`,
which reseeds them.

Capture from one simulator, restore into another (with the same
architectural shape), and execution continues exactly where it left
off — that is how :class:`~repro.core.sampling.SampledRunner`, where
a window cannot be replayed, starts it on the cycle-accurate engine
from its own checkpoint.  Equality compares every field, so the
differential test suite can assert ``capture(fast) == capture(accurate)``
directly.

The host a state is captured on talks a small protocol rather than a
concrete class: it must expose ``cpu`` (an engine with the IntegerUnit's
architectural attributes), ``fast_instret`` (instructions retired by
engines other than ``cpu``), ``checkpoint_memory()`` (name → bytearray)
and ``checkpoint_peripherals()`` (name → device with ``state()`` /
``load_state()``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ArchState"]


@dataclass(eq=True)
class ArchState:
    """One checkpoint of the architectural machine."""

    nwindows: int
    pc: int
    npc: int
    annul: bool
    halted: bool
    error_tt: int | None
    psr: int
    wim: int
    tbr: int
    y: int
    cwp: int
    globals_: tuple[int, ...]
    window_regs: tuple[int, ...]
    asr: dict
    #: Instructions retired to reach this state (both engines combined).
    retired: int
    traps_taken: int
    #: Region name -> raw bytes (e.g. ``{"sram": ...}``).
    memory: dict
    #: Device name -> that device's ``state()`` dict.
    peripherals: dict

    @classmethod
    def capture(cls, sim, engine=None) -> "ArchState":
        """Snapshot *sim*'s architectural state.

        *engine* names an alternative executor to read the private
        per-engine fields (PC/nPC/annul, halt state, retirement and trap
        counters) from — e.g. a functional or translated unit mid
        fast-forward, whose registers/control/ASRs are shared with
        ``sim.cpu`` by reference but whose position is its own.  With an
        explicit engine the retired count is the engine's alone (it
        executed everything); without one it is ``cpu.instret`` plus the
        host's already-folded ``fast_instret`` share.
        """
        cpu = engine if engine is not None else sim.cpu
        extra = 0 if engine is not None else sim.fast_instret
        regs = cpu.regs.state()
        return cls(
            nwindows=cpu.regs.nwindows,
            pc=cpu.pc,
            npc=cpu.npc,
            annul=cpu.annul,
            halted=cpu.halted,
            error_tt=cpu.error_tt,
            psr=cpu.ctrl.psr,
            wim=cpu.ctrl.wim,
            tbr=cpu.ctrl.tbr,
            y=cpu.ctrl.y,
            cwp=regs["cwp"],
            globals_=tuple(regs["globals"]),
            window_regs=tuple(regs["window_regs"]),
            asr=dict(cpu.asr),
            retired=cpu.instret + extra,
            traps_taken=cpu.trap_count,
            memory={name: bytes(buffer)
                    for name, buffer in sim.checkpoint_memory().items()},
            peripherals={name: device.state()
                         for name, device
                         in sim.checkpoint_peripherals().items()},
        )

    def restore(self, sim) -> None:
        """Load this state into *sim* (same architectural shape)."""
        cpu = sim.cpu
        cpu.regs.load_state({"nwindows": self.nwindows, "cwp": self.cwp,
                             "globals": list(self.globals_),
                             "window_regs": list(self.window_regs)})
        cpu.ctrl.load_state({"psr": self.psr, "wim": self.wim,
                             "tbr": self.tbr, "y": self.y})
        cpu.pc = self.pc
        cpu.npc = self.npc
        cpu.annul = self.annul
        cpu.halted = self.halted
        cpu.error_tt = self.error_tt
        cpu.asr.clear()
        cpu.asr.update(self.asr)
        # The capture read instret + the host's fast_instret as one
        # combined count; put it all on the engine and zero the host's
        # share so a re-capture reports the same total.
        cpu.instret = self.retired
        cpu.trap_count = self.traps_taken
        sim.fast_instret = 0
        buffers = sim.checkpoint_memory()
        for name, blob in self.memory.items():
            buffer = buffers[name]
            if len(blob) != len(buffer):
                raise ValueError(
                    f"memory region '{name}' is {len(buffer)} bytes here, "
                    f"checkpoint has {len(blob)}")
            buffer[:] = blob
        devices = sim.checkpoint_peripherals()
        for name, state in self.peripherals.items():
            devices[name].load_state(state)
