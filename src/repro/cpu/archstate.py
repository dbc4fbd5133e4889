"""Architectural state checkpointing for the two-speed execution engine.

An :class:`ArchState` is everything the *architecture* defines about a
running Liquid processor system: register file (all windows), control
registers (PSR/WIM/TBR/Y), ancillary state registers, PC/nPC/annul, the
full memory image and the peripherals' observable state — plus the
deterministic RNG cursors of any seeded micro-architectural machinery,
so a restored run replays the original bit-for-bit.

Capture from one simulator, restore into another (with the same
architectural shape), and execution continues exactly where it left
off — that is how :class:`~repro.core.sampling.SampledRunner`, where
a window cannot be replayed, starts it on the cycle-accurate engine
from its own checkpoint.

Equality compares only *architectural* fields — the clock and the RNG
cursors are timing machinery, excluded via ``compare=False`` — so the
differential test suite can assert ``capture(fast) == capture(accurate)``
directly.

The host a state is captured on talks a small protocol rather than a
concrete class: it must expose ``cpu`` (an engine with the IntegerUnit's
architectural attributes), ``fast_instret`` (instructions retired by
engines other than ``cpu``), ``checkpoint_memory()`` (name → bytearray),
``checkpoint_peripherals()`` (name → device with ``state()`` /
``load_state()``), ``checkpoint_rngs()`` (name → object with
``rng_state()`` / ``load_rng_state()``) and a ``clock``.
"""

from __future__ import annotations

import base64
import hashlib
import json
import zlib
from dataclasses import dataclass, field

from repro.utils import u32

__all__ = ["ArchState", "PAYLOAD_SCHEMA"]

#: Bumped whenever the serialized payload layout changes; stale payloads
#: are rejected by :meth:`ArchState.from_payload`.
PAYLOAD_SCHEMA = 1


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
    #: Micro-architectural, excluded from equality: the shared clock and
    #: the deterministic RNG cursors (cache replacement LFSRs).
    clock_cycles: int = field(default=0, compare=False)
    rng: dict = field(default_factory=dict, compare=False)

    # ------------------------------------------------------------------
    # Capture / restore
    # ------------------------------------------------------------------

    @classmethod
    def capture(cls, sim, engine=None) -> "ArchState":
        """Snapshot *sim*'s architectural state (plus RNG cursors).

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
            clock_cycles=sim.clock.cycles,
            rng={name: source.rng_state()
                 for name, source in sim.checkpoint_rngs().items()},
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
        sim.clock.cycles = self.clock_cycles
        sources = sim.checkpoint_rngs()
        for name, state in self.rng.items():
            if name in sources:
                sources[name].load_rng_state(state)

    # ------------------------------------------------------------------
    # Serialization (digests, JSON round trips)
    # ------------------------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-able dict (memory zlib-compressed + base64)."""
        return {
            "schema": PAYLOAD_SCHEMA,
            "nwindows": self.nwindows,
            "pc": self.pc, "npc": self.npc, "annul": self.annul,
            "halted": self.halted, "error_tt": self.error_tt,
            "psr": self.psr, "wim": self.wim, "tbr": self.tbr, "y": self.y,
            "cwp": self.cwp,
            "globals": list(self.globals_),
            "window_regs": list(self.window_regs),
            "asr": {str(k): v for k, v in sorted(self.asr.items())},
            "retired": self.retired,
            "traps_taken": self.traps_taken,
            "memory": {
                name: base64.b64encode(zlib.compress(blob, 6)).decode("ascii")
                for name, blob in sorted(self.memory.items())
            },
            "peripherals": self.peripherals,
            "clock_cycles": self.clock_cycles,
            "rng": _rng_to_json(self.rng),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ArchState":
        """Rebuild a state from :meth:`to_payload`'s output.  Anything
        else — a stale schema, a missing or mistyped field, a truncated
        or corrupt memory blob — raises :class:`ValueError`, and only
        that."""
        schema = payload.get("schema") if isinstance(payload, dict) else None
        if schema != PAYLOAD_SCHEMA:
            raise ValueError(
                f"unsupported ArchState payload schema "
                f"{schema!r} (want {PAYLOAD_SCHEMA})")
        try:
            return cls(
                nwindows=payload["nwindows"],
                pc=payload["pc"], npc=payload["npc"], annul=payload["annul"],
                halted=payload["halted"], error_tt=payload["error_tt"],
                psr=payload["psr"], wim=payload["wim"], tbr=payload["tbr"],
                y=payload["y"],
                cwp=payload["cwp"],
                globals_=tuple(payload["globals"]),
                window_regs=tuple(payload["window_regs"]),
                asr={int(k): v for k, v in payload["asr"].items()},
                retired=payload["retired"],
                traps_taken=payload["traps_taken"],
                memory={name: zlib.decompress(base64.b64decode(blob))
                        for name, blob in payload["memory"].items()},
                peripherals=payload["peripherals"],
                clock_cycles=payload["clock_cycles"],
                rng=_rng_from_json(payload["rng"]),
            )
        except (KeyError, TypeError, AttributeError, ValueError,
                zlib.error) as exc:
            raise ValueError(f"malformed ArchState payload: {exc!r}") from exc

    def digest(self) -> str:
        """Stable identity of the *architectural* content (the fields
        equality compares — clock and RNG cursors excluded)."""
        h = hashlib.sha256()
        payload = self.to_payload()
        payload.pop("clock_cycles")
        payload.pop("rng")
        h.update(json.dumps(payload, sort_keys=True,
                            separators=(",", ":")).encode("ascii"))
        return h.hexdigest()[:16]

    def summary(self) -> dict:
        """Small human-readable view for logs and tests."""
        return {
            "pc": f"0x{u32(self.pc):08x}",
            "npc": f"0x{u32(self.npc):08x}",
            "cwp": self.cwp,
            "retired": self.retired,
            "traps_taken": self.traps_taken,
            "digest": self.digest(),
        }


def _rng_to_json(rng: dict) -> dict:
    """numpy bit-generator states are nested dicts of ints — already
    JSON-able, but keys must be strings all the way down."""
    return json.loads(json.dumps(rng))


def _rng_from_json(rng: dict) -> dict:
    return rng
