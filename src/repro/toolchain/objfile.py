"""Relocatable object format shared by the assembler and linker.

The paper's flow is GCC → GAS → LD → OBJCOPY; our from-scratch toolchain
mirrors it with a deliberately small object format: named sections of raw
bytes, a symbol table, and a relocation list.  Relocation kinds cover what
SPARC V8 code generation actually needs (the same subset ELF calls
``R_SPARC_32/HI22/LO10/13/WDISP30/WDISP22``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.utils import s32, u32


class RelocKind(Enum):
    """Relocation kinds, named after their ELF SPARC equivalents."""

    WORD32 = "word32"    # full 32-bit value (data words)
    HI22 = "hi22"        # SETHI: bits 31:10 of the value
    LO10 = "lo10"        # OR-immediate: bits 9:0 of the value
    SIMM13 = "simm13"    # 13-bit signed immediate (absolute, must fit)
    WDISP30 = "wdisp30"  # CALL: (target - place) >> 2 in 30 bits
    WDISP22 = "wdisp22"  # Bicc: (target - place) >> 2 in 22 signed bits


def apply_relocation(word: int, kind: RelocKind, value: int,
                     place: int = 0) -> int:
    """*word* with *kind*'s field filled in from *value*: the symbol's
    value for the absolute kinds, the branch target for ``WDISP30`` and
    ``WDISP22``, whose displacement counts from *place* (the address of
    the patched word).  Raises :class:`ValueError` when the value does
    not fit its field; each caller reports that in its own error."""
    if kind is RelocKind.WORD32:
        return u32(value)
    if kind is RelocKind.HI22:
        return word | (u32(value) >> 10)
    if kind is RelocKind.LO10:
        return word | (value & 0x3FF)
    if kind is RelocKind.SIMM13:
        signed = s32(value)
        if not -4096 <= signed <= 4095:
            raise ValueError(f"value {signed} exceeds simm13")
        return word | (signed & 0x1FFF)
    displacement = (value - place) >> 2
    if kind is RelocKind.WDISP30:
        return word | (displacement & 0x3FFF_FFFF)
    if not -(1 << 21) <= displacement < (1 << 21):
        raise ValueError("branch displacement out of range")
    return word | (displacement & 0x3FFFFF)


@dataclass
class Relocation:
    """A fix-up at ``section[offset]`` against ``symbol + addend``."""

    offset: int
    symbol: str
    kind: RelocKind
    addend: int = 0


@dataclass
class Symbol:
    """A label: its defining section, byte offset, and linkage visibility."""

    name: str
    section: str
    offset: int
    is_global: bool = False


@dataclass
class Section:
    """A contiguous run of bytes plus its pending relocations."""

    name: str
    data: bytearray = field(default_factory=bytearray)
    relocations: list[Relocation] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.data)

    def append_word(self, value: int) -> None:
        self.data += u32(value).to_bytes(4, "big")

    def patch_word(self, offset: int, value: int) -> None:
        self.data[offset:offset + 4] = u32(value).to_bytes(4, "big")

    def word_at(self, offset: int) -> int:
        return int.from_bytes(self.data[offset:offset + 4], "big")


@dataclass
class ObjectFile:
    """One translation unit's worth of sections and symbols."""

    sections: dict[str, Section] = field(default_factory=dict)
    symbols: dict[str, Symbol] = field(default_factory=dict)
    source_name: str = "<memory>"

    def section(self, name: str) -> Section:
        if name not in self.sections:
            self.sections[name] = Section(name)
        return self.sections[name]

    def define(self, name: str, section: str, offset: int,
               is_global: bool = False) -> None:
        if name in self.symbols:
            raise LinkError(f"duplicate symbol '{name}' in {self.source_name}")
        self.symbols[name] = Symbol(name, section, offset, is_global)


class LinkError(Exception):
    """Unresolved/duplicate symbols, overlapping placements, range overflow."""


@dataclass
class Image:
    """A linked, absolutely-placed memory image.

    ``segments`` maps base address → bytes; ``symbols`` maps name → absolute
    address; ``entry`` is where execution starts (symbol ``_start`` when
    present, else the base of ``.text``).
    """

    segments: dict[int, bytes]
    symbols: dict[str, int]
    entry: int

    @property
    def start(self) -> int:
        return min(self.segments) if self.segments else 0

    @property
    def end(self) -> int:
        return max(base + len(data) for base, data in self.segments.items()) \
            if self.segments else 0

    def flatten(self, fill: int = 0) -> tuple[int, bytes]:
        """Return ``(base, blob)`` covering all segments, gap-filled.

        This is the OBJCOPY step of the paper's flow: the flat binary that
        gets packetized into UDP payloads and written into FPX SRAM.
        """
        if not self.segments:
            return 0, b""
        base = self.start
        blob = bytearray([fill]) * 0  # keep type; build below
        blob = bytearray(self.end - base)
        if fill:
            for i in range(len(blob)):
                blob[i] = fill
        for seg_base, data in self.segments.items():
            blob[seg_base - base:seg_base - base + len(data)] = data
        return base, bytes(blob)
