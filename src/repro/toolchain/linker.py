"""Linker: place sections at absolute addresses and resolve relocations.

The paper extracts a memory map "from the design of the supervisory state
machine" and feeds it to LD.  :class:`MemoryMapScript` plays that role: it
names the placement of each output section.  The default script matches
:mod:`repro.mem.memmap` — user code loads into FPX SRAM above the mailbox
words that the leon_ctrl circuitry reserves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.toolchain.objfile import (
    Image,
    LinkError,
    ObjectFile,
    Section,
    apply_relocation,
)
from repro.utils import u32


@dataclass
class MemoryMapScript:
    """Output-section placement.

    ``placements`` maps section name → absolute base address, or to the
    name of a *preceding* section to be placed directly after (the common
    "``.data`` follows ``.text``" layout).  Sections are placed in the
    order given.  ``align`` pads follow-on placements.
    """

    placements: dict[str, int | str] = field(default_factory=dict)
    align: int = 8

    @classmethod
    def default(cls, text_base: int = 0x4000_1000) -> "MemoryMapScript":
        """The Liquid Processor memory map: code + data in FPX SRAM."""
        return cls(placements={
            ".text": text_base,
            ".rodata": ".text",
            ".data": ".rodata",
            ".bss": ".data",
        })


@dataclass
class LinkedSection:
    name: str
    base: int
    data: bytearray


class Linker:
    """Combine object files, place sections, resolve relocations."""

    def __init__(self, script: MemoryMapScript | None = None):
        self.script = script or MemoryMapScript.default()

    def link(self, objects: list[ObjectFile], entry_symbol: str = "_start") -> Image:
        merged, symbols = self._merge(objects)
        placed = self._place(merged)
        addresses = self._absolute_symbols(symbols, placed)
        self._relocate(merged, placed, addresses)
        segments = {sec.base: bytes(sec.data) for sec in placed.values()
                    if sec.data}
        entry = addresses.get(entry_symbol)
        if entry is None:
            text = placed.get(".text")
            entry = text.base if text else (min(segments) if segments else 0)
        return Image(segments=segments, symbols=addresses, entry=entry)

    # -- merging -----------------------------------------------------------

    def _merge(self, objects: list[ObjectFile]):
        """Concatenate same-named sections; rebase symbols and relocations.

        Assembler-temporary labels (``.L`` prefix — what our compiler
        emits for branch targets and string literals) are local to their
        translation unit, so they are silently renamed per object; every
        other symbol shares the global namespace, and colliding
        definitions are an error.
        """
        merged: dict[str, Section] = {}
        symbols: dict[str, tuple[str, int]] = {}  # name -> (section, offset)
        for index, obj in enumerate(objects):
            def localize(name: str) -> str:
                if name.startswith(".L"):
                    return f"{name}@tu{index}"
                return name

            bases: dict[str, int] = {}
            for name, section in obj.sections.items():
                if name not in merged:
                    merged[name] = Section(name)
                out = merged[name]
                while out.size % 4:
                    out.data.append(0)
                bases[name] = out.size
                out.data += section.data
            for name, section in obj.sections.items():
                base = bases[name]
                for reloc in section.relocations:
                    merged[name].relocations.append(
                        type(reloc)(reloc.offset + base,
                                    localize(reloc.symbol),
                                    reloc.kind, reloc.addend))
            for sym in obj.symbols.values():
                name = localize(sym.name)
                if name in symbols:
                    raise LinkError(f"duplicate definition of '{sym.name}'")
                symbols[name] = (sym.section, sym.offset + bases.get(
                    sym.section, 0))
        return merged, symbols

    # -- placement -----------------------------------------------------------

    def _place(self, merged: dict[str, Section]) -> dict[str, LinkedSection]:
        placed: dict[str, LinkedSection] = {}
        ends: dict[str, int] = {}  # end address even for empty sections
        cursor: int | None = None
        order = list(self.script.placements) + [
            name for name in merged if name not in self.script.placements]
        for name in order:
            section = merged.get(name)
            spec = self.script.placements.get(name)
            if isinstance(spec, int):
                base = spec
            elif isinstance(spec, str):
                if spec not in ends:
                    raise LinkError(f"section '{name}' placed after unknown "
                                    f"'{spec}'")
                base = ends[spec]
            elif cursor is not None:
                base = cursor
            else:
                raise LinkError(f"no placement for section '{name}'")
            align = self.script.align
            base = (base + align - 1) & ~(align - 1)
            size = section.size if section is not None else 0
            ends[name] = base + size
            cursor = ends[name]
            if section is not None and (section.size or section.relocations):
                placed[name] = LinkedSection(name, base, bytearray(section.data))
        # Overlap check.
        spans = sorted((sec.base, sec.base + len(sec.data), sec.name)
                       for sec in placed.values())
        for (s1, e1, n1), (s2, _e2, n2) in zip(spans, spans[1:]):
            if s2 < e1:
                raise LinkError(f"sections '{n1}' and '{n2}' overlap at "
                                f"0x{s2:08x}")
        return placed

    # -- symbols ---------------------------------------------------------

    @staticmethod
    def _absolute_symbols(symbols: dict[str, tuple[str, int]],
                          placed: dict[str, LinkedSection]) -> dict[str, int]:
        addresses: dict[str, int] = {}
        for name, (section, offset) in symbols.items():
            sec = placed.get(section)
            if sec is None:
                continue  # symbol in a dropped (empty) section
            addresses[name] = u32(sec.base + offset)
        return addresses

    # -- relocation ----------------------------------------------------------

    def _relocate(self, merged: dict[str, Section],
                  placed: dict[str, LinkedSection],
                  addresses: dict[str, int]) -> None:
        for name, section in merged.items():
            out = placed.get(name)
            if out is None:
                continue
            for reloc in section.relocations:
                if reloc.symbol == "":
                    value = u32(reloc.addend)  # absolute branch target
                elif reloc.symbol in addresses:
                    value = u32(addresses[reloc.symbol] + reloc.addend)
                else:
                    raise LinkError(f"undefined symbol '{reloc.symbol}' "
                                    f"referenced from {name}+0x{reloc.offset:x}")
                word = int.from_bytes(out.data[reloc.offset:reloc.offset + 4],
                                      "big")
                try:
                    patched = apply_relocation(word, reloc.kind, value,
                                               out.base + reloc.offset)
                except ValueError as exc:
                    raise LinkError(f"relocation against '{reloc.symbol}' "
                                    f"at {name}+0x{reloc.offset:x}: "
                                    f"{exc}") from exc
                out.data[reloc.offset:reloc.offset + 4] = patched.to_bytes(4, "big")


def link(objects: list[ObjectFile], script: MemoryMapScript | None = None,
         entry_symbol: str = "_start") -> Image:
    """Convenience wrapper over :class:`Linker`."""
    return Linker(script).link(objects, entry_symbol)
