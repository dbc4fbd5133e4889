"""Shared fixtures and helpers for the Liquid Architecture test suite."""

from __future__ import annotations

import pytest

from repro.cpu import IntegerUnit
from repro.mem.interface import FlatMemory
from repro.mem.memmap import DEFAULT_MAP
from repro.toolchain import assemble, link
from repro.toolchain.linker import MemoryMapScript

RAM_BASE = 0x4000_0000
RAM_SIZE = 1 << 20
CODE_BASE = 0x4000_1000
STACK_TOP = RAM_BASE + RAM_SIZE - 0x100


@pytest.fixture
def translate_on_first_entry(monkeypatch):
    """Compile a PC's block on its first entry instead of its second, so
    a program that runs once still executes generated code."""
    from repro.cpu import blockcache

    monkeypatch.setattr(blockcache, "HOT_ENTRY", 1)


@pytest.fixture
def chain_on_first_return(monkeypatch):
    """Compile a hot cycle of blocks into a trace the first time control
    returns to its head, so a loop of a few iterations runs traced."""
    from repro.cpu import blockcache

    monkeypatch.setattr(blockcache, "HOT_TRACE", 1)


def build(source: str, text_base: int = CODE_BASE):
    """Assemble + link a standalone test program."""
    return link([assemble(source)], MemoryMapScript.default(text_base))


def make_iu(source: str | None = None, *, nwindows: int = 8,
            stack: bool = True) -> tuple[IntegerUnit, FlatMemory]:
    """An IU over flat memory, optionally preloaded with a program whose
    entry is CODE_BASE.  Traps are left disabled (ET=0) — unit tests for
    instruction semantics don't want trap handling, they want the raw
    architectural effect; tests that need traps enable them explicitly."""
    mem = FlatMemory(size=RAM_SIZE, base=RAM_BASE)
    entry = CODE_BASE
    if source is not None:
        image = build(source)
        for base, blob in image.segments.items():
            mem.load(base, blob)
        entry = image.entry
    iu = IntegerUnit(mem, mem, nwindows=nwindows, reset_pc=entry)
    if stack:
        iu.regs.write(14, STACK_TOP)  # %sp
    return iu, mem


def run_to_label(iu: IntegerUnit, image_or_addr, label: str | None = None,
                 max_instructions: int = 100_000) -> int:
    """Run until the pc hits *label* (or an absolute address)."""
    if label is not None:
        target = image_or_addr.symbols[label]
    else:
        target = image_or_addr
    return iu.run(max_instructions=max_instructions, until_pc=target)


def run_source(source: str, max_instructions: int = 100_000,
               nwindows: int = 8) -> tuple[IntegerUnit, FlatMemory, dict]:
    """Assemble, run until the program reaches the ``done`` label, and
    return (iu, memory, symbols).  Programs must define ``done:``."""
    image = build(source)
    iu, mem = make_iu(source, nwindows=nwindows)
    iu.run(max_instructions=max_instructions,
           until_pc=image.symbols["done"])
    return iu, mem, image.symbols


@pytest.fixture
def flat_memory():
    return FlatMemory(size=RAM_SIZE, base=RAM_BASE)


@pytest.fixture
def platform():
    """A booted default FPX platform."""
    from repro.fpx import FPXPlatform

    plat = FPXPlatform()
    plat.boot()
    return plat


@pytest.fixture
def client(platform):
    from repro.control import DirectTransport, LiquidClient

    transport = DirectTransport(platform, platform.config.device_ip,
                                platform.config.control_port)
    return LiquidClient(transport)


@pytest.fixture
def memmap():
    return DEFAULT_MAP
