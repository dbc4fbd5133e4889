"""Toolchain driver: the one-call path from source files to a loadable
image (the batch file of the paper's §2.5).

Steps, mirroring Figure 4: *1. Compile w/ GCC → 2. Assemble w/ GAS →
3. Link w/ LD → 4. Convert to bin w/ OBJCOPY → 5. Convert to IP*.  Here:
:func:`repro.toolchain.cc.compile_c` → :func:`repro.toolchain.asm.assemble`
→ :func:`repro.toolchain.linker.link` → ``Image.flatten`` →
:func:`repro.net.protocol.packetize_program`.

``crt0`` is the startup stub every C program gets: call ``main``, store
its return value at the RESULT word, and exit through the ``ta 0``
syscall back to the boot ROM's polling loop ("the last instruction in
the user program instructs the LEON processor to jump back to its
polling loop").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.memmap import DEFAULT_MAP, MemoryMap
from repro.toolchain.asm import assemble
from repro.toolchain.cc import compile_c
from repro.toolchain.linker import Linker, MemoryMapScript
from repro.toolchain.objfile import Image, ObjectFile


def crt0_source(memmap: MemoryMap = DEFAULT_MAP) -> str:
    """The C runtime startup stub."""
    return f"""
    .text
    .global _start
_start:
    call main
    nop
    set {memmap.result_addr}, %g1
    st %o0, [%g1]                  ! expose main()'s result to Read Memory
    ta 0                           ! exit: back to the boot polling loop
    nop
"""


@dataclass
class SourceFile:
    """One input to the driver.  ``language`` is 'c' or 'asm'."""

    text: str
    language: str = "c"
    name: str = "<memory>"


def compile_sources(sources: list[SourceFile],
                    memmap: MemoryMap = DEFAULT_MAP,
                    with_crt0: bool = True) -> list[ObjectFile]:
    """Compile/assemble every source to an object file."""
    objects: list[ObjectFile] = []
    if with_crt0:
        objects.append(assemble(crt0_source(memmap), "crt0.s"))
    for source in sources:
        if source.language == "c":
            asm_text = compile_c(source.text)
            objects.append(assemble(asm_text, source.name + ".s"))
        elif source.language == "asm":
            objects.append(assemble(source.text, source.name))
        else:
            raise ValueError(f"unknown language '{source.language}'")
    return objects


def build_image(sources: list[SourceFile],
                memmap: MemoryMap = DEFAULT_MAP,
                text_base: int | None = None,
                with_crt0: bool = True,
                entry_symbol: str = "_start") -> Image:
    """Sources → linked image placed at the program load address."""
    objects = compile_sources(sources, memmap, with_crt0)
    script = MemoryMapScript.default(text_base if text_base is not None
                                     else memmap.program_base)
    return Linker(script).link(objects, entry_symbol)


def compile_c_program(c_source: str, memmap: MemoryMap = DEFAULT_MAP,
                      extra_asm: str | None = None,
                      with_libc: bool = False) -> Image:
    """One C translation unit (plus optional extra assembly) → image.

    ``with_libc=True`` links the runtime library
    (:data:`repro.toolchain.runtime.LIBC_SOURCE` — mem/str routines and
    UART console output) and pre-declares its functions for the user
    code."""
    from repro.toolchain.runtime import LIBC_DECLARATIONS, LIBC_SOURCE

    user = c_source
    if with_libc:
        user = LIBC_DECLARATIONS + "\n" + c_source
    sources = [SourceFile(user, "c", "program.c")]
    if with_libc:
        sources.append(SourceFile(LIBC_SOURCE, "c", "libc.c"))
    if extra_asm:
        sources.append(SourceFile(extra_asm, "asm", "extra.s"))
    return build_image(sources, memmap)
