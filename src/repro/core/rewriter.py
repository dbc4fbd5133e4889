"""Application rewriting for custom instructions (Figure 1's "recipe").

"A recipe for rewriting the application is specified, so that the
application can take advantage of the reconfigured architecture.  ...
that recipe is provided to the compiler so that the application's
instructions can be tailored for the architecture."

A :class:`RewriteRecipe` couples three things that must travel together:

1. the *architecture side* — an :class:`ExtensionSpec` (CPop1 ``opf``,
   area cost) plus the Python semantic executed by the simulator when
   the custom instruction issues;
2. the *compiler side* — a peephole rule over generated assembly that
   replaces a recognised instruction sequence with the ``custom`` form
   (and/or a C-source mapping ``function name -> __builtin_custom``);
3. bookkeeping so the synthesis model charges for the accelerator.

Built-in recipes implement the paper's example of "specialized hardware
to accelerate frequently used instructions or instruction sequences":
a population-count accelerator and a multiply-accumulate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from repro.core.config import ArchitectureConfig, ExtensionSpec
from repro.cpu.decode import DecodedInstruction
from repro.cpu.iu import IntegerUnit
from repro.utils import popcount32, u32

Semantics = Callable[[IntegerUnit, DecodedInstruction], None]


@dataclass(frozen=True)
class RewriteRecipe:
    """A custom instruction plus how to rewrite code to use it."""

    extension: ExtensionSpec
    semantics: Semantics
    #: regex over a *window* of assembly lines -> replacement lines.
    asm_pattern: str | None = None
    asm_replacement: str | None = None
    #: C function name whose calls become __builtin_custom(opf, a, b).
    c_function: str | None = None

    def apply_to_config(self, config: ArchitectureConfig
                        ) -> ArchitectureConfig:
        if any(ext.opf == self.extension.opf for ext in config.extensions):
            return config
        return config.with_extension(self.extension)

    def install(self, iu: IntegerUnit) -> None:
        """Register the simulator semantics on an integer unit."""
        iu.extensions[self.extension.opf] = self.semantics

    # -- assembly rewriting ---------------------------------------------------

    def rewrite_asm(self, asm_text: str) -> tuple[str, int]:
        """Apply the peephole rule; returns (new_text, substitutions)."""
        if self.asm_pattern is None:
            return asm_text, 0
        pattern = re.compile(self.asm_pattern, re.MULTILINE)
        new_text, count = pattern.subn(self.asm_replacement, asm_text)
        return new_text, count

    def legal_sites(self, image) -> list:
        """Binary-side legality verdicts for this recipe's candidates.

        Scans *image* (the linked, unrewritten program) for the
        instruction shape this recipe's peephole targets and checks
        each site against the dataflow facts — see
        :mod:`repro.analysis.legality`.  Returns one
        :class:`~repro.analysis.legality.LegalityResult` per site, in
        address order; empty for pure C-level recipes.
        """
        if self.asm_pattern is None:
            return []
        from repro.analysis.legality import legal_sites, mac_candidates

        # The MAC shape is the only asm peephole today; recipes adding
        # new patterns must register a matching binary-side finder.
        return legal_sites(image, finder=mac_candidates)

    def verified_rewrite_asm(self, asm_text: str, image
                             ) -> tuple[str, int, list]:
        """Apply the peephole only at sites the legality checker
        accepts.

        *image* must be the linked image of the **unrewritten**
        *asm_text* program: textual matches pair with binary candidates
        in order, and each pairing is cross-checked by register operand
        before a substitution is allowed — a mismatch (or an illegal
        verdict) skips the site rather than guessing.

        Returns ``(new_text, substitutions, skipped)`` where *skipped*
        lists the :class:`LegalityResult` of every rejected site.
        """
        if self.asm_pattern is None:
            return asm_text, 0, []
        from repro.analysis.dataflow import reg_number

        verdicts = self.legal_sites(image)
        pattern = re.compile(self.asm_pattern, re.MULTILINE)
        matches = list(pattern.finditer(asm_text))
        skipped: list = []
        legal_spans: set[int] = set()
        for index, match in enumerate(matches):
            if index >= len(verdicts):
                break  # textual match with no binary candidate: skip
            verdict = verdicts[index]
            try:
                # MAC groups: (indent, a, b, t, acc).
                operands = (reg_number(match.group(2)),
                            reg_number(match.group(3)),
                            reg_number(match.group(5)))
            except (ValueError, IndexError):
                operands = None
            candidate = verdict.candidate
            aligned = operands == (candidate.inputs[0],
                                   candidate.inputs[1],
                                   candidate.output)
            if verdict.ok and aligned:
                legal_spans.add(match.start())
            else:
                skipped.append(verdict)

        count = 0

        def substitute(match: re.Match) -> str:
            nonlocal count
            if match.start() not in legal_spans:
                return match.group(0)
            count += 1
            return match.expand(self.asm_replacement)

        new_text = pattern.sub(substitute, asm_text)
        return new_text, count, skipped

    # -- C rewriting --------------------------------------------------------------

    def rewrite_c(self, c_source: str) -> tuple[str, int]:
        """Replace *calls* to :attr:`c_function` with the builtin.

        Definition/declaration sites (where the name is preceded by a
        type keyword) are left alone — the software fallback stays in
        the program, it just stops being called.
        """
        if self.c_function is None:
            return c_source, 0
        type_words = {"int", "unsigned", "char", "void", "short", "long",
                      "signed", "volatile", "const", "static", "extern"}
        pattern = re.compile(rf"(\w+\s+)?\b{re.escape(self.c_function)}\s*\(")
        count = 0

        def substitute(match: re.Match) -> str:
            nonlocal count
            prefix = (match.group(1) or "").strip()
            if prefix in type_words:
                return match.group(0)  # a definition, not a call
            count += 1
            return (match.group(1) or "") + \
                f"__builtin_custom({self.extension.opf}, "

        new_source = pattern.sub(substitute, c_source)
        return new_source, count


# ---------------------------------------------------------------------------
# Built-in recipes
# ---------------------------------------------------------------------------

OPF_POPCOUNT = 0x01
OPF_MAC = 0x02
OPF_SATADD = 0x03


def _popcount_semantics(iu: IntegerUnit, inst: DecodedInstruction) -> None:
    value = iu.regs.read(inst.rs1) ^ iu.regs.read(inst.rs2)
    iu.regs.write(inst.rd, popcount32(value))


def _mac_semantics(iu: IntegerUnit, inst: DecodedInstruction) -> None:
    """rd += rs1 * rs2 (a one-cycle multiply-accumulate datapath)."""
    product = u32(iu.regs.read(inst.rs1) * iu.regs.read(inst.rs2))
    iu.regs.write(inst.rd, u32(iu.regs.read(inst.rd) + product))


def _satadd_semantics(iu: IntegerUnit, inst: DecodedInstruction) -> None:
    """Signed saturating add — common in DSP kernels."""
    from repro.utils import s32

    total = s32(iu.regs.read(inst.rs1)) + s32(iu.regs.read(inst.rs2))
    total = max(-0x8000_0000, min(0x7FFF_FFFF, total))
    iu.regs.write(inst.rd, u32(total))


POPCOUNT_RECIPE = RewriteRecipe(
    extension=ExtensionSpec("popc", OPF_POPCOUNT, slice_cost=180, cycles=1),
    semantics=_popcount_semantics,
    c_function="popcount_xor",
)

MAC_RECIPE = RewriteRecipe(
    extension=ExtensionSpec("mac", OPF_MAC, slice_cost=420, cycles=1),
    semantics=_mac_semantics,
    # smul a, b, t ; add acc, t, acc  =>  custom MAC a, b, acc
    asm_pattern=(r"^(\s*)smul (%\w+), (%\w+), (%\w+)\n"
                 r"\s*add (%\w+), \4, \5$"),
    asm_replacement=rf"\1custom {OPF_MAC}, \2, \3, \5",
)

SATADD_RECIPE = RewriteRecipe(
    extension=ExtensionSpec("satadd", OPF_SATADD, slice_cost=150, cycles=1),
    semantics=_satadd_semantics,
    c_function="saturating_add",
)

BUILTIN_RECIPES = {
    "popc": POPCOUNT_RECIPE,
    "mac": MAC_RECIPE,
    "satadd": SATADD_RECIPE,
}


def install_recipes(iu: IntegerUnit, config: ArchitectureConfig) -> int:
    """Register simulator semantics for every extension in *config*.

    Returns the number of extensions installed.  Unknown extension names
    raise — a config that names an accelerator nobody implemented is the
    hardware equivalent of an unresolved symbol.
    """
    installed = 0
    for ext in config.extensions:
        recipe = BUILTIN_RECIPES.get(ext.name)
        if recipe is None:
            raise KeyError(f"no rewrite recipe implements extension "
                           f"'{ext.name}'")
        recipe.install(iu)
        installed += 1
    return installed
