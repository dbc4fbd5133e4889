"""ArchitectureConfig: one point in the liquid configuration space.

The paper's §1 lists the dimensions a liquid architecture makes fluid:
"modifiable pipeline depth, variable instruction/data cache size,
specialized hardware to accelerate frequently used instructions or
instruction sequences, new instructions to the SPARC base instruction
set".  This dataclass names exactly those knobs, derives the wiring
parameters the Liquid core (:mod:`repro.machine`) is built from, and
provides a canonical key used by the reconfiguration cache and the
synthesis model.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace

from repro.cache.cache import CacheGeometry
from repro.cpu.pipeline import TimingConfig
from repro.mem.adapter import AdapterConfig
from repro.utils import log2_exact

#: Multiplier implementation -> UMUL/SMUL issue cycles (LEON2 mul options).
MULTIPLIER_CYCLES = {"iterative": 35, "16x16": 5, "32x32": 2}

#: Divider implementation -> UDIV/SDIV issue cycles.
DIVIDER_CYCLES = {"radix2": 35, "none": 0}

#: Pipeline depth -> (taken-CTI bubbles beyond the delay slot,
#: load-use interlock present, relative clock-frequency factor).
#: 5 is the stock LEON2; 3 merges EX/ME (no interlock, slow clock);
#: 7 super-pipelines the IU (late branch resolve, fast clock) — the
#: paper's "modifiable pipeline depth" dimension.
PIPELINE_DEPTHS = {
    3: {"taken_cti_penalty": 0, "interlock": False, "clock_factor": 0.80},
    5: {"taken_cti_penalty": 0, "interlock": True, "clock_factor": 1.00},
    7: {"taken_cti_penalty": 2, "interlock": True, "clock_factor": 1.08},
}


@dataclass(frozen=True)
class ExtensionSpec:
    """A custom instruction added to the SPARC base set (CPop1 space).

    ``opf`` selects the operation; ``slice_cost`` feeds the synthesis
    area model; ``cycles`` is the issue cost of the custom datapath.
    The semantic callable itself is registered by the rewrite recipe
    (see :mod:`repro.core.rewriter`) since functions don't belong in a
    hashable config.
    """

    name: str
    opf: int
    slice_cost: int = 250
    cycles: int = 1


@dataclass(frozen=True)
class ArchitectureConfig:
    """A complete micro-architecture configuration of the Liquid system."""

    icache: CacheGeometry = CacheGeometry(size=1024, line_size=32)
    dcache: CacheGeometry = CacheGeometry(size=4096, line_size=32)
    nwindows: int = 8
    multiplier: str = "16x16"
    divider: str = "radix2"
    adapter_read_burst: int = 4
    extensions: tuple[ExtensionSpec, ...] = ()
    load_use_interlock: bool = True
    prefetch: str = "none"  # 'none' | 'nextline' | 'stride' (D-cache unit)
    pipeline_depth: int = 5

    def __post_init__(self) -> None:
        from repro.cache.prefetch import PREFETCH_POLICIES

        if self.prefetch not in PREFETCH_POLICIES:
            raise ValueError(f"unknown prefetch policy '{self.prefetch}'")
        if self.pipeline_depth not in PIPELINE_DEPTHS:
            raise ValueError(
                f"pipeline depth {self.pipeline_depth} unsupported "
                f"(have {sorted(PIPELINE_DEPTHS)})")
        if self.multiplier not in MULTIPLIER_CYCLES:
            raise ValueError(f"unknown multiplier '{self.multiplier}'")
        if self.divider not in DIVIDER_CYCLES:
            raise ValueError(f"unknown divider '{self.divider}'")
        if not 2 <= self.nwindows <= 32:
            raise ValueError(f"NWINDOWS {self.nwindows} out of range")
        log2_exact(self.nwindows)
        names = [ext.name for ext in self.extensions]
        if len(names) != len(set(names)):
            raise ValueError("duplicate extension names")
        opfs = [ext.opf for ext in self.extensions]
        if len(opfs) != len(set(opfs)):
            raise ValueError("duplicate extension opf codes")

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def timing(self) -> TimingConfig:
        depth = PIPELINE_DEPTHS[self.pipeline_depth]
        return TimingConfig(
            mul_cycles=MULTIPLIER_CYCLES[self.multiplier],
            div_cycles=DIVIDER_CYCLES[self.divider] or 35,
            load_use_interlock=self.load_use_interlock
            and depth["interlock"],
            taken_cti_penalty=depth["taken_cti_penalty"],
            custom_op_cycles=max((ext.cycles for ext in self.extensions),
                                 default=1),
        )

    def adapter(self) -> AdapterConfig:
        return AdapterConfig(read_burst_words=self.adapter_read_burst)

    def platform_config(self, **overrides):
        """Build the :class:`~repro.fpx.platform.PlatformConfig` for this
        architecture (keyword overrides pass through, e.g. device_ip)."""
        from repro.fpx.platform import PlatformConfig

        return PlatformConfig(arch=self, **overrides)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def key(self) -> str:
        """Canonical name: the reconfiguration-cache index and the
        bitfile filename stem."""

        def cache_key(tag: str, geometry: CacheGeometry) -> str:
            return (f"{tag}{geometry.size // 1024}k"
                    f"l{geometry.line_size}w{geometry.ways}"
                    f"{geometry.replacement[0]}")

        parts = [
            cache_key("ic", self.icache),
            cache_key("dc", self.dcache),
            f"nw{self.nwindows}",
            f"mul{self.multiplier}",
            f"div{self.divider}",
            f"rb{self.adapter_read_burst}",
        ]
        if self.pipeline_depth != 5:
            parts.append(f"p{self.pipeline_depth}")
        if self.prefetch != "none":
            parts.append(f"pf{self.prefetch}")
        if not self.load_use_interlock:
            parts.append("noilock")
        for ext in sorted(self.extensions, key=lambda e: e.opf):
            parts.append(f"x{ext.name}")
        return "-".join(parts)

    def fingerprint(self) -> str:
        """Stable content hash over *every* field, for result caching.

        ``key()`` stays the human-readable bitfile stem but omits fields
        that do not change the wiring name (an extension's ``cycles`` or
        ``slice_cost``); the fingerprint must distinguish those too, so
        it hashes the full canonical field dump.  Unlike Python's salted
        ``hash()`` it is identical across processes and sessions, which
        is what lets the on-disk sweep cache survive restarts.
        """
        payload = json.dumps(asdict(self), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def arch_key(self) -> str:
        """Stable hash of the *architectural* (timing-free) machine.

        Two configurations with the same arch_key compute identical
        results for every program: only the window count and the
        instruction-set extensions change what the software can observe.
        Caches, multiplier/divider datapaths, prefetchers and pipeline
        depth are timing dimensions (a divider of "none" still divides —
        it just costs differently).  This is the recording-sharing key:
        a sweep records each image once per ``(image, arch_key)`` and
        replays that recording at every config point sharing it.
        """
        payload = json.dumps(
            {"nwindows": self.nwindows,
             "extensions": sorted((ext.name, ext.opf)
                                  for ext in self.extensions)},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def with_dcache_size(self, size: int) -> "ArchitectureConfig":
        """The paper's own sweep axis, as a one-liner."""
        return replace(self, dcache=CacheGeometry(
            size=size, line_size=self.dcache.line_size,
            ways=self.dcache.ways, replacement=self.dcache.replacement))

    def with_extension(self, ext: ExtensionSpec) -> "ArchitectureConfig":
        return replace(self, extensions=self.extensions + (ext,))

    def with_prefetch(self, policy: str) -> "ArchitectureConfig":
        """Attach the §1 'alternative memory structure' to the D-cache."""
        return replace(self, prefetch=policy)

    def with_pipeline_depth(self, depth: int) -> "ArchitectureConfig":
        """The §1 'modifiable pipeline depth' dimension."""
        return replace(self, pipeline_depth=depth)


#: The configuration the paper synthesized and reported in Figure 10.
BASELINE = ArchitectureConfig()
