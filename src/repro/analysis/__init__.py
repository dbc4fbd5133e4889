"""repro.analysis — trace analysis and binary static analysis.

Two halves share this package:

* **dynamic**: memory-trace capture and reductions
  (:mod:`~repro.analysis.trace`, :mod:`~repro.analysis.stats`);
* **static**: CFG recovery, dataflow, the machine-code verifier and
  the rewriter legality checker over linked SPARC images
  (:mod:`~repro.analysis.cfg`, :mod:`~repro.analysis.dataflow`,
  :mod:`~repro.analysis.verify`, :mod:`~repro.analysis.legality`),
  all reporting through :mod:`~repro.analysis.diagnostics`.
"""

from repro.analysis.cfg import (
    BasicBlock,
    ControlFlowGraph,
    Instruction,
    InstrKind,
    build_cfg,
)
from repro.analysis.dataflow import (
    DefinedRegisters,
    FunctionDataflow,
    Liveness,
    ReachingDefinitions,
    analyze_function,
    solve,
)
from repro.analysis.diagnostics import Diagnostic, DiagnosticReport, Severity
from repro.analysis.legality import (
    FusionCandidate,
    LegalityResult,
    check_fusion,
    legal_sites,
    mac_candidates,
)
from repro.analysis.stats import (
    MissCurvePoint,
    observed_miss_rate,
    simulate_miss_curve,
    stride_profile,
    working_set_bytes,
)
from repro.analysis.trace import MemoryTrace, TraceRecorder
from repro.analysis.verify import (
    FunctionAnalysis,
    ProgramAnalysis,
    analyze_image,
    verify_image,
)

__all__ = [
    "MissCurvePoint",
    "observed_miss_rate",
    "simulate_miss_curve",
    "stride_profile",
    "working_set_bytes",
    "MemoryTrace",
    "TraceRecorder",
    "BasicBlock",
    "ControlFlowGraph",
    "Instruction",
    "InstrKind",
    "build_cfg",
    "DefinedRegisters",
    "FunctionDataflow",
    "Liveness",
    "ReachingDefinitions",
    "analyze_function",
    "solve",
    "Diagnostic",
    "DiagnosticReport",
    "Severity",
    "FusionCandidate",
    "LegalityResult",
    "check_fusion",
    "legal_sites",
    "mac_candidates",
    "FunctionAnalysis",
    "ProgramAnalysis",
    "analyze_image",
    "verify_image",
]
