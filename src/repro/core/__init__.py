"""The liquid-architecture contribution: configuration space, synthesis
model, reconfiguration cache/server, trace analyzer, architecture
generator, rewrite recipes, and the top-level system facade.

Every public name resolves on first access (PEP 562), importing only the
submodule that defines it: a sweep that imports :mod:`repro.core.sweep`
never loads the FPX platform, the network stack or the static analyzer.
"""

from importlib import import_module

# Public name -> the submodule of this package that defines it.
_EXPORTS = {
    "BASELINE": "config",
    "ArchitectureConfig": "config",
    "ExtensionSpec": "config",
    "ArchitectureGenerator": "generator",
    "ExplorationResult": "generator",
    "LiquidProcessorSystem": "liquid",
    "ProgramRun": "liquid",
    "CacheOutcome": "recon_cache",
    "ReconCacheThrashWarning": "recon_cache",
    "ReconfigurationCache": "recon_cache",
    "Estimate": "sampling",
    "SampledRun": "sampling",
    "SampledRunner": "sampling",
    "SamplingPlan": "sampling",
    "WindowSpec": "sampling",
    "estimate_windows": "sampling",
    "place_windows": "sampling",
    "SimReport": "sim",
    "Simulator": "sim",
    "simulate": "sim",
    "ConfigureOutcome": "recon_server",
    "Job": "recon_server",
    "JobResult": "recon_server",
    "ReconfigurationServer": "recon_server",
    "BUILTIN_RECIPES": "rewriter",
    "MAC_RECIPE": "rewriter",
    "POPCOUNT_RECIPE": "rewriter",
    "SATADD_RECIPE": "rewriter",
    "RewriteRecipe": "rewriter",
    "install_recipes": "rewriter",
    "ConfigurationSpace": "space",
    "ResultCache": "sweep",
    "MatrixCell": "sweep",
    "MatrixOutcome": "sweep",
    "SweepOutcome": "sweep",
    "SweepPoint": "sweep",
    "SweepRunner": "sweep",
    "SweepStats": "sweep",
    "best_point": "sweep",
    "image_digest": "sweep",
    "pareto_front": "sweep",
    "Bitfile": "synthesis",
    "DeviceUtilization": "synthesis",
    "SynthesisError": "synthesis",
    "SynthesisModel": "synthesis",
    "figure10_table": "synthesis",
    "AnalysisReport": "trace_analyzer",
    "Recommendation": "trace_analyzer",
    "TraceAnalyzer": "trace_analyzer",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value
