"""Experiment E3 — Figure 10: device utilization of the synthesized
Liquid Processor System on the Xilinx Virtex XCV2000E.

Paper values: 7900 of 19200 logic slices (41%), 54 of 160 BlockRAMs,
309 external IOBs, synthesized at 30 MHz.  The synthesis model is
calibrated to reproduce these exactly for the baseline configuration,
and this bench also reports how utilization moves across the Figure 8
sweep (each of those cache sizes was its own pre-generated bitfile).
"""

from repro.core import ConfigurationSpace, SynthesisModel, figure10_table
from repro.core.config import BASELINE

from .conftest import print_table


def test_fig10_baseline(benchmark):
    model = SynthesisModel()
    utilization = benchmark(model.estimate, BASELINE)
    benchmark.extra_info["slices"] = utilization.slices
    benchmark.extra_info["block_rams"] = utilization.block_rams
    benchmark.extra_info["frequency_mhz"] = utilization.frequency_mhz

    print("\n" + figure10_table())

    assert utilization.slices == 7900
    assert round(utilization.slice_percent) == 41
    assert utilization.block_rams == 54
    assert utilization.iobs == 309
    assert utilization.frequency_mhz == 30.0


def test_fig10_across_the_sweep(benchmark):
    model = SynthesisModel()
    space = ConfigurationSpace.paper_cache_sweep()

    def synthesize_all():
        return [model.synthesize(config) for config in space]

    bitfiles = benchmark.pedantic(synthesize_all, rounds=1, iterations=1)

    rows = []
    for bitfile in bitfiles:
        u = bitfile.utilization
        rows.append([
            f"{bitfile.config.dcache.size // 1024}KB",
            f"{u.slices} ({u.slice_percent:.0f}%)",
            f"{u.block_rams} ({u.block_ram_percent:.0f}%)",
            f"{u.frequency_mhz:.1f} MHz",
            f"{bitfile.synthesis_seconds / 3600:.2f} h",
        ])
    print_table("Figure 10 extended: utilization across the D-cache sweep",
                ["D-cache", "Slices", "BlockRAMs", "Clock", "Synth time"],
                rows)

    # Every point fits the device; BRAMs grow monotonically with size.
    brams = [b.utilization.block_rams for b in bitfiles]
    assert all(b.utilization.fits() for b in bitfiles)
    assert brams == sorted(brams)
    # Every instance takes on the order of an hour, as the paper states.
    for bitfile in bitfiles:
        assert 1800 < bitfile.synthesis_seconds < 7200
