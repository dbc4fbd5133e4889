"""Pipeline-depth dimension tests (§1: "modifiable pipeline depth")."""

import pytest

from repro.core import ArchitectureConfig, SynthesisModel, simulate
from repro.toolchain.driver import compile_c_program

BRANCHY = """
int main(void) {
    int count = 0;
    for (int i = 0; i < 2000; i++) {
        if (i % 3 == 0) count++;
        else if (i % 3 == 1) count += 2;
        else count -= 1;
    }
    return count;
}
"""

STRAIGHT = """
int main(void) {
    unsigned a = 1, b = 2, c = 3, d = 4;
    for (int i = 0; i < 500; i++) {
        a = a * 3 + 1; b = b * 5 + 2; c = c * 7 + 3; d = d * 9 + 4;
        a = a ^ b; b = b ^ c; c = c ^ d; d = d ^ a;
        a = a + b; b = b + c; c = c + d; d = d + a;
    }
    return (int)((a + b + c + d) & 0x7FFFFFFF);
}
"""


class TestConfig:
    def test_depths_supported(self):
        for depth in (3, 5, 7):
            ArchitectureConfig(pipeline_depth=depth)
        with pytest.raises(ValueError):
            ArchitectureConfig(pipeline_depth=4)

    def test_key_marks_nonbaseline_depths(self):
        assert "p7" in ArchitectureConfig(pipeline_depth=7).key()
        assert "p5" not in ArchitectureConfig().key()

    def test_timing_mapping(self):
        deep = ArchitectureConfig(pipeline_depth=7).timing()
        assert deep.taken_cti_penalty == 2
        shallow = ArchitectureConfig(pipeline_depth=3).timing()
        assert shallow.taken_cti_penalty == 0
        assert not shallow.load_use_interlock
        baseline = ArchitectureConfig().timing()
        assert baseline.taken_cti_penalty == 0
        assert baseline.load_use_interlock


class TestSynthesis:
    def test_depth_changes_clock_and_area(self):
        model = SynthesisModel()
        u3 = model.estimate(ArchitectureConfig(pipeline_depth=3))
        u5 = model.estimate(ArchitectureConfig(pipeline_depth=5))
        u7 = model.estimate(ArchitectureConfig(pipeline_depth=7))
        assert u3.frequency_mhz < u5.frequency_mhz < u7.frequency_mhz
        assert u3.slices < u5.slices < u7.slices

    def test_baseline_figure10_untouched(self):
        utilization = SynthesisModel().estimate(ArchitectureConfig())
        assert utilization.slices == 7900
        assert utilization.frequency_mhz == 30.0


@pytest.mark.slow
class TestBehaviour:
    @pytest.fixture(scope="class")
    def images(self):
        return (compile_c_program(BRANCHY), compile_c_program(STRAIGHT))

    def test_deep_pipeline_costs_cycles_on_branchy_code(self, images):
        branchy, _ = images
        base = simulate(branchy, ArchitectureConfig(pipeline_depth=5))
        deep = simulate(branchy, ArchitectureConfig(pipeline_depth=7))
        assert deep.cycles > base.cycles
        assert deep.result_word == base.result_word

    def test_depth_crossover_in_model_time(self, images):
        """The liquid-architecture payoff: which depth is *fastest in
        seconds* depends on the application — branchy code favours the
        5-stage, straight-line code favours the 7-stage's faster clock."""
        branchy, straight = images
        model = SynthesisModel()

        def model_seconds(image, depth):
            config = ArchitectureConfig(pipeline_depth=depth)
            report = simulate(image, config)
            mhz = model.estimate(config).frequency_mhz
            return report.cycles / (mhz * 1e6)

        branchy_5 = model_seconds(branchy, 5)
        branchy_7 = model_seconds(branchy, 7)
        straight_5 = model_seconds(straight, 5)
        straight_7 = model_seconds(straight, 7)
        # Straight-line code: the clock win dominates.
        assert straight_7 < straight_5
        # The deep pipeline's advantage shrinks (or inverts) on branchy
        # code relative to straight-line code.
        assert (branchy_7 / branchy_5) > (straight_7 / straight_5)

    def test_shallow_pipeline_has_no_load_use_bubble(self, images):
        image = compile_c_program("""
int main(void) {
    volatile int x = 5;
    int total = 0;
    for (int i = 0; i < 500; i++) {
        total += x;     /* load immediately used: interlock on 5-stage */
    }
    return total;
}""")
        base = simulate(image, ArchitectureConfig(pipeline_depth=5))
        shallow = simulate(image, ArchitectureConfig(pipeline_depth=3))
        assert shallow.cycles < base.cycles
        assert shallow.result_word == base.result_word

    def test_space_dimension(self):
        from repro.core import ConfigurationSpace

        space = ConfigurationSpace().add_dimension("pipeline_depth",
                                                   [3, 5, 7])
        assert [p.pipeline_depth for p in space] == [3, 5, 7]
