"""Registry invariants and both-engine self-checks.

The registry's promise to its consumers (difftest, sweep_matrix, CI):
enough diverse workloads to make the per-class winner question
meaningful, deterministic generation, and a self-check that passes on
both execution engines — no golden answer files.
"""

from __future__ import annotations

import pytest

from repro.core.space import DIMENSION_SETTERS
from repro.workloads import (
    CLASSES,
    DEFAULT_SEED,
    REGISTRY,
    Workload,
    all_workloads,
    by_class,
    get,
    register,
)

WORKLOADS = all_workloads()
IDS = [w.name for w in WORKLOADS]


class TestRegistryShape:
    def test_enough_workloads_and_classes(self):
        # ISSUE acceptance floor: >= 6 workloads spanning >= 4 classes.
        assert len(WORKLOADS) >= 6
        assert len(by_class()) >= 4

    def test_classes_and_axes_are_declared(self):
        for workload in WORKLOADS:
            assert workload.wclass in CLASSES
            assert workload.sweep_axis in DIMENSION_SETTERS
            assert workload.description

    def test_get_and_registration_order(self):
        # all_workloads() preserves registration order but hides the
        # long-running sampling kernels; get() still reaches everything.
        assert [w.name for w in WORKLOADS] == [
            name for name in REGISTRY if not get(name).long_running]
        for name in REGISTRY:
            assert get(name).name == name
        for workload in WORKLOADS:
            assert get(workload.name) is workload
        with pytest.raises(KeyError, match="unknown workload"):
            get("no_such_kernel")

    def test_register_rejects_bad_metadata(self):
        def dummy(workload_cls="crypto", axis="dcache_size", name="tmp"):
            return Workload(
                name=name, wclass=workload_cls, description="d",
                sweep_axis=axis, generate=lambda s: {},
                render=lambda d: "int main(void) { return 0; }",
                reference=lambda d: 0, footprint=lambda d: 0)

        with pytest.raises(ValueError, match="unknown workload class"):
            register(dummy(workload_cls="graphics"))
        with pytest.raises(ValueError, match="unknown sweep axis"):
            register(dummy(axis="branch_predictor"))
        with pytest.raises(ValueError, match="duplicate"):
            register(dummy(name=WORKLOADS[0].name))


class TestDeterminism:
    @pytest.mark.parametrize("workload", WORKLOADS, ids=IDS)
    def test_generation_is_deterministic(self, workload):
        assert workload.input_for(7) == workload.input_for(7)
        assert workload.c_source(7) == workload.c_source(7)
        assert workload.expected(7) == workload.expected(7)

    @pytest.mark.parametrize("workload", WORKLOADS, ids=IDS)
    def test_seeds_change_the_input(self, workload):
        assert workload.input_for(0) != workload.input_for(1)

    @pytest.mark.parametrize("workload", WORKLOADS, ids=IDS)
    def test_footprint_is_positive(self, workload):
        assert workload.footprint_bytes() > 0


class TestSelfChecks:
    @pytest.mark.parametrize("workload", WORKLOADS, ids=IDS)
    def test_functional_engine(self, workload):
        """The architectural (untimed) self-check, on the translated
        engine."""
        result = workload.self_check(engine="translated", seed=DEFAULT_SEED)
        assert result.ok, result.describe()
        assert result.instructions > 0

    @pytest.mark.slow
    @pytest.mark.parametrize("workload", WORKLOADS, ids=IDS)
    def test_accurate_engine(self, workload):
        result = workload.self_check(engine="accurate", seed=DEFAULT_SEED)
        assert result.ok, result.describe()
        assert result.cycles >= result.instructions

    def test_unknown_engine_rejected(self):
        for engine in ("rtl", "functional"):
            with pytest.raises(ValueError, match="unknown engine"):
                WORKLOADS[0].self_check(engine=engine)

    def test_check_rejects_missing_and_wrong_results(self):
        workload = WORKLOADS[0]
        assert not workload.check(None)
        assert not workload.check(workload.expected() ^ 1)
        assert workload.check(workload.expected())
