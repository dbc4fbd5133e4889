"""Sweep engine tests: determinism across executors, the two-layer
result cache, selection helpers, and config/image identity."""

import contextlib
import dataclasses
import functools
import json
import shutil
import tempfile
from pathlib import Path

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ArchitectureConfig,
    ConfigurationSpace,
    ResultCache,
    SweepRunner,
    best_point,
    image_digest,
    pareto_front,
)
from repro.cache.cache import CacheGeometry
from repro.core import sweep
from repro.core.sampling import SamplingPlan
from repro.core.sweep import _record_digest
from repro.toolchain.driver import compile_c_program

# A miniature Figure-7-shaped kernel: strided array access, small enough
# that one simulation is milliseconds, with the same knee behaviour.
KERNEL = """
unsigned count[1024];

int main(void) {
    unsigned i;
    volatile unsigned x;
    for (i = 0; i < 2000; i = i + 32) {
        x = count[i % 1024];
    }
    return 7;
}
"""


@contextlib.contextmanager
def _edited_sources(tmp_path, monkeypatch):
    """Within the block, :func:`sweep.model_digest` hashes a copy of the
    ``repro`` sources in which one ``TimingConfig`` default differs."""
    root = tmp_path / "repro"
    shutil.copytree(Path(sweep.__file__).parents[1], root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    pipeline = root / "cpu" / "pipeline.py"
    source = pipeline.read_text()
    edited = source.replace("store_cycles: int = 3",
                            "store_cycles: int = 4", 1)
    assert edited != source
    pipeline.write_text(edited)
    with monkeypatch.context() as patch:
        patch.setattr(sweep, "__file__", str(root / "core" / "sweep.py"))
        sweep.model_digest.cache_clear()
        try:
            yield
        finally:
            sweep.model_digest.cache_clear()


@pytest.fixture(scope="module")
def image():
    return compile_c_program(KERNEL)


@pytest.fixture(scope="module")
def space():
    return ConfigurationSpace.paper_cache_sweep()


@pytest.fixture(scope="module")
def serial_outcome(image, space):
    return SweepRunner().sweep(space, image)


class TestIdentity:
    def test_fingerprint_stable_across_equal_configs(self):
        a = ArchitectureConfig().with_dcache_size(2048)
        b = ArchitectureConfig().with_dcache_size(2048)
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_distinguishes_every_point(self, space):
        fingerprints = [config.fingerprint() for config in space]
        assert len(set(fingerprints)) == space.size

    def test_fingerprint_sees_fields_key_ignores(self):
        """key() names extensions only by name; the fingerprint must
        also see their cost fields."""
        from repro.core import ExtensionSpec

        cheap = ArchitectureConfig(extensions=(
            ExtensionSpec("mac", opf=0x10, cycles=1),))
        slow = ArchitectureConfig(extensions=(
            ExtensionSpec("mac", opf=0x10, cycles=4),))
        assert cheap.key() == slow.key()
        assert cheap.fingerprint() != slow.fingerprint()

    def test_image_digest_tracks_content(self, image):
        assert image_digest(image) == image_digest(image)
        other = compile_c_program(KERNEL.replace("return 7", "return 8"))
        assert image_digest(other) != image_digest(image)


class TestDeterminism:
    def test_parallel_matches_serial_byte_for_byte(self, image, space,
                                                   serial_outcome):
        """The satellite contract: a parallel sweep over the paper's
        cache sweep returns exactly the same SimReport fields (cycles,
        CPI, cache stats, ...) as the serial sweep, in the same order."""
        parallel = SweepRunner(workers=2).sweep(space, image)
        assert [p.canonical_json() for p in parallel.points] \
            == [p.canonical_json() for p in serial_outcome.points]
        assert [p.config for p in parallel.points] == list(space)

    def test_points_carry_simreport_fields(self, serial_outcome):
        for point in serial_outcome.points:
            assert point.cycles > 0
            assert point.instructions > 0
            assert point.cpi == point.cycles / point.instructions
            assert point.dcache["read_misses"] >= 0
            assert point.icache["read_hits"] > 0
            assert point.result_word == 7
            assert point.source == "simulated"

    def test_paper_knee_shape(self, serial_outcome):
        cycles = {p.config.dcache.size: p.cycles
                  for p in serial_outcome.points}
        assert cycles[1024] == cycles[2048]
        assert cycles[4096] < cycles[1024]
        assert cycles[4096] == cycles[8192] == cycles[16384]


class TestObsSnapshots:
    """Per-point telemetry: present, meaningful, and byte-deterministic
    across executors — the persisted-snapshot acceptance contract."""

    def test_points_carry_obs_series(self, serial_outcome):
        for point in serial_outcome.points:
            counters = point.obs["counters"]
            assert counters["pipeline.interlock_stalls"] >= 0
            assert counters["pipeline.cycles"] == point.cycles
            assert counters["pipeline.instructions"] == point.instructions
            assert counters["cache.read_misses{cache=dcache}"] \
                == point.dcache["read_misses"]
            # The Sim box has no network; the series still exists (at
            # zero) so remote-run snapshots diff against local ones.
            assert counters["transport.dropped_corrupt"] == 0
            # One histogram observation per demand read miss.
            assert point.obs["histograms"][
                "cache.miss_cycles{cache=dcache}"]["count"] \
                == point.dcache["read_misses"]
            occupancy = point.obs["gauges"]["pipeline.occupancy{stage=EX}"]
            assert 0 < occupancy <= 1

    def test_serial_and_parallel_persist_identical_snapshots(
            self, image, tmp_path):
        """Differential satellite: sweep 4 D-cache sizes serially and
        with 2 workers into two separate disk caches; every persisted
        per-point record — obs snapshot included — must be
        byte-identical."""
        configs = [ArchitectureConfig().with_dcache_size(size)
                   for size in (1024, 2048, 4096, 8192)]
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        SweepRunner(cache=ResultCache(serial_dir)).sweep(configs, image)
        SweepRunner(workers=2, cache=ResultCache(parallel_dir)).sweep(
            configs, image)
        digest = image_digest(image)
        serial_files = sorted((serial_dir / digest).glob("*.json"))
        assert len(serial_files) == 4
        for serial_file in serial_files:
            parallel_file = parallel_dir / digest / serial_file.name
            assert serial_file.read_bytes() == parallel_file.read_bytes()
            record = json.loads(serial_file.read_text())
            assert record["obs"]["counters"]["pipeline.cycles"] > 0

    def test_obs_survives_cache_round_trip(self, image, tmp_path):
        config = ArchitectureConfig()
        SweepRunner(cache=ResultCache(tmp_path)).sweep([config], image)
        outcome = SweepRunner(cache=ResultCache(tmp_path)).sweep(
            [config], image)
        point = outcome.points[0]
        assert point.source == "disk"
        assert point.obs["counters"]["pipeline.cycles"] == point.cycles

    def test_sweep_runner_host_registry(self, image):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        runner = SweepRunner(obs=registry)
        configs = [ArchitectureConfig(),
                   ArchitectureConfig().with_dcache_size(2048)]
        runner.sweep(configs, image)
        snap = registry.snapshot()
        assert snap["counters"]["sweep.points"] == 2
        assert snap["counters"]["sweep.simulated"] == 2
        assert snap["histograms"]["sweep.point_wall_ms"]["count"] == 2
        assert snap["gauges"]["sweep.workers"] == 0

    def test_only_a_translated_run_reports_empty_obs(self, image):
        from repro.core.sim import Simulator

        assert Simulator().run(image).obs["counters"]
        report = Simulator().run_translated(image)
        assert report.obs == {}
        assert report.cycles > 0


class TestResultCache:
    def test_second_run_is_all_memory_hits(self, image, space):
        cache = ResultCache()
        runner = SweepRunner(cache=cache)
        first = runner.sweep(space, image)
        second = runner.sweep(space, image)
        assert first.stats.simulated == space.size
        assert second.stats.simulated == 0
        assert second.stats.memory_hits == space.size
        assert cache.stats.misses == space.size
        assert cache.stats.memory_hits == space.size
        assert [p.canonical_json() for p in first.points] \
            == [p.canonical_json() for p in second.points]
        assert all(p.source == "memory" for p in second.points)

    def test_disk_layer_survives_new_process_state(self, image, space,
                                                   tmp_path):
        first = SweepRunner(cache=ResultCache(tmp_path)).sweep(space, image)
        # A brand-new cache object sees only the on-disk layer — the
        # "restart the tool, keep the results" economics.
        cache = ResultCache(tmp_path)
        second = SweepRunner(cache=cache).sweep(space, image)
        assert second.stats.simulated == 0
        assert second.stats.disk_hits == space.size
        assert all(p.source == "disk" for p in second.points)
        assert [p.canonical_json() for p in first.points] \
            == [p.canonical_json() for p in second.points]

    def test_disk_layout_is_digest_then_fingerprint(self, image, space,
                                                    tmp_path):
        SweepRunner(cache=ResultCache(tmp_path)).sweep(space, image)
        digest_dir = tmp_path / image_digest(image)
        assert digest_dir.is_dir()
        files = sorted(digest_dir.glob("*.json"))
        assert len(files) == space.size
        record = json.loads(files[0].read_text())
        assert record["schema"] == 6
        assert record["cycles"] > 0

    @pytest.mark.parametrize("corrupt", [
        lambda text: "{not json",
        lambda text: "[1, 2, 3]",
        lambda text: text[:len(text) // 2],
        lambda text: json.dumps({**json.loads(text), "schema": 4}),
        lambda text: json.dumps({key: value for key, value
                                 in json.loads(text).items()
                                 if key != "instructions"}),
    ], ids=["not-json", "json-list", "truncated", "wrong-schema",
            "missing-field"])
    def test_corrupt_disk_record_is_a_miss(self, image, tmp_path, corrupt):
        config = ArchitectureConfig()
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache).sweep([config], image)
        path = cache._path(image_digest(image), config.fingerprint())
        path.write_text(corrupt(path.read_text()))
        fresh = ResultCache(tmp_path)
        outcome = SweepRunner(cache=fresh).sweep([config], image)
        assert outcome.stats.simulated == 1
        assert fresh.stats.misses == 1

    def test_cache_distinguishes_images(self, image, tmp_path):
        other = compile_c_program(KERNEL.replace("return 7", "return 9"))
        cache = ResultCache(tmp_path)
        config = ArchitectureConfig()
        SweepRunner(cache=cache).sweep([config], image)
        outcome = SweepRunner(cache=cache).sweep([config], other)
        assert outcome.stats.simulated == 1
        assert outcome.points[0].result_word == 9

    def test_disk_records_are_keyed_by_the_model(self, image, tmp_path,
                                                 monkeypatch):
        """A disk record is served only to the simulator sources that
        wrote it: a fresh cache over a sweep's directory hits every
        point, and misses every point once one ``TimingConfig`` default
        in the sources differs."""
        space = [ArchitectureConfig(),
                 ArchitectureConfig().with_dcache_size(1024)]
        cache_dir = tmp_path / "cache"
        SweepRunner(cache=ResultCache(cache_dir)).sweep(space, image)
        rerun = SweepRunner(cache=ResultCache(cache_dir)).sweep(space, image)
        assert rerun.stats.disk_hits == len(space)

        cache = ResultCache(cache_dir)
        with _edited_sources(tmp_path, monkeypatch):
            edited_run = SweepRunner(cache=cache).sweep(space, image)
        assert edited_run.stats.simulated == len(space)
        assert cache.stats.disk_hits == 0

    def test_disk_records_are_keyed_by_the_numpy_version(
            self, image, tmp_path, monkeypatch):
        """``random`` replacement draws from NumPy's generator, whose
        stream may change between NumPy versions: under another version
        every disk record is a miss."""
        space = [ArchitectureConfig(dcache=CacheGeometry(
            1024, 32, ways=2, replacement="random"))]
        cache_dir = tmp_path / "cache"
        SweepRunner(cache=ResultCache(cache_dir)).sweep(space, image)
        rerun = SweepRunner(cache=ResultCache(cache_dir)).sweep(space, image)
        assert rerun.stats.disk_hits == len(space)
        cache = ResultCache(cache_dir)
        with monkeypatch.context() as patch:
            patch.setattr(numpy, "__version__", numpy.__version__ + ".post1")
            sweep.model_digest.cache_clear()
            try:
                rerun = SweepRunner(cache=cache).sweep(space, image)
            finally:
                sweep.model_digest.cache_clear()
        assert rerun.stats.simulated == len(space)
        assert cache.stats.disk_hits == 0

    def test_a_store_removes_the_points_records_from_other_sources(
            self, image, tmp_path, monkeypatch):
        """Storing a point under edited sources deletes its record from
        the old sources, so the directory holds one record per point; a
        sampled record of the same config is another point and stays."""
        config = ArchitectureConfig()
        plan = SamplingPlan(n_windows=2, window_length=100, ramp_length=32,
                            seed=1)
        cache_dir = tmp_path / "cache"
        SweepRunner(cache=ResultCache(cache_dir)).sweep([config], image)
        SweepRunner(cache=ResultCache(cache_dir)).sweep([config], image,
                                                        sampling=plan)
        sampled = [path for path in cache_dir.rglob("*.json")
                   if "-smp" in path.name]
        assert len(sampled) == 1

        cache = ResultCache(cache_dir)
        with _edited_sources(tmp_path, monkeypatch):
            outcome = SweepRunner(cache=cache).sweep([config], image)
            fresh = cache._path(image_digest(image), config.fingerprint())
        assert outcome.stats.simulated == 1
        assert sorted(path for path in cache_dir.rglob("*")
                      if path.is_file()) == sorted([fresh, *sampled])


class TestObservability:
    def test_progress_callback_order_and_counts(self, image, space):
        seen = []
        runner = SweepRunner(
            workers=2,
            progress=lambda done, total, point: seen.append(
                (done, total, point.config.dcache.size)))
        runner.sweep(space, image)
        sizes = [config.dcache.size for config in space]
        assert seen == [(i + 1, space.size, size)
                        for i, size in enumerate(sizes)]

    def test_per_point_timing_recorded(self, serial_outcome):
        assert all(p.wall_seconds > 0 for p in serial_outcome.points)
        assert serial_outcome.stats.sim_seconds > 0
        assert serial_outcome.stats.wall_seconds > 0


class TestSelection:
    def test_best_point_by_cycles_and_seconds(self, serial_outcome):
        fastest = serial_outcome.best_point("cycles")
        assert fastest.cycles == min(p.cycles
                                     for p in serial_outcome.points)
        # Ties on cycles break toward the earlier (4 KB) point.
        assert fastest.config.dcache.size == 4096
        by_seconds = best_point(serial_outcome.points, "seconds")
        assert by_seconds.seconds == min(p.seconds
                                         for p in serial_outcome.points)

    def test_pareto_front_cycles_vs_area(self, serial_outcome):
        front = pareto_front(serial_outcome.points)
        # 2/8/16 KB are dominated (same cycles as a smaller cache,
        # more slices); the frontier is the knee and the smallest cache.
        assert {p.config.dcache.size for p in front} == {1024, 4096}
        for point in front:
            for other in serial_outcome.points:
                dominates = (other.cycles <= point.cycles
                             and other.slices <= point.slices
                             and (other.cycles < point.cycles
                                  or other.slices < point.slices))
                assert not dominates

    def test_best_point_empty_raises(self):
        with pytest.raises(ValueError):
            best_point([])


class TestInputs:
    def test_accepts_plain_config_list_and_many_images(self, image):
        other = compile_c_program(KERNEL.replace("return 7", "return 11"))
        configs = [ArchitectureConfig(),
                   ArchitectureConfig().with_dcache_size(2048)]
        outcome = SweepRunner().sweep(configs, [image, other])
        assert len(outcome.points) == 4
        # Image-major deterministic order.
        assert [p.result_word for p in outcome.points] == [7, 7, 11, 11]
        assert [p.index for p in outcome.points] == [0, 1, 2, 3]

    def test_empty_sweep_rejected(self, image):
        with pytest.raises(ValueError):
            SweepRunner().sweep([], image)

    def test_points_are_immutable_records(self, serial_outcome):
        with pytest.raises(dataclasses.FrozenInstanceError):
            serial_outcome.points[0].cycles = 0


@functools.lru_cache(maxsize=1)
def _stored_record() -> tuple[str, str, str, bytes]:
    """``(digest, fingerprint, record JSON, file bytes)`` of one point
    written by the disk layer."""
    image = compile_c_program(KERNEL)
    config = ArchitectureConfig()
    with tempfile.TemporaryDirectory() as directory:
        cache = ResultCache(directory)
        SweepRunner(cache=cache).sweep([config], image)
        digest, fingerprint = image_digest(image), config.fingerprint()
        record = cache.get(digest, fingerprint)[0]
        blob = cache._path(digest, fingerprint).read_bytes()
    return digest, fingerprint, json.dumps(record, sort_keys=True), blob


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=3)),
    max_leaves=6)


def _get_from_disk(blob: bytes):
    digest, fingerprint, _, _ = _stored_record()
    with tempfile.TemporaryDirectory() as directory:
        cache = ResultCache(directory)
        path = cache._path(digest, fingerprint)
        path.parent.mkdir()
        path.write_bytes(blob)
        return cache.get(digest, fingerprint)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_corrupt_disk_records_fuzz_to_misses(data):
    """Truncated, wrong-schema and wrong-type files are misses; a
    bit-flipped file is a miss unless the flip left the record's content
    intact.  Never an exception, never a wrong record."""
    _, _, original, blob = _stored_record()
    mutation = data.draw(st.sampled_from(
        ["truncate", "bitflip", "schema", "retype", "whole"]))
    if mutation == "truncate":
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    elif mutation == "bitflip":
        index = data.draw(st.integers(0, len(blob) - 1))
        bit = data.draw(st.integers(0, 7))
        blob = blob[:index] + bytes([blob[index] ^ (1 << bit)]) \
            + blob[index + 1:]
    else:
        record = json.loads(blob)
        if mutation == "schema":
            # A well-formed record of another schema, digest and all.
            del record["sha256"]
            record["schema"] = data.draw(
                st.integers().filter(lambda n: n != record["schema"]))
            record["sha256"] = _record_digest(record)
        elif mutation == "retype":
            # Another value, so that the record really changes.
            key = data.draw(st.sampled_from(sorted(record)))
            old = json.dumps(record[key], sort_keys=True)
            record[key] = data.draw(JSON_VALUES.filter(
                lambda value: json.dumps(value, sort_keys=True) != old))
        else:
            record = data.draw(JSON_VALUES)
        blob = json.dumps(record).encode()
    hit = _get_from_disk(blob)
    if mutation == "bitflip" and hit is not None:
        assert json.dumps(hit[0], sort_keys=True) == original
    else:
        assert hit is None
