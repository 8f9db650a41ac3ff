"""Workload surrogates: calibration, determinism, structure."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.metrics import counter_space, hot_path_set
from repro.workloads import (
    BENCHMARK_ORDER,
    BENCHMARKS,
    Phase,
    RegionSpec,
    Workload,
    WorkloadConfig,
    WorkloadGenerator,
    benchmark_spec,
    load_benchmark,
    zipf_probabilities,
)
from repro.workloads.pathmodel import PathFactory
from repro.workloads.regions import LoopRegion, NestedRegion, build_run


def test_zipf_probabilities():
    probs = zipf_probabilities(5, 1.0)
    assert probs.sum() == pytest.approx(1.0)
    assert all(probs[i] >= probs[i + 1] for i in range(4))
    uniform = zipf_probabilities(4, 0.0)
    assert np.allclose(uniform, 0.25)
    with pytest.raises(WorkloadError):
        zipf_probabilities(0, 1.0)


def test_region_spec_counts():
    loop = RegionSpec(kind="loop", num_tails=3)
    assert loop.num_heads == 1 and loop.num_paths == 4
    nest = RegionSpec(kind="nest", depth=3)
    assert nest.num_heads == 3 and nest.num_paths == 4
    with pytest.raises(WorkloadError):
        RegionSpec(kind="mystery")
    with pytest.raises(WorkloadError):
        RegionSpec(kind="nest", depth=1)


def test_loop_region_emits_designed_paths():
    factory = PathFactory()
    spec = RegionSpec(kind="loop", num_tails=4, iters_mean=30)
    (region,) = build_run(spec, factory, [1])
    chunk = region.emit()
    # First visit covers every tail once plus the exit path.
    assert set(region.tail_ids).issubset(set(chunk))
    assert chunk[-1] == region.exit_id
    assert len(factory.table) == 5


def test_nested_region_structure():
    factory = PathFactory()
    spec = RegionSpec(kind="nest", depth=3, iters_mean=10, outer_iters_mean=2)
    (region,) = build_run(spec, factory, [2])
    chunk = region.emit()
    table = factory.table
    heads = {table.path(path_id).start_uid for path_id in range(len(table))}
    assert len(heads) == 3
    assert len(table) == 4  # 2 descend + inner + exit
    assert region.inner_exit_id in chunk


def test_factory_rejects_blockless_paths():
    factory = PathFactory()
    build_run(RegionSpec(blocks_min=0, blocks_max=0), factory, [0])
    with pytest.raises(WorkloadError, match="at least one block"):
        factory.table


def test_build_run_dispatches():
    factory = PathFactory()
    loops = build_run(RegionSpec(kind="loop"), factory, range(3))
    assert [type(region) for region in loops] == [LoopRegion] * 3
    nests = build_run(RegionSpec(kind="nest"), factory, range(3, 5))
    assert [type(region) for region in nests] == [NestedRegion] * 2


def test_generator_reaches_target_flow():
    config = WorkloadConfig(
        name="tiny",
        seed=5,
        target_flow=5000,
        regions=[RegionSpec(kind="loop", num_tails=2, iters_mean=10)] * 4,
    )
    trace = WorkloadGenerator(config).generate()
    assert trace.flow == 5000


def test_generator_determinism():
    config = benchmark_spec("deltablue").config(flow_scale=0.02)
    a = WorkloadGenerator(config).generate()
    b = WorkloadGenerator(config).generate()
    assert np.array_equal(a.path_ids, b.path_ids)


def test_phase_weights_validation():
    with pytest.raises(WorkloadError):
        Phase(fraction=0.0)
    with pytest.raises(WorkloadError):
        WorkloadConfig(
            name="x",
            seed=0,
            target_flow=10,
            regions=[RegionSpec()],
            phases=[Phase(fraction=0.4)],
        )


def test_design_counts_match_paper_for_all_benchmarks():
    for name in BENCHMARK_ORDER:
        spec = BENCHMARKS[name]
        config = spec.config()
        assert config.design_heads == spec.paper_heads, name
        assert config.design_paths == spec.paper_paths, name


@pytest.mark.parametrize(
    "name,scale", [("deltablue", 0.05), ("compress", 0.35)]
)
def test_small_scale_calibration_bands(name, scale):
    # The scale must leave room for the coverage pass (compress's hot
    # nests emit ~32k occurrences per visit).
    trace = load_benchmark(name, flow_scale=scale).trace()
    spec = BENCHMARKS[name]
    space = counter_space(trace)
    # Dynamic counts equal the design once coverage completes.
    assert space.num_paths == spec.paper_paths
    assert space.num_heads == spec.paper_heads
    hot = hot_path_set(trace)
    assert hot.captured_flow_percent > 80.0


def test_unknown_benchmark():
    with pytest.raises(WorkloadError):
        benchmark_spec("doom")


def test_workload_cache_and_regenerate():
    workload = load_benchmark("deltablue", flow_scale=0.02)
    first = workload.trace()
    assert workload.trace() is first
    second = workload.regenerate()
    assert second is not first
    assert np.array_equal(second.path_ids, first.path_ids)


def test_workload_wrapper_name():
    config = WorkloadConfig(
        name="wrapped", seed=1, target_flow=100, regions=[RegionSpec()]
    )
    assert Workload(config).name == "wrapped"
