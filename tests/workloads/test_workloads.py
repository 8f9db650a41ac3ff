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
from repro.workloads.regions import (
    LoopRegion,
    NestedRegion,
    VisitRenderer,
    build_run,
)


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
    assert spec_heads(loop) == 1 and spec_paths(loop) == 4
    nest = RegionSpec(kind="nest", depth=3)
    assert spec_heads(nest) == 3 and spec_paths(nest) == 4
    with pytest.raises(WorkloadError):
        RegionSpec(kind="mystery")
    with pytest.raises(WorkloadError):
        RegionSpec(kind="nest", depth=1)
    with pytest.raises(WorkloadError, match="blocks_max"):
        RegionSpec(blocks_min=5, blocks_max=4)
    with pytest.raises(WorkloadError, match="blocks_max"):
        RegionSpec(blocks_min=1, blocks_max=2**32 + 1)
    # The widest range admitted: 2**32 values.
    RegionSpec(blocks_min=1, blocks_max=2**32)


def _render_visits(regions, visits):
    """Visit the regions at ``visits`` in order; the rendered path ids
    and each visit's path count."""
    lengths = [regions[index].visit() for index in visits]
    return VisitRenderer(regions).render(visits, lengths), lengths


def test_loop_region_emits_designed_paths():
    factory = PathFactory()
    spec = RegionSpec(kind="loop", num_tails=4, iters_mean=30)
    (region,) = build_run(spec, factory, [1])
    ids, lengths = _render_visits([region], [0, 0])
    first, second = ids[: lengths[0]], ids[lengths[0] :]
    # The first visit covers every tail once, then runs its iterations
    # and the exit path; the exit path ends every visit and only it.
    assert first[:4].tolist() == [0, 1, 2, 3]
    assert first[-1] == second[-1] == 4
    assert np.flatnonzero(ids == 4).tolist() == [len(first) - 1, len(ids) - 1]
    assert len(factory.table) == 5


def test_nested_region_structure():
    factory = PathFactory()
    spec = RegionSpec(kind="nest", depth=3, iters_mean=10, outer_iters_mean=2)
    (region,) = build_run(spec, factory, [2])
    ids, _ = _render_visits([region], [0])
    table = factory.table
    heads = {table.path(path_id).start_uid for path_id in range(len(table))}
    assert len(heads) == 3
    assert len(table) == 4  # 2 descend + inner + exit
    # Every outer iteration: descend 0, 1, the inner path, its exit.
    starts = np.flatnonzero(ids == 0)
    for start, end in zip(starts, [*starts[1:], len(ids)]):
        iteration = ids[start:end].tolist()
        assert iteration[:2] == [0, 1] and iteration[-1] == 3
        assert set(iteration[2:-1]) == {2}


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


def spec_heads(spec: RegionSpec) -> int:
    """Path heads one region contributes."""
    return spec.depth if spec.kind == "nest" else 1


def spec_paths(spec: RegionSpec) -> int:
    """Dynamic paths one region contributes once fully covered."""
    return spec.depth + 1 if spec.kind == "nest" else spec.num_tails + 1


def design_heads(config: WorkloadConfig) -> int:
    """Path heads the region mix contributes by design."""
    return sum(spec_heads(spec) for spec in config.regions)


def design_paths(config: WorkloadConfig) -> int:
    """Dynamic paths the region mix contributes by design."""
    return sum(spec_paths(spec) for spec in config.regions)


def test_design_counts_match_paper_for_all_benchmarks():
    for name in BENCHMARK_ORDER:
        spec = BENCHMARKS[name]
        config = spec.config()
        assert design_heads(config) == spec.paper_heads, name
        assert design_paths(config) == spec.paper_paths, name


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
    # A fresh generation from the same config reproduces the cached trace.
    second = Workload(workload.config).trace()
    assert second is not first
    assert np.array_equal(second.path_ids, first.path_ids)


def test_workload_wrapper_name():
    config = WorkloadConfig(
        name="wrapped", seed=1, target_flow=100, regions=[RegionSpec()]
    )
    assert Workload(config).name == "wrapped"
