"""The columnar path factory and tail sampler against per-path oracles.

:class:`ReferenceFactory` builds every synthetic path the way the
factory did before it appended whole families as columns: one
:class:`Path` per path, interned one at a time.  Every materialized
path of the columnar table must equal it, in id order.  The tail
sampler of :class:`LoopRegion` must equal ``Generator.choice`` with
``p=``, whose algorithm it reproduces, so a change to numpy's sampler
fails here instead of silently changing every trace.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.workloads.generator as generator_mod
from repro.experiments.engine import trace_digest
from repro.experiments.phases import phases_config
from repro.trace.path import Path, PathSignature
from repro.workloads import BENCHMARK_ORDER, BENCHMARKS, WorkloadGenerator
from repro.workloads.pathmodel import PathFactory, RegionGeometry
from repro.workloads.regions import LoopRegion, RegionSpec, build_region
from tests.conftest import ENGINE_TEST_SCALE


class ReferenceFactory(PathFactory):
    """Per-path construction: one ``Path`` object per synthetic path."""

    def make_tail_path(
        self,
        geometry: RegionGeometry,
        variant: int,
        num_blocks: int,
        instructions_per_block: int = 3,
    ) -> int:
        cond_branches = max(num_blocks - 1, 1)
        bit_count = max(cond_branches, variant.bit_length(), 1)
        signature = PathSignature(
            start_address=geometry.head_address,
            history=variant,
            bit_count=bit_count,
            indirect_targets=(),
        )
        blocks = [geometry.head_uid]
        for offset in range(num_blocks - 1):
            blocks.append(
                geometry.first_tail_uid
                + (variant + offset) % max(num_blocks * 2, 1)
            )
        path = Path(
            signature=signature,
            blocks=tuple(blocks),
            start_uid=geometry.head_uid,
            num_instructions=num_blocks * instructions_per_block,
            num_cond_branches=cond_branches,
            num_indirect_branches=0,
            ends_with_backward_branch=True,
        )
        return self.table.intern(path)

    def make_tail_paths(
        self,
        geometry: RegionGeometry,
        variants,
        num_blocks,
        instructions_per_block: int = 3,
    ) -> np.ndarray:
        return np.array(
            [
                self.make_tail_path(
                    geometry, int(variant), int(count), instructions_per_block
                )
                for variant, count in zip(variants, num_blocks)
            ],
            dtype=np.int64,
        )

    def make_exit_path(
        self, geometry: RegionGeometry, instructions_per_block: int = 3
    ) -> int:
        signature = PathSignature(
            start_address=geometry.head_address,
            history=(1 << 62) - 1,
            bit_count=62,
            indirect_targets=(),
        )
        path = Path(
            signature=signature,
            blocks=(geometry.head_uid, geometry.first_tail_uid),
            start_uid=geometry.head_uid,
            num_instructions=2 * instructions_per_block,
            num_cond_branches=1,
            num_indirect_branches=0,
            ends_with_backward_branch=True,
        )
        return self.table.intern(path)


def _assert_same_paths(table, reference) -> None:
    assert len(table) == len(reference)
    for path_id in range(len(reference)):
        assert table.path(path_id) == reference.path(path_id), path_id


CONFIGS = [
    pytest.param(
        lambda: BENCHMARKS[name].config(flow_scale=ENGINE_TEST_SCALE), id=name
    )
    for name in BENCHMARK_ORDER
] + [pytest.param(lambda: phases_config(ENGINE_TEST_SCALE), id="phased")]


@pytest.mark.parametrize("make_config", CONFIGS)
def test_generated_trace_matches_per_path_oracle(make_config, monkeypatch):
    config = make_config()
    trace = WorkloadGenerator(config).generate()
    monkeypatch.setattr(generator_mod, "PathFactory", ReferenceFactory)
    reference = WorkloadGenerator(config).generate()
    assert np.array_equal(trace.path_ids, reference.path_ids)
    _assert_same_paths(trace.table, reference.table)
    # The per-path columns and the digest agree with the interned form.
    for key, column in trace.static_columns().items():
        expected = reference.static_columns()[key]
        assert column.dtype == expected.dtype
        assert np.array_equal(column, expected), key
    assert trace_digest(trace) == trace_digest(reference)


region_specs = st.builds(
    lambda kind, tails, depth, low, span, ipb: RegionSpec(
        kind=kind,
        num_tails=tails,
        depth=depth,
        blocks_min=low,
        blocks_max=low + span,
        instr_per_block=ipb,
    ),
    kind=st.sampled_from(["loop", "nest"]),
    tails=st.integers(1, 64),
    depth=st.integers(2, 5),
    low=st.integers(1, 12),
    span=st.integers(0, 12),
    ipb=st.integers(1, 9),
)


@given(
    specs=st.lists(region_specs, min_size=1, max_size=4),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=80, deadline=None)
def test_region_paths_match_per_path_oracle(specs, seed):
    factory, reference = PathFactory(), ReferenceFactory()
    for index, spec in enumerate(specs):
        built = build_region(spec, factory, seed + index)
        expected = build_region(spec, reference, seed + index)
        assert built.head_uids == expected.head_uids
        if isinstance(built, LoopRegion):
            assert np.array_equal(built.tail_ids, expected.tail_ids)
            assert built.exit_id == expected.exit_id
    _assert_same_paths(factory.table, reference.table)


@pytest.mark.parametrize("num_tails", [1, 2, 7, 64])
@pytest.mark.parametrize("skew", [0.0, 1.3])
def test_tail_sampling_matches_generator_choice(num_tails, skew):
    spec = RegionSpec(
        kind="loop", num_tails=num_tails, tail_skew=skew, iters_mean=6
    )
    for seed in range(60):
        region = LoopRegion(spec, PathFactory(), seed)
        rng = np.random.default_rng(seed)
        # The constructor's draw: one block count per tail.
        rng.integers(spec.blocks_min, spec.blocks_max + 1, size=num_tails)
        for visit in range(8):
            iterations = 1 + rng.poisson(spec.iters_mean - 1.0)
            sampled = rng.choice(
                region.tail_ids, size=int(iterations), p=region.tail_probs
            )
            parts = [sampled, [region.exit_id]]
            if visit == 0:
                parts.insert(0, region.tail_ids)
            assert np.array_equal(region.emit(), np.concatenate(parts))
