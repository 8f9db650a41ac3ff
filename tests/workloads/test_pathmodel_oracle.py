"""``build_run``, its seeding and the tail sampler against oracles.

:mod:`tests.workloads.region_oracle` builds every region alone, from
``default_rng(seed)``, with one :class:`Path` per synthetic path,
interned one at a time.  Every trace ``build_run`` generates must
equal it in id order, column by column and by digest.  The vectorized
seeding must equal numpy's ``SeedSequence`` and ``default_rng``.  The
tail sampler of :class:`LoopRegion` must equal ``Generator.choice``
with ``p=``, whose algorithm it reproduces, so a change to numpy's
sampler fails here instead of silently changing every trace.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.workloads.generator as generator_mod
from repro.experiments.engine import trace_digest
from repro.experiments.phases import phases_config
from repro.workloads import BENCHMARK_ORDER, BENCHMARKS, WorkloadGenerator
from repro.workloads.pathmodel import PathFactory, zipf_probabilities
from repro.workloads.regions import (
    RegionSpec,
    build_run,
    seed_states,
    seeded_generators,
)
from tests.conftest import ENGINE_TEST_SCALE
from tests.workloads import region_oracle
from tests.workloads.region_oracle import ReferenceFactory


def _assert_same_paths(table, reference) -> None:
    assert len(table) == len(reference)
    for path_id in range(len(reference)):
        assert table.path(path_id) == reference.path(path_id), path_id


def _reference_trace(config, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(generator_mod, "PathFactory", ReferenceFactory)
        patch.setattr(generator_mod, "build_run", region_oracle.build_run)
        return WorkloadGenerator(config).generate()


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
    reference = _reference_trace(config, monkeypatch)
    assert np.array_equal(trace.path_ids, reference.path_ids)
    _assert_same_paths(trace.table, reference.table)
    # The per-path columns and the digest agree with the interned form.
    for key, column in trace.static_columns().items():
        expected = reference.static_columns()[key]
        assert column.dtype == expected.dtype
        assert np.array_equal(column, expected), key
    assert trace_digest(trace) == trace_digest(reference)


region_specs = st.builds(
    lambda kind, tails, skew, depth, low, span, ipb: RegionSpec(
        kind=kind,
        num_tails=tails,
        tail_skew=skew,
        depth=depth,
        blocks_min=low,
        blocks_max=low + span,
        instr_per_block=ipb,
    ),
    kind=st.sampled_from(["loop", "nest"]),
    tails=st.integers(1, 64),
    skew=st.sampled_from([0.0, 0.3, 1.3]),
    depth=st.integers(2, 5),
    low=st.integers(1, 12),
    span=st.integers(0, 12),
    ipb=st.integers(1, 9),
)


@given(
    runs=st.lists(
        st.tuples(region_specs, st.integers(1, 6)), min_size=1, max_size=4
    ),
    seed=st.integers(0, 2**40),
)
@settings(max_examples=80, deadline=None)
def test_region_paths_match_per_path_oracle(runs, seed):
    """Runs built in one pass equal their regions built one at a time:
    the same table, and the same ids from every visit."""
    factory, reference = PathFactory(), ReferenceFactory()
    built, expected = [], []
    for spec, count in runs:
        seeds = range(seed, seed + count)
        built += build_run(spec, factory, seeds)
        expected += region_oracle.build_run(spec, reference, seeds)
        seed += count
    _assert_same_paths(factory.table, reference.table)
    for region, oracle in zip(built, expected, strict=True):
        assert type(region) is type(oracle)
        for _ in range(3):
            assert np.array_equal(region.emit(), oracle.emit())


@pytest.mark.parametrize("num_tails", [1, 2, 7, 64])
@pytest.mark.parametrize("skew", [0.0, 1.3])
def test_tail_sampling_matches_generator_choice(num_tails, skew):
    spec = RegionSpec(
        kind="loop", num_tails=num_tails, tail_skew=skew, iters_mean=6
    )
    probs = zipf_probabilities(num_tails, skew)
    regions = build_run(spec, PathFactory(), range(60))
    for seed, region in enumerate(regions):
        rng = np.random.default_rng(seed)
        # build_run's draw: one block count per tail.
        rng.integers(spec.blocks_min, spec.blocks_max + 1, size=num_tails)
        for visit in range(8):
            iterations = 1 + rng.poisson(spec.iters_mean - 1.0)
            sampled = rng.choice(
                region.tail_ids, size=int(iterations), p=probs
            )
            parts = [sampled, [region.exit_id]]
            if visit == 0:
                parts.insert(0, region.tail_ids)
            assert np.array_equal(region.emit(), np.concatenate(parts))


# ----------------------------------------------------------------------
# Seeding
# ----------------------------------------------------------------------

#: Seeds of 1 to 6 little-endian 32-bit entropy words: numpy mixes the
#: first four into its pool and every further word in an extra loop.
seeds_by_words = st.integers(1, 6).flatmap(
    lambda words: st.integers(0, 2 ** (32 * words) - 1)
)


@given(st.lists(seeds_by_words, min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_seed_states_match_seed_sequence(seeds):
    states = seed_states(seeds)
    assert states.dtype == np.uint64 and states.shape == (len(seeds), 4)
    for seed, state in zip(seeds, states):
        expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert np.array_equal(state, expected), seed


@pytest.mark.parametrize(
    "seeds",
    [
        range(3000),
        [9102 * 1_000_003 + index for index in range(3000)],
        [2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**128 + 7],
    ],
    ids=["small", "gcc-regions", "word-edges"],
)
def test_seeded_generators_match_default_rng(seeds):
    for seed, rng in zip(seeds, seeded_generators(seeds), strict=True):
        expected = np.random.default_rng(seed)
        assert rng.bit_generator.state == expected.bit_generator.state
        assert np.array_equal(rng.random(4), expected.random(4))


def test_negative_seeds_raise_like_default_rng():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="non-negative"):
        seed_states([3, -1])
    with pytest.raises(ValueError, match="non-negative"):
        build_run(RegionSpec(), PathFactory(), [-5])


def test_importing_targets_leaves_numpy_random_unloaded():
    """Generation imports ``numpy.random`` on first use, not before:
    loading it costs milliseconds every command would pay."""
    code = (
        "import sys, repro.experiments.targets; "
        "print('numpy.random' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"
