"""The generator, its seeding and the tail sampler against oracles.

:mod:`tests.workloads.region_oracle` builds every region alone, from
``default_rng(seed)``, with one :class:`Path` per synthetic path,
interned one at a time, and emits each visit's path ids as it happens.
Every trace :class:`WorkloadGenerator` makes, recording visits and
rendering them in bulk, must equal the oracle's in id order, column by
column and by digest.  The vectorized seeding must equal numpy's
``SeedSequence`` and ``default_rng``.  Tail sampling must equal
``Generator.choice`` with ``p=``, whose algorithm it reproduces, so a
change to numpy's sampler fails here instead of silently changing every
trace.
"""

from __future__ import annotations

import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.engine import trace_digest
from repro.experiments.phases import phases_config
from repro.workloads import (
    BENCHMARK_ORDER,
    BENCHMARKS,
    Phase,
    WorkloadConfig,
    WorkloadGenerator,
)
from repro.workloads.pathmodel import PathFactory, zipf_probabilities
from repro.workloads.regions import (
    RegionSpec,
    build_run,
    seed_states,
    seeded_generators,
)
from tests.conftest import ENGINE_TEST_SCALE
from tests.workloads import region_oracle


def _assert_same_paths(table, reference) -> None:
    assert len(table) == len(reference)
    for path_id in range(len(reference)):
        assert table.path(path_id) == reference.path(path_id), path_id


def _assert_same_trace(config):
    """The generator's trace of ``config`` is the oracle's, byte for
    byte: ids, paths and digest.  Returns both traces."""
    trace = WorkloadGenerator(config).generate()
    reference = region_oracle.generate(config)
    assert np.array_equal(trace.path_ids, reference.path_ids)
    _assert_same_paths(trace.table, reference.table)
    assert trace_digest(trace) == trace_digest(reference)
    return trace, reference


CONFIGS = [
    pytest.param(
        lambda: BENCHMARKS[name].config(flow_scale=ENGINE_TEST_SCALE), id=name
    )
    for name in BENCHMARK_ORDER
] + [pytest.param(lambda: phases_config(ENGINE_TEST_SCALE), id="phased")]


@pytest.mark.parametrize("make_config", CONFIGS)
def test_generated_trace_matches_per_path_oracle(make_config):
    trace, reference = _assert_same_trace(make_config())
    # The per-path columns agree with the interned form.
    for key, column in trace.static_columns().items():
        expected = reference.static_columns()[key]
        assert column.dtype == expected.dtype
        assert np.array_equal(column, expected), key


#: ``trace_digest`` of every cold-repro workload at the engine test
#: scale.  Seeding, scheduling, every region's draws and path staging
#: all feed it, so a change to any stream fails here by workload name.
PINNED_TRACE_SHA256 = {
    "compress": "77af714cc36919e208bdf496c3dccd66646f941802e031f58d3eea367c4af1f2",
    "gcc": "b661a61c581f83e2cc4c9965610a01a191df0adb6954b0c9727a5ceef50eaa13",
    "go": "e2fb4f089278517d3b40eebe07f2e6a1c17040fea82fb208c4beb7c349cce02a",
    "ijpeg": "da593bb7fbca822f187dce2639d05b571a66cbc08a5122991ee41ab9f1bbd71d",
    "li": "f7a08c375387d4761ad8e3bf2ec06ca71e35b6d5c837960df8ff785825612493",
    "m88ksim": "3c586b40de57540a28febd1a676de7e7215380ec9e9f263d83a16356898f1162",
    "perl": "848f45c2fa355c7f91e5197c91df4b6f272a73f0ef2f9faad73543ddac1e98eb",
    "vortex": "368896c000423046beb6820e7efd71627c53609eb632b622893c1633e46d1144",
    "deltablue": "250386337d64bc7f0cb4ef6ba9024690685527c2995e7a7c39b41d90ff47788e",
    "phased": "eff30924b73fd6602254f06bc7c73468c26ef05049010356c64e61e1ad29d1e1",
}


@pytest.mark.parametrize("make_config", CONFIGS)
def test_generated_trace_digest_is_pinned(make_config):
    config = make_config()
    trace = WorkloadGenerator(config).generate()
    assert trace_digest(trace) == PINNED_TRACE_SHA256[config.name]


region_specs = st.builds(
    lambda kind, tails, skew, depth, low, span, ipb, iters, outer, weight: (
        RegionSpec(
            kind=kind,
            num_tails=tails,
            tail_skew=skew,
            depth=depth,
            blocks_min=low,
            blocks_max=low + span,
            instr_per_block=ipb,
            iters_mean=iters,
            outer_iters_mean=outer,
            weight=weight,
        )
    ),
    kind=st.sampled_from(["loop", "nest"]),
    tails=st.integers(1, 64),
    skew=st.sampled_from([0.0, 0.3, 1.3]),
    depth=st.integers(2, 5),
    low=st.integers(1, 12),
    span=st.integers(0, 12),
    ipb=st.integers(1, 9),
    # A mean of 1 draws Poisson(0), which takes nothing from the stream.
    iters=st.sampled_from([1.0, 6.0, 20.0]),
    outer=st.sampled_from([1.0, 4.0]),
    weight=st.sampled_from([0.5, 1.0, 3.0]),
)


@st.composite
def workload_configs(draw, specs=region_specs) -> WorkloadConfig:
    """Runs of random ``specs``, with or without the coverage pass, over
    one to three phases whose weights pick random regions."""
    runs = draw(
        st.lists(st.tuples(specs, st.integers(1, 6)), min_size=1, max_size=4)
    )
    regions = [spec for spec, count in runs for _ in range(count)]
    num_phases = draw(st.integers(1, 3))
    phases = []
    if num_phases > 1:
        indices = st.integers(0, len(regions) - 1)
        weights = st.dictionaries(
            indices, st.sampled_from([0.5, 1.0, 4.0]), min_size=1
        )
        phases = [
            Phase(fraction=1.0 / num_phases, weights=draw(weights))
            for _ in range(num_phases)
        ]
    return WorkloadConfig(
        name="hypothesis",
        seed=draw(st.integers(0, 2**40)),
        target_flow=draw(st.integers(1, 6000)),
        regions=regions,
        phases=phases,
        coverage_pass=draw(st.booleans()),
    )


@given(config=workload_configs())
@settings(max_examples=80, deadline=None)
def test_region_paths_match_per_path_oracle(config):
    """Runs built in one pass and visits rendered in bulk equal regions
    built and emitted one at a time: the same table, the same ids."""
    _assert_same_trace(config)


@pytest.mark.parametrize("num_tails", [1, 2, 7, 64])
@pytest.mark.parametrize("skew", [0.0, 1.3])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_tail_sampling_matches_generator_choice(num_tails, skew, data):
    """Whole traces equal the oracle with its tails drawn by
    ``Generator.choice(p=...)``, visit by visit."""
    spec = RegionSpec(
        kind="loop", num_tails=num_tails, tail_skew=skew, iters_mean=6
    )
    config = data.draw(workload_configs(st.just(spec)))
    probs = zipf_probabilities(num_tails, skew)

    def choice_emit(region):
        rng = region._rng
        iterations = 1 + rng.poisson(spec.iters_mean - 1.0)
        sampled = rng.choice(region.tail_ids, size=int(iterations), p=probs)
        parts = [sampled, [region.exit_id]]
        if not region._visited:
            region._visited = True
            parts.insert(0, region.tail_ids)
        return np.concatenate(parts)

    with mock.patch.object(region_oracle.LoopRegion, "emit", choice_emit):
        reference = region_oracle.generate(config)
    trace = WorkloadGenerator(config).generate()
    assert np.array_equal(trace.path_ids, reference.path_ids)


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
