"""The NumPy stream facts the generator's exactness rests on.

The generator skips draws its output does not need and makes the rest
in fewer calls, and every trace stays byte-identical only while these
facts about ``numpy.random`` hold:

* ``Generator.integers`` over a range below 2**32 is Lemire's method
  on 32-bit samples, the low then the high half of each raw word, and
  a one-value range draws nothing;
* ``bit_generator.advance(n)`` leaves the stream where ``random(n)``
  does;
* ``poisson(lam, size=k)`` equals ``k`` scalar ``poisson(lam)`` calls.

A NumPy release that breaks one fails here by name, not as a digest
mismatch somewhere downstream.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.workloads import RegionSpec, WorkloadConfig, WorkloadGenerator
from repro.workloads import regions as regions_mod
from repro.workloads.regions import lemire_draws
from tests.workloads import region_oracle

seeds = st.integers(0, 2**64 - 1)


def _same_stream(a: np.random.Generator, b: np.random.Generator) -> None:
    assert a.bit_generator.state["state"] == b.bit_generator.state["state"]
    assert np.array_equal(a.random(4), b.random(4))


@given(
    seed=seeds,
    low=st.integers(-3, 20),
    span=st.integers(0, 40) | st.just(2**32 - 1),
    size=st.integers(1, 97),
)
@settings(max_examples=300, deadline=None)
def test_raw_words_and_lemire_equal_integers(seed, low, span, size):
    expected = np.random.default_rng(seed)
    values = expected.integers(low, low + span + 1, size=size)
    drawn = np.random.default_rng(seed)
    if span == 0:
        # A one-value range takes nothing from the stream.
        assert np.array_equal(values, np.full(size, low))
        _same_stream(drawn, expected)
        return
    raw = drawn.bit_generator.random_raw(-(-size // 2)).reshape(1, -1)
    lemire, rejected = lemire_draws(raw, low, span, size)
    # numpy draws again on a rejection (~1e-8 a sample at these spans).
    assume(not rejected[0])
    assert lemire.dtype == np.int64
    assert np.array_equal(lemire[0], values)
    # The halves numpy buffered from the last word are never read by a
    # 64-bit draw, so the uniforms after both draws agree.
    assert np.array_equal(drawn.random(4), expected.random(4))


@given(seed=seeds, low=st.integers(-3, 20), span=st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_scalar_integers_is_the_first_sample(seed, low, span):
    """The nests' one block count, ``integers(lo, hi + 1)`` without a
    size, is the same draw as ``size=1``."""
    expected = np.random.default_rng(seed)
    value = expected.integers(low, low + span + 1)
    drawn = np.random.default_rng(seed)
    lemire, rejected = lemire_draws(
        drawn.bit_generator.random_raw(1).reshape(1, 1), low, span, 1
    )
    assume(not rejected[0])
    assert int(value) == lemire[0, 0]
    assert np.array_equal(drawn.random(4), expected.random(4))


def test_zero_word_hits_the_rejection_case():
    """A raw word of 0 scales to a low half of 0, below numpy's
    threshold ``2**32 mod 6`` for six values: that row is rejected."""
    raw = np.array([[0, 1 << 40], [0x89ABCDEF_76543210, 9]], dtype=np.uint64)
    values, rejected = lemire_draws(raw, 3, 5, 3)
    assert rejected.tolist() == [True, False]
    assert values[0].tolist() == [3, 3, 3]


def test_rejected_region_redraws_with_integers(monkeypatch):
    """A region whose block-count draw is rejected starts over from
    ``default_rng(seed)`` and ``integers``: its paths and every later
    visit equal the oracle's, and so do its neighbours'."""
    real = lemire_draws

    def crafted(raw, low, span, size):
        raw = raw.copy()
        raw[1, 0] = 0
        return real(raw, low, span, size)

    monkeypatch.setattr(regions_mod, "lemire_draws", crafted)
    config = WorkloadConfig(
        name="rejected",
        seed=3,
        target_flow=4000,
        regions=[RegionSpec(num_tails=5, iters_mean=6)] * 4
        + [RegionSpec(kind="nest", outer_iters_mean=3, iters_mean=4)] * 3,
    )
    trace = WorkloadGenerator(config).generate()
    reference = region_oracle.generate(config)
    assert np.array_equal(trace.path_ids, reference.path_ids)
    assert np.array_equal(
        trace.table.static_columns()["blocks"],
        reference.table.static_columns()["blocks"],
    )


@given(seed=seeds, count=st.integers(0, 300))
@settings(max_examples=100, deadline=None)
def test_advance_leaves_the_stream_where_random_does(seed, count):
    advanced = np.random.default_rng(seed)
    advanced.bit_generator.advance(count)
    drawn = np.random.default_rng(seed)
    drawn.random(count)
    _same_stream(advanced, drawn)


@pytest.mark.parametrize("lam", [0.0, 1.0, 7.0, 14.0, 1599.0])
@pytest.mark.parametrize("size", [1, 2, 5, 40])
def test_poisson_size_equals_scalar_calls(lam, size):
    for seed in range(50):
        batched = np.random.default_rng(seed)
        values = batched.poisson(lam, size=size)
        scalar = np.random.default_rng(seed)
        assert values.tolist() == [scalar.poisson(lam) for _ in range(size)]
        _same_stream(batched, scalar)
