"""The vectorized cost model equals its mask-per-mode oracle exactly.

``simulate_costs`` reorganised how the model sums (one column per
quantity, dot products and counts in place of boolean-index copies,
the interpreted total as total − cached), not what it charges.  Every
:class:`~repro.dynamo.stats.DynamoRun` field, floats included, must
therefore equal :mod:`tests.dynamo.costmodel_oracle`'s with ``==``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dynamo import DynamoConfig, simulate_costs
from repro.experiments.phases import phases_config
from repro.prediction import NETPredictor, PathProfilePredictor
from repro.prediction.base import PredictionOutcome
from repro.trace.path import Path, PathTable
from repro.trace.recorder import PathTrace
from repro.workloads.base import Workload
from tests.conftest import ENGINE_TEST_SCALE, signature_from_bits
from tests.dynamo import costmodel_oracle as oracle

#: The default, fragments left uninstrumented, and a raw short run with
#: a longer measured tail.
CONFIGS = (
    DynamoConfig(),
    DynamoConfig(instrument_fragments=False),
    DynamoConfig(amortization=1.0, steady_state_fraction=0.5),
)

PREDICTORS = (NETPredictor, PathProfilePredictor)


@pytest.fixture(scope="module")
def oracle_traces(all_small_traces):
    """The nine surrogates plus the phases target's trace."""
    traces = dict(all_small_traces)
    traces["phased"] = Workload(phases_config(ENGINE_TEST_SCALE)).trace()
    return traces


@pytest.mark.parametrize(
    "name",
    [
        "compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl",
        "vortex", "deltablue", "phased",
    ],
)
def test_model_equals_oracle_on_real_traces(oracle_traces, name):
    trace = oracle_traces[name]
    # trace.flow is past every head's arrival count and every path's
    # frequency: nothing is predicted.
    for delay in (0, 10, 50, 100, trace.flow):
        for predictor in PREDICTORS:
            outcome = predictor(delay).run(trace)
            for config in CONFIGS:
                assert simulate_costs(
                    trace, outcome, config
                ) == oracle.simulate_costs(trace, outcome, config), (
                    name, delay, outcome.scheme, config
                )


def _case(paths, ids, predictions, scheme, config_index):
    """A trace over ``paths`` and an outcome predicting ``predictions``.

    ``paths`` holds ``(head, instructions, cond, indirect, backward)``
    per path; ``predictions`` holds ``(path id, occurrence index)``.
    """
    table = PathTable()
    for index, (head, instr, cond, indirect, backward) in enumerate(paths):
        table.intern(
            Path(
                signature=signature_from_bits(4 * head, format(index, "04b")),
                blocks=(head, 100 + index),
                start_uid=head,
                num_instructions=instr,
                num_cond_branches=cond,
                num_indirect_branches=indirect,
                ends_with_backward_branch=backward,
            )
        )
    trace = PathTrace(table, np.array(ids, dtype=np.int64), name="case")
    outcome = PredictionOutcome(
        scheme=scheme,
        delay=0,
        predicted_ids=np.array([p for p, _ in predictions], dtype=np.int64),
        prediction_times=np.array([t for _, t in predictions], dtype=np.int64),
        captured=np.ones(len(predictions), dtype=np.int64),
        counter_space=0,
        profiling_ops=0,
    )
    return trace, outcome, CONFIGS[config_index]


@st.composite
def cases(draw):
    paths = draw(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.integers(1, 30),
                st.integers(0, 4),
                st.integers(0, 2),
                st.booleans(),
            ),
            min_size=1,
            max_size=5,
        )
    )
    ids = draw(st.lists(st.integers(0, len(paths) - 1), max_size=40))
    n = len(ids)
    predictions = []
    if n:
        # Index 0, n − 1 and the measured tail's first occurrence of
        # every config, or anywhere.
        times = st.one_of(
            st.sampled_from(
                sorted({0, n - 1, int(n * 0.75), int(n * 0.5)})
            ),
            st.integers(0, n - 1),
        )
        predicted = draw(
            st.lists(st.integers(0, len(paths) - 1), unique=True)
        )
        predictions = [(path, draw(times)) for path in predicted]
    scheme = draw(st.sampled_from(["net", "path-profile"]))
    return _case(
        paths, ids, predictions, scheme, draw(st.integers(0, len(CONFIGS) - 1))
    )


_PATHS = [(0, 5, 2, 1, True), (1, 9, 1, 0, False)]


@settings(max_examples=300, deadline=None)
@given(case=cases())
@example(case=_case(_PATHS, [], [], "net", 0))
@example(case=_case(_PATHS, [], [], "path-profile", 1))
@example(case=_case(_PATHS, [1], [], "net", 2))
@example(case=_case(_PATHS, [0], [(0, 0)], "path-profile", 1))
@example(
    case=_case(
        _PATHS, [0, 1] * 4, [(0, 0), (1, 7)], "path-profile", 1
    )
)
@example(case=_case(_PATHS, [0, 1] * 4, [(1, 6), (0, 7)], "net", 0))
@example(case=_case(_PATHS, [1, 0] * 4, [(0, 4)], "net", 2))
def test_model_equals_oracle_on_generated_cases(case):
    trace, outcome, config = case
    assert simulate_costs(trace, outcome, config) == oracle.simulate_costs(
        trace, outcome, config
    )
