"""Property: execution tiers are interchangeable on every program.

Hypothesis drives the whole regime space — program × prediction delay ×
trace-length cap × cache budget (flush schedules) × scheme.  The
``interp`` and ``compiled`` tiers and the step-by-step replay oracle
(:mod:`tests.dynamo.replay_oracle`) must agree digest-exactly on the
final machine state, and ``compiled`` must match the oracle on every
shared counter, the checkpoint series and the steady-state rate.  This
is the PR 5 "prove it, don't eyeball it" pattern applied to the
compiled superblock tier.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dynamo import TIERS
from repro.isa.programs import ALL_PROGRAMS, demo_memory
from tests.dynamo.replay_oracle import assert_same_accounting, make_vm

MAX_STEPS = 30_000_000

#: Small enough to run hundreds of times, big enough to loop hot.
INPUT_SCALE = 0.04

#: Programs and inputs are deterministic; build once per session.
_PROGRAMS = {
    name: (module.build(), demo_memory(name, scale=INPUT_SCALE))
    for name, module in ALL_PROGRAMS.items()
}


def _run(name, tier, delay, max_trace, budget, scheme):
    program, memory = _PROGRAMS[name]
    vm = make_vm(
        program,
        tier,
        delay=delay,
        scheme=scheme,
        max_trace_instructions=max_trace,
        cache_budget_instructions=budget,
    )
    vm.load_memory(list(memory))
    result = vm.run(max_steps=MAX_STEPS)
    return vm.state_digest(), result


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=st.sampled_from(sorted(ALL_PROGRAMS)),
    delay=st.integers(min_value=0, max_value=40),
    max_trace=st.sampled_from([4, 8, 32, 128]),
    budget=st.sampled_from([16, 200, 60_000]),
    scheme=st.sampled_from(["net", "net", "net", "path-profile"]),
)
def test_tiers_equivalent(name, delay, max_trace, budget, scheme):
    regime = (name, delay, max_trace, budget, scheme)
    digests = {}
    results = {}
    for tier in TIERS + ("replay",):
        digests[tier], results[tier] = _run(
            name, tier, delay, max_trace, budget, scheme
        )
    assert (
        digests["interp"] == digests["replay"] == digests["compiled"]
    ), regime
    assert_same_accounting(results["replay"], results["compiled"], regime)
