"""Recomputes the §5.1 headline claims from the sweep."""

from conftest import emit

from repro.experiments import evaluate_claims, render_claims


def test_claims(sweep_curves, results_dir):
    results = evaluate_claims(curves=sweep_curves)
    emit(results_dir, "claims", render_claims(results))

    by_key = {(r.claim, r.scheme): r for r in results}
    # Claim 1: ~97.5% average hit rate at 10% profiled flow, both schemes.
    for scheme in ("path-profile", "net"):
        measured = by_key[
            ("average hit rate at 10% profiled flow", scheme)
        ].measured_value
        assert measured > 93.0, scheme
    # Claim 2 direction: both schemes still carry substantial noise at
    # 10% profiled flow (the paper reads 56–65%).
    for scheme in ("path-profile", "net"):
        measured = by_key[
            ("average noise at 10% profiled flow", scheme)
        ].measured_value
        assert 25.0 < measured < 95.0, scheme
    # Claim 3 direction: driving noise under 10% requires profiling a
    # large fraction of the execution for either scheme.
    for scheme in ("path-profile", "net"):
        measured = by_key[
            ("profiled flow needed for <10% noise", scheme)
        ].measured_value
        assert measured > 15.0, scheme
