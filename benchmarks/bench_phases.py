"""Regenerates the §6.1 phase-change study."""

from conftest import emit

from repro.experiments import render_phase_report, run_phase_experiment
from repro.experiments.phases import phases_config


def test_phases(results_dir):
    # The phases target's recipe at full scale (400,000 occurrences).
    report = run_phase_experiment(phases_config(1.0))
    emit(results_dir, "phases", render_phase_report(report))

    # The prediction-rate heuristic finds every phase boundary.
    assert report.detection_recall >= 0.99
    # Accumulated profiles miss a large population of phase-hot paths.
    assert report.phase_hot_accum_cold > report.accumulated_hot
    # Flushing removes the phase-induced noise: almost no dead fragments
    # remain resident, against a large majority without flushing.
    assert report.run_no_flush.dead_fragment_fraction > 0.5
    assert report.run_with_flush.dead_fragment_fraction < 0.1
    assert (
        report.run_with_flush.resident_fragments
        < report.run_no_flush.resident_fragments
    )
