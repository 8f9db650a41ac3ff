"""The exception hierarchy."""

import pytest

from repro import errors


def test_all_errors_derive_from_repro_error():
    for name in (
        "CFGError",
        "CFGValidationError",
        "AssemblerError",
        "MachineError",
        "MachineLimitExceeded",
        "TraceError",
        "ProfilingError",
        "PredictionError",
        "WorkloadError",
        "DynamoError",
        "ExperimentError",
        "SweepInterrupted",
    ):
        cls = getattr(errors, name)
        assert issubclass(cls, errors.ReproError), name


def test_validation_error_summarizes_findings():
    findings = [f"finding {i}" for i in range(8)]
    error = errors.CFGValidationError(findings)
    assert error.findings == findings
    assert "finding 0" in str(error)
    assert "(3 more)" in str(error)


def test_assembler_error_carries_line():
    error = errors.AssemblerError("bad operand", line=42)
    assert error.line == 42
    assert str(error).startswith("line 42:")
    bare = errors.AssemblerError("no line")
    assert bare.line is None


def test_limit_exceeded_carries_steps():
    error = errors.MachineLimitExceeded(1234)
    assert error.steps == 1234
    assert "1234" in str(error)


def test_single_except_clause_catches_everything():
    for cls in (errors.CFGError, errors.DynamoError, errors.TraceError):
        with pytest.raises(errors.ReproError):
            raise cls("boom")


def test_sweep_interrupted_carries_partial_results():
    partial = ["point-a", "point-b"]
    stop = errors.SweepInterrupted(
        partial=partial, completed=2, total=8, signal_name="SIGINT"
    )
    assert stop.partial == partial
    assert stop.completed == 2
    assert stop.total == 8
    assert stop.signal_name == "SIGINT"
    assert "SIGINT" in str(stop)
    assert "2/8" in str(stop)
