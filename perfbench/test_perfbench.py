"""Smoke tests of the benchmark itself.

Run from the repository root with ``PYTHONPATH=src python -m pytest
perfbench``.  Workloads run at smoke size; the fresh-process tests go
through ``perfbench.run`` exactly as a measurement does.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time
import types
from contextlib import nullcontext

import pytest

from perfbench import run
from perfbench.sample import run_sample
from perfbench.speed import REFERENCE_KERNEL_S, SpeedProbe
from perfbench.tracing import Patcher, Span, Tracer, layer_report, self_times
from perfbench.workloads import (
    WORKLOADS,
    ColdRepro,
    MiniDynamo,
    ServeDurable,
    per_layer_metrics,
    require_empty,
)


def no_span(root):
    return nullcontext()


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def synthetic_spans() -> list[Span]:
    """root [0,10] > a [1,4] > b [2,3];  root > a [5,6];  root > c [7,9.5]."""
    return [
        Span(2, "b", 2.0, 3.0, 1),
        Span(1, "a", 1.0, 4.0, 0),
        Span(3, "a", 5.0, 6.0, 0),
        Span(4, "c", 7.0, 9.5, 0),
        Span(0, "root", 0.0, 10.0, None),
    ]


def test_self_time_subtracts_direct_children_only():
    own = self_times(synthetic_spans())
    assert own == {2: 1.0, 1: 2.0, 3: 1.0, 4: 2.5, 0: 3.5}


def test_layer_self_times_and_unattributed_sum_to_wall():
    report = layer_report(synthetic_spans(), ["a", "b", "c"], {"root"})
    assert report["a.calls"] == 2 and report["a.self_s"] == 3.0
    assert report["b.self_s"] == 1.0 and report["c.self_s"] == 2.5
    assert report["unattributed_s"] == 3.5
    assert report["traced_wall_s"] == 10.0
    layers = sum(report[f"{name}.self_s"] for name in "abc")
    assert layers + report["unattributed_s"] == report["traced_wall_s"]


def test_layer_report_rejects_spans_outside_roots_and_layers():
    orphan = synthetic_spans() + [Span(5, "a", 11.0, 12.0, None)]
    with pytest.raises(ValueError, match="outside any root"):
        layer_report(orphan, ["a", "b", "c"], {"root"})
    with pytest.raises(ValueError, match="unknown layer"):
        layer_report(synthetic_spans(), ["a", "b"], {"root"})


def test_tracer_records_nesting():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            pass
    inner, outer = tracer.spans
    assert (inner.layer, inner.parent) == ("a", outer.id)
    assert outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end


# ----------------------------------------------------------------------
# Speed normalisation
# ----------------------------------------------------------------------
def test_speed_factor_uses_readings_inside_the_interval():
    probe = SpeedProbe()
    ref = REFERENCE_KERNEL_S
    probe.readings = [(1.0, ref), (2.0, 2 * ref), (3.0, 4 * ref), (9.0, ref)]
    # Half the interval at half speed, half at a quarter: 3/8 on average.
    assert probe.factor(1.5, 3.5) == 0.375
    assert probe.normalise(1.5, 3.5) == 0.75
    # No reading inside: the nearest one stands for the interval.
    assert probe.factor(8.0, 8.5) == 1.0


def test_speed_probe_thread_takes_readings():
    with SpeedProbe() as probe:
        deadline = time.monotonic() + 5
        while len(probe.readings) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
    assert len(probe.readings) >= 2
    assert not probe._thread.is_alive()


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
@pytest.fixture()
def fake_modules():
    """``repro.zz_a`` defines ``f``; ``repro.zz_b`` imported it by name."""
    a = types.ModuleType("repro.zz_a")
    exec("def f(x):\n    return x + 1\n", a.__dict__)
    b = types.ModuleType("repro.zz_b")
    b.f = a.f
    exec("def caller(x):\n    return f(x) * 10\n", b.__dict__)
    sys.modules.update({a.__name__: a, b.__name__: b})
    yield a, b
    for module in (a, b):
        del sys.modules[module.__name__]


def test_patch_function_replaces_every_binding(fake_modules):
    a, b = fake_modules
    original = a.f
    tracer, patcher = Tracer(), Patcher()
    bindings = patcher.patch_function(
        original, lambda fn: tracer.wrap("layer", fn)
    )
    assert bindings == 2
    with tracer.span("root"):
        assert b.caller(1) == 20  # the copied binding is traced too
        assert a.f(1) == 2
    assert [s.layer for s in tracer.spans].count("layer") == 2
    patcher.restore()
    assert a.f is original and b.f is original


def test_patching_only_the_defining_module_misses_importers(fake_modules):
    """The failure mode the every-binding patch exists to avoid."""
    a, b = fake_modules
    tracer = Tracer()
    a.f = tracer.wrap("layer", a.f)
    b.caller(1)
    assert tracer.spans == []


def test_patch_function_without_binding_is_an_error():
    def stray():
        pass

    with pytest.raises(LookupError):
        Patcher().patch_function(stray, lambda fn: fn)


def test_patch_method_handles_classmethods_and_restores():
    class Thing:
        def plain(self):
            return "plain"

        @classmethod
        def make(cls):
            return cls

    originals = dict(Thing.__dict__)
    tracer, patcher = Tracer(), Patcher()
    for name in ("plain", "make"):
        patcher.patch_method(Thing, name, lambda fn: tracer.wrap(name, fn))
    with tracer.span("root"):
        assert Thing().plain() == "plain"
        assert Thing.make() is Thing
    assert len(tracer.spans) == 3
    patcher.restore()
    assert Thing.__dict__["plain"] is originals["plain"]
    assert Thing.__dict__["make"] is originals["make"]


def test_real_function_is_patched_where_callers_imported_it():
    from repro.experiments import sweep
    from repro.metrics import hotpaths

    original = hotpaths.hot_path_set
    tracer, patcher = Tracer(), Patcher()
    bindings = patcher.patch_function(
        original, lambda fn: tracer.wrap("hot", fn)
    )
    try:
        assert bindings >= 3
        assert sweep.hot_path_set.__wrapped__ is original
    finally:
        patcher.restore()
    assert sweep.hot_path_set is original


# ----------------------------------------------------------------------
# Isolation
# ----------------------------------------------------------------------
def test_require_empty_refuses_leftovers(tmp_path):
    require_empty(tmp_path / "fresh")
    (tmp_path / "fresh" / "leftover").write_text("x")
    with pytest.raises(RuntimeError, match="not empty"):
        require_empty(tmp_path / "fresh")


def test_sample_refuses_an_interpreter_that_loaded_the_program(tmp_path):
    import repro  # noqa: F401
    from perfbench import sample

    with pytest.raises(SystemExit, match="already loaded"):
        sample.main(
            ["--workload", "minidynamo", "--seed", "1", "--workdir",
             str(tmp_path), "--t0", "0"]
        )


# ----------------------------------------------------------------------
# One fresh-process traced sample per workload: checks pass
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_sample_passes_its_checks(name):
    record = run.run_child(name, seed=3, trace=True, index=0, smoke=True)
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] > 0
    layers = record["layers"]
    cls = WORKLOADS[name]
    for layer in cls.required:
        assert layers[f"{layer}.calls"] > 0, layer
    total = sum(layers[f"{layer}.self_s"] for layer in cls.layers)
    assert total + layers["unattributed_s"] == pytest.approx(
        layers["traced_wall_s"], abs=1e-6
    )
    assert layers["traced_wall_s"] == pytest.approx(record["work_s"], rel=0.01)


# ----------------------------------------------------------------------
# Deliberately wrong expectations are reported as failures
# ----------------------------------------------------------------------
def test_wrong_artifact_digest_fails_every_call(tmp_path):
    expected = json.loads(
        (run.ROOT / "perfbench" / "expected_digests.json").read_text()
    )[str(ColdRepro.SMOKE.flow_scale)]
    expected["table1"] = "0" * 64
    workload = ColdRepro(1, tmp_path, ColdRepro.SMOKE, expected=expected)
    record = run_sample(workload, t0=0.0)
    calls = 1 + ColdRepro.SMOKE.noop_calls
    assert record["attempted"] == 8 * calls
    assert record["failed"] == calls
    assert all("table1" in failure for failure in record["failures"])


def test_wrong_serving_reference_fails_its_tenants(tmp_path):
    workload = ServeDurable(1, tmp_path, ServeDurable.SMOKE)
    workload.setup()
    reference = workload.references[0]
    workload.references[0] = dataclasses.replace(
        reference, counter_space=reference.counter_space + 1
    )
    workload.run(no_span)
    _, failures = workload.check()
    on_stream_0 = [t for t, index in workload.tenants if index == 0]
    assert sorted(failures) == sorted(
        f"{tenant}: outcome differs" for tenant in on_stream_0
    )


def test_wrong_vm_reference_fails_both_schemes(tmp_path):
    workload = MiniDynamo(1, tmp_path, MiniDynamo.SMOKE)
    workload.setup()
    program, memory, expected = workload.programs["sort"]
    workload.programs["sort"] = (program, memory, [v + 1 for v in expected])
    workload.run(no_span)
    attempted, failures = workload.check()
    assert attempted == 14
    assert [f.split(":")[0] for f in failures] == [
        "sort/net",
        "sort/path-profile",
    ]


# ----------------------------------------------------------------------
# The command and BENCHMARK.json agree
# ----------------------------------------------------------------------
def test_benchmark_json_lists_what_the_command_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == per_layer_metrics()


def test_command_prints_one_result_line():
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "minidynamo",
         "--seed", "2", "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [name for name in result["metrics"]] == [
        name for name, _ in run.END_TO_END
    ]
