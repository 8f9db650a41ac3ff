"""Extension-study registry."""

import hashlib
import pathlib

import pytest

from repro.dynamo.system import DynamoSystem
from repro.errors import ExperimentError
from repro.experiments.extended import (
    EXTENDED_IDS,
    eviction_rows,
    net_ablation_rows,
    overhead_rows,
    retirement_rows,
    run_extended,
    showdown_rows,
)


def test_extended_ids():
    assert set(EXTENDED_IDS) == {
        "overhead",
        "ablations",
        "retirement",
        "hardware",
        "showdown",
        "eviction",
        "mini-dynamo",
    }


#: ``repro extended mini-dynamo`` exactly as published: EXPERIMENTS.md's
#: "Live mini-Dynamo" table.  The steady-state speedups are read off the
#: VM's checkpoint series, so any drift in the VM's accounting shows here.
PINNED_MINI_DYNAMO = """\
Miniature Dynamo, live (τ=20)
  program  NET steady %  path-profile steady %
----------------------------------------------
      rle         +12.4                  -53.3
  stackvm         +17.6                   -9.5
propagate         +17.6                   -0.2
     sort         +14.7                  -19.9
   matmul          +6.4                  -19.2
hashtable         +17.6                  -15.2
    lexer          +2.9                  -43.2"""
PINNED_MINI_DYNAMO_SHA256 = (
    "683a66a5733877c3bdcdc95a7566f9620b017987d52855df1684bbb4e40bfb4a"
)


def test_mini_dynamo_live_table_is_pinned():
    text = run_extended("mini-dynamo")
    assert text == PINNED_MINI_DYNAMO
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == PINNED_MINI_DYNAMO_SHA256
    )
    # EXPERIMENTS.md publishes the same numbers.
    experiments = pathlib.Path(__file__).parents[2] / "EXPERIMENTS.md"
    section = experiments.read_text().split("## Live mini-Dynamo")[1]
    published = {}
    for line in section.split("\n## ")[0].splitlines():
        if line.startswith("| "):
            cells = [
                cell.strip().replace("\u2212", "-")  # typeset minus
                for cell in line.strip("|").split("|")
            ]
            published[cells[0]] = cells[1:]
    for line in PINNED_MINI_DYNAMO.splitlines()[3:]:
        program, net, path_profile = line.split()
        assert published[program] == [net, path_profile], program


#: SHA-256 of ``run_extended(name)``: the hardware comparison and the
#: §4 overhead table, byte for byte.  Both run a real event stream
#: (the ISA machine, the CFG walker) through every consumer of it.
PINNED_EXTENDED_SHA256 = {
    "hardware": (
        "09cd04de9060bf40799c410728888b74e755ee454f1e710035d0a48863c2100d"
    ),
    "overhead": (
        "784e2a85b487dcbb866003562d0f0bd49cf82c39382c3bff1f1566465329c377"
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_EXTENDED_SHA256))
def test_extended_table_is_pinned(name):
    text = run_extended(name)
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == PINNED_EXTENDED_SHA256[name]
    )


def test_unknown_extended_rejected():
    with pytest.raises(ExperimentError):
        run_extended("warpdrive")


def test_overhead_rows_structure():
    rows, num_events = overhead_rows(max_events=50_000)
    assert num_events > 0
    schemes = {row.scheme for row in rows}
    assert "net-heads" in schemes and "bit-tracing" in schemes


def test_ablation_rows(small_deltablue):
    rows = net_ablation_rows({"deltablue": small_deltablue}, delay=20)
    assert len(rows) == 1
    row = rows[0]
    assert row.hit_region >= row.hit_single_shot - 1e-9
    assert 0 <= row.noise_region <= 100


def test_retirement_rows_small():
    rows = retirement_rows(flow=60_000, window=5_000)
    assert [q.policy for q in rows] == ["never", "idle", "flush-on-spike"]
    never, idle, _ = rows
    assert idle.mean_resident <= never.mean_resident


def test_showdown_rows(small_deltablue):
    rows = showdown_rows({"deltablue": small_deltablue})
    assert rows[0].benchmark == "deltablue"


def test_eviction_rows(monkeypatch):
    calls = []
    run_detailed = DynamoSystem.run_detailed

    def counting(self, *args, **kwargs):
        calls.append(args)
        return run_detailed(self, *args, **kwargs)

    monkeypatch.setattr(DynamoSystem, "run_detailed", counting)
    # At this budget li's emissions overflow the cache: the flush row
    # flushes and the FIFO replay evicts.
    rows = eviction_rows(flow_scale=0.1, budget=2_000)
    policies = {row.policy for row in rows}
    assert policies == {"flush", "fifo"}
    # One simulation, under the flush policy it models; the FIFO row is
    # a replay of the emissions with no speedup of its own.
    assert len(calls) == 1
    flush = next(row for row in rows if row.policy == "flush")
    fifo = next(row for row in rows if row.policy == "fifo")
    assert isinstance(flush.speedup_percent, float)
    assert fifo.speedup_percent is None
    assert fifo.flushes == 0
    assert flush.flushes > 0
    assert fifo.evictions > 0


def test_run_extended_renders_text(small_deltablue):
    text = run_extended("retirement", flow_scale=0.15)
    assert "retirement" in text.lower() or "Path retirement" in text


def test_cli_extended(capsys):
    from repro.cli import main

    assert main(["extended", "overhead"]) == 0
    out = capsys.readouterr().out
    assert "net-heads" in out
