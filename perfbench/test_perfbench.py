"""The benchmark's own tests: metric names and units, tracing, the tail rule."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.run import ROOT, load_program
from perfbench.tracing import Tracer

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def rc():
    return load_program(ROOT)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(rc, workload, trace):
    result, notes = harness.run(rc, workload, 7, 0.2, bool(trace), ROOT, size="tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert notes


def test_self_time_subtracts_direct_children_only():
    t = Tracer()
    # a [0, 100] holds b [10, 40] and c [50, 90]; b holds d [20, 25]; c holds d [60, 70].
    spans = [("a", -1, 0, 100), ("b", 0, 10, 40), ("d", 1, 20, 25), ("c", 0, 50, 90), ("d", 3, 60, 70)]
    for name, parent, start, end in spans:
        t.span_name.append(t.name_id(name))
        t.span_parent.append(parent)
        t.span_start.append(start)
        t.span_end.append(end)
    agg = {name: {k: round(v * 1e9) if k != "calls" else v for k, v in a.items()} for name, a in t.aggregate().items()}
    assert agg["a"] == {"calls": 1, "total_s": 100, "self_s": 30}
    assert agg["b"] == {"calls": 1, "total_s": 30, "self_s": 25}
    assert agg["c"] == {"calls": 1, "total_s": 40, "self_s": 30}
    assert agg["d"] == {"calls": 2, "total_s": 15, "self_s": 15}
    assert t.count_within("d", ("c",)) == 1
    assert t.count_within("d", ("a",)) == 2
    assert t.count_within("d", ("missing",)) == 0


def test_tracer_wraps_lookup_sites_and_restores_them(rc):
    originals = (rc.ricci, rc.solvers.ricci, rc.curvature.min_cost_perfect_matching, rc.Graph.distances_from)
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    expected = rc.ricci(rc.Graph(4, edges), (0, 1)).ric
    t = Tracer()
    t.install()
    try:
        assert rc.ricci is rc.solvers.ricci is rc.cli.ricci
        assert rc.ricci is not originals[0]
        assert rc.ricci(rc.Graph(4, edges), (0, 1)).ric == expected
    finally:
        t.uninstall()
    assert (rc.ricci, rc.solvers.ricci, rc.curvature.min_cost_perfect_matching, rc.Graph.distances_from) == originals
    agg = t.aggregate()
    assert agg["curvature.ricci"]["calls"] == 1
    assert agg["matching.min_cost_perfect_matching"]["calls"] == 1
    assert agg["graphs.distances_from"]["calls"] >= 3
    m = t.layer_metrics()
    assert m["curvature.blow_up.cells"] == m["curvature.q_max"] ** 2
    assert m["matching.hungarian_q3"] == m["curvature.q_max"] ** 3
    assert m["detcube.det_batch.calls"] == 0
    assert 0 <= m["curvature.build_cost_matrix.self_s"] <= m["curvature.ricci.total_s"]


def test_tail_is_highest_percentile_with_ten_beyond():
    assert harness.tail([float(i) for i in range(30)]) == (19.0, pytest.approx(200 / 3), 30)
    assert harness.tail([float(i) for i in range(40)])[:2] == (29.0, 75.0)
    assert harness.tail([3.0, 1.0]) == (3.0, 100.0, 2)


def test_op_timer_nets_out_inner_probes_and_scales_to_nominal():
    with harness.OpTimer(probe_inside=True) as timer:
        time.sleep(0.3)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    # sleep keeps its deadline across the signals, so the probes inside it
    # shorten the net wall time.
    assert len(timer.probes) >= 4 and timer.inside > 0
    assert 0.3 <= timer.wall + timer.inside < 0.5
    timer.probes = [0.002, 0.004]
    assert timer.scaled() == pytest.approx(timer.wall * harness.PROBE_NOMINAL_S / 0.003)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not Path(tmp_path / ".perfbench").exists()
