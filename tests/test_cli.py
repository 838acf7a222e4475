import concurrent.futures
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riccicrit
from riccicrit import Graph, cli, format_edge_list
from riccicrit.cli import main

from conftest import blow_up_shape, double_star, random_connected_graph

# Double star: (0, 1) has curvature -1/2 and is a feasible uw-rt-ins-ntp instance.
STAR6 = "0 1\n0 2\n0 3\n1 4\n1 5\n"
# (1, 6) has curvature -1/3 and is a feasible uw-rt-ins-ntp instance at q = 6
# whose least signature, (8, 1, 1), has too few 3-edges for randomized_insert's
# exact shortcut: it sweeps the signatures. STAR6 takes the shortcut.
SWEEP9 = "0 3\n0 5\n0 6\n0 7\n1 2\n1 6\n2 7\n3 6\n4 6\n5 8\n6 8\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def p3_file(tmp_path):
    path = tmp_path / "p3.edges"
    path.write_text("0 1\n1 2\n")
    return str(path)


@pytest.fixture()
def blocker_files(tmp_path, capsys):
    base = str(tmp_path / "blk")
    code = main(["gadget", "blocker", "--n", "3", "--h0-edges", "0:0,1:1,2:2", "--output", base])
    capsys.readouterr()
    assert code == 0
    return base + ".edges", base + ".json"


def test_curvature_single_edge(capsys, p3_file):
    code, out, _ = run(capsys, "curvature", p3_file, "--edge", "0", "1")
    assert code == 0
    payload = json.loads(out)
    rec = payload["results"][0]
    assert rec["ric"] == {"num": 1, "den": 2}
    assert rec["ric_str"] == "1/2"
    assert rec["sign"] == "positive"


def test_curvature_triangle_all_edges(capsys, tmp_path):
    path = tmp_path / "k3.edges"
    path.write_text("0 1\n1 2\n0 2\n")
    code, out, _ = run(capsys, "curvature", str(path), "--all")
    assert code == 0
    records = json.loads(out)["results"]
    assert len(records) == 3
    assert all(r["ric"] == {"num": 1, "den": 1} for r in records)


def test_curvature_blocker_value(capsys, tmp_path):
    base = str(tmp_path / "blk4")
    assert main(["gadget", "blocker", "--n", "4",
                 "--h0-edges", "0:0,1:1,2:2,3:3", "--output", base]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "curvature", base + ".edges", "--edge", "0", "1")
    assert code == 0
    assert json.loads(out)["results"][0]["ric"] == {"num": 1, "den": 7}


def test_curvature_all_edges_deterministic(capsys, p3_file):
    code1, out1, _ = run(capsys, "curvature", p3_file, "--all")
    code2, out2, _ = run(capsys, "curvature", p3_file, "--all")
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(json.loads(out1)["results"]) == 2


def _unweighted_pin_graph():
    rng, pairs = random.Random(3), set()
    while len(pairs) < 800:
        a, b = rng.randrange(200), rng.randrange(200)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    return "".join(f"{u} {v}\n" for u, v in sorted(pairs))


def _weighted_pin_graph():
    rng, weights = random.Random(4), {}
    while len(weights) < 150:
        a, b = rng.randrange(40), rng.randrange(40)
        if a != b:
            weights.setdefault((min(a, b), max(a, b)), rng.randint(1, 5))
    return "".join(f"{u} {v} {w}\n" for (u, v), w in sorted(weights.items()))


@pytest.mark.parametrize(
    "name, graph, digest",
    [
        ("g200.edges", _unweighted_pin_graph, "b0d04fc689263bfb3d4b6ceb59fb9dee823bca88468c1102260a33b3d6b85374"),
        ("w40.edges", _weighted_pin_graph, "abfe6dade0322ece11864db34d977c03883288215af898b05ef7638e23f02415"),
    ],
    ids=["unweighted", "weighted"],
)
def test_curvature_all_default_route_output_is_pinned(capsys, tmp_path, monkeypatch, name, graph, digest):
    # The exact stdout of the matching route, plans included, as the
    # row-by-row expansion printed it. The payload names its input file, so
    # the file is passed by a relative name.
    monkeypatch.chdir(tmp_path)
    Path(name).write_text(graph())
    code, out, _ = run(capsys, "curvature", name, "--all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_curvature_all_flow_route_output_is_pinned(capsys, tmp_path, monkeypatch):
    # The exact stdout of the flow route, plans included: network simplex's
    # flows on the graph ``emd_via_flow`` builds, in its insertion order.
    monkeypatch.chdir(tmp_path)
    Path("w40.edges").write_text(_weighted_pin_graph())
    code, out, _ = run(capsys, "curvature", "w40.edges", "--all", "--route", "flow")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "837cff3928c7b3afad78725dce8d3814668052b20011a010f3b30e5d4414b22e"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_curvature_batch_output_is_what_json_dumps_prints_for_the_payload(capsys, tmp_path, monkeypatch, jobs):
    # Records are encoded one at a time and joined into the payload's text;
    # that text must be the one json.dumps prints for the whole payload, on
    # stdout and in --output, for an edgeless graph, a path that JSON
    # escapes, and the paw.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    out_file = tmp_path / "out.json"
    graphs = {"edgeless.edges": "# nodes: 3\n", 'q"uote\\é.edges': "0 1\n1 2\n", "paw.edges": "0 1\n1 2\n0 2\n2 3\n"}
    for name, text in graphs.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        g = riccicrit.load_edge_list(str(path))
        records = [cli._curvature_one(g, "matching", (u, v)) for u, v, _ in g.edges()]
        expected = json.dumps({"input": str(path), "results": records}, indent=2, sort_keys=True) + "\n"
        assert run(capsys, "curvature", str(path), "--all", "--jobs", jobs) == (0, expected, ""), name
        assert run(capsys, "curvature", str(path), "--all", "--jobs", jobs, "--output", str(out_file)) == (0, "", "")
        assert out_file.read_text(encoding="utf-8") == expected, name


# Double stars (du, dv, cross edges) whose edge (0, 1) is a feasible
# uw-rt-ins-ntp instance, and seeded random graphs, unweighted and weighted.
RELATION_STARS = [(3, 4, []), (3, 5, [(1, 2)]), (4, 5, [(0, 0), (2, 3)])]


def _relation_graphs():
    rng = random.Random(14)
    graphs = [double_star(*star) for star in RELATION_STARS]
    return graphs + [random_connected_graph(rng, 7, weighted=weighted, max_w=3) for weighted in (False, True)]


def test_padding_with_isolated_nodes_changes_no_stdout(capsys, tmp_path):
    # A "# nodes: N" header that appends isolated nodes adds no edge, no
    # distance and no restricted candidate, so each command prints the same
    # bytes. The file keeps its name, which the curvature report quotes.
    path = tmp_path / "graph.edges"
    stars = len(RELATION_STARS)
    for i, g in enumerate(_relation_graphs()):
        commands = [["--all"], ["--all", "--route", "flow"]]
        commands = [["curvature", str(path), *flags] for flags in commands]
        if i < stars:
            edge = [str(path), "--edge", "0", "1", "--variant", "uw-rt-ins-ntp"]
            methods = [["greedy"], ["randomized", "--seed", "3"], ["brute", "--max-k", "3"]]
            commands += [["feasible", *edge]] + [["solve", *edge, "--method", *method] for method in methods]
        outputs = []
        for nodes in (g.node_count, g.node_count + 3):
            text = format_edge_list(g).replace(f"# nodes: {g.node_count}\n", f"# nodes: {nodes}\n", 1)
            assert riccicrit.parse_edge_list(text).node_count == nodes
            path.write_text(text)
            outputs.append([run(capsys, *argv) for argv in commands])
        assert outputs[0] == outputs[1], i
        assert all(code == 0 and err == "" for code, _, err in outputs[0]), i


def test_relabeled_curvature_records_map_back_to_the_originals(capsys, tmp_path):
    # curvature --all on the relabeled graph, written from a shuffled edge
    # list: each record, its edge mapped back, keeps emd, ric, dist_uv and
    # sign on both routes. The plan names nodes in their order, so it is not
    # compared.
    rng = random.Random(30)
    path = tmp_path / "graph.edges"
    for g in _relation_graphs():
        n = g.node_count
        perm = list(range(n))
        rng.shuffle(perm)
        back = {x: i for i, x in enumerate(perm)}
        edges = [(perm[u], perm[v], w) for u, v, w in g.edges()]
        rng.shuffle(edges)
        h = Graph(n, edges, weighted=g.weighted)
        for route in ("matching", "flow"):
            reports = []
            for graph, name in ((g, lambda x: x), (h, back.__getitem__)):
                path.write_text(format_edge_list(graph))
                code, out, _ = run(capsys, "curvature", str(path), "--all", "--route", route)
                assert code == 0
                reports.append({
                    frozenset(map(name, record["edge"])): {key: record[key] for key in ("emd", "ric", "dist_uv", "sign")}
                    for record in json.loads(out)["results"]
                })
            assert reports[0] == reports[1] and len(reports[0]) == len(g.edges()), route


def test_curvature_flow_route_agrees(capsys, p3_file):
    _, out_m, _ = run(capsys, "curvature", p3_file, "--all", "--route", "matching")
    _, out_f, _ = run(capsys, "curvature", p3_file, "--all", "--route", "flow")
    ric_m = [r["ric"] for r in json.loads(out_m)["results"]]
    ric_f = [r["ric"] for r in json.loads(out_f)["results"]]
    assert ric_m == ric_f


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1\nnot an edge\n")
    code, _, err = run(capsys, "curvature", str(bad), "--all")
    assert code == 2
    assert "line 2" in err
    bad.write_text("0 1\n# comment\n1 2\n1 0\n")
    code, _, err = run(capsys, "curvature", str(bad), "--all")
    assert code == 2
    assert "line 4: duplicate edge (0, 1)" in err


def test_curvature_all_answers_every_edge_at_every_blow_up_size(capsys, tmp_path, monkeypatch):
    # Triangle 0-1-2 with pendant 3 (q = 3 on (0, 1), 12 on (0, 2) and
    # (1, 2), 4 on (2, 3)), and a double star whose edge (0, 1) blows up to
    # q = 101 * 100 = 10,100: every edge gets its curvature, none an error.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    star = double_star(100, 99, [(i, i) for i in range(0, 98, 3)])
    assert math.lcm(star.degree(0) + 1, star.degree(1) + 1) == 10_100
    graphs = {"paw.edges": Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]), "star.edges": star}
    for name, g in graphs.items():
        path = tmp_path / name
        path.write_text(format_edge_list(g))
        code, out, _ = run(capsys, "curvature", str(path), "--all")
        assert code == 0
        # Two workers give the same records, in edge order.
        assert run(capsys, "curvature", str(path), "--all", "--jobs", "2") == (0, out, "")
        records = json.loads(out)["results"]
        assert [r["edge"] for r in records] == [[u, v] for u, v, _ in g.edges()]
        assert all("error" not in r and "ric" in r for r in records)
    flow = riccicrit.ricci(star, (0, 1), route="flow").ric
    assert records[0]["ric"] == {"num": flow.numerator, "den": flow.denominator}


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "curvature", "/nonexistent/file.edges", "--all")
    assert code == 2


def test_usage_errors(capsys, p3_file):
    code, _, err = run(capsys, "curvature", p3_file)
    assert code == 4
    code, _, err = run(capsys, "solve", p3_file, "--edge", "0", "1",
                       "--variant", "uw-rt-ins-ptn", "--method", "brute")
    assert code == 4  # rejected direction
    code, _, err = run(capsys, "solve", p3_file, "--edge", "0", "1",
                       "--variant", "uw-rt-ins-ntp", "--method", "randomized")
    assert code == 4  # positive curvature cannot be an ntp instance
    for max_k in ("0", "-1"):
        code, out, err = run(capsys, "solve", p3_file, "--edge", "0", "1",
                             "--variant", "uw-rt-del-ptn", "--method", "brute", "--max-k", max_k)
        assert code == 4 and out == "" and "--max-k" in err


def test_curvature_all_and_edge_together_are_a_usage_error(capsys, p3_file):
    # --all would answer every edge and ignore --edge, even one that is no edge.
    for flags in (["--all", "--edge", "5", "6"], ["--edge", "0", "1", "--all"]):
        code, out, err = run(capsys, "curvature", p3_file, *flags)
        assert (code, out) == (4, "")
        assert len(err.splitlines()) == 1 and "not allowed with argument" in err


@pytest.mark.parametrize("method", ["randomized", "brute"])
def test_solve_start_with_a_method_other_than_greedy_is_a_usage_error(capsys, tmp_path, method):
    # Only greedy reads a start matching: the sidecar, here a missing file,
    # is never opened, and the run stops before any solving.
    star = tmp_path / "star.edges"
    star.write_text(STAR6)
    code, out, err = run(capsys, "solve", str(star), "--edge", "0", "1", "--variant", "uw-rt-ins-ntp",
                         "--method", method, "--seed", "0", "--start", str(tmp_path / "missing.json"))
    assert (code, out) == (4, "")
    assert err == f"error: --start applies to --method greedy only, not {method}\n"


def test_randomized_requires_seed(capsys, tmp_path):
    star = tmp_path / "star.edges"
    # negatively curved double star
    star.write_text("0 1\n0 2\n0 3\n1 4\n1 5\n1 6\n1 7\n")
    code, _, err = run(capsys, "solve", str(star), "--edge", "0", "1",
                       "--variant", "uw-rt-ins-ntp", "--method", "randomized")
    assert code == 4 and "--seed" in err


def test_randomized_rejects_a_negative_seed(capsys, tmp_path):
    star = tmp_path / "star.edges"
    star.write_text(STAR6)
    code, out, err = run(capsys, "solve", str(star), "--edge", "0", "1",
                         "--variant", "uw-rt-ins-ntp", "--method", "randomized", "--seed", "-1")
    assert (code, out) == (4, "")
    assert err == "error: seed must be non-negative, got -1\n"


def solve_sweep9_randomized(capsys, tmp_path):
    graph = tmp_path / "sweep9.edges"
    graph.write_text(SWEEP9)
    return run(capsys, "solve", str(graph), "--edge", "1", "6",
               "--variant", "uw-rt-ins-ntp", "--method", "randomized", "--seed", "1")


def sweep9_instance():
    variant = riccicrit.ProblemVariant.parse("uw-rt-ins-ntp")
    return riccicrit.Instance(riccicrit.parse_edge_list(SWEEP9), (1, 6), variant)


def test_a_witness_short_of_its_drop_budget_is_a_verification_failure(capsys, tmp_path, monkeypatch, force_sweep):
    # SWEEP9's selected signature is cost 8 with one 3-edge and one
    # touchable 2-edge, both to drop. A cost-8 witness without 3-edges
    # cannot realize that budget: an internal failure, reported as such and
    # not as a usage error. The capped-cost certificate, which settles
    # SWEEP9's pick, is made to fail, so the sweep runs and the witness is
    # queried.
    force_sweep()
    real = riccicrit.solvers.matching_with_counts
    returned = []

    def no_threes(costs, mask, target, k, l, **kw):
        found = real(costs, mask, target, 0, l, **kw)
        returned.append((found.cost, target, k))
        return found

    monkeypatch.setattr(riccicrit.solvers, "matching_with_counts", no_threes)
    code, out, err = solve_sweep9_randomized(capsys, tmp_path)
    assert returned == [(8, 8, 1)]
    assert (code, out) == (5, "")
    assert err == "verification failure: matching cannot realize the requested drop budget\n"


@pytest.mark.parametrize(
    "name, fake, message",
    [
        # Cost q + 1 with nothing droppable: certified, but unwanted.
        ("signature_support", lambda costs, mask, **kw: {(len(costs) + 1, 0, 0)},
         "no wanted matching signature was certified"),
        ("matching_with_counts", lambda *a, **kw: None, "witness extraction failed"),
    ],
)
def test_randomized_retry_exhaustion_is_a_verification_failure(
    capsys, tmp_path, monkeypatch, force_sweep, name, fake, message
):
    force_sweep()
    monkeypatch.setattr(riccicrit.solvers, name, fake)
    with pytest.raises(riccicrit.RetryExhaustedError, match=message):
        riccicrit.randomized_insert(sweep9_instance(), seed=1)
    code, out, err = solve_sweep9_randomized(capsys, tmp_path)
    assert (code, out) == (5, "")
    assert err.startswith("verification failure: " + message)


def test_an_approximation_never_returns_an_unverified_edit_set(capsys, tmp_path, monkeypatch):
    # With the certified verification reporting no flip, the set each
    # approximation constructs fails its final check, and nothing is
    # returned. STAR6 has rho > 0, so no single verified edit answers first.
    star = riccicrit.Instance(Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]), (0, 1),
                              riccicrit.ProblemVariant.parse("uw-rt-ins-ntp"))
    assert blow_up_shape(star).rho > 0
    monkeypatch.setattr(riccicrit.solvers, "_flips", lambda inst, edits: (False, Fraction(-1, 2)))
    message = "constructed edit set failed verification; nothing returned"
    for solve in (riccicrit.greedy_insert, lambda inst: riccicrit.randomized_insert(inst, seed=1)):
        with pytest.raises(riccicrit.RetryExhaustedError, match=message):
            solve(star)
    (tmp_path / "star.edges").write_text(STAR6)
    for method in (["greedy"], ["randomized", "--seed", "1"]):
        code, out, err = run(capsys, "solve", str(tmp_path / "star.edges"), "--edge", "0", "1",
                             "--variant", "uw-rt-ins-ntp", "--method", *method)
        assert (code, out, err) == (5, "", f"verification failure: {message}\n")


def test_solve_brute_on_blocker(capsys, blocker_files):
    edges, sidecar = blocker_files
    code, out, _ = run(capsys, "solve", edges, "--edge", "0", "1",
                       "--variant", "uw-rt-del-ptn", "--method", "brute", "--max-k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["optimal_within_max_k"] is True
    assert len(payload["edits"]) == 1
    assert payload["resulting_ric"] == {"num": -1, "den": 6}


def test_solve_infeasible_exit_code(capsys, p3_file):
    code, _, err = run(capsys, "solve", p3_file, "--edge", "0", "1",
                       "--variant", "uw-rt-del-ptn", "--method", "brute")
    assert code == 3


def test_feasible_subcommand(capsys, blocker_files):
    edges, _ = blocker_files
    code, out, _ = run(capsys, "feasible", edges, "--edge", "0", "1",
                       "--variant", "uw-rt-del-ptn")
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert payload["saturation_solution"]["verified"] is True


def test_gadget_sidecar_content(blocker_files):
    edges, sidecar = blocker_files
    with open(sidecar) as fh:
        payload = json.load(fh)
    assert payload["descriptor"]["kind"] == "blocker"
    assert payload["edge"] == [0, 1]
    with open(edges) as fh:
        assert "0 1" in fh.read()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("blocker", "--h0-edges", "0:0,1-1"), "--h0-edges: '1-1' is not I:J"),
        (("blocker", "--h0-edges", "0:0:1"), "--h0-edges: '0:0:1' is not I:J"),
        (("blocker", "--h0-edges", "0:x"), "--h0-edges: '0:x' is not I:J"),
        (("maxcov", "--sets", "a,b"), "--sets: 'a' in 'a,b' is not an integer"),
        (("maxcov", "--sets", "0,1;2,x"), "--sets: 'x' in '2,x' is not an integer"),
    ],
)
def test_gadget_list_flags_name_the_flag_and_the_bad_token(capsys, argv, message):
    code, out, err = run(capsys, "gadget", *argv)
    assert (code, out) == (4, "")
    assert err.startswith(f"error: {message}"), err


def test_gadget_tightness_matrix_json(capsys):
    code, out, _ = run(capsys, "gadget", "tightness", "--m", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["adversarial"]["cost"] == 8
    assert len(payload["cost_matrix"]) == 5


def test_solve_greedy_with_adversarial_start(capsys, tmp_path):
    base = str(tmp_path / "tight")
    code = main(["gadget", "tightness", "--m", "4", "--graph-form", "--output", base])
    assert code == 0
    code, out, _ = run(capsys, "solve", base + ".edges", "--edge", "0", "1",
                       "--variant", "uw-rt-ins-ntp", "--method", "greedy",
                       "--start", base + ".json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["edits"]) == 4
    code, out, _ = run(capsys, "solve", base + ".edges", "--edge", "0", "1",
                       "--variant", "uw-rt-ins-ntp", "--method", "brute", "--max-k", "2")
    assert code == 0
    assert len(json.loads(out)["edits"]) == 2


@pytest.mark.parametrize(
    "reshape, message",
    [
        (lambda a: list(range(len(a) + 1)), "start matching does not fit the blow-up"),
        # Swapping the first two rows costs 12 against the minimum of 10.
        (lambda a: [a[1], a[0], *a[2:]], "start matching must be minimum-cost"),
    ],
    ids=["wrong-length", "not-minimum-cost"],
)
def test_solve_greedy_rejects_a_start_that_does_not_fit(capsys, tmp_path, reshape, message):
    base = str(tmp_path / "tight")
    assert main(["gadget", "tightness", "--m", "4", "--graph-form", "--output", base]) == 0
    with open(base + ".json") as fh:
        sidecar = json.load(fh)
    params = sidecar["descriptor"]["parameters"]
    params["adversarial_assignment"] = reshape(params["adversarial_assignment"])
    start = tmp_path / "start.json"
    start.write_text(json.dumps(sidecar))
    code, out, err = run(capsys, "solve", base + ".edges", "--edge", "0", "1",
                         "--variant", "uw-rt-ins-ntp", "--method", "greedy", "--start", str(start))
    assert code == 4
    assert out == ""
    assert err == f"error: {message}\n"


def test_solve_greedy_rejects_a_start_whose_cost_is_not_its_assignments(capsys, tmp_path):
    base = str(tmp_path / "tight")
    assert main(["gadget", "tightness", "--m", "4", "--graph-form", "--output", base]) == 0
    with open(base + ".json") as fh:
        sidecar = json.load(fh)
    sidecar["descriptor"]["parameters"]["adversarial_cost"] = 999
    start = tmp_path / "start.json"
    start.write_text(json.dumps(sidecar))
    code, out, err = run(capsys, "solve", base + ".edges", "--edge", "0", "1",
                         "--variant", "uw-rt-ins-ntp", "--method", "greedy", "--start", str(start))
    assert (code, out) == (4, "")
    assert err == "error: start matching says it costs 999, but its assignment costs 10\n"


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("solve", ["--variant", "uw-rt-ins-ntp", "--method", "randomized"], "--seed is required for randomized solving"),
        ("solve", ["--variant", "uw-rt-ins-ntp", "--method", "randomized", "--seed", "-1"],
         "seed must be non-negative, got -1"),
        ("solve", ["--variant", "bogus", "--method", "greedy"], "variant must look like 'uw-rt-ins-ntp', got 'bogus'"),
        ("solve", ["--variant", "uw-rt-ins-ntp", "--method", "brute", "--max-k", "0"], "--max-k must be at least 1, got 0"),
        ("feasible", ["--variant", "bogus"], "variant must look like 'uw-rt-ins-ntp', got 'bogus'"),
    ],
    ids=["seed-missing", "seed-negative", "solve-variant", "max-k", "feasible-variant"],
)
def test_flags_are_checked_before_the_graph_is_read(capsys, tmp_path, command, flags, message):
    code, out, err = run(capsys, command, str(tmp_path / "missing.edges"), "--edge", "0", "1", *flags)
    assert (code, out) == (4, "")
    assert err == f"error: {message}\n"


def test_oracle_check_random(capsys):
    code, out, _ = run(capsys, "oracle-check", "--random", "3", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["mismatches"] == 0
    assert payload["edges_checked"] > 0


def test_oracle_check_refuses_an_enumeration_bound_above_nine(capsys):
    # Enumeration visits q! matchings: 9! takes about a second per edge, 10!
    # ten times that, so a larger bound is refused before any graph is drawn.
    assert cli.MAX_ENUM_BOUND == 9
    for bound in ("10", "100"):
        code, out, err = run(capsys, "oracle-check", "--random", "2", "--enum-bound", bound)
        assert code == 4 and out == "" and err == f"error: --enum-bound must be at most 9, got {bound}\n"
    # A negative bound would enumerate nothing, silently.
    code, out, err = run(capsys, "oracle-check", "--random", "2", "--enum-bound", "-5")
    assert code == 4 and out == "" and err == "error: --enum-bound must be at least 0, got -5\n"
    code, out, _ = run(capsys, "oracle-check", "--random", "1", "--seed", "3", "--enum-bound", "9")
    assert code == 0 and json.loads(out)["mismatches"] == 0


def test_oracle_check_counts_a_failed_certificate_as_a_mismatch(capsys, monkeypatch):
    # A kernel handing out one potential off by 1 still answers every EMD
    # right, so the routes agree; the certificate fails on every edge.
    real = riccicrit.curvature.min_cost_perfect_matching

    def nudged(costs):
        m = real(costs)
        return dataclasses.replace(m, pot_r=(m.pot_r[0] + 1, *m.pot_r[1:]))

    monkeypatch.setattr(riccicrit.curvature, "min_cost_perfect_matching", nudged)
    code, out, err = run(capsys, "oracle-check", "--random", "2", "--seed", "3")
    payload = json.loads(out)
    assert (code, err) == (1, "")
    assert payload["mismatches"] == payload["edges_checked"] == len(payload["results"]) > 0
    for record in payload["results"]:
        assert record["agree"] is False and record["emd_matching"] == record["emd_flow"]
        assert set(record) <= {"edge", "emd_matching", "emd_flow", "emd_enumeration", "agree"}


def test_oracle_check_random_count_below_one(capsys):
    for count in ("0", "-2"):
        code, out, err = run(capsys, "oracle-check", "--random", count)
        assert code == 4 and out == "" and err.startswith("error:") and "--random" in err


def test_oracle_check_file_and_random_together_are_a_usage_error(capsys, p3_file):
    # The file would be checked alone and --random dropped without a word.
    for argv in ([p3_file, "--random", "3"], ["--random", "3", p3_file], [p3_file, "--random", "0"]):
        code, out, err = run(capsys, "oracle-check", *argv)
        assert (code, out) == (4, "")
        assert len(err.splitlines()) == 1 and err.startswith("riccicrit oracle-check: error:")
        assert "not allowed with argument" in err


def test_oracle_check_file_and_output(capsys, p3_file, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "oracle-check", p3_file, "--output", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["mismatches"] == 0


def test_oracle_check_fails_when_it_compared_no_edge(capsys, tmp_path):
    # No edge at all: nothing was cross-checked, so the check does not pass;
    # the report stays as it is.
    path = tmp_path / "empty.edges"
    path.write_text("# nodes: 3\n")
    code, out, err = run(capsys, "oracle-check", str(path))
    assert (code, err, json.loads(out)) == (1, "", {"edges_checked": 0, "mismatches": 0, "results": []})


@pytest.fixture()
def serial_pool(monkeypatch):
    """Replace the process pool by one in-process worker; returns its log.

    The worker is started the way a real one is: the initializer runs on a
    pickled copy of ``initargs``, and every mapped item is pickled too, so
    what a real pool would ship to its workers is shipped here as well.
    """
    log = {"workers": [], "chunksize": []}

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            log["workers"].append(max_workers)
            initializer(*pickle.loads(pickle.dumps(initargs)))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            log["chunksize"].append(chunksize)
            return [fn(pickle.loads(pickle.dumps(item))) for item in items]

    # The CLI imports the pool class when it starts a pool, from concurrent.futures.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli, "_worker_job", ())
    return log


@pytest.fixture()
def weighted_file(tmp_path):
    """A seeded connected weighted graph (weights 1..5) with 60 nodes and ~300 edges."""
    g = random_connected_graph(random.Random(9), 60, weighted=True, p=0.17)
    path = tmp_path / "weighted.edges"
    path.write_text(format_edge_list(g))
    return g, str(path)


def test_curvature_jobs_parallel_matches_serial(capsys, monkeypatch, blocker_files, weighted_file):
    g, weighted = weighted_file
    assert g.edge_count() > 4 * 2  # several chunks per worker
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    for path in (blocker_files[0], weighted):
        for route in ("matching", "flow"):
            _, out1, _ = run(capsys, "curvature", path, "--all", "--route", route)
            _, out2, _ = run(capsys, "curvature", path, "--all", "--route", route, "--jobs", "2")
            assert out1 == out2, (path, route)


def test_curvature_jobs_below_one(capsys, p3_file):
    for jobs in ("0", "-3"):
        code, out, err = run(capsys, "curvature", p3_file, "--all", "--jobs", jobs)
        assert code == 4 and out == "" and err.startswith("error:") and "--jobs" in err


def test_curvature_jobs_capped_by_cpus_and_edges(capsys, tmp_path, monkeypatch, serial_pool):
    path = tmp_path / "k3.edges"
    path.write_text("0 1\n1 2\n0 2\n")
    _, serial, _ = run(capsys, "curvature", str(path), "--all")
    pools = serial_pool["workers"]
    for jobs, cpus, expected in [
        ("5000", 4, [3]),  # capped at the edge count
        ("5000", 2, [2]),  # capped at the CPU count
        ("2", 4, [2]),
        ("5000", 1, []),  # one worker runs in-process
        ("5000", None, []),  # unknown CPU count counts as one
    ]:
        pools.clear()
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        code, out, _ = run(capsys, "curvature", str(path), "--all", "--jobs", jobs)
        assert code == 0 and out == serial
        assert pools == expected, (jobs, cpus)


def test_curvature_jobs_ships_the_graph_once_per_worker(capsys, monkeypatch, serial_pool, weighted_file):
    g, path = weighted_file
    searches = []
    dijkstra = Graph._dijkstra

    def counted(self, src, radius):
        searches.append(src)
        return dijkstra(self, src, radius)

    monkeypatch.setattr(Graph, "_dijkstra", counted)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, out, _ = run(capsys, "curvature", path, "--all", "--route", "flow", "--jobs", "2")
    assert code == 0 and len(json.loads(out)["results"]) == g.edge_count()
    assert serial_pool == {"workers": [2], "chunksize": [math.ceil(g.edge_count() / 8)]}
    # One graph, and so one distance memo, serves every edge: each source is
    # searched at most once. A graph shipped with every edge would redo the
    # row searches of N[u] for each of the ~300 edges.
    assert len(searches) <= g.node_count


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["curvature", "{p3}", "--edge", "2", "2"], 4),
        (["curvature", "{dir}", "--all"], 2),
        (["curvature", "{latin1}", "--all"], 2),
        (["curvature", "{p3}", "--all", "--output", "{dir}/missing/out.json"], 2),
        (["gadget", "tightness", "--m", "4", "--output", "{dir}/missing/x"], 2),
        (["solve", "{star}", "--edge", "0", "1", "--variant", "uw-rt-ins-ntp",
          "--method", "greedy", "--start", "{dir}/missing.json"], 2),
        (["solve", "{star}", "--edge", "0", "1", "--variant", "uw-rt-ins-ntp",
          "--method", "greedy", "--start", "{scalar_sidecar}"], 4),
        (["solve", "{star}", "--edge", "0", "1", "--variant", "uw-rt-ins-ntp",
          "--method", "greedy", "--start", "{list_sidecar}"], 4),
        (["solve", "{star}", "--edge", "0", "1", "--variant", "uw-rt-ins-ntp",
          "--method", "greedy", "--start", "{fractional_cost_sidecar}"], 4),
    ],
    ids=["self-loop-edge", "directory-input", "non-utf8-input", "output-dir-missing",
         "gadget-output-dir-missing", "start-missing", "start-scalar-assignment", "start-list",
         "start-fractional-cost"],
)
def test_bad_input_exits_with_one_error_line(capsys, tmp_path, p3_file, argv, expected):
    paths = {"p3": p3_file, "dir": str(tmp_path)}
    for name, content in [
        ("latin1", b"0 1\n\xe9 2\n"),
        ("star", STAR6.encode()),
        ("scalar_sidecar", b'{"parameters": {"adversarial_assignment": 5, "adversarial_cost": 1}}'),
        ("list_sidecar", b"[1, 2]"),
        ("fractional_cost_sidecar", b'{"parameters": {"adversarial_assignment": [1, 0], "adversarial_cost": 1.5}}'),
    ]:
        (tmp_path / name).write_bytes(content)
        paths[name] = str(tmp_path / name)
    code, out, err = run(capsys, *[a.format(**paths) for a in argv])
    assert code == expected
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, content, expected",
    [
        (["curvature", "{bad}", "--all"], b"0 1\n\xe9 2\n", 2),
        (["solve", "{star}", "--edge", "0", "1", "--variant", "uw-rt-ins-ntp",
          "--method", "greedy", "--start", "{bad}"], b'{"parameters": "\xe9"}', 2),
        (["solve", "{star}", "--edge", "0", "1", "--variant", "uw-rt-ins-ntp",
          "--method", "greedy", "--start", "{bad}"], b'{"parameters": ', 4),
    ],
    ids=["edge-list-not-utf8", "start-not-utf8", "start-not-json"],
)
def test_undecodable_file_error_names_the_file(capsys, tmp_path, argv, content, expected):
    star, bad = tmp_path / "star", tmp_path / "bad-file"
    star.write_text(STAR6)
    bad.write_bytes(content)
    code, out, err = run(capsys, *[a.format(bad=bad, star=star) for a in argv])
    assert code == expected
    assert out == ""
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1


def test_module_entry_point_maps_errors(tmp_path):
    src = str(Path(riccicrit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "riccicrit.cli", "curvature", str(tmp_path), "--all"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_networkx_is_imported_only_by_the_flow_route(capsys, tmp_path):
    src = str(Path(riccicrit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def fresh(*args):
        proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    probe = "import sys, riccicrit, riccicrit.cli; print('networkx' in sys.modules)"
    assert fresh("-c", probe) == "False\n"
    star = tmp_path / "star.edges"
    star.write_text(STAR6)
    flow = json.loads(fresh("-m", "riccicrit.cli", "curvature", str(star), "--all", "--route", "flow"))
    assert [r["ric_str"] for r in flow["results"]] == ["-1/2", "1/4", "1/4", "1/4", "1/4"]
    code, out, _ = run(capsys, "curvature", str(star), "--all", "--route", "flow")
    assert code == 0 and json.loads(out) == flow
    checked = fresh("-m", "riccicrit.cli", "oracle-check", "--random", "2", "--seed", "3")
    assert json.loads(checked)["mismatches"] == 0
    assert run(capsys, "oracle-check", "--random", "2", "--seed", "3") == (0, checked, "")


def test_solving_loads_no_networkx(tmp_path):
    # Each solver verifies its edit set by the default route's certificate:
    # saturation, greedy, randomized and brute force on STAR6, and
    # saturation and brute force on a weighted maxcov gadget, leave networkx
    # unloaded.
    src = str(Path(riccicrit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    star = tmp_path / "star.edges"
    star.write_text(STAR6)
    g, (u, v), _ = riccicrit.gen_maxcov(5, [[0, 1, 2], [2, 3], [4]], 2)
    cover = tmp_path / "maxcov.edges"
    cover.write_text(format_edge_list(g))
    on_star = [str(star), "--edge", "0", "1", "--variant", "uw-rt-ins-ntp"]
    on_cover = [str(cover), "--edge", str(u), str(v), "--variant", "wt-rt-ins-ntp"]
    runs = [
        ["feasible", *on_star],
        ["solve", *on_star, "--method", "greedy"],
        ["solve", *on_star, "--method", "randomized", "--seed", "1"],
        ["solve", *on_star, "--method", "brute", "--max-k", "3"],
        ["feasible", *on_cover],
        ["solve", *on_cover, "--method", "brute", "--max-k", "2"],
    ]
    outputs = [tmp_path / f"out{k}.json" for k in range(len(runs))]
    argvs = [[*argv, "--output", str(out)] for argv, out in zip(runs, outputs)]
    probe = (
        "import json, sys, riccicrit.cli; "
        "codes = [riccicrit.cli.main(argv) for argv in json.loads(sys.argv[1])]; "
        "print(codes, 'networkx' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(argvs)], env=env, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (0, f"{[0] * len(runs)} False\n"), proc.stderr
    payloads = [json.loads(out.read_text()) for out in outputs]
    for payload in payloads:
        solution = payload.get("saturation_solution", payload)
        assert solution["verified"] is True
    assert payloads[0]["feasible"] and payloads[4]["feasible"]


def test_importing_the_cli_leaves_concurrent_futures_unloaded():
    # Only a --jobs batch with more than one worker needs the process pool.
    src = str(Path(riccicrit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, riccicrit.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_numpy_is_imported_only_by_the_randomized_solvers(tmp_path):
    src = str(Path(riccicrit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    star = tmp_path / "star.edges"
    star.write_text(STAR6)
    out = tmp_path / "out.json"

    def numpy_loaded_by(argv, setup=""):
        """Whether a fresh interpreter has numpy loaded after importing the
        CLI, running ``setup`` and then ``argv``."""
        probe = (
            f"import sys, riccicrit, riccicrit.cli; {setup}"
            "code = riccicrit.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
            "print(code, 'numpy' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        code, loaded = proc.stdout.split()
        assert code == "0", proc.stderr
        return loaded == "True"

    assert not numpy_loaded_by([])
    for route in ("matching", "flow"):
        assert not numpy_loaded_by(["curvature", str(star), "--all", "--route", route, "--output", str(out)])
        assert len(json.loads(out.read_text())["results"]) == 5
    # The least signature answers randomized_insert exactly on STAR6 and on
    # SWEEP9, whose pick the capped-cost certificate settles; with that
    # certificate failing, SWEEP9 runs the F_p sweep, to the same Solution.
    sweep = tmp_path / "sweep9.edges"
    sweep.write_text(SWEEP9)
    forced = "riccicrit.solvers._least_capped_cost = lambda costs: -1; "
    results = []
    for graph, edge, setup, loaded in (
        (star, ["0", "1"], "", False),
        (sweep, ["1", "6"], "", False),
        (sweep, ["1", "6"], forced, True),
    ):
        solve = ["solve", str(graph), "--edge", *edge, "--variant", "uw-rt-ins-ntp", "--method", "randomized"]
        assert numpy_loaded_by([*solve, "--seed", "1", "--output", str(out)], setup) is loaded
        results.append(json.loads(out.read_text()))
        assert results[-1]["verified"] is True
    assert results[1] == results[2]


@pytest.fixture(scope="module")
def contract_paths(tmp_path_factory):
    """Good and bad (missing, directory, non-UTF-8, malformed) inputs, graphs of at most 6 nodes."""
    d = tmp_path_factory.mktemp("contract")
    files = {
        "star.edges": STAR6.encode(),
        "paw.edges": b"0 1\n1 2\n0 2\n2 3\n",
        "weighted.edges": b"0 1 2\n1 2 1\n2 3 3\n0 3 1\n1 4 2\n",
        "latin1.edges": b"0 1\n1 2 \xe9\n",
        "malformed.edges": b"0 1\n1 1\n",
        "start.json": b'{"descriptor": {"parameters": {"adversarial_assignment": [0, 1, 2], "adversarial_cost": 6}}}',
        "scalar_start.json": b'{"parameters": {"adversarial_assignment": 5, "adversarial_cost": 1}}',
        "list_start.json": b"[0, 1, 2]",
    }
    for name, content in files.items():
        (d / name).write_bytes(content)
    (d / "out").mkdir()
    bad = [str(d / name) for name in ("latin1.edges", "malformed.edges", "missing.edges")] + [str(d)]
    return {
        "graphs": ([str(d / n) for n in ("star.edges", "paw.edges", "weighted.edges")], bad),
        "starts": ([str(d / "start.json")], [str(d / "scalar_start.json"), str(d / "list_start.json"), *bad]),
        "outputs": ([str(d / "out" / "result")], [str(d / "missing" / "result")]),
    }


_EDGES = ([("0", "1"), ("1", "0"), ("0", "2")], [("2", "2"), ("0", "5"), ("7", "9")])
_VARIANTS = (
    ["uw-rt-ins-ntp", "uw-ut-ins-ntp", "uw-rt-del-ptn", "wt-rt-ins-ntp", "wt-ut-del-ptn"],
    ["uw-rt-ins-ptn", "uw-rt-del", "xx-rt-ins-ntp"],
)
_SETS = ["0,1;2,3", "0;1", "", "0,x", "0,1;5"]
_GADGETS = {
    "maxcov": {"--universe": ["0", "2", "4"], "--sets": _SETS, "--kappa": ["0", "1", "2"]},
    "blocker": {"--n": ["0", "1", "3"], "--h0-edges": ["0:0,1:1,2:2", "0:1:2", "5:5", "0:0,0:1"]},
    "setcover": {"--universe": ["0", "2", "3", "4"], "--sets": _SETS, "--heavy-weight": ["1", "1000"]},
    "tightness": {"--m": ["-2", "3", "4", "6"]},
}


def _pick(draw, choices):
    """A good choice seven times in eight, so valid runs reach the solvers."""
    good, bad = choices
    return draw(st.sampled_from(bad if draw(st.integers(0, 7)) == 7 else good))


def _maybe(draw, flag, values):
    return [flag, draw(st.sampled_from(values))] if draw(st.booleans()) else []


@st.composite
def _argv(draw, paths):
    command = draw(st.sampled_from(["curvature", "solve", "feasible", "gadget", "oracle-check"]))
    argv = [command]
    if command == "gadget":
        kind = draw(st.sampled_from(sorted(_GADGETS)))
        argv.append(kind)
        for flag, values in _GADGETS[kind].items():
            argv += _maybe(draw, flag, values)
        if kind == "tightness" and draw(st.booleans()):
            argv.append("--graph-form")
    elif command == "oracle-check":
        if draw(st.booleans()):
            argv.append(_pick(draw, paths["graphs"]))
        argv += _maybe(draw, "--random", ["-1", "0", "1", "2"])
        argv += _maybe(draw, "--seed", ["0", "1", "2"])
        argv += _maybe(draw, "--enum-bound", ["0", "4", "8"])
    else:
        argv.append(_pick(draw, paths["graphs"]))
        if command == "curvature":
            if draw(st.booleans()):
                argv.append("--all")
            for _ in range(draw(st.integers(0, 2))):
                argv += ["--edge", *_pick(draw, _EDGES)]
            argv += _maybe(draw, "--route", ["matching", "flow"])
            argv += _maybe(draw, "--jobs", ["-1", "0", "1", "2"])
        else:
            argv += ["--edge", *_pick(draw, _EDGES), "--variant", _pick(draw, _VARIANTS)]
        if command == "solve":
            argv += ["--method", draw(st.sampled_from(["greedy", "randomized", "brute"]))]
            if draw(st.integers(0, 3)):
                argv += ["--seed", draw(st.sampled_from(["0", "7"]))]
            if draw(st.booleans()):
                argv += ["--max-k", _pick(draw, (["1", "2"], ["-1", "0"]))]
            if draw(st.booleans()):
                argv += ["--start", _pick(draw, paths["starts"])]
    if draw(st.booleans()):
        argv += ["--output", _pick(draw, paths["outputs"])]
    return argv


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_exit_code_contract(contract_paths, data):
    argv = data.draw(_argv(contract_paths), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in {0, 2, 3, 4, 5}
    if code != 0:
        assert out.getvalue() == ""
