import json

import pytest

from riccicrit.cli import main


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


def test_blowup_cap_env_must_be_an_integer(capsys, p3_file, monkeypatch):
    monkeypatch.setenv("RICCI_BLOWUP_CAP", "abc")
    code, out, err = run(capsys, "curvature", p3_file, "--all")
    assert code == 4
    assert out == ""
    assert err.startswith("error:") and "RICCI_BLOWUP_CAP" in err


def test_curvature_all_reports_oversized_edges_and_keeps_the_rest(capsys, tmp_path, monkeypatch):
    # Triangle 0-1-2 with pendant 3: q = 3 on (0, 1), 12 on (0, 2) and
    # (1, 2), 4 on (2, 3); a cap of 4 refuses only the q = 12 edges.
    path = tmp_path / "paw.edges"
    path.write_text("0 1\n1 2\n0 2\n2 3\n")
    monkeypatch.setenv("RICCI_BLOWUP_CAP", "4")
    code, out, _ = run(capsys, "curvature", str(path), "--all")
    assert code == 0
    records = {tuple(r["edge"]): r for r in json.loads(out)["results"]}
    assert set(records) == {(0, 1), (0, 2), (1, 2), (2, 3)}
    for edge in [(0, 2), (1, 2)]:
        assert "q=12 exceeds cap 4" in records[edge]["error"]
        assert "ric" not in records[edge]
    for edge in [(0, 1), (2, 3)]:
        assert "error" not in records[edge] and "ric" in records[edge]


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


def test_randomized_requires_seed(capsys, tmp_path):
    star = tmp_path / "star.edges"
    # negatively curved double star
    star.write_text("0 1\n0 2\n0 3\n1 4\n1 5\n1 6\n1 7\n")
    code, _, err = run(capsys, "solve", str(star), "--edge", "0", "1",
                       "--variant", "uw-rt-ins-ntp", "--method", "randomized")
    assert code == 4 and "--seed" in err


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


def test_oracle_check_random(capsys):
    code, out, _ = run(capsys, "oracle-check", "--random", "3", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["mismatches"] == 0
    assert payload["edges_checked"] > 0


def test_oracle_check_random_count_below_one(capsys):
    for count in ("0", "-2"):
        code, out, err = run(capsys, "oracle-check", "--random", count)
        assert code == 4 and out == "" and err.startswith("error:") and "--random" in err


def test_oracle_check_file_and_output(capsys, p3_file, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "oracle-check", p3_file, "--output", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["mismatches"] == 0


def test_curvature_jobs_parallel_matches_serial(capsys, blocker_files):
    edges, _ = blocker_files
    _, out1, _ = run(capsys, "curvature", edges, "--all")
    _, out2, _ = run(capsys, "curvature", edges, "--all", "--jobs", "2")
    assert out1 == out2


def test_curvature_jobs_below_one(capsys, p3_file):
    for jobs in ("0", "-3"):
        code, out, err = run(capsys, "curvature", p3_file, "--all", "--jobs", jobs)
        assert code == 4 and out == "" and err.startswith("error:") and "--jobs" in err
