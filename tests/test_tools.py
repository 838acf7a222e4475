import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_solve_digest_is_one_stable_sha256_and_writes_nothing_under_perfbench():
    argv = [sys.executable, str(ROOT / "tools" / "solve_digest.py"), "--seeds", "1", "2", "--passes", "2", "--size", "tiny"]
    before = sorted((ROOT / "perfbench").rglob("*"))
    runs = [subprocess.run(argv, capture_output=True, text=True, timeout=120) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        assert re.fullmatch(r"[0-9a-f]{64}\n", proc.stdout)
    assert runs[0].stdout == runs[1].stdout
    assert sorted((ROOT / "perfbench").rglob("*")) == before


def test_one_full_size_solve_pass_returns_the_pinned_solutions():
    # The Solutions of one full-size pass at seed 1, as hashed before the
    # signature cubes were laid out on sheared windows: the layout changes
    # which points are evaluated, never a coefficient, so no Solution moves.
    argv = [sys.executable, str(ROOT / "tools" / "solve_digest.py"), "--seeds", "1", "--passes", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "5d281dc02327d0c35891f563fe142a6f1fac2a6e846c4d1ce9f1d1529232264c\n"


def test_two_solve_passes_at_three_seeds_return_the_pinned_solutions():
    # Every Solution of two full-size passes at seeds 1-3, as hashed while
    # randomized_insert still swept the signatures of every instance: the
    # exact lex-min shortcut picks the same signature and the same
    # lexicographically first witness, so no Solution moves.
    argv = [sys.executable, str(ROOT / "tools" / "solve_digest.py"), "--seeds", "1", "2", "3", "--passes", "2"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "16d9fce70240cbaf172043356fca66d3cbcd574b0fc90c107235045ed04a4523\n"


def test_ricci_digest_returns_the_pinned_results_and_writes_nothing_under_perfbench():
    # ric, EMD and plan of the ricci-sparse slots, a seeded G(200, 800) and a
    # seeded weighted G(40, 150) on both routes, as hashed before the
    # transport kernel took its greedy pass and blocking-flow phases: the
    # lex-min matching is unique, so no plan moves.
    argv = [sys.executable, str(ROOT / "tools" / "ricci_digest.py")]
    before = sorted((ROOT / "perfbench").rglob("*"))
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "3a7f653edb7124fa4608d4db082551a280ba8631d908f9742acd92af3a95288d\n"
    assert sorted((ROOT / "perfbench").rglob("*")) == before


def test_engine_digest_returns_the_pinned_answers_and_writes_nothing():
    # Supports at 1, 2 and 4 trials, exact-cost witnesses and misses at every
    # target, and a counts witness at every certified signature, on seeded
    # random matrices and double-star blow-ups, as hashed while signature
    # cubes were still evaluated several trials at a time and small batches
    # inverted in Python ints: the cube of a trial is the one built alone,
    # and every inversion is exact, so no answer moves.
    argv = [sys.executable, str(ROOT / "tools" / "engine_digest.py")]
    trees = [ROOT / "src", ROOT / "tools", ROOT / "perfbench"]
    before = [sorted(tree.rglob("*")) for tree in trees]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2bd38471561e268ae498f6a6051ed6f0aa72ddfdf735187881f1504ffd3f2d9b\n"
    assert [sorted(tree.rglob("*")) for tree in trees] == before
