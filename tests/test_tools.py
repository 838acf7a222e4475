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
