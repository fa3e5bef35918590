import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tree(directory):
    return {path: path.stat().st_mtime_ns for path in directory.rglob("*")}


def test_benchmark_self_check_passes():
    # The benchmark drives the library from outside: its traced entry points,
    # the sink capture and the pinned replays break on library changes that
    # no other test sees.
    before = _tree(ROOT / "uidbench")
    result = subprocess.run(
        [sys.executable, "uidbench/run.py", "--self-check"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "self-check ok"
    assert _tree(ROOT / "uidbench") == before
