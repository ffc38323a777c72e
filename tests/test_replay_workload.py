"""The workload replay tool runs the benchmark's generated operations
through the CLI, judges them as the benchmark does, and writes nothing
under perfbench/; it runs in a fresh interpreter."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "replay_workload.py"


def replay(*args):
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPATH", None)
    return subprocess.run([sys.executable, str(TOOL), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_two_catalog_seeds_pass_and_nothing_is_written_to_perfbench():
    before = sorted(p.name for p in (ROOT / "perfbench").iterdir())
    proc = replay("catalog", "1", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.strip() == ("catalog seeds 1-2: 16 operations, 0 failed, "
                                   "0 failing seeds")
    assert sorted(p.name for p in (ROOT / "perfbench").iterdir()) == before
    assert replay("nonsense", "1", "2").returncode == 2
