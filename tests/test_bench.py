"""The benchmark's smoke check. ``bench/run.py`` drives splitlab through
its public names (``ClientState.head``, ``train_local``'s 4-tuple,
``snapshot_tap``, ``make_tail_clone``, ...), so a rename that the rest of
the suite does not see still fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert "smoke: ok" in proc.stdout
