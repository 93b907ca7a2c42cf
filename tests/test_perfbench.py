"""The benchmark's traced run must find every layer it expects to be called.

A refactor that keeps a traced function defined but stops calling it makes
the benchmark fail; this catches it in the test suite instead.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_fed_synth_workload_has_no_failures(tmp_path):
    cmd = [sys.executable, str(ROOT / "perfbench" / "workload.py"), "fed-synth",
           "--seed", "1", "--work", str(tmp_path), "--spawned", repr(time.time()), "--trace"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["problems"]
    assert result["layers"]["gnn.forward.calls"] > 0
