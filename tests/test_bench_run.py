"""One untraced pass of the benchmark's grid-certify workload at seed 0.

bench/run.py checks each of the 16 fiber reports against the digest pinned
in bench/expected.json, so this test fails when any report's bytes change
(apart from generated_at).
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_grid_certify_seed0_matches_pinned_reports():
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-certify",
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    summary = json.loads(run.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, run.stderr
