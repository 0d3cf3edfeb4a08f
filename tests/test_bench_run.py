"""One untraced seed-0 pass of each of the benchmark's workloads.

bench/run.py checks each report against the digest pinned in
bench/expected.json, and each point search against its pinned point list,
so these tests fail when any report's bytes change (apart from
generated_at) or a search finds other points: grid-certify runs the 16
genus-1 fibers, theta-zero the g = 3 report and the g = 7 refusal, and
point-search the certified fibers and the control curves and surfaces.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seed0_pass(workload):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    summary = json.loads(run.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, run.stderr


def test_grid_certify_seed0_matches_pinned_reports():
    _seed0_pass("grid-certify")


def test_theta_zero_seed0_matches_pinned_reports():
    _seed0_pass("theta-zero")


def test_point_search_seed0_matches_pinned_lists():
    _seed0_pass("point-search")
