"""``benchmarks/interleave.py``: one child per tree, slices stepped A B B A,
the end export digests compared."""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_this_checkout_against_itself_matches_its_own_digest():
    started = time.perf_counter()
    result = subprocess.run(
        [
            sys.executable, str(ROOT / "benchmarks" / "interleave.py"),
            "--a", str(ROOT), "--b", str(ROOT), "--workload", "fleet-steady",
            "--scale", "0.05", "--seconds", "1",
        ],
        capture_output=True, text=True, timeout=60,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    elapsed = time.perf_counter() - started
    assert result.returncode == 0, result.stdout + result.stderr
    digests = re.findall(r"export_sha256 ([0-9a-f]{64})", result.stdout)
    assert len(digests) == 2 and digests[0] == digests[1]
    seconds = [float(value) for value in re.findall(r": ([0-9.]+) s measured", result.stdout)]
    assert len(seconds) == 2 and all(value > 0 for value in seconds)
    assert re.search(r"^B/A: [0-9.]+", result.stdout, re.MULTILINE)
    assert re.search(r"12 slices each, A B B A", result.stdout)
    assert elapsed < 10.0, elapsed
