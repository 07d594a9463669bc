"""One traced run of the benchmark harness, end to end.

``perfbench/spans.py`` rebinds tpbo functions and methods by name and reads
what they return.  A rename, or a wrapped method that returns something
else, would otherwise break the harness only once someone starts a traced
run; this starts one on the flipped-2d workload (a few seconds).
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_flipped_2d_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flipped-2d", "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
