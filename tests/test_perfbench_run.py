"""One run of every perfbench workload, end to end.

``perfbench/spans.py`` rebinds tpbo functions and methods by name and reads
what they return.  A rename, or a wrapped method that returns something
else, would otherwise break the harness only once someone starts a traced
run; this starts one on the flipped-2d workload (a few seconds).  The
other workloads run untraced, one timed round each: the benchmark gates
none of them on every change, yet they reach entry points `flipped-2d`
does not, such as ``bo_step(..., refine_top=8)``, ``gp.JITTER_FIRST``,
``pretrain --aux-size --seed``, ``suggest --seed`` and ``tell --x=``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run(workload, trace):
    """The closing JSON record of one zero-second perfbench run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_flipped_2d_run_is_correct():
    last = run("flipped-2d", trace=1)
    assert last["correct"] is True
    assert last["failed"] == 0


@pytest.mark.parametrize("workload", ["two-device-5d", "lab-session"])
def test_untraced_run_is_correct(workload):
    last = run(workload, trace=0)
    assert last["correct"] is True
    assert last["failed"] == 0


def test_untraced_pretrain_grid_fails_only_its_log_ratio_fits():
    # log-ratio `pretrain --aux` exits 2 on every CSV: 8 of each round's 49
    # fits; a warm-up round and one timed round make 98
    last = run("pretrain-grid", trace=0)
    assert last["correct"] is True
    assert (last["attempted"], last["failed"]) == (98, 16)
