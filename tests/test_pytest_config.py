"""The repository's pytest configuration, run on a failing property test.

``filterwarnings`` turns every warning into an error.  hypothesis reports a
failing example through libcst, whose import raises a third-party
``DeprecationWarning``; as an error that ends the whole run in an
``INTERNALERROR``, and every test after the failing one goes unrun.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(max_examples=5, database=None)
def test_fails(x):
    assert x != x


def test_runs_after_the_failure():
    pass
"""


def test_failing_property_test_leaves_the_run_going(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
