"""The one-BLAS-thread block around acquisition picks."""

import os
import subprocess
import sys
import threading

import pytest

import tpbo._blas as blas
import tpbo.bo
from tpbo.bo import AcquisitionSpec, new_session
from tpbo.gp import SeKernel


@pytest.fixture()
def controls():
    found = blas.find_controls()
    if not found:
        pytest.skip("no OpenBLAS thread controls in this process")
    return found


def counts(controls):
    return [getter() for getter, _ in controls]


def test_nested_blocks_restore_on_the_outermost_exit(controls):
    before = counts(controls)
    with blas.single_thread():
        with blas.single_thread():
            assert counts(controls) == [1] * len(controls)
        assert counts(controls) == [1] * len(controls)
    assert counts(controls) == before


def test_counts_restored_after_an_error(controls):
    before = counts(controls)
    with pytest.raises(RuntimeError):
        with blas.single_thread():
            raise RuntimeError("inside the block")
    assert counts(controls) == before


def test_no_libraries_found_changes_nothing(controls, monkeypatch):
    before = counts(controls)
    monkeypatch.setattr(blas, "_controls", [])
    with blas.single_thread():
        assert counts(controls) == before
    assert counts(controls) == before


def test_polish_runs_on_one_blas_thread(controls, monkeypatch):
    before = counts(controls)
    seen = []
    polish = tpbo.bo._polish

    def recording(session, starts, y_plus):
        seen.append(counts(controls))
        return polish(session, starts, y_plus)

    monkeypatch.setattr(tpbo.bo, "_polish", recording)
    session = new_session(
        SeKernel(3.0), AcquisitionSpec(kind="ei", dim=2), seed=5, noise_var=1e-6,
        init_points=[[0.5, -0.5], [-0.25, 0.75]], init_values=[-0.3, -0.1],
    )
    tpbo.bo.maximize_acquisition(session, refine_top=2)
    assert seen == [[1] * len(controls)]
    assert counts(controls) == before


def test_threads_share_one_limit(controls):
    # a lost update of the holder count would restore the counts while
    # another thread is still inside its block, or never restore them
    before = counts(controls)
    errors = []

    def worker():
        for _ in range(200):
            with blas.single_thread():
                if counts(controls) != [1] * len(controls):
                    errors.append(counts(controls))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert counts(controls) == before


def test_first_block_finds_every_openblas_a_pick_uses():
    # The controls are found once, at the first block.  `import tpbo.cli`
    # maps only numpy's OpenBLAS; a first block that missed scipy's would
    # leave it at its default thread count in every later pick.
    script = (
        "import tpbo.cli\n"
        "import tpbo._blas as blas\n"
        "from tpbo import AcquisitionSpec, SeKernel, ask, new_session\n"
        "with blas.single_thread():\n"
        "    pass\n"
        "first = len(blas._controls)\n"
        "session = new_session(SeKernel(3.0), AcquisitionSpec(kind='ei', dim=2), seed=5,\n"
        "                      noise_var=1e-6, init_points=[[0.5, -0.5], [-0.25, 0.75]],\n"
        "                      init_values=[-0.3, -0.1])\n"
        "ask(session, refine_top=2)\n"
        "print(first, len(blas.find_controls()))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    first, after_pick = proc.stdout.split()
    assert first == after_pick
