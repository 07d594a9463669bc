"""End-to-end command-line tests; most drive main() in process."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from tpbo.cli import main

XOR_CSV = """x1,x2,y
1.0,1.0,-1.0
1.0,-1.0,1.0
-1.0,1.0,1.0
-1.0,-1.0,-1.0
"""

CONSTANT_CSV = """x1,x2,y
0.0,0.0,5.0
0.5,0.5,5.0
1.0,-1.0,5.0
-0.5,0.25,5.0
"""


@pytest.fixture()
def xor_csv(tmp_path):
    path = tmp_path / "xor.csv"
    path.write_text(XOR_CSV)
    return str(path)


class TestPretrainCommand:
    def test_xor_pipeline(self, xor_csv, tmp_path, capsys):
        model_path = str(tmp_path / "model.json")
        code = main([
            "pretrain", "--aux", xor_csv, "--task", "classification",
            "--kernel", "poly", "--degree", "2", "--offset", "1",
            "--lambda-grid", "1", "--out", model_path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "lambda: 1.0" in out
        assert model_path in out
        payload = json.loads(open(model_path).read())
        assert payload["kernel"]["family"] == "polynomial"
        expected = np.array([-0.125, 0.125, 0.125, -0.125])
        assert np.allclose(payload["alpha"], expected, atol=1e-9)

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main([
            "pretrain", "--aux", str(tmp_path / "absent.csv"),
            "--task", "regression", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_constant_targets_exit_3(self, tmp_path, capsys):
        csv = tmp_path / "const.csv"
        csv.write_text(CONSTANT_CSV)
        code = main([
            "pretrain", "--aux", str(csv), "--task", "regression",
            "--kernel", "se", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 3
        assert "degenerate" in capsys.readouterr().err

    def test_unknown_kernel_exits_2(self, xor_csv, tmp_path, capsys):
        code = main([
            "pretrain", "--aux", xor_csv, "--kernel", "matern",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2
        assert "valid" in capsys.readouterr().err

    def test_unknown_or_abbreviated_flag_exits_2(self, tmp_path, capsys):
        # pretrain has no --nu (the grid picks nu), and --nu does not
        # abbreviate --nu-grid
        code = main([
            "pretrain", "--aux-from-function", "himmelblau", "--nu", "7.5",
            "--out", str(tmp_path / "model.json"),
        ])
        assert code == 2
        assert "--nu" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    def test_aux_from_function(self, tmp_path, capsys):
        model_path = str(tmp_path / "m.json")
        code = main([
            "pretrain", "--aux-from-function", "himmelblau",
            "--aux-size", "12", "--seed", "1", "--out", model_path,
        ])
        assert code == 0
        payload = json.loads(open(model_path).read())
        assert len(payload["alpha"]) == 12
        assert "loo:" in capsys.readouterr().out


class TestBenchCommand:
    def test_row_count(self, tmp_path):
        out = str(tmp_path / "results.csv")
        code = main([
            "bench", "--functions", "himmelblau", "--methods", "tp-ei,ei",
            "--seeds", "2", "--iters", "5", "--refine-top", "2", "--out", out,
        ])
        assert code == 0
        lines = open(out).read().strip().split("\n")
        assert lines[0] == "method,function,seed,iteration,best_value"
        assert len(lines) == 21  # header + 20 records

    def test_repeat_is_byte_identical(self, tmp_path):
        args = [
            "bench", "--functions", "ackley", "--methods", "ucb",
            "--seeds", "1", "--iters", "3", "--refine-top", "2",
        ]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_summary_written(self, tmp_path):
        out = str(tmp_path / "r.csv")
        summary = str(tmp_path / "s.csv")
        code = main([
            "bench", "--functions", "rastrigin", "--methods", "ei",
            "--seeds", "2", "--iters", "2", "--refine-top", "2",
            "--out", out, "--summary", summary,
        ])
        assert code == 0
        lines = open(summary).read().strip().split("\n")
        assert lines[0] == "method,function,iteration,median,iqr"
        assert len(lines) == 3

    def test_unknown_function_exits_2(self, tmp_path, capsys):
        code = main([
            "bench", "--functions", "easom", "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "valid" in err and "himmelblau" in err

    def test_unknown_method_exits_2(self, tmp_path, capsys):
        code = main([
            "bench", "--methods", "sgd", "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2
        assert "tp-ei" in capsys.readouterr().err


@pytest.fixture()
def small_model(tmp_path):
    path = str(tmp_path / "model.json")
    code = main([
        "pretrain", "--aux-from-function", "himmelblau",
        "--aux-size", "12", "--seed", "3", "--out", path,
    ])
    assert code == 0
    return path


class TestOptimizeCommand:
    def test_smoke(self, small_model, capsys):
        code = main([
            "optimize", "--model", small_model, "--function", "himmelblau",
            "--iters", "2", "--seed", "0", "--refine-top", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "init_size: 2" in out
        assert "t=2 best=" in out
        assert "best_value:" in out

    def test_unknown_function(self, small_model, capsys):
        code = main([
            "optimize", "--model", small_model, "--function", "branin",
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "iters, init_size, flag",
        [("-1", "2", "--iters"), ("3", "-2", "--init-size"), ("0", "0", "--init-size")],
    )
    def test_bad_counts_exit_2(self, small_model, capsys, iters, init_size, flag):
        code = main([
            "optimize", "--model", small_model, "--function", "himmelblau",
            "--iters", iters, "--init-size", init_size,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err

    @pytest.mark.parametrize("refine_top", ["0", "-3"])
    def test_bad_refine_top_exits_2_before_output(self, small_model, capsys, refine_top):
        code = main([
            "optimize", "--model", small_model, "--function", "himmelblau",
            "--iters", "2", "--refine-top", refine_top,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--refine-top" in captured.err

    def test_initial_design_only(self, small_model, capsys):
        code = main([
            "optimize", "--model", small_model, "--function", "himmelblau",
            "--iters", "0", "--init-size", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "t=" not in out
        assert "best_value:" in out


@pytest.fixture()
def readme_model(tmp_path):
    """The model of the README's ask/tell example."""
    path = str(tmp_path / "model.json")
    code = main([
        "pretrain", "--aux-from-function", "himmelblau",
        "--aux-size", "50", "--seed", "0", "--out", path,
    ])
    assert code == 0
    return path


GOLDEN_SUGGESTIONS = [
    "suggestion: 0.25019093320933394,0.794427601939151",
    "suggestion: -0.015682750921489148,0.012564176335414885",
    "suggestion: 0.00437037463971898,-1.0",
]

GOLDEN_SESSION = """{
  "domain": {
    "lo": [
      -1.0,
      -1.0
    ],
    "hi": [
      1.0,
      1.0
    ]
  },
  "iteration": 2,
  "observations": {
    "points": [
      [
        -0.5,
        0.25
      ],
      [
        -0.015682750921489148,
        0.012564176335414885
      ]
    ],
    "values": [
      0.31,
      0.62
    ]
  },
  "pending": [
    0.00437037463971898,
    -1.0
  ],
  "seed": 7,
  "acquisition": {
    "kind": "ei",
    "delta": 0.1
  },
  "noise_var": 1e-06
}
"""


class TestSuggestTell:
    def test_round_trip(self, small_model, tmp_path, capsys):
        session = str(tmp_path / "session.json")
        base = ["--session", session, "--model", small_model,
                "--seed", "5", "--refine-top", "2"]
        assert main(["suggest"] + base) == 0
        first = capsys.readouterr().out
        assert first.startswith("suggestion: ")
        x_text = first.split("suggestion: ")[1].strip()
        x = [float(tok) for tok in x_text.split(",")]
        assert len(x) == 2 and all(-1 <= v <= 1 for v in x)

        # pending suggestion survives the file round trip
        assert main(["suggest"] + base) == 0
        second = capsys.readouterr().out
        assert second == first

        assert main(["tell", "--session", session, "--model", small_model,
                     "--x", x_text, "--y", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "iteration: 1" in out
        assert "observations: 1" in out
        payload = json.loads(open(session).read())
        assert payload["pending"] is None
        assert payload["iteration"] == 1
        assert payload["observations"]["values"] == [0.4]

        # a fresh suggestion differs once data arrived
        assert main(["suggest"] + base) == 0
        third = capsys.readouterr().out
        assert third.startswith("suggestion: ")

    def test_tell_outside_box_exits_2(self, small_model, tmp_path, capsys):
        session = str(tmp_path / "session.json")
        assert main(["suggest", "--session", session, "--model", small_model,
                     "--refine-top", "2"]) == 0
        capsys.readouterr()
        code = main(["tell", "--session", session, "--model", small_model,
                     "--x", "2.0,0.0", "--y", "1.0"])
        assert code == 2
        assert "outside" in capsys.readouterr().err

    def test_tell_bad_coordinates_exit_2(self, small_model, tmp_path):
        session = str(tmp_path / "session.json")
        assert main(["suggest", "--session", session, "--model", small_model,
                     "--refine-top", "2"]) == 0
        assert main(["tell", "--session", session, "--model", small_model,
                     "--x", "a,b", "--y", "1.0"]) == 2

    def test_tell_negative_first_coordinate(self, small_model, tmp_path, capsys):
        session = str(tmp_path / "session.json")
        assert main(["tell", "--session", session, "--model", small_model,
                     "--x", "-0.5,0.25", "--y", "0.3"]) == 0
        assert "observations: 1" in capsys.readouterr().out
        payload = json.loads(open(session).read())
        assert payload["observations"]["points"] == [[-0.5, 0.25]]
        assert payload["observations"]["values"] == [0.3]


    @pytest.mark.parametrize(
        "field, value",
        [("iteration", 0.5), ("seed", 3.9),
         ("observations", {"points": [[-0.5, 0.25, 0.5, 0.0]], "values": [0.3, 0.1]})],
        ids=["iteration-fraction", "seed-fraction", "wide-row"],
    )
    def test_malformed_session_file_exits_2(self, small_model, tmp_path, capsys, field, value):
        session = tmp_path / "session.json"
        assert main(["tell", "--session", str(session), "--model", small_model,
                     "--x=-0.5,0.25", "--y", "0.3"]) == 0
        payload = json.loads(session.read_text())
        payload[field] = value
        session.write_text(json.dumps(payload))
        capsys.readouterr()
        for command, flags in (("suggest", ["--refine-top", "2"]),
                               ("tell", ["--x=0.5,0.25", "--y", "0.3"])):
            code = main([command, "--session", str(session), "--model", small_model] + flags)
            assert code == 2
            assert "malformed session file" in capsys.readouterr().err

    def test_model_of_another_dimension_exits_2(self, small_model, tmp_path, capsys):
        csv = tmp_path / "aux3.csv"
        rng = np.random.default_rng(4)
        rows = [",".join(repr(float(v)) for v in row) for row in rng.uniform(-1, 1, (10, 4))]
        csv.write_text("x1,x2,x3,y\n" + "\n".join(rows) + "\n")
        model3 = str(tmp_path / "model3.json")
        assert main(["pretrain", "--aux", str(csv), "--out", model3]) == 0
        session = tmp_path / "session.json"

        def rejected(command, *flags):
            before = session.read_bytes()
            code = main([command, "--session", str(session), "--model", model3] + list(flags))
            assert code == 2
            err = capsys.readouterr().err
            assert "3-D" in err and "2-D" in err
            assert session.read_bytes() == before

        # a 2-D session with a pending point, then with data and none pending
        assert main(["suggest", "--session", str(session), "--model", small_model]) == 0
        capsys.readouterr()
        rejected("suggest", "--refine-top", "2")
        rejected("tell", "--x=0.5,0.25,0.0", "--y", "0.3")
        assert main(["tell", "--session", str(session), "--model", small_model,
                     "--x=-0.5,0.25", "--y", "0.3"]) == 0
        capsys.readouterr()
        rejected("suggest", "--refine-top", "2")
        rejected("tell", "--x=0.5,0.25", "--y", "0.3")

    @pytest.mark.parametrize("refine_top", ["0", "-3"])
    def test_bad_refine_top_exits_2(self, small_model, tmp_path, capsys, refine_top):
        # neither a fresh EI session nor a pending suggestion polishes a
        # probe; the flag is still checked
        session = tmp_path / "session.json"
        base = ["suggest", "--session", str(session), "--model", small_model]
        assert main(base + ["--refine-top", refine_top]) == 2
        assert "--refine-top" in capsys.readouterr().err
        assert not session.exists()
        assert main(base) == 0
        assert main(base + ["--refine-top", refine_top]) == 2

    def test_settings_fixed_at_creation(self, small_model, tmp_path, capsys):
        session = tmp_path / "session.json"
        base = ["--session", str(session), "--model", small_model, "--refine-top", "2"]
        created = ["--acq", "ucb", "--delta", "0.2", "--sigma2", "1e-05", "--seed", "9"]
        assert main(["suggest"] + base + created) == 0
        first = capsys.readouterr()
        assert "ignoring" not in first.err
        payload = json.loads(session.read_text())
        assert payload["acquisition"] == {"kind": "ucb", "delta": 0.2}
        assert (payload["seed"], payload["noise_var"]) == (9, 1e-05)

        # the stored settings win; each differing flag draws one warning
        assert main(["suggest"] + base + ["--acq", "ei", "--delta", "0.2",
                                          "--sigma2", "0.5", "--seed", "7"]) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert [ln for ln in second.err.splitlines() if "ignoring" in ln] == [
            "warning: ignoring --acq ei; the session uses ucb",
            "warning: ignoring --sigma2 0.5; the session uses 1e-05",
            "warning: ignoring --seed 7; the session uses 9",
        ]

        # matching or omitted flags are silent
        assert main(["suggest"] + base + created) == 0
        assert main(["suggest"] + base) == 0
        assert "ignoring" not in capsys.readouterr().err

        x_text = first.out.split("suggestion: ")[1].strip()
        assert main(["tell", "--session", str(session), "--model", small_model,
                     "--x", x_text, "--y", "0.4", "--seed", "0"]) == 0
        told = capsys.readouterr()
        assert "iteration: 1" in told.out
        assert [ln for ln in told.err.splitlines() if "ignoring" in ln] == [
            "warning: ignoring --seed 0; the session uses 9"
        ]


    def test_golden_sequence(self, readme_model, tmp_path, capsys):
        """Frozen ask/tell run with every probe polished (`suggest` passes
        no --refine-top); values regenerate only if the sampler or local
        optimizer implementation changes."""
        session = tmp_path / "session.json"
        base = ["--session", str(session), "--model", readme_model]
        suggestions = []

        def suggest(*flags):
            assert main(["suggest"] + base + list(flags)) == 0
            suggestions.append(capsys.readouterr().out.strip())

        def tell(x_text, y):
            assert main(["tell"] + base + ["--x=" + x_text, "--y", y]) == 0
            capsys.readouterr()

        suggest("--seed", "7")
        tell("-0.5,0.25", "0.31")
        suggest()
        tell(suggestions[-1].split("suggestion: ")[1], "0.62")
        suggest()
        suggest("--acq", "ucb")  # ignored: the pending point is returned
        assert suggestions == GOLDEN_SUGGESTIONS + GOLDEN_SUGGESTIONS[-1:]
        assert session.read_text() == GOLDEN_SESSION


    def test_numerical_failure_exits_4_where_the_factor_is_needed(
        self, readme_model, tmp_path, capsys, monkeypatch
    ):
        import tpbo.gp
        from tpbo.errors import NumericalError

        def failing(gram, shift):
            raise NumericalError("posterior factorization failed")

        monkeypatch.setattr(tpbo.gp, "_factor_shifted", failing)
        base = ["--session", str(tmp_path / "session.json"), "--model", readme_model]
        # the first pick of a fresh session is a seeded random point, and
        # tell only records data: neither factors the posterior
        assert main(["suggest"] + base) == 0
        assert main(["tell"] + base + ["--x=-0.5,0.25", "--y", "0.31"]) == 0
        capsys.readouterr()
        assert main(["suggest"] + base) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: numerical failure: posterior factorization")


class TestParser:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "pretrain" in capsys.readouterr().out

    def test_subprocess_entry(self, tmp_path):
        # the child imports tpbo from where this process found it
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-m", "tpbo.cli", "--help"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "suggest" in proc.stdout

    def test_commands_do_not_load_scipy_stats(self, small_model, tmp_path, capsys):
        # Every command starts a fresh process and pays for what it imports:
        # scipy.stats would add about a quarter second, and scipy.linalg,
        # .special and .optimize together about 0.3 s.  Only the commands
        # that factor a matrix or pick a point load them.
        session = str(tmp_path / "session.json")
        assert main(["suggest", "--session", session, "--model", small_model,
                     "--seed", "5", "--refine-top", "2"]) == 0
        x_text = capsys.readouterr().out.split("suggestion: ")[1].split()[0]

        assert scipy_subpackages(None) == set()
        assert scipy_subpackages(["--help"]) == set()
        assert scipy_subpackages(["tell", "--session", session, "--model", small_model,
                                  "--x", x_text, "--y", "0.4"]) == set()
        loaded = scipy_subpackages([
            "pretrain", "--aux-from-function", "himmelblau", "--aux-size", "12",
            "--seed", "3", "--out", str(tmp_path / "model.json"),
        ])
        assert "scipy.linalg" in loaded
        assert not loaded & {"scipy.optimize", "scipy.special"}
        # the session now holds the told observation, so the pick polishes
        loaded = scipy_subpackages(["suggest", "--session", session, "--model", small_model])
        assert "scipy.optimize" in loaded
        assert "scipy.stats" not in loaded


def scipy_subpackages(argv):
    """The scipy packages loaded by ``tpbo <argv>`` in a fresh process, as
    names of at most two parts; with argv None the process only imports
    ``tpbo.cli``."""
    script = (
        "import json, sys\n"
        "import tpbo.cli\n"
        "argv = json.loads(sys.argv[1])\n"
        "if argv is not None:\n"
        "    assert tpbo.cli.main(argv) == 0\n"
        "names = {'.'.join(m.split('.')[:2]) for m in sys.modules if m.split('.')[0] == 'scipy'}\n"
        "print(json.dumps(sorted(names)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1])) - {"scipy"}
