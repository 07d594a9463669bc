"""End-to-end command-line tests; most drive main() in process."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tpbo.cli
from tpbo.bench import FUNCTION_ORDER, FUNCTIONS, normalize_problem, seeded_session
from tpbo.bo import load_session
from tpbo.cli import _attach_values, build_parser, main
from tpbo.errors import VanishingKernelError
from tpbo.gp import SeKernel
from tpbo.pretrain import build_tuned, load_aux_model

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


LABELS_CSV = """x1,x2,y
-1.0,-0.5,-1
-0.3,0.8,1
0.6,-0.9,-1
0.9,0.4,1
-0.7,0.1,-1
0.2,0.5,1
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
        payload = json.loads(Path(model_path).read_text())
        assert payload["kernel"]["family"] == "polynomial"
        expected = np.array([-0.125, 0.125, 0.125, -0.125])
        assert np.allclose(payload["alpha"], expected, atol=1e-9)

    def test_byte_order_mark_is_skipped(self, xor_csv, tmp_path, capsys):
        # spreadsheet exports start a UTF-8 CSV with U+FEFF
        marked = tmp_path / "marked.csv"
        marked.write_bytes("\ufeff".encode("utf-8") + Path(xor_csv).read_bytes())
        models = []
        for csv in (xor_csv, str(marked)):
            models.append(tmp_path / f"model{len(models)}.json")
            assert main(["pretrain", "--aux", csv, "--task", "classification",
                         "--kernel", "poly", "--lambda-grid", "1",
                         "--out", str(models[-1])]) == 0, capsys.readouterr().err
        assert models[0].read_bytes() == models[1].read_bytes()

    def test_rank_deficient_ridge_exits_4_naming_the_eigenvalue(self, tmp_path, capsys):
        # four points on a line give a rank-1 linear Gram, and a ridge of
        # 1e-300 leaves it singular
        csv = tmp_path / "line.csv"
        csv.write_text("x1,y\n0.1,0.2\n0.5,0.3\n-0.4,0.9\n0.9,0.1\n")
        model_path = tmp_path / "m.json"
        code = main([
            "pretrain", "--aux", str(csv), "--kernel", "linear",
            "--lambda-grid", "1e-300", "--out", str(model_path),
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert re.search(r"min eigenvalue -?\d\.\d{6}e[-+]\d+\n$", err), err
        assert not model_path.exists()

    def test_missing_out_dir_exits_2_before_training(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(tpbo.cli, "pretrain", lambda *a: calls.append(a))
        out = tmp_path / "absent" / "m.json"
        code = main(["pretrain", "--aux-from-function", "himmelblau", "--out", str(out)])
        assert code == 2
        assert calls == []
        assert "does not exist" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "csv, argv, message",
        [
            ("x1,x2,y\n0.1,0.2,0.3\n0.4,nan,0.1\n-0.2,0.5,0.7\n0.9,-0.6,0.2\n", [],
             ":3: non-finite field"),
            ("x1,x2,y\n0.1,0.2,0.3\n0.4,inf,0.1\n-0.2,0.5,0.7\n0.9,-0.6,0.2\n", [],
             ":3: non-finite field"),
            ("", [], "empty auxiliary file"),
            ("x1,x2,y\n", [], "no data rows"),
            # input and target spans past the float range
            ("x1,y\n1e308,1\n-1e308,2\n0,3\n", [], "aux.csv: column x1 "),
            ("x1,y\n0,1e308\n1,-1e308\n2,0\n", [],
             "the target column spans -1e+308 to 1e+308"),
            (XOR_CSV.replace("-1.0\n", "0.0\n"), ["--task", "classification"],
             "classification targets must be -1 or +1"),
            (None, ["--task", "classification"], "generates regression targets"),
            (None, ["--lambda-grid", "0"], "lambda grid values must be finite and > 0"),
            (None, ["--nu-grid", "-1"], "nu grid values must be finite and >= 0"),
            (None, ["--nu-grid", "inf"], "nu grid values must be finite and >= 0"),
            (None, ["--nu-grid", ","], "--nu-grid must contain at least one number"),
            (None, ["--aux-size", "0"], "n must be at least 1"),
            (None, ["--aux-size", "-3"], "n must be at least 1"),
            # every model file stores degree and offset, whatever the family
            (None, ["--offset", "nan"], "offset must be finite and >= 0, got nan"),
            (None, ["--offset", "-1"], "offset must be finite and >= 0, got -1.0"),
            (None, ["--degree", "0"], "degree must be an integer >= 1, got 0"),
            # Grams past the float range
            (LABELS_CSV, ["--task", "classification", "--kernel", "exp", "--nu-grid", "1000"],
             "the exponential Gram at nu 1000 overflows the float range"),
            (None, ["--kernel", "sinh", "--nu-grid", "800"],
             "the hyperbolic-sine Gram at nu 800 overflows the float range"),
            (None, ["--kernel", "poly", "--degree", "400", "--offset", "10"],
             "the polynomial Gram at degree 400 and offset 10 overflows the float range"),
        ],
        ids=["nan-field", "inf-field", "empty", "header-only", "span-overflow",
             "target-span-overflow", "labels-not-pm1", "generated-labels",
             "lambda-zero", "nu-negative", "nu-inf", "nu-grid-empty", "aux-size-zero",
             "aux-size-negative", "offset-nan", "offset-negative", "degree-zero",
             "exp-gram-overflow", "sinh-gram-overflow", "poly-gram-overflow"],
    )
    def test_bad_input_exits_2_without_a_file(self, tmp_path, capsys, csv, argv, message):
        if csv is None:
            source = ["--aux-from-function", "himmelblau"]
        else:
            (tmp_path / "aux.csv").write_text(csv)
            source = ["--aux", str(tmp_path / "aux.csv")]
        model_path = tmp_path / "m.json"
        code = main(["pretrain", *source, *argv, "--out", str(model_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err
        assert not model_path.exists()

    def test_span_near_the_float_range_trains(self, tmp_path, capsys):
        # the span 1.7e308 is finite, and the extremes land on exactly -1 and 1
        (tmp_path / "aux.csv").write_text("x1,y\n0,1\n1.7e308,2\n5,3\n")
        model_path = tmp_path / "m.json"
        code = main(["pretrain", "--aux", str(tmp_path / "aux.csv"), "--out", str(model_path)])
        assert code == 0, capsys.readouterr().err
        assert json.loads(model_path.read_text())["aux_inputs"] == [[-1.0], [1.0], [-1.0]]

    def test_blank_line_between_rows_is_skipped(self, tmp_path, capsys):
        rows = "x1,x2,y\n0.1,0.2,0.3\n0.4,-0.8,0.1\n-0.2,0.5,0.7\n0.9,-0.6,0.2\n"
        gapped = rows.replace("0.3\n", "0.3\n\n")
        models = []
        for i, text in enumerate((rows, gapped)):
            (tmp_path / f"aux{i}.csv").write_text(text)
            models.append(tmp_path / f"m{i}.json")
            assert main(["pretrain", "--aux", str(tmp_path / f"aux{i}.csv"),
                         "--out", str(models[-1])]) == 0, capsys.readouterr().err
        assert models[0].read_bytes() == models[1].read_bytes()

    def test_aux_from_function(self, tmp_path, capsys):
        model_path = str(tmp_path / "m.json")
        code = main([
            "pretrain", "--aux-from-function", "himmelblau",
            "--aux-size", "12", "--seed", "1", "--out", model_path,
        ])
        assert code == 0
        payload = json.loads(Path(model_path).read_text())
        assert len(payload["alpha"]) == 12
        assert "loo:" in capsys.readouterr().out


class TestBenchCommand:
    def test_row_count(self, tmp_path):
        out = str(tmp_path / "results.csv")
        code = main([
            "bench", "--functions", "himmelblau", "--methods", "tp-ei,ei",
            "--seeds", "2", "--iters", "5", "--out", out,
        ])
        assert code == 0
        lines = Path(out).read_text().strip().split("\n")
        assert lines[0] == "method,function,seed,iteration,best_value"
        assert len(lines) == 21  # header + 20 records

    def test_repeat_is_byte_identical(self, tmp_path):
        args = [
            "bench", "--functions", "ackley", "--methods", "ucb",
            "--seeds", "1", "--iters", "3",
        ]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_summary_written(self, tmp_path):
        out = str(tmp_path / "r.csv")
        summary = str(tmp_path / "s.csv")
        code = main([
            "bench", "--functions", "rastrigin", "--methods", "ei",
            "--seeds", "2", "--iters", "2",
            "--out", out, "--summary", summary,
        ])
        assert code == 0
        lines = Path(summary).read_text().strip().split("\n")
        assert lines[0] == "method,function,iteration,median,iqr"
        assert len(lines) == 3

    def test_unknown_function_exits_2(self, tmp_path, capsys):
        code = main([
            "bench", "--functions", "easom", "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "valid" in err and "himmelblau" in err

    @pytest.mark.parametrize("flag", ["--out", "--summary"])
    def test_missing_out_dir_exits_2_before_running(self, tmp_path, capsys, monkeypatch, flag):
        calls = []
        monkeypatch.setattr(tpbo.cli, "run_benchmark", lambda spec: calls.append(spec))
        paths = {"--out": tmp_path / "r.csv", "--summary": tmp_path / "s.csv"}
        paths[flag] = tmp_path / "absent" / "x.csv"
        code = main([
            "bench", "--functions", "himmelblau", "--methods", "ei", "--seeds", "1",
            "--iters", "1", "--out", str(paths["--out"]), "--summary", str(paths["--summary"]),
        ])
        assert code == 2
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag} {paths[flag]}" in captured.err
        assert not any(p.exists() for p in paths.values())

    @pytest.mark.parametrize(
        "functions, methods, repeated",
        [("himmelblau,himmelblau", "ei", "function 'himmelblau'"),
         ("ackley", "ei,tp-ei,ei", "method 'ei'")],
    )
    def test_repeated_name_exits_2_before_running(
        self, tmp_path, capsys, monkeypatch, functions, methods, repeated
    ):
        # a repeated name would run its cells twice and halve the summary's IQR
        calls = []
        monkeypatch.setattr(tpbo.cli, "run_benchmark", lambda spec: calls.append(spec))
        out = tmp_path / "r.csv"
        code = main(["bench", "--functions", functions, "--methods", methods,
                     "--seeds", "1", "--iters", "2", "--out", str(out)])
        assert code == 2
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {repeated} is given twice\n"
        assert not out.exists()

    def test_unknown_method_exits_2(self, tmp_path, capsys):
        code = main([
            "bench", "--methods", "sgd", "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2
        assert "tp-ei" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_vanishing_prior_exits_3_without_results(self, tmp_path, capsys, monkeypatch, threads):
        # serial or pooled, a degenerate cell fails the run; no partial grid is written
        def boom(*args, **kwargs):
            raise VanishingKernelError("all dual coefficients vanished")

        monkeypatch.setattr(tpbo.bench, "pretrain", boom)
        monkeypatch.setenv("TPBO_THREADS", threads)
        out, summary = tmp_path / "r.csv", tmp_path / "s.csv"
        code = main(["bench", "--functions", "himmelblau", "--methods", "ei,tp-ei",
                     "--seeds", "1", "--iters", "1", "--out", str(out),
                     "--summary", str(summary)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: degenerate model: all dual coefficients vanished\n"
        assert list(tmp_path.iterdir()) == []


class TestOutputFiles:
    def test_every_output_goes_through_the_one_writer(self, tmp_path, monkeypatch, capsys):
        # Each command leaves exactly the files it wrote through
        # `errors._write_text`, and no temporary file: a second write path
        # would leave a file the wrapper never saw.
        real = tpbo.errors._write_text
        written = []

        def recording(path, text):
            written.append(os.fspath(path))
            real(path, text)

        for module in [m for name, m in sys.modules.items() if name.startswith("tpbo")]:
            if getattr(module, "_write_text", None) is real:
                monkeypatch.setattr(module, "_write_text", recording)
        monkeypatch.chdir(tmp_path)
        session = ["--session", "session.json", "--model", "model.json"]
        commands = [
            (["pretrain", "--aux-from-function", "himmelblau", "--aux-size", "12",
              "--out", "model.json"], ["model.json"]),
            (["bench", "--functions", "himmelblau", "--methods", "ei", "--seeds", "1",
              "--iters", "1", "--out", "results.csv", "--summary", "summary.csv"],
             ["results.csv", "summary.csv"]),
            (["suggest"] + session, ["session.json"]),
            (["tell"] + session + ["--x=0.5,-0.5", "--y", "0.4"], ["session.json"]),
        ]
        files = {}
        for argv, outputs in commands:
            written.clear()
            assert main(argv) == 0, capsys.readouterr().err
            before, files = files, {p.name: p.read_bytes() for p in tmp_path.iterdir()}
            changed = [name for name in sorted(files) if files[name] != before.get(name)]
            assert written == changed == outputs, argv[0]
        assert not [name for name in files if name.endswith(".tmp")]

    def test_input_named_like_a_temporary_file_survives(self, tmp_path, capsys):
        # the writer's temporary file never takes the name <output>.tmp
        aux = tmp_path / "m.json.tmp"
        aux.write_text("x1,y\n0.1,0.2\n0.5,0.3\n-0.4,0.9\n0.9,0.1\n")
        before = aux.read_bytes()
        model = tmp_path / "m.json"
        code = main(["pretrain", "--aux", str(aux), "--kernel", "linear", "--out", str(model)])
        assert code == 0, capsys.readouterr().err
        assert aux.read_bytes() == before
        assert load_aux_model(model).kernel.family == "linear"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "m.json.tmp"]

    def test_symlinked_session_is_written_through(self, small_model, tmp_path, capsys):
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        assert main(["suggest", "--session", str(real), "--model", small_model]) == 0
        link.symlink_to("real.json")
        assert main(["tell", "--session", str(link), "--model", small_model,
                     "--x=0.5,-0.5", "--y", "0.4"]) == 0, capsys.readouterr().err
        assert link.is_symlink() and os.readlink(link) == "real.json"
        assert json.loads(real.read_text())["observations"]["values"] == [0.4]

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_output_mode_follows_the_umask(self, tmp_path, capsys, umask):
        # the mode a plain open(path, "w") gives a new file
        model = tmp_path / "m.json"
        old = os.umask(umask)
        try:
            code = main(["pretrain", "--aux-from-function", "himmelblau", "--aux-size", "6",
                         "--kernel", "linear", "--out", str(model)])
        finally:
            os.umask(old)
        assert code == 0, capsys.readouterr().err
        assert model.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_replaced_file_keeps_its_mode(self, tmp_path, capsys):
        model, session = tmp_path / "m.json", tmp_path / "s.json"
        pretrain = ["pretrain", "--aux-from-function", "himmelblau", "--aux-size", "6",
                    "--out", str(model)]
        files = ["--session", str(session), "--model", str(model)]
        old = os.umask(0o022)
        try:
            assert main(pretrain) == 0, capsys.readouterr().err
            assert model.stat().st_mode & 0o777 == 0o644
            model.chmod(0o600)
            assert main(pretrain) == 0, capsys.readouterr().err
            assert main(["suggest", *files]) == 0, capsys.readouterr().err
            assert session.stat().st_mode & 0o777 == 0o644
            session.chmod(0o600)
            for argv in (["suggest", *files], ["tell", *files, "--x=0.5,-0.5", "--y", "0.4"]):
                assert main(argv) == 0, capsys.readouterr().err
                assert session.stat().st_mode & 0o777 == 0o600, argv[0]
        finally:
            os.umask(old)
        assert model.stat().st_mode & 0o777 == 0o600


@pytest.fixture()
def small_model(tmp_path):
    path = str(tmp_path / "model.json")
    code = main([
        "pretrain", "--aux-from-function", "himmelblau",
        "--aux-size", "12", "--seed", "3", "--out", path,
    ])
    assert code == 0
    return path


@pytest.fixture()
def model3(tmp_path):
    """A model trained on 3-D auxiliary data."""
    csv = tmp_path / "aux3.csv"
    rng = np.random.default_rng(4)
    rows = [",".join(repr(float(v)) for v in row) for row in rng.uniform(-1, 1, (10, 4))]
    csv.write_text("x1,x2,x3,y\n" + "\n".join(rows) + "\n")
    model3 = str(tmp_path / "model3.json")
    assert main(["pretrain", "--aux", str(csv), "--out", model3]) == 0
    return model3


class TestOptimizeCommand:
    def test_smoke(self, small_model, capsys):
        code = main([
            "optimize", "--model", small_model, "--function", "himmelblau",
            "--iters", "2", "--seed", "0",
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

    def test_model_of_another_dimension_exits_2(self, model3, capsys, monkeypatch):
        picks = []
        monkeypatch.setattr(tpbo.cli, "bo_step", lambda *a, **k: picks.append(a))
        capsys.readouterr()
        code = main(["optimize", "--model", model3, "--function", "himmelblau", "--iters", "2"])
        assert code == 2
        assert picks == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the model is 3-D but himmelblau is 2-D\n"

    def test_negative_iters_exit_2(self, small_model, capsys):
        code = main([
            "optimize", "--model", small_model, "--function", "himmelblau",
            "--iters", "-1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--iters" in err

    @pytest.mark.parametrize("iters, init_size, flag", [("0", "0", "--init-size")])
    def test_bad_counts_exit_2(self, small_model, capsys, iters, init_size, flag):
        # the design size is fixed at 2, so the parser rejects any --init-size
        capsys.readouterr()
        code = main([
            "optimize", "--model", small_model, "--function", "himmelblau",
            "--iters", iters, "--init-size", init_size,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"tpbo: error: unrecognized arguments: {flag} {init_size}\n")

    def test_initial_design_only(self, small_model, capsys):
        capsys.readouterr()
        code = main([
            "optimize", "--model", small_model, "--function", "himmelblau",
            "--iters", "0", "--seed", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "t=" not in out
        # the best of the protocol's two seeded initial points
        problem = normalize_problem(FUNCTIONS["himmelblau"])
        fn_idx = FUNCTION_ORDER.index("himmelblau")
        obs = seeded_session(problem, fn_idx, 4, SeKernel(1.0), "ei", 4).gp.obs
        X0, y0 = obs.points, obs.values
        best = int(np.argmax(y0))
        assert out.startswith("function: himmelblau\ninit_size: 2\n")
        x, y = X0[best].tolist(), float(y0[best])
        assert out.endswith(f"best_x: {x[0]!r},{x[1]!r}\nbest_value: {y!r}\n")


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
    "suggestion: -0.01568294094524872,0.012564457470722271",
    "suggestion: 0.004371618634386416,-1.0",
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
        -0.01568294094524872,
        0.012564457470722271
      ]
    ],
    "values": [
      0.31,
      0.62
    ]
  },
  "pending": [
    0.004371618634386416,
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
                "--seed", "5"]
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
        payload = json.loads(Path(session).read_text())
        assert payload["pending"] is None
        assert payload["iteration"] == 1
        assert payload["observations"]["values"] == [0.4]

        # a fresh suggestion differs once data arrived
        assert main(["suggest"] + base) == 0
        third = capsys.readouterr().out
        assert third.startswith("suggestion: ")

    def test_high_degree_polynomial_model_round_trip(self, tmp_path, capsys):
        # degree 180 in 1-D tries the weight route from 19 auxiliary points,
        # and its coefficient table, which holds 180!, overflows a float
        rng = np.random.default_rng(8)
        rows = "".join(f"{a!r},{float(np.sin(3 * a))!r}\n" for a in rng.uniform(-1, 1, 40).tolist())
        csv = tmp_path / "one.csv"
        csv.write_text("x1,y\n" + rows)
        model = str(tmp_path / "m.json")
        assert main(["pretrain", "--aux", str(csv), "--kernel", "poly", "--degree", "180",
                     "--out", model]) == 0, capsys.readouterr().err
        base = ["--session", str(tmp_path / "s.json"), "--model", model]
        assert main(["suggest"] + base) == 0
        first = capsys.readouterr().out.split("suggestion: ")[1].strip()
        assert main(["tell"] + base + ["--x", first, "--y", "0.5"]) == 0
        capsys.readouterr()
        assert main(["suggest"] + base) == 0
        second = capsys.readouterr().out.split("suggestion: ")[1].strip()
        assert all(-1.0 <= float(x) <= 1.0 for x in (first, second))

    def test_suggest_polishes_eight_starts(self, small_model, tmp_path, capsys, monkeypatch):
        import tpbo.bo

        starts = []
        polish = tpbo.bo._polish

        def recording(session, X, y_plus):
            starts.append(X.shape)
            return polish(session, X, y_plus)

        monkeypatch.setattr(tpbo.bo, "_polish", recording)
        base = ["--session", str(tmp_path / "session.json"), "--model", small_model]
        assert main(["tell"] + base + ["--x=-0.5,0.25", "--y", "0.3"]) == 0
        assert main(["suggest"] + base) == 0
        assert capsys.readouterr().out.count("suggestion: ") == 1
        assert starts == [(8, 2)]

    def test_tell_outside_box_exits_2(self, small_model, tmp_path, capsys):
        session = str(tmp_path / "session.json")
        assert main(["suggest", "--session", session, "--model", small_model]) == 0
        capsys.readouterr()
        code = main(["tell", "--session", session, "--model", small_model,
                     "--x", "2.0,0.0", "--y", "1.0"])
        assert code == 2
        assert "outside" in capsys.readouterr().err

    def test_tell_bad_coordinates_exit_2(self, small_model, tmp_path):
        session = str(tmp_path / "session.json")
        assert main(["suggest", "--session", session, "--model", small_model]) == 0
        assert main(["tell", "--session", session, "--model", small_model,
                     "--x", "a,b", "--y", "1.0"]) == 2

    def test_tell_negative_first_coordinate(self, small_model, tmp_path, capsys):
        session = str(tmp_path / "session.json")
        assert main(["tell", "--session", session, "--model", small_model,
                     "--x", "-0.5,0.25", "--y", "0.3"]) == 0
        assert "observations: 1" in capsys.readouterr().out
        payload = json.loads(Path(session).read_text())
        assert payload["observations"]["points"] == [[-0.5, 0.25]]
        assert payload["observations"]["values"] == [0.3]

    def test_tell_negative_value_in_exponent_form(self, small_model, tmp_path, capsys):
        # `tell` prints `best_value: -1e-05` itself, so the form must read back
        session = str(tmp_path / "session.json")
        assert main(["tell", "--session", session, "--model", small_model,
                     "--x", "-0.5,0.25", "--y", "-1e-05"]) == 0, capsys.readouterr().err
        assert "best_value: -1e-05" in capsys.readouterr().out
        payload = json.loads(Path(session).read_text())
        assert payload["observations"]["values"] == [-1e-05]


    @pytest.mark.parametrize(
        "field, value",
        [("iteration", 0.5), ("seed", 3.9), ("seed", -1),
         ("observations", {"points": [[-0.5, 0.25, 0.5, 0.0]], "values": [0.3, 0.1]}),
         # `tell --x 3,-7` exits 2, so a stored [3, -7] must not be picked from
         ("observations", {"points": [[3.0, -7.0]], "values": [0.3]})],
        ids=["iteration-fraction", "seed-fraction", "seed-negative", "wide-row", "outside-box"],
    )
    def test_malformed_session_file_exits_2(self, small_model, tmp_path, capsys, field, value):
        session = tmp_path / "session.json"
        assert main(["tell", "--session", str(session), "--model", small_model,
                     "--x=-0.5,0.25", "--y", "0.3"]) == 0
        payload = json.loads(session.read_text())
        payload[field] = value
        session.write_text(json.dumps(payload))
        capsys.readouterr()
        for command, flags in (("suggest", []),
                               ("tell", ["--x=0.5,0.25", "--y", "0.3"])):
            code = main([command, "--session", str(session), "--model", small_model] + flags)
            assert code == 2
            assert "malformed session file" in capsys.readouterr().err

    def test_model_of_another_dimension_exits_2(self, small_model, model3, tmp_path, capsys):
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
        rejected("suggest")
        rejected("tell", "--x=0.5,0.25,0.0", "--y", "0.3")
        assert main(["tell", "--session", str(session), "--model", small_model,
                     "--x=-0.5,0.25", "--y", "0.3"]) == 0
        capsys.readouterr()
        rejected("suggest")
        rejected("tell", "--x=0.5,0.25", "--y", "0.3")

    def test_settings_fixed_at_creation(self, small_model, tmp_path, capsys):
        session = tmp_path / "session.json"
        base = ["--session", str(session), "--model", small_model]
        created = ["--acq", "ucb", "--seed", "9"]
        assert main(["suggest"] + base + created) == 0
        first = capsys.readouterr()
        assert "ignoring" not in first.err
        payload = json.loads(session.read_text())
        # delta and noise are bench's, fixed for every session
        assert payload["acquisition"] == {"kind": "ucb", "delta": 0.1}
        assert (payload["seed"], payload["noise_var"]) == (9, 1e-06)

        # the stored settings win; each differing flag draws one warning
        assert main(["suggest"] + base + ["--acq", "ei", "--seed", "7"]) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert [ln for ln in second.err.splitlines() if "ignoring" in ln] == [
            "warning: ignoring --acq ei; the session uses ucb",
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


    def test_stored_delta_and_noise_are_kept(self, small_model, tmp_path, capsys):
        # a file written when --delta and --sigma2 still existed keeps its values
        session = tmp_path / "session.json"
        payload = {
            "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
            "iteration": 1,
            "observations": {"points": [[-0.5, 0.25]], "values": [0.31]},
            "pending": None,
            "seed": 9,
            "acquisition": {"kind": "ucb", "delta": 0.2},
            "noise_var": 1e-05,
        }
        session.write_text(json.dumps(payload, indent=2) + "\n")
        loaded = load_session(str(session), build_tuned(load_aux_model(small_model)))
        assert (loaded.acquisition.delta, loaded.gp.obs.noise_var) == (0.2, 1e-05)

        base = ["--session", str(session), "--model", small_model]
        assert main(["suggest"] + base) == 0
        assert main(["tell"] + base + ["--x=0.5,0.5", "--y", "0.4"]) == 0
        assert "ignoring" not in capsys.readouterr().err
        saved = json.loads(session.read_text())
        assert saved["acquisition"] == {"kind": "ucb", "delta": 0.2}
        assert (saved["seed"], saved["noise_var"]) == (9, 1e-05)
        assert saved["observations"]["values"] == [0.31, 0.4]

    @pytest.mark.parametrize("command", ["suggest", "tell"])
    @pytest.mark.parametrize("flag, value", [("--delta", "0.2"), ("--sigma2", "1e-05")])
    def test_protocol_flags_are_gone(self, small_model, tmp_path, capsys, command, flag, value):
        # a session runs bench's protocol: noise 1e-6, delta 0.1
        session = tmp_path / "session.json"
        argv = [command, "--session", str(session), "--model", small_model, flag, value]
        if command == "tell":
            argv += ["--x=0.5,0.5", "--y", "0.4"]
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} {value}" in captured.err
        assert not session.exists()

    @pytest.mark.parametrize("command", ["suggest", "tell"])
    def test_missing_session_dir_exits_2_before_work(
        self, small_model, tmp_path, capsys, caplog, monkeypatch, command
    ):
        calls = []
        monkeypatch.setattr(tpbo.cli, "load_aux_model", lambda path: calls.append(path))
        session = tmp_path / "absent" / "s.json"
        argv = [command, "--session", str(session), "--model", small_model]
        if command == "tell":
            argv += ["--x=0.5,0.5", "--y", "0.4"]
        capsys.readouterr()
        assert main(argv) == 2
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --session {session}: directory {session.parent} does not exist\n"
        )
        assert caplog.records == []

    def test_golden_sequence(self, readme_model, tmp_path, capsys):
        """Frozen ask/tell run through `suggest`, whose picks polish the
        default `bo.POLISH_STARTS` probes; values regenerate only if the
        sampler or local optimizer implementation changes."""
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

    @pytest.mark.parametrize("command", ["bench", "optimize", "suggest"])
    def test_refine_top_flag_is_gone(self, small_model, tmp_path, capsys, command):
        # every pick polishes the same number of probes; no command takes a size
        out = tmp_path / "out"
        argv = {
            "bench": ["--functions", "himmelblau", "--methods", "ei", "--seeds", "1",
                      "--iters", "1", "--out", str(out)],
            "optimize": ["--model", small_model, "--function", "himmelblau", "--iters", "1"],
            "suggest": ["--session", str(out), "--model", small_model],
        }[command]
        capsys.readouterr()
        assert main([command] + argv + ["--refine-top", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --refine-top 2" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--aux-size", "10"), ("--init-size", "3"), ("--grid-resolution", "201"),
         ("--sigma2", "1e-4"), ("--delta", "0.2")],
    )
    def test_bench_protocol_flags_are_gone(self, tmp_path, capsys, flag, value):
        # bench runs the one fixed protocol; only the cells it covers are set
        out = tmp_path / "out.csv"
        argv = ["bench", "--functions", "himmelblau", "--methods", "ei", "--seeds", "1",
                "--iters", "1", "--out", str(out), flag, value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} {value}" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--init-size", "3"), ("--sigma2", "1e-4"), ("--delta", "0.2")]
    )
    def test_optimize_protocol_flags_are_gone(self, small_model, capsys, flag, value):
        # optimize runs bench's protocol: 2 seeded points, noise 1e-6, delta 0.1
        argv = ["optimize", "--model", small_model, "--function", "himmelblau",
                "--iters", "1", flag, value]
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} {value}" in captured.err

    @pytest.mark.parametrize("command", ["pretrain", "optimize", "suggest", "tell"])
    def test_negative_seed_exits_2_naming_the_flag(self, small_model, tmp_path, capsys, command):
        # numpy seeds its streams with non-negative integers only
        out = tmp_path / "out.json"
        argv = {
            "pretrain": ["--aux-from-function", "himmelblau", "--out", str(out)],
            "optimize": ["--model", small_model, "--function", "himmelblau", "--iters", "1"],
            "suggest": ["--session", str(out), "--model", small_model],
            "tell": ["--session", str(out), "--model", small_model, "--x=0.5,0.5", "--y", "0.4"],
        }[command]
        capsys.readouterr()
        assert main([command] + argv + ["--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"tpbo {command}: error: argument --seed: "
            "expected a non-negative integer, got '-1'\n"
        )
        assert not out.exists()

    def test_every_output_flag_is_checked_before_work(self, tmp_path, capsys, monkeypatch):
        # An output that is empty, is a directory, or names the same file as
        # another path flag is rejected before the command runs; the other
        # file keeps its bytes.  Every command's output flags join this walk.
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        extra = {"tell": ["--x=0.5,0.5", "--y", "0.4"]}
        ran = []
        for name in sub.choices:
            monkeypatch.setattr(tpbo.cli, f"cmd_{name}", lambda args: ran.append(args) or 0)
        outputs = [(name, a.dest) for name, p in sub.choices.items()
                   for a in p._actions if a.dest in tpbo.cli.OUTPUT_FLAGS]
        assert outputs == [("pretrain", "out"), ("bench", "out"), ("bench", "summary"),
                           ("suggest", "session"), ("tell", "session")]
        folder = tmp_path / "folder"
        folder.mkdir()
        for name, flag in outputs:
            flags = [a.dest for a in sub.choices[name]._actions
                     if a.dest in tpbo.cli.INPUT_FLAGS + tpbo.cli.OUTPUT_FLAGS]
            paths = {f: tmp_path / f"{f}.file" for f in flags}
            for path in paths.values():
                path.write_text(f"contents of {path.name}\n")

            def run(paths):
                argv = [name] + extra.get(name, [])
                for f, path in paths.items():
                    argv += [f"--{f}", str(path)]
                return main(argv)

            assert run(paths) == 0 and len(ran) == 1, (name, capsys.readouterr().err)
            ran.clear()
            cases = [({**paths, flag: folder}, [flag]), ({**paths, flag: ""}, [flag])]
            cases += [({**paths, flag: paths[other]}, [flag, other])
                      for other in flags if other != flag]
            for given, named in cases:
                assert run(given) == 2, (name, named)
                assert ran == []
                err = capsys.readouterr().err
                assert err.count("\n") == 1 and err.startswith("error: ")
                assert all(f"--{f}" in err for f in named), err
                for path in paths.values():
                    assert path.read_text() == f"contents of {path.name}\n"

    def test_option_inventory(self):
        # every knob of every subcommand; adding or removing one edits this test
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = {
            name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        session = {"--session", "--model", "--acq", "--seed"}
        assert options == {
            "pretrain": {"--aux", "--aux-from-function", "--task", "--kernel", "--degree",
                         "--offset", "--nu-grid", "--lambda-grid", "--aux-size", "--seed",
                         "--out"},
            "bench": {"--functions", "--methods", "--seeds", "--iters", "--out", "--summary"},
            "optimize": {"--model", "--function", "--iters", "--seed", "--acq"},
            "suggest": session,
            "tell": session | {"--x", "--y"},
        }

    def test_readme_command_lines_parse(self):
        # a renamed or deleted flag must not leave the README's examples stale
        lines = readme_command_lines()
        assert len(lines) >= 7
        parser = build_parser()
        for line in lines:
            argv = shlex.split(line)[1:]
            try:
                parser.parse_args(_attach_values(argv))
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")

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
        # scipy.stats would add about a quarter second, and scipy.optimize
        # about 0.17 s.  No command loads either; only the commands that
        # factor a matrix or pick a point load scipy.linalg and .special.
        session = str(tmp_path / "session.json")
        assert main(["suggest", "--session", session, "--model", small_model,
                     "--seed", "5"]) == 0
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
        assert "scipy.special" in loaded
        assert not loaded & {"scipy.optimize", "scipy.stats"}
        for argv in (
            ["optimize", "--model", small_model, "--function", "himmelblau", "--iters", "2"],
            ["bench", "--functions", "himmelblau", "--methods", "tp-ei,ei", "--seeds", "1",
             "--iters", "1", "--out", str(tmp_path / "results.csv")],
        ):
            loaded = scipy_subpackages(argv)
            assert "scipy.special" in loaded
            assert not loaded & {"scipy.optimize", "scipy.stats"}


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


def readme_command_lines():
    """Every ``tpbo ...`` command in README.md's ``sh`` blocks, with
    backslash continuations joined and comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        joined = re.sub(r"\\\n\s*", " ", block)
        for line in joined.splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("tpbo "):
                commands.append(line)
    return commands
