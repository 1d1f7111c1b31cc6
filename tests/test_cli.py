"""End-to-end command line runs on temporary files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ruleboost
from ruleboost.cli import main
from ruleboost.serialization import load


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main(
        [
            "synth",
            "--scenario", "marginal_independence",
            "--n", "200",
            "--labels", "3",
            "--noise", "0.1",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def model_path(synth_dir, tmp_path_factory):
    model = tmp_path_factory.mktemp("model") / "model.json"
    code = main(
        [
            "train",
            "--data", str(synth_dir / "train.arff"),
            "--labels", "3",
            "--loss", "label-wise-logistic",
            "--head", "single",
            "--rules", "25",
            "--shrinkage", "0.3",
            "--seed", "7",
            "--model", str(model),
        ]
    )
    assert code == 0
    return model


class TestSynth:
    def test_outputs_exist(self, synth_dir):
        assert (synth_dir / "train.arff").exists()
        assert (synth_dir / "test.arff").exists()
        sidecar = json.loads((synth_dir / "boundaries.json").read_text())
        assert len(sidecar["boundary_angles"]) == 3
        assert sidecar["scenario"] == "marginal_independence"


class TestTrainPredictEvaluate:
    def test_model_file_loads(self, model_path):
        ensemble = load(model_path)
        assert len(ensemble) == 25
        assert ensemble.meta.loss == "label-wise-logistic"

    def test_predict_writes_csv(self, synth_dir, model_path, tmp_path):
        out = tmp_path / "predictions.csv"
        code = main(
            [
                "predict",
                "--data", str(synth_dir / "test.arff"),
                "--labels", "3",
                "--model", str(model_path),
                "--output", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "label1,label2,label3"
        assert len(lines) == 201
        assert set("".join(lines[1:]).replace(",", "")) <= {"0", "1"}

    def test_evaluate_reports_metrics(self, synth_dir, model_path, tmp_path, capsys):
        report = tmp_path / "metrics.json"
        code = main(
            [
                "evaluate",
                "--data", str(synth_dir / "test.arff"),
                "--labels", "3",
                "--model", str(model_path),
                "--json", str(report),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "hamming=" in captured
        assert "subset01=" in captured
        payload = json.loads(report.read_text())
        assert 0.0 <= payload["hamming"] <= 1.0
        assert payload["decode"] == "sign"

    def test_decode_override(self, synth_dir, model_path):
        code = main(
            [
                "evaluate",
                "--data", str(synth_dir / "test.arff"),
                "--labels", "3",
                "--model", str(model_path),
                "--decode", "known-vectors",
            ]
        )
        assert code == 0


# Serves with both decoders and evaluates, then prints the loaded modules
# named by the prefixes after the file arguments: a package ("scipy") or a
# dotted module ("ruleboost.training"), each with its submodules.
SERVE_LOADED_MODULES = """
import sys
import ruleboost.cli
data, model, out, *prefixes = sys.argv[1:]
for argv in (
    ["predict", "--data", data, "--labels", "3", "--model", model, "--output", out],
    ["predict", "--data", data, "--labels", "3", "--model", model, "--output", out,
     "--decode", "known-vectors"],
    ["evaluate", "--data", data, "--labels", "3", "--model", model],
):
    assert ruleboost.cli.main(argv) == 0
print(sorted(m for m in sys.modules if any(m == p or m.startswith(p + ".") for p in prefixes)))
"""

# Writes the trajectories of the four variants into the directory given
# first, then prints the loaded modules named by the prefixes after it.
TRAJECTORY_LOADED_MODULES = """
import sys
import ruleboost.cli
out, *prefixes = sys.argv[1:]
assert ruleboost.cli.main(["trajectory", "--scenario", "marginal_dependence", "--n", "120",
                           "--labels", "3", "--checkpoints", "1,2,4", "--out", out]) == 0
print(sorted(m for m in sys.modules if any(m == p or m.startswith(p + ".") for p in prefixes)))
"""

# The modules that only training, tuning, trajectories and synthesis use.
TRAINING_STACK = (
    "ruleboost.heads",
    "ruleboost.induction",
    "ruleboost.training",
    "ruleboost.trajectory",
    "ruleboost.tuning",
    "ruleboost.synthetic",
)


TRAIN_WITHOUT_SCIPY = """
import sys
import ruleboost.cli
data, model, out = sys.argv[1:]
for argv in (
    ["train", "--data", data, "--labels", "3", "--loss", "label-wise-logistic",
     "--head", "single", "--rules", "5", "--model", model],
    ["trajectory", "--scenario", "marginal_dependence", "--n", "120", "--labels", "3",
     "--checkpoints", "1,2,4", "--out", out],
):
    assert ruleboost.cli.main(argv) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _python(*args, text=False):
    """``python args`` with the tested package first on the path, its output captured."""
    src = str(Path(ruleboost.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, args)],
        env=env, capture_output=True, text=text, timeout=120,
    )


def _run_with_src(script, *args):
    return _python("-c", script, *args, text=True)


class TestServingImports:
    def test_predict_and_evaluate_do_not_import_scipy(self, synth_dir, model_path, tmp_path):
        result = _run_with_src(SERVE_LOADED_MODULES, synth_dir / "test.arff", model_path,
                               tmp_path / "predictions.csv", "scipy")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().splitlines()[-1] == "[]"

    def test_predict_and_evaluate_do_not_import_process_pools(self, synth_dir, model_path,
                                                              tmp_path):
        result = _run_with_src(SERVE_LOADED_MODULES, synth_dir / "test.arff", model_path,
                               tmp_path / "predictions.csv", "multiprocessing", "concurrent")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().splitlines()[-1] == "[]"

    def test_predict_and_evaluate_do_not_load_the_training_stack(self, synth_dir, model_path,
                                                                 tmp_path):
        result = _run_with_src(SERVE_LOADED_MODULES, synth_dir / "test.arff", model_path,
                               tmp_path / "predictions.csv", *TRAINING_STACK)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().splitlines()[-1] == "[]"

    def test_importing_the_package_loads_no_submodule(self):
        result = _run_with_src(
            "import sys, ruleboost; print(sorted(m for m in sys.modules if m.startswith('ruleboost.')))"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


def _run_cli(*args):
    """``python -m ruleboost.cli args``, its stdout read through a pipe."""
    return _python("-m", "ruleboost.cli", *args)


# Runs the process entry on the arguments after the script, with an exit
# handler that reports whether the interpreter's teardown ran.
ENTRY_WITH_EXIT_HANDLER = """
import atexit, sys
from ruleboost import cli
atexit.register(print, "teardown ran")
if sys.argv[1] == "traced":
    sys.settrace(lambda *args: None)
sys.argv[1:2] = []
cli.run()
"""


class TestProcessEntry:
    def test_piped_stdout_matches_the_output_file(self, synth_dir, model_path, tmp_path):
        data = ["--data", synth_dir / "test.arff", "--labels", "3", "--model", model_path]
        for method in ("sign", "known-vectors"):
            out = tmp_path / f"{method}.csv"
            written = _run_cli("predict", *data, "--decode", method, "--output", out)
            assert written.returncode == 0, written.stderr
            piped = _run_cli("predict", *data, "--decode", method)
            assert piped.returncode == 0, piped.stderr
            assert piped.stdout == out.read_bytes()
            assert piped.stderr == b""

    def test_missing_model_exits_1_with_one_error_line(self, synth_dir, tmp_path):
        result = _run_cli("predict", "--data", synth_dir / "test.arff", "--labels", "3",
                          "--model", tmp_path / "absent.json")
        assert result.returncode == 1
        assert result.stdout == b""
        lines = result.stderr.decode().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")

    def test_unknown_option_exits_2_with_usage(self, synth_dir, model_path):
        result = _run_cli("predict", "--data", synth_dir / "test.arff", "--labels", "3",
                          "--model", model_path, "--no-such-option")
        assert result.returncode == 2
        err = result.stderr.decode()
        assert err.startswith("usage: ruleboost ")
        assert "error: unrecognized arguments: --no-such-option" in err

    def test_profiled_run_prints_its_profile(self, synth_dir, model_path, tmp_path):
        out = tmp_path / "predictions.csv"
        result = _python("-m", "cProfile", "-s", "cumulative", "-m", "ruleboost.cli", "predict",
                         "--data", synth_dir / "test.arff", "--labels", "3",
                         "--model", model_path, "--output", out)
        assert result.returncode == 0, result.stderr
        text = result.stdout.decode()
        assert "wrote 200 predictions" in text
        assert "function calls" in text and "Ordered by: cumulative time" in text
        assert len(out.read_text().splitlines()) == 201

    @pytest.mark.parametrize("mode,teardown", [("plain", False), ("traced", True)])
    def test_teardown_is_skipped_unless_traced(self, synth_dir, model_path, tmp_path, mode,
                                               teardown):
        out = tmp_path / "predictions.csv"
        result = _python("-c", ENTRY_WITH_EXIT_HANDLER, mode, "predict",
                         "--data", synth_dir / "test.arff", "--labels", "3",
                         "--model", model_path, "--output", out)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.decode().splitlines()
        assert lines[0].startswith("wrote 200 predictions")
        assert ("teardown ran" in lines) == teardown
        assert len(out.read_text().splitlines()) == 201


class TestTrainingImports:
    def test_train_and_trajectory_do_not_import_scipy(self, synth_dir, tmp_path):
        result = _run_with_src(TRAIN_WITHOUT_SCIPY, synth_dir / "train.arff",
                               tmp_path / "model.json", tmp_path / "series")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().splitlines()[-1] == "[]"


    def test_trajectory_loads_no_file_formats_or_process_pools(self, tmp_path):
        """Its data is generated in-process, its series written as plain text, its forks bare."""
        result = _run_with_src(TRAJECTORY_LOADED_MODULES, tmp_path / "series",
                               "ruleboost.dataio", "ruleboost.serialization", "csv", "json",
                               "multiprocessing", "concurrent")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().splitlines()[-1] == "[]"
        assert len(list((tmp_path / "series").glob("trajectory_*.csv"))) == 4


class TestTune:
    def test_tune_smoke(self, synth_dir, tmp_path, capsys):
        report = tmp_path / "tuning.json"
        code = main(
            [
                "tune",
                "--data", str(synth_dir / "train.arff"),
                "--labels", "3",
                "--loss", "label-wise-logistic",
                "--head", "single",
                "--shrinkage-grid", "0.3",
                "--l2-grid", "0.0,1.0",
                "--rules-grid", "2,4",
                "--metric", "hamming",
                "--json", str(report),
            ]
        )
        assert code == 0
        assert "best:" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        assert len(payload["cells"]) == 4
        assert "best" in payload


class TestTrajectoryCommand:
    def test_trajectory_writes_series(self, tmp_path):
        out = tmp_path / "series"
        code = main(
            [
                "trajectory",
                "--scenario", "marginal_dependence",
                "--n", "150",
                "--labels", "3",
                "--seed", "2",
                "--variants", "lwlog-single,exwlog-multi",
                "--checkpoints", "1,2,4",
                "--out", str(out),
            ]
        )
        assert code == 0
        for name in ("lwlog-single", "exwlog-multi"):
            lines = (out / f"trajectory_{name}.csv").read_text().strip().splitlines()
            assert lines[0] == "rules,hamming,subset01"
            assert len(lines) == 4

    def test_unknown_variant_fails_cleanly(self, tmp_path, capsys):
        code = main(
            [
                "trajectory",
                "--scenario", "marginal_dependence",
                "--n", "50",
                "--variants", "nonsense",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestErrorPaths:
    def test_missing_file_exit_code(self, capsys):
        code = main(
            ["train", "--data", "/nonexistent.arff", "--labels", "2",
             "--model", "/tmp/m.json"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_model_version(self, synth_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 42}')
        code = main(
            [
                "evaluate",
                "--data", str(synth_dir / "test.arff"),
                "--labels", "3",
                "--model", str(bad),
            ]
        )
        assert code == 1
        assert "version" in capsys.readouterr().err

    def test_model_with_a_missing_rule_field(self, synth_dir, model_path, tmp_path, capsys):
        document = json.loads(model_path.read_text())
        del document["rules"][3]["scores"]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(document))
        code = main(["predict", "--data", str(synth_dir / "test.arff"), "--labels", "3",
                     "--model", str(broken), "--output", str(tmp_path / "p.csv")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert "rules[3].scores" in lines[0]

    @pytest.mark.parametrize("mutate,field", [
        (lambda d: d.update(seed=True), "seed"),
        (lambda d: d["rules"][1]["conditions"][0].update(attribute=True),
         "rules[1].conditions[0].attribute"),
        (lambda d: d.update(format_version=True), "format_version"),
        (lambda d: d.update(loss="hinge"), "loss"),
        (lambda d: d.update(shrinkage=-0.3), "shrinkage"),
        (lambda d: d.update(l2_weight=-1.0), "l2_weight"),
    ])
    def test_model_with_a_bad_field_value(self, synth_dir, model_path, tmp_path, capsys,
                                          mutate, field):
        document = json.loads(model_path.read_text())
        assert document["rules"][1]["conditions"]
        mutate(document)
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(document))
        code = main(["predict", "--data", str(synth_dir / "test.arff"), "--labels", "3",
                     "--model", str(broken), "--output", str(tmp_path / "p.csv")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert field in lines[0]
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("argv,field", [
        (["train", "--loss", "label-wise-logistic", "--l2", "inf"], "l2_weight"),
        (["train", "--loss", "example-wise-logistic", "--l2", "nan"], "l2_weight"),
        (["synth", "--scenario", "marginal_dependence", "--spread", "nan"],
         "boundary_angle_spread"),
    ])
    def test_non_finite_option(self, synth_dir, tmp_path, capsys, argv, field):
        if argv[0] == "train":
            argv = [*argv, "--data", str(synth_dir / "train.arff"), "--labels", "3",
                    "--rules", "3", "--model", str(tmp_path / "m.json")]
        else:
            argv = [*argv, "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {field} must be a finite number")
        assert not (tmp_path / "m.json").exists() and not (tmp_path / "out").exists()

    def test_data_with_swapped_attributes(self, synth_dir, model_path, tmp_path, capsys):
        text = (synth_dir / "test.arff").read_text()
        assert "@attribute x1 numeric\n@attribute x2 numeric\n" in text
        swapped = tmp_path / "swapped.arff"
        swapped.write_text(text.replace("@attribute x1 numeric\n@attribute x2 numeric\n",
                                        "@attribute x2 numeric\n@attribute x1 numeric\n"))
        data = ["--data", str(swapped), "--labels", "3", "--model", str(model_path)]
        for argv in (["evaluate", *data], ["predict", *data, "--output", str(tmp_path / "p.csv")]):
            assert main(argv) == 1
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith("error:")
            assert "attribute 1 is 'x1' (numeric) in the model but 'x2' (numeric)" in lines[0]
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("header,message", [
        ("@attribute zzz {0,1}\n@attribute label2 {0,1}\n",
         "label 1 is 'label1' in the model but 'zzz' in the data"),
        ("@attribute label2 {0,1}\n@attribute label1 {0,1}\n",
         "label 1 is 'label1' in the model but 'label2' in the data"),
    ])
    def test_evaluate_with_renamed_or_reordered_labels(self, synth_dir, model_path, tmp_path,
                                                      capsys, header, message):
        text = (synth_dir / "test.arff").read_text()
        original = "@attribute label1 {0,1}\n@attribute label2 {0,1}\n"
        assert original in text
        relabelled = tmp_path / "relabelled.arff"
        relabelled.write_text(text.replace(original, header))
        assert main(["evaluate", "--data", str(relabelled), "--labels", "3",
                     "--model", str(model_path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert message in lines[0]
