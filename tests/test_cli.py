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
# of the packages named after the file arguments.
SERVE_LOADED_MODULES = """
import sys
import ruleboost.cli
data, model, out, *packages = sys.argv[1:]
for argv in (
    ["predict", "--data", data, "--labels", "3", "--model", model, "--output", out],
    ["predict", "--data", data, "--labels", "3", "--model", model, "--output", out,
     "--decode", "known-vectors"],
    ["evaluate", "--data", data, "--labels", "3", "--model", model],
):
    assert ruleboost.cli.main(argv) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] in packages))
"""


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


def _run_with_src(script, *args):
    src = str(Path(ruleboost.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )


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


class TestTrainingImports:
    def test_train_and_trajectory_do_not_import_scipy(self, synth_dir, tmp_path):
        result = _run_with_src(TRAIN_WITHOUT_SCIPY, synth_dir / "train.arff",
                               tmp_path / "model.json", tmp_path / "series")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().splitlines()[-1] == "[]"


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
