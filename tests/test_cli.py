"""End-to-end command line runs on temporary files."""

import csv
import json
import os
import subprocess
import sys
import threading
from dataclasses import fields, replace
from inspect import signature
from pathlib import Path

import pytest

import ruleboost
from ruleboost import cli
from ruleboost.choices import ALL_VARIANTS
from ruleboost.cli import main
from ruleboost.serialization import load, save
from ruleboost.synthetic import SyntheticConfig
from ruleboost.training import TrainConfig
from ruleboost.trajectory import run_trajectory
from ruleboost.tuning import GridSearchConfig

from test_trajectory import needs_fork, no_child_left, use_cpus


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

    def test_labels_given_by_name(self, synth_dir, model_path, tmp_path):
        names = "label1, label2,label3"
        model = tmp_path / "model.json"
        assert main(["train", "--data", str(synth_dir / "train.arff"), "--labels", names,
                     "--loss", "label-wise-logistic", "--head", "single", "--rules", "25",
                     "--shrinkage", "0.3", "--seed", "7", "--model", str(model)]) == 0
        assert model.read_bytes() == model_path.read_bytes()
        written = []
        for labels in ("3", names):
            out = tmp_path / f"predictions{len(written)}.csv"
            assert main(["predict", "--data", str(synth_dir / "test.arff"), "--labels", labels,
                         "--model", str(model), "--output", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

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

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_served_data_may_lack_a_nominal_value(self, tmp_path, capsys, command):
        colors = ["red", "blue", "green"]
        rows = [(i / 60, colors[i % 3]) for i in range(60)]

        def lines(selected):
            return "".join(f"{x},{c},{int(c == 'red')},{int(c == 'green' or x > 0.5)}\n"
                           for x, c in selected)

        train_csv, model = tmp_path / "train.csv", tmp_path / "model.json"
        train_csv.write_text("x,color,l0,l1\n" + lines(rows))
        assert main(["train", "--data", str(train_csv), "--labels", "2", "--rules", "10",
                     "--model", str(model)]) == 0
        named = {condition.threshold for rule in load(model).rules
                 for condition in rule.body.conditions if condition.attribute_index == 1}
        assert named - {"blue"}  # the model names a value the served rows lack
        blue = lines((x, c) for x, c in rows if c == "blue")
        arff = "@relation r\n@attribute x numeric\n@attribute color {{{}}}\n" \
               "@attribute l0 {{0,1}}\n@attribute l1 {{0,1}}\n@data\n"
        served = {"blue.csv": "x,color,l0,l1\n" + blue,
                  "narrow.arff": arff.format("blue") + blue,
                  "declared.arff": arff.format("red,blue,green") + blue}
        outputs = []
        for name, text in served.items():
            (tmp_path / name).write_text(text)
            out = tmp_path / f"{name}.out"
            assert main([command, "--data", str(tmp_path / name), "--labels", "2",
                         "--model", str(model), "--output" if command == "predict" else "--json",
                         str(out)]) == 0, capsys.readouterr().err
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("name,text", [
        ("quoted.arff", "@relation r\n@attribute x numeric\n@attribute 'a,b' {0,1}\n"
                        "@attribute 'q\"t' {0,1}\n@attribute 'sp ace' {0,1}\n"
                        "@attribute plain {0,1}\n@data\n"
                        "1,0,1,0,1\n2,1,0,1,0\n3,0,1,1,1\n4,1,1,0,0\n"),
        ("quoted.csv", 'x,"a,b","q""t","line\r\nend",plain\r\n'
                       "1,0,1,0,1\r\n2,1,0,1,0\r\n3,0,1,1,1\r\n4,1,1,0,0\r\n"),
    ], ids=["arff", "csv"])
    def test_predict_header_reads_back_as_the_label_names(self, tmp_path, name, text):
        data, model, out = tmp_path / name, tmp_path / "model.json", tmp_path / "p.csv"
        data.write_bytes(text.encode())
        assert main(["train", "--data", str(data), "--labels", "4", "--rules", "3",
                     "--model", str(model)]) == 0
        assert main(["predict", "--data", str(data), "--labels", "4", "--model", str(model),
                     "--output", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as handle:
            header, *rows = csv.reader(handle)
        assert header == load(model).label_names
        assert "a,b" in header and 'q"t' in header
        assert [len(row) for row in rows] == [4] * 4


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
        with pytest.raises(SystemExit) as exit_:
            main(
                [
                    "trajectory",
                    "--scenario", "marginal_dependence",
                    "--n", "50",
                    "--variants", "nonsense",
                    "--out", str(tmp_path / "x"),
                ]
            )
        assert exit_.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestListOptions:
    """A bad entry in a list option is a usage error that names the option, before any input."""

    @pytest.mark.parametrize("command,option,value,message", [
        ("tune", "--rules-grid", "5,x", "invalid int list value: '5,x'"),
        ("tune", "--shrinkage-grid", "0.3,abc", "invalid float list value: '0.3,abc'"),
        ("tune", "--l2-grid", "1,x", "invalid float list value: '1,x'"),
        ("trajectory", "--checkpoints", "1,x", "invalid int list value: '1,x'"),
        ("trajectory", "--variants", "lwlog-single,bogus",
         "unknown variant 'bogus'; choose from "
         "['lwlog-single', 'lwlog-multi', 'exwlog-single', 'exwlog-multi']"),
        *[(command, option, value, "expected at least one value")
          for command, option in [("tune", "--rules-grid"), ("tune", "--shrinkage-grid"),
                                  ("tune", "--l2-grid"), ("trajectory", "--checkpoints"),
                                  ("trajectory", "--variants")]
          for value in ["", ",", " , "]],
    ])
    def test_a_bad_entry_exits_2_naming_the_option(self, tmp_path, capsys, monkeypatch,
                                                    command, option, value, message):
        inputs = (["--data", str(tmp_path / "absent.arff"), "--labels", "1"] if command == "tune"
                  else ["--scenario", "marginal_independence", "--out", str(tmp_path / "out")])
        for name in ("generate", "load_arff"):
            monkeypatch.setattr(cli, name, lambda *args: pytest.fail("input was made or read"),
                                raising=False)
        with pytest.raises(SystemExit) as exit_:
            main([command, *inputs, f"{option}={value}"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: ruleboost {command} ")
        assert err.endswith(f"error: argument {option}: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_entries_are_stripped_and_kept_in_order(self):
        parser = cli._build_parser()
        trajectory = ["trajectory", "--scenario", "marginal_independence", "--out", "o"]
        assert parser.parse_args(trajectory).variants == ALL_VARIANTS
        assert parser.parse_args([*trajectory, "--variants", " exwlog-multi ,lwlog-single"]
                                 ).variants == (ALL_VARIANTS[3], ALL_VARIANTS[0])
        assert parser.parse_args(["tune", "--data", "d", "--labels", "1",
                                  "--rules-grid", " 2, ,4,"]).rule_counts == (2, 4)


SCENARIO = "marginal_independence"
# Each config-building command's required options, none of which is a setting.
REQUIRED = {
    "train": ("--data", "d.arff", "--labels", "1", "--model", "m.json"),
    "tune": ("--data", "d.arff", "--labels", "1"),
    "synth": ("--scenario", SCENARIO, "--out", "o"),
    "trajectory": ("--scenario", SCENARIO, "--out", "o"),
}
# ``run_trajectory``'s settings and their declared defaults.
TRAJECTORY_DEFAULTS = {name: parameter.default
                       for name, parameter in signature(run_trajectory).parameters.items()
                       if parameter.default is not parameter.empty}
DEFAULTS = {
    "train": TrainConfig(),
    "tune": GridSearchConfig(),
    "synth": SyntheticConfig(SCENARIO),
    "trajectory": (SyntheticConfig(SCENARIO), TRAJECTORY_DEFAULTS),
}


class _Stop(Exception):
    """Raised by the stand-in of the call that would train or generate data."""


def _built(monkeypatch, command, *options):
    """What ``command`` builds from its required options and ``options``: its config and, for
    ``trajectory``, also the settings ``run_trajectory`` runs with, defaults included."""
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        if command == "trajectory" and len(calls) == 1:
            return None, None  # generate's train and test data
        raise _Stop

    monkeypatch.setattr(cli, "_load_dataset", lambda *args: None)
    for name in ("train", "grid_search", "generate", "run_trajectory"):
        monkeypatch.setattr(cli, name, record, raising=False)
    with pytest.raises(_Stop):
        main([command, *REQUIRED[command], *options])
    (args, _), *rest = calls
    config = args[-1]  # train(dataset, config), grid_search(dataset, config), generate(config)
    if command != "trajectory":
        return config
    ((args, kwargs),) = rest
    bound = signature(run_trajectory).bind(*args, **kwargs)
    bound.apply_defaults()
    return config, {name: bound.arguments[name] for name in TRAJECTORY_DEFAULTS}


# Every setting option of every command, a value other than its default, and the field it sets.
SETTING_OPTIONS = [
    *[("train", *row) for row in [
        (("--loss", "example-wise-logistic"), "loss", "example-wise-logistic"),
        (("--head", "single"), "head_mode", "single"),
        (("--rules", "7"), "n_rules", 7),
        (("--shrinkage", "0.5"), "shrinkage", 0.5),
        (("--l2", "1.5"), "l2_weight", 1.5),
        (("--seed", "3"), "seed", 3),
        (("--no-bagging",), "bagging", False),
        (("--no-feature-sampling",), "feature_sampling", False),
    ]],
    *[("tune", *row) for row in [
        (("--loss", "example-wise-logistic"), "loss", "example-wise-logistic"),
        (("--head", "single"), "head_mode", "single"),
        (("--shrinkage-grid", "0.2,0.4"), "shrinkages", (0.2, 0.4)),
        (("--l2-grid", "0,2"), "l2_weights", (0.0, 2.0)),
        (("--rules-grid", "5,10"), "rule_counts", (5, 10)),
        (("--val-fraction", "0.25"), "validation_fraction", 0.25),
        (("--metric", "hamming"), "metric", "hamming"),
        (("--seed", "3"), "seed", 3),
    ]],
    *[(command, *row) for command in ("synth", "trajectory") for row in [
        (("--n", "300"), "n_examples", 300),
        (("--labels", "3"), "n_labels", 3),
        (("--noise", "0.2"), "noise_rate", 0.2),
        (("--spread", "0.5"), "boundary_angle_spread", 0.5),
        (("--seed", "3"), "seed", 3),
    ]],
    ("trajectory", ("--checkpoints", "1,5"), "checkpoints", (1, 5)),
    ("trajectory", ("--shrinkage", "0.5"), "shrinkage", 0.5),
    ("trajectory", ("--l2", "2"), "l2_weight", 2.0),
]


class TestSettingOptions:
    """Each setting option is named as the field it sets; left out, the field's default applies."""

    @pytest.mark.parametrize("command", REQUIRED)
    def test_no_setting_option_builds_the_declared_defaults(self, monkeypatch, command):
        assert _built(monkeypatch, command) == DEFAULTS[command]

    @pytest.mark.parametrize("command,options,field,value", SETTING_OPTIONS,
                             ids=[f"{row[0]} {row[1][0]}" for row in SETTING_OPTIONS])
    def test_each_setting_option_sets_its_field(self, monkeypatch, command, options, field,
                                                value):
        default = DEFAULTS[command]
        if command == "trajectory":
            # A scenario setting goes to the SyntheticConfig, a training setting to
            # run_trajectory, and the seed to both.
            config, settings = default
            if field in {f.name for f in fields(config)}:
                config = replace(config, **{field: value})
            if field in settings:
                settings = {**settings, field: value}
            expected = config, settings
        else:
            assert getattr(default, field) != value
            expected = replace(default, **{field: value})
        assert expected != default
        assert _built(monkeypatch, command, *options) == expected


# Stands for a JSON integer literal of 5,000 digits in a model document.
HUGE_INT = "<5000 nines>"


class TestErrorPaths:
    def test_a_csv_field_over_the_size_limit_exits_1_with_one_error_line(self, tmp_path):
        big = tmp_path / "big.csv"
        big.write_text("x,l\n1,0\n" + "7" * 200_000 + ",1\n")
        result = _run_cli("train", "--data", big, "--labels", "1", "--rules", "2",
                          "--model", tmp_path / "m.json")
        assert result.returncode == 1
        assert result.stdout == b""
        assert result.stderr.decode().splitlines() == [
            f"error: line 3: field larger than field limit ({csv.field_size_limit()})"]
        assert not (tmp_path / "m.json").exists()

    def test_a_deeply_nested_model_exits_1_with_one_error_line(self, synth_dir, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        result = _run_cli("predict", "--data", synth_dir / "test.arff", "--labels", "3",
                          "--model", deep)
        assert result.returncode == 1
        assert result.stdout == b""
        assert result.stderr.decode().splitlines() == [
            "error: invalid model document: nested too deeply"]

    def test_a_bad_cell_is_reported_before_a_bad_setting(self, tmp_path, capsys):
        """The data file is read before the settings are checked."""
        data = tmp_path / "bad.arff"
        data.write_text("@relation r\n@attribute x numeric\n@attribute l {0,1}\n@data\n"
                        "1,0\nabc,1\n")
        assert main(["train", "--data", str(data), "--labels", "1", "--rules", "0",
                     "--model", str(tmp_path / "m.json")]) == 1
        assert capsys.readouterr().err == (
            "error: line 6: expected a number for attribute 'x', got 'abc'\n")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("suffix,text,error", [
        (".arff", "@relation r\n@attribute y numeric\n@attribute l {0,1}\n@data\n",
         "line 5: expected a number for attribute 'y', got 'nan'"),
        (".csv", "y,l\n", "line 2: column 'y' is numeric but got 'nan'"),
    ], ids=["arff", "csv"])
    def test_a_non_finite_cell_exits_1_with_one_error_line(self, tmp_path, suffix, text, error):
        data = tmp_path / f"inf{suffix}"
        data.write_text(text + "nan,0\ninf,1\n4,0\n-inf,1\n")
        result = _run_cli("train", "--data", data, "--labels", "1", "--rules", "20",
                          "--no-bagging", "--no-feature-sampling", "--model", tmp_path / "m.json")
        assert result.returncode == 1
        assert result.stdout == b""
        assert result.stderr.decode().splitlines() == [f"error: {error}"]
        assert not (tmp_path / "m.json").exists()

    def test_cells_near_the_largest_float_train_without_a_warning(self, tmp_path):
        data = tmp_path / "huge.arff"
        data.write_text("@relation r\n@attribute y numeric\n@attribute l {0,1}\n@data\n"
                        "1e308,0\n1.5e308,1\n1e308,0\n1.5e308,1\n")
        model = tmp_path / "m.json"
        result = _python("-W", "error", "-m", "ruleboost.cli", "train", "--data", data,
                         "--labels", "1", "--rules", "5", "--no-bagging",
                         "--no-feature-sampling", "--model", model)
        assert (result.returncode, result.stderr) == (0, b"")
        # The midpoint overflows, so the threshold falls back to the lower value.
        thresholds = {condition.threshold for rule in load(model).rules
                      for condition in rule.body.conditions}
        assert thresholds == {1e308}

    def test_a_model_with_empty_label_vectors_names_the_field(self, synth_dir, model_path,
                                                              tmp_path, capsys):
        document = json.loads(model_path.read_text())
        document["label_vectors"] = []
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(document))
        code = main(["predict", "--decode", "known-vectors", "--data",
                     str(synth_dir / "test.arff"), "--labels", "3", "--model", str(broken),
                     "--output", str(tmp_path / "p.csv")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: label_vectors must be a non-empty array or null, not an empty array"]
        assert not (tmp_path / "p.csv").exists()

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
        (lambda d: d.update(seed=-1), "seed"),
        (lambda d: d.update(seed=HUGE_INT), "an integer literal is too long"),
    ])
    def test_model_with_a_bad_field_value(self, synth_dir, model_path, tmp_path, capsys,
                                          mutate, field):
        document = json.loads(model_path.read_text())
        assert document["rules"][1]["conditions"]
        mutate(document)
        broken = tmp_path / "broken.json"
        # An int over Python's int-conversion digit limit cannot be dumped, so it is spliced in.
        broken.write_text(json.dumps(document).replace(json.dumps(HUGE_INT), "9" * 5000))
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

    @pytest.mark.parametrize("command", ["synth", "trajectory", "tune"])
    def test_negative_seed_names_the_seed(self, synth_dir, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = {
            "synth": ["synth", "--scenario", "marginal_dependence", "--n", "50", "--out", str(out)],
            "trajectory": ["trajectory", "--scenario", "marginal_dependence", "--n", "50",
                           "--checkpoints", "1,2", "--out", str(out)],
            "tune": ["tune", "--data", str(synth_dir / "train.arff"), "--labels", "3",
                     "--rules-grid", "2", "--json", str(out)],
        }[command]
        assert main([*argv, "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be nonnegative\n"
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["model", "data"])
    def test_non_utf8_file_is_named(self, synth_dir, model_path, tmp_path, capsys, bad):
        paths = {"model": model_path, "data": synth_dir / "test.arff"}
        paths[bad] = tmp_path / f"bad_{bad}"
        paths[bad].write_bytes(b"\xff\xfe not text")
        code = main(["predict", "--data", str(paths["data"]), "--labels", "3",
                     "--model", str(paths["model"]), "--output", str(tmp_path / "p.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {paths[bad]}: not UTF-8 text (invalid start byte)\n")
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("grid,message", [
        (["--shrinkage-grid", "0.3,2"], "shrinkage must be in (0, 1]"),
        (["--l2-grid", "1,-1"], "l2_weight must be nonnegative"),
    ])
    def test_tune_rejects_a_bad_cell_before_training(self, synth_dir, tmp_path, capsys,
                                                     monkeypatch, grid, message):
        from ruleboost import tuning

        def no_training(data, config):
            raise AssertionError("a grid cell was trained")

        monkeypatch.setattr(tuning, "train", no_training)
        report = tmp_path / "report.json"
        assert main(["tune", "--data", str(synth_dir / "train.arff"), "--labels", "3",
                     "--rules-grid", "2", *grid, "--json", str(report)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not report.exists()

    def test_tune_with_every_cell_failing_names_the_first(self, synth_dir, tmp_path, capsys,
                                                          monkeypatch):
        from ruleboost import tuning
        from ruleboost.errors import SolverError

        def fail(data, config):
            raise SolverError(f"shrinkage {config.shrinkage} is singular")

        monkeypatch.setattr(tuning, "train", fail)
        report = tmp_path / "report.json"
        assert main(["tune", "--data", str(synth_dir / "train.arff"), "--labels", "3",
                     "--shrinkage-grid", "0.5,0.3", "--l2-grid", "1,0", "--rules-grid", "2",
                     "--json", str(report)]) == 1
        assert capsys.readouterr().err == (
            "error: every grid point failed; the first (shrinkage 0.5, l2 1.0) "
            "with: shrinkage 0.5 is singular\n")
        assert not report.exists()

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


def _faulty_copy(source: Path, target: Path, faults: dict) -> Path:
    """``source`` with data row i replaced by ``faults[i](cells)``, joined back with commas."""
    head, data = source.read_text().split("@data\n")
    rows = data.splitlines()
    for i, fault in faults.items():
        rows[i] = ",".join(fault(rows[i].split(",")))
    target.write_text(head + "@data\n" + "\n".join(rows) + "\n")
    return target


def _cell(j, value):
    def fault(cells):
        cells[j] = value
        return cells
    return fault


def _short_row(cells):
    return cells[:-1]


def _counting_forks(monkeypatch) -> list:
    """Patch ``os.fork`` to record the pid of each child it makes."""
    children = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return children


@needs_fork
@pytest.mark.parametrize("command", ["predict", "evaluate"])
class TestParallelPredict:
    """``predict`` and ``evaluate`` parse, score and decode shares of the data block in forked
    workers."""

    @pytest.fixture(autouse=True)
    def small_shares(self, monkeypatch):
        # The 200-row test file splits into two shares of about 100 lines.
        monkeypatch.setattr(cli, "_MIN_SHARE_LINES", 50)

    def _serve(self, command, data, model, out=None, *extra):
        """Run ``command``, writing its CSV (``predict``) or JSON report (``evaluate``) to ``out``."""
        written = [] if out is None else ["--output" if command == "predict" else "--json", out]
        argv = [command, "--data", data, "--labels", "3", "--model", model, *written, *extra]
        return main(list(map(str, argv)))

    @pytest.mark.parametrize("decode", ["sign", "known-vectors"])
    def test_two_cpus_write_the_one_cpu_bytes(self, synth_dir, model_path, tmp_path,
                                              monkeypatch, capsys, command, decode):
        outputs = {}
        for cpus in ({0}, {0, 1}):
            use_cpus(monkeypatch, cpus)
            children = _counting_forks(monkeypatch)
            out = tmp_path / "written"
            assert self._serve(command, synth_dir / "test.arff", model_path, out,
                               "--decode", decode) == 0
            assert self._serve(command, synth_dir / "test.arff", model_path, None,
                               "--decode", decode) == 0
            captured = capsys.readouterr()
            outputs[len(cpus)] = (out.read_bytes(), captured.out, captured.err)
            assert len(children) == len(cpus) - 1 + len(cpus) - 1
        assert outputs[1] == outputs[2]
        written, printed, _ = outputs[2]
        if command == "predict":
            assert printed == (f"wrote 200 predictions ({decode} decoding) to {out}\n"
                               + written.decode())
        else:
            report = json.loads(written)
            assert (report["decode"], report["n_examples"]) == (decode, 200)
            assert printed == "".join(f"{key}={value}\n" for key, value in report.items()) * 2
        assert no_child_left()

    @pytest.mark.parametrize("faults,message", [
        ({150: _cell(0, "abc")},
         "line 160: expected a number for attribute 'x1', got 'abc'"),
        ({160: _cell(3, "2")},
         "line 170: value '2' is not in the domain of attribute 'label2'"),
        ({170: _short_row}, "line 180: row has 4 values, expected 5"),
        ({180: _cell(2, "?")}, "line 190: missing label value for 'label1'"),
        ({20: _cell(1, "x"), 150: _cell(0, "abc")},
         "line 30: expected a number for attribute 'x2', got 'x'"),
        ({30: _short_row, 110: _cell(4, "?")}, "line 40: row has 4 values, expected 5"),
    ], ids=["number", "label", "short-row", "missing-label", "both-shares", "both-shares-rows"])
    def test_a_bad_share_reports_the_one_cpu_error(self, synth_dir, model_path, tmp_path,
                                                   monkeypatch, capsys, command, faults, message):
        data = _faulty_copy(synth_dir / "test.arff", tmp_path / "faulty.arff", faults)
        reported = {}
        for cpus in ({0}, {0, 1}):
            use_cpus(monkeypatch, cpus)
            children = _counting_forks(monkeypatch)
            out = tmp_path / "written"
            code = self._serve(command, data, model_path, out)
            reported[len(cpus)] = (code, capsys.readouterr().err)
            assert len(children) == len(cpus) - 1
            assert not out.exists()
        assert reported[1] == reported[2] == (1, f"error: {message}\n")
        assert no_child_left()

    @pytest.mark.parametrize("renamed,stripped", [(True, False), (False, True), (True, True)],
                             ids=["renamed-labels", "no-vectors", "both"])
    def test_a_model_mismatch_reports_the_one_cpu_error(self, synth_dir, model_path, tmp_path,
                                                        monkeypatch, capsys, command, renamed,
                                                        stripped):
        data, model = synth_dir / "test.arff", model_path
        if renamed:
            text = data.read_text()
            data = tmp_path / "renamed.arff"
            data.write_text(text.replace("@attribute label1 ", "@attribute zzz "))
        if stripped:
            ensemble = load(model_path)
            ensemble.label_vectors = None
            model = tmp_path / "stripped.json"
            save(ensemble, model)
        reported = {}
        for cpus in ({0}, {0, 1}):
            use_cpus(monkeypatch, cpus)
            children = _counting_forks(monkeypatch)
            out = tmp_path / "written"
            code = self._serve(command, data, model, out, "--decode", "known-vectors")
            reported[len(cpus)] = (code, capsys.readouterr().err,
                                   out.read_bytes() if out.exists() else None)
            out.unlink(missing_ok=True)
            assert len(children) == len(cpus) - 1
        # Label names are checked before the decode method, which predict does not check.
        if renamed and command == "evaluate":
            expected = (1, "error: the data does not match the model's labels: "
                           "label 1 is 'label1' in the model but 'zzz' in the data\n", None)
        elif stripped:
            expected = (1, "error: model carries no training label vectors; "
                           "use --decode sign\n", None)
        else:
            expected = reported[1]
            assert expected[0] == 0
        assert reported[1] == reported[2] == expected
        assert no_child_left()

    def test_a_worker_that_dies_is_an_error(self, synth_dir, model_path, tmp_path,
                                            monkeypatch, capsys, command):
        use_cpus(monkeypatch, {0, 1})
        caller = os.getpid()
        served = cli._served_share

        def die_in_child(*args):
            if os.getpid() != caller:
                os._exit(3)
            return served(*args)

        monkeypatch.setattr(cli, "_served_share", die_in_child)
        out = tmp_path / "written"
        assert self._serve(command, synth_dir / "test.arff", model_path, out) == 1
        assert capsys.readouterr().err == (
            "error: a worker exited before returning its results (exit code 3)\n")
        assert not out.exists()
        assert no_child_left()

    def test_no_fork_with_another_thread_alive(self, synth_dir, model_path, tmp_path,
                                               monkeypatch, command):
        use_cpus(monkeypatch, {0, 1})
        children = _counting_forks(monkeypatch)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            assert self._serve(command, synth_dir / "test.arff", model_path,
                               tmp_path / "threaded") == 0
        finally:
            release.set()
            thread.join(60)
        assert not thread.is_alive()
        assert children == []
        use_cpus(monkeypatch, {0})
        assert self._serve(command, synth_dir / "test.arff", model_path,
                           tmp_path / "serial") == 0
        assert (tmp_path / "threaded").read_bytes() == (tmp_path / "serial").read_bytes()

    def test_no_fork_for_a_small_file_or_a_csv_file(self, synth_dir, model_path, tmp_path,
                                                    monkeypatch, command):
        use_cpus(monkeypatch, {0, 1})
        children = _counting_forks(monkeypatch)
        head, data = (synth_dir / "test.arff").read_text().split("@data\n")
        names = [line.split()[1] for line in head.splitlines() if line.startswith("@attribute")]
        csv_data = tmp_path / "test.csv"
        csv_data.write_text(",".join(names) + "\n" + data)
        assert self._serve(command, csv_data, model_path, tmp_path / "from_csv") == 0
        monkeypatch.setattr(cli, "_MIN_SHARE_LINES", 101)
        assert self._serve(command, synth_dir / "test.arff", model_path, tmp_path / "small") == 0
        assert children == []
        assert (tmp_path / "from_csv").read_bytes() == (tmp_path / "small").read_bytes()
