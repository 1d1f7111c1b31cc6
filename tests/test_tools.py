"""The paired-benchmark tool's summary and shape data, and the model gate's package check and
case capture.

These run the tools' functions in-process on made-up runs; they start no
benchmark run and train nothing.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from ruleboost.dataset import NOMINAL, NUMERIC

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tools(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import bench_pairs
    import compare_models

    return bench_pairs, compare_models


def _run(metrics, sha256=None):
    run = {"metrics": metrics, "operations": [50, 0]}
    if sha256 is not None:
        run["sha256"] = sha256
    return run


def test_summary_of_made_up_perfbench_pairs(tools):
    bench_pairs, _ = tools
    specs = bench_pairs.metric_specs("trajectory-4v")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert specs == {entry["name"]: {"unit": entry["unit"], "better": entry["better"],
                                     "bound": entry["bound"]}
                     for entry in benchmark["end_to_end"]}
    a_op = [1.0, 2.0, 3.0, 4.0, 5.0]
    b_op = [0.5, 2.0, 3.5, 3.0, 6.0]
    pairs = []
    for seed, (a, b) in enumerate(zip(a_op, b_op)):
        rest = {name: 0.25 for name in specs if name != "op_s"}
        pairs.append(bench_pairs.pair_record(seed, _run({"op_s": a, **rest}),
                                             _run({"op_s": b, **rest}), specs))
    assert [pair["first"] for pair in pairs] == ["a", "b", "a", "b", "a"]
    assert [pair["better"]["op_s"] for pair in pairs] == ["b", "tie", "a", "b", "a"]
    assert all("sha256" not in pair for pair in pairs)
    summary = bench_pairs.summarize(pairs, specs)
    op = summary["op_s"]
    assert (op["unit"], op["better"], op["bound"]) == ("s", "lower", specs["op_s"]["bound"])
    assert op["a_median"] == 3.0 and op["a_q1_q3"] == [2.0, 4.0]
    assert op["b_median"] == 3.0 and op["b_q1_q3"] == [2.0, 3.5]
    assert (op["b_better"], op["b_worse"], op["ties"]) == (2, 2, 1)
    assert summary["peak_rss_mb"]["ties"] == 5
    assert summary["peak_rss_mb"]["bound"] == specs["peak_rss_mb"]["bound"] is not None


def test_shape_metrics_have_no_bound_and_cells_compare_every_hash(tools):
    bench_pairs, _ = tools
    specs = bench_pairs.metric_specs("shapes")
    assert len(specs) == 2 * 4 * 2
    assert specs["scene/exwlog-multi/ms_per_rule"] == {"unit": "ms", "better": "lower",
                                                       "bound": None}
    assert specs["medical/lwlog-single/peak_rss_mb"]["unit"] == "MB"
    assert all(spec["bound"] is None for spec in specs.values())

    names = [f"{shape}/{variant}" for shape in bench_pairs.SHAPES
             for variant in bench_pairs.VARIANTS]
    pairs = []
    for seed in range(3):
        runs = []
        for tree in "ab":
            hashes = {name: f"hash-{name}" for name in names}
            if (seed, tree) == (2, "b"):
                hashes["medical/exwlog-multi"] = "another"
            runs.append(_run({name: 1.0 + seed for name in specs}, hashes))
        pairs.append(bench_pairs.pair_record(seed, *runs, specs))
    summary = bench_pairs.summarize(pairs, specs)
    assert summary["scene/lwlog-single/ms_per_rule"]["a_median"] == 2.0
    assert summary["scene/lwlog-single/ms_per_rule"]["ties"] == 3
    cells = bench_pairs.cells(pairs)
    assert list(cells) == names
    assert cells["medical/exwlog-multi"] == {
        "sha256": {"a": ["hash-medical/exwlog-multi"],
                   "b": ["another", "hash-medical/exwlog-multi"]},
        "same_sha256": False}
    assert all(cell["same_sha256"] for name, cell in cells.items()
               if name != "medical/exwlog-multi")


def test_shape_generator_gives_the_documented_shapes(tools):
    bench_pairs, _ = tools
    scene = bench_pairs.generate("scene")
    assert (scene.n_examples, scene.n_attributes, scene.n_labels) == (969, 294, 6)
    assert {attribute.kind for attribute in scene.schema.attributes} == {NUMERIC}
    medical = bench_pairs.generate("medical")
    assert (medical.n_examples, medical.n_attributes, medical.n_labels) == (780, 1449, 45)
    assert {attribute.kind for attribute in medical.schema.attributes} == {NOMINAL}
    assert {attribute.values for attribute in medical.schema.attributes} == {("0", "1")}
    cells = np.stack(medical.columns)
    assert set(np.unique(cells)) == {0, 1}
    assert 0.018 < cells.mean() < 0.022
    for shape, first in (("scene", scene), ("medical", medical)):
        again = bench_pairs.generate(shape)
        assert np.array_equal(first.labels, again.labels)
        assert all(np.array_equal(x, y) for x, y in zip(first.columns, again.columns))


def test_gate_rejects_a_directory_without_ruleboost(tools, tmp_path):
    _, compare_models = tools
    with pytest.raises(SystemExit, match="holds no ruleboost package") as raised:
        compare_models.check_package(str(tmp_path))
    assert str(tmp_path) in str(raised.value)
    compare_models.check_package(str(ROOT / "src"))


def test_a_gate_case_returns_its_files_and_removes_them(tools, tmp_path):
    _, compare_models = tools
    out = tmp_path / "out"
    args = ("synth", "--scenario", "marginal_independence", "--n", "20", "--out", str(out))
    status, stdout, stderr, train, absent = compare_models._case(
        str(ROOT / "src"), out, args, ("train.arff", "absent.json"), False)
    assert (status, stderr, absent) == (0, b"", None)
    assert stdout == f"wrote train.arff, test.arff and boundaries.json to {out}\n".encode()
    assert train.startswith(b"@relation synthetic_marginal_independence_train")
    assert not out.exists()
