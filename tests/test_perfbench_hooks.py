"""The names the benchmark's traced run wraps must exist in the package.

``perfbench/spans.py`` replaces module-level names such as
``ruleboost.training.solve_full_head`` with timing wrappers, looking each
one up with ``getattr``; removing or renaming one breaks the traced run.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_run_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    from ruleboost import induction, training

    originals = (training.solve_full_head, induction.find_head)
    with spans.instrumented(spans.Tracer(False)):
        assert training.solve_full_head is not originals[0]
        assert induction.find_head is not originals[1]
    assert (training.solve_full_head, induction.find_head) == originals


def test_traced_cli_commands_record_their_layers(monkeypatch, tmp_path, capsys):
    """The commands read the wrapped names from ``ruleboost.cli`` when they run.

    A command that imported ``train`` or ``ensemble_scores`` for itself
    would call the original and leave its layer unrecorded.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    from ruleboost import cli
    from ruleboost.dataio import save_arff
    from ruleboost.synthetic import SyntheticConfig, generate

    train_data, test_data = generate(SyntheticConfig("marginal_dependence", 120, 3, seed=4))
    save_arff(train_data, tmp_path / "train.arff")
    save_arff(test_data, tmp_path / "test.arff")
    model = tmp_path / "model.json"
    tracer = spans.Tracer(True)
    with spans.instrumented(tracer), tracer.span("op"):
        assert cli.main(["train", "--data", str(tmp_path / "train.arff"), "--labels", "3",
                         "--loss", "example-wise-logistic", "--rules", "4",
                         "--model", str(model)]) == 0
        for method in ("sign", "known-vectors"):
            assert cli.main(["predict", "--data", str(tmp_path / "test.arff"), "--labels", "3",
                             "--model", str(model), "--decode", method,
                             "--output", str(tmp_path / f"{method}.csv")]) == 0
    recorded = {span.name for span in tracer.spans}
    assert {"training.train", "dataio.load_arff", "rules.ensemble_scores",
            "prediction.decode_sign", "prediction.decode_known"} <= recorded
    assert cli.train.__module__ == "ruleboost.training"
