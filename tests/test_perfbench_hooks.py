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
