"""Train the same 144 models under two source trees and compare them.

Usage::

    python tools/compare_models.py PARENT_SRC CHANGE_SRC

Each ``*_SRC`` is a directory that contains the ``ruleboost`` package
(for example a checkout's ``src``).  Both trees train, each in its own
subprocess, every combination of

* 3 synthetic scenarios (n = 2000, 6 labels) x seeds 0-2,
* 4 variants (label-wise / example-wise loss x single / all-label heads),
* l2 weight 0 and 1,
* plain data and tie-heavy data (columns rounded to one decimal, with
  5% of the values missing),

each with 100 rules.  The script prints how many models are
byte-identical, how many have the same rule bodies, and the largest head
difference among the models with the same bodies, then lists every model
that differs.  It exits 1 when any model differs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

SCENARIOS = ("marginal_independence", "marginal_dependence", "conditional_dependence")
SEEDS = (0, 1, 2)
VARIANTS = (
    ("label-wise-logistic", "single"),
    ("label-wise-logistic", "multi"),
    ("example-wise-logistic", "single"),
    ("example-wise-logistic", "multi"),
)
L2_WEIGHTS = (0.0, 1.0)
DATA_KINDS = ("plain", "tie-heavy")
N_EXAMPLES = 2000
N_LABELS = 6
N_RULES = 100


def _tie_heavy(dataset, seed):
    """The dataset's columns rounded to one decimal, with 5% of the values missing."""
    import numpy as np
    from ruleboost.dataset import Dataset

    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    columns = []
    for column in dataset.columns:
        column = np.round(column, 1)
        column[rng.random(column.shape[0]) < 0.05] = np.nan
        columns.append(column)
    return Dataset(dataset.schema, columns, dataset.labels, dataset.label_names)


def emit_models(src: str) -> None:
    """Train every model with the ruleboost package found in ``src``; print one JSON line each."""
    sys.path.insert(0, src)
    from ruleboost.serialization import dumps
    from ruleboost.synthetic import SyntheticConfig, generate
    from ruleboost.training import TrainConfig, train

    for scenario in SCENARIOS:
        for seed in SEEDS:
            plain, _ = generate(SyntheticConfig(scenario, N_EXAMPLES, N_LABELS, seed=seed))
            for kind in DATA_KINDS:
                data = plain if kind == "plain" else _tie_heavy(plain, seed)
                for loss, head_mode in VARIANTS:
                    for l2 in L2_WEIGHTS:
                        config = TrainConfig(loss=loss, n_rules=N_RULES, l2_weight=l2,
                                             head_mode=head_mode, seed=seed)
                        name = f"{scenario}/seed{seed}/{kind}/{loss}/{head_mode}/l2={l2:g}"
                        print(json.dumps({"name": name, "model": dumps(train(data, config))}),
                              flush=True)


def _models_of(src: str) -> dict[str, str]:
    completed = subprocess.run(
        [sys.executable, __file__, "--emit", src],
        capture_output=True, text=True, check=False,
    )
    if completed.returncode != 0:
        raise SystemExit(f"training under {src} failed:\n{completed.stderr}")
    lines = [json.loads(line) for line in completed.stdout.splitlines()]
    return {line["name"]: line["model"] for line in lines}


def _bodies_and_heads(model: str):
    document = json.loads(model)
    bodies = [json.dumps(rule["conditions"]) for rule in document["rules"]]
    heads = [(rule["label"], rule["scores"]) for rule in document["rules"]]
    return bodies, heads


def _head_difference(first, second) -> float:
    """Largest |a - b| / max(|a|, |b|, 1e-300) over the head entries of two models."""
    worst = 0.0
    for (label_a, scores_a), (label_b, scores_b) in zip(first, second):
        if label_a != label_b:
            return float("inf")
        for a, b in zip(scores_a, scores_b):
            if a != b:
                worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    return worst


def compare(parent_src: str, change_src: str) -> int:
    with ThreadPoolExecutor(2) as pool:
        parent, change = pool.map(_models_of, (parent_src, change_src))
    if parent.keys() != change.keys():
        raise SystemExit("the two trees trained different model sets")
    identical = same_bodies = 0
    worst_head = 0.0
    differing = []
    for name in parent:
        if parent[name] == change[name]:
            identical += 1
            same_bodies += 1
            continue
        bodies_a, heads_a = _bodies_and_heads(parent[name])
        bodies_b, heads_b = _bodies_and_heads(change[name])
        if bodies_a == bodies_b:
            same_bodies += 1
            difference = _head_difference(heads_a, heads_b)
            worst_head = max(worst_head, difference)
            differing.append(f"{name}: same bodies, head difference {difference:.3g} (relative)")
        else:
            first = next(i for i, (a, b) in enumerate(zip(bodies_a, bodies_b)) if a != b)
            differing.append(f"{name}: bodies differ from rule {first + 1}")
    total = len(parent)
    print(f"models: {total}")
    print(f"byte-identical: {identical}/{total}")
    print(f"same bodies: {same_bodies}/{total}")
    print(f"worst head difference among same bodies: {worst_head:.3g} (relative)")
    for line in differing:
        print(f"  {line}")
    return 0 if identical == total else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "--emit":
        emit_models(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    return compare(*argv)


if __name__ == "__main__":
    sys.exit(main())
