"""Train the same 288 models and run the same 31 command lines under two source trees.

Usage::

    python tools/compare_models.py PARENT_SRC CHANGE_SRC

Each ``*_SRC`` is a directory that contains the ``ruleboost`` package
(for example a checkout's ``src``).  Every process of a tree is a
``python`` with that directory first on ``PYTHONPATH``; each tree first
imports the package once so, and the script stops, naming the directory,
if it came from elsewhere.  Both trees train, each in its own
subprocess, every combination of

* 3 synthetic scenarios (n = 2000, 6 labels) x seeds 0-2,
* 4 variants (label-wise / example-wise loss x single / all-label heads),
* l2 weight 0 and 1,
* plain data, tie-heavy data (columns rounded to one decimal, 5% of the
  values missing), nominal data (plus the point's angular sector of
  eight as a nominal column, 5% missing) and wide data (the nominal
  data plus ten seeded numeric mixtures of the point's coordinates and
  noise, half rounded to one decimal and four with 5% missing),

each with 100 rules.  Wide data's 13 attributes make every refinement
step sample 4 of them, where the other kinds sample 1 or 2.  The script
prints how many models are byte-identical, overall and of each data
kind, how many have the same rule bodies and the largest head difference
among those, then lists every model that differs.

Each tree then runs every case of one table as a
``python -m ruleboost.cli`` process, with an empty output directory.  A
case is a command line, the files it writes there and whether its stdout
carries a training time, which is masked (``train`` only); its exit
code, stdout, stderr and files (or their absence) are compared byte for
byte.  The 31 cases are ``--help`` of the program and of every
subcommand, ``predict`` (CSV read from stdout through a pipe) on one
model that the parent tree wrote, with both decoders on the test file,
on its rows repeated to 25,000 (which forked workers parse, score and
decode in shares where two CPUs are usable), once on a tie-heavy rewrite
(per-cell converter), once with a '%' comment line in the data block
(per-line tokenizer) and once on the large file with a bad cell in its
last quarter.  ``evaluate --json``, which serves through the same
shares, runs with both decoders on the large file and once on the bad
one.  ``tune --json`` (example-wise loss, all-label heads, shrinkages
0.3 and 0.5 x l2 weights 0, 1 and 4, rules 10 and 20) runs on
``trajectory-4v`` data.  The test file written as CSV, plain and fully
quoted with a header name that spans two lines, goes through ``train``,
``predict`` with both decoders and ``evaluate``, and ``predict`` runs
once on the plain CSV with a bad cell.  ``train --no-bagging
--no-feature-sampling --loss example-wise-logistic`` runs on the ARFF
test file and its wide rewrite, so that every refinement gathers all n
rows and scans every attribute.  ``synth --scenario marginal_dependence
--n 300``, with every other setting left to its default, writes its
three files.  ``trajectory`` at the benchmark's ``trajectory-4v``
settings (conditional_dependence, n = 2000, 6 labels, noise 0.1,
``--seed 0``, checkpoints 1,2,4,8,16,32,50) writes its four series CSVs;
the script stops if the parent's does not write all four.

Last, a differential loader check: ``CSV_TEXTS`` mutations of two small
CSV texts, made with the tokens of ``tests/test_fuzz.py``'s text
mutations plus an empty quoted value, a quoted line end, rows of only
blank cells and, rarely, a field over the csv module's size limit.
Each tree loads every text in one subprocess and prints one digest per
text: a hash of the dataset, or the error's type and message.  Every
text whose digests differ is listed.

It exits 1 when any model, command line output or CSV digest differs.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SCENARIOS = ("marginal_independence", "marginal_dependence", "conditional_dependence")
SEEDS = (0, 1, 2)
VARIANTS = (
    ("label-wise-logistic", "single"),
    ("label-wise-logistic", "multi"),
    ("example-wise-logistic", "single"),
    ("example-wise-logistic", "multi"),
)
L2_WEIGHTS = (0.0, 1.0)
DATA_KINDS = ("plain", "tie-heavy", "nominal", "wide")
N_EXAMPLES = 2000
N_LABELS = 6
N_RULES = 100
# The data of the benchmark's trajectory-4v workload.
SCENARIO_ARGS = ("--scenario", "conditional_dependence", "--n", "2000", "--labels", "6",
                 "--noise", "0.1", "--seed", "0")
TRAJECTORY_ARGS = ("trajectory", *SCENARIO_ARGS, "--checkpoints", "1,2,4,8,16,32,50")
# The files that trajectory writes, one series per variant.
SERIES = tuple(f"trajectory_{variant}.csv"
               for variant in ("lwlog-single", "lwlog-multi", "exwlog-single", "exwlog-multi"))
TUNE_ARGS = (
    "tune", "--labels", "6", "--loss", "example-wise-logistic", "--head", "multi",
    "--shrinkage-grid", "0.3,0.5", "--l2-grid", "0,1,4", "--rules-grid", "10,20",
)
# Synthetic data with every setting but the scenario and size left to its default.
SYNTH_DEFAULTS_ARGS = ("synth", "--scenario", "marginal_dependence", "--n", "300")
SUBCOMMANDS = ("train", "predict", "evaluate", "tune", "synth", "trajectory")
# Training with every row and every attribute at each refinement step.
NO_SAMPLING = ("--no-bagging", "--no-feature-sampling", "--loss", "example-wise-logistic")
# Rows of the repeated test file: the serve-25k workload's size, several
# times the smallest pair of shares that predict splits a file into.
SPLIT_ROWS = 25_000
DECODERS = ("sign", "known-vectors")
# Mutated texts of the differential CSV loader check, and their bases.
CSV_TEXTS = 8192
CSV_BASES = (
    'x,c,y,l0,l1\n1.5,red,-2,1,0\n,blue,3e-5,0,1\n-0.0,"r,ed",?,1,1\n2,red,1,0,0\n',
    '"x\r\nwide","c",y,"l0",l1\r\n" 1.5","red ",-2,"1",0\r\n"","a\nb","3e-5",0,"1"\r\n',
)
# What the check inserts besides the fuzz tokens: an empty quoted value,
# line ends inside quotes and rows of only blank cells.
CSV_TOKENS = ('""', '"\r\n"', '"a\r\nb"', '"\n"', ",,,,\n", " , ,\t, ,\r\n", '"",,"  ",,\n')
FUZZ_FILE = Path(__file__).resolve().parent.parent / "tests" / "test_fuzz.py"


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


def _with_nominal(dataset, seed):
    """The dataset plus a nominal column, the angular sector of eight that holds each point,
    with 5% of its cells missing."""
    import numpy as np
    from ruleboost.dataset import MISSING_CODE, NOMINAL, Attribute, AttributeSchema, Dataset

    x, y = dataset.columns[:2]
    codes = np.minimum((np.arctan2(y, x) + np.pi) * 4 / np.pi, 7).astype(np.int64)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    codes[rng.random(codes.shape[0]) < 0.05] = MISSING_CODE
    sector = Attribute("sector", NOMINAL, tuple(f"s{k}" for k in range(8)))
    return Dataset(AttributeSchema((*dataset.schema.attributes, sector)),
                   [*dataset.columns, codes], dataset.labels, dataset.label_names)


def _wide(dataset, seed):
    """The nominal data's columns plus ten numeric ones, each a seeded mixture of the point's
    coordinates and noise; the even-numbered are rounded to one decimal, and every third
    has 5% of its cells missing."""
    import numpy as np
    from ruleboost.dataset import NUMERIC, Attribute, AttributeSchema, Dataset

    nominal = _with_nominal(dataset, seed)
    x, y = dataset.columns[:2]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 13]))
    attributes, columns = list(nominal.schema.attributes), list(nominal.columns)
    for k in range(10):
        a, b, noise = rng.normal(size=3)
        column = a * x + b * y + noise * rng.normal(size=x.shape[0])
        if k % 2 == 0:
            column = np.round(column, 1)
        if k % 3 == 0:
            column[rng.random(x.shape[0]) < 0.05] = np.nan
        attributes.append(Attribute(f"mix{k}", NUMERIC))
        columns.append(column)
    return Dataset(AttributeSchema(tuple(attributes)), columns, dataset.labels,
                   dataset.label_names)


def emit_models() -> None:
    """Train every model; print one JSON line each."""
    from ruleboost.serialization import dumps
    from ruleboost.synthetic import SyntheticConfig, generate
    from ruleboost.training import TrainConfig, train

    for scenario in SCENARIOS:
        for seed in SEEDS:
            plain, _ = generate(SyntheticConfig(scenario, N_EXAMPLES, N_LABELS, seed=seed))
            for kind in DATA_KINDS:
                data = {"plain": plain, "tie-heavy": _tie_heavy(plain, seed),
                        "nominal": _with_nominal(plain, seed), "wide": _wide(plain, seed)}[kind]
                for loss, head_mode in VARIANTS:
                    for l2 in L2_WEIGHTS:
                        config = TrainConfig(loss=loss, n_rules=N_RULES, l2_weight=l2,
                                             head_mode=head_mode, seed=seed)
                        name = f"{scenario}/seed{seed}/{kind}/{loss}/{head_mode}/l2={l2:g}"
                        print(json.dumps({"name": name, "model": dumps(train(data, config))}),
                              flush=True)


def emit_csv_digests(texts: str) -> None:
    """Load every CSV text in ``texts``; print one digest each."""
    from ruleboost.dataio import load_csv

    directory = Path(texts)
    for k, labels in enumerate(json.loads((directory / "labels.json").read_text())):
        try:
            dataset = load_csv(directory / f"{k}.csv", labels)
        except Exception as error:  # every outcome is compared, a raw traceback too
            kind = type(error)
            print(json.dumps([f"{kind.__module__}.{kind.__qualname__}", str(error)]))
            continue
        digest = hashlib.sha256(repr((dataset.schema, dataset.label_names)).encode())
        for array in (dataset.labels, *dataset.columns):
            digest.update(array.dtype.str.encode() + array.tobytes())
        print(json.dumps(["dataset", digest.hexdigest()]))


def emit_wide_arff(test: str, out: str) -> None:
    """Write the ARFF file ``test`` as wide data to ``out``."""
    from ruleboost.dataio import load_arff, save_arff

    save_arff(_wide(load_arff(test, N_LABELS), 0), out)


def _sampled(name: str) -> list:
    """The list that ``tests/test_fuzz.py`` samples its ``name`` strategy from."""
    for node in ast.parse(FUZZ_FILE.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == name:
            return ast.literal_eval(node.value.args[0])
    raise SystemExit(f"{FUZZ_FILE} has no {name}")


def _csv_texts() -> list[tuple[str, object]]:
    """``CSV_TEXTS`` mutated CSV texts, each with a label spec, the same on every run."""
    tokens = _sampled("TOKENS") + list(CSV_TOKENS)
    label_specs = _sampled("CSV_LABELS")
    rng = random.Random(16)
    cases = []
    for k in range(CSV_TEXTS):
        text = CSV_BASES[k % 2]
        for _ in range(rng.randint(1, 4)):
            at = rng.randint(0, len(text))
            action = rng.choice(["insert", "insert", "delete", "repeat"])
            if action == "insert":
                token = "9" * 140_000 if rng.random() < 0.002 else rng.choice(tokens)
                text = text[:at] + token + text[at:]
            elif action == "delete":
                text = text[:at] + text[at + rng.randint(1, 12):]
            else:
                start = text.rfind("\n", 0, at) + 1
                end = text.find("\n", at)
                line = text[start:] if end < 0 else text[start:end + 1]
                text = text[:start] + line + text[start:]
        cases.append((text, rng.choice(label_specs)))
    return cases


def _csv_digests(parent_src: str, change_src: str) -> list[str]:
    """A line for each CSV text whose digests differ between the trees."""
    with tempfile.TemporaryDirectory() as work:
        cases = _csv_texts()
        for k, (text, _) in enumerate(cases):
            (Path(work) / f"{k}.csv").write_bytes(text.encode("utf-8"))
        (Path(work) / "labels.json").write_text(json.dumps([labels for _, labels in cases]))
        with ThreadPoolExecutor(2) as pool:
            parent, change = pool.map(lambda src: _run(src, "--csv", work).splitlines(),
                                      (parent_src, change_src))
    if len(parent) != len(cases) or len(change) != len(cases):
        raise SystemExit("a tree did not load every CSV text")
    return [f"text {k} (labels {labels!r}): {before} -> {after}: {text!r:.300}"
            for k, ((text, labels), before, after) in enumerate(zip(cases, parent, change))
            if before != after]


def _python(src: str, *args: str) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``python args`` with ``src`` first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                               check=False)
    return completed.returncode, completed.stdout, completed.stderr


def _run(src: str, *args: str) -> str:
    """Stdout of this script run with ``args`` and ``src`` first on the import path."""
    status, stdout, stderr = _python(src, __file__, *args)
    if status != 0:
        raise SystemExit(f"running under {src} failed:\n{stderr.decode(errors='replace')}")
    return stdout.decode()


def _cli(src: str, *args: str) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``python -m ruleboost.cli args`` under ``src``."""
    return _python(src, "-m", "ruleboost.cli", *args)


def _models_of(src: str) -> dict[str, str]:
    lines = [json.loads(line) for line in _run(src, "--emit").splitlines()]
    return {line["name"]: line["model"] for line in lines}


def _case(src: str, out: Path, args, files, timed) -> tuple:
    """Exit code, stdout, stderr and each written file's bytes (None where absent) of
    ``ruleboost args`` under ``src``, run with ``out`` empty; ``files`` are names in ``out``,
    which is removed afterwards.  ``timed`` masks stdout's training time, which varies."""
    out.mkdir()
    status, stdout, stderr = _cli(src, *args)
    written = [(out / name).read_bytes() if (out / name).exists() else None for name in files]
    shutil.rmtree(out)
    if timed:
        stdout = re.sub(rb" in [0-9.]+s\n", b"\n", stdout)
    return status, stdout, stderr, *written


def check_package(src: str) -> None:
    """Stop unless ``import ruleboost`` with ``src`` first on the path loads it from ``src``."""
    status, stdout, stderr = _python(src, "-c", "import ruleboost; print(ruleboost.__file__)")
    if status != 0:
        raise SystemExit(f"{src} holds no ruleboost package:\n{stderr.decode(errors='replace')}")
    found = Path(stdout.decode().strip()).resolve()
    if Path(src).resolve() not in found.parents:
        raise SystemExit(f"{src} holds no ruleboost package: ruleboost came from {found}")


def _test_file_variants(test: Path) -> tuple[Path, Path, Path, Path]:
    """The test file rewritten tie-heavy, with a comment line in its data block, and large.

    The large file repeats the test rows to ``SPLIT_ROWS`` rows; its last
    variant has one bad numeric cell in the last quarter of them.
    """
    head, data = test.read_text(encoding="utf-8").split("@data\n")
    rows = data.splitlines()
    rng = random.Random(7)
    tie_rows = []
    for row in rows:
        cells = row.split(",")
        cells[:-N_LABELS] = ["?" if rng.random() < 0.05 else repr(round(float(c), 1))
                             for c in cells[:-N_LABELS]]
        tie_rows.append(",".join(cells))
    commented_rows = rows[:5] + ["% a comment line inside the data block"] + rows[5:]
    large_rows = (rows * (SPLIT_ROWS // len(rows) + 1))[:SPLIT_ROWS]
    bad_rows = list(large_rows)
    bad = SPLIT_ROWS * 7 // 8
    bad_rows[bad] = "1.2.3" + bad_rows[bad][bad_rows[bad].index(","):]
    paths = tuple(test.with_name(f"test_{name}.arff")
                  for name in ("tie_heavy", "commented", "large", "large_bad_cell"))
    for path, lines in zip(paths, (tie_rows, commented_rows, large_rows, bad_rows)):
        path.write_text(head + "@data\n" + "\n".join(lines) + "\n", encoding="utf-8")
    return paths


def _csv_test_files(test: Path) -> tuple[Path, Path, Path]:
    """The test file as plain CSV, fully quoted with a header name spanning lines, and with a
    bad cell in the plain CSV's row 50."""
    head, data = test.read_text(encoding="utf-8").split("@data\n")
    names = [line.split()[1] for line in head.splitlines() if line.startswith("@attribute")]
    rows = [row.split(",") for row in data.splitlines()]
    quoted_names = [f"{names[0]}\r\nspans a line"] + names[1:]
    bad_rows = [list(row) for row in rows]
    bad_rows[49][0] = "1.2.3"
    paths = tuple(test.with_name(f"test_{name}.csv") for name in ("plain", "quoted", "bad_cell"))
    for path, text in zip(paths, (
            "\n".join(",".join(row) for row in [names] + rows),
            "\r\n".join(",".join(f'"{cell}"' for cell in row) for row in [quoted_names] + rows),
            "\n".join(",".join(row) for row in [names] + bad_rows))):
        path.write_bytes((text + "\n").encode("utf-8"))
    return paths


def _cli_outputs(parent_src: str, change_src: str) -> tuple[dict, dict]:
    """Each tree's ``_case`` of every command line case, by case name."""

    def parent_run(*args):
        status, _, stderr = _cli(parent_src, *args)
        if status != 0:
            raise SystemExit(f"ruleboost {args[0]} under {parent_src} failed:\n"
                             f"{stderr.decode(errors='replace')}")

    with tempfile.TemporaryDirectory() as work:
        data, model = Path(work) / "data", Path(work) / "model.json"
        tune_data, quoted_model = Path(work) / "tune", Path(work) / "quoted_model.json"
        parent_run("synth", "--scenario", "marginal_dependence", "--n", str(N_EXAMPLES),
                   "--labels", str(N_LABELS), "--out", str(data))
        parent_run("train", "--data", str(data / "train.arff"), "--labels", str(N_LABELS),
                   "--loss", "example-wise-logistic", "--rules", str(N_RULES),
                   "--model", str(model))
        parent_run("synth", *SCENARIO_ARGS, "--out", str(tune_data))
        tie_heavy, commented, large, large_bad = _test_file_variants(data / "test.arff")
        plain, quoted, bad_cell = _csv_test_files(data / "test.arff")
        wide = data / "test_wide.arff"
        _run(parent_src, "--wide-arff", str(data / "test.arff"), str(wide))
        parent_run("train", "--data", str(quoted), "--labels", str(N_LABELS),
                   "--rules", str(N_RULES), "--model", str(quoted_model))
        # Each case: its command line, the files it writes into out and whether its stdout
        # carries a training time.
        out = Path(work) / "out"
        cases = {" ".join(args): (args, (), False)
                 for args in [("--help",)] + [(command, "--help") for command in SUBCOMMANDS]}
        runs = [("predict", method, test, model) for test in (data / "test.arff", large)
                for method in DECODERS]
        runs += [("predict", "sign", tie_heavy, model),
                 ("predict", "known-vectors", commented, model),
                 ("predict", "sign", large_bad, model)]
        runs += [(command, method, test, test_model)
                 for test, test_model in ((plain, model), (quoted, quoted_model))
                 for command, method in [("predict", method) for method in DECODERS]
                 + [("evaluate", "sign")]]
        runs.append(("predict", "sign", bad_cell, model))
        for command, method, test, test_model in runs:
            cases[f"{command} --decode {method} --data {test.name}"] = (
                (command, "--decode", method, "--data", str(test), "--labels", str(N_LABELS),
                 "--model", str(test_model)), (), False)
        report = ("--json", str(out / "report.json"))
        for method, test in [(method, large) for method in DECODERS] + [("sign", large_bad)]:
            cases[f"evaluate --json --decode {method} --data {test.name}"] = (
                ("evaluate", "--decode", method, "--data", str(test), "--labels", str(N_LABELS),
                 "--model", str(model), *report), ("report.json",), False)
        cases["tune --json"] = (
            (*TUNE_ARGS, "--data", str(tune_data / "train.arff"), *report), ("report.json",), False)
        for test, extra in ((plain, ()), (quoted, ()), (data / "test.arff", NO_SAMPLING),
                            (wide, NO_SAMPLING)):
            cases[" ".join(("train", *extra, "--data", test.name))] = (
                ("train", *extra, "--data", str(test), "--labels", str(N_LABELS), "--rules", "20",
                 "--model", str(out / "model.json")), ("model.json",), True)
        cases[" ".join(SYNTH_DEFAULTS_ARGS)] = (
            (*SYNTH_DEFAULTS_ARGS, "--out", str(out)),
            ("train.arff", "test.arff", "boundaries.json"), False)
        cases[" ".join(TRAJECTORY_ARGS)] = ((*TRAJECTORY_ARGS, "--out", str(out)), SERIES, False)
        outputs = tuple({name: _case(src, out, *case) for name, case in cases.items()}
                        for src in (parent_src, change_src))
    if None in outputs[0][" ".join(TRAJECTORY_ARGS)]:
        raise SystemExit(f"ruleboost trajectory under {parent_src} did not write all four series")
    return outputs


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
    for src in (parent_src, change_src):
        check_package(src)
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
    for kind in DATA_KINDS:
        names = [name for name in parent if f"/{kind}/" in name]
        same = sum(parent[name] == change[name] for name in names)
        print(f"  {kind}: {same}/{len(names)}")
    print(f"same bodies: {same_bodies}/{total}")
    print(f"worst head difference among same bodies: {worst_head:.3g} (relative)")
    for line in differing:
        print(f"  {line}")
    parent_cli, change_cli = _cli_outputs(parent_src, change_src)
    same_cli = [name for name in parent_cli if parent_cli[name] == change_cli[name]]
    print(f"command line outputs byte-identical: {len(same_cli)}/{len(parent_cli)}")
    for name in parent_cli:
        if name not in same_cli:
            print(f"  ruleboost {name} differs")
    differing_csv = _csv_digests(parent_src, change_src)
    print(f"CSV texts loaded alike: {CSV_TEXTS - len(differing_csv)}/{CSV_TEXTS}")
    for line in differing_csv:
        print(f"  {line}")
    same = identical == total, len(same_cli) == len(parent_cli), not differing_csv
    return 0 if all(same) else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    emitters = {"--emit": emit_models, "--wide-arff": emit_wide_arff, "--csv": emit_csv_digests}
    if argv[:1] and argv[0] in emitters:
        return emitters[argv[0]](*argv[1:]) or 0
    if len(argv) != 2:
        print("usage: " + __doc__.split("\n\n")[2].strip(), file=sys.stderr)
        return 2
    return compare(*argv)


if __name__ == "__main__":
    sys.exit(main())
