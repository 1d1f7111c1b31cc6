"""The benchmark's workloads: seeded inputs, timed CLI operations and output checks.

Inputs come from the package's own generator (``synthetic``) and are
written with ``save_arff``; the CLI only ever sees the generated files.
Each workload's ``check`` compares a CLI output against what the package
computes in-process, and keeps its test losses between the Bayes-optimal
loss of the test set (known because the generator keeps the noiseless
labels) and that of the best constant prediction.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ruleboost import cli, serialization
from ruleboost.dataio import save_arff
from ruleboost.dataset import Dataset
from ruleboost.metrics import hamming_loss, subset_zero_one_loss
from ruleboost.prediction import DECODE_KNOWN_VECTORS, DECODE_SIGN, decode_scores
from ruleboost.rules import ensemble_scores
from ruleboost.synthetic import SyntheticConfig, SyntheticProcess, generate

N_LABELS = 6
NOISE_RATE = 0.1
# Each workload's structure (its boundary directions) is fixed, and the
# benchmark seed draws its rows and the training randomness: seeds
# replicate one workload rather than draw new ones whose cost varies with
# their structure.  Row streams start at 1000, clear of the streams the
# package's own generator uses.
STRUCTURE_SEED = 0


def rows_stream(seed: int, part: int) -> int:
    return 1000 + 2 * seed + part


# A model may beat the Bayes-optimal predictor on a finite test set only by
# sampling luck, and should not lose to the best constant prediction; by
# more than these margins, the output is taken as broken.
BELOW_BAYES = 0.02
ABOVE_CONSTANT = 0.05


def loss_band(truth: np.ndarray, noiseless: np.ndarray) -> list[tuple[float, float]]:
    """(low, high) test Hamming and subset 0/1 losses that a sane model stays within."""
    positive = (truth == 1).mean(axis=0)
    _, counts = np.unique(truth, axis=0, return_counts=True)
    constant = (float(np.minimum(positive, 1.0 - positive).mean()), 1.0 - counts.max() / len(truth))
    bayes = (hamming_loss(truth, noiseless), subset_zero_one_loss(truth, noiseless))
    return [(b - BELOW_BAYES, c + ABOVE_CONSTANT) for b, c in zip(bayes, constant)]


def band_errors(what: str, losses, band) -> list[str]:
    errors = []
    for metric, loss, (low, high) in zip(("hamming", "subset01"), losses, band):
        if not low <= loss <= high:
            errors.append(f"{what}: test {metric} {loss:.4f} outside [{low:.4f}, {high:.4f}]")
    return errors


@dataclass
class Op:
    """One CLI process: its name in the report, its arguments and the file or directory it writes."""

    name: str
    argv: list[str]
    output: Path


class Quality:
    """Test losses of the predictions produced in one run, averaged over their sources."""

    def __init__(self):
        self.hamming: list[float] = []
        self.subset01: list[float] = []

    def add(self, truth: np.ndarray, predicted: np.ndarray):
        self.hamming.append(hamming_loss(truth, predicted))
        self.subset01.append(subset_zero_one_loss(truth, predicted))

    def values(self) -> tuple[float, float]:
        return float(np.mean(self.hamming)), float(np.mean(self.subset01))


def read_predictions(path: Path, n_rows: int, n_labels: int) -> np.ndarray:
    """Parse the CLI's 0/1 prediction CSV into a +-1 matrix."""
    text = path.read_bytes()
    _, _, body = text.partition(b"\n")
    width = 2 * n_labels  # "d,d,...,d\n"
    if len(body) != n_rows * width:
        raise ValueError(f"{path.name}: expected {n_rows} rows of {n_labels} labels")
    cells = np.frombuffer(body, dtype=np.uint8).reshape(n_rows, width)[:, 0::2]
    if not np.isin(cells, (ord("0"), ord("1"))).all():
        raise ValueError(f"{path.name}: cells other than 0/1")
    return np.where(cells == ord("1"), 1, -1).astype(np.int8)


def run_in_process(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Workload:
    """One workload of one run: ``setup`` writes inputs into ``work``; ops are then timed.

    ``setup`` runs again between timed operations; it writes the same
    inputs every time, so check state that spans repeats is kept outside it.
    """

    name = ""

    def __init__(self, work: Path, seed: int, tracer):
        self.work = work
        self.seed = seed
        self.tracer = tracer
        self.quality = Quality()

    def setup(self):
        raise NotImplementedError

    def prepare_checks(self):
        """Work the checks need once per run, done after set-up and outside its timing."""

    def operations(self) -> list[Op]:
        """The processes of one timed operation, run back to back."""
        raise NotImplementedError

    def check(self, op: Op) -> list[str]:
        raise NotImplementedError

    def sample(self, scenario: str, *sizes: int):
        """The scenario's fixed process and seeded datasets of the given sizes drawn from it."""
        process = SyntheticProcess(SyntheticConfig(scenario, sizes[0], N_LABELS,
                                                   noise_rate=NOISE_RATE, seed=STRUCTURE_SEED))
        with self.tracer.span("synthetic.generate"):
            datasets = [process.sample_dataset(n, rows_stream(self.seed, part))
                        for part, n in enumerate(sizes)]
        return process, datasets

    def save_arff(self, dataset: Dataset, name: str) -> Path:
        path = self.work / name
        with self.tracer.span("dataio.save_arff"):
            save_arff(dataset, path)
        return path


class Serve(Workload):
    """Both decoders on 25k marginal_independence rows; the 100-rule model is trained in set-up."""

    name = "serve-25k"
    n_train = 2000
    n_test = 25000
    n_rules = 100

    def setup(self):
        process, (train, self.test) = self.sample("marginal_independence", self.n_train, self.n_test)
        noiseless = process.noiseless_labels(np.column_stack(self.test.columns))
        self.band = loss_band(self.test.labels, noiseless)
        train_path = self.save_arff(train, "train.arff")
        self.test_path = self.save_arff(self.test, "test.arff")
        self.model_path = self.work / "model.json"
        status = run_in_process([
            "train", "--data", str(train_path), "--labels", str(N_LABELS),
            "--loss", "example-wise-logistic", "--head", "multi", "--l2", "1",
            "--rules", str(self.n_rules), "--seed", str(self.seed),
            "--model", str(self.model_path),
        ])
        if status != 0:
            raise RuntimeError(f"training the served model exited with {status}")

    def prepare_checks(self):
        self.model_bytes = self.model_path.read_bytes()
        model = serialization.loads(self.model_bytes.decode("utf-8"))
        scores = ensemble_scores(model, self.test)
        self.expected = {
            DECODE_SIGN: decode_scores(scores, DECODE_SIGN),
            DECODE_KNOWN_VECTORS: decode_scores(scores, DECODE_KNOWN_VECTORS, model.label_vectors),
        }

    def operations(self):
        ops = []
        for name, method in (("predict_sign", DECODE_SIGN), ("predict_known", DECODE_KNOWN_VECTORS)):
            output = self.work / f"{name}.csv"
            argv = [
                "predict", "--data", str(self.test_path), "--labels", str(N_LABELS),
                "--model", str(self.model_path), "--decode", method, "--output", str(output),
            ]
            ops.append(Op(name, argv, output))
        return ops

    def check(self, op):
        if self.model_path.read_bytes() != self.model_bytes:
            return ["set-up trained the served model again and its bytes differ"]
        method = DECODE_SIGN if op.name == "predict_sign" else DECODE_KNOWN_VECTORS
        predicted = read_predictions(op.output, self.n_test, N_LABELS)
        if not np.array_equal(predicted, self.expected[method]):
            return [f"{op.name}: CLI predictions differ from in-process decoding"]
        if len(self.quality.hamming) == 2:
            return []
        self.quality.add(self.test.labels, predicted)
        if len(self.quality.hamming) < 2:
            return []
        return band_errors(self.name, self.quality.values(), self.band)


class Trajectory(Workload):
    """All four variants on conditional_dependence, 2000 examples, checkpoints up to 50, l2 = 0.

    ``ruleboost trajectory`` draws its data and its training randomness from
    one ``--seed``, so no seed can vary the rows without also moving the
    boundary directions, which alone shift the test losses by about 20%
    between seeds.  The workload therefore always runs the structure seed,
    and the benchmark seed does not change its inputs.
    """

    name = "trajectory-4v"
    n_examples = 2000
    checkpoints = (1, 2, 4, 8, 16, 32, 50)
    variants = ("lwlog-single", "lwlog-multi", "exwlog-single", "exwlog-multi")

    def __init__(self, work: Path, seed: int, tracer):
        super().__init__(work, seed, tracer)
        self.series_bytes = None

    def setup(self):
        self.config = SyntheticConfig("conditional_dependence", self.n_examples, N_LABELS,
                                      noise_rate=NOISE_RATE, seed=STRUCTURE_SEED)
        # The CLI draws this data from the seed itself; the copy here gives the Bayes losses.
        with self.tracer.span("synthetic.generate"):
            _, test = generate(self.config)
        noiseless = SyntheticProcess(self.config).noiseless_labels(np.column_stack(test.columns))
        self.band = loss_band(test.labels, noiseless)
        self.out = self.work / "series"

    def operations(self):
        argv = [
            "trajectory", "--scenario", self.config.scenario, "--n", str(self.n_examples),
            "--labels", str(N_LABELS), "--noise", str(NOISE_RATE), "--seed", str(self.config.seed),
            "--checkpoints", ",".join(map(str, self.checkpoints)), "--out", str(self.out),
        ]
        return [Op("trajectory", argv, self.out)]

    def check(self, op):
        texts = [(op.output / f"trajectory_{v}.csv").read_bytes() for v in self.variants]
        if self.series_bytes is None:
            self.series_bytes = texts
        elif texts != self.series_bytes:
            return ["trajectory series differ between repeats of one seed"]
        if self.quality.hamming:
            return []
        for variant, text in zip(self.variants, texts):
            rows = [line.split(",") for line in text.decode("utf-8").split()[1:]]
            if [int(r[0]) for r in rows] != list(self.checkpoints):
                return [f"{variant}: checkpoints are not {self.checkpoints}"]
            self.quality.hamming.append(float(rows[-1][1]))
            self.quality.subset01.append(float(rows[-1][2]))
        return band_errors(self.name, self.quality.values(), self.band)


WORKLOADS = {w.name: w for w in (Serve, Trajectory)}
