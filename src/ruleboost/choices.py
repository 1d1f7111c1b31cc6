"""Named choices shared by the learner and its command line.

The loss names and head modes are the only ones the learner accepts, and
the command line offers these as argparse choices.  Defined here,
importing nothing from the package, they let it build its parser without
the training code, and let ``rules`` check a loss without ``losses``.
Only names live here: each setting's default is declared by the config
that holds it.
"""

from __future__ import annotations

from dataclasses import dataclass

LABEL_WISE_LOGISTIC = "label-wise-logistic"
EXAMPLE_WISE_LOGISTIC = "example-wise-logistic"
LOSS_NAMES = LABEL_WISE_LOGISTIC, EXAMPLE_WISE_LOGISTIC

HEAD_SINGLE = "single"
HEAD_MULTI = "multi"
HEAD_MODES = HEAD_SINGLE, HEAD_MULTI

MARGINAL_INDEPENDENCE = "marginal_independence"
MARGINAL_DEPENDENCE = "marginal_dependence"
CONDITIONAL_DEPENDENCE = "conditional_dependence"
SCENARIOS = (MARGINAL_INDEPENDENCE, MARGINAL_DEPENDENCE, CONDITIONAL_DEPENDENCE)

# Holdout tuning's metrics, named as the fields of a trajectory point.
METRICS = ("hamming", "subset01")

_LOSS_TAGS = {LABEL_WISE_LOGISTIC: "lwlog", EXAMPLE_WISE_LOGISTIC: "exwlog"}


@dataclass(frozen=True)
class TrajectoryVariant:
    loss: str
    head_mode: str

    @property
    def name(self) -> str:
        return f"{_LOSS_TAGS.get(self.loss, self.loss)}-{self.head_mode}"


ALL_VARIANTS = (
    TrajectoryVariant(LABEL_WISE_LOGISTIC, HEAD_SINGLE),
    TrajectoryVariant(LABEL_WISE_LOGISTIC, HEAD_MULTI),
    TrajectoryVariant(EXAMPLE_WISE_LOGISTIC, HEAD_SINGLE),
    TrajectoryVariant(EXAMPLE_WISE_LOGISTIC, HEAD_MULTI),
)
