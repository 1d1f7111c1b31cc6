"""Named choices and default grids shared by the learner and its command line.

The command line offers these as argparse choices and defaults.  Defined
here, apart from the modules that use them, they let it build its parser
without loading the head, induction, training, trajectory, tuning or
synthetic modules, which import their names from here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .losses import EXAMPLE_WISE_LOGISTIC, LABEL_WISE_LOGISTIC

HEAD_SINGLE = "single"
HEAD_MULTI = "multi"

MARGINAL_INDEPENDENCE = "marginal_independence"
MARGINAL_DEPENDENCE = "marginal_dependence"
CONDITIONAL_DEPENDENCE = "conditional_dependence"
SCENARIOS = (MARGINAL_INDEPENDENCE, MARGINAL_DEPENDENCE, CONDITIONAL_DEPENDENCE)

DEFAULT_CHECKPOINTS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000)
# Holdout tuning's metrics, named as the fields of a trajectory point.
METRICS = ("hamming", "subset01")

DEFAULT_SHRINKAGES = (0.1, 0.3, 0.5)
DEFAULT_L2_WEIGHTS = (0.0, 0.25, 1.0, 4.0, 16.0, 64.0)
DEFAULT_RULE_COUNTS = tuple(range(50, 10001, 50))

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
