"""Queue-driven sparse-gradient boosting for momentum optimizers.

A bounded queue of recent gradients supplies per-coordinate mean and
standard deviation; incoming gradients are rescaled by their clamped
z-score so rare components are amplified and repeating ones dampened.
The package also provides cluster-based mini-batch aggregation, closed
forms with independent simulators for the boosted momentum dynamics, and
a small line-detection experiment exercising the whole mechanism.
"""

from .core import (
    BoostConfig,
    GradQueue,
    QueueLengthController,
    QueueStats,
    delta_rho,
)
from .optimizers import AdamState, OptimizerConfig, SgdmState, adam_step, sgdm_step
from .clustering import (
    ClusterAssignment,
    aggregate,
    choose_k,
    kmeans,
    kmeans_objective,
)
from .analysis import (
    BatchCompositionCase,
    LemmaParams,
    SparseSignalSpec,
    batch_error_case,
    boosted_batch_mean,
    lemma1_closed,
    lemma2_phi,
    lemma3_closed,
    simulate_gq_momentum,
    simulate_lemma3_momentum,
    simulate_momentum,
    sparse_signal,
    threshold_boosted,
    threshold_plain,
    threshold_plain_reported,
    zeta,
)
from .nn import (
    IDEAL_HORIZONTAL,
    IDEAL_VERTICAL,
    LineDataset,
    LineDetectorModel,
    Windows,
    batch_loss,
    generate_lines,
    per_sample_grads,
    template_alignment,
)

__version__ = "0.1.0"

__all__ = [
    "BoostConfig",
    "GradQueue",
    "QueueLengthController",
    "QueueStats",
    "delta_rho",
    "AdamState",
    "OptimizerConfig",
    "SgdmState",
    "adam_step",
    "sgdm_step",
    "ClusterAssignment",
    "aggregate",
    "choose_k",
    "kmeans",
    "kmeans_objective",
    "BatchCompositionCase",
    "LemmaParams",
    "SparseSignalSpec",
    "batch_error_case",
    "boosted_batch_mean",
    "lemma1_closed",
    "lemma2_phi",
    "lemma3_closed",
    "simulate_gq_momentum",
    "simulate_lemma3_momentum",
    "simulate_momentum",
    "sparse_signal",
    "threshold_boosted",
    "threshold_plain",
    "threshold_plain_reported",
    "zeta",
    "IDEAL_HORIZONTAL",
    "IDEAL_VERTICAL",
    "LineDataset",
    "LineDetectorModel",
    "Windows",
    "batch_loss",
    "generate_lines",
    "per_sample_grads",
    "template_alignment",
]
