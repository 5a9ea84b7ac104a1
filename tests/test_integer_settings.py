"""Every integer setting with a lower bound follows one rule, at every entry point.

The type is checked first: ``None``, a string, a float (integral or not)
and NaN raise ``<name> must be an integer, got <value!r>``. Then the range:
a value below the bound raises ``<name> must be >= <low>, got <value>``.
"""

import math

import numpy as np
import pytest

from gradqueue import (
    BatchCompositionCase,
    GradQueue,
    LemmaParams,
    QueueLengthController,
    QueueStats,
    SparseSignalSpec,
    choose_k,
    generate_lines,
    kmeans,
    lemma1_closed,
    lemma2_phi,
    lemma3_closed,
    simulate_gq_momentum,
    simulate_lemma3_momentum,
    simulate_momentum,
    sparse_signal,
    threshold_boosted,
    threshold_plain,
)
from gradqueue.experiments import (
    ExperimentConfig,
    expand_seeds,
    run_momentum_sim,
    run_qlen_demo,
    run_train_lines,
)

SPEC = SparseSignalSpec(C=5.0, u=-1.0, N=5)
PARAMS = LemmaParams(beta=0.9, rho=3.0, L=3)
SPEC9 = SparseSignalSpec(C=5.0, u=-1.0, N=9)
X = np.arange(8.0).reshape(4, 2)


def train(runner, **settings):
    """``runner`` on a two-step training config of 10 images, with ``settings`` over it."""
    return runner(ExperimentConfig(**{"steps": 2, "p": 8, "q": 2, "batch_size": 10, **settings}))


# (id, setting name, lower bound, call taking the setting's value)
ENTRY_POINTS = [
    ("spec-N", "N", 3, lambda v: SparseSignalSpec(C=5.0, u=-1.0, N=v)),
    ("lemma-params-L", "L", 0, lambda v: LemmaParams(beta=0.9, rho=3.0, L=v)),
    ("composition-B", "B", 1, lambda v: BatchCompositionCase(B=v, p=9, q=1, eq_q=1.0, eq_p=-0.1)),
    ("composition-p", "p", 0, lambda v: BatchCompositionCase(B=10, p=v, q=1, eq_q=1.0, eq_p=-0.1)),
    ("composition-q", "q", 1, lambda v: BatchCompositionCase(B=10, p=9, q=v, eq_q=1.0, eq_p=-0.1)),
    ("sparse-signal-t", "t", 1, lambda v: sparse_signal(v, SPEC)),
    ("simulate-momentum-steps", "steps", 1, lambda v: simulate_momentum(SPEC, 0.9, v)),
    ("simulate-gq-steps", "steps", 1, lambda v: simulate_gq_momentum(SPEC, PARAMS, v)),
    ("simulate-gq-L", "L", 1, lambda v: simulate_gq_momentum(SPEC, LemmaParams(0.9, 3.0, v), 5)),
    ("simulate-lemma3-steps", "steps", 1, lambda v: simulate_lemma3_momentum(SPEC9, PARAMS, v)),
    ("lemma1-k", "k", 1, lambda v: lemma1_closed(SPEC, 0.9, v)),
    ("lemma3-k", "k", 1, lambda v: lemma3_closed(SPEC9, PARAMS, v)),
    ("threshold-plain-N", "N", 3, lambda v: threshold_plain(v, 0.9)),
    ("threshold-boosted-N", "N", 3, lambda v: threshold_boosted(v, LemmaParams(0.9, 3.0, 0))),
    ("lemma2-L", "L", 3, lambda v: lemma2_phi(v, 3.0)),
    ("kmeans-k", "k", 1, lambda v: kmeans(X, v)),
    ("kmeans-n-init", "n_init", 1, lambda v: kmeans(X, 2, n_init=v)),
    ("kmeans-seed", "seed", 0, lambda v: kmeans(X, 2, seed=v)),
    ("choose-k-batch-size", "batch_size", 1, lambda v: choose_k(v, 50)),
    ("choose-k-optimal-batch", "optimal_batch", 1, lambda v: choose_k(100, v)),
    ("lines-height", "height", 3, lambda v: generate_lines(v, 8, 2, 1)),
    ("lines-width", "width", 3, lambda v: generate_lines(8, v, 2, 1)),
    ("lines-p", "p", 0, lambda v: generate_lines(8, 8, v, 1)),
    ("lines-q", "q", 0, lambda v: generate_lines(8, 8, 2, v)),
    ("lines-seed", "seed", 0, lambda v: generate_lines(8, 8, 2, 1, seed=v)),
    ("queue-capacity", "capacity", 1, lambda v: GradQueue(v)),
    ("stats-sample-count", "sample_count", 1, lambda v: QueueStats(np.ones(2), np.ones(2), v)),
    ("controller-window", "window", 1, lambda v: QueueLengthController(window=v)),
    ("controller-min-length", "min_length", 1, lambda v: QueueLengthController(min_length=v)),
    ("expand-seeds", "seed", 0, lambda v: expand_seeds(v)),
    ("train-lines-steps", "steps", 1, lambda v: train(run_train_lines, steps=v)),
    ("train-lines-batch-size", "batch_size", 1, lambda v: train(run_train_lines, batch_size=v)),
    ("train-lines-k", "k", 1, lambda v: train(run_train_lines, k=v)),
    ("train-lines-seed", "seed", 0, lambda v: train(run_train_lines, seed=v)),
    ("qlen-demo-steps", "steps", 1, lambda v: run_qlen_demo(ExperimentConfig(steps=v))),
    ("qlen-demo-train-steps", "steps", 1, lambda v: train(run_qlen_demo, pattern="train", steps=v)),
    # momentum-sim runs at least one period: its bound is N
    ("momentum-sim-steps", "steps", 9, lambda v: run_momentum_sim(ExperimentConfig(steps=v, N=9))),
]
# train-lines reads k = None as "choose k from the batch size"
NONE_ALLOWED = {"train-lines-k"}


def refusals():
    for entry_id, name, low, call in ENTRY_POINTS:
        values = [("none", None), ("string", "3"), ("float", 2.5), ("nan", math.nan)]
        for value_id, value in values:
            if not (value is None and entry_id in NONE_ALLOWED):
                message = f"{name} must be an integer, got {value!r}"
                yield pytest.param(call, value, message, id=f"{entry_id}-{value_id}")
        message = f"{name} must be >= {low}, got {low - 1}"
        yield pytest.param(call, low - 1, message, id=f"{entry_id}-below")


@pytest.mark.parametrize("call, value, message", refusals())
def test_integer_setting_refused(call, value, message):
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == message
