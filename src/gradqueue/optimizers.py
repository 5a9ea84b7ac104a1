"""SGDM and Adam update rules with optional queue-driven gradient boosting.

Both optimizers keep a queue of the raw gradients they have seen. When
boosting is enabled and the queue is past warm-up, the incoming gradient
is rescaled by the boost operator before entering the momentum (or
moment) accumulators; the raw gradient is pushed onto the queue after
every step.

Both steps take an optional ``boost`` hook, a callable from the queue
statistics to the boosted gradient, a vector of the gradient's shape. On
a step that boosts (and only then) it replaces ``delta_rho(g, stats,
cfg.boost)``; ``train-lines`` passes one that aggregates boosted cluster
means. A hook result of any other shape, a gradient with a NaN or
infinite coordinate, or one whose update overflows the parameters (or
Adam's second moment), raises ``ValueError`` before any state changes.

Parameters and gradients are flat 1-D vectors, the one shape
``GradQueue`` holds; any other shape raises ``ValueError`` likewise.

An update runs a column block at a time (``core._blocks``) over the
``(cols, b[cols])`` pairs of ``_b_blocks``. An unhooked boosted step, at any
width, takes them from ``GradQueue._boosted_blocks``, which computes each
block's queue moments and boost just before its update. The update writes
fresh state arrays with ``out=`` forms in the order of each step's
commented expressions, so its bytes are theirs, and checks each block for
finiteness in cache. SGDM needs no scratch, Adam one block. The state's
arrays are never written: the new ones are swapped in once every block is
finite, and only then is the raw gradient (checked once, on entry, by
``GradQueue._checked``) stored in the queue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# delta_rho is not called here; it stays importable because perfbench's tracer wraps it by module
from .core import BoostConfig, GradQueue, _blocks, _check_beta, _widest, delta_rho  # noqa: F401

__all__ = ["OptimizerConfig", "SgdmState", "AdamState", "sgdm_step", "adam_step"]

ADAM_BETA2 = 0.999  # Adam's second-moment decay
ADAM_EPSILON = 1e-8  # added to Adam's root second moment before dividing


@dataclass
class OptimizerConfig:
    """Step settings. ``beta`` is SGDM's momentum and Adam's first-moment decay."""

    learning_rate: float = 0.1
    beta: float = 0.9
    boost: BoostConfig = field(default_factory=BoostConfig)
    boost_enabled: bool = True

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        _check_beta(self.beta)
        if not isinstance(self.boost, BoostConfig):
            raise ValueError(f"boost must be a BoostConfig, got {self.boost!r}")


@dataclass
class SgdmState:
    """Momentum optimizer state: parameters, momentum, gradient queue."""

    params: np.ndarray
    momentum: np.ndarray
    queue: GradQueue
    step_count: int = 0

    @classmethod
    def init(cls, params, capacity: int = 5) -> "SgdmState":
        params = np.asarray(params, dtype=float).copy()
        return cls(params, np.zeros_like(params), GradQueue(capacity))


@dataclass
class AdamState:
    """Adam optimizer state with a gradient queue for boosting."""

    params: np.ndarray
    first_moment: np.ndarray
    second_moment: np.ndarray
    queue: GradQueue
    step_count: int = 0

    @classmethod
    def init(cls, params, capacity: int = 5) -> "AdamState":
        params = np.asarray(params, dtype=float).copy()
        return cls(params, np.zeros_like(params), np.zeros_like(params), GradQueue(capacity))


def _gradient(g, state) -> np.ndarray:
    """g as a float64 vector: its checks against the params, then the queue's."""
    g, params = np.asarray(g, dtype=float), state.params
    if g.ndim != 1 or params.ndim != 1:
        raise ValueError(f"gradient {g.shape} and params {params.shape} must be 1-D vectors")
    if g.shape != params.shape:
        raise ValueError(f"dimension mismatch: gradient {g.shape} vs params {params.shape}")
    return state.queue._checked(g)


def _check_finite(*arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("update overflows: the step would leave a non-finite parameter or moment")


def _b_blocks(g: np.ndarray, queue: GradQueue, cfg: OptimizerConfig, boost):
    """``(cols, b[cols])`` for each column block, b the gradient the step applies."""
    if cfg.boost_enabled and queue.warmed_up:
        if boost is None:
            return queue._boosted_blocks(g, cfg.boost)
        b = np.asarray(boost(queue.stats()), float)
        if b.shape != g.shape:
            raise ValueError(f"boost hook returned shape {b.shape}, not the gradient's {g.shape}")
        g = b
    return ((c, g[c]) for c in _blocks(g.size))


def sgdm_step(state: SgdmState, g, cfg: OptimizerConfig, boost=None) -> SgdmState:
    """One momentum step: m <- beta*m + b, params <- params - lr*m.

    b is the (possibly boosted) gradient; no (1 - beta) damping is applied
    to it. The raw gradient is pushed onto the queue afterwards.
    """
    g = _gradient(g, state)
    beta, lr = cfg.beta, cfg.learning_rate
    momentum, params = np.empty(g.size), np.empty(g.size)
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _check_finite
        for c, b in _b_blocks(g, state.queue, cfg, boost):
            # momentum = beta * m + b; params = p - lr * momentum
            m, p = momentum[c], params[c]
            np.multiply(beta, state.momentum[c], out=m)
            np.add(m, b, out=m)
            np.multiply(lr, m, out=p)
            np.subtract(state.params[c], p, out=p)
            _check_finite(p)
    state.momentum, state.params = momentum, params
    state.queue._store(g)
    state.step_count += 1
    return state


def adam_step(state: AdamState, g, cfg: OptimizerConfig, boost=None) -> AdamState:
    """One bias-corrected Adam step on the (possibly boosted) gradient."""
    g = _gradient(g, state)
    t = state.step_count + 1
    b1, b2, lr, eps = cfg.beta, ADAM_BETA2, cfg.learning_rate, ADAM_EPSILON
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    first_moment, second_moment, params = np.empty(g.size), np.empty(g.size), np.empty(g.size)
    scratch = np.empty(_widest(g.size))
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _check_finite
        for c, bc in _b_blocks(g, state.queue, cfg, boost):
            # first = b1 * m1 + (1 - b1) * b
            # second = b2 * m2 + ((1 - b2) * b) * b
            # params = p - (lr * (first / c1)) / (sqrt(second / c2) + eps)
            m, v, p, tmp = first_moment[c], second_moment[c], params[c], scratch[: c.stop - c.start]
            np.multiply(b1, state.first_moment[c], out=m)
            np.multiply(1.0 - b1, bc, out=tmp)
            np.add(m, tmp, out=m)
            np.multiply(b2, state.second_moment[c], out=v)
            np.multiply(1.0 - b2, bc, out=tmp)
            np.multiply(tmp, bc, out=tmp)
            np.add(v, tmp, out=v)
            np.divide(v, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            np.add(tmp, eps, out=tmp)
            np.divide(m, c1, out=p)
            np.multiply(lr, p, out=p)
            np.divide(p, tmp, out=tmp)
            np.subtract(state.params[c], tmp, out=p)
            _check_finite(p, v)
    state.first_moment, state.second_moment, state.params = first_moment, second_moment, params
    state.queue._store(g)
    state.step_count = t
    return state
