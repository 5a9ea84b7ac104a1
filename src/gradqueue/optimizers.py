"""SGDM and Adam update rules with optional queue-driven gradient boosting.

Both optimizers keep a queue of the raw gradients they have seen. When
boosting is enabled and the queue is past warm-up, the incoming gradient
is rescaled by the boost operator before entering the momentum (or
moment) accumulators; the raw gradient is pushed onto the queue after
every step.

Both steps take an optional ``boost`` hook, a callable from the queue
statistics to the boosted gradient. On a step that boosts (and only
then) it replaces ``delta_rho(g, stats, cfg.boost)``; ``train-lines``
passes one that aggregates boosted cluster means. A gradient with a NaN
or infinite coordinate, or one whose update overflows the parameters (or
Adam's second moment), raises ``ValueError`` before any state changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import BoostConfig, GradQueue, delta_rho

__all__ = ["OptimizerConfig", "SgdmState", "AdamState", "sgdm_step", "adam_step"]


@dataclass
class OptimizerConfig:
    learning_rate: float = 0.1
    beta: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    boost: BoostConfig = field(default_factory=BoostConfig)
    boost_enabled: bool = True

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
        if not 0.0 <= self.adam_beta2 < 1.0:
            raise ValueError("adam_beta2 must lie in [0, 1)")


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
        return cls(
            params=params,
            momentum=np.zeros_like(params),
            queue=GradQueue(capacity=capacity),
        )


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
        return cls(
            params=params,
            first_moment=np.zeros_like(params),
            second_moment=np.zeros_like(params),
            queue=GradQueue(capacity=capacity),
        )


def _gradient(g, params: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.shape != params.shape:
        raise ValueError(
            f"dimension mismatch: gradient {g.shape} vs params {params.shape}"
        )
    if not np.isfinite(g).all():
        raise ValueError("gradient has a non-finite coordinate")
    return g


def _check_finite(*arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("update overflows: the step would leave a non-finite parameter or moment")


def _boosted(g: np.ndarray, queue: GradQueue, cfg: OptimizerConfig, boost) -> np.ndarray:
    if cfg.boost_enabled and queue.warmed_up:
        stats = queue.stats()
        return boost(stats) if boost is not None else delta_rho(g, stats, cfg.boost)
    return g


def sgdm_step(state: SgdmState, g, cfg: OptimizerConfig, boost=None) -> SgdmState:
    """One momentum step: m <- beta*m + b, params <- params - lr*m.

    b is the (possibly boosted) gradient; no (1 - beta) damping is applied
    to it. The raw gradient is pushed onto the queue afterwards.
    """
    g = _gradient(g, state.params)
    b = _boosted(g, state.queue, cfg, boost)
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _check_finite
        momentum = cfg.beta * state.momentum + b
        params = state.params - cfg.learning_rate * momentum
    _check_finite(params)
    state.momentum, state.params = momentum, params
    state.queue.push(g)
    state.step_count += 1
    return state


def adam_step(state: AdamState, g, cfg: OptimizerConfig, boost=None) -> AdamState:
    """One bias-corrected Adam step on the (possibly boosted) gradient."""
    g = _gradient(g, state.params)
    b = _boosted(g, state.queue, cfg, boost)
    t = state.step_count + 1
    b1, b2 = cfg.beta, cfg.adam_beta2
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _check_finite
        first_moment = b1 * state.first_moment + (1.0 - b1) * b
        second_moment = b2 * state.second_moment + (1.0 - b2) * b * b
        m_hat = first_moment / (1.0 - b1**t)
        v_hat = second_moment / (1.0 - b2**t)
        params = state.params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_epsilon)
    _check_finite(params, second_moment)
    state.first_moment, state.second_moment, state.params = first_moment, second_moment, params
    state.queue.push(g)
    state.step_count = t
    return state
