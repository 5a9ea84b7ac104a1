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

An update is computed a column block at a time (``core._blocks``) into
fresh arrays, with ``out=`` forms in the order of the plain expressions
written in each step's comment, so its bytes are theirs; only one scratch
block is allocated besides the results. The state's arrays are never
written: the step swaps in the new ones once they are known to be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import BoostConfig, GradQueue, _blocks, delta_rho

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
        # written so that NaN fails every check
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")
        if not 0.0 <= self.adam_beta2 < 1.0:
            raise ValueError(f"adam_beta2 must lie in [0, 1), got {self.adam_beta2}")
        if not 0.0 < self.adam_epsilon < math.inf:
            raise ValueError(f"adam_epsilon must be positive and finite, got {self.adam_epsilon}")


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
        if boost is None:
            return delta_rho(g, stats, cfg.boost)
        b = np.asarray(boost(stats), dtype=float)
        return b if b.shape == g.shape else np.broadcast_to(b, g.shape)
    return g


def sgdm_step(state: SgdmState, g, cfg: OptimizerConfig, boost=None) -> SgdmState:
    """One momentum step: m <- beta*m + b, params <- params - lr*m.

    b is the (possibly boosted) gradient; no (1 - beta) damping is applied
    to it. The raw gradient is pushed onto the queue afterwards.
    """
    g = _gradient(g, state.params)
    b = _boosted(g, state.queue, cfg, boost).ravel()
    old_m, old_p = state.momentum.ravel(), state.params.ravel()
    beta, lr = cfg.beta, cfg.learning_rate
    blocks = _blocks(g.size)
    momentum, params = np.empty(g.size), np.empty(g.size)
    scratch = np.empty(blocks[-1].stop - blocks[-1].start)
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _check_finite
        for c in blocks:
            # momentum = beta * m + b; params = p - lr * momentum
            m, p, tmp = momentum[c], params[c], scratch[: c.stop - c.start]
            np.multiply(beta, old_m[c], out=m)
            np.add(m, b[c], out=m)
            np.multiply(lr, m, out=tmp)
            np.subtract(old_p[c], tmp, out=p)
    _check_finite(params)
    state.momentum, state.params = momentum.reshape(g.shape), params.reshape(g.shape)
    state.queue.push(g)
    state.step_count += 1
    return state


def adam_step(state: AdamState, g, cfg: OptimizerConfig, boost=None) -> AdamState:
    """One bias-corrected Adam step on the (possibly boosted) gradient."""
    g = _gradient(g, state.params)
    b = _boosted(g, state.queue, cfg, boost).ravel()
    old_m, old_v = state.first_moment.ravel(), state.second_moment.ravel()
    old_p = state.params.ravel()
    t = state.step_count + 1
    b1, b2, lr, eps = cfg.beta, cfg.adam_beta2, cfg.learning_rate, cfg.adam_epsilon
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    blocks = _blocks(g.size)
    first_moment, second_moment, params = np.empty(g.size), np.empty(g.size), np.empty(g.size)
    scratch = np.empty(blocks[-1].stop - blocks[-1].start)
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _check_finite
        for c in blocks:
            # first = b1 * m1 + (1 - b1) * b
            # second = b2 * m2 + ((1 - b2) * b) * b
            # params = p - (lr * (first / c1)) / (sqrt(second / c2) + eps)
            m, v, p, tmp = first_moment[c], second_moment[c], params[c], scratch[: c.stop - c.start]
            bc = b[c]
            np.multiply(b1, old_m[c], out=m)
            np.multiply(1.0 - b1, bc, out=tmp)
            np.add(m, tmp, out=m)
            np.multiply(b2, old_v[c], out=v)
            np.multiply(1.0 - b2, bc, out=tmp)
            np.multiply(tmp, bc, out=tmp)
            np.add(v, tmp, out=v)
            np.divide(v, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            np.add(tmp, eps, out=tmp)
            np.divide(m, c1, out=p)
            np.multiply(lr, p, out=p)
            np.divide(p, tmp, out=tmp)
            np.subtract(old_p[c], tmp, out=p)
    _check_finite(params, second_moment)
    state.first_moment = first_moment.reshape(g.shape)
    state.second_moment = second_moment.reshape(g.shape)
    state.params = params.reshape(g.shape)
    state.queue.push(g)
    state.step_count = t
    return state
