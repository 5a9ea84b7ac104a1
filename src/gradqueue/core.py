"""Gradient queue, instantaneous statistics, and the sparsity-boost operator.

The queue keeps the most recent raw gradient vectors. Per-coordinate mean
and standard deviation over the queue give each incoming gradient a
z-score; the boost operator rescales every coordinate by that z-score,
clamped to [1/rho, rho]. Rare (high z) components are amplified, repeating
ones are dampened.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GradQueue",
    "QueueStats",
    "BoostConfig",
    "QueueLengthController",
    "delta_rho",
]


@dataclass(frozen=True)
class QueueStats:
    """Per-coordinate population mean/std over the most recent queue entries."""

    mean: np.ndarray
    std: np.ndarray
    sample_count: int

    def __post_init__(self):
        object.__setattr__(self, "mean", np.atleast_1d(np.asarray(self.mean, float)))
        object.__setattr__(self, "std", np.atleast_1d(np.asarray(self.std, float)))
        if np.any(self.std < 0):
            raise ValueError("std coordinates must be non-negative")
        self.mean.setflags(write=False)
        self.std.setflags(write=False)


@dataclass(frozen=True)
class BoostConfig:
    """Parameters of the boost operator.

    rho is the clamp constant: per-coordinate scale factors are restricted
    to [1/rho, rho]. rho = 1 collapses the operator to the identity and is
    allowed so boosted and plain runs can be compared exactly.
    sigma_floor guards the z-score against zero standard deviation.
    """

    rho: float = 3.0
    sigma_floor: float = 1e-12

    def __post_init__(self):
        if self.rho < 1.0:
            raise ValueError(f"rho must be >= 1, got {self.rho}")
        if self.sigma_floor <= 0.0:
            raise ValueError("sigma_floor must be positive")


class GradQueue:
    """Bounded FIFO of flattened gradient vectors.

    The oldest entry is evicted when the queue is full. All entries share
    one dimension, fixed by the first push, and are finite (a NaN or inf
    is rejected). ``effective_length`` controls how many of the most
    recent entries feed the statistics.
    """

    def __init__(self, capacity: int, effective_length: int | None = None):
        if capacity < 1:
            raise ValueError("capacity must be a positive integer")
        self.capacity = int(capacity)
        self._entries: deque[np.ndarray] = deque(maxlen=self.capacity)
        self._dim: int | None = None
        self._effective_length = self.capacity
        if effective_length is not None:
            self.effective_length = effective_length

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def dim(self) -> int | None:
        return self._dim

    @property
    def effective_length(self) -> int:
        return self._effective_length

    @effective_length.setter
    def effective_length(self, value: int):
        if not 1 <= value <= self.capacity:
            raise ValueError(
                f"effective_length must be in [1, {self.capacity}], got {value}"
            )
        self._effective_length = int(value)

    @property
    def warmed_up(self) -> bool:
        """True once enough entries exist for boosting to be meaningful."""
        return len(self._entries) >= min(3, self.capacity)

    def push(self, g) -> "GradQueue":
        g = np.atleast_1d(np.asarray(g, dtype=float))
        if g.ndim != 1:
            raise ValueError("gradients must be flattened to one dimension")
        if not np.isfinite(g).all():
            raise ValueError("gradient has a non-finite coordinate")
        if self._dim is None:
            self._dim = g.shape[0]
        elif g.shape[0] != self._dim:
            raise ValueError(
                f"dimension mismatch: queue holds vectors of size {self._dim}, "
                f"got {g.shape[0]}"
            )
        self._entries.append(g.copy())
        return self

    def as_array(self) -> np.ndarray:
        """Entries as an (n, d) array, oldest first."""
        if not self._entries:
            raise ValueError("queue is empty")
        return np.stack(list(self._entries))

    def stats(self) -> QueueStats:
        """Population mean/std per coordinate over the effective window."""
        if not self._entries:
            raise ValueError("statistics undefined for an empty queue")
        n = min(self._effective_length, len(self._entries))
        window = np.stack(list(self._entries)[-n:])
        mean = window.mean(axis=0)
        var = np.mean((window - mean) ** 2, axis=0)
        return QueueStats(mean=mean, std=np.sqrt(var), sample_count=n)


def delta_rho(g, stats: QueueStats, cfg: BoostConfig) -> np.ndarray:
    """Rescale each gradient coordinate by its clamped z-score.

    z_i = |g_i - mean_i| / std_i. Coordinates with z > 1 are scaled by
    min(z, rho); the rest by max(z, 1/rho). Signs are preserved and every
    scale lies in [1/rho, rho].

    Zero-variance coordinates: a coordinate sitting on the (degenerate)
    mean is treated as maximally repetitive (z = 0, scale 1/rho); one far
    from it as maximally rare (z = rho, scale rho).
    """
    g = np.asarray(g, dtype=float)
    if g.shape != stats.mean.shape:
        raise ValueError(
            f"dimension mismatch: gradient {g.shape} vs stats {stats.mean.shape}"
        )
    dev = np.abs(g - stats.mean)
    degenerate = stats.std <= cfg.sigma_floor
    safe_std = np.where(degenerate, 1.0, stats.std)
    z = dev / safe_std
    z = np.where(degenerate, np.where(dev > cfg.sigma_floor, cfg.rho, 0.0), z)
    scale = np.where(z > 1.0, np.minimum(z, cfg.rho), np.maximum(z, 1.0 / cfg.rho))
    return scale * g


class QueueLengthController:
    """Grows the effective queue length while recent losses keep shrinking.

    A window of size ``window`` is slid backward over the loss history,
    starting at the newest loss. Each backward step whose window sum is
    strictly larger than the previous one counts as one step of sustained
    decrease; the effective length is min_length plus that count, clamped
    to [min_length, max_length].
    """

    def __init__(self, window: int = 2, min_length: int = 3, max_length: int = 5):
        if window < 1:
            raise ValueError("window must be a positive integer")
        if not 1 <= min_length <= max_length:
            raise ValueError("need 1 <= min_length <= max_length")
        if window > max_length:
            raise ValueError("window must not exceed max_length")
        self.window = int(window)
        self.min_length = int(min_length)
        self.max_length = int(max_length)
        # enough history to certify max_length - min_length increases
        self.loss_history: deque[float] = deque(
            maxlen=self.window + (self.max_length - self.min_length) + 1
        )

    def observe(self, loss: float) -> "QueueLengthController":
        self.loss_history.append(float(loss))
        return self

    def effective_length(self) -> int:
        h = list(self.loss_history)
        n = len(h)
        w = self.window
        if n < w:
            return self.min_length
        limit = self.max_length - self.min_length

        def window_sum(j):
            return sum(h[n - w - j : n - j])

        count = 0
        prev = window_sum(0)
        while count < limit and n - w - (count + 1) >= 0:
            cur = window_sum(count + 1)
            if cur > prev:
                count += 1
                prev = cur
            else:
                break
        length = self.min_length + count
        return max(self.min_length, min(length, self.max_length))
