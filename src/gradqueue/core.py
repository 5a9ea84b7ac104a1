"""Gradient queue, instantaneous statistics, and the sparsity-boost operator.

The queue keeps the most recent raw gradient vectors. Per-coordinate mean
and standard deviation over the queue give each incoming gradient a
z-score; the boost operator rescales every coordinate by that z-score,
clamped to [1/rho, rho]. Rare (high z) components are amplified, repeating
ones are dampened.

The queue is a ring: one ``(capacity, dim)`` array allocated by the first
push, so later pushes copy into a slot and allocate nothing. ``stats``
computes the sums and divisions ``np.mean`` would apply to the whole
stacked window, oldest entry first. numpy reduces a C-contiguous
``(n, c)`` array along axis 0 row by row when ``c >= 2``, starting from
0.0, but sums a single column pairwise. So a vector narrower than two
blocks of ``STATS_BLOCK`` columns is gathered into one ``(n, d)`` array
and reduced by numpy, which keeps the single-column sum of ``d == 1``.
A wider vector is reduced a column block at a time: its ring-row slices
are added one row at a time into the block's slice of the result, and so
are the squared deviations, with no gathered window. These row-by-row
sums are what numpy computes for any block width, so the width is free
to fit the cache. The column blocks come from ``_blocks``, which the
boost and the optimizer updates use too.

Overflow: a column whose mean or variance overflows (entries beyond about
1e154 in magnitude) is recomputed on its entries divided by their largest
magnitude, and the results are scaled back. The overflowing columns of
one block are gathered and reduced by numpy, so a lone one is summed
pairwise. Other columns keep their bytes, and finite entries always give
a finite mean and std.
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

STATS_BLOCK = 32768  # columns per block of the per-coordinate loops
SIGMA_FLOOR = 1e-12  # a std at or below this is zero variance to the boost


def _blocks(d: int) -> list[slice]:
    """Column slices of STATS_BLOCK columns covering d; the last takes the remainder.

    A vector narrower than two blocks is one block.
    """
    count = max(1, d // STATS_BLOCK)
    return [
        slice(i * STATS_BLOCK, d if i == count - 1 else (i + 1) * STATS_BLOCK)
        for i in range(count)
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
        if self.mean.shape != self.std.shape:
            raise ValueError(f"mean {self.mean.shape} and std {self.std.shape} differ in shape")
        # fmin skips NaN, so this refuses any negative coordinate
        if np.fmin.reduce(self.std, initial=0.0) < 0:
            raise ValueError("std coordinates must be non-negative")
        self.mean.setflags(write=False)
        self.std.setflags(write=False)


@dataclass(frozen=True)
class BoostConfig:
    """Parameters of the boost operator.

    rho is the clamp constant: per-coordinate scale factors are restricted
    to [1/rho, rho]. rho = 1 collapses the operator to the identity and is
    allowed so boosted and plain runs can be compared exactly. The
    zero-variance floor is the module constant ``SIGMA_FLOOR``.
    """

    rho: float = 3.0

    def __post_init__(self):
        # written so that NaN fails the check
        if not self.rho >= 1.0:
            raise ValueError(f"rho must be >= 1, got {self.rho}")


class GradQueue:
    """Bounded FIFO of flattened gradient vectors, stored as a ring.

    The oldest entry is evicted when the queue is full. All entries share
    one dimension, fixed by the first push, and are finite (a NaN or inf
    is rejected). ``effective_length``, ``capacity`` until set, controls
    how many of the most recent entries feed the statistics.

    Storage is a ring, one ``(capacity, dim)`` float64 array; a push into
    a full queue overwrites the oldest slot. ``stats`` reduces it in
    column blocks and rescales overflowing columns (see the module
    docstring for why the blocks keep every byte).
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be a positive integer")
        self.capacity = int(capacity)
        self._ring: np.ndarray | None = None
        self._dim: int | None = None
        self._next = 0  # the slot the next push writes
        self._count = 0
        # ring slots in push order from any start: _slots[start : start + n]
        self._slots = np.arange(2 * self.capacity) % self.capacity
        self._effective_length = self.capacity

    def __len__(self) -> int:
        return self._count

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
        return self._count >= min(3, self.capacity)

    def push(self, g) -> "GradQueue":
        g = np.atleast_1d(np.asarray(g, dtype=float))
        if g.ndim != 1:
            raise ValueError("gradients must be flattened to one dimension")
        if not np.isfinite(g).all():
            raise ValueError("gradient has a non-finite coordinate")
        if self._dim is None:
            self._dim = g.shape[0]
            self._ring = np.empty((self.capacity, self._dim))
        elif g.shape[0] != self._dim:
            raise ValueError(
                f"dimension mismatch: queue holds vectors of size {self._dim}, "
                f"got {g.shape[0]}"
            )
        self._ring[self._next] = g
        self._next = (self._next + 1) % self.capacity
        self._count = min(self._count + 1, self.capacity)
        return self

    def _window_slots(self, n: int) -> np.ndarray:
        """Ring slots of the newest n entries, oldest first."""
        start = (self._next - n) % self.capacity
        return self._slots[start : start + n]

    def as_array(self) -> np.ndarray:
        """Entries as an (n, d) array, oldest first."""
        if not self._count:
            raise ValueError("queue is empty")
        return self._ring[self._window_slots(self._count)]

    def stats(self) -> QueueStats:
        """Population mean/std per coordinate over the effective window."""
        if not self._count:
            raise ValueError("statistics undefined for an empty queue")
        n = min(self._effective_length, self._count)
        slots = self._window_slots(n)
        if self._dim < 2 * STATS_BLOCK:  # one block
            mean, std = _moments(self._ring.take(slots, axis=0))
            return QueueStats(mean=mean, std=std, sample_count=n)
        blocks = _blocks(self._dim)
        rows = [self._ring[s] for s in slots]  # oldest first
        mean, std = np.empty(self._dim), np.empty(self._dim)
        scratch = np.empty(blocks[-1].stop - blocks[-1].start)  # the widest block
        for cols in blocks:
            m, var, sq = mean[cols], std[cols], scratch[: cols.stop - cols.start]
            with np.errstate(over="ignore", invalid="ignore"):
                np.add(rows[0][cols], 0.0, out=m)  # numpy's sum starts from 0.0
                for row in rows[1:]:
                    np.add(m, row[cols], out=m)
                np.divide(m, n, out=m)
                np.subtract(rows[0][cols], m, out=var)
                np.multiply(var, var, out=var)
                for row in rows[1:]:
                    np.subtract(row[cols], m, out=sq)
                    np.multiply(sq, sq, out=sq)
                    np.add(var, sq, out=var)
                np.divide(var, n, out=var)
            _finish(m, var, lambda: self._ring[:, cols].take(slots, axis=0))
        return QueueStats(mean=mean, std=std, sample_count=n)


def _moments(window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Population mean and std of each column of a C-contiguous (n, c) window.

    Each mean is the column sum divided by n, exactly what ``np.mean``
    computes, without its Python wrapper.
    """
    n = window.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.add.reduce(window, axis=0)
        mean /= n
        var = np.add.reduce((window - mean) ** 2, axis=0)
        var /= n
    _finish(mean, var, lambda: window)
    return mean, var


def _finish(mean: np.ndarray, var: np.ndarray, gather) -> None:
    """Turn the variances into stds in place, rescaling overflowing columns.

    A column whose variance overflows (its mean may overflow too) is
    recomputed on its entries divided by their largest magnitude, and its
    mean and std are scaled back. ``gather()`` returns the C-contiguous
    (n, c) window of the columns; it is called only then.
    """
    # with finite entries, a finite variance implies a finite mean
    finite = np.isfinite(var)
    np.sqrt(var, out=var)
    if not finite.all():
        overflow = ~finite
        scaled = gather()[:, overflow]
        scale = np.abs(scaled).max(axis=0)
        scaled /= scale  # entries in [-1, 1]: their moments cannot overflow
        m, std = _moments(scaled)
        mean[overflow] = m * scale
        var[overflow] = std * scale


def delta_rho(g, stats: QueueStats, cfg: BoostConfig) -> np.ndarray:
    """Rescale each gradient coordinate by its clamped z-score.

    z_i = |g_i - mean_i| / std_i. Coordinates with z > 1 are scaled by
    min(z, rho); the rest by max(z, 1/rho). Signs are preserved and every
    scale lies in [1/rho, rho].

    Zero-variance coordinates (std <= ``SIGMA_FLOOR``): a coordinate within
    ``SIGMA_FLOOR`` of the (degenerate) mean is treated as maximally
    repetitive (z = 0, scale 1/rho); one farther from it as maximally rare
    (z = rho, scale rho).

    With no zero-variance coordinate the scale is ``clip(z, 1/rho, rho)``,
    computed in place a column block at a time in the result; it equals
    the two-sided rule, because z > 1 lies above 1/rho and z <= 1 below
    rho. With finite statistics the result is finite wherever rho * |g_i|
    is; a z that overflows to inf is clamped to rho without a warning.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != stats.mean.shape:
        raise ValueError(
            f"dimension mismatch: gradient {g.shape} vs stats {stats.mean.shape}"
        )
    # fmin skips NaN: this is (std <= SIGMA_FLOOR).any() in one reduction
    if np.fmin.reduce(stats.std, initial=np.inf) <= SIGMA_FLOOR:
        degenerate = stats.std <= SIGMA_FLOOR
        safe_std = np.where(degenerate, 1.0, stats.std)
        with np.errstate(over="ignore"):  # z = inf is clamped to rho
            dev = np.abs(g - stats.mean)
            z = dev / safe_std
        z = np.where(degenerate, np.where(dev > SIGMA_FLOOR, cfg.rho, 0.0), z)
        scale = np.where(z > 1.0, np.minimum(z, cfg.rho), np.maximum(z, 1.0 / cfg.rho))
        return scale * g
    out = np.empty(g.shape)
    for cols in _blocks(g.shape[0]):
        z, gc = out[cols], g[cols]
        with np.errstate(over="ignore"):  # z = inf is clamped to rho
            np.subtract(gc, stats.mean[cols], out=z)
            np.abs(z, out=z)
            np.divide(z, stats.std[cols], out=z)
        np.clip(z, 1.0 / cfg.rho, cfg.rho, out=z)
        np.multiply(z, gc, out=z)
    return out


class QueueLengthController:
    """Grows the effective queue length while recent losses keep shrinking.

    A window of size ``window`` is slid backward over the loss history,
    starting at the newest loss. Each backward step whose window sum is
    strictly larger than the previous one counts as one step of sustained
    decrease; the effective length is min_length plus that count, clamped
    to [min_length, max_length].

    ``loss_history`` keeps the newest ``window`` losses. Once it is full,
    each ``observe`` appends its ``sum``, oldest loss first, to
    ``_window_sums``, which keeps the newest max_length - min_length + 1
    window sums.
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
        self.loss_history: deque[float] = deque(maxlen=self.window)
        # sums of the newest windows, oldest first; the last ends at the newest loss
        self._window_sums: deque[float] = deque(maxlen=self.max_length - self.min_length + 1)

    def observe(self, loss: float) -> "QueueLengthController":
        self.loss_history.append(float(loss))
        if len(self.loss_history) == self.window:
            self._window_sums.append(sum(self.loss_history))
        return self

    def effective_length(self) -> int:
        sums = reversed(self._window_sums)  # newest window first
        count, prev = 0, next(sums, None)
        for cur in sums:
            if not cur > prev:
                break
            count, prev = count + 1, cur
        return self.min_length + count
