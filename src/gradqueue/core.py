"""Gradient queue, instantaneous statistics, and the sparsity-boost operator.

The queue keeps the most recent raw gradient vectors. Per-coordinate mean
and standard deviation over the queue give each incoming gradient a
z-score; the boost operator rescales every coordinate by that z-score,
clamped to [1/rho, rho]. Rare (high z) components are amplified, repeating
ones are dampened.

The queue is a ring: one ``(capacity, dim)`` array allocated by the first
push, so later pushes copy into a slot and allocate nothing. The moment
kernel, ``GradQueue._block_moments``, computes the window's mean and std
a column block (``_blocks``) at a time, with the sums and divisions
``np.mean`` applies to the stacked window, oldest entry first; it is the
one place that chooses how. numpy reduces a C-contiguous ``(n, c)`` array
along axis 0 row by row when ``c >= 2``, starting from 0.0, but sums a
single column pairwise. So a vector narrower than two blocks of
``STATS_BLOCK`` columns is gathered and reduced by numpy, which keeps the
pairwise sum of ``d == 1``; a wider one adds ring-row slices, then squared
deviations, one row at a time: numpy's sums at any block width, so the
width is free to fit the cache. The boost kernel, ``_boost_block``,
follows it block by block: ``GradQueue._boosted_blocks`` runs both into
block scratch for the optimizers' unhooked boosted step, and ``stats``
and ``delta_rho`` into full-size arrays for a boost hook and library callers.

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
from functools import lru_cache
from operator import index

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


@lru_cache(maxsize=256)
def _blocks(d: int) -> tuple[slice, ...]:
    """Column slices of STATS_BLOCK columns covering d; the last takes the remainder.

    A vector narrower than two blocks is one block. The result is cached per d.
    """
    edges = [i * STATS_BLOCK for i in range(max(1, d // STATS_BLOCK))] + [d]
    return tuple(map(slice, edges[:-1], edges[1:]))


def _widest(d: int) -> int:
    """Width of d's widest column block, the last."""
    return d - _blocks(d)[-1].start


def _integer(name: str, value) -> int:
    """value as an int (numpy integers included), or a ValueError naming the setting."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class QueueStats:
    """Per-coordinate population mean/std over the most recent queue entries."""

    mean: np.ndarray
    std: np.ndarray
    sample_count: int

    def __post_init__(self):
        # read-only views: the caller's arrays stay writable, and nothing is copied
        object.__setattr__(self, "mean", np.atleast_1d(np.asarray(self.mean, float)).view())
        object.__setattr__(self, "std", np.atleast_1d(np.asarray(self.std, float)).view())
        if self.mean.shape != self.std.shape:
            raise ValueError(f"mean {self.mean.shape} and std {self.std.shape} differ in shape")
        if self.mean.ndim != 1:
            raise ValueError(f"mean and std must be 1-D, got shape {self.mean.shape}")
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
        self.capacity = _integer("capacity", capacity)
        if self.capacity < 1:
            raise ValueError("capacity must be a positive integer")
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
        value = _integer("effective_length", value)
        if not 1 <= value <= self.capacity:
            raise ValueError(f"effective_length must be in [1, {self.capacity}], got {value}")
        self._effective_length = value

    @property
    def warmed_up(self) -> bool:
        """True once enough entries exist for boosting to be meaningful."""
        return self._count >= min(3, self.capacity)

    def push(self, g) -> "GradQueue":
        return self._store(self._checked(g))

    def _checked(self, g) -> np.ndarray:
        """The one gradient check: g as a finite 1-D float64 vector of the queue's dimension."""
        g = np.atleast_1d(np.asarray(g, dtype=float))
        if g.ndim != 1:
            raise ValueError("gradients must be flattened to one dimension")
        if self._dim is not None and g.size != self._dim:
            raise ValueError(
                f"dimension mismatch: queue holds vectors of size {self._dim}, got {g.size}"
            )
        if not np.isfinite(g).all():
            raise ValueError("gradient has a non-finite coordinate")
        return g

    def _store(self, g: np.ndarray) -> "GradQueue":
        """Store a vector ``_checked`` returned, unchecked."""
        if self._ring is None:
            self._dim = g.shape[0]
            self._ring = np.empty((self.capacity, self._dim))
        self._ring[self._next] = g
        self._next = (self._next + 1) % self.capacity
        self._count = min(self._count + 1, self.capacity)
        return self

    def _window_slots(self, n: int) -> np.ndarray:
        """Ring slots of the newest n entries, oldest first."""
        start = (self._next - n) % self.capacity
        return self._slots[start : start + n]

    def _stats_slots(self) -> np.ndarray:
        """Ring slots of the effective window, oldest first."""
        if not self._count:
            raise ValueError("statistics undefined for an empty queue")
        return self._window_slots(min(self._effective_length, self._count))

    def as_array(self) -> np.ndarray:
        """Entries as an (n, d) array, oldest first."""
        if not self._count:
            raise ValueError("queue is empty")
        return self._ring[self._window_slots(self._count)]

    def stats(self) -> QueueStats:
        """Population mean/std per coordinate over the effective window."""
        slots = self._stats_slots()
        mean, std, sq = np.empty(self._dim), np.empty(self._dim), np.empty(_widest(self._dim))
        for cols in _blocks(self._dim):
            self._block_moments(slots, cols, mean[cols], std[cols], sq)
        return QueueStats(mean=mean, std=std, sample_count=slots.size)

    def _boosted_blocks(self, g: np.ndarray, cfg: BoostConfig):
        """Yield ``(cols, delta_rho(g, self.stats(), cfg)[cols])`` for each column block.

        ``g`` must be a vector ``_checked`` returned. Each block's moments
        and boost go into block scratch, so no full-size statistics exist.
        """
        slots = self._stats_slots()
        mean, std, out = (np.empty(_widest(self._dim)) for _ in range(3))
        for cols in _blocks(self._dim):
            m, s, b = (a[: cols.stop - cols.start] for a in (mean, std, out))
            self._block_moments(slots, cols, m, s, b)
            # yield outside the kernels' np.errstate blocks, which would leak to the caller
            yield cols, _boost_block(g[cols], m, s, cfg.rho, b)

    def _block_moments(self, slots, cols, mean, std, sq) -> None:
        """The moment kernel: the window's mean and std of columns ``cols``, into block views.

        ``slots`` are the window's ring slots, oldest first; ``sq`` is
        scratch at least as wide as the block. A vector narrower than two
        blocks is gathered and reduced by numpy; a wider one by ring rows.
        """
        if self._dim < 2 * STATS_BLOCK:  # one block: numpy sums a lone column pairwise
            return _moments(self._ring.take(slots, axis=0), mean, std)
        rows, n, sq = [self._ring[s, cols] for s in slots], slots.size, sq[: mean.size]
        with np.errstate(over="ignore", invalid="ignore"):
            np.add(rows[0], 0.0, out=mean)  # numpy's sum starts from 0.0
            for row in rows[1:]:
                np.add(mean, row, out=mean)
            np.divide(mean, n, out=mean)
            np.subtract(rows[0], mean, out=std)
            np.multiply(std, std, out=std)
            for row in rows[1:]:
                np.subtract(row, mean, out=sq)
                np.multiply(sq, sq, out=sq)
                np.add(std, sq, out=std)
            np.divide(std, n, out=std)
        _finish(mean, std, lambda: self._ring[:, cols].take(slots, axis=0))


def _moments(window: np.ndarray, mean: np.ndarray, std: np.ndarray) -> None:
    """Population mean and std of each column of a C-contiguous (n, c) window, into mean and std.

    Each mean is the column sum divided by n, exactly what ``np.mean``
    computes, without its Python wrapper.
    """
    n = window.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.reduce(window, axis=0, out=mean)
        mean /= n
        np.add.reduce((window - mean) ** 2, axis=0, out=std)
        std /= n
    _finish(mean, std, lambda: window)


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
        m, std = np.empty((2, scale.size))
        _moments(scaled, m, std)
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

    The scale is ``clip(z, 1/rho, rho)``, computed a column block at a time
    by ``_boost_block``; it equals the two-sided rule, because z > 1 lies
    above 1/rho and z <= 1 below rho. With finite statistics the result is
    finite wherever rho * |g_i| is; a z that overflows to inf is clamped to
    rho without a warning.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != stats.mean.shape:
        raise ValueError(f"dimension mismatch: gradient {g.shape} vs stats {stats.mean.shape}")
    out = np.empty(g.shape)
    for cols in _blocks(g.shape[0]):
        _boost_block(g[cols], stats.mean[cols], stats.std[cols], cfg.rho, out[cols])
    return out


def _boost_block(g, mean, std, rho: float, out: np.ndarray) -> np.ndarray:
    """The boost kernel: ``delta_rho`` of one column block, written into ``out``."""
    with np.errstate(over="ignore"):  # z = inf is clamped to rho
        np.subtract(g, mean, out=out)
        np.abs(out, out=out)
        # fmin skips NaN: this is (std <= SIGMA_FLOOR).any() in one reduction
        if np.fmin.reduce(std, initial=np.inf) <= SIGMA_FLOOR:
            degenerate = std <= SIGMA_FLOOR
            np.divide(out, np.where(degenerate, 1.0, std), out=out)
            # z is rho off the degenerate mean and 0 on it; the clip maps them to rho and 1/rho
            out[degenerate] = np.where(out[degenerate] > SIGMA_FLOOR, rho, 0.0)
        else:
            np.divide(out, std, out=out)
    np.clip(out, 1.0 / rho, rho, out=out)
    return np.multiply(out, g, out=out)


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
        self.window = _integer("window", window)
        self.min_length = _integer("min_length", min_length)
        self.max_length = _integer("max_length", max_length)
        if self.window < 1:
            raise ValueError("window must be a positive integer")
        if not 1 <= self.min_length <= self.max_length:
            raise ValueError("need 1 <= min_length <= max_length")
        if self.window > self.max_length:
            raise ValueError("window must not exceed max_length")
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
