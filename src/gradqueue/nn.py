"""Tiny line-detection model with exact per-sample gradients.

Two 3x3 convolution filters, global max pooling, and a 2-to-1 dense head
with a sigmoid/binary-cross-entropy loss. 23 parameters total. Gradients
are computed in closed form (reverse mode by hand), vectorized over the
batch, with the max-pool gradient routed to the first argmax location.

The forward's only input is a stack's ``Windows``, built once per stack: a
table of the byte-distinct 3x3 windows, at most 7 for noise-free line
images of any size, and each image's distinct windows in order. The
convolution runs over the table only: a window's response adds its nine tap
products in row-major tap order, starting from the first, and then the bias,
at every image size (see ``_conv``). Responses and argmax patches are
gathered from the table at each image's index.

An image's logit, pooled features and argmax patches depend on that image
alone, since the dense head (``_head``) is elementwise, and so do its loss
and gradient under its label: ``per_sample_grads`` of a batch's distinct
(image, label) pairs, gathered at each sample's row, is that of the batch.

A model's arrays may carry a leading axis of R runs (``from_vector`` of an
(R, 23) matrix, ``to_vector`` back): ``batch_forward`` convolves with all
2R filters at once, and every result carries the axis. Every value is
computed elementwise or by a reduce along one row, with no BLAS call, so
a run's bytes are its own and do not depend on the BLAS build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import _at_least

__all__ = [
    "IDEAL_HORIZONTAL",
    "IDEAL_VERTICAL",
    "N_PARAMS",
    "LineDetectorModel",
    "LineDataset",
    "Windows",
    "generate_lines",
    "batch_forward",
    "per_sample_grads",
    "batch_loss",
    "template_alignment",
]

# ideal zero-mean detector filters: one per line orientation
IDEAL_HORIZONTAL = np.array([[-1, -1, -1], [2, 2, 2], [-1, -1, -1]], dtype=float)
IDEAL_VERTICAL = np.array([[-1, 2, -1], [-1, 2, -1], [-1, 2, -1]], dtype=float)

N_PARAMS = 23  # 2 * (9 + 1) conv + 2 + 1 dense


@dataclass
class LineDetectorModel:
    conv_filters: np.ndarray  # (2, 3, 3) or (R, 2, 3, 3); index 0 horizontal role, 1 vertical
    conv_bias: np.ndarray  # (2,) or (R, 2)
    dense_weights: np.ndarray  # (2,) or (R, 2)
    dense_bias: float | np.ndarray  # or (R,)

    def to_vector(self) -> np.ndarray:
        """The (23,) vector of one model, or the (R, 23) matrix of a stacked model's runs."""
        runs = self.conv_bias.shape[:-1]
        parts = (self.conv_filters.reshape(*runs, 18), self.conv_bias, self.dense_weights)
        return np.concatenate([*parts, np.reshape(self.dense_bias, (*runs, 1))], axis=-1)

    @classmethod
    def from_vector(cls, vec) -> "LineDetectorModel":
        """The model of a (23,) vector, or the stacked model of an (R, 23) matrix's rows."""
        vec = np.asarray(vec, dtype=float)
        if vec.ndim not in (1, 2) or vec.shape[-1] != N_PARAMS:
            raise ValueError(f"expected a vector of {N_PARAMS} parameters")
        return cls(
            conv_filters=vec[..., :18].reshape(*vec.shape[:-1], 2, 3, 3).copy(),
            conv_bias=vec[..., 18:20].copy(),
            dense_weights=vec[..., 20:22].copy(),
            dense_bias=vec[..., 22].copy()[()],  # a float64 scalar for one model
        )

    @classmethod
    def init_random(cls, seed: int) -> "LineDetectorModel":
        rng = np.random.default_rng(seed)
        model = cls.from_vector(rng.uniform(-0.5, 0.5, N_PARAMS))
        # fix channel order: the filter wired to the larger dense weight starts
        # as the vertical-line candidate and goes last
        if model.dense_weights[0] > model.dense_weights[1]:
            model.conv_filters = model.conv_filters[::-1].copy()
            model.conv_bias = model.conv_bias[::-1].copy()
            model.dense_weights = model.dense_weights[::-1].copy()
        return model


@dataclass
class LineDataset:
    images: np.ndarray  # (n, H, W) in [0, 1]
    labels: np.ndarray  # (n,) 0 = horizontal, 1 = vertical

    def __len__(self) -> int:
        return self.images.shape[0]


def generate_lines(
    height: int,
    width: int,
    p: int,
    q: int,
    noise_std: float = 0.0,
    seed: int = 0,
) -> LineDataset:
    """p images with one random full row lit, q with one random full column.

    Pixels are in [0, 1]; optional additive Gaussian noise is clipped back
    into range. A size, count or seed that is not an integer or lies below
    its bound (3 for a size, 0 for a count or the seed; ``core._at_least``),
    p + q below 1, or a negative or non-finite ``noise_std`` raises
    ``ValueError``. Deterministic for a fixed seed.
    """
    height, width = _at_least("height", height, 3), _at_least("width", width, 3)
    p, q = _at_least("p", p, 0), _at_least("q", q, 0)
    if p + q < 1:
        raise ValueError("need p + q >= 1")
    if noise_std < 0.0:
        raise ValueError(f"noise_std must be >= 0, got {noise_std}")
    if not np.isfinite(noise_std):
        raise ValueError(f"noise_std must be finite, got {noise_std}")
    seed = _at_least("seed", seed, 0)
    rng = np.random.default_rng(seed)
    n = p + q
    images = np.zeros((n, height, width))
    labels = np.concatenate([np.zeros(p, dtype=int), np.ones(q, dtype=int)])
    rows = rng.integers(0, height, size=p)
    cols = rng.integers(0, width, size=q)
    images[np.arange(p), rows, :] = 1.0
    images[p + np.arange(q), :, cols] = 1.0
    if noise_std > 0.0:
        images = np.clip(images + rng.normal(0.0, noise_std, images.shape), 0.0, 1.0)
    return LineDataset(images=images, labels=labels)


class Windows:
    """The byte-distinct 3x3 windows of a (B, H, W) image stack, indexed per image.

    The forward's only input, built once per stack. ``table`` holds the D
    distinct windows tap-major, (9, D): row ``3*x + y`` is tap (x, y) of
    every window. Row b of the (B, M) ``index`` lists image b's distinct
    windows in the order they first occur in its row-major scan, padded
    with the row's first entry, so a row's first maximum response is the
    image's. Windows are grouped by bytes: a ``-0.0`` pixel keeps its
    window apart from ``0.0``. ``shape`` and ``len`` are the stack's.
    """

    def __init__(self, images):
        images = np.asarray(images, dtype=float)
        if images.ndim != 3:
            raise ValueError(f"images must be a (B, H, W) stack, got shape {images.shape}")
        B, H, W = self.shape = images.shape
        if H < 3 or W < 3:
            raise ValueError("images must be at least 3x3")
        windows = sliding_window_view(images, (3, 3), axis=(1, 2)).reshape(-1, 9)
        keys = windows.view(np.dtype((np.void, windows.itemsize * 9)))[:, 0]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        self.table = np.ascontiguousarray(windows[first].T)
        # each image's distinct windows, in order: its scan's first position of each window
        per_image = inverse.reshape(B, (H - 2) * (W - 2))
        keys = per_image + len(first) * np.arange(B)[:, None]  # (image, window) pairs
        seen = np.zeros(per_image.shape, dtype=bool)
        seen.flat[np.unique(keys, return_index=True)[1]] = True
        order = np.argsort(~seen, axis=1, kind="stable")[:, : seen.sum(axis=1).max(initial=1)]
        seen, index = (np.take_along_axis(a, order, axis=1) for a in (seen, per_image))
        self.index = np.where(seen, index, per_image[:, :1])  # padded with the first entry

    def __len__(self) -> int:
        return self.shape[0]


def _conv(table: np.ndarray, filters: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """(F, D) responses of F 3x3 filters plus their biases at a (9, D) table of windows.

    Each response is ``((w[0]*p[0] + w[1]*p[1]) + ... + w[8]*p[8]) + b`` over taps
    ``3*x + y`` in order: the sum starts from the first product, so it is -0.0 when
    every product and the bias are -0.0.
    """
    taps = filters.reshape(len(filters), 9, 1)
    resp, t = np.empty((2, len(filters), table.shape[1]))
    # no floating-point warnings at non-finite pixels
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(table[0], taps[:, 0], out=resp)
        for k in range(1, 9):
            resp += np.multiply(table[k], taps[:, k], out=t)
        resp += bias[:, None]
    return resp


def batch_forward(model: LineDetectorModel, windows: Windows):
    """Logits, pooled features, and argmax patches of a (B, H, W) stack's ``Windows``.

    Any other input raises ``TypeError``. Returns (logits (B,), features
    (B, 2), patches (B, 2, 3, 3)) where patches are the image windows at
    each filter's max response (the first in row-major order), used for
    gradient routing. Each distinct window is convolved once (``_conv`` of
    the table), its responses are gathered at each image's index, and the
    patches read from the table at the argmax. A stacked model's results
    carry its leading run axis: (R, B), (R, B, 2) and (R, B, 2, 3, 3), from
    one ``_conv`` of all 2R filters. A window's response adds its nine tap
    products in row-major tap order, from the first, and then the bias.
    """
    if not isinstance(windows, Windows):
        raise TypeError(f"images must be an nn.Windows, got {type(windows).__name__}")
    B = len(windows)
    runs = model.conv_bias.shape[:-1]  # () for one model, (R,) for a stack
    resp = _conv(windows.table, model.conv_filters.reshape(-1, 3, 3), model.conv_bias.reshape(-1))
    resp = resp[:, windows.index]  # (2R, B, M)
    arg = np.argmax(resp, axis=2)  # (2R, B): the first max, NaN included
    best = np.take_along_axis(resp, arg[:, :, None], axis=2)[:, :, 0]
    # (2R, B) -> (..., B, 2): per image, both filters' features and argmax windows
    best, arg = (a.reshape(*runs, 2, B).swapaxes(-1, -2) for a in (best, arg))
    features = np.ascontiguousarray(best)
    patches = windows.table.T[windows.index[np.arange(B)[:, None], arg]]
    return _head(model, features), features, patches.reshape(*runs, B, 2, 3, 3)


def _head(model: LineDetectorModel, features: np.ndarray) -> np.ndarray:
    """Logits (..., B) of (..., B, 2) features: ``(f0*w0 + f1*w1) + b``, each row on its own."""
    w, b = model.dense_weights[..., None, :], np.expand_dims(model.dense_bias, -1)
    return features[..., 0] * w[..., 0] + features[..., 1] * w[..., 1] + b


def per_sample_grads(model: LineDetectorModel, windows: Windows, labels):
    """Loss, exact loss gradient (23 parameters) and features per sample.

    ``windows`` is a non-empty stack's ``Windows`` (else ``TypeError``),
    ``labels`` its (B,) labels in [0, 1] (else ``ValueError``). Returns
    (losses (B,), grads (B, 23), features (B, 2)); a stacked model's
    results carry its leading run axis. Each row depends only on its own
    image and label, so gathering rows of the results for distinct (image,
    label) pairs gives the bytes of a call on the gathered pairs, per run.

    One ``exp(-|x|)`` of each logit x serves both the binary cross-entropy
    ``max(x, 0) - x*y + log1p(exp(-|x|))`` and the sigmoid, which is
    ``1 / (1 + exp(-x))`` for x >= 0 and ``exp(x) / (1 + exp(x))`` below.
    ``exp`` and ``log1p`` run in longdouble and round to float64: numpy has no
    SIMD loop for them there, so their bytes do not depend on the CPU features
    numpy dispatches on (they do on the C library's ``expl``/``log1pl``).
    """
    logits, features, patches = batch_forward(model, windows)
    if logits.shape[-1] == 0:
        raise ValueError("batch must be non-empty")
    labels = np.asarray(labels, dtype=float)
    if labels.shape != (len(windows),):
        raise ValueError(f"labels must have shape ({len(windows)},), got {labels.shape}")
    if not (labels.min() >= 0.0 and labels.max() <= 1.0):  # NaN fails both
        raise ValueError("labels must be in [0, 1]")
    e = np.exp(-np.abs(logits).astype(np.longdouble)).astype(float)
    softplus = np.log1p(e.astype(np.longdouble)).astype(float)
    losses = np.maximum(logits, 0.0) - logits * labels + softplus
    dlogit = np.where(logits >= 0, 1.0, e) / (1.0 + e) - labels  # (..., B)

    weights = model.dense_weights[..., None, :]  # (..., 1, 2)
    grads = np.empty((*logits.shape, N_PARAMS))
    dfilters = dlogit[..., None, None, None] * weights[..., None, None]
    grads[..., :18] = (dfilters * patches).reshape(*logits.shape, 18)
    grads[..., 18:20] = dlogit[..., None] * weights
    grads[..., 20:22] = dlogit[..., None] * features
    grads[..., 22] = dlogit
    return losses, grads, features


def batch_loss(model: LineDetectorModel, windows: Windows, labels):
    """Mean binary cross-entropy of a stack's ``Windows``: a float, or a list of one per run."""
    return np.mean(per_sample_grads(model, windows, labels)[0], axis=-1).tolist()


def template_alignment(model: LineDetectorModel) -> np.ndarray:
    """Cosine similarity of each mean-subtracted filter to its ideal template: (2,) or (R, 2).

    Index 0 compares against the horizontal template, index 1 against the
    vertical one. A zero-norm filter scores 0. Each dot product and squared
    norm is ``np.add.reduce(a * b, axis=-1)`` along one filter's 9 taps, so
    a stacked model's runs score as they do alone.
    """

    def dot(a, b):  # of (..., 9) rows, one row at a time
        return np.add.reduce(a * b, axis=-1)

    filters = model.conv_filters.reshape(*model.conv_bias.shape, 9)
    rows = filters - filters.mean(axis=-1, keepdims=True)
    templates = np.stack([IDEAL_HORIZONTAL, IDEAL_VERTICAL]).reshape(2, 9)
    norms = np.sqrt(dot(rows, rows)) * np.sqrt(dot(templates, templates))
    return np.divide(dot(rows, templates), norms, out=np.zeros_like(norms), where=norms != 0.0)
