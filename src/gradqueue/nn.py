"""Tiny line-detection model with exact per-sample gradients.

Two 3x3 convolution filters, global max pooling, and a 2-to-1 dense head
with a sigmoid/binary-cross-entropy loss. 23 parameters total. Gradients
are computed in closed form (reverse mode by hand), vectorized over the
batch, with the max-pool gradient routed to the first argmax location.

The convolution is nine scalar multiply-adds over shifted pixel slices,
one per filter tap, summed in the order numpy's einsum contraction uses,
so its responses keep the einsum's bytes (see ``batch_forward``). The
argmax patches are gathered at the same flat tap offsets.

An image's pooled features and argmax patches depend on that image alone,
so ``take_rows`` gathers them for any batch from one forward of a larger
stack; the dense head (``_head``) is recomputed on the gathered rows, as
its matrix product need not round a row the same way at every batch size.

A model's arrays may carry a leading axis of R runs (``from_vector`` of an
(R, 23) matrix, ``to_vector`` back): ``batch_forward`` convolves with all
2R filters at once, and every result carries the axis. Each value is
computed elementwise, or by a stacked ``np.matmul`` (the head, the
alignment) with one BLAS call per run, so a run's bytes are its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _integer

__all__ = [
    "IDEAL_HORIZONTAL",
    "IDEAL_VERTICAL",
    "N_PARAMS",
    "LineDetectorModel",
    "LineDataset",
    "generate_lines",
    "batch_forward",
    "per_sample_grads",
    "take_rows",
    "grads_from_forward",
    "batch_loss",
    "loss_from_forward",
    "template_alignment",
]

# ideal zero-mean detector filters: one per line orientation
IDEAL_HORIZONTAL = np.array([[-1, -1, -1], [2, 2, 2], [-1, -1, -1]], dtype=float)
IDEAL_VERTICAL = np.array([[-1, 2, -1], [-1, 2, -1], [-1, 2, -1]], dtype=float)

N_PARAMS = 23  # 2 * (9 + 1) conv + 2 + 1 dense
CONV_BLOCK = 8192  # pixels of whole images per block and filter pair: 128 KiB work buffers


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
    into range. A size that is not an integer, or a negative or non-finite
    ``noise_std``, raises ``ValueError``. Deterministic for a fixed seed.
    """
    height, width = _integer("height", height), _integer("width", width)
    p, q = _integer("p", p), _integer("q", q)
    if height < 3 or width < 3:
        raise ValueError("images must be at least 3x3")
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError("need non-negative counts with p + q >= 1")
    if noise_std < 0.0:
        raise ValueError(f"noise_std must be >= 0, got {noise_std}")
    if not np.isfinite(noise_std):
        raise ValueError(f"noise_std must be finite, got {noise_std}")
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


def _sigmoid(x):
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _bce_from_logit(logits, labels):
    # max(x,0) - x*y + log(1 + exp(-|x|)), stable for large |x|
    return (
        np.maximum(logits, 0.0)
        - logits * labels
        + np.log1p(np.exp(-np.abs(logits)))
    )


def _conv(images: np.ndarray, filters: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid 3x3 responses of F filters plus their biases, shape (F, B, h*w).

    The images go through in blocks of whole images of at most
    ``2 * CONV_BLOCK // F`` pixels (or one image), so the three (F, pixels)
    work buffers stay the same small size at every F and are reused. In a
    flattened block, tap (x, y) of the window at pixel p is pixel
    ``p + x*W + y``: each tap is one contiguous slice, multiplied by every
    filter's weight at once. The flat run covers every valid window; the
    windows that wrap past a row or an image end are cropped away.
    """
    B, H, W = images.shape
    F, h, w = len(filters), H - 2, W - 2
    per_block = max(1, min(B, 2 * CONV_BLOCK // (F * H * W)))
    acc, row, tmp = np.empty((3, F, per_block * H * W))
    resp = np.empty((F, B, h, w))
    for start in range(0, B, per_block):
        flat = images[start : start + per_block].reshape(-1)
        n = flat.size - 2 * W - 2  # one past the last valid window
        a, r, t = acc[:, :n], row[:, :n], tmp[:, :n]
        # like the einsum, no floating-point warnings: the cropped windows
        # meet non-finite pixels at taps that no valid window pairs them with
        with np.errstate(over="ignore", invalid="ignore"):
            for x in range(3):
                taps = [flat[x * W + y : x * W + y + n] for y in range(3)]
                np.multiply(taps[0], filters[:, x, 0, None], out=r)
                np.multiply(taps[2], filters[:, x, 2, None], out=t)
                r += t
                np.multiply(taps[1], filters[:, x, 1, None], out=t)
                r += t
                np.add(a if x else 0.0, r, out=a)
        count = flat.size // (H * W)
        valid = acc[:, : flat.size].reshape(F, count, H, W)[:, :, :h, :w]
        np.add(valid, bias[:, None, None, None], out=resp[:, start : start + count])
    return resp.reshape(F, B, h * w)


def batch_forward(model: LineDetectorModel, images: np.ndarray):
    """Logits, pooled features, and argmax patches for a (B, H, W) stack of images.

    Returns (logits (B,), features (B, 2), patches (B, 2, 3, 3)) where
    patches are the image windows at each filter's max response, used for
    gradient routing, gathered from each flattened image at the conv's flat
    tap offsets ``x*W + y`` past the argmax window's first pixel. A stacked
    model's results carry its leading run axis: (R, B), (R, B, 2) and
    (R, B, 2, 3, 3), from one ``_conv`` of all 2R filters.

    The responses are byte-equal to numpy's
    ``einsum("bijxy,fxy->bfij", windows, filters) + bias`` for images at
    least 4 pixels wide, because the tap sums add in the einsum's order.
    Kernel row x is ``(w[x,0]*p[x,0] + w[x,2]*p[x,2]) + w[x,1]*p[x,1]``:
    einsum, built for 128-bit SIMD (the x86-64 baseline), reduces the
    contiguous 3-long y axis in two lanes, lane 0 taking products 0 and 2
    and lane 1 product 1, and adds the lanes last. The three rows are then
    added in order to a sum that starts at +0.0, as einsum accumulates into
    a zeroed output (so a -0.0 row sum turns +0.0). Width-3 images are the
    exception: with one output column the 3x3 window is contiguous, einsum
    reduces all 9 products in one loop in another order, and the responses
    may differ from it in the last bits. tests/test_nn.py checks both.
    """
    images = np.asarray(images, dtype=float)
    if images.ndim != 3:
        raise ValueError(f"images must be a (B, H, W) stack, got shape {images.shape}")
    B, H, W = images.shape
    if H < 3 or W < 3:
        raise ValueError("images must be at least 3x3")
    runs = model.conv_bias.shape[:-1]  # () for one model, (R,) for a stack
    resp = _conv(images, model.conv_filters.reshape(-1, 3, 3), model.conv_bias.reshape(-1))
    arg = np.argmax(resp, axis=2)  # (2R, B): first max in row-major order
    best = np.take_along_axis(resp, arg[:, :, None], axis=2)[:, :, 0]
    # (2R, B) -> (..., B, 2): per image, both filters' features and argmax windows
    best, arg = (a.reshape(*runs, 2, B).swapaxes(-1, -2) for a in (best, arg))
    features = np.ascontiguousarray(best)
    first = arg // (W - 2) * W + arg % (W - 2)  # the argmax windows' first pixels
    taps = [x * W + y for x in range(3) for y in range(3)]
    patches = images.reshape(B, H * W)[np.arange(B)[:, None, None], first[..., None] + taps]
    return _head(model, features), features, patches.reshape(*runs, B, 2, 3, 3)


def _head(model: LineDetectorModel, features: np.ndarray) -> np.ndarray:
    """Logits (..., B) of (..., B, 2) features: a stacked matmul, one BLAS call per run."""
    logits = np.matmul(features, model.dense_weights[..., None])[..., 0]
    return logits + np.expand_dims(model.dense_bias, -1)


def take_rows(model: LineDetectorModel, forward_out, rows):
    """The ``batch_forward`` result of ``model`` on ``images[rows]``, from its result on ``images``.

    ``rows`` may repeat. Features, patches and logits are each computed
    once for all runs: features and patches are gathered, and the logits
    recomputed by ``_head``'s stacked product, because OpenBLAS rounds a
    one-row product ``f0*w0 + f1*w1`` (one fused multiply-add) unlike a
    product of two or more rows, so gathered logits would change bytes
    where one of the two stacks has a single row.
    """
    _, features, patches = forward_out
    features = np.take(features, rows, axis=-2)
    return _head(model, features), features, np.take(patches, rows, axis=-4)


def per_sample_grads(model: LineDetectorModel, images, labels):
    """Loss, exact loss gradient (23 parameters) and features per sample.

    ``images`` is a non-empty (B, H, W) stack. Returns (losses (B,),
    grads (B, 23), features (B, 2)).
    """
    images = np.asarray(images, dtype=float)
    if images.ndim == 3 and images.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    return grads_from_forward(model, batch_forward(model, images), labels)


def grads_from_forward(model: LineDetectorModel, forward_out, labels):
    """``per_sample_grads`` from the ``batch_forward`` result of ``model`` on the batch, per run."""
    logits, features, patches = forward_out
    labels = np.asarray(labels, dtype=float)
    losses = _bce_from_logit(logits, labels)
    dlogit = _sigmoid(logits) - labels  # (..., B)

    weights = model.dense_weights[..., None, :]  # (..., 1, 2)
    grads = np.empty((*logits.shape, N_PARAMS))
    dfilters = dlogit[..., None, None, None] * weights[..., None, None]
    grads[..., :18] = (dfilters * patches).reshape(*logits.shape, 18)
    grads[..., 18:20] = dlogit[..., None] * weights
    grads[..., 20:22] = dlogit[..., None] * features
    grads[..., 22] = dlogit
    return losses, grads, features


def batch_loss(model: LineDetectorModel, images, labels) -> float:
    return loss_from_forward(batch_forward(model, np.asarray(images, dtype=float)), labels)


def loss_from_forward(forward_out, labels):
    """``batch_loss`` (mean binary cross-entropy) from a ``batch_forward`` result; one per run."""
    losses = _bce_from_logit(forward_out[0], np.asarray(labels, dtype=float))
    return np.mean(losses, axis=-1).tolist()


def template_alignment(model: LineDetectorModel) -> np.ndarray:
    """Cosine similarity of each mean-subtracted filter to its ideal template: (2,) or (R, 2).

    Index 0 compares against the horizontal template, index 1 against the
    vertical one. A zero-norm filter scores 0. Each dot product and squared
    norm is one (1, 9) @ (9, 1) matmul, the BLAS dot of ``np.dot`` and
    ``np.linalg.norm``, so a stacked model's runs score as they do alone.
    """

    def dot(a, b):  # of (..., 1, 9) rows: one BLAS dot each
        return np.matmul(a, b.swapaxes(-1, -2))[..., 0, 0]

    filters = model.conv_filters.reshape(*model.conv_bias.shape, 1, 9)
    rows = filters - filters.mean(axis=-1, keepdims=True)
    templates = np.stack([IDEAL_HORIZONTAL, IDEAL_VERTICAL]).reshape(2, 1, 9)
    norms = np.sqrt(dot(rows, rows)) * np.sqrt(dot(templates, templates))
    return np.divide(dot(rows, templates), norms, out=np.zeros_like(norms), where=norms != 0.0)
