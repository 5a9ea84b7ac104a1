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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
CONV_BLOCK = 8192  # pixels of whole images per convolution block: 128 KiB work buffers


@dataclass
class LineDetectorModel:
    conv_filters: np.ndarray  # (2, 3, 3); index 0 horizontal role, 1 vertical
    conv_bias: np.ndarray  # (2,)
    dense_weights: np.ndarray  # (2,)
    dense_bias: float

    def to_vector(self) -> np.ndarray:
        return np.concatenate(
            [
                self.conv_filters.ravel(),
                self.conv_bias,
                self.dense_weights,
                [self.dense_bias],
            ]
        )

    @classmethod
    def from_vector(cls, vec) -> "LineDetectorModel":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (N_PARAMS,):
            raise ValueError(f"expected a vector of {N_PARAMS} parameters")
        return cls(
            conv_filters=vec[:18].reshape(2, 3, 3).copy(),
            conv_bias=vec[18:20].copy(),
            dense_weights=vec[20:22].copy(),
            dense_bias=float(vec[22]),
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
    into range. A negative or non-finite ``noise_std`` raises ``ValueError``.
    Deterministic for a fixed seed.
    """
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
    for i in range(p):
        images[i, rows[i], :] = 1.0
    for i in range(q):
        images[p + i, :, cols[i]] = 1.0
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
    """Valid 3x3 responses of both filters plus their biases, shape (2, B, h*w).

    The images go through in blocks of whole images of at most CONV_BLOCK
    pixels (or one image), so the three work buffers stay small and are
    reused. In a flattened block, tap (x, y) of the window at pixel p is
    pixel ``p + x*W + y``: each tap is one contiguous slice, multiplied by
    both filters' weights at once. The flat run covers every valid window;
    the windows that wrap past a row or an image end are cropped away.
    """
    B, H, W = images.shape
    h, w = H - 2, W - 2
    per_block = max(1, min(B, CONV_BLOCK // (H * W)))
    acc, row, tmp = (np.empty((2, per_block * H * W)) for _ in range(3))
    resp = np.empty((2, B, h, w))
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
        valid = acc[:, : flat.size].reshape(2, count, H, W)[:, :, :h, :w]
        np.add(valid, bias[:, None, None, None], out=resp[:, start : start + count])
    return resp.reshape(2, B, h * w)


def batch_forward(model: LineDetectorModel, images: np.ndarray):
    """Logits, pooled features, and argmax patches for a (B, H, W) stack of images.

    Returns (logits (B,), features (B, 2), patches (B, 2, 3, 3)) where
    patches are the image windows at each filter's max response, used for
    gradient routing, gathered from each flattened image at the conv's flat
    tap offsets ``x*W + y`` past the argmax window's first pixel.

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
    resp = _conv(images, model.conv_filters, model.conv_bias)
    arg = np.argmax(resp, axis=2)  # (2, B): first max in row-major order
    features = np.ascontiguousarray(np.take_along_axis(resp, arg[:, :, None], axis=2)[:, :, 0].T)
    first = arg.T // (W - 2) * W + arg.T % (W - 2)  # (B, 2): the argmax windows' first pixels
    taps = [x * W + y for x in range(3) for y in range(3)]
    patches = images.reshape(B, H * W)[np.arange(B)[:, None, None], first[:, :, None] + taps]
    return _head(model, features), features, patches.reshape(B, 2, 3, 3)


def _head(model: LineDetectorModel, features: np.ndarray) -> np.ndarray:
    """Logits (B,) of the dense head on pooled (B, 2) features."""
    return features @ model.dense_weights + model.dense_bias


def take_rows(model: LineDetectorModel, forward_out, rows):
    """The ``batch_forward`` result of ``model`` on ``images[rows]``, from its result on ``images``.

    ``rows`` may repeat. Features and patches are gathered; the logits are
    recomputed by ``_head``, because OpenBLAS rounds a one-row product
    ``f0*w0 + f1*w1`` (one fused multiply-add) unlike a product of two or
    more rows, so gathered logits would change bytes where one of the two
    stacks has a single row.
    """
    _, features, patches = forward_out
    features = features[rows]
    return _head(model, features), features, patches[rows]


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
    """``per_sample_grads`` from the ``batch_forward`` result of ``model`` on the batch."""
    logits, features, patches = forward_out
    labels = np.asarray(labels, dtype=float)
    losses = _bce_from_logit(logits, labels)
    dlogit = _sigmoid(logits) - labels  # (B,)

    B = logits.shape[0]
    grads = np.empty((B, N_PARAMS))
    dfilters = dlogit[:, None, None, None] * model.dense_weights[None, :, None, None]
    grads[:, :18] = (dfilters * patches).reshape(B, 18)
    grads[:, 18:20] = dlogit[:, None] * model.dense_weights[None, :]
    grads[:, 20:22] = dlogit[:, None] * features
    grads[:, 22] = dlogit
    return losses, grads, features


def batch_loss(model: LineDetectorModel, images, labels) -> float:
    return loss_from_forward(batch_forward(model, np.asarray(images, dtype=float)), labels)


def loss_from_forward(forward_out, labels) -> float:
    """``batch_loss`` (mean binary cross-entropy) from a ``batch_forward`` result."""
    return float(np.mean(_bce_from_logit(forward_out[0], np.asarray(labels, dtype=float))))


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a.ravel(), b.ravel()) / (na * nb))


def template_alignment(model: LineDetectorModel) -> np.ndarray:
    """Cosine similarity of each mean-subtracted filter to its ideal template.

    Index 0 compares against the horizontal template, index 1 against the
    vertical one. A zero-norm filter scores 0.
    """
    out = np.empty(2)
    for i, template in enumerate((IDEAL_HORIZONTAL, IDEAL_VERTICAL)):
        f = model.conv_filters[i]
        out[i] = _cosine(f - f.mean(), template)
    return out
