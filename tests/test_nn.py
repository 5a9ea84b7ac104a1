import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

from gradqueue import (
    IDEAL_HORIZONTAL,
    IDEAL_VERTICAL,
    LineDetectorModel,
    generate_lines,
    per_sample_grads,
    template_alignment,
)
from gradqueue.nn import N_PARAMS, Windows, _conv, batch_forward, batch_loss


def exp_ld(x):
    """``exp`` computed in longdouble and rounded to float64."""
    return np.exp(np.asarray(x, dtype=np.longdouble)).astype(float)


def reference_sigmoid(x):
    """The logistic function, each sign branch computed on its own entries."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + exp_ld(-x[pos]))
    ex = exp_ld(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_bce(logits, labels):
    """Binary cross-entropy of a logit, ``max(x,0) - x*y + log(1 + exp(-|x|))``.

    ``exp`` and ``log1p`` each run in longdouble and round to float64.
    """
    softplus = np.log1p(exp_ld(-np.abs(logits)).astype(np.longdouble)).astype(float)
    return np.maximum(logits, 0.0) - logits * labels + softplus


def batch_grad(model, images, labels):
    """Gradient of the mean loss, accumulated directly over the batch."""
    images = np.asarray(images, dtype=float)
    labels = np.asarray(labels, dtype=float)
    logits, features, patches = batch_forward(model, Windows(images))
    dlogit = (reference_sigmoid(logits) - labels) / images.shape[0]  # (B,)
    grads = np.empty(N_PARAMS)
    grads[:18] = np.einsum(
        "b,f,bfxy->fxy", dlogit, model.dense_weights, patches
    ).ravel()
    grads[18:20] = dlogit.sum() * model.dense_weights
    grads[20:22] = dlogit @ features
    grads[22] = dlogit.sum()
    return grads


def sample_loss(theta, image, label):
    """Scalar loss for one sample, for the finite-difference oracle."""
    model = LineDetectorModel.from_vector(theta)
    logit = float(batch_forward(model, Windows(image[None]))[0][0])
    # stable binary cross-entropy on the sigmoid of the logit
    return max(logit, 0.0) - logit * label + np.log1p(np.exp(-abs(logit)))


def fd_gradient(theta, image, label, h=1e-5):
    grad = np.empty_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (sample_loss(up, image, label) - sample_loss(down, image, label)) / (
            2 * h
        )
    return grad


class TestDataset:
    def test_label_histogram(self):
        ds = generate_lines(8, 8, 95, 5, seed=0)
        assert len(ds) == 100
        assert np.bincount(ds.labels).tolist() == [95, 5]

    def test_line_geometry_noise_free(self):
        ds = generate_lines(8, 10, 4, 3, noise_std=0.0, seed=1)
        for img, label in zip(ds.images, ds.labels):
            assert img.sum() == (10 if label == 0 else 8)
            if label == 0:
                assert np.any(np.all(img == 1.0, axis=1))  # one full row lit
            else:
                assert np.any(np.all(img == 1.0, axis=0))  # one full column lit

    def test_deterministic_bytes(self):
        a = generate_lines(8, 8, 10, 5, noise_std=0.1, seed=42)
        b = generate_lines(8, 8, 10, 5, noise_std=0.1, seed=42)
        assert a.images.tobytes() == b.images.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_noise_stays_in_range(self):
        ds = generate_lines(8, 8, 20, 20, noise_std=0.5, seed=3)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_size_validation(self):
        with pytest.raises(ValueError):
            generate_lines(2, 8, 5, 5)

    @pytest.mark.parametrize(
        "noise_std, message",
        [
            (-1.0, "noise_std must be >= 0"),
            (-1e-300, "noise_std must be >= 0"),
            (np.nan, "noise_std must be finite, got nan"),
            (np.inf, "noise_std must be finite, got inf"),
        ],
    )
    def test_negative_noise_rejected(self, noise_std, message):
        with pytest.raises(ValueError, match=message):
            generate_lines(8, 8, 5, 5, noise_std=noise_std)


class TestForward:
    def test_zero_image_gives_dense_bias(self):
        model = LineDetectorModel(
            conv_filters=np.stack([IDEAL_HORIZONTAL, IDEAL_VERTICAL]),
            conv_bias=np.zeros(2),
            dense_weights=np.array([1.0, 1.0]),
            dense_bias=0.25,
        )
        logits, features, _ = batch_forward(model, Windows(np.zeros((1, 8, 8))))
        np.testing.assert_array_equal(features[0], [0.0, 0.0])
        assert logits[0] == 0.25

    def test_ideal_vertical_filter_on_column(self):
        model = LineDetectorModel(
            conv_filters=np.stack([IDEAL_HORIZONTAL, IDEAL_VERTICAL]),
            conv_bias=np.zeros(2),
            dense_weights=np.zeros(2),
            dense_bias=0.0,
        )
        img = np.zeros((8, 8))
        img[:, 4] = 1.0
        _, features, _ = batch_forward(model, Windows(img[None]))
        assert features[0, 1] == pytest.approx(6.0)  # three rows of +2

    def test_ideal_horizontal_filter_on_row(self):
        model = LineDetectorModel(
            conv_filters=np.stack([IDEAL_HORIZONTAL, IDEAL_VERTICAL]),
            conv_bias=np.zeros(2),
            dense_weights=np.zeros(2),
            dense_bias=0.0,
        )
        img = np.zeros((8, 8))
        img[3, :] = 1.0
        _, features, _ = batch_forward(model, Windows(img[None]))
        assert features[0, 0] == pytest.approx(6.0)

    def test_undersized_image_rejected(self):
        model = LineDetectorModel.init_random(0)
        with pytest.raises(ValueError):
            batch_forward(model, Windows(np.zeros((1, 2, 5))))


def oracle_forward(model, images):
    """The convolution at every window position: (responses, logits, features, patches).

    Each response adds the nine tap products in row-major tap order, from
    the first, and then the bias. Responses are (2, B, (H-2)*(W-2)),
    filter-major like ``_conv``.
    """
    B, H, W = images.shape
    windows = sliding_window_view(images, (3, 3), axis=(1, 2))
    taps = windows.reshape(B, 1, H - 2, W - 2, 9)
    weights = model.conv_filters.reshape(1, 2, 1, 1, 9)
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 and overflow give NaN, inf
        resp = taps[..., 0] * weights[..., 0]
        for k in range(1, 9):
            resp = resp + taps[..., k] * weights[..., k]
        resp = resp + model.conv_bias[None, :, None, None]
    flat = resp.reshape(B, 2, -1)
    arg = np.argmax(flat, axis=2)
    features = np.take_along_axis(flat, arg[:, :, None], axis=2)[:, :, 0]
    i_star, j_star = np.unravel_index(arg, resp.shape[2:])
    patches = windows[np.arange(B)[:, None], i_star, j_star]
    w, b = model.dense_weights, model.dense_bias
    logits = features[:, 0] * w[0] + features[:, 1] * w[1] + b
    return flat.transpose(1, 0, 2), logits, features, patches


def window_keys(rows):
    """One byte string per row of a (N, 9) array of windows."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * 9)))[:, 0]


def tap_forward(model, images):
    """``_conv``'s table responses at every window position, (2, B, h*w), and ``batch_forward``'s.

    Each position's window is looked up in the table by its bytes: every
    window must be in it, once.
    """
    B = len(images)
    windows = Windows(images)
    resp = _conv(windows.table, model.conv_filters, model.conv_bias)
    positions = sliding_window_view(images, (3, 3), axis=(1, 2)).reshape(-1, 9)
    D = windows.table.shape[1]
    keys = np.concatenate([window_keys(windows.table.T), window_keys(positions)])
    distinct, inverse = np.unique(keys, return_inverse=True)
    assert len(distinct) == D  # the table holds each window's bytes once
    column = np.empty(D, dtype=int)
    column[inverse[:D]] = np.arange(D)
    return (resp[:, column[inverse[D:]].reshape(B, -1)], *batch_forward(model, windows))


def conv_images(kind, B, H, W, rng):
    if kind == "random":
        return rng.random((B, H, W))
    noise = 0.3 if kind == "noisy" else 0.0
    ds = generate_lines(H, W, B, B, noise_std=noise, seed=int(rng.integers(1000)))
    return ds.images[rng.permutation(2 * B)[:B]]


def signed_zero_model(rng):
    """Filters at scales 1e-3..1e3 with some taps +0.0 and some -0.0."""
    vec = rng.normal(size=N_PARAMS)
    filters = vec[:18] * 10.0 ** rng.uniform(-3, 3, size=2).repeat(9)
    filters[rng.random(18) < 0.15] = 0.0
    filters[rng.random(18) < 0.15] = -0.0
    vec[:18] = filters
    return LineDetectorModel.from_vector(vec)


def assert_bytes_equal(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        bits = [np.ascontiguousarray(a).view(np.int64) for a in (g, w)]
        assert np.array_equal(*bits)


class TestConvMatchesEinsum:
    """The table's tap sums equal the tap-order oracle byte for byte (signed zeros included)."""

    SIDES = (3, 4, 5, 6, 7, 8, 12)

    @pytest.mark.parametrize("kind", ["random", "lines", "noisy"])
    @pytest.mark.parametrize("B", [1, 20, 100, 200])
    def test_byte_equal(self, kind, B):
        rng = np.random.default_rng(B)
        for H in self.SIDES:
            for W in self.SIDES:
                model = signed_zero_model(rng)
                images = conv_images(kind, B, H, W, rng)
                assert_bytes_equal(tap_forward(model, images), oracle_forward(model, images))

    def test_signed_zero_sums(self):
        # the sum starts from the first product: when every product and the bias are -0.0
        # (images 0 and 1), the response is -0.0; a +0.0 product (-0.0 pixels of image 2
        # times -0.0 taps, in every window) makes it +0.0
        model = LineDetectorModel.from_vector(np.zeros(N_PARAMS))
        model.conv_filters[:] = -0.0
        model.conv_bias[:] = -0.0
        images = np.ones((3, 5, 6))
        images[1] = 0.0
        images[2, ::2] = -0.0
        assert_bytes_equal(tap_forward(model, images), oracle_forward(model, images))
        resp = tap_forward(model, images)[0]
        assert np.signbit(resp[:, :2]).all() and not np.signbit(resp[:, 2]).any()

    def test_large_images(self):
        rng = np.random.default_rng(7)
        model = signed_zero_model(rng)
        images = rng.random((3, 95, 97))  # 26,505 distinct windows
        assert_bytes_equal(tap_forward(model, images), oracle_forward(model, images))

    def test_non_finite_pixels_warn_nothing(self):
        # inf * 0 and overflowing products raise no floating-point warning
        rng = np.random.default_rng(8)
        model = signed_zero_model(rng)
        model.conv_filters[:, 0, 1] = 0.0
        images = rng.random((4, 6, 7))
        images[0, 1, 0] = np.inf
        images[2, 3, 6] = -np.inf
        images[3, 5, 3] = np.nan
        images[1, 0, 0] = 1e308
        model.conv_filters[:, 2, 2] = 1e10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = oracle_forward(model, images)
            got = tap_forward(model, images)
        assert_bytes_equal(got, want)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.tuples(st.integers(1, 30), st.integers(3, 12), st.integers(3, 12)),
        data=st.data(),
        filters=hnp.arrays(float, (2, 3, 3), elements=st.floats(-1e3, 1e3)),
        bias=hnp.arrays(float, 2, elements=st.floats(-1e3, 1e3)),
    )
    def test_byte_equal_property(self, shape, data, filters, bias):
        images = data.draw(hnp.arrays(float, shape, elements=st.floats(-1e3, 1e3)))
        model = LineDetectorModel(filters, bias, np.array([0.5, -1.5]), 0.25)
        assert_bytes_equal(tap_forward(model, images), oracle_forward(model, images))


@pytest.mark.parametrize("H", range(3, 9))
@pytest.mark.parametrize("W", range(3, 9))
def test_patches_are_the_argmax_windows(H, W):
    # the patch gather against the window view, with non-finite pixels that
    # can win the argmax (NaN does) and lose it
    rng = np.random.default_rng(10 * H + W)
    for B in (1, 7):
        model = signed_zero_model(rng)
        images = rng.normal(size=(B, H, W))
        for bad in (np.nan, np.inf, -np.inf):
            images[rng.random(images.shape) < 0.05] = bad
        with np.errstate(invalid="ignore"):  # the head's product of NaN features
            _, _, patches = batch_forward(model, Windows(images))
            arg = np.argmax(tap_forward(model, images)[0], axis=2).T
        windows = sliding_window_view(images, (3, 3), axis=(1, 2)).reshape(B, -1, 3, 3)
        want = windows[np.arange(B)[:, None], arg]
        assert patches.shape == want.shape == (B, 2, 3, 3)
        assert patches.tobytes() == want.tobytes()


class TestWindows:
    """The window index: distinct windows by bytes, each image's in order of first occurrence."""

    def test_signed_zeros_stay_apart(self):
        images = np.zeros((2, 4, 5))
        images[1, 1, 1] = -0.0  # at a different tap of each of 4 windows
        windows = Windows(images)
        assert windows.table.shape == (9, 5) and windows.index.shape == (2, 5)
        assert windows.index[0].tolist() == [windows.index[0, 0]] * 5
        # zero filters tie every window at +0.0: the first, with the -0.0 at tap (1, 1), wins
        model = LineDetectorModel.from_vector(np.zeros(N_PARAMS))
        assert_bytes_equal(tap_forward(model, images), oracle_forward(model, images))
        patches = batch_forward(model, windows)[2]
        assert np.signbit(patches[1, :, 1, 1]).all() and np.signbit(patches).sum() == 2

    def test_a_tie_goes_to_the_first_position(self):
        # two distinct windows of an image respond 1.0; in either order, the earlier wins
        model = LineDetectorModel.from_vector(np.zeros(N_PARAMS))
        model.conv_filters[:, 1, 1] = 1.0
        a = np.zeros((5, 7))
        a[1, 1] = 1.0  # window (0, 0)
        a[2, 5], a[3, 6] = 1.0, 0.5  # window (1, 4), which the 0.5 at tap (2, 2) sets apart
        images = np.stack([a, a[::-1, ::-1]])
        _, features, patches = batch_forward(model, Windows(images))
        assert features.tolist() == [[1.0, 1.0], [1.0, 1.0]]
        assert patches[0, 0].tobytes() == a[0:3, 0:3].tobytes()
        assert patches[1, 0].tobytes() == images[1, 1:4, 0:3].tobytes()
        assert_bytes_equal(tap_forward(model, images), oracle_forward(model, images))

    def test_equal_windows_give_one_column(self):
        windows = Windows(np.full((3, 4, 6), 0.25))
        assert windows.table.shape == (9, 1) and windows.index.tolist() == [[0]] * 3
        assert np.shape(windows) == (3, 4, 6) and len(windows) == 3

    @pytest.mark.parametrize("runs", [(), (3,)])
    def test_empty_stack(self, runs):
        model = LineDetectorModel.from_vector(np.zeros((*runs, N_PARAMS)))
        shapes = [a.shape for a in batch_forward(model, Windows(np.zeros((0, 8, 8))))]
        assert shapes == [(*runs, 0), (*runs, 0, 2), (*runs, 0, 2, 3, 3)]


class TestGradients:
    def test_finite_difference_agreement(self):
        for seed in range(3):
            model = LineDetectorModel.init_random(seed)
            ds = generate_lines(8, 8, 4, 2, noise_std=0.1, seed=seed + 50)
            _, grads, _ = per_sample_grads(model, Windows(ds.images), ds.labels)
            theta = model.to_vector()
            for i in range(len(ds)):
                fd = fd_gradient(theta, ds.images[i], float(ds.labels[i]))
                np.testing.assert_allclose(grads[i], fd, rtol=1e-5, atol=1e-8)

    def test_single_sample_batch(self):
        model = LineDetectorModel.init_random(1)
        ds = generate_lines(8, 8, 1, 0, seed=2)
        losses, grads, _ = per_sample_grads(model, Windows(ds.images), ds.labels)
        np.testing.assert_allclose(batch_grad(model, ds.images, ds.labels), grads[0])
        assert losses.shape == (1,)

    def test_duplicated_sample_identical_rows(self):
        model = LineDetectorModel.init_random(2)
        ds = generate_lines(8, 8, 1, 1, seed=3)
        images = np.stack([ds.images[0], ds.images[1], ds.images[0]])
        labels = np.array([0, 1, 0])
        _, grads, _ = per_sample_grads(model, Windows(images), labels)
        np.testing.assert_array_equal(grads[0], grads[2])

    def test_mean_grad_equals_grad_of_mean_loss(self):
        for seed in range(3):
            model = LineDetectorModel.init_random(seed + 7)
            ds = generate_lines(8, 8, 10, 4, noise_std=0.05, seed=seed)
            _, grads, _ = per_sample_grads(model, Windows(ds.images), ds.labels)
            direct = batch_grad(model, ds.images, ds.labels)
            np.testing.assert_allclose(grads.mean(axis=0), direct, rtol=1e-12, atol=1e-15)

    def test_empty_batch_rejected(self):
        model = LineDetectorModel.init_random(0)
        with pytest.raises(ValueError):
            per_sample_grads(model, Windows(np.zeros((0, 8, 8))), np.zeros(0))

    def test_batch_loss_is_the_mean_sample_loss(self):
        model = LineDetectorModel.init_random(4)
        ds = generate_lines(8, 8, 9, 3, noise_std=0.1, seed=5)
        windows = Windows(ds.images)
        losses, _, _ = per_sample_grads(model, windows, ds.labels)
        assert batch_loss(model, windows, ds.labels) == np.mean(losses)
        rng = np.random.default_rng(4)
        vectors = np.stack([model.to_vector(), signed_zero_model(rng).to_vector()])
        stacked = batch_loss(LineDetectorModel.from_vector(vectors), windows, ds.labels)
        models = map(LineDetectorModel.from_vector, vectors)
        assert repr(stacked) == repr([batch_loss(m, windows, ds.labels) for m in models])

    def test_loss_and_sigmoid_match_the_references(self):
        # one exp(-|x|) per logit gives the bytes of the sign-branch sigmoid and the BCE;
        # runs of zero filters and dense weights -1 on a zero image have logit = dense bias
        rng = np.random.default_rng(12)
        special = [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 709.8, -709.8, 1e-300, -1e-300]
        logits = np.concatenate([special, rng.normal(scale=40.0, size=2000)])
        vectors = np.zeros((len(logits), N_PARAMS))
        vectors[:, 20:22], vectors[:, 22] = -1.0, logits
        model = LineDetectorModel.from_vector(vectors)
        for label in (0, 1):
            with np.errstate(invalid="ignore"):  # inf - inf at an infinite logit
                losses, grads, _ = per_sample_grads(model, Windows(np.zeros((1, 3, 3))), [label])
                want = reference_bce(logits, float(label))
            assert losses[:, 0].tobytes() == want.tobytes()
            assert grads[:, 0, 22].tobytes() == (reference_sigmoid(logits) - label).tobytes()

    def test_loss_non_increasing_under_small_sgd(self):
        # plain full-batch gradient descent, noise-free data, fixed seeds
        for seed in (0, 1, 2):
            model = LineDetectorModel.init_random(seed)
            ds = generate_lines(8, 8, 20, 10, noise_std=0.0, seed=seed)
            windows = Windows(ds.images)
            theta = model.to_vector()
            losses = []
            for _ in range(50):
                m = LineDetectorModel.from_vector(theta)
                losses.append(batch_loss(m, windows, ds.labels))
                theta = theta - 0.02 * batch_grad(m, ds.images, ds.labels)
            losses.append(batch_loss(LineDetectorModel.from_vector(theta), windows, ds.labels))
            assert all(loss >= 0.0 for loss in losses)
            assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def gather(results, rows):
    """Rows of ``per_sample_grads`` results: losses (..., B), grads and features (..., B, d)."""
    return [np.take(a, rows, axis=axis) for a, axis in zip(results, (-1, -2, -2))]


class TestGatheredRows:
    """Rows gathered from a ``per_sample_grads`` call are a fresh call on them, byte for byte."""

    @staticmethod
    def check_subsets(model, ds, rng):
        n = len(ds)
        out = per_sample_grads(model, Windows(ds.images), ds.labels)
        subsets = [rng.integers(0, n, size) for size in (1, 2, 2, n)]  # with repeats
        subsets += [np.array([n - 1]), np.full(2, rng.integers(n)), rng.permutation(n)]
        for rows in subsets:
            want = per_sample_grads(model, Windows(ds.images[rows]), ds.labels[rows])
            assert_bytes_equal(gather(out, rows), want)

    @pytest.mark.parametrize("width", range(3, 14))
    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_every_width(self, width, noise):
        rng = np.random.default_rng(width + int(10 * noise))
        height = int(rng.integers(3, 14))
        ds = generate_lines(height, width, 20, 10, noise_std=noise, seed=width)
        for model in (LineDetectorModel.init_random(width), signed_zero_model(rng)):
            self.check_subsets(model, ds, rng)

    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_stacked_runs_equal_solo(self, noise):
        # one- and two-row batches of a stack of four runs, each run's bytes its own
        rng = np.random.default_rng(11)
        ds = generate_lines(6, 7, 8, 4, noise_std=noise, seed=5)
        vectors = np.stack(
            [LineDetectorModel.init_random(9).to_vector()]
            + [signed_zero_model(rng).to_vector() for _ in range(3)]
        )
        stacked = LineDetectorModel.from_vector(vectors)
        windows = Windows(ds.images)
        out = per_sample_grads(stacked, windows, ds.labels)
        for rows in (np.array([3]), np.array([len(ds) - 1]), np.array([2, 2]), np.array([0, 9])):
            together = gather(out, rows)
            for r, vec in enumerate(vectors):
                alone = LineDetectorModel.from_vector(vec)
                want = gather(per_sample_grads(alone, windows, ds.labels), rows)
                assert_bytes_equal([a[r] for a in together], want)
                fresh = per_sample_grads(alone, Windows(ds.images[rows]), ds.labels[rows])
                assert_bytes_equal(want, fresh)

    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_many_images(self, noise):
        rng = np.random.default_rng(7)
        ds = generate_lines(13, 13, 110, 10, noise_std=noise, seed=8)
        # noisy, all but 18 of the 14,520 windows are distinct (clipping makes the 18 repeat)
        assert Windows(ds.images).table.shape[1] == (14502 if noise else 7)
        self.check_subsets(signed_zero_model(rng), ds, rng)


class TestModel:
    def test_vector_roundtrip(self):
        model = LineDetectorModel.init_random(5)
        back = LineDetectorModel.from_vector(model.to_vector())
        np.testing.assert_array_equal(back.to_vector(), model.to_vector())
        assert model.to_vector().shape == (N_PARAMS,)

    def test_stacked_vector_roundtrip(self):
        # a stacked model's rows are its runs' vectors; each run's arrays are its model's
        vectors = np.stack([LineDetectorModel.init_random(seed).to_vector() for seed in range(3)])
        stacked = LineDetectorModel.from_vector(vectors)
        for r, vec in enumerate(vectors):
            alone = LineDetectorModel.from_vector(vec)
            assert stacked.conv_filters[r].tobytes() == alone.conv_filters.tobytes()
            assert stacked.conv_bias[r].tobytes() == alone.conv_bias.tobytes()
            assert stacked.dense_weights[r].tobytes() == alone.dense_weights.tobytes()
            assert stacked.dense_bias[r] == alone.dense_bias

    @pytest.mark.parametrize("shape", [(N_PARAMS,), (1, N_PARAMS), (3, N_PARAMS)])
    def test_vector_roundtrip_bytes(self, shape):
        rng = np.random.default_rng(len(shape) + shape[0])
        vec = rng.normal(size=shape) * 10.0 ** rng.uniform(-5, 5, size=shape)
        vec[rng.random(shape) < 0.2] = -0.0
        back = LineDetectorModel.from_vector(vec).to_vector()
        assert back.shape == shape and back.tobytes() == vec.tobytes()

    def test_init_deterministic(self):
        a = LineDetectorModel.init_random(11)
        b = LineDetectorModel.init_random(11)
        np.testing.assert_array_equal(a.to_vector(), b.to_vector())

    def test_init_channel_order(self):
        for seed in range(20):
            model = LineDetectorModel.init_random(seed)
            assert model.dense_weights[1] >= model.dense_weights[0]

    def test_init_range(self):
        vec = LineDetectorModel.init_random(3).to_vector()
        assert np.all(np.abs(vec) <= 0.5)


class TestTemplateAlignment:
    def model_with_filters(self, f1, f2):
        return LineDetectorModel(
            conv_filters=np.stack([f1, f2]),
            conv_bias=np.zeros(2),
            dense_weights=np.zeros(2),
            dense_bias=0.0,
        )

    def test_exact_templates(self):
        model = self.model_with_filters(IDEAL_HORIZONTAL, IDEAL_VERTICAL)
        np.testing.assert_allclose(template_alignment(model), [1.0, 1.0], rtol=1e-12)

    def test_negated_templates(self):
        model = self.model_with_filters(-IDEAL_HORIZONTAL, -IDEAL_VERTICAL)
        np.testing.assert_allclose(template_alignment(model), [-1.0, -1.0], rtol=1e-12)

    def test_zero_filter_scores_zero(self):
        model = self.model_with_filters(np.zeros((3, 3)), IDEAL_VERTICAL)
        align = template_alignment(model)
        assert align[0] == 0.0 and align[1] == pytest.approx(1.0)

    def test_mean_subtraction(self):
        # a constant offset must not change the score
        model = self.model_with_filters(IDEAL_HORIZONTAL + 7.0, IDEAL_VERTICAL - 3.0)
        np.testing.assert_allclose(template_alignment(model), [1.0, 1.0], rtol=1e-12)

    def test_stacked_equals_each_run_alone(self):
        rng = np.random.default_rng(3)
        constant = LineDetectorModel.init_random(0).to_vector()
        constant[:9] = 0.25  # zero norm once its mean is subtracted
        vectors = np.stack(
            [
                constant,
                *(LineDetectorModel.init_random(seed).to_vector() for seed in range(6)),
                *(signed_zero_model(rng).to_vector() for _ in range(4)),
            ]
        )
        stacked = template_alignment(LineDetectorModel.from_vector(vectors))
        assert stacked.shape == (len(vectors), 2) and stacked[0, 0] == 0.0
        for row, vec in zip(stacked, vectors):
            alone = template_alignment(LineDetectorModel.from_vector(vec))
            assert alone.shape == (2,) and row.tobytes() == alone.tobytes()
            # the bytes of the cosine written out, each dot a row reduce of the products;
            # within rounding, the cosine from np.dot and np.linalg.norm
            templates = (IDEAL_HORIZONTAL, IDEAL_VERTICAL)
            for got, f, template in zip(alone, vec[:18].reshape(2, 9), templates):
                f, t = f - f.mean(), template.ravel()
                na, nt = np.sqrt(np.add.reduce(f * f)), np.sqrt(np.add.reduce(t * t))
                want = 0.0 if na == 0.0 else np.add.reduce(f * t) / (na * nt)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
                na = np.linalg.norm(f)
                blas = 0.0 if na == 0.0 else np.dot(f, t) / (na * np.linalg.norm(t))
                assert np.allclose(got, blas, rtol=1e-14, atol=0.0)

    def test_random_init_alignment_is_weak(self):
        # Monte Carlo: random filters rarely resemble the templates
        strong = 0
        for seed in range(100):
            align = template_alignment(LineDetectorModel.init_random(seed))
            strong += int(np.any(np.abs(align) >= 0.9))
        assert strong <= 5


MODEL = LineDetectorModel.init_random(0)
FIVE_IMAGES = Windows(generate_lines(8, 8, 3, 2, seed=0).images)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: LineDetectorModel.from_vector(np.zeros(N_PARAMS - 1)),
            f"expected a vector of {N_PARAMS} parameters",
        ),
        (lambda: generate_lines(8, 8, 0, 0), "need p + q >= 1"),
        (lambda: generate_lines(8.0, 8, 2, 1), "height must be an integer, got 8.0"),
        (lambda: generate_lines(8, 2.5, 2, 1), "width must be an integer, got 2.5"),
        (lambda: generate_lines(8, 8, 2.5, 1), "p must be an integer, got 2.5"),
        (lambda: generate_lines(8, 8, 2, 1.0), "q must be an integer, got 1.0"),
        (lambda: generate_lines(math.nan, 8, 2, 1), "height must be an integer, got nan"),
        (lambda: generate_lines(8, 8, 2, 1, seed=1.5), "seed must be an integer, got 1.5"),
        (lambda: generate_lines(8, 8, 2, 1, seed=-1), "seed must be >= 0, got -1"),
        (
            lambda: batch_forward(MODEL, Windows(np.zeros((8, 8)))),
            "images must be a (B, H, W) stack, got shape (8, 8)",
        ),
        (
            lambda: Windows(np.zeros((8, 8))),
            "images must be a (B, H, W) stack, got shape (8, 8)",
        ),
        (lambda: Windows(np.zeros((1, 8, 2))), "images must be at least 3x3"),
        (
            lambda: per_sample_grads(MODEL, Windows(np.zeros((8, 8))), [0]),
            "images must be a (B, H, W) stack, got shape (8, 8)",
        ),
        (
            lambda: per_sample_grads(MODEL, Windows(np.zeros((1, 1, 8, 8))), [0]),
            "images must be a (B, H, W) stack, got shape (1, 1, 8, 8)",
        ),
        (
            lambda: per_sample_grads(MODEL, FIVE_IMAGES, [1]),
            "labels must have shape (5,), got (1,)",
        ),
        (
            lambda: per_sample_grads(MODEL, FIVE_IMAGES, np.zeros((5, 5))),
            "labels must have shape (5,), got (5, 5)",
        ),
        (lambda: per_sample_grads(MODEL, FIVE_IMAGES, 1), "labels must have shape (5,), got ()"),
        (lambda: batch_loss(MODEL, FIVE_IMAGES, [0, 1]), "labels must have shape (5,), got (2,)"),
        (lambda: per_sample_grads(MODEL, FIVE_IMAGES, [7] * 5), "labels must be in [0, 1]"),
        (
            lambda: per_sample_grads(MODEL, FIVE_IMAGES, [0, 1, -1, 0, 1]),
            "labels must be in [0, 1]",
        ),
        (
            lambda: per_sample_grads(MODEL, FIVE_IMAGES, [0, 1, np.nan, 0, 1]),
            "labels must be in [0, 1]",
        ),
        (lambda: batch_loss(MODEL, FIVE_IMAGES, [np.nan] * 5), "labels must be in [0, 1]"),
    ],
    ids=[
        "from-vector-length",
        "generate-lines-empty",
        "generate-lines-height-float",
        "generate-lines-width-fractional",
        "generate-lines-p-fractional",
        "generate-lines-q-float",
        "generate-lines-height-nan",
        "generate-lines-seed-fractional",
        "generate-lines-seed-negative",
        "batch-forward-one-image",
        "windows-one-image",
        "windows-undersized",
        "per-sample-grads-one-image",
        "per-sample-grads-4d",
        "labels-one-for-five",
        "labels-matrix",
        "labels-scalar",
        "batch-loss-labels-two-for-five",
        "labels-seven",
        "labels-negative",
        "labels-one-nan",
        "batch-loss-labels-all-nan",
    ],
)
def test_refusal_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("forward", [batch_forward, per_sample_grads, batch_loss])
@pytest.mark.parametrize(
    "images",
    [np.zeros((2, 8, 8)), np.zeros((2, 8, 8)).tolist(), np.zeros((1, 1, 8, 8))],
    ids=["stack", "nested-list", "4d"],
)
def test_raw_stacks_are_refused(forward, images):
    # the forward's one input is a Windows index: a raw stack is refused, not indexed
    args = (MODEL, images) if forward is batch_forward else (MODEL, images, [0, 1])
    with pytest.raises(TypeError) as exc:
        forward(*args)
    assert str(exc.value) == f"images must be an nn.Windows, got {type(images).__name__}"


def test_labels_in_the_unit_interval_are_accepted():
    # soft labels and both ends: a defined binary cross-entropy
    labels = np.array([0.0, 1.0, 0.25, 1.0, 0.0])
    losses, grads, _ = per_sample_grads(MODEL, FIVE_IMAGES, labels)
    assert losses.shape == (5,) and grads.shape == (5, N_PARAMS)
    assert np.isfinite(losses).all() and np.isfinite(grads).all()
