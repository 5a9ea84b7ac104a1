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
from gradqueue import nn
from gradqueue.nn import (
    N_PARAMS,
    _conv,
    _sigmoid,
    batch_forward,
    batch_loss,
    grads_from_forward,
    loss_from_forward,
    take_rows,
)


def batch_grad(model, images, labels):
    """Gradient of the mean loss, accumulated directly over the batch."""
    images = np.asarray(images, dtype=float)
    labels = np.asarray(labels, dtype=float)
    logits, features, patches = batch_forward(model, images)
    dlogit = (_sigmoid(logits) - labels) / images.shape[0]  # (B,)
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
    logit = float(batch_forward(model, image[None])[0][0])
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
        logits, features, _ = batch_forward(model, np.zeros((1, 8, 8)))
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
        _, features, _ = batch_forward(model, img[None])
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
        _, features, _ = batch_forward(model, img[None])
        assert features[0, 0] == pytest.approx(6.0)

    def test_undersized_image_rejected(self):
        model = LineDetectorModel.init_random(0)
        with pytest.raises(ValueError):
            batch_forward(model, np.zeros((1, 2, 5)))


def einsum_forward(model, images):
    """The einsum convolution the tap sums must reproduce: (responses, logits, features, patches).

    Responses are (2, B, (H-2)*(W-2)), filter-major like ``_conv``.
    """
    B, H, W = images.shape
    windows = sliding_window_view(images, (3, 3), axis=(1, 2))
    resp = np.einsum("bijxy,fxy->bfij", windows, model.conv_filters)
    resp = resp + model.conv_bias[None, :, None, None]
    flat = resp.reshape(B, 2, -1)
    arg = np.argmax(flat, axis=2)
    features = np.take_along_axis(flat, arg[:, :, None], axis=2)[:, :, 0]
    i_star, j_star = np.unravel_index(arg, resp.shape[2:])
    patches = windows[np.arange(B)[:, None], i_star, j_star]
    logits = features @ model.dense_weights + model.dense_bias
    return flat.transpose(1, 0, 2), logits, features, patches


def tap_forward(model, images):
    resp = _conv(images, model.conv_filters, model.conv_bias)
    return (resp, *batch_forward(model, images))


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
    """The tap sums reproduce the einsum convolution byte for byte (signed zeros included)."""

    SIDES = (4, 5, 6, 7, 8, 12)

    @pytest.mark.parametrize("kind", ["random", "lines", "noisy"])
    @pytest.mark.parametrize("B", [1, 20, 100, 200])
    def test_byte_equal(self, kind, B):
        rng = np.random.default_rng(B)
        for H in (3,) + self.SIDES:
            for W in self.SIDES:
                model = signed_zero_model(rng)
                images = conv_images(kind, B, H, W, rng)
                assert_bytes_equal(tap_forward(model, images), einsum_forward(model, images))

    def test_signed_zero_sums(self):
        # every product -0.0: einsum's sum starts at +0.0
        model = LineDetectorModel.from_vector(np.zeros(N_PARAMS))
        model.conv_filters[:] = -0.0
        model.conv_bias[:] = -0.0
        images = np.ones((3, 5, 6))
        images[1] = 0.0
        images[2, ::2] = -0.0
        assert_bytes_equal(tap_forward(model, images), einsum_forward(model, images))
        assert not np.signbit(tap_forward(model, images)[0]).any()

    def test_one_image_per_block(self):
        rng = np.random.default_rng(7)
        model = signed_zero_model(rng)
        images = rng.random((3, 95, 97))  # more pixels than one block holds
        assert_bytes_equal(tap_forward(model, images), einsum_forward(model, images))

    def test_non_finite_pixels_warn_as_little_as_einsum(self):
        # einsum sets no floating-point flags; the cropped outputs pair
        # pixels with taps that no valid window pairs them with
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
            want = einsum_forward(model, images)
            got = tap_forward(model, images)
        assert_bytes_equal(got, want)

    @pytest.mark.parametrize("kind", ["random", "lines", "noisy"])
    def test_width_three_within_rounding(self, kind):
        # a one-column einsum reduces each window in one 9-element loop in
        # another order; each order's error is within 5 eps of the sum of
        # the magnitudes (9 products, 9 additions), so they differ by <= 10 eps
        rng = np.random.default_rng(3)
        for H in (3,) + self.SIDES:
            for B in (1, 20, 200):
                model = signed_zero_model(rng)
                images = conv_images(kind, B, H, 3, rng)
                got, want = tap_forward(model, images), einsum_forward(model, images)
                windows = sliding_window_view(np.abs(images), (3, 3), axis=(1, 2))
                magnitude = np.einsum("bijxy,fxy->fbij", windows, np.abs(model.conv_filters))
                magnitude = magnitude.reshape(got[0].shape) + np.abs(model.conv_bias)[:, None, None]
                tol = 10 * np.finfo(float).eps * magnitude
                assert np.all(np.abs(got[0] - want[0]) <= tol)
                assert np.all(np.abs(got[2] - want[2]) <= tol.max(axis=2).T)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.tuples(st.integers(1, 30), st.integers(3, 12), st.integers(4, 12)),
        data=st.data(),
        filters=hnp.arrays(float, (2, 3, 3), elements=st.floats(-1e3, 1e3)),
        bias=hnp.arrays(float, 2, elements=st.floats(-1e3, 1e3)),
    )
    def test_byte_equal_property(self, shape, data, filters, bias):
        images = data.draw(hnp.arrays(float, shape, elements=st.floats(-1e3, 1e3)))
        model = LineDetectorModel(filters, bias, np.array([0.5, -1.5]), 0.25)
        assert_bytes_equal(tap_forward(model, images), einsum_forward(model, images))


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
            _, _, patches = batch_forward(model, images)
        arg = np.argmax(_conv(images, model.conv_filters, model.conv_bias), axis=2).T
        windows = sliding_window_view(images, (3, 3), axis=(1, 2)).reshape(B, -1, 3, 3)
        want = windows[np.arange(B)[:, None], arg]
        assert patches.shape == want.shape == (B, 2, 3, 3)
        assert patches.tobytes() == want.tobytes()


class TestGradients:
    def test_finite_difference_agreement(self):
        for seed in range(3):
            model = LineDetectorModel.init_random(seed)
            ds = generate_lines(8, 8, 4, 2, noise_std=0.1, seed=seed + 50)
            _, grads, _ = per_sample_grads(model, ds.images, ds.labels)
            theta = model.to_vector()
            for i in range(len(ds)):
                fd = fd_gradient(theta, ds.images[i], float(ds.labels[i]))
                np.testing.assert_allclose(grads[i], fd, rtol=1e-5, atol=1e-8)

    def test_single_sample_batch(self):
        model = LineDetectorModel.init_random(1)
        ds = generate_lines(8, 8, 1, 0, seed=2)
        losses, grads, _ = per_sample_grads(model, ds.images, ds.labels)
        np.testing.assert_allclose(batch_grad(model, ds.images, ds.labels), grads[0])
        assert losses.shape == (1,)

    def test_duplicated_sample_identical_rows(self):
        model = LineDetectorModel.init_random(2)
        ds = generate_lines(8, 8, 1, 1, seed=3)
        images = np.stack([ds.images[0], ds.images[1], ds.images[0]])
        labels = np.array([0, 1, 0])
        _, grads, _ = per_sample_grads(model, images, labels)
        np.testing.assert_array_equal(grads[0], grads[2])

    def test_mean_grad_equals_grad_of_mean_loss(self):
        for seed in range(3):
            model = LineDetectorModel.init_random(seed + 7)
            ds = generate_lines(8, 8, 10, 4, noise_std=0.05, seed=seed)
            _, grads, _ = per_sample_grads(model, ds.images, ds.labels)
            direct = batch_grad(model, ds.images, ds.labels)
            np.testing.assert_allclose(grads.mean(axis=0), direct, rtol=1e-12, atol=1e-15)

    def test_empty_batch_rejected(self):
        model = LineDetectorModel.init_random(0)
        with pytest.raises(ValueError):
            per_sample_grads(model, np.zeros((0, 8, 8)), np.zeros(0))

    def test_one_forward_serves_loss_and_gradients(self):
        # the forward of the stored images gives the bytes of a forward of an indexed copy
        model = LineDetectorModel.init_random(4)
        ds = generate_lines(8, 8, 9, 3, noise_std=0.1, seed=5)
        out = batch_forward(model, ds.images)
        assert loss_from_forward(out, ds.labels) == batch_loss(model, ds.images, ds.labels)
        copy = np.arange(len(ds))
        for got, want in zip(
            grads_from_forward(model, out, ds.labels),
            per_sample_grads(model, ds.images[copy], ds.labels[copy]),
        ):
            assert got.tobytes() == want.tobytes()

    def test_loss_non_increasing_under_small_sgd(self):
        # plain full-batch gradient descent, noise-free data, fixed seeds
        for seed in (0, 1, 2):
            model = LineDetectorModel.init_random(seed)
            ds = generate_lines(8, 8, 20, 10, noise_std=0.0, seed=seed)
            theta = model.to_vector()
            losses = []
            for _ in range(50):
                m = LineDetectorModel.from_vector(theta)
                losses.append(batch_loss(m, ds.images, ds.labels))
                theta = theta - 0.02 * batch_grad(m, ds.images, ds.labels)
            losses.append(
                batch_loss(LineDetectorModel.from_vector(theta), ds.images, ds.labels)
            )
            assert all(loss >= 0.0 for loss in losses)
            assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestTakeRows:
    """Rows gathered from one forward of a stack are a fresh forward of those rows, byte for byte."""

    @staticmethod
    def check_subsets(model, images, rng):
        n = len(images)
        out = batch_forward(model, images)
        subsets = [rng.integers(0, n, size) for size in (1, 2, 2, n)]  # with repeats
        subsets += [np.array([n - 1]), np.full(2, rng.integers(n)), rng.permutation(n)]
        for rows in subsets:
            assert_bytes_equal(take_rows(model, out, rows), batch_forward(model, images[rows]))

    @pytest.mark.parametrize("width", range(3, 14))
    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_small_blocks(self, monkeypatch, width, noise):
        rng = np.random.default_rng(width + int(10 * noise))
        height = int(rng.integers(3, 14))
        ds = generate_lines(height, width, 20, 10, noise_std=noise, seed=width)
        # four images per convolution block: the whole stack spans several blocks
        monkeypatch.setattr(nn, "CONV_BLOCK", 4 * height * width)
        for model in (LineDetectorModel.init_random(width), signed_zero_model(rng)):
            self.check_subsets(model, ds.images, rng)

    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_stacked_logits_equal_solo(self, noise):
        # one- and two-row batches: OpenBLAS rounds a one-row head product apart
        rng = np.random.default_rng(11)
        ds = generate_lines(6, 7, 8, 4, noise_std=noise, seed=5)
        vectors = np.stack(
            [LineDetectorModel.init_random(9).to_vector()]
            + [signed_zero_model(rng).to_vector() for _ in range(3)]
        )
        stacked = LineDetectorModel.from_vector(vectors)
        out = batch_forward(stacked, ds.images)
        for rows in (np.array([3]), np.array([len(ds) - 1]), np.array([2, 2]), np.array([0, 9])):
            together = take_rows(stacked, out, rows)
            for r, vec in enumerate(vectors):
                alone = LineDetectorModel.from_vector(vec)
                want = take_rows(alone, batch_forward(alone, ds.images), rows)
                assert_bytes_equal([a[r] for a in together], want)
                assert_bytes_equal(want, batch_forward(alone, ds.images[rows]))

    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_default_block(self, noise):
        rng = np.random.default_rng(7)
        ds = generate_lines(13, 13, 110, 10, noise_std=noise, seed=8)
        assert len(ds) * 13 * 13 > 2 * nn.CONV_BLOCK
        self.check_subsets(signed_zero_model(rng), ds.images, rng)


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
            # the bytes of the cosine from np.dot and np.linalg.norm
            templates = (IDEAL_HORIZONTAL, IDEAL_VERTICAL)
            for got, f, template in zip(alone, vec[:18].reshape(2, 3, 3), templates):
                f = f - f.mean()
                na, nt = np.linalg.norm(f), np.linalg.norm(template)
                want = 0.0 if na == 0.0 else np.dot(f.ravel(), template.ravel()) / (na * nt)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_random_init_alignment_is_weak(self):
        # Monte Carlo: random filters rarely resemble the templates
        strong = 0
        for seed in range(100):
            align = template_alignment(LineDetectorModel.init_random(seed))
            strong += int(np.any(np.abs(align) >= 0.9))
        assert strong <= 5


MODEL = LineDetectorModel.init_random(0)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: LineDetectorModel.from_vector(np.zeros(N_PARAMS - 1)),
            f"expected a vector of {N_PARAMS} parameters",
        ),
        (lambda: generate_lines(8, 8, 0, 0), "need non-negative counts with p + q >= 1"),
        (lambda: generate_lines(8.0, 8, 2, 1), "height must be an integer, got 8.0"),
        (lambda: generate_lines(8, 2.5, 2, 1), "width must be an integer, got 2.5"),
        (lambda: generate_lines(8, 8, 2.5, 1), "p must be an integer, got 2.5"),
        (lambda: generate_lines(8, 8, 2, 1.0), "q must be an integer, got 1.0"),
        (lambda: generate_lines(math.nan, 8, 2, 1), "height must be an integer, got nan"),
        (
            lambda: batch_forward(MODEL, np.zeros((8, 8))),
            "images must be a (B, H, W) stack, got shape (8, 8)",
        ),
        (
            lambda: per_sample_grads(MODEL, np.zeros((8, 8)), [0]),
            "images must be a (B, H, W) stack, got shape (8, 8)",
        ),
        (
            lambda: per_sample_grads(MODEL, np.zeros((1, 1, 8, 8)), [0]),
            "images must be a (B, H, W) stack, got shape (1, 1, 8, 8)",
        ),
    ],
    ids=[
        "from-vector-length",
        "generate-lines-empty",
        "generate-lines-height-float",
        "generate-lines-width-fractional",
        "generate-lines-p-fractional",
        "generate-lines-q-float",
        "generate-lines-height-nan",
        "batch-forward-one-image",
        "per-sample-grads-one-image",
        "per-sample-grads-4d",
    ],
)
def test_refusal_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
