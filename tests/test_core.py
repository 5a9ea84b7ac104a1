import math
import tracemalloc
import warnings
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradqueue import (
    BoostConfig,
    GradQueue,
    QueueLengthController,
    QueueStats,
    delta_rho,
)
from gradqueue.core import SIGMA_FLOOR, STATS_BLOCK, _blocks

# deterministic example streams, no example database written to disk
examples = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def vectors(d, elements):
    return hnp.arrays(np.float64, d, elements=elements)


# queue contents: 1-6 entries of one dimension, anywhere in the finite range
finite_entries = st.integers(1, 4).flatmap(
    lambda d: st.lists(
        vectors(d, st.floats(allow_nan=False, allow_infinity=False)), min_size=1, max_size=6
    )
)
# (g, mean, std) of one dimension; std is often exactly zero
boost_cases = st.integers(1, 12).flatmap(
    lambda d: st.tuples(
        vectors(d, st.floats(-1e6, 1e6)),
        vectors(d, st.floats(-1e6, 1e6)),
        vectors(d, st.one_of(st.just(0.0), st.floats(0.0, 1e3))),
    )
)
rhos = st.floats(1.0, 10.0)


def brute_force_stats(entries):
    """Independent mean/std oracle from raw moments (E[x^2] - E[x]^2)."""
    arr = np.stack([np.atleast_1d(np.asarray(e, float)) for e in entries])
    mean = arr.sum(axis=0) / len(entries)
    second = (arr * arr).sum(axis=0) / len(entries)
    return mean, np.sqrt(np.maximum(second - mean * mean, 0.0))


class OracleQueue:
    """The deque queue the ring replaced: stacks its window on every call."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.effective_length = capacity
        self._entries = deque(maxlen=capacity)

    def __len__(self):
        return len(self._entries)

    @property
    def warmed_up(self):
        return len(self._entries) >= min(3, self.capacity)

    def push(self, g):
        self._entries.append(np.atleast_1d(np.asarray(g, dtype=float)).copy())

    def as_array(self):
        return np.stack(list(self._entries))

    def stats(self):
        n = min(self.effective_length, len(self._entries))
        window = np.stack(list(self._entries)[-n:])
        mean = window.mean(axis=0)
        var = np.mean((window - mean) ** 2, axis=0)
        return QueueStats(mean=mean, std=np.sqrt(var), sample_count=n)


def oracle_delta_rho(g, stats, cfg):
    """The two-sided where/minimum/maximum rule delta_rho replaced by a clip."""
    dev = np.abs(g - stats.mean)
    degenerate = stats.std <= SIGMA_FLOOR
    safe_std = np.where(degenerate, 1.0, stats.std)
    z = dev / safe_std
    z = np.where(degenerate, np.where(dev > SIGMA_FLOOR, cfg.rho, 0.0), z)
    scale = np.where(z > 1.0, np.minimum(z, cfg.rho), np.maximum(z, 1.0 / cfg.rho))
    return scale * g


def assert_same_queue(ring, oracle):
    assert len(ring) == len(oracle)
    assert ring.warmed_up == oracle.warmed_up
    assert ring.as_array().tobytes() == oracle.as_array().tobytes()
    got, want = ring.stats(), oracle.stats()
    assert got.sample_count == want.sample_count
    assert got.mean.tobytes() == want.mean.tobytes()
    assert got.std.tobytes() == want.std.tobytes()


def random_gradient(rng, dim, kind):
    """A gradient of one of four shapes; entries stay far from overflow."""
    if kind == "constant":
        return np.full(dim, 0.1)
    g = rng.normal(size=dim) * 10.0 ** rng.integers(-8, 9)
    if kind == "rounded":  # repeated values and ties
        return np.round(g, 1)
    if kind == "sparse":
        g[rng.random(dim) < 0.9] = 0.0
    if kind == "signed_zeros":  # numpy's sums start from +0.0, so -0.0 columns sum to +0.0
        g[rng.random(dim) < 0.5] = -0.0
    return g


class TestGradQueue:
    def test_fifo_eviction(self):
        q = GradQueue(capacity=3)
        for v in ([1.0], [2.0], [3.0]):
            q.push(v)
        q.push([4.0])
        np.testing.assert_array_equal(q.as_array(), [[2.0], [3.0], [4.0]])
        assert len(q) == 3

    def test_push_into_empty(self):
        q = GradQueue(capacity=3)
        q.push([7.0, 1.0])
        np.testing.assert_array_equal(q.as_array(), [[7.0, 1.0]])
        assert q.dim == 2

    def test_dimension_mismatch_rejected(self):
        q = GradQueue(capacity=3)
        q.push([1.0, 2.0])
        with pytest.raises(ValueError, match="dimension"):
            q.push([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        q = GradQueue(capacity=3)
        with pytest.raises(ValueError, match="non-finite"):
            q.push([bad])
        assert len(q) == 0 and q.dim is None  # the first push fixes no dimension
        q.push([1.0, 2.0])
        with pytest.raises(ValueError, match="non-finite"):
            q.push([1.0, bad])
        np.testing.assert_array_equal(q.as_array(), [[1.0, 2.0]])

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            GradQueue(capacity=0)

    def test_entries_are_copies(self):
        q = GradQueue(capacity=2)
        g = np.array([1.0])
        q.push(g)
        g[0] = 99.0
        assert q.as_array()[0, 0] == 1.0


class TestStats:
    def test_scalar_example(self):
        q = GradQueue(capacity=3)
        for v in (1.0, 2.0, 3.0):
            q.push([v])
        s = q.stats()
        assert s.mean[0] == pytest.approx(2.0, rel=1e-12)
        assert s.std[0] == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-12)
        assert s.sample_count == 3

    def test_zero_variance(self):
        q = GradQueue(capacity=4)
        for _ in range(3):
            q.push([5.0, -2.0])
        s = q.stats()
        np.testing.assert_allclose(s.mean, [5.0, -2.0])
        np.testing.assert_array_equal(s.std, [0.0, 0.0])

    def test_two_value_queue_matches_direct_variance(self):
        # four copies of u plus one C: std = sqrt(L-1) * |u - C| / L
        q = GradQueue(capacity=5)
        for _ in range(4):
            q.push([1.0])
        q.push([9.0])
        s = q.stats()
        assert s.std[0] == pytest.approx(3.2, rel=1e-12)
        assert s.mean[0] == pytest.approx(2.6, rel=1e-12)

    def test_empty_queue_raises(self):
        with pytest.raises(ValueError, match="empty"):
            GradQueue(capacity=3).stats()

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        q = GradQueue(capacity=6)
        entries = [rng.normal(size=4) * 10 for _ in range(6)]
        for e in entries:
            q.push(e)
        mean, std = brute_force_stats(entries)
        s = q.stats()
        np.testing.assert_allclose(s.mean, mean, rtol=1e-12)
        np.testing.assert_allclose(s.std, std, rtol=1e-12, atol=1e-13)

    def test_effective_length_window(self):
        q = GradQueue(capacity=5)
        for v in (10.0, 1.0, 2.0, 3.0):
            q.push([v])
        q.effective_length = 3
        s = q.stats()
        assert s.sample_count == 3
        assert s.mean[0] == pytest.approx(2.0)  # the 10.0 is outside the window

    def test_effective_length_bounds(self):
        q = GradQueue(capacity=4)
        with pytest.raises(ValueError):
            q.effective_length = 0
        with pytest.raises(ValueError):
            q.effective_length = 5

    def test_stats_are_readonly(self):
        q = GradQueue(capacity=3)
        q.push([1.0])
        s = q.stats()
        with pytest.raises(ValueError):
            s.mean[0] = 5.0


class TestDeltaRho:
    def cfg(self, rho=3.0):
        return BoostConfig(rho=rho)

    def stats(self, mean, std, n=5):
        return QueueStats(np.asarray(mean, float), np.asarray(std, float), n)

    def test_amplification_clamped(self):
        out = delta_rho(np.array([5.0]), self.stats([1.0], [1.0]), self.cfg())
        assert out[0] == pytest.approx(15.0, rel=1e-12)  # z=4 clamps to rho=3

    def test_on_mean_floor(self):
        out = delta_rho(np.array([2.0]), self.stats([2.0], [1.0]), self.cfg())
        assert out[0] == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_identity_at_unit_distance(self):
        out = delta_rho(np.array([2.0]), self.stats([1.0], [1.0]), self.cfg())
        assert out[0] == pytest.approx(2.0, rel=1e-12)

    def test_clamp_bound_and_sign(self):
        rng = np.random.default_rng(11)
        cfg = self.cfg(rho=2.5)
        for _ in range(50):
            g = rng.normal(size=8) * rng.uniform(0.1, 10)
            st = self.stats(rng.normal(size=8), rng.uniform(0.01, 5, size=8))
            out = delta_rho(g, st, cfg)
            mag = np.abs(g)
            assert np.all(np.abs(out) <= 2.5 * mag + 1e-15)
            assert np.all(np.abs(out) >= mag / 2.5 - 1e-15)
            nz = g != 0
            assert np.all(np.sign(out[nz]) == np.sign(g[nz]))

    def test_scale_equivariance_exact_for_pow2(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=6)
        mean = rng.normal(size=6)
        std = rng.uniform(0.5, 2.0, size=6)
        cfg = self.cfg()
        base = delta_rho(g, self.stats(mean, std), cfg)
        for c in (2.0, -4.0, 0.5, -0.25, 8.0):
            out = delta_rho(c * g, self.stats(c * mean, abs(c) * std), cfg)
            np.testing.assert_array_equal(out, c * base)

    def test_scale_equivariance_general(self):
        rng = np.random.default_rng(4)
        g = rng.normal(size=6)
        mean = rng.normal(size=6)
        std = rng.uniform(0.5, 2.0, size=6)
        cfg = self.cfg()
        base = delta_rho(g, self.stats(mean, std), cfg)
        for c in (3.7, -0.013, 129.4):
            out = delta_rho(c * g, self.stats(c * mean, abs(c) * std), cfg)
            np.testing.assert_allclose(out, c * base, rtol=1e-12)

    def test_rho_near_one_is_near_identity(self):
        rng = np.random.default_rng(5)
        g = rng.normal(size=10)
        st = self.stats(rng.normal(size=10), rng.uniform(0.1, 2, size=10))
        out = delta_rho(g, st, BoostConfig(rho=1.0 + 1e-9))
        np.testing.assert_allclose(out, g, rtol=2e-9)

    def test_rho_one_is_identity_bitwise(self):
        rng = np.random.default_rng(6)
        g = rng.normal(size=10)
        st = self.stats(rng.normal(size=10), rng.uniform(0.0, 2, size=10))
        out = delta_rho(g, st, BoostConfig(rho=1.0))
        np.testing.assert_array_equal(out, g)

    def test_rho_below_one_rejected(self):
        with pytest.raises(ValueError):
            BoostConfig(rho=0.9)

    def test_nan_rho_rejected(self):
        with pytest.raises(ValueError, match="must be"):
            BoostConfig(rho=np.nan)

    def test_repeated_value_damping_scale(self):
        # queue of L-1 copies of u and one C: scale on u is
        # max(1/sqrt(L-1), 1/rho)
        for L, rho in ((4, 3.0), (5, 3.0), (8, 2.0), (17, 3.0)):
            q = GradQueue(capacity=L)
            for _ in range(L - 1):
                q.push([-1.5])
            q.push([6.0])
            out = delta_rho(np.array([-1.5]), q.stats(), BoostConfig(rho=rho))
            expected = max(1.0 / np.sqrt(L - 1), 1.0 / rho)
            assert out[0] / -1.5 == pytest.approx(expected, rel=1e-10)

    def test_sigma_floor_rules(self):
        cfg = self.cfg(rho=3.0)
        st = self.stats([2.0, 2.0], [0.0, 0.0])
        out = delta_rho(np.array([2.0, 50.0]), st, cfg)
        assert out[0] == pytest.approx(2.0 / 3.0)  # on the degenerate mean
        assert out[1] == pytest.approx(150.0)  # far from it

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            delta_rho(np.array([1.0, 2.0]), self.stats([0.0], [1.0]), self.cfg())


class TestRingMatchesDeque:
    """The ring's blocked statistics are byte-equal to stacking the window."""

    B = STATS_BLOCK
    EDGE_DIMS = (1, 2, B - 1, B, 2 * B - 1, 2 * B, 2 * B + 1, 3 * B + 7)

    @examples
    @given(data=st.data())
    def test_random_pushes_and_lengths(self, data):
        dim = data.draw(st.sampled_from(self.EDGE_DIMS), label="dim")
        capacity = data.draw(st.integers(1, 17), label="capacity")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        ring, oracle = GradQueue(capacity), OracleQueue(capacity)
        kinds = st.sampled_from(("normal", "rounded", "sparse", "constant", "signed_zeros"))
        for _ in range(data.draw(st.integers(1, 2 * capacity + 3), label="pushes")):
            if data.draw(st.booleans(), label="resize"):
                length = data.draw(st.integers(1, capacity), label="effective_length")
                ring.effective_length = oracle.effective_length = length
            g = random_gradient(rng, dim, data.draw(kinds, label="kind"))
            ring.push(g)
            oracle.push(g)
            assert_same_queue(ring, oracle)

    @pytest.mark.parametrize("dim", [1, 2 * STATS_BLOCK + 1, 3 * STATS_BLOCK + 7])
    @pytest.mark.parametrize("capacity", [9, 17])
    def test_long_single_column_window(self, dim, capacity):
        # numpy sums a lone column pairwise, which a row-by-row sum of nine
        # or more entries does not reproduce
        rng = np.random.default_rng(capacity)
        ring, oracle = GradQueue(capacity), OracleQueue(capacity)
        for _ in range(capacity + 4):
            g = rng.normal(size=dim) * 1e3
            ring.push(g)
            oracle.push(g)
        assert_same_queue(ring, oracle)

    def test_as_array_is_a_copy(self):
        q = GradQueue(capacity=2)
        q.push([1.0, 2.0])
        q.as_array()[0, 0] = 99.0
        np.testing.assert_array_equal(q.as_array(), [[1.0, 2.0]])


class TestOverflow:
    @staticmethod
    def queue(entries):
        q = GradQueue(capacity=len(entries))
        for e in entries:
            q.push(e)
        return q

    @examples
    @given(entries=finite_entries)
    def test_finite_entries_give_finite_stats(self, entries):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning escapes
            s = self.queue(entries).stats()
        assert np.isfinite(s.mean).all() and np.isfinite(s.std).all()
        for col, mean, std in zip(np.stack(entries).T, s.mean, s.std):
            top = float(np.abs(col).max())
            exact = [Fraction(x) for x in col]
            exact_mean = sum(exact) / len(exact)
            if top == 0.0:
                assert mean == 0.0 and std == 0.0
                continue
            # exact moments, the variance taken relative to top**2 to stay in range
            rel_var = sum((x - exact_mean) ** 2 for x in exact) / len(exact) / Fraction(top) ** 2
            tol = top * 1e-14 + 1e-150  # squared deviations below ~1e-154 underflow
            assert abs(mean - float(exact_mean)) <= tol
            assert abs(std - math.sqrt(float(rel_var)) * top) <= tol

    @examples
    @given(
        entries=st.lists(st.floats(-1e308, 1e308), min_size=1, max_size=6),
        g=st.floats(-1e308 / 3.0, 1e308 / 3.0),
    )
    def test_finite_gradient_gives_finite_boost(self, entries, g):
        out = delta_rho(np.array([g]), self.queue([[e] for e in entries]).stats(), BoostConfig())
        assert np.isfinite(out).all()

    def test_rare_huge_coordinate_is_amplified(self):
        q = self.queue([[1e200], [-1e200], [1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = q.stats()
        assert s.std[0] == pytest.approx(2e200 * np.sqrt(2.0) / 3.0, rel=1e-14)
        out = delta_rho(np.array([-1e200]), s, BoostConfig(rho=3.0))
        assert out[0] == pytest.approx(-1e200 * np.sqrt(2.0), rel=1e-14)  # z = sqrt(2)

    def test_single_column_partial_sums_of_opposite_sign(self):
        # a lone column is summed pairwise: with these 16 entries one partial
        # sum overflows to +inf and another to -inf, and the plain mean is NaN
        s = self.queue(([[1.5e308]] * 4 + [[-1.5e308]] * 4) * 2).stats()
        np.testing.assert_array_equal(s.mean, [0.0])
        np.testing.assert_array_equal(s.std, [1.5e308])

    def test_top_of_range_entries(self):
        s = self.queue([[1.5e308, 1.0]] * 3).stats()
        np.testing.assert_array_equal(s.mean, [1.5e308, 1.0])
        np.testing.assert_array_equal(s.std, [0.0, 0.0])
        out = delta_rho(np.array([1.0, 1.0]), s, BoostConfig(rho=3.0))
        np.testing.assert_array_equal(out, [3.0, 1.0 / 3.0])  # far from the mean, on it

    @pytest.mark.parametrize(
        "g, mean, std",
        [
            ([1e300], [0.0], [1e-10]),  # the division overflows
            ([1e308], [-1e308], [1.0]),  # the subtraction overflows
            ([1e300, 1.0], [0.0, 1.0], [1e-10, 0.0]),  # the same, next to a zero-variance column
            ([1e308, 1.0], [-1e308, 1.0], [1.0, 0.0]),
        ],
    )
    def test_overflowing_z_clamps_to_rho_without_warning(self, g, mean, std):
        g = np.array(g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = delta_rho(g, QueueStats(np.array(mean), np.array(std), 3), BoostConfig(rho=1.5))
        assert out[0] == 1.5 * g[0]

    def test_in_range_columns_keep_their_bytes(self):
        rng = np.random.default_rng(2)
        entries = rng.normal(size=(5, 40))
        entries[:, 7] *= 1e300
        ring, oracle = GradQueue(5), OracleQueue(5)
        for e in entries:
            ring.push(e)
            oracle.push(e)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the oracle overflows
            want = oracle.stats()
        got = ring.stats()
        keep = np.arange(40) != 7
        assert got.mean[keep].tobytes() == want.mean[keep].tobytes()
        assert got.std[keep].tobytes() == want.std[keep].tobytes()
        assert not np.isfinite(want.std[7]) and np.isfinite(got.std[7])


class TestBlockedHostileInputs:
    """Overflow, zero variance and NaN on vectors of several column blocks."""

    B = STATS_BLOCK
    DIM = 3 * B + 7
    # two overflowing columns in block 0, a lone one on the edge of block 1
    # (its first column) and a lone one inside the last block
    HUGE = (5, B - 1, B, 2 * B + 11)

    @staticmethod
    def rescaled_moments(col):
        """The overflow rescale of one column, reduced as numpy reduces a lone column."""
        scale = np.abs(col).max()
        scaled = col / scale
        m = scaled.mean()
        return m * scale, np.sqrt(np.mean((scaled - m) ** 2)) * scale

    @pytest.mark.parametrize("capacity", [3, 9])
    def test_overflow_in_two_blocks_and_on_an_edge(self, capacity):
        rng = np.random.default_rng(capacity)
        huge = list(self.HUGE)
        keep = np.ones(self.DIM, bool)
        keep[huge] = False
        ring, oracle = GradQueue(capacity), OracleQueue(capacity)
        for _ in range(capacity + 2):
            g = rng.normal(size=self.DIM)
            g[huge] = rng.choice([-1.0, 1.0], len(huge)) * rng.uniform(1.0, 9.0, len(huge)) * 1e200
            ring.push(g)
            oracle.push(g)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no overflow warning escapes
                got = ring.stats()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the oracle overflows
                want = oracle.stats()
            assert got.mean[keep].tobytes() == want.mean[keep].tobytes()
            assert got.std[keep].tobytes() == want.std[keep].tobytes()
            if got.sample_count > 1:  # the rescale ran on every huge column
                assert not np.isfinite(want.std[huge]).any()
            window = oracle.as_array()[-got.sample_count :]
            for j in huge:
                mean, std = self.rescaled_moments(window[:, j])
                assert (got.mean[j], got.std[j]) == (mean, std)
                assert np.isfinite(got.mean[j]) and np.isfinite(got.std[j])

    def test_zero_variance_confined_to_one_block(self):
        rng = np.random.default_rng(4)
        flat = slice(self.B + 50, self.B + 250)  # inside block 1
        const = rng.normal(size=200)
        ring, oracle = GradQueue(5), OracleQueue(5)
        for _ in range(6):
            g = rng.normal(size=self.DIM)
            g[flat] = const
            ring.push(g)
            oracle.push(g)
        got, want = ring.stats(), oracle.stats()
        assert got.std.tobytes() == want.std.tobytes()
        degenerate = np.flatnonzero(got.std <= SIGMA_FLOOR)
        np.testing.assert_array_equal(degenerate, np.arange(self.B + 50, self.B + 250))
        g = rng.normal(size=self.DIM)
        g[self.B + 50 : self.B + 150] = const[:100]  # on the degenerate mean
        cfg = BoostConfig(rho=3.0)
        out = delta_rho(g, got, cfg)
        assert out.tobytes() == oracle_delta_rho(g, want, cfg).tobytes()
        np.testing.assert_array_equal(out[self.B + 50 : self.B + 150], g[self.B + 50 : self.B + 150] * (1.0 / 3.0))
        np.testing.assert_array_equal(out[self.B + 150 : self.B + 250], g[self.B + 150 : self.B + 250] * 3.0)

    @pytest.mark.parametrize("dim", [3, 3 * STATS_BLOCK + 7])
    def test_nan_std_keeps_the_two_sided_rule(self, dim):
        rng = np.random.default_rng(dim)
        g, mean = rng.normal(size=dim), rng.normal(size=dim)
        std = rng.uniform(0.5, 2.0, dim)
        std[-1] = np.nan
        cfg = BoostConfig(rho=2.0)
        for degenerate in (False, True):
            if degenerate:
                std[0] = 0.0
            stats = QueueStats(mean, std.copy(), 5)
            want = oracle_delta_rho(g, stats, cfg)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = delta_rho(g, stats, cfg)
            np.testing.assert_array_equal(out, want)
            assert np.isnan(out[-1]) and np.isfinite(out[:-1]).all()

    def test_empty_vector(self):
        out = delta_rho(np.empty(0), QueueStats(np.empty(0), np.empty(0), 1), BoostConfig())
        assert out.shape == (0,) and out.dtype == np.float64

    @pytest.mark.parametrize("std", [[-1.0, np.nan], [np.nan, -0.5, 1.0], [-np.inf]])
    def test_negative_std_refused_next_to_nan(self, std):
        with pytest.raises(ValueError, match="non-negative"):
            QueueStats(np.zeros(len(std)), np.array(std), 2)

    @pytest.mark.parametrize(
        "mean, std", [(np.zeros(3), np.ones(1)), (np.zeros(3), np.ones(2)), (0.0, np.ones(2))]
    )
    def test_mean_and_std_of_different_shapes_refused(self, mean, std):
        with pytest.raises(ValueError, match="differ in shape"):
            QueueStats(mean, std, 2)

    @pytest.mark.parametrize(
        "shape",
        [(2, 2), (3, 1), (1, 3), (1, 1), (2, 0), (2, 2, 2)],
        ids=lambda shape: "x".join(map(str, shape)),
    )
    def test_stats_not_1d_refused(self, shape):
        with pytest.raises(ValueError) as exc:
            QueueStats(np.ones(shape), np.ones(shape), 3)
        assert str(exc.value) == f"mean and std must be 1-D, got shape {shape}"

    @pytest.mark.parametrize(
        "mean, std, shape",
        [(0.5, 2.0, (1,)), (np.float64(0.5), np.array(2.0), (1,)), (np.empty(0), np.empty(0), (0,))],
        ids=["scalars", "0-d", "empty"],
    )
    def test_scalar_and_empty_stats_accepted(self, mean, std, shape):
        stats = QueueStats(mean, std, 3)
        assert stats.mean.shape == stats.std.shape == shape
        assert stats.mean.tobytes() == np.ravel(mean).tobytes()
        assert stats.std.tobytes() == np.ravel(std).tobytes()

    @pytest.mark.parametrize("std", [[np.nan, 0.0], [-0.0, 1.0], [np.inf]])
    def test_nan_zero_and_inf_std_accepted(self, std):
        stats = QueueStats(np.zeros(len(std)), np.array(std), 2)
        assert stats.std.tobytes() == np.array(std).tobytes()

    def test_caller_arrays_stay_writable(self):
        mean, std = np.zeros(3), np.ones(3)
        stats = QueueStats(mean, std, 1)
        mean[0], std[0] = 1.0, 2.0  # the caller's arrays are not frozen
        assert (stats.mean[0], stats.std[0]) == (1.0, 2.0)  # views, not copies
        assert not stats.mean.flags.writeable and not stats.std.flags.writeable

    @pytest.mark.parametrize("dim", [0, 1, 2 * STATS_BLOCK - 1, 2 * STATS_BLOCK, 3 * STATS_BLOCK + 7])
    def test_blocks_cover_the_vector_once_per_dimension(self, dim):
        blocks = _blocks(dim)
        assert isinstance(blocks, tuple) and _blocks(dim) is blocks
        assert blocks[0].start == 0 and blocks[-1].stop == dim
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert len(blocks) == max(1, dim // STATS_BLOCK)


class TestDeltaRhoProperties:
    @examples
    @given(case=boost_cases, rho=rhos)
    def test_scale_bounds_and_signs(self, case, rho):
        g, mean, std = case
        out = delta_rho(g, QueueStats(mean, std, 5), BoostConfig(rho=rho))
        # rounding is monotone, so the float bounds hold exactly
        assert np.all(np.abs(out) <= np.abs(g) * rho)
        assert np.all(np.abs(out) >= np.abs(g) * (1.0 / rho))
        np.testing.assert_array_equal(np.signbit(out), np.signbit(g))

    @examples
    @given(case=boost_cases)
    def test_rho_one_is_identity(self, case):
        g, mean, std = case
        out = delta_rho(g, QueueStats(mean, std, 5), BoostConfig(rho=1.0))
        assert out.tobytes() == g.tobytes()

    @examples
    @given(case=boost_cases, rho=rhos)
    def test_zero_variance_rule(self, case, rho):
        g, mean, _ = case
        cfg = BoostConfig(rho=rho)
        out = delta_rho(g, QueueStats(mean, np.zeros_like(g), 5), cfg)
        far = np.abs(g - mean) > SIGMA_FLOOR
        np.testing.assert_array_equal(out[far], g[far] * rho)
        np.testing.assert_array_equal(out[~far], g[~far] * (1.0 / rho))

    @examples
    @given(case=boost_cases, rho=rhos)
    def test_matches_two_sided_rule(self, case, rho):
        g, mean, std = case
        stats, cfg = QueueStats(mean, std, 5), BoostConfig(rho=rho)
        assert delta_rho(g, stats, cfg).tobytes() == oracle_delta_rho(g, stats, cfg).tobytes()


class TestQueueMemory:
    """Allocations of the hot calls, in units of one gradient vector."""

    DIM = 200_000
    VECTOR = DIM * 8

    @staticmethod
    def peak(fn):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def wrapped_queue(self):
        rng = np.random.default_rng(0)
        q = GradQueue(capacity=5)
        for _ in range(7):
            q.push(rng.normal(size=self.DIM))
        return q, rng.normal(size=self.DIM)

    def test_stats_builds_no_window(self):
        q, _ = self.wrapped_queue()
        assert self.peak(q.stats) < 5 * self.VECTOR

    def test_push_allocates_less_than_a_vector(self):
        q, g = self.wrapped_queue()
        assert self.peak(lambda: q.push(g)) < self.VECTOR

    def test_delta_rho_peak(self):
        q, g = self.wrapped_queue()
        stats, cfg = q.stats(), BoostConfig()
        # the result and no full-size temporary
        assert self.peak(lambda: delta_rho(g, stats, cfg)) < 1.25 * self.VECTOR


class TestQueueLengthController:
    def test_worked_example(self):
        ctrl = QueueLengthController(window=2, min_length=2, max_length=5)
        for loss in (5, 5, 5, 4, 3, 2, 1):
            ctrl.observe(loss)
        assert ctrl.effective_length() == 5

    def test_flat_losses_give_min(self):
        ctrl = QueueLengthController(window=2, min_length=3, max_length=5)
        for loss in (3, 3, 3, 3):
            ctrl.observe(loss)
        assert ctrl.effective_length() == 3

    def test_short_history_gives_min(self):
        ctrl = QueueLengthController(window=3, min_length=2, max_length=5)
        ctrl.observe(1.0)
        assert ctrl.effective_length() == 2

    def test_output_always_in_bounds(self):
        rng = np.random.default_rng(8)
        ctrl = QueueLengthController(window=2, min_length=3, max_length=5)
        for _ in range(200):
            ctrl.observe(rng.uniform(0, 10))
            assert 3 <= ctrl.effective_length() <= 5

    @examples
    @given(
        window=st.integers(1, 6),
        lengths=st.tuples(st.integers(1, 8), st.integers(0, 6)),
        losses=st.lists(st.one_of(st.floats(), st.floats(-10.0, 10.0)), max_size=40),
    )
    def test_output_in_bounds_for_any_feed(self, window, lengths, losses):
        min_length, extra = lengths
        max_length = max(min_length + extra, window)
        ctrl = QueueLengthController(window, min_length, max_length)
        assert ctrl.effective_length() == min_length
        for loss in losses:
            assert min_length <= ctrl.observe(loss).effective_length() <= max_length

    @staticmethod
    def sliced_length(losses, window, min_length, max_length):
        """The rule re-summed from the loss list: each window sum is ``sum`` of a slice."""
        n, limit = len(losses), max_length - min_length
        if n < window:
            return min_length

        def window_sum(j):  # the window that ends j losses before the newest
            return sum(losses[n - window - j : n - j])

        count, prev = 0, window_sum(0)
        while count < limit and n - window - (count + 1) >= 0:
            cur = window_sum(count + 1)
            if not cur > prev:
                break
            count, prev = count + 1, cur
        return min_length + count

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        window=st.integers(1, 6),
        lengths=st.tuples(st.integers(1, 8), st.integers(0, 6)),
        losses=st.lists(
            st.one_of(
                st.floats(),
                st.floats(-10.0, 10.0),
                st.sampled_from([0.1, 0.2, 0.3, 1e16, -1e16, 1.0]),
            ),
            max_size=60,
        ),
    )
    def test_matches_the_sliced_sum_rule(self, window, lengths, losses):
        min_length, extra = lengths
        max_length = max(min_length + extra, window)
        ctrl = QueueLengthController(window, min_length, max_length)
        for i, loss in enumerate(losses, start=1):
            expected = self.sliced_length(losses[:i], window, min_length, max_length)
            assert ctrl.observe(loss).effective_length() == expected
            assert ctrl.effective_length() == expected  # asking again changes nothing

    def test_window_sums_keep_summation_order(self):
        # In step order both window sums are 0.0, so the loss did not decrease. A
        # running sum (0.0 + 0.0 - 1.0) or a newest-first sum (-1e16 + 1e16 + 1.0)
        # would make the older window larger and count one decrease.
        losses = [1.0, 1e16, -1e16, 0.0]
        ctrl = QueueLengthController(window=3, min_length=1, max_length=4)
        for loss in losses:
            ctrl.observe(loss)
        assert ctrl.effective_length() == self.sliced_length(losses, 3, 1, 4) == 1

    def test_staged_losses_rise_then_fall(self):
        ctrl = QueueLengthController(window=2, min_length=3, max_length=5)
        lengths = []
        for i in range(20):
            ctrl.observe(10.0 - 0.5 * i)
            lengths.append(ctrl.effective_length())
        assert max(lengths) == 5
        for _ in range(20):
            ctrl.observe(0.5)
            lengths.append(ctrl.effective_length())
        assert lengths[-1] == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            QueueLengthController(window=0)
        with pytest.raises(ValueError):
            QueueLengthController(window=2, min_length=5, max_length=3)
        with pytest.raises(ValueError):
            QueueLengthController(window=6, min_length=3, max_length=5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GradQueue(3).push(np.zeros((2, 2))), "gradients must be flattened to one dimension"),
        (lambda: GradQueue(3).as_array(), "queue is empty"),
        # a size that is not an integer is refused, not truncated
        (lambda: GradQueue(2.9), "capacity must be an integer, got 2.9"),
        (lambda: GradQueue(3.0), "capacity must be an integer, got 3.0"),
        (
            lambda: setattr(GradQueue(3), "effective_length", 2.7),
            "effective_length must be an integer, got 2.7",
        ),
        (lambda: QueueLengthController(window=2.5), "window must be an integer, got 2.5"),
        (lambda: QueueLengthController(min_length=3.5), "min_length must be an integer, got 3.5"),
        (lambda: QueueLengthController(max_length=5.5), "max_length must be an integer, got 5.5"),
    ],
    ids=[
        "push-2d",
        "as-array-empty",
        "capacity-fraction",
        "capacity-float",
        "effective-length-fraction",
        "controller-window",
        "controller-min-length",
        "controller-max-length",
    ],
)
def test_refusal_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("three", [np.int64(3), np.int32(3), np.uint8(3)])
def test_numpy_integer_sizes_accepted(three):
    q = GradQueue(three)
    assert q.capacity == 3 and type(q.capacity) is int
    q.effective_length = three - 1
    assert q.effective_length == 2 and type(q.effective_length) is int
    with pytest.raises(ValueError, match="an integer"):
        q.effective_length = 2.5
    assert q.effective_length == 2  # a refused value changes nothing
    ctrl = QueueLengthController(window=three - 1, min_length=three, max_length=three + 2)
    assert (ctrl.window, ctrl.min_length, ctrl.max_length) == (2, 3, 5)
    assert all(type(v) is int for v in (ctrl.window, ctrl.min_length, ctrl.max_length))
