import numpy as np
import pytest

from gradqueue import (
    BoostConfig,
    GradQueue,
    QueueLengthController,
    QueueStats,
    delta_rho,
)


def brute_force_stats(entries):
    """Independent mean/std oracle from raw moments (E[x^2] - E[x]^2)."""
    arr = np.stack([np.atleast_1d(np.asarray(e, float)) for e in entries])
    mean = arr.sum(axis=0) / len(entries)
    second = (arr * arr).sum(axis=0) / len(entries)
    return mean, np.sqrt(np.maximum(second - mean * mean, 0.0))


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
