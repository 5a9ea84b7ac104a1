import tracemalloc
import warnings

import numpy as np
import pytest

from gradqueue import (
    AdamState,
    BoostConfig,
    GradQueue,
    OptimizerConfig,
    SgdmState,
    SparseSignalSpec,
    adam_step,
    delta_rho,
    sgdm_step,
    sparse_signal,
)
from gradqueue.core import STATS_BLOCK


def cfg(boost=False, rho=3.0, lr=0.1, beta=0.9, **kw):
    return OptimizerConfig(
        learning_rate=lr,
        beta=beta,
        boost=BoostConfig(rho=rho),
        boost_enabled=boost,
        **kw,
    )


def random_stream(seed, steps, dim):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=dim) * rng.uniform(0.1, 5.0) for _ in range(steps)]


class TestSgdm:
    def test_first_step_is_plain_sgd(self):
        state = SgdmState.init(np.zeros(1), capacity=5)
        state = sgdm_step(state, np.array([1.0]), cfg())
        assert state.momentum[0] == 1.0
        assert state.params[0] == pytest.approx(-0.1, rel=1e-12)
        assert state.step_count == 1

    def test_periodic_signal_momentum(self):
        # u=-1, C=5, N=3, beta=0.9: momentum after 3 steps is 3.29
        spec = SparseSignalSpec(C=5.0, u=-1.0, N=3)
        state = SgdmState.init(np.zeros(1))
        for t in range(1, 4):
            state = sgdm_step(state, np.array([sparse_signal(t, spec)]), cfg())
        assert state.momentum[0] == pytest.approx(3.29, rel=1e-12)

    def test_rho_one_bit_identical(self):
        stream = random_stream(0, 60, 7)
        plain = SgdmState.init(np.ones(7))
        boosted = SgdmState.init(np.ones(7))
        for g in stream:
            plain = sgdm_step(plain, g, cfg(boost=False))
            boosted = sgdm_step(boosted, g, cfg(boost=True, rho=1.0))
            np.testing.assert_array_equal(plain.params, boosted.params)
            np.testing.assert_array_equal(plain.momentum, boosted.momentum)

    @pytest.mark.parametrize("capacity", [2, 3, 5])
    def test_warmup_steps_identical(self, capacity):
        stream = random_stream(1, 10, 4)
        plain = SgdmState.init(np.zeros(4), capacity=capacity)
        boosted = SgdmState.init(np.zeros(4), capacity=capacity)
        warmup = min(3, capacity)
        for i, g in enumerate(stream):
            plain = sgdm_step(plain, g, cfg(boost=False))
            boosted = sgdm_step(boosted, g, cfg(boost=True, rho=3.0))
            if i < warmup:
                np.testing.assert_array_equal(plain.params, boosted.params)
            else:
                assert not np.array_equal(plain.params, boosted.params)
                break

    def test_deterministic(self):
        def run():
            state = SgdmState.init(np.zeros(5))
            for g in random_stream(3, 40, 5):
                state = sgdm_step(state, g, cfg(boost=True))
            return state.params

        np.testing.assert_array_equal(run(), run())

    def test_momentum_linear_in_stream(self):
        stream = random_stream(4, 25, 3)
        a = SgdmState.init(np.zeros(3))
        b = SgdmState.init(np.zeros(3))
        c = -2.7
        for g in stream:
            a = sgdm_step(a, g, cfg(boost=False))
            b = sgdm_step(b, c * g, cfg(boost=False))
        np.testing.assert_allclose(b.momentum, c * a.momentum, rtol=1e-12)

    def test_raw_gradient_pushed(self):
        state = SgdmState.init(np.zeros(2))
        g = np.array([10.0, -10.0])
        for _ in range(5):
            state = sgdm_step(state, g, cfg(boost=True, rho=3.0))
        np.testing.assert_array_equal(state.queue.as_array()[-1], g)

    def test_dimension_mismatch(self):
        state = SgdmState.init(np.zeros(3))
        with pytest.raises(ValueError, match="dimension"):
            sgdm_step(state, np.zeros(4), cfg())

    def test_momentum_matches_mechanistic_simulator(self):
        # the optimizer on the periodic stream reproduces the standalone
        # boosted-momentum simulation bit for bit (same warm-up rule)
        from gradqueue import LemmaParams, simulate_gq_momentum

        spec = SparseSignalSpec(C=50.0, u=-1.0, N=9)
        for L, rho in ((3, 3.0), (4, 2.0), (5, 5.0)):
            sim = simulate_gq_momentum(
                spec, LemmaParams(beta=0.9, rho=rho, L=L), steps=45
            )
            state = SgdmState.init(np.zeros(1), capacity=L)
            run_cfg = cfg(boost=True, rho=rho, beta=0.9)
            trajectory = []
            for t in range(1, 46):
                state = sgdm_step(state, np.array([sparse_signal(t, spec)]), run_cfg)
                trajectory.append(state.momentum[0])
            np.testing.assert_array_equal(np.array(trajectory), sim)


class TestAdam:
    def test_textbook_first_step(self):
        # bias correction makes the first update magnitude ~ lr
        for g0 in (0.5, -3.0, 40.0):
            state = AdamState.init(np.zeros(1))
            state = adam_step(state, np.array([g0]), cfg(lr=0.01))
            assert abs(state.params[0]) == pytest.approx(0.01, rel=1e-5)
            assert np.sign(state.params[0]) == -np.sign(g0)

    def test_rho_one_bit_identical(self):
        stream = random_stream(5, 50, 6)
        plain = AdamState.init(np.ones(6))
        boosted = AdamState.init(np.ones(6))
        for g in stream:
            plain = adam_step(plain, g, cfg(boost=False, lr=0.01))
            boosted = adam_step(boosted, g, cfg(boost=True, rho=1.0, lr=0.01))
            np.testing.assert_array_equal(plain.params, boosted.params)
            np.testing.assert_array_equal(plain.first_moment, boosted.first_moment)
            np.testing.assert_array_equal(plain.second_moment, boosted.second_moment)

    def test_constant_stream_dampened_by_rho(self):
        # saturated queue: the moment input becomes c/rho, so the
        # bias-corrected first moment converges there
        c, rho = 2.0, 4.0
        state = AdamState.init(np.zeros(1))
        for _ in range(300):
            state = adam_step(state, np.array([c]), cfg(boost=True, rho=rho, lr=0.01))
        m_hat = state.first_moment[0] / (1 - 0.9**state.step_count)
        assert m_hat == pytest.approx(c / rho, rel=1e-6)

    def test_second_moment_nonnegative(self):
        state = AdamState.init(np.zeros(4))
        for g in random_stream(6, 30, 4):
            state = adam_step(state, g, cfg(boost=True))
            assert np.all(state.second_moment >= 0)

    def test_step_count_increments(self):
        state = AdamState.init(np.zeros(2))
        for i in range(4):
            state = adam_step(state, np.ones(2), cfg())
            assert state.step_count == i + 1


class TestConfigValidation:
    def test_learning_rate_positive(self):
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=0.0)

    def test_beta_range(self):
        with pytest.raises(ValueError):
            OptimizerConfig(beta=1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(beta=-0.1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", np.nan),
            ("learning_rate", np.inf),
            ("learning_rate", -np.inf),
            ("learning_rate", -0.1),
            ("beta", np.nan),
            ("adam_beta2", np.nan),
            ("adam_beta2", 1.0),
            ("adam_epsilon", np.nan),
            ("adam_epsilon", np.inf),
            ("adam_epsilon", -1.0),
            ("adam_epsilon", 0.0),
        ],
    )
    def test_invalid_setting_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(**{field: value})

    def test_edge_settings_accepted(self):
        OptimizerConfig(learning_rate=1e308, beta=0.0, adam_beta2=0.0, adam_epsilon=5e-324)


BOTH = [(SgdmState, sgdm_step), (AdamState, adam_step)]


class TestBoostHook:
    @pytest.mark.parametrize("state_cls, step", BOTH)
    @pytest.mark.parametrize("capacity", [2, 3, 5])
    def test_called_only_on_warmed_up_boosted_steps(self, state_cls, step, capacity):
        seen = []

        def hook(stats):
            seen.append(stats.sample_count)
            return np.zeros(3)

        boosted = state_cls.init(np.zeros(3), capacity=capacity)
        plain = state_cls.init(np.zeros(3), capacity=capacity)
        for g in random_stream(7, 8, 3):
            step(boosted, g, cfg(boost=True), boost=hook)
            step(plain, g, cfg(boost=False), boost=hook)
        warmup = min(3, capacity)
        assert len(seen) == 8 - warmup
        assert seen[0] == warmup

    def test_return_value_is_the_sgdm_update(self):
        b = np.array([0.5, -2.0, 7.0])
        state = SgdmState.init(np.ones(3), capacity=3)
        stream = random_stream(8, 4, 3)
        for g in stream[:3]:
            sgdm_step(state, g, cfg(boost=True))
        momentum, params = state.momentum.copy(), state.params.copy()
        sgdm_step(state, stream[3], cfg(boost=True, beta=0.9), boost=lambda stats: b)
        np.testing.assert_array_equal(state.momentum, 0.9 * momentum + b)
        np.testing.assert_array_equal(state.params, params - 0.1 * state.momentum)

    def test_return_value_is_the_adam_update(self):
        b = np.array([0.5, -2.0, 7.0])
        state = AdamState.init(np.ones(3), capacity=3)
        stream = random_stream(9, 4, 3)
        for g in stream[:3]:
            adam_step(state, g, cfg(boost=True))
        first, second = state.first_moment.copy(), state.second_moment.copy()
        adam_step(state, stream[3], cfg(boost=True), boost=lambda stats: b)
        np.testing.assert_array_equal(state.first_moment, 0.9 * first + (1.0 - 0.9) * b)
        np.testing.assert_array_equal(
            state.second_moment, 0.999 * second + (1.0 - 0.999) * b * b
        )

    @pytest.mark.parametrize("state_cls, step", BOTH)
    def test_hook_sees_queue_stats_and_raw_gradient_is_pushed(self, state_cls, step):
        state = state_cls.init(np.zeros(2), capacity=3)
        stream = random_stream(10, 5, 2)
        seen = []

        def hook(stats):
            np.testing.assert_array_equal(stats.mean, state.queue.stats().mean)
            seen.append(stats)
            return 100.0 * np.ones(2)

        for g in stream:
            step(state, g, cfg(boost=True), boost=hook)
            np.testing.assert_array_equal(state.queue.as_array()[-1], g)
        assert len(seen) == 2
        assert state.step_count == 5


class TestNonFiniteGradients:
    @pytest.mark.parametrize("state_cls, step", BOTH)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_before_any_state_changes(self, state_cls, step, bad):
        state = state_cls.init(np.ones(3), capacity=3)
        for g in random_stream(11, 4, 3):
            step(state, g, cfg(boost=True))
        before = {k: np.copy(v) for k, v in vars(state).items() if k != "queue"}
        queued = state.queue.as_array().copy()
        with pytest.raises(ValueError, match="non-finite"):
            step(state, np.array([bad, 1.0, 1.0]), cfg(boost=True))
        for key, value in before.items():
            np.testing.assert_array_equal(getattr(state, key), value)
        np.testing.assert_array_equal(state.queue.as_array(), queued)
        # the state still takes finite gradients
        step(state, np.ones(3), cfg(boost=True))
        assert state.step_count == 5
        assert np.isfinite(state.params).all()


class TestOverflowingUpdates:
    """A finite gradient whose update overflows is rejected and changes nothing."""

    @staticmethod
    def assert_rejected_untouched(state, step, g, opt):
        before = {k: np.copy(v) for k, v in vars(state).items() if k != "queue"}
        queued = state.queue.as_array().copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is reported once, as ValueError
            with pytest.raises(ValueError, match="overflow"):
                step(state, g, opt)
        for key, value in before.items():
            np.testing.assert_array_equal(getattr(state, key), value)
        np.testing.assert_array_equal(state.queue.as_array(), queued)

    def test_sgdm_momentum_overflow(self):
        state = SgdmState.init(np.zeros(1), capacity=3)
        sgdm_step(state, np.array([1.5e308]), cfg())
        self.assert_rejected_untouched(state, sgdm_step, np.array([1.5e308]), cfg())
        assert state.step_count == 1
        sgdm_step(state, np.array([-1.5e308]), cfg())  # still takes a step that fits
        assert np.isfinite(state.params).all() and state.step_count == 2

    def test_adam_second_moment_overflow(self):
        # b*b overflows; unchecked, the parameters would stay where they are for good
        state = AdamState.init(np.zeros(1), capacity=3)
        adam_step(state, np.array([1.0]), cfg())
        self.assert_rejected_untouched(state, adam_step, np.array([1e200]), cfg())
        assert state.step_count == 1

    def test_adam_parameter_overflow(self):
        state = AdamState.init(np.full(2, -1.7e308), capacity=3)
        adam_step(state, np.array([0.0, 1.0]), cfg())
        self.assert_rejected_untouched(state, adam_step, np.ones(2), cfg(lr=1e308))


def reference_step(kind, state, g, cfg):
    """The optimizer updates as whole-vector expressions, on the same boost rule."""
    q = state.queue
    b = delta_rho(g, q.stats(), cfg.boost) if cfg.boost_enabled and q.warmed_up else g
    if kind == "sgdm":
        state.momentum = cfg.beta * state.momentum + b
        state.params = state.params - cfg.learning_rate * state.momentum
    else:
        t = state.step_count + 1
        b1, b2 = cfg.beta, cfg.adam_beta2
        state.first_moment = b1 * state.first_moment + (1.0 - b1) * b
        state.second_moment = b2 * state.second_moment + (1.0 - b2) * b * b
        m_hat = state.first_moment / (1.0 - b1**t)
        v_hat = state.second_moment / (1.0 - b2**t)
        state.params = state.params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_epsilon)
    q.push(g)
    state.step_count += 1


def same_bytes(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


B = STATS_BLOCK
KINDS = [("sgdm", SgdmState, sgdm_step), ("adam", AdamState, adam_step)]


class TestBlockedUpdates:
    """Column-blocked updates are byte-equal to the whole-vector expressions."""

    @pytest.mark.parametrize("dim", [1, 23, B - 1, B, B + 1, 3 * B + 7])
    @pytest.mark.parametrize("kind, state_cls, step", KINDS)
    @pytest.mark.parametrize("boost, beta", [(True, 0.9), (False, 0.9), (True, 0.0)])
    def test_matches_whole_vector_expressions(self, dim, kind, state_cls, step, boost, beta):
        rng = np.random.default_rng(dim)
        opt = cfg(boost=boost, beta=beta, lr=0.01)
        got = state_cls.init(rng.normal(size=dim), capacity=3)
        want = state_cls.init(got.params, capacity=3)
        names = [k for k in vars(got) if k not in ("queue", "step_count")]
        for _ in range(6):  # three warm-up steps, then three boosted ones
            g = rng.normal(size=dim) * rng.uniform(0.1, 10.0, dim)
            step(got, g, opt)
            reference_step(kind, want, g, opt)
            for name in names:
                assert same_bytes(getattr(got, name), getattr(want, name)), name
        assert got.step_count == want.step_count == 6

    @pytest.mark.parametrize("kind, state_cls, step", KINDS)
    def test_old_arrays_are_not_written(self, kind, state_cls, step):
        rng = np.random.default_rng(1)
        state = state_cls.init(rng.normal(size=B + 1), capacity=3)
        names = [k for k in vars(state) if k not in ("queue", "step_count")]
        for _ in range(4):
            held = {k: getattr(state, k) for k in names}
            copies = {k: v.copy() for k, v in held.items()}
            step(state, rng.normal(size=B + 1), cfg(boost=True))
            for k in names:
                assert getattr(state, k) is not held[k]
                assert held[k].tobytes() == copies[k].tobytes()

    @pytest.mark.parametrize("state_cls, step", BOTH)
    @pytest.mark.parametrize("b", [0.5, [0.5]])
    def test_hook_result_broadcasts(self, state_cls, step, b):
        state = state_cls.init(np.zeros(3), capacity=3)
        want = state_cls.init(np.zeros(3), capacity=3)
        for g in random_stream(12, 4, 3):
            step(state, g, cfg(boost=True), boost=lambda stats: b)
            step(want, g, cfg(boost=True), boost=lambda stats: np.full(3, 0.5))
        np.testing.assert_array_equal(state.params, want.params)


class TestUpdateMemory:
    """An update allocates its new state arrays, one scratch block and no other full-size array."""

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

    @pytest.mark.parametrize("kind, state_cls, step", KINDS)
    def test_peak_is_the_new_state(self, kind, state_cls, step):
        rng = np.random.default_rng(0)
        state = state_cls.init(rng.normal(size=self.DIM), capacity=3)
        g = rng.normal(size=self.DIM)
        step(state, g, cfg())  # the first push allocates the queue's ring
        arrays = 2 if kind == "sgdm" else 3
        # the new arrays, one block and the finite checks' boolean masks
        assert self.peak(lambda: step(state, g, cfg())) < (arrays + 0.5) * self.VECTOR


class TestBlockedOverflow:
    """An overflowing update on a vector of several blocks raises and changes nothing."""

    DIM = 3 * B + 7
    HUGE = (3, 3 * B + 3)  # in the first and the last block

    def assert_rejected_untouched(self, state, step, g, opt):
        held = {k: v for k, v in vars(state).items() if k != "queue"}
        copies = {k: np.copy(v) for k, v in held.items()}
        queued, count = state.queue.as_array().copy(), len(state.queue)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                step(state, g, opt)
        for k, v in held.items():
            assert getattr(state, k) is v
            assert np.asarray(v).tobytes() == copies[k].tobytes()
        assert len(state.queue) == count
        assert state.queue.as_array().tobytes() == queued.tobytes()

    def test_sgdm_momentum_overflow(self):
        state = SgdmState.init(np.zeros(self.DIM), capacity=3)
        g = np.ones(self.DIM)
        g[list(self.HUGE)] = 1.5e308
        sgdm_step(state, g, cfg())
        self.assert_rejected_untouched(state, sgdm_step, g, cfg())
        assert state.step_count == 1

    @pytest.mark.parametrize("boost", [False, True])
    def test_adam_second_moment_overflow(self, boost):
        state = AdamState.init(np.zeros(self.DIM), capacity=3)
        rng = np.random.default_rng(2)
        for _ in range(3):
            adam_step(state, rng.normal(size=self.DIM), cfg(boost=boost))
        g = rng.normal(size=self.DIM)
        g[list(self.HUGE)] = 1e200
        self.assert_rejected_untouched(state, adam_step, g, cfg(boost=boost))
        assert state.step_count == 3
