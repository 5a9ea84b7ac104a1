import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from gradqueue import (
    AdamState,
    BoostConfig,
    GradQueue,
    OptimizerConfig,
    QueueStats,
    SgdmState,
    SparseSignalSpec,
    adam_step,
    delta_rho,
    sgdm_step,
    sparse_signal,
)
from gradqueue.core import STATS_BLOCK
from gradqueue.optimizers import ADAM_BETA2, ADAM_EPSILON


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
        ],
    )
    def test_invalid_setting_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(**{field: value})

    def test_edge_settings_accepted(self):
        OptimizerConfig(learning_rate=1e308, beta=0.0)


BOTH = [(SgdmState, sgdm_step), (AdamState, adam_step)]


def assert_rejected_untouched(state, step, g, opt, match="overflow"):
    """The step raises one ValueError and leaves the state's objects, bytes and queue as they were."""
    held = {k: v for k, v in vars(state).items() if k != "queue"}
    copies = {k: np.copy(v) for k, v in held.items()}
    count = len(state.queue)
    queued = state.queue.as_array().tobytes() if count else b""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the fault is reported once, as ValueError
        with pytest.raises(ValueError, match=match):
            step(state, g, opt)
    for k, v in held.items():
        assert getattr(state, k) is v
        assert np.asarray(v).tobytes() == copies[k].tobytes()
    assert len(state.queue) == count
    assert (state.queue.as_array().tobytes() if count else b"") == queued


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
        assert_rejected_untouched(
            state, step, np.array([bad, 1.0, 1.0]), cfg(boost=True),
            match="gradient has a non-finite coordinate",
        )
        # the state still takes finite gradients
        step(state, np.ones(3), cfg(boost=True))
        assert state.step_count == 5
        assert np.isfinite(state.params).all()


class TestFlatVectors:
    """Parameters and gradients are flat 1-D vectors; other shapes change nothing."""

    @pytest.mark.parametrize("state_cls, step", BOTH)
    @pytest.mark.parametrize("boost", [False, True])
    @pytest.mark.parametrize("shape, g_shape", [((2, 3), (2, 3)), ((), ()), ((6,), (2, 3))])
    def test_other_shapes_refused_on_the_first_step(self, state_cls, step, boost, shape, g_shape):
        state = state_cls.init(np.zeros(shape), capacity=3)
        assert_rejected_untouched(state, step, np.ones(g_shape), cfg(boost=boost), match="1-D")


class TestOverflowingUpdates:
    """A finite gradient whose update overflows is rejected and changes nothing."""

    def test_sgdm_momentum_overflow(self):
        state = SgdmState.init(np.zeros(1), capacity=3)
        sgdm_step(state, np.array([1.5e308]), cfg())
        assert_rejected_untouched(state, sgdm_step, np.array([1.5e308]), cfg())
        assert state.step_count == 1
        sgdm_step(state, np.array([-1.5e308]), cfg())  # still takes a step that fits
        assert np.isfinite(state.params).all() and state.step_count == 2

    def test_adam_second_moment_overflow(self):
        # b*b overflows; unchecked, the parameters would stay where they are for good
        state = AdamState.init(np.zeros(1), capacity=3)
        adam_step(state, np.array([1.0]), cfg())
        assert_rejected_untouched(state, adam_step, np.array([1e200]), cfg())
        assert state.step_count == 1

    def test_adam_parameter_overflow(self):
        state = AdamState.init(np.full(2, -1.7e308), capacity=3)
        adam_step(state, np.array([0.0, 1.0]), cfg())
        assert_rejected_untouched(state, adam_step, np.ones(2), cfg(lr=1e308))


def reference_step(kind, state, g, cfg, stats=GradQueue.stats):
    """The optimizer updates as whole-vector expressions, on the same boost rule."""
    q = state.queue
    b = delta_rho(g, stats(q), cfg.boost) if cfg.boost_enabled and q.warmed_up else g
    if kind == "sgdm":
        state.momentum = cfg.beta * state.momentum + b
        state.params = state.params - cfg.learning_rate * state.momentum
    else:
        t = state.step_count + 1
        b1, b2 = cfg.beta, ADAM_BETA2
        state.first_moment = b1 * state.first_moment + (1.0 - b1) * b
        state.second_moment = b2 * state.second_moment + (1.0 - b2) * b * b
        m_hat = state.first_moment / (1.0 - b1**t)
        v_hat = state.second_moment / (1.0 - b2**t)
        state.params = state.params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    q.push(g)
    state.step_count += 1


def stacked_stats(queue):
    """The window's moments as ``np.mean`` reduces the stacked window, without the moment kernel."""
    window = queue.as_array()[-min(queue.effective_length, len(queue)) :]
    mean = window.mean(axis=0)
    return QueueStats(mean, np.sqrt(np.mean((window - mean) ** 2, axis=0)), len(window))


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
    """An update allocates its new state arrays, at most one scratch block, no other full vector."""

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

    def test_sgdm_momentum_overflow(self):
        state = SgdmState.init(np.zeros(self.DIM), capacity=3)
        g = np.ones(self.DIM)
        g[list(self.HUGE)] = 1.5e308
        sgdm_step(state, g, cfg())
        assert_rejected_untouched(state, sgdm_step, g, cfg())
        assert state.step_count == 1

    @pytest.mark.parametrize("boost", [False, True])
    def test_adam_second_moment_overflow(self, boost):
        state = AdamState.init(np.zeros(self.DIM), capacity=3)
        rng = np.random.default_rng(2)
        for _ in range(3):
            adam_step(state, rng.normal(size=self.DIM), cfg(boost=boost))
        g = rng.normal(size=self.DIM)
        g[list(self.HUGE)] = 1e200
        assert_rejected_untouched(state, adam_step, g, cfg(boost=boost))
        assert state.step_count == 3


class TestFusedBoostedStep:
    """The one-pass boosted step equals stats -> delta_rho -> update, byte for byte."""

    DIM = 3 * B + 7

    @staticmethod
    def run_pair(
        kind, state_cls, step, dim, opt, grads, capacity=3, effective_length=None, queued=(),
        stats=GradQueue.stats,
    ):
        """Step a state and its reference through grads; every state array stays byte-equal."""
        rng = np.random.default_rng(dim)
        got = state_cls.init(rng.normal(size=dim), capacity=capacity)
        want = state_cls.init(got.params, capacity=capacity)
        for state in (got, want):
            for entry in queued:
                state.queue.push(entry)
            if effective_length is not None:
                state.queue.effective_length = effective_length
        names = [k for k in vars(got) if k not in ("queue", "step_count")]
        for g in grads:
            step(got, g, opt)
            reference_step(kind, want, g, opt, stats)
            for name in names:
                assert same_bytes(getattr(got, name), getattr(want, name)), name
            assert got.queue.as_array().tobytes() == want.queue.as_array().tobytes()
        return got

    @staticmethod
    def grads(dim, count, seed=0):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=dim) * rng.uniform(0.1, 10.0, dim) for _ in range(count)]

    @pytest.mark.parametrize("dim", [2 * B - 1, 2 * B, 2 * B + 1])
    @pytest.mark.parametrize("kind, state_cls, step", KINDS)
    def test_two_block_edges(self, dim, kind, state_cls, step):
        opt = cfg(boost=True, lr=0.01)
        self.run_pair(kind, state_cls, step, dim, opt, self.grads(dim, 6, dim))

    @pytest.mark.parametrize("kind, state_cls, step", KINDS)
    def test_short_window_on_a_wrapped_ring(self, kind, state_cls, step):
        opt = cfg(boost=True, lr=0.01)
        state = self.run_pair(
            kind, state_cls, step, self.DIM, opt, self.grads(self.DIM, 9), capacity=5, effective_length=3
        )
        assert state.queue.stats().sample_count == 3

    @pytest.mark.parametrize("kind, state_cls, step", KINDS)
    def test_rho_one_is_the_plain_step(self, kind, state_cls, step):
        grads = self.grads(self.DIM, 6)
        boosted = self.run_pair(kind, state_cls, step, self.DIM, cfg(boost=True, rho=1.0, lr=0.01), grads)
        plain = self.run_pair(kind, state_cls, step, self.DIM, cfg(boost=False, lr=0.01), grads)
        for name in vars(plain):
            if name not in ("queue", "step_count"):
                assert same_bytes(getattr(boosted, name), getattr(plain, name)), name

    @pytest.mark.parametrize("kind, state_cls, step", KINDS)
    @pytest.mark.parametrize("column", [B + 17, 3 * B + 5])  # a middle block; the last block
    def test_zero_variance_column_in_one_block(self, kind, state_cls, step, column):
        grads = self.grads(self.DIM, 6)
        for g in grads[:-1]:
            g[column] = 0.75  # constant: on the degenerate mean
        grads[-1][column] = 2.0  # off it, on the last step
        self.run_pair(kind, state_cls, step, self.DIM, cfg(boost=True, lr=0.01), grads)

    @pytest.mark.parametrize("kind, state_cls, step", KINDS)
    def test_overflowing_queue_column_in_one_block(self, kind, state_cls, step):
        queued = self.grads(self.DIM, 5, seed=1)
        for sign, entry in zip([1, -1, 1, 1, -1], queued):
            entry[B + 9] = sign * 3e200  # its moments overflow and are rescaled
        state = self.run_pair(
            kind, state_cls, step, self.DIM, cfg(boost=True, lr=0.01), self.grads(self.DIM, 2),
            capacity=5, queued=queued,
        )
        assert np.isfinite(state.queue.stats().std[B + 9])  # the window still holds the huge entries

    # vectors of one block take the same path; their moments are gathered and reduced by numpy

    @pytest.mark.parametrize("dim", [1, 2, 23])
    @pytest.mark.parametrize("capacity", [3, 9, 17])
    @pytest.mark.parametrize("kind, state_cls, step", KINDS)
    def test_one_block_short_window(self, dim, capacity, kind, state_cls, step):
        # at d = 1 numpy sums a window of 8 or more entries pairwise, which a row-by-row sum does not
        opt = cfg(boost=True, lr=0.01)
        grads = self.grads(dim, 2 * capacity + 3, seed=dim + capacity)
        state = self.run_pair(
            kind, state_cls, step, dim, opt, grads, capacity=capacity, effective_length=capacity - 1,
            stats=stacked_stats,
        )
        assert state.queue.stats().sample_count == capacity - 1

    @pytest.mark.parametrize("dim", [1, 2, 23])
    @pytest.mark.parametrize("kind, state_cls, step", KINDS)
    def test_one_block_zero_variance_column(self, dim, kind, state_cls, step):
        grads = self.grads(dim, 6)
        for g in grads[:-1]:
            g[dim - 1] = 0.75  # constant: steps 4 and 5 boost on the degenerate mean
        grads[-1][dim - 1] = 2.0  # off it, on the last step
        self.run_pair(kind, state_cls, step, dim, cfg(boost=True, lr=0.01), grads, stats=stacked_stats)

    @pytest.mark.parametrize("dim", [1, 2, 23])
    @pytest.mark.parametrize("kind, state_cls, step", KINDS)
    def test_one_block_overflowing_queue_column(self, dim, kind, state_cls, step):
        queued = self.grads(dim, 5, seed=1)
        for sign, entry in zip([1, -1, 1, 1, -1], queued):
            entry[dim // 2] = sign * 3e200
        state = self.run_pair(
            kind, state_cls, step, dim, cfg(boost=True, lr=0.01), self.grads(dim, 2),
            capacity=5, queued=queued,
        )
        assert np.isfinite(state.queue.stats().std[dim // 2])


# sha256 of the state arrays and the queue after 3 warm-up and 7 boosted steps; taken
# before the boosted step became one blocked pass (d >= 2B - 1) and before vectors of one
# block took that pass too (d = 1, 23)
STATE_GOLDEN = {
    ("sgdm", 2 * B - 1): "44f7cd71a89d105ff215d1f08a79db0eceda8d0dd17137b3424d7efde4b54e0b",
    ("adam", 2 * B - 1): "d9604924864083d45ad3f12902f9b0bd9da9f98b666dc16232e140cc57e4d5da",
    ("sgdm", 2 * B + 1): "1bf85b63c4c7d7d3cc30a0af1cd6198f52f24b7411bfd2da54c9fb15e9e0d45f",
    ("adam", 2 * B + 1): "03188a2fa36f4f6bd9a7d0b14ba6ca7d30c4a8b5b2441c32583147ae20e1dcd7",
    ("sgdm", 3 * B + 7): "5bb7dd7b41da3f4a09c6161538133123d7641e16f792d9ecd4d8e6c76db6726e",
    ("adam", 3 * B + 7): "36980b4ccc708e577b3cc68db9c98f294444b311ebfd41bbf2ab04864a3593f1",
    ("sgdm", 1): "891e99373d7f0758c0da12e214f4a4ea4948493c42cc2840efa653dee0f4bade",
    ("adam", 1): "d9fd85928b5304c207a086d55c3e9d7167280a4c832ef0e17ac16fc9c88819dc",
    ("sgdm", 23): "7a203bee27c8847c594d73ef5282dd64aeb4d1f3e0c50c6962fdcfbc37d176b6",
    ("adam", 23): "c829981a56341d541b7021b7151629beec99cdf7d8c59c20d03afc05ef5fc986",
}
GOLDEN_CASES = [(2 * B - 1, 5), (2 * B + 1, 5), (3 * B + 7, 5), (1, 9), (23, 9)]  # (dim, capacity)


@pytest.mark.parametrize("dim, capacity", GOLDEN_CASES, ids=[str(dim) for dim, _ in GOLDEN_CASES])
@pytest.mark.parametrize("kind, state_cls, step", KINDS)
def test_state_bytes_are_golden(dim, capacity, kind, state_cls, step):
    rng = np.random.default_rng(dim)
    state = state_cls.init(rng.normal(size=dim), capacity=capacity)
    opt = cfg(boost=True, lr=0.01)
    for _ in range(10):
        step(state, rng.normal(size=dim) * rng.uniform(0.1, 10.0, dim), opt)
    digest = hashlib.sha256()
    for name, value in vars(state).items():
        if name not in ("queue", "step_count"):
            digest.update(value.tobytes())
    digest.update(state.queue.as_array().tobytes())
    assert digest.hexdigest() == STATE_GOLDEN[kind, dim]


class TestFusedAtomicity:
    """A boosted step that overflows in any block raises and changes nothing."""

    DIM = 3 * B + 7

    @classmethod
    def warmed(cls, state_cls):
        state = state_cls.init(np.zeros(cls.DIM), capacity=3)
        rng = np.random.default_rng(3)
        for _ in range(3):
            state.queue.push(rng.normal(size=cls.DIM))
        return state, rng

    @pytest.mark.parametrize("huge", [(3, 3 * B + 3), (3 * B + 3,)])  # first and last block; last only
    def test_sgdm_boosted_momentum_overflow(self, huge):
        state, rng = self.warmed(SgdmState)
        g = rng.normal(size=self.DIM)
        g[list(huge)] = 1.5e308
        assert_rejected_untouched(state, sgdm_step, g, cfg(boost=True))

    def test_adam_boosted_overflow_in_the_last_block_only(self):
        state, rng = self.warmed(AdamState)
        g = rng.normal(size=self.DIM)
        g[3 * B + 3] = 1e200
        assert_rejected_untouched(state, adam_step, g, cfg(boost=True))

    @pytest.mark.parametrize("state_cls, step", BOTH)
    def test_queue_of_another_dimension_refused(self, state_cls, step):
        state = state_cls.init(np.zeros(3), capacity=3)
        state.queue.push(np.ones(4))
        assert_rejected_untouched(state, step, np.ones(3), cfg(boost=True), match="dimension")


class TestFusedMemory:
    """A boosted step over many blocks allocates its new state and block scratch only."""

    DIM = 16 * B
    VECTOR = DIM * 8

    @pytest.mark.parametrize("kind, state_cls, step", KINDS)
    def test_peak_is_the_new_state(self, kind, state_cls, step):
        rng = np.random.default_rng(0)
        state = state_cls.init(rng.normal(size=self.DIM), capacity=5)
        for _ in range(5):
            state.queue.push(rng.normal(size=self.DIM))
        g = rng.normal(size=self.DIM)
        arrays = 2 if kind == "sgdm" else 3
        # no full-size mean, std or boosted gradient
        assert TestUpdateMemory.peak(lambda: step(state, g, cfg(boost=True))) < (arrays + 0.75) * self.VECTOR


def test_delta_rho_stays_importable_from_optimizers():
    # perfbench's tracer wraps delta_rho in this module by name
    from gradqueue import core, optimizers

    assert optimizers.delta_rho is core.delta_rho
