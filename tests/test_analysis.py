import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradqueue import (
    BatchCompositionCase,
    BoostConfig,
    GradQueue,
    LemmaParams,
    SparseSignalSpec,
    batch_error_case,
    boosted_batch_mean,
    delta_rho,
    lemma1_closed,
    lemma2_phi,
    lemma3_closed,
    simulate_gq_momentum,
    simulate_lemma3_momentum,
    simulate_momentum,
    sparse_signal,
    threshold_boosted,
    threshold_plain,
    threshold_plain_reported,
    zeta,
)
from gradqueue import analysis

WORST_CASE = SparseSignalSpec(C=5.0, u=-1.0, N=3)


def rel_err(a, b):
    denom = max(abs(a), abs(b))
    return abs(a - b) / denom if denom else 0.0


class TestSparseSignal:
    def test_period_three(self):
        assert sparse_signal(1, WORST_CASE) == -1.0
        assert sparse_signal(2, WORST_CASE) == -1.0
        assert sparse_signal(3, WORST_CASE) == 5.0

    def test_multiples_of_period(self):
        for k in (1, 2, 7):
            assert sparse_signal(k * 3, WORST_CASE) == 5.0

    def test_off_period(self):
        spec = SparseSignalSpec(C=5.0, u=-1.0, N=9)
        assert sparse_signal(10, spec) == -1.0

    def test_starts_at_one(self):
        with pytest.raises(ValueError):
            sparse_signal(0, WORST_CASE)

    def test_minimum_period(self):
        with pytest.raises(ValueError):
            SparseSignalSpec(C=1.0, u=0.0, N=2)


class TestPlainMomentum:
    def test_hand_recurrence(self):
        # m_1 = -1, m_2 = -1.9, m_3 = 3.29
        m = simulate_momentum(WORST_CASE, beta=0.9, steps=3)
        np.testing.assert_allclose(m, [-1.0, -1.9, 3.29], rtol=1e-12)

    def test_zero_u_only_impulses(self):
        spec = SparseSignalSpec(C=2.0, u=0.0, N=3)
        m = simulate_momentum(spec, beta=0.5, steps=6)
        assert m[2] == pytest.approx(2.0)
        assert m[5] == pytest.approx(2.0 * (0.5**3 + 1.0))

    def test_beta_zero_returns_signal(self):
        m = simulate_momentum(WORST_CASE, beta=0.0, steps=6)
        expected = [sparse_signal(t, WORST_CASE) for t in range(1, 7)]
        np.testing.assert_array_equal(m, expected)

    def test_closed_form_small_k(self):
        assert lemma1_closed(WORST_CASE, 0.9, 1) == pytest.approx(3.29, rel=1e-12)
        assert lemma1_closed(WORST_CASE, 0.9, 2) == pytest.approx(5.68841, rel=1e-12)

    def test_closed_form_zero_signal(self):
        assert lemma1_closed(SparseSignalSpec(C=0.0, u=0.0, N=5), 0.9, 3) == 0.0

    def test_closed_form_matches_simulation_grid(self):
        for beta in (0.5, 0.9, 0.99):
            for N in (3, 5, 9, 20):
                for u, C in ((-1.0, 5.0), (-1.0, 50.0), (1.0, -10.0)):
                    spec = SparseSignalSpec(C=C, u=u, N=N)
                    sim = simulate_momentum(spec, beta, steps=10 * N)
                    for k in range(1, 11):
                        assert (
                            rel_err(lemma1_closed(spec, beta, k), sim[k * N - 1])
                            <= 1e-10
                        )


class TestThresholds:
    def test_plain_values(self):
        assert threshold_plain(3, 0.9) == pytest.approx(1.71, rel=1e-12)
        assert threshold_plain(9, 0.9) == pytest.approx(5.12579511, rel=1e-9)

    def test_reported_variant_values(self):
        assert threshold_plain_reported(3, 0.9) == pytest.approx(2.439, rel=1e-9)
        assert threshold_plain_reported(9, 0.9) == pytest.approx(5.51321560, rel=1e-8)

    def test_small_beta_limit(self):
        assert threshold_plain(5, 1e-12) == pytest.approx(0.0, abs=1e-11)

    def test_boosted_below_plain_within_band(self):
        # the boosted bound sits in (plain / rho^2, plain) for rho > 1
        for N in (9, 12, 20, 40):
            for L in (3, 4, 5):
                for rho in (1.5, 2.0, 3.0, 5.0):
                    for beta in (0.5, 0.9, 0.99):
                        if L >= N - 1:
                            continue
                        params = LemmaParams(beta=beta, rho=rho, L=L)
                        plain = threshold_plain(N, beta)
                        boosted = threshold_boosted(N, params)
                        assert boosted < plain
                        assert boosted >= plain / rho**2 - 1e-12

    def test_boosted_equals_plain_when_degenerate(self):
        params = LemmaParams(beta=0.9, rho=1.0, L=0)
        assert threshold_boosted(9, params) == pytest.approx(
            threshold_plain(9, 0.9), rel=1e-12
        )

    def test_improvement_approaches_rho_squared(self):
        rho = 3.0
        for N in (60, 80, 120):
            params = LemmaParams(beta=0.9, rho=rho, L=3)
            ratio = threshold_plain(N, 0.9) / threshold_boosted(N, params)
            assert ratio == pytest.approx(rho**2, rel=0.10)

    def test_regime_validation(self):
        with pytest.raises(ValueError, match="L < N - 1"):
            threshold_boosted(5, LemmaParams(beta=0.9, rho=3.0, L=4))


class TestRepeatedValueDamping:
    def test_worked_values(self):
        assert lemma2_phi(5, 3.0) == pytest.approx(0.5, rel=1e-12)
        assert lemma2_phi(17, 3.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_floor_dominates_for_long_queue(self):
        assert lemma2_phi(10_001, 3.0) == pytest.approx(1.0 / 3.0)

    def test_branch_condition(self):
        # rho <= sqrt(L-1) means the floor wins
        assert lemma2_phi(26, 5.0) == pytest.approx(0.2)

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            lemma2_phi(2, 3.0)


class TestBoostedMomentum:
    GRID = [
        (L, N, rho, k)
        for L in (3, 4)
        for N in (9, 20)
        for rho in (2.0, 3.0, 5.0)
        for k in range(1, 6)
    ]

    def test_first_period_closed_form(self):
        # k=1 reduces to u*beta*gamma0 + rho*C
        spec = SparseSignalSpec(C=50.0, u=-1.0, N=9)
        params = LemmaParams(beta=0.9, rho=3.0, L=3)
        beta = 0.9
        beta_3 = (beta**3 - 1) / (beta - 1)
        beta_5 = (beta**5 - 1) / (beta - 1)
        gamma0 = beta**5 * beta_3 + beta_5 / 3.0
        expected = -1.0 * beta * gamma0 + 3.0 * 50.0
        assert lemma3_closed(spec, params, 1) == pytest.approx(expected, rel=1e-12)

    def test_closed_form_matches_convention_simulator(self):
        for L, N, rho, k in self.GRID:
            spec = SparseSignalSpec(C=50.0, u=-1.0, N=N)
            params = LemmaParams(beta=0.9, rho=rho, L=L)
            sim = simulate_lemma3_momentum(spec, params, steps=k * N)
            assert rel_err(lemma3_closed(spec, params, k), sim[-1]) <= 1e-10

    def test_closed_form_matches_mechanistic_with_filled_warmup(self):
        # real queue + real boost operator, warm-up set to "queue filled"
        for L, N, rho, k in self.GRID:
            spec = SparseSignalSpec(C=50.0, u=-1.0, N=N)
            params = LemmaParams(beta=0.9, rho=rho, L=L)
            sim = stepwise_gq_momentum(spec, params, k * N, warmup=L)
            assert rel_err(lemma3_closed(spec, params, k), sim[-1]) <= 1e-10

    def test_default_warmup_deviation_is_exactly_one_step(self):
        # the optimizer warm-up ends at min(3, L) entries, the closed form
        # assumes L; for L=4 the mechanistic run substitutes u/rho for u at
        # t=4, so the trajectories differ by (1 - 1/rho)*u*beta^(t-4)
        spec = SparseSignalSpec(C=50.0, u=-1.0, N=9)
        params = LemmaParams(beta=0.9, rho=3.0, L=4)
        steps = 36
        mech = simulate_gq_momentum(spec, params, steps)
        conv = simulate_lemma3_momentum(spec, params, steps)
        t = np.arange(1, steps + 1)
        gap = (1.0 - 1.0 / 3.0) * -1.0 * 0.9 ** (t - 4.0)
        expected = np.where(t >= 4, conv - gap, conv)
        np.testing.assert_allclose(mech, expected, rtol=1e-10)

    def test_mechanistic_matches_convention_for_L3(self):
        # min(3, 3) = 3 so both warm-up conventions coincide
        spec = SparseSignalSpec(C=50.0, u=-1.0, N=9)
        params = LemmaParams(beta=0.9, rho=3.0, L=3)
        mech = simulate_gq_momentum(spec, params, steps=45)
        conv = simulate_lemma3_momentum(spec, params, steps=45)
        np.testing.assert_allclose(mech, conv, rtol=1e-12)

    def test_rho_one_equals_plain_momentum(self):
        spec = SparseSignalSpec(C=5.0, u=-1.0, N=9)
        params = LemmaParams(beta=0.9, rho=1.0, L=3)
        boosted = simulate_gq_momentum(spec, params, steps=40)
        plain = simulate_momentum(spec, 0.9, steps=40)
        np.testing.assert_array_equal(boosted, plain)

    def test_saturated_queue_contributions(self):
        # all-u queue: incoming u is dampened to u/rho, incoming far C is
        # amplified to rho*C; recover each step's contribution from the
        # recurrence as m_t - beta*m_{t-1}
        spec = SparseSignalSpec(C=50.0, u=-1.0, N=9)
        params = LemmaParams(beta=0.9, rho=3.0, L=3)
        m = simulate_gq_momentum(spec, params, steps=9)
        contrib = m - 0.9 * np.concatenate([[0.0], m[:-1]])
        assert contrib[4] == pytest.approx(-1.0 / 3.0, rel=1e-12)  # t=5, queue = uuu
        assert contrib[8] == pytest.approx(150.0, rel=1e-12)  # t=9, C against uuu

    def test_regime_validation(self):
        spec = SparseSignalSpec(C=5.0, u=-1.0, N=5)
        with pytest.raises(ValueError, match="L < N - 1"):
            lemma3_closed(spec, LemmaParams(beta=0.9, rho=3.0, L=4), 1)
        with pytest.raises(ValueError, match="L < N - 1"):
            simulate_lemma3_momentum(spec, LemmaParams(beta=0.9, rho=3.0, L=5), 10)


def stepwise_gq_momentum(spec, params, steps, warmup=None):
    """The step-by-step simulator: queue statistics and boost at every step."""
    wu = min(3, params.L) if warmup is None else warmup
    queue = GradQueue(capacity=params.L)
    cfg = BoostConfig(rho=params.rho)
    out = np.empty(steps)
    m = 0.0
    for t in range(1, steps + 1):
        g = sparse_signal(t, spec)
        gv = np.array([g])
        if len(queue) >= wu:
            b = float(delta_rho(gv, queue.stats(), cfg)[0])
        else:
            b = g
        m = params.beta * m + b
        out[t - 1] = m
        queue.push(gv)
    return out


def assert_same_bytes(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestMechanisticSimulator:
    """``simulate_gq_momentum`` boosts each distinct queue window once."""

    # (C, u): rare above, below and equal to the repeating value, and tiny against large
    PAIRS = [(50.0, -1.0), (-10.0, 1.0), (2.5, 2.5), (1e-3, 7e5)]
    MAX_STEPS = 40

    @pytest.mark.parametrize("N", [3, 4, 5, 9])
    def test_byte_equal_to_stepwise_loop(self, N):
        # L from 1 to beyond N - 1 (a queue that never saturates between rare
        # steps), rho = 1, C = u, and step counts on both sides of L + N
        for L in (1, 3, 4, 10):
            for rho in (1.0, 3.0):
                for C, u in self.PAIRS:
                    spec = SparseSignalSpec(C=C, u=u, N=N)
                    params = LemmaParams(beta=0.9, rho=rho, L=L)
                    want = stepwise_gq_momentum(spec, params, self.MAX_STEPS)
                    period = L + N
                    for steps in {1, 2, period - 1, period, period + 1, period + N + 1}:
                        steps = min(steps, self.MAX_STEPS)
                        got = simulate_gq_momentum(spec, params, steps)
                        assert_same_bytes(got, want[:steps])

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        N=st.integers(3, 24),
        L=st.integers(1, 10),
        rho=st.sampled_from([1.0, 1.5, 2.0, 3.0, 5.0]),
        C=st.floats(-1e3, 1e3, allow_nan=False),
        u=st.floats(-1e3, 1e3, allow_nan=False),
        steps=st.integers(1, 120),
    )
    def test_property_byte_equal_to_stepwise_loop(self, N, L, rho, C, u, steps):
        spec = SparseSignalSpec(C=C, u=u, N=N)
        params = LemmaParams(beta=0.9, rho=rho, L=L)
        got = simulate_gq_momentum(spec, params, steps)
        assert_same_bytes(got, stepwise_gq_momentum(spec, params, steps))

    @pytest.mark.parametrize(
        "N, L, steps", [(9, 3, 2000), (5, 5, 2000), (20, 4, 2000), (3, 8, 7), (7, 2, 9)]
    )
    def test_boosts_each_distinct_window_once(self, monkeypatch, N, L, steps):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return delta_rho(*args, **kwargs)

        monkeypatch.setattr(analysis, "delta_rho", counted)
        spec = SparseSignalSpec(C=50.0, u=-1.0, N=N)
        params = LemmaParams(beta=0.9, rho=3.0, L=L)
        got = simulate_gq_momentum(spec, params, steps)
        assert 0 < len(calls) <= min(steps, L + N)
        monkeypatch.undo()
        assert_same_bytes(got, stepwise_gq_momentum(spec, params, steps))


class TestSignLaws:
    def signs_at_periods(self, trajectory, N, ks):
        return [math.copysign(1.0, trajectory[k * N - 1]) for k in ks]

    def test_plain_sign_law(self):
        beta, N = 0.9, 9
        bound = threshold_plain(N, beta)
        ks = range(1, 11)
        above = SparseSignalSpec(C=1.06 * bound, u=-1.0, N=N)
        sim = simulate_momentum(above, beta, steps=10 * N)
        assert self.signs_at_periods(sim, N, ks) == [1.0] * 10
        below = SparseSignalSpec(C=0.95 * bound, u=-1.0, N=N)
        sim = simulate_momentum(below, beta, steps=10 * N)
        assert self.signs_at_periods(sim, N, [10]) == [-1.0]

    def test_boosted_sign_law(self):
        beta, N = 0.9, 9
        params = LemmaParams(beta=beta, rho=3.0, L=3)
        bound = threshold_boosted(N, params)
        ks = range(1, 11)
        above = SparseSignalSpec(C=1.06 * bound, u=-1.0, N=N)
        sim = simulate_gq_momentum(above, params, steps=10 * N)
        assert self.signs_at_periods(sim, N, ks) == [1.0] * 10

    def test_separation_band(self):
        # between the two bounds: plain follows u, boosted follows C
        beta, N = 0.9, 9
        params = LemmaParams(beta=beta, rho=3.0, L=3)
        c_mid = 2.0  # between 0.8896 and 5.1258
        assert threshold_boosted(N, params) < c_mid < threshold_plain(N, beta)
        spec = SparseSignalSpec(C=c_mid, u=-1.0, N=N)
        plain = simulate_momentum(spec, beta, steps=10 * N)
        boosted = simulate_gq_momentum(spec, params, steps=10 * N)
        assert plain[10 * N - 1] < 0
        assert all(boosted[k * N - 1] > 0 for k in range(1, 11))


class TestZeta:
    def test_worked_case(self):
        case = BatchCompositionCase(B=100, p=95, q=5, eq_q=1.0, eq_p=-0.04)
        z = zeta(case)
        assert z == pytest.approx(20.0379, abs=1e-4)
        assert boosted_batch_mean(case, z) == pytest.approx(1.0, rel=1e-9)

    def test_zero_frequent_gradient(self):
        case = BatchCompositionCase(B=100, p=95, q=5, eq_q=2.0, eq_p=0.0)
        assert zeta(case) == pytest.approx(20.0, rel=1e-12)  # B/q

    def test_all_rare(self):
        case = BatchCompositionCase(B=64, p=0, q=64, eq_q=1.5, eq_p=0.0)
        assert zeta(case) == pytest.approx(1.0, rel=1e-12)

    def test_root_property_random_cases(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 100:
            B = int(rng.integers(10, 512))
            q = int(rng.integers(1, B + 1))
            case = BatchCompositionCase(
                B=B,
                p=B - q,
                q=q,
                eq_q=float(rng.uniform(-3, 3)),
                eq_p=float(rng.uniform(-3, 3)),
            )
            if case.eq_q == 0.0:
                continue
            try:
                z = zeta(case)
            except ValueError:
                continue
            # substituting the root back into the quadratic gives zero
            residual = (
                z * z * case.q * case.eq_q
                - z * case.B * case.eq_q
                + case.p * case.eq_p
            )
            scale = max(abs(z * z * case.q * case.eq_q), abs(case.B * case.eq_q * z), 1e-30)
            assert abs(residual) / scale <= 1e-9
            checked += 1

    def test_negative_discriminant_raises(self):
        case = BatchCompositionCase(B=100, p=95, q=5, eq_q=0.1, eq_p=2.0)
        with pytest.raises(ValueError, match="discriminant"):
            zeta(case)

    def test_zero_eq_q_raises(self):
        case = BatchCompositionCase(B=10, p=5, q=5, eq_q=0.0, eq_p=1.0)
        with pytest.raises(ValueError, match="eq_q"):
            zeta(case)


class TestBatchErrorCases:
    def test_full_cancellation(self):
        case = BatchCompositionCase(B=100, p=95, q=5, eq_q=19.0, eq_p=-1.0)
        e_gb, e_k, label = batch_error_case(case)
        assert e_gb == 0.0
        assert e_k == 19.0
        assert label == 2

    def test_zero_frequent_gradient(self):
        case = BatchCompositionCase(B=100, p=95, q=5, eq_q=2.0, eq_p=0.0)
        e_gb, e_k, label = batch_error_case(case)
        assert e_k == pytest.approx(2.0 * (1 - 5 / 100), rel=1e-12)
        assert label == 1

    def test_all_rare_batch(self):
        case = BatchCompositionCase(B=50, p=0, q=50, eq_q=1.2, eq_p=0.0)
        e_gb, e_k, label = batch_error_case(case)
        assert e_gb == pytest.approx(1.2, rel=1e-12)
        assert e_k == pytest.approx(0.0, abs=1e-15)
        assert label == 1

    def test_dominated_by_frequent(self):
        case = BatchCompositionCase(B=100, p=95, q=5, eq_q=0.5, eq_p=-1.0)
        _, _, label = batch_error_case(case)
        assert label == 3

    def test_same_signs_never_label_two_or_three(self):
        case = BatchCompositionCase(B=100, p=95, q=5, eq_q=1.0, eq_p=0.05)
        _, _, label = batch_error_case(case)
        assert label == 1

    def test_composition_validation(self):
        with pytest.raises(ValueError):
            BatchCompositionCase(B=10, p=4, q=5, eq_q=1.0, eq_p=1.0)
        with pytest.raises(ValueError):
            BatchCompositionCase(B=10, p=10, q=0, eq_q=1.0, eq_p=1.0)


SPEC = SparseSignalSpec(C=5.0, u=-1.0, N=5)
PARAMS = LemmaParams(beta=0.9, rho=3.0, L=2)
CASE = BatchCompositionCase(B=10, p=9, q=1, eq_q=1.0, eq_p=-0.1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: LemmaParams(beta=1.0, rho=3.0, L=2), "beta must lie in (0, 1)"),
        (lambda: LemmaParams(beta=0.9, rho=0.5, L=2), "rho must be >= 1"),
        (lambda: LemmaParams(beta=0.9, rho=3.0, L=-1), "queue length L must be non-negative"),
        (lambda: lemma3_closed(SPEC, PARAMS, 0), "period index k must be >= 1"),
        (lambda: simulate_momentum(SPEC, 0.9, 0), "steps must be >= 1"),
        (lambda: simulate_gq_momentum(SPEC, PARAMS, 0), "steps must be >= 1"),
        (lambda: simulate_lemma3_momentum(SPEC, PARAMS, 0), "steps must be >= 1"),
        (
            lambda: simulate_gq_momentum(SPEC, LemmaParams(beta=0.9, rho=3.0, L=0), 5),
            "the mechanistic simulation needs L >= 1",
        ),
        (lambda: lemma1_closed(SPEC, 0.9, 0), "k must be >= 1"),
        (lambda: threshold_plain(2, 0.9), "N must be >= 3"),
        (lambda: threshold_plain_reported(2, 0.9), "N must be >= 3"),
        # NaN compares False both ways, so each check is written to fail on it
        (lambda: LemmaParams(beta=0.9, rho=math.nan, L=2), "rho must be >= 1"),
        (lambda: threshold_boosted(9, LemmaParams(0.9, math.nan, 3)), "rho must be >= 1"),
        (lambda: LemmaParams(beta=0.9, rho=3.0, L=math.nan), "queue length L must be non-negative"),
        (lambda: lemma3_closed(SPEC, PARAMS, math.nan), "period index k must be >= 1"),
        (lambda: lemma1_closed(SPEC, 0.9, math.nan), "k must be >= 1"),
        (lambda: SparseSignalSpec(C=5.0, u=-1.0, N=math.nan), "sparse period N must be >= 3, got nan"),
        # a fractional period, queue length or period index is refused after the range checks
        (lambda: SparseSignalSpec(5.0, -1.0, 9.5), "sparse period N must be an integer, got 9.5"),
        (lambda: LemmaParams(0.9, 3.0, 3.5), "queue length L must be an integer, got 3.5"),
        (lambda: lemma1_closed(SPEC, 0.9, 1.5), "k must be an integer, got 1.5"),
        (lambda: lemma3_closed(SPEC, PARAMS, 2.5), "period index k must be an integer, got 2.5"),
        (lambda: lemma2_phi(3.5, 3.0), "queue length L must be an integer, got 3.5"),
        (lambda: threshold_plain(9.5, 0.9), "N must be an integer, got 9.5"),
        (lambda: threshold_plain_reported(9.5, 0.9), "N must be an integer, got 9.5"),
        (lambda: threshold_boosted(9.5, PARAMS), "N must be an integer, got 9.5"),
        (lambda: threshold_plain(math.nan, 0.9), "N must be an integer, got nan"),
        # fractional counts and step counts, likewise
        (
            lambda: BatchCompositionCase(B=10.5, p=5.5, q=5, eq_q=1.0, eq_p=-0.1),
            "B must be an integer, got 10.5",
        ),
        (
            lambda: BatchCompositionCase(B=10, p=4, q=6.0, eq_q=1.0, eq_p=-0.1),
            "q must be an integer, got 6.0",
        ),
        (lambda: simulate_momentum(SPEC, 0.9, 10.5), "steps must be an integer, got 10.5"),
        (lambda: simulate_gq_momentum(SPEC, PARAMS, 10.5), "steps must be an integer, got 10.5"),
        (lambda: simulate_lemma3_momentum(SPEC, PARAMS, 10.5), "steps must be an integer, got 10.5"),
        (lambda: simulate_momentum(SPEC, 0.9, math.nan), "steps must be an integer, got nan"),
        # a beta outside (0, 1) or a rho of 0 would divide by zero, and a NaN would give NaN
        (lambda: lemma1_closed(SPEC, 1.0, 2), "beta must lie in (0, 1)"),
        (lambda: lemma1_closed(SPEC, math.nan, 2), "beta must lie in (0, 1)"),
        (lambda: threshold_plain(9, 1.0), "beta must lie in (0, 1)"),
        (lambda: threshold_plain(9, math.nan), "beta must lie in (0, 1)"),
        (lambda: threshold_plain_reported(9, 1.0), "beta must lie in (0, 1)"),
        (lambda: threshold_plain_reported(9, math.nan), "beta must lie in (0, 1)"),
        (lambda: boosted_batch_mean(CASE, 0.0), "rho must be > 0, got 0.0"),
        (lambda: boosted_batch_mean(CASE, -2.0), "rho must be > 0, got -2.0"),
        (lambda: boosted_batch_mean(CASE, math.nan), "rho must be > 0, got nan"),
        # a rho below 1 would grow the repeated value, not damp it
        (lambda: lemma2_phi(4, 0.5), "rho must be >= 1"),
        (lambda: lemma2_phi(4, math.nan), "rho must be >= 1"),
        (lambda: lemma2_phi(4, 0), "rho must be >= 1"),
        (lambda: threshold_boosted(2, LemmaParams(0.9, 3.0, 0)), "N must be >= 3"),
        # a non-finite signal or group expectation would give NaN trajectories and boosts
        (lambda: SparseSignalSpec(C=math.nan, u=-1.0, N=5), "C must be finite, got nan"),
        (lambda: SparseSignalSpec(C=math.inf, u=-1.0, N=5), "C must be finite, got inf"),
        (lambda: SparseSignalSpec(C=5.0, u=-math.inf, N=5), "u must be finite, got -inf"),
        (lambda: SparseSignalSpec(C=5.0, u=math.nan, N=5), "u must be finite, got nan"),
        (
            lambda: BatchCompositionCase(B=10, p=9, q=1, eq_q=math.nan, eq_p=-0.1),
            "eq_q must be finite, got nan",
        ),
        (
            lambda: BatchCompositionCase(B=10, p=9, q=1, eq_q=-math.inf, eq_p=-0.1),
            "eq_q must be finite, got -inf",
        ),
        (
            lambda: BatchCompositionCase(B=10, p=9, q=1, eq_q=1.0, eq_p=math.inf),
            "eq_p must be finite, got inf",
        ),
        (
            lambda: BatchCompositionCase(B=10, p=9, q=1, eq_q=1.0, eq_p=math.nan),
            "eq_p must be finite, got nan",
        ),
        (lambda: LemmaParams(beta=0.9, rho=math.inf, L=3), "rho must be finite, got inf"),
        (lambda: LemmaParams(beta=0.9, rho=-math.inf, L=3), "rho must be finite, got -inf"),
        (
            lambda: lemma3_closed(SPEC, LemmaParams(0.9, math.inf, 3), 2),
            "rho must be finite, got inf",
        ),
        (lambda: lemma2_phi(4, math.inf), "rho must be finite, got inf"),
        (lambda: boosted_batch_mean(CASE, math.inf), "rho must be finite, got inf"),
        (lambda: boosted_batch_mean(CASE, -math.inf), "rho must be finite, got -inf"),
        (lambda: simulate_momentum(SPEC, math.nan, 4), "beta must lie in [0, 1), got nan"),
        (lambda: simulate_momentum(SPEC, 1.5, 4), "beta must lie in [0, 1), got 1.5"),
        (lambda: simulate_momentum(SPEC, 1.0, 4), "beta must lie in [0, 1), got 1.0"),
        (lambda: simulate_momentum(SPEC, -0.5, 4), "beta must lie in [0, 1), got -0.5"),
    ],
    ids=[
        "lemma-params-beta",
        "lemma-params-rho",
        "lemma-params-L",
        "lemma3-k",
        "simulate-momentum-steps",
        "simulate-gq-momentum-steps",
        "simulate-lemma3-steps",
        "simulate-gq-momentum-L",
        "lemma1-k",
        "threshold-plain-N",
        "threshold-plain-reported-N",
        "lemma-params-rho-nan",
        "threshold-boosted-rho-nan",
        "lemma-params-L-nan",
        "lemma3-k-nan",
        "lemma1-k-nan",
        "sparse-signal-N-nan",
        "sparse-signal-N-fractional",
        "lemma-params-L-fractional",
        "lemma1-k-fractional",
        "lemma3-k-fractional",
        "lemma2-L-fractional",
        "threshold-plain-N-fractional",
        "threshold-plain-reported-N-fractional",
        "threshold-boosted-N-fractional",
        "threshold-plain-N-nan",
        "batch-composition-B-fractional",
        "batch-composition-q-fractional",
        "simulate-momentum-steps-fractional",
        "simulate-gq-momentum-steps-fractional",
        "simulate-lemma3-steps-fractional",
        "simulate-momentum-steps-nan",
        "lemma1-beta-one",
        "lemma1-beta-nan",
        "threshold-plain-beta-one",
        "threshold-plain-beta-nan",
        "threshold-plain-reported-beta-one",
        "threshold-plain-reported-beta-nan",
        "boosted-batch-mean-rho-zero",
        "boosted-batch-mean-rho-negative",
        "boosted-batch-mean-rho-nan",
        "lemma2-rho-below-one",
        "lemma2-rho-nan",
        "lemma2-rho-zero",
        "threshold-boosted-N",
        "sparse-signal-C-nan",
        "sparse-signal-C-inf",
        "sparse-signal-u-minus-inf",
        "sparse-signal-u-nan",
        "batch-composition-eq-q-nan",
        "batch-composition-eq-q-minus-inf",
        "batch-composition-eq-p-inf",
        "batch-composition-eq-p-nan",
        "lemma-params-rho-inf",
        "lemma-params-rho-minus-inf",
        "lemma3-rho-inf",
        "lemma2-rho-inf",
        "boosted-batch-mean-rho-inf",
        "boosted-batch-mean-rho-minus-inf",
        "simulate-momentum-beta-nan",
        "simulate-momentum-beta-above-one",
        "simulate-momentum-beta-one",
        "simulate-momentum-beta-negative",
    ],
)
def test_refusal_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("nine", [np.int64(9), np.int32(9), np.uint8(9)])
def test_numpy_integer_sizes_accepted(nine):
    spec, params = SparseSignalSpec(5.0, -1.0, nine), LemmaParams(0.9, 3.0, nine // 3)
    assert lemma1_closed(spec, 0.9, nine // 4) == lemma1_closed(SparseSignalSpec(5.0, -1.0, 9), 0.9, 2)
    assert lemma3_closed(spec, params, nine // 4) == lemma3_closed(
        SparseSignalSpec(5.0, -1.0, 9), LemmaParams(0.9, 3.0, 3), 2
    )
    assert lemma2_phi(nine // 3, 3.0) == lemma2_phi(3, 3.0)
    assert threshold_plain(nine, 0.9) == threshold_plain(9, 0.9)
    assert threshold_plain_reported(nine, 0.9) == threshold_plain_reported(9, 0.9)
    assert threshold_boosted(nine, params) == threshold_boosted(9, LemmaParams(0.9, 3.0, 3))
    spec9, params3 = SparseSignalSpec(5.0, -1.0, 9), LemmaParams(0.9, 3.0, 3)
    steps = nine * 2  # 18, of the same numpy type
    assert simulate_momentum(spec, 0.9, steps).tobytes() == simulate_momentum(spec9, 0.9, 18).tobytes()
    assert (
        simulate_gq_momentum(spec, params, steps).tobytes()
        == simulate_gq_momentum(spec9, params3, 18).tobytes()
    )
    assert (
        simulate_lemma3_momentum(spec, params, steps).tobytes()
        == simulate_lemma3_momentum(spec9, params3, 18).tobytes()
    )
    case = BatchCompositionCase(B=nine + 1, p=nine - 4, q=nine - 4, eq_q=1.0, eq_p=-0.1)
    assert zeta(case) == zeta(BatchCompositionCase(B=10, p=5, q=5, eq_q=1.0, eq_p=-0.1))
