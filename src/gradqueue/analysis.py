"""Closed forms and step-by-step simulators for boosted momentum dynamics.

Everything here is built around a periodic test signal that emits a rare
value C every N steps and a repeating value u otherwise. The closed forms
predict the momentum at the end of each period, with and without the
boost operator; the simulators recompute the same quantities by running
the recurrences directly, so each closed form has an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BoostConfig, GradQueue, _integer, delta_rho

__all__ = [
    "SparseSignalSpec",
    "LemmaParams",
    "BatchCompositionCase",
    "sparse_signal",
    "simulate_momentum",
    "simulate_gq_momentum",
    "simulate_lemma3_momentum",
    "lemma1_closed",
    "lemma2_phi",
    "lemma3_closed",
    "threshold_plain",
    "threshold_plain_reported",
    "threshold_boosted",
    "geometric_sum",
    "period_sum",
    "zeta",
    "boosted_batch_mean",
    "batch_error_case",
]


@dataclass(frozen=True)
class SparseSignalSpec:
    """Periodic scalar stream: value C at every N-th step, u otherwise."""

    C: float
    u: float
    N: int

    def __post_init__(self):
        if not self.N >= 3:  # written so that NaN fails the check
            raise ValueError(f"sparse period N must be >= 3, got {self.N}")
        _integer("sparse period N", self.N)


@dataclass(frozen=True)
class LemmaParams:
    """Momentum/boost parameters for the closed-form analysis.

    beta is the momentum coefficient, rho the boost clamp and L the queue
    length.
    """

    beta: float
    rho: float
    L: int

    def __post_init__(self):
        # written so that NaN fails every check
        _check_beta(self.beta)
        if not self.rho >= 1.0:
            raise ValueError("rho must be >= 1")
        if not self.L >= 0:
            raise ValueError("queue length L must be non-negative")
        _integer("queue length L", self.L)


@dataclass(frozen=True)
class BatchCompositionCase:
    """A mini-batch of B samples: p frequent-type and q rare-type.

    eq_q and eq_p are the expected gradients of the rare and frequent
    groups respectively.
    """

    B: int
    p: int
    q: int
    eq_q: float
    eq_p: float

    def __post_init__(self):
        if self.B < 1 or self.q < 1 or self.p < 0:
            raise ValueError("need B >= 1, q >= 1, p >= 0")
        if self.p + self.q != self.B:
            raise ValueError(f"p + q must equal B ({self.p} + {self.q} != {self.B})")
        for name in ("B", "p", "q"):  # stored as ints: numpy integer arithmetic could wrap
            object.__setattr__(self, name, _integer(name, getattr(self, name)))


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < 1.0:  # written so that NaN fails the check
        raise ValueError("beta must lie in (0, 1)")


def sparse_signal(t: int, spec: SparseSignalSpec) -> float:
    """Value of the periodic stream at step t (t >= 1)."""
    if t < 1:
        raise ValueError("the stream starts at t = 1")
    return spec.C if t % spec.N == 0 else spec.u


def geometric_sum(beta: float, x: int) -> float:
    """beta_x = (beta^x - 1) / (beta - 1), the partial geometric sum."""
    return (beta**x - 1.0) / (beta - 1.0)


def period_sum(beta: float, N: int, k: int) -> float:
    """Sum of beta^(j*N) for j = 0 .. k-1 (zero when k = 0)."""
    if k <= 0:
        return 0.0
    bN = beta**N
    return (bN**k - 1.0) / (bN - 1.0)


def simulate_momentum(spec: SparseSignalSpec, beta: float, steps: int) -> np.ndarray:
    """Plain momentum trajectory m_t = beta*m_{t-1} + g_t, m_0 = 0.

    g_t is computed inline, as ``sparse_signal`` defines it.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    steps = _integer("steps", steps)
    C, u, N = spec.C, spec.u, spec.N
    out = []
    m = 0.0
    for t in range(1, steps + 1):
        m = beta * m + (C if t % N == 0 else u)
        out.append(m)
    return np.array(out, dtype=float)


def lemma1_closed(spec: SparseSignalSpec, beta: float, k: int) -> float:
    """Closed form for the plain momentum at the end of the k-th period.

    m_{kN} = (sum_j beta^{jN}) * (u*beta*beta_{N-1} + C); matches
    ``simulate_momentum`` at t = k*N.
    """
    if not k >= 1:  # written so that NaN fails the check
        raise ValueError("k must be >= 1")
    _integer("k", k)
    _check_beta(beta)
    cycle = spec.u * beta * geometric_sum(beta, spec.N - 1) + spec.C
    return period_sum(beta, spec.N, k) * cycle


def threshold_plain(N: int, beta: float) -> float:
    """|C/u| bound above which plain momentum at t = kN follows sign(C).

    Equals beta * beta_{N-1}: the accumulated weight of the N-1 repeating
    steps that the single rare step has to overcome.
    """
    if N < 3:
        raise ValueError("N must be >= 3")
    _integer("N", N)
    _check_beta(beta)
    return beta * geometric_sum(beta, N - 1)


def threshold_plain_reported(N: int, beta: float) -> float:
    """Variant of ``threshold_plain`` with the window extended one step.

    Computes beta * beta_N. Kept alongside the canonical bound because
    commonly tabulated round values (2.44 at N=3, 5.51 at N=9 for
    beta=0.9) follow this indexing.
    """
    if N < 3:
        raise ValueError("N must be >= 3")
    _integer("N", N)
    _check_beta(beta)
    return beta * geometric_sum(beta, N)


def lemma2_phi(L: int, rho: float) -> float:
    """Damping factor on the repeated value in a queue of L-1 copies plus one outlier.

    For a queue holding L-1 copies of u and a single C, the z-score of u
    is exactly 1/sqrt(L-1), so the boost scales u by
    max(1/sqrt(L-1), 1/rho).
    """
    if L < 3:
        raise ValueError("queue length L must be >= 3")
    _integer("queue length L", L)
    return max(1.0 / math.sqrt(L - 1), 1.0 / rho)


def _gamma_head_tail(N: int, params: LemmaParams) -> tuple[float, float]:
    # head: the first L contributions of a period, tail: the remaining
    # N-1-L repeating steps dampened by 1/rho
    beta, L = params.beta, params.L
    head = beta ** (N - 1 - L) * geometric_sum(beta, L)
    tail = geometric_sum(beta, N - 1 - L) / params.rho
    return head, tail


def lemma3_closed(spec: SparseSignalSpec, params: LemmaParams, k: int) -> float:
    """Closed form for the boosted momentum at the end of the k-th period.

    Valid when the queue saturates between rare events (L < N - 1). The
    first period accumulates the repeating value undamped while the queue
    fills (gamma0 term); later periods see it dampened by phi while the
    rare value is still in the queue and by 1/rho afterwards (gamma
    term); each rare step contributes rho*C.
    """
    if not k >= 1:  # written so that NaN fails the check
        raise ValueError("period index k must be >= 1")
    _integer("period index k", k)
    N = spec.N
    if params.L >= N - 1:
        raise ValueError(
            f"closed form requires L < N - 1 (got L={params.L}, N={N})"
        )
    phi = lemma2_phi(params.L, params.rho)
    head, tail = _gamma_head_tail(N, params)
    gamma0 = head + tail
    gamma = phi * head + tail
    beta, rho = params.beta, params.rho
    first = beta ** (N * (k - 1)) * (spec.u * beta * gamma0 + rho * spec.C)
    rest = period_sum(beta, N, k - 1) * (spec.u * beta * gamma + rho * spec.C)
    return first + rest


def threshold_boosted(N: int, params: LemmaParams) -> float:
    """|C/u| bound for the boosted momentum at t = kN to follow sign(C).

    Equals (beta * gamma0_{N-1}) / rho, always below ``threshold_plain``
    for rho > 1; the gap approaches rho^2 as L/N goes to zero.
    """
    if params.L >= N - 1:
        raise ValueError(
            f"bound requires L < N - 1 (got L={params.L}, N={N})"
        )
    _integer("N", N)
    head, tail = _gamma_head_tail(N, params)
    return params.beta * (head + tail) / params.rho


def simulate_gq_momentum(
    spec: SparseSignalSpec,
    params: LemmaParams,
    steps: int,
) -> np.ndarray:
    """Boosted momentum trajectory computed mechanistically.

    Feeds the periodic stream through a real queue of capacity L and the
    real boost operator; each step accumulates m_t = beta*m_{t-1} +
    boosted(g_t) and then pushes the raw g_t. The boost is the identity
    until the queue is ``warmed_up`` (min(3, L) entries, the optimizer
    convention; the closed form assumes L).

    The boost is evaluated once per distinct queue window. Once t > L + N,
    the queue before step t holds g_{t-L} .. g_{t-1} and the queue before
    step t - N holds g_{t-N-L} .. g_{t-N-1}; both are full, and the signal
    has period N, so the two windows are equal entry by entry, as are g_t
    and g_{t-N}. The queue gathers its window oldest first, so equal
    windows give equal statistics and an equal boost, bit for bit. So
    only steps 1 .. min(steps, L + N) run the queue and the boost; every
    later step reuses b_t = b_{t-N}, and the momentum is accumulated in
    step order as before.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    steps = _integer("steps", steps)
    if params.L < 1:
        raise ValueError("the mechanistic simulation needs L >= 1")
    queue = GradQueue(capacity=params.L)
    cfg = BoostConfig(rho=params.rho)
    N = spec.N
    boosts = []
    for t in range(1, min(steps, params.L + N) + 1):
        g = sparse_signal(t, spec)
        gv = np.array([g])
        boosts.append(float(delta_rho(gv, queue.stats(), cfg)[0]) if queue.warmed_up else g)
        queue.push(gv)
    for i in range(len(boosts), steps):  # b_t = b_{t-N}, 0-based
        boosts.append(boosts[i - N])
    beta = params.beta
    out = []
    m = 0.0
    for b in boosts:
        m = beta * m + b
        out.append(m)
    return np.array(out, dtype=float)


def simulate_lemma3_momentum(
    spec: SparseSignalSpec, params: LemmaParams, steps: int
) -> np.ndarray:
    """Boosted momentum trajectory under the closed-form substitution rules.

    Independent oracle for ``lemma3_closed``: instead of running the
    queue, each step contributes its analytical amount. First period: u
    while the queue fills (t <= L), u/rho afterwards. Later periods: the
    first L repeating steps contribute phi*u (rare value still queued),
    the rest u/rho. Every rare step contributes rho*C.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    steps = _integer("steps", steps)
    N = spec.N
    if params.L >= N - 1:
        raise ValueError(
            f"substitution rules require L < N - 1 (got L={params.L}, N={N})"
        )
    phi = lemma2_phi(params.L, params.rho)
    beta, rho, L = params.beta, params.rho, params.L
    out = np.empty(steps)
    m = 0.0
    for t in range(1, steps + 1):
        if t % N == 0:
            c = rho * spec.C
        elif t <= L:
            c = spec.u
        elif t < N:
            c = spec.u / rho
        else:
            j = t % N
            c = phi * spec.u if j <= L else spec.u / rho
        m = beta * m + c
        out[t - 1] = m
    return out


def zeta(case: BatchCompositionCase) -> float:
    """Boost magnitude at which the boosted batch mean recovers eq_q.

    Larger root of z^2*q*eq_q - z*B*eq_q + p*eq_p = 0. Raises when eq_q
    is zero or when the discriminant is negative (no real boost level can
    lift the batch mean back to the rare expectation).
    """
    if case.eq_q == 0.0:
        raise ValueError("eq_q must be nonzero")
    a = case.q * case.eq_q
    b = -case.B * case.eq_q
    c = case.p * case.eq_p
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise ValueError(
            "negative discriminant: no real boost magnitude recovers eq_q"
        )
    sq = math.sqrt(disc)
    return max((-b + sq) / (2.0 * a), (-b - sq) / (2.0 * a))


def boosted_batch_mean(case: BatchCompositionCase, rho: float) -> float:
    """Batch mean after scaling the rare group by rho and the rest by 1/rho."""
    if not rho > 0.0:  # zeta is often below 1; written so that NaN fails the check
        raise ValueError(f"rho must be > 0, got {rho}")
    return (case.q * rho * case.eq_q + case.p * case.eq_p / rho) / case.B


CASE2_RTOL = 1e-9  # how close |eq_q/eq_p| must be to p/q for full cancellation


def batch_error_case(case: BatchCompositionCase) -> tuple[float, float, int]:
    """Batch mean, its deviation from the rare expectation, and the case label.

    Returns (E(g^b), e_k, label). E(g^b) = (q*eq_q + p*eq_p)/B and
    e_k = |eq_q - E(g^b)|. Label 2 (full cancellation) needs opposing
    signs and |eq_q/eq_p| equal to p/q within CASE2_RTOL; label 3 needs
    opposing signs and a ratio below p/q; everything else is label 1.
    """
    e_gb = (case.q * case.eq_q + case.p * case.eq_p) / case.B
    e_k = abs(case.eq_q - e_gb)
    if case.p == 0 or case.eq_p == 0.0:
        return e_gb, e_k, 1
    ratio = abs(case.eq_q / case.eq_p)
    target = case.p / case.q
    opposing = case.eq_q * case.eq_p < 0.0
    if opposing and math.isclose(ratio, target, rel_tol=CASE2_RTOL):
        return e_gb, e_k, 2
    if opposing and ratio < target:
        return e_gb, e_k, 3
    return e_gb, e_k, 1
