"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""

import time
from itertools import product

import numpy as np

from gradqueue import (
    AdamState,
    BatchCompositionCase,
    BoostConfig,
    GradQueue,
    LemmaParams,
    OptimizerConfig,
    QueueStats,
    SgdmState,
    SparseSignalSpec,
    adam_step,
    aggregate,
    boosted_batch_mean,
    delta_rho,
    kmeans,
    kmeans_objective,
    lemma1_closed,
    lemma3_closed,
    sgdm_step,
    simulate_gq_momentum,
    simulate_lemma3_momentum,
    simulate_momentum,
    zeta,
)
from gradqueue.clustering import ClusterAssignment
from gradqueue.experiments import ExperimentConfig, run_qlen_demo, run_train_lines
from gradqueue.nn import LineDetectorModel, Windows, generate_lines, per_sample_grads

# configuration of the paired-training acceptance experiment (criterion 8);
# k is derived as choose_k(100, 50) = 2, so the boosted run clusters
TRAIN_CFG = dict(
    learning_rate=0.05,
    beta=0.9,
    rho=3.0,
    capacity=3,
    steps=200,
    height=8,
    width=8,
    p=95,
    q=5,
    noise_std=0.0,
    batch_size=100,
    optimal_batch=50,
)
TRAIN_SEEDS = range(10)


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def rel_err(a, b):
    denom = max(abs(a), abs(b))
    return abs(a - b) / denom if denom else 0.0


def test_criterion_01_plain_momentum_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    cells = 0
    for beta in (0.5, 0.9, 0.99):
        for N in (3, 5, 9, 20):
            for u, C in ((-1.0, 5.0), (-1.0, 50.0), (1.0, -10.0)):
                spec = SparseSignalSpec(C=C, u=u, N=N)
                sim = simulate_momentum(spec, beta, steps=10 * N)
                for k in range(1, 11):
                    worst = max(worst, rel_err(lemma1_closed(spec, beta, k), sim[k * N - 1]))
                    cells += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-10 and elapsed < 1.0,
        f"{cells} grid cells, worst rel err {worst:.2e}, runtime {elapsed:.3f}s",
    )


def test_criterion_02_repeated_value_damping():
    rng = np.random.default_rng(1234)
    rho = 3.0
    worst = 0.0
    for L in (4, 5, 8, 17):
        for _ in range(20):
            u = float(rng.uniform(-5, 5))
            C = u + float(rng.choice([-1, 1]) * rng.uniform(1.0, 50.0))
            if abs(u) < 1e-3:
                continue
            queue = GradQueue(capacity=L)
            for _ in range(L - 1):
                queue.push([u])
            queue.push([C])
            out = delta_rho(np.array([u]), queue.stats(), BoostConfig(rho=rho))
            expected = max(1.0 / np.sqrt(L - 1), 1.0 / rho)
            worst = max(worst, rel_err(float(out[0] / u), expected))
    # spot value: L=5 gives exactly 1/2
    queue = GradQueue(capacity=5)
    for _ in range(4):
        queue.push([2.0])
    queue.push([11.0])
    half = float(delta_rho(np.array([2.0]), queue.stats(), BoostConfig(rho=rho))[0] / 2.0)
    ok = worst <= 1e-10 and abs(half - 0.5) <= 1e-10
    report(2, ok, f"worst rel err {worst:.2e}; L=5 scale {half!r}")


def test_criterion_03_boosted_momentum_closed_form():
    worst = 0.0
    checked = skipped = 0
    for L, N, rho, k in product((3, 4), (9, 20), (2.0, 3.0, 5.0), range(1, 6)):
        if L >= N - 1:
            skipped += 1
            continue
        spec = SparseSignalSpec(C=50.0, u=-1.0, N=N)
        params = LemmaParams(beta=0.9, rho=rho, L=L)
        sim = simulate_lemma3_momentum(spec, params, steps=k * N)
        worst = max(worst, rel_err(lemma3_closed(spec, params, k), sim[-1]))
        checked += 1
    report(
        3,
        worst <= 1e-10,
        f"{checked} cells checked, {skipped} skipped (regime), worst rel err {worst:.2e}",
    )


def test_criterion_04_threshold_separation():
    beta, rho, N, L = 0.9, 3.0, 9, 3
    params = LemmaParams(beta=beta, rho=rho, L=L)
    grid = np.arange(0.05, 8.0, 0.05)

    def measured_threshold(simulate):
        for r in grid:
            spec = SparseSignalSpec(C=float(r), u=-1.0, N=N)
            m = simulate(spec)
            if all(m[k * N - 1] > 0 for k in range(1, 11)):
                return float(r)
        return float("inf")

    plain_at = measured_threshold(lambda s: simulate_momentum(s, beta, 10 * N))
    boosted_at = measured_threshold(lambda s: simulate_gq_momentum(s, params, 10 * N))
    # a band where plain follows u but boosted follows C
    band_mid = (boosted_at + plain_at) / 2
    spec = SparseSignalSpec(C=band_mid, u=-1.0, N=N)
    plain_sign = simulate_momentum(spec, beta, 10 * N)[10 * N - 1] < 0
    boosted_sign = all(
        simulate_gq_momentum(spec, params, 10 * N)[k * N - 1] > 0 for k in range(1, 11)
    )
    ratio = plain_at / boosted_at
    ok = (
        boosted_at < plain_at
        and plain_sign
        and boosted_sign
        and 0.9 * rho <= ratio <= 1.1 * rho**2
    )
    report(
        4,
        ok,
        f"measured bounds: plain {plain_at:.2f}, boosted {boosted_at:.2f}, "
        f"ratio {ratio:.2f} in [{0.9 * rho:.2f}, {1.1 * rho ** 2:.2f}]",
    )


def test_criterion_05_zeta_recovers_rare_expectation():
    rng = np.random.default_rng(77)
    worst = 0.0
    checked = 0
    while checked < 100:
        B = int(rng.integers(4, 1024))
        q = int(rng.integers(1, B + 1))
        eq_q = float(rng.uniform(-4, 4))
        eq_p = float(rng.uniform(-4, 4))
        if abs(eq_q) < 1e-6:
            continue
        case = BatchCompositionCase(B=B, p=B - q, q=q, eq_q=eq_q, eq_p=eq_p)
        try:
            z = zeta(case)
        except ValueError:
            continue
        worst = max(worst, rel_err(boosted_batch_mean(case, z), eq_q))
        checked += 1
    worked = zeta(BatchCompositionCase(B=100, p=95, q=5, eq_q=1.0, eq_p=-0.04))
    ok = worst <= 1e-9 and abs(worked - 20.0379) < 1e-4
    report(5, ok, f"{checked} cases, worst rel err {worst:.2e}, worked case {worked:.4f}")


def test_criterion_06_degeneracy_at_rho_one():
    rng = np.random.default_rng(5)
    stream = [rng.normal(size=6) * rng.uniform(0.1, 8) for _ in range(50)]

    plain_s = SgdmState.init(np.ones(6))
    boost_s = SgdmState.init(np.ones(6))
    cfg_off = OptimizerConfig(boost_enabled=False)
    cfg_on = OptimizerConfig(boost=BoostConfig(rho=1.0), boost_enabled=True)
    sgdm_exact = True
    for g in stream:
        plain_s = sgdm_step(plain_s, g, cfg_off)
        boost_s = sgdm_step(boost_s, g, cfg_on)
        sgdm_exact &= np.array_equal(plain_s.params, boost_s.params)

    plain_a = AdamState.init(np.ones(6))
    boost_a = AdamState.init(np.ones(6))
    adam_exact = True
    for g in stream:
        plain_a = adam_step(plain_a, g, cfg_off)
        boost_a = adam_step(boost_a, g, cfg_on)
        adam_exact &= np.array_equal(plain_a.params, boost_a.params)

    worst_aggregate = 0.0
    st = QueueStats(rng.normal(size=4), rng.uniform(0.2, 2.0, size=4), 5)
    for k in (1, 2, 3, 7):
        grads = rng.normal(size=(14, 4))
        labels = rng.integers(0, k, size=14)
        labels[:k] = np.arange(k)
        assignment = ClusterAssignment(labels=labels, centroids=np.zeros((k, 4)))
        out = aggregate(grads, assignment, st, BoostConfig(rho=1.0))
        mean = grads.mean(axis=0)
        worst_aggregate = max(
            worst_aggregate,
            float(np.max(np.abs(out - mean) / np.maximum(np.abs(mean), 1e-30))),
        )
    ok = sgdm_exact and adam_exact and worst_aggregate <= 1e-12
    report(
        6,
        ok,
        f"sgdm bit-identical={sgdm_exact}, adam bit-identical={adam_exact}, "
        f"aggregation worst rel dev {worst_aggregate:.2e}",
    )


def test_criterion_07_gradients_match_finite_differences():
    from test_nn import fd_gradient

    h = 1e-5
    worst_viol = 0.0
    for seed in range(5):
        model = LineDetectorModel.init_random(seed)
        theta = model.to_vector()
        for b in range(3):
            ds = generate_lines(8, 8, 3, 2, noise_std=0.1, seed=100 * seed + b)
            _, grads, _ = per_sample_grads(model, Windows(ds.images), ds.labels)
            for i in range(len(ds)):
                fd = fd_gradient(theta, ds.images[i], float(ds.labels[i]), h=h)
                viol = np.max(np.abs(grads[i] - fd) - (1e-5 * np.abs(fd) + 1e-8))
                worst_viol = max(worst_viol, float(viol))
    report(
        7,
        worst_viol <= 0.0,
        f"5 seeds x 3 batches x 23 params, worst tolerance excess {worst_viol:.2e}",
    )


def test_criterion_08_line_detection_experiment():
    t0 = time.perf_counter()
    align_wins = loss_wins = 0
    for seed in TRAIN_SEEDS:
        result = run_train_lines(ExperimentConfig(seed=seed, **TRAIN_CFG))
        final_plain = result.extras["final_plain"]
        final_boosted = result.extras["final_boosted"]
        align_wins += final_boosted[2] > final_plain[2]
        loss_wins += final_boosted[0] < final_plain[0]
    elapsed = time.perf_counter() - t0
    ok = align_wins >= 8 and loss_wins >= 7 and elapsed < 120.0
    report(
        8,
        ok,
        f"filter-2 alignment wins {align_wins}/10, loss wins {loss_wins}/10, "
        f"runtime {elapsed:.1f}s",
    )


def test_criterion_09_clustering_invariants():
    rng = np.random.default_rng(31)
    pop_ok = nearest_ok = monotone_ok = True
    for trial in range(200):
        B = int(rng.integers(4, 30))
        f = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(6, B) + 1))
        X = rng.normal(size=(B, f)) * rng.uniform(0.5, 3.0)
        result = kmeans(X, k=k, seed=trial, n_init=1)
        pop_ok &= int(np.bincount(result.labels, minlength=k).sum()) == B
        d = ((X[:, None, :] - result.centroids[None]) ** 2).sum(axis=2)
        own = d[np.arange(B), result.labels]
        nearest_ok &= bool(np.all(own <= d.min(axis=1) + 1e-12))
        hist = np.array(result.objective_history)
        monotone_ok &= bool(np.all(np.diff(hist) <= 1e-9))

    from test_clustering import brute_force_best_objective

    optimum_ok = True
    for trial in range(20):
        B = int(rng.integers(4, 9))
        k = int(rng.integers(2, 4))
        if k > B:
            continue
        X = rng.normal(size=(B, 2))
        result = kmeans(X, k=k, seed=trial)
        got = kmeans_objective(X, result.labels, result.centroids)
        best = brute_force_best_objective(X, k)
        optimum_ok &= got <= best * (1 + 1e-9) + 1e-12
    ok = pop_ok and nearest_ok and monotone_ok and optimum_ok
    report(
        9,
        ok,
        f"population={pop_ok}, nearest-centroid={nearest_ok}, "
        f"monotone objective={monotone_ok}, exhaustive optimum={optimum_ok}",
    )


def test_criterion_10_queue_length_controller():
    result = run_qlen_demo(ExperimentConfig(pattern="staged", steps=60))
    lengths = [row[2] for row in result.rows]
    in_bounds = all(3 <= length <= 5 for length in lengths)
    hits_max = max(lengths[:30]) == 5
    ends_min = lengths[-1] == 3
    ok = in_bounds and hits_max and ends_min
    report(
        10,
        ok,
        f"bounds held={in_bounds}, max during decrease={hits_max}, min on plateau={ends_min}",
    )
