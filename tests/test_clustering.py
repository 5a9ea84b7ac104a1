import math
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradqueue import (
    BoostConfig,
    ClusterAssignment,
    QueueStats,
    aggregate,
    choose_k,
    delta_rho,
    kmeans,
    kmeans_objective,
)
from gradqueue import clustering
from gradqueue.clustering import _kmeans_pp_init, _repair_empty


def brute_force_best_objective(X, k):
    """Exhaustive search over all label assignments (small B only)."""
    B = X.shape[0]
    best = np.inf
    for labels in product(range(k), repeat=B):
        labels = np.array(labels)
        if len(set(labels.tolist())) < k:
            continue
        centroids = np.stack([X[labels == j].mean(axis=0) for j in range(k)])
        best = min(best, kmeans_objective(X, labels, centroids))
    return best


def scalar_reference_aggregate(grads, labels, mu, sigma, rho):
    """Plain-python reference for the weighted boosted aggregation (d=1)."""
    B = len(grads)
    total = 0.0
    for j in sorted(set(labels)):
        members = [g for g, l in zip(grads, labels) if l == j]
        mean_j = sum(members) / len(members)
        z = abs(mean_j - mu) / sigma
        scale = min(z, rho) if z > 1 else max(z, 1.0 / rho)
        total += len(members) * scale * mean_j
    return total / B


class TestKmeans:
    def test_two_separated_groups(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 2)) + [0, 0]
        b = rng.normal(size=(4, 2)) + [50, 50]
        X = np.vstack([a, b])
        result = kmeans(X, k=2, seed=1)
        labels_a = set(result.labels[:4].tolist())
        labels_b = set(result.labels[4:].tolist())
        assert len(labels_a) == 1 and len(labels_b) == 1 and labels_a != labels_b
        np.testing.assert_allclose(
            np.sort(result.centroids, axis=0),
            np.sort(np.stack([a.mean(axis=0), b.mean(axis=0)]), axis=0),
            rtol=1e-12,
        )
        assert kmeans_objective(X, result.labels, result.centroids) == pytest.approx(
            brute_force_best_objective(X, 2), rel=1e-12
        )

    def test_single_cluster_is_global_mean(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 3))
        result = kmeans(X, k=1, seed=0)
        np.testing.assert_allclose(result.centroids[0], X.mean(axis=0), rtol=1e-12)
        assert np.all(result.labels == 0)

    def test_k_equals_b_gives_zero_objective(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, 2))
        result = kmeans(X, k=6, seed=0)
        assert kmeans_objective(X, result.labels, result.centroids) == pytest.approx(
            0.0, abs=1e-20
        )
        assert len(set(result.labels.tolist())) == 6

    def test_invalid_k(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValueError):
            kmeans(X, k=5, seed=0)
        with pytest.raises(ValueError):
            kmeans(X, k=0, seed=0)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 4))
        r1 = kmeans(X, k=3, seed=9)
        r2 = kmeans(X, k=3, seed=9)
        np.testing.assert_array_equal(r1.labels, r2.labels)
        np.testing.assert_array_equal(r1.centroids, r2.centroids)

    def test_nearest_centroid_invariant(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            X = rng.normal(size=(rng.integers(5, 40), rng.integers(1, 5)))
            k = int(rng.integers(1, min(5, X.shape[0]) + 1))
            result = kmeans(X, k=k, seed=trial)
            d = np.linalg.norm(X[:, None, :] - result.centroids[None], axis=2) ** 2
            own = d[np.arange(X.shape[0]), result.labels]
            assert np.all(own <= d.min(axis=1) + 1e-12)

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(6)
        for trial in range(30):
            X = rng.normal(size=(25, 3))
            result = kmeans(X, k=4, seed=trial, n_init=1)
            hist = np.array(result.objective_history)
            assert np.all(np.diff(hist) <= 1e-9)

    def test_population_conservation(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 2))
        result = kmeans(X, k=5, seed=0)
        assert np.bincount(result.labels, minlength=5).sum() == 40

    def test_partition_invariant_under_permutation(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(20, 3))
        init = _kmeans_pp_init(X, 3, np.random.default_rng(0))[0]
        base = kmeans(X, k=3, init_centroids=init)
        perm = rng.permutation(20)
        permuted = kmeans(X[perm], k=3, init_centroids=init)
        groups_base = frozenset(
            frozenset(np.flatnonzero(base.labels == j).tolist()) for j in range(3)
        )
        groups_perm = frozenset(
            frozenset(perm[np.flatnonzero(permuted.labels == j)].tolist())
            for j in range(3)
        )
        assert groups_base == groups_perm


def oracle_aggregate(grads, labels, k, stats, cfg):
    """The per-cluster loop: each cluster's mean by a boolean gather, boosted by delta_rho."""
    total = np.zeros(grads.shape[1])
    for j in range(k):
        members = labels == j
        pop = int(members.sum())
        if pop:
            total += pop * delta_rho(grads[members].mean(axis=0), stats, cfg)
    return total / grads.shape[0]


class TestAggregate:
    def stats(self, mu, sigma, d):
        return QueueStats(np.full(d, mu), np.full(d, sigma), 5)

    @pytest.mark.parametrize("d", [1, 23])
    def test_bytes_equal_the_per_cluster_loop(self, d):
        rng = np.random.default_rng(15 + d)
        for trial in range(300):
            B = 100 if trial % 3 == 0 else int(rng.integers(1, 30))  # b100 shapes
            k = 2 if trial % 3 == 0 else int(rng.integers(1, 7))
            grads = rng.normal(size=(B, d)) * 10.0 ** rng.uniform(-6, 6, size=d)
            if trial % 4 == 0:  # signed zeros
                grads[rng.random(grads.shape) < 0.4] = 0.0
                grads[rng.random(grads.shape) < 0.4] = -0.0
            labels = rng.integers(0, k, size=B)  # clusters may be empty or single
            if trial % 5 == 0:
                labels = labels.astype(rng.choice([np.uint8, np.uint64, np.int32]))
            std = np.abs(rng.normal(size=d)) * 10.0 ** rng.uniform(-3, 3)
            std[rng.random(d) < 0.3] = 0.0  # zero-variance columns
            mean = np.where(rng.random(d) < 0.2, -0.0, rng.normal(size=d))
            stats = QueueStats(mean, std, 3)
            cfg = BoostConfig(rho=float(rng.choice([1.0, 1.5, 3.0])))
            assignment = ClusterAssignment(labels=labels, centroids=np.zeros((k, 2)))
            got = aggregate(grads, assignment, stats, cfg)
            assert got.tobytes() == oracle_aggregate(grads, labels, k, stats, cfg).tobytes()

    def test_uint64_labels_under_a_strict_bincount(self, monkeypatch):
        # numpy < 2.3 bincount refuses to cast uint64 input to intp; emulate that
        bincount = np.bincount

        def strict_bincount(x, *args, **kwargs):
            if np.asarray(x).dtype == np.uint64:
                raise TypeError("Cannot cast array data from dtype('uint64') to dtype('int64')")
            return bincount(x, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", strict_bincount)
        grads = np.random.default_rng(7).normal(size=(9, 4))
        labels = np.array([2, 0, 2, 1, 0, 0, 2, 2, 1], dtype=np.uint64)
        stats, cfg = QueueStats(np.full(4, 0.1), np.full(4, 0.5), 3), BoostConfig(rho=3.0)
        got = aggregate(grads, ClusterAssignment(labels, np.zeros((3, 2))), stats, cfg)
        assert got.tobytes() == oracle_aggregate(grads, labels, 3, stats, cfg).tobytes()

    @pytest.mark.parametrize("grads_d, stats_d", [(23, 1), (1, 23), (23, 22)])
    def test_stats_of_another_dimension_refused(self, grads_d, stats_d):
        grads = np.ones((4, grads_d))
        assignment = ClusterAssignment(labels=np.array([0, 0, 1, 1]), centroids=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            aggregate(grads, assignment, self.stats(0.0, 1.0, stats_d), BoostConfig())

    def test_rho_one_recovers_batch_mean(self):
        rng = np.random.default_rng(10)
        grads = rng.normal(size=(12, 6))
        for k in (1, 2, 3, 12):
            labels = rng.integers(0, k, size=12)
            labels[:k] = np.arange(k)  # every cluster non-empty
            centroids = np.stack([grads[labels == j, :2].mean(axis=0) for j in range(k)])
            assignment = ClusterAssignment(labels=labels, centroids=centroids)
            st = self.stats(rng.normal(), rng.uniform(0.5, 2.0), 6)
            out = aggregate(grads, assignment, st, BoostConfig(rho=1.0))
            np.testing.assert_allclose(out, grads.mean(axis=0), rtol=1e-12, atol=1e-14)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        data=st.data(),
        shape=st.tuples(st.integers(1, 12), st.integers(1, 5), st.integers(1, 6)),
        scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e300]),
    )
    def test_rho_one_recovers_batch_mean_for_any_assignment(self, data, shape, scale):
        B, d, k = shape  # labels drawn freely, so clusters may be empty
        G = data.draw(hnp.arrays(np.float64, (B, d), elements=st.floats(-1.0, 1.0))) * scale
        labels = data.draw(hnp.arrays(np.int64, B, elements=st.integers(0, k - 1)))
        assignment = ClusterAssignment(labels=labels, centroids=np.zeros((k, 1)))
        stats = QueueStats(
            data.draw(hnp.arrays(np.float64, d, elements=st.floats(-1e300, 1e300))),
            data.draw(hnp.arrays(np.float64, d, elements=st.floats(0.0, 1e300))),
            5,
        )
        out = aggregate(G, assignment, stats, BoostConfig(rho=1.0))
        tol = 1e-12 * np.abs(G).max()
        assert np.all(np.abs(out - G.mean(axis=0)) <= tol)

    def test_single_cluster_equals_boosted_mean(self):
        rng = np.random.default_rng(11)
        grads = rng.normal(size=(8, 4))
        assignment = ClusterAssignment(
            labels=np.zeros(8, dtype=int), centroids=grads.mean(axis=0)[None]
        )
        st = self.stats(0.0, 1.0, 4)
        cfg = BoostConfig(rho=3.0)
        out = aggregate(grads, assignment, st, cfg)
        np.testing.assert_allclose(
            out, delta_rho(grads.mean(axis=0), st, cfg), rtol=1e-12
        )

    def test_scalar_worked_example(self):
        # clusters {-1,-1,-1} and {9} with mu=0, sigma=1, rho=3:
        # g* = (3*(-1) + 1*27) / 4 = 6
        grads = np.array([[-1.0], [-1.0], [-1.0], [9.0]])
        labels = np.array([0, 0, 0, 1])
        assignment = ClusterAssignment(
            labels=labels, centroids=np.array([[-1.0], [9.0]])
        )
        out = aggregate(grads, assignment, self.stats(0.0, 1.0, 1), BoostConfig(rho=3.0))
        assert out[0] == pytest.approx(6.0, rel=1e-12)
        reference = scalar_reference_aggregate(
            [-1.0, -1.0, -1.0, 9.0], [0, 0, 0, 1], 0.0, 1.0, 3.0
        )
        assert out[0] == pytest.approx(reference, rel=1e-12)

    def test_matches_scalar_reference_on_random_inputs(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            B = int(rng.integers(2, 12))
            k = int(rng.integers(1, B + 1))
            grads = rng.normal(size=(B, 1)) * 5
            labels = rng.integers(0, k, size=B)
            labels[: min(k, B)] = np.arange(min(k, B))
            mu, sigma = float(rng.normal()), float(rng.uniform(0.3, 2.0))
            rho = float(rng.uniform(1.0, 5.0))
            assignment = ClusterAssignment(
                labels=labels, centroids=np.zeros((k, 1))
            )
            out = aggregate(
                grads, assignment, self.stats(mu, sigma, 1), BoostConfig(rho=rho)
            )
            ref = scalar_reference_aggregate(
                grads[:, 0].tolist(), labels.tolist(), mu, sigma, rho
            )
            assert out[0] == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize(
        "labels, match",
        [
            ([0, 0, 2], "integers in"),  # would drop the sample yet divide by B
            ([0, 0, -1], "integers in"),
            ([0, 0.5, 1], "integers in"),
            ([True, False, True], "integers in"),
            ([0, 1], "does not match"),
            ([[0, 1, 1]], "does not match"),
        ],
    )
    def test_labels_outside_the_clusters_refused(self, labels, match):
        grads = np.array([[1.0], [2.0], [30.0]])
        st, cfg = self.stats(0.0, 1.0, 1), BoostConfig(rho=1.0)
        assignment = ClusterAssignment(labels=np.array([0, 0, 1]), centroids=np.zeros((2, 1)))
        assert aggregate(grads, assignment, st, cfg)[0] == pytest.approx(11.0)
        assignment.labels = np.array(labels)
        with pytest.raises(ValueError, match=match):
            aggregate(grads, assignment, st, cfg)

    def test_labels_refused_with_the_objectives_messages(self):
        grads = np.array([[1.0], [2.0], [30.0]])
        st, cfg = self.stats(0.0, 1.0, 1), BoostConfig(rho=1.0)
        for labels in ([0, -1, -1], [0, 1, 2], [0.0, 1.0, 1.0], [0], [[0, 1, 1]]):
            assignment = ClusterAssignment(labels=np.array(labels), centroids=OBJECTIVE_C[:, :1])
            with pytest.raises(ValueError) as ours:
                aggregate(grads, assignment, st, cfg)
            with pytest.raises(ValueError) as theirs:
                objective(labels)
            assert str(ours.value) == str(theirs.value)

    def test_clusters_add_in_index_order(self):
        # at rho = 1 each singleton cluster adds its gradient: 1.0 + 1e17 - 1e17 is 0.0
        # in index order, and any other order gives 1.0 or 1e17
        grads = np.array([[1.0], [1e17], [-1e17]])
        assignment = ClusterAssignment(labels=np.arange(3), centroids=np.zeros((3, 1)))
        out = aggregate(grads, assignment, self.stats(0.0, 1.0, 1), BoostConfig(rho=1.0))
        assert out[0] == 0.0

    def test_aggregate_permutation_invariant(self):
        rng = np.random.default_rng(14)
        grads = rng.normal(size=(10, 2))
        labels = rng.integers(0, 3, size=10)
        labels[:3] = np.arange(3)
        st = self.stats(0.0, 1.0, 2)
        cfg = BoostConfig(rho=2.0)
        assignment = ClusterAssignment(labels=labels, centroids=np.zeros((3, 2)))
        base = aggregate(grads, assignment, st, cfg)
        perm = rng.permutation(10)
        assignment_p = ClusterAssignment(
            labels=labels[perm], centroids=np.zeros((3, 2))
        )
        out = aggregate(grads[perm], assignment_p, st, cfg)
        np.testing.assert_allclose(out, base, rtol=1e-12)

    def test_empty_gradient_set_rejected(self):
        assignment = ClusterAssignment(
            labels=np.zeros(0, dtype=int), centroids=np.zeros((1, 2))
        )
        with pytest.raises(ValueError):
            aggregate(np.zeros((0, 2)), assignment, self.stats(0, 1, 2), BoostConfig())


class TestChooseK:
    def test_ratio(self):
        assert choose_k(512, 128) == 4

    def test_small_batch_single_cluster(self):
        assert choose_k(64, 128) == 1
        assert choose_k(128, 128) == 1

    def test_rounding(self):
        assert choose_k(300, 128) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            choose_k(0, 128)


# ---------------------------------------------------------------------------
# oracle: each restart's Lloyd loop run on its own, which the batched loop
# in kmeans must match bit for bit


def _oracle_sq_dists(X, centroids):
    diff = X[:, None, :] - centroids[None, :, :]
    return np.einsum("bkf,bkf->bk", diff, diff)


def _oracle_objective(X, labels, centroids):
    diff = X - centroids[labels]
    return float(np.sum(diff * diff))


def _oracle_lloyd(X, k, centroids, max_iters):
    labels = None
    history = []
    for _ in range(max_iters):
        new_labels = np.argmin(_oracle_sq_dists(X, centroids), axis=1)
        new_labels, centroids, repaired = _repair_empty(X, new_labels, centroids, k)
        if not repaired and labels is not None and np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
        centroids = np.stack(
            [
                X[labels == j].mean(axis=0) if np.any(labels == j) else centroids[j]
                for j in range(k)
            ]
        )
        history.append(_oracle_objective(X, labels, centroids))
    else:
        labels = np.argmin(_oracle_sq_dists(X, centroids), axis=1)
    return labels, centroids, history


def oracle_kmeans(X, k, seed=0, max_iters=100, n_init=10, init_centroids=None):
    X = np.asarray(X, dtype=float)
    if init_centroids is not None:
        starts = [np.array(init_centroids, dtype=float, copy=True)]
    else:
        rng = np.random.default_rng(seed)
        starts = [choice_kmeans_pp_init(X, k, rng) for _ in range(max(1, n_init))]
    best = None
    for start in starts:
        labels, centroids, history = _oracle_lloyd(X, k, start, max_iters)
        obj = _oracle_objective(X, labels, centroids)
        if best is None or obj < best[0]:
            best = (obj, labels, centroids, history)
    return best[1:]


def assert_same_as_oracle(X, k, **kwargs):
    result = kmeans(X, k, **kwargs)
    labels, centroids, history = oracle_kmeans(X, k, max_iters=clustering.MAX_ITERS, **kwargs)
    np.testing.assert_array_equal(result.labels, labels)
    assert result.centroids.tobytes() == centroids.tobytes()
    assert result.objective_history == history
    return result


def feature_sets(f, rng):
    """Generic rows, rounded rows (distance ties), and rows collapsed to one or two points."""
    B = int(rng.integers(6, 60))
    X = rng.normal(size=(B, f)) * rng.uniform(0.5, 3.0)
    two_points = np.where(rng.random((B, 1)) < 0.5, X[0], X[1])
    return {
        "generic": X,
        "rounded": np.round(X),
        "collapsed": np.tile(X[0], (B, 1)),
        "two_points": two_points,
    }


class TestBatchedRestarts:
    # f >= 8 reaches the einsum's rounds of 8 features in the distance sum
    @pytest.mark.parametrize("f", [1, 2, 3, 4, 5, 8, 9, 16, 17])
    @pytest.mark.parametrize("n_init", [1, 10])
    def test_matches_per_restart_loop(self, monkeypatch, f, n_init):
        # a budget of 20 keeps the oracle's cycling restarts short
        monkeypatch.setattr(clustering, "MAX_ITERS", 20)
        rng = np.random.default_rng(100 * f + n_init)
        for trial in range(2 if n_init == 1 else 1):
            for X in feature_sets(f, rng).values():
                for k in range(1, 7):
                    assert_same_as_oracle(X, k, seed=trial, n_init=n_init)

    @pytest.mark.parametrize("f", [1, 2, 3, 4])
    def test_init_centroids_match_per_restart_loop(self, monkeypatch, f):
        monkeypatch.setattr(clustering, "MAX_ITERS", 20)
        rng = np.random.default_rng(f)
        for X in feature_sets(f, rng).values():
            for k in range(1, 7):
                init = X[rng.choice(X.shape[0], size=k, replace=False)] + rng.normal(size=(k, f))
                assert_same_as_oracle(X, k, init_centroids=init)

    def test_short_budgets_match_per_restart_loop(self, monkeypatch):
        rng = np.random.default_rng(11)
        for X in feature_sets(2, rng).values():
            for max_iters in (1, 2, 3, 5):
                monkeypatch.setattr(clustering, "MAX_ITERS", max_iters)
                assert_same_as_oracle(X, 3, seed=1)

    def test_ties_pick_the_first_best_restart(self):
        # every restart of a symmetric set ends at an equal objective
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        assert_same_as_oracle(X, 2, seed=3, n_init=10)

    def test_init_centroids_shape_checked(self):
        X = np.zeros((5, 2))
        with pytest.raises(ValueError, match="init_centroids"):
            kmeans(X, 2, init_centroids=np.zeros((3, 2)))
        with pytest.raises(ValueError, match="init_centroids"):
            kmeans(X, 2, init_centroids=np.zeros((2, 3)))


class TestCollapsedFeatures:
    """All rows at one point: the reseeded empty cluster cycles until MAX_ITERS."""

    def count_updates(self, monkeypatch):
        counted = []
        update = clustering._update_centroids

        def counting(X, ids, counts, centroids):
            counted.append(centroids.shape[0])  # one Lloyd update per restart in the batch
            return update(X, ids, counts, centroids)

        monkeypatch.setattr(clustering, "_update_centroids", counting)
        return counted

    def test_ones_end_at_the_cycle(self, monkeypatch):
        counted = self.count_updates(monkeypatch)
        result = assert_same_as_oracle(np.ones((100, 2)), 2, seed=0)
        assert len(result.objective_history) == 100
        # the per-restart loop makes 10 restarts x 100 updates; here the 10
        # equal starts are iterated once, and its second state repeats its first
        assert sum(counted) == 1 * 2

    @pytest.mark.parametrize("f", [1, 2])
    def test_collapsed_values_match_per_restart_loop(self, monkeypatch, f):
        counted = self.count_updates(monkeypatch)
        for value in (0.1, -7.7):
            X = np.full((100, f), value)
            for k in (2, 3):
                for max_iters in (7, 37):
                    monkeypatch.setattr(clustering, "MAX_ITERS", max_iters)
                    result = assert_same_as_oracle(X, k, seed=5)
                    assert len(result.objective_history) == max_iters
        # the per-restart loop makes 2 * 2 * 10 * (7 + 37) updates; here each of
        # the 8 calls iterates one restart (its 10 starts are equal) and sees the
        # cycle after 5 updates
        assert sum(counted) == 8 * 5


def distinct_starts(X, k, seed, n_init):
    """The kmeans++ starts that differ in bytes, each at its first restart, in order."""
    starts = _kmeans_pp_init(X, k, np.random.default_rng(seed), n_init)
    keys = [start.tobytes() for start in starts]
    return starts[[r for r, key in enumerate(keys) if key not in keys[:r]]]


def repeated_points(rng, f, B=100):
    """B rows drawn from 3 to 7 points, as the features of a noise-free batch are."""
    points = rng.normal(size=(int(rng.integers(3, 8)), f)) * rng.uniform(0.5, 3.0)
    return points[rng.integers(0, len(points), size=B)]


class TestDistinctStarts:
    """Restarts from byte-equal starts end equal, so each distinct start is iterated once."""

    @pytest.mark.parametrize("f", [1, 2, 3])
    @pytest.mark.parametrize("n_init", [1, 10, 25])
    def test_repeated_points_match_per_restart_loop(self, monkeypatch, f, n_init):
        rng = np.random.default_rng(200 + 10 * f + n_init)
        for trial, max_iters in enumerate((1, 2, 3, 5, 20)):
            monkeypatch.setattr(clustering, "MAX_ITERS", max_iters)
            X = repeated_points(rng, f)
            for k in (2, 3):
                assert_same_as_oracle(X, k, seed=trial + k, n_init=n_init)

    def record_starts(self, monkeypatch):
        received = []
        lloyd = clustering._lloyd

        def recording(X, k, starts):
            received.append(starts.copy())
            return lloyd(X, k, starts)

        monkeypatch.setattr(clustering, "_lloyd", recording)
        return received

    def test_lloyd_gets_exactly_the_distinct_starts(self, monkeypatch):
        received = self.record_starts(monkeypatch)
        rng = np.random.default_rng(210)
        counts = []
        for trial in range(20):
            X = repeated_points(rng, 2)
            for n_init in (1, 10, 25):
                kmeans(X, 2, seed=trial, n_init=n_init)
                expected = distinct_starts(X, 2, trial, n_init)
                assert received[-1].tobytes() == expected.tobytes()
                counts.append(len(expected))
        assert min(counts) == 1 and max(counts) > 3  # some collapse, some do not

    @pytest.mark.parametrize("a, b", [(0.0, -0.0), (1.0, np.nextafter(1.0, 2.0))])
    def test_starts_apart_in_bytes_are_distinct(self, monkeypatch, a, b):
        # 0.0 and -0.0 are equal under ==, and two floats one ulp apart round alike
        # in float32; yet each start is its own restart
        received = self.record_starts(monkeypatch)
        X = np.array([[a], [b], [b], [a], [a], [b]])
        assert_same_as_oracle(X, 1, seed=0, n_init=10)
        assert received[-1].tobytes() == distinct_starts(X, 1, 0, 10).tobytes()
        assert sorted(start.tobytes() for start in received[-1]) == sorted(
            np.float64(x).tobytes() for x in (a, b)
        )


def choice_kmeans_pp_init(X, k, rng):
    """kmeans++ seeding drawn with ``Generator.choice``, the oracle for the written-out draw."""
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]), dtype=float)
    uniform = np.full(n, 1.0 / n)
    centroids[0] = X[rng.choice(n, p=uniform)]
    for i in range(1, k):
        d2 = np.min(_oracle_sq_dists(X, centroids[:i]), axis=1)
        total = d2.sum()
        if total <= 0.0:
            centroids[i] = X[rng.choice(n, p=uniform)]
            continue
        centroids[i] = X[rng.choice(n, p=d2 / total)]
    return centroids


class TestKmeansPlusPlusDraw:
    def test_same_centroids_and_generator_state_as_choice(self):
        rng = np.random.default_rng(21)
        for trial in range(300):
            f = int(rng.integers(1, 4))
            sets = feature_sets(f, rng)
            X = list(sets.values())[trial % len(sets)]
            k = int(rng.integers(1, min(7, X.shape[0]) + 1))
            ours, oracle = np.random.default_rng(trial), np.random.default_rng(trial)
            got = _kmeans_pp_init(X, k, ours)
            assert got.tobytes() == choice_kmeans_pp_init(X, k, oracle).tobytes()
            assert ours.bit_generator.state == oracle.bit_generator.state

    def test_draw_matches_choice_on_sparse_probabilities(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            p = rng.random(n) * (rng.random(n) >= 0.3)
            if p.sum() == 0.0:
                p[rng.integers(n)] = 1.0
            p /= p.sum()
            seed = int(rng.integers(2**32))
            ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            cdf = p.cumsum()
            cdf /= cdf[-1]
            assert int(cdf.searchsorted(ours.random(), side="right")) == oracle.choice(n, p=p)
            assert ours.bit_generator.state == oracle.bit_generator.state

    def test_overflowing_distances_rejected(self):
        X = np.array([[1e200], [-1e200], [1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                kmeans(X, 2, seed=0)


def coinciding_stages(X, centroids):
    """Stages i of one restart's seeding at which every point coincides with centroids[:i]."""
    return [
        i
        for i in range(1, len(centroids))
        if np.min(_oracle_sq_dists(X, centroids[:i]), axis=1).sum() <= 0.0
    ]


def assert_seeds_as_one_after_another(X, k, n_init, seed):
    ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _kmeans_pp_init(X, k, ours, n_init)
    expected = np.stack([choice_kmeans_pp_init(X, k, oracle) for _ in range(n_init)])
    assert got.tobytes() == expected.tobytes()
    assert ours.bit_generator.state == oracle.bit_generator.state
    return expected


class TestSeedingTogether:
    """All restarts seeded at once give the centroids and generator state of seeding in turn."""

    @pytest.mark.parametrize("n_init", [1, 2, 10])
    def test_feature_sets(self, n_init):
        rng = np.random.default_rng(31 + n_init)
        for trial in range(40):
            f = int(rng.integers(1, 10))
            for X in feature_sets(f, rng).values():
                k = int(rng.integers(1, min(7, X.shape[0]) + 1))
                assert_seeds_as_one_after_another(X, k, n_init, seed=trial)

    def test_collapsed_rows(self):
        for f, k in product((1, 3), (2, 3, 6)):
            X = np.full((20, f), -2.5)
            expected = assert_seeds_as_one_after_another(X, k, 10, seed=k)
            assert all(coinciding_stages(X, c) == list(range(1, k)) for c in expected)

    def test_some_restarts_coincide_and_others_not(self):
        # points closer than sqrt(smallest subnormal): a squared distance of
        # 1e-324 rounds to 0 and one of 4e-324 does not, so whether a restart's
        # distances are all 0 depends on which points it drew
        tiny = 1e-162
        mixed = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            f = 1 + seed % 2
            X = rng.integers(0, 3, size=(int(rng.integers(3, 12)), f)) * tiny
            X[0] = tiny  # some point lies within reach of all others
            k = int(rng.integers(2, min(5, X.shape[0]) + 1))
            expected = assert_seeds_as_one_after_another(X, k, 10, seed=seed)
            coinciding = [bool(coinciding_stages(X, c)) for c in expected]
            mixed += 0 < sum(coinciding) < len(coinciding)
        assert mixed >= 10  # restarts that coincide seeded beside restarts that do not

    def test_one_generator_call_draws_every_centroid(self):
        # the fake has no other method: an integers() draw or a state rewind raises
        calls = []

        class Recording:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def random(self, *args):
                calls.append(args)
                return self.rng.random(*args)

        X = np.repeat([[0.0, 0.0], [1.0, 2.0]], 10, axis=0)  # k > 2 draws while all coincide
        for k, n_init in ((1, 1), (3, 10), (6, 4)):
            calls.clear()
            _kmeans_pp_init(X, k, Recording(k), n_init)
            assert calls == [((n_init, k),)]

    def test_draw_at_a_cdf_step_takes_the_next_point(self):
        # searchsorted(side="right"): a draw equal to a cdf value passes it
        class FixedDraws:
            def random(self, shape):
                return np.array([[0.0, 0.5]])  # 0.0 takes X[0]

        X = np.array([[0.0], [1.0], [-1.0]])  # from X[0], cdf = [0, 0.5, 1]
        assert _kmeans_pp_init(X, 2, FixedDraws())[0, 1, 0] == -1.0

    def test_overflow_raised_exactly_when_in_turn(self):
        # restarts drawn at 0 sum finite distances; those drawn at an outlier
        # overflow, and kmeans raises when one is reached in turn
        X = np.array([[0.0]] * 8 + [[1e154], [-0.5e154]])
        outcomes = set()
        for seed in range(40):
            oracle = np.random.default_rng(seed)  # kmeans seeds from default_rng(seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # choice's p of NaN
                try:
                    [choice_kmeans_pp_init(X, 3, oracle) for _ in range(4)]
                    raises = False
                except ValueError:
                    raises = True
            outcomes.add(raises)
            if raises:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError, match="overflow"):
                        kmeans(X, 3, seed=seed, n_init=4)
            else:
                with np.errstate(over="ignore"):  # as kmeans seeds: an outlier's distance is inf
                    assert_seeds_as_one_after_another(X, 3, 4, seed)
        assert outcomes == {False, True}


class TestDistances:
    def test_sq_dists_bytes_equal_the_einsum(self):
        rng = np.random.default_rng(41)
        for f in range(1, 21):
            for _ in range(20):
                B, k = int(rng.integers(1, 40)), int(rng.integers(1, 6))
                scales = 10.0 ** rng.uniform(-5, 5, size=f)
                X, C = rng.normal(size=(B, f)) * scales, rng.normal(size=(k, f)) * scales
                got = clustering._sq_dists(X, C)
                assert got.shape == (k, B)
                assert got.T.tobytes() == _oracle_sq_dists(X, C).tobytes(), f
                R = int(rng.integers(1, 4))  # leading restart axes
                Cs = rng.normal(size=(R, k, f)) * scales
                batched = clustering._sq_dists(X, Cs)
                for r in range(R):
                    assert batched[r].T.tobytes() == _oracle_sq_dists(X, Cs[r]).tobytes()

    def test_seeding_computes_k_minus_1_distances(self, monkeypatch):
        calls, at_lloyd = [], []
        sq_dists, lloyd = clustering._sq_dists, clustering._lloyd

        def counting(X, centroids):
            calls.append(centroids.shape)
            return sq_dists(X, centroids)

        def lloyd_after_seeding(*args):
            at_lloyd.append(len(calls))
            return lloyd(*args)

        monkeypatch.setattr(clustering, "_sq_dists", counting)
        monkeypatch.setattr(clustering, "_lloyd", lloyd_after_seeding)
        X = np.random.default_rng(42).normal(size=(50, 2))
        for k in (1, 2, 3, 6):
            calls.clear()
            kmeans(X, k, seed=k, n_init=10)
            assert at_lloyd[-1] == k - 1  # the per-restart seeding makes 10 * (k - 1)

    def test_collapsed_rows_raise_no_warning(self, monkeypatch):
        monkeypatch.setattr(clustering, "MAX_ITERS", 20)
        rng = np.random.default_rng(43)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (1, 2):
                sets = feature_sets(f, rng)
                for X in (sets["collapsed"], sets["two_points"], np.zeros((30, f))):
                    for k in (1, 2, 3, 5):
                        kmeans(X, k, seed=k)


class TestNonFiniteFeatures:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected(self, k, bad):
        X = np.random.default_rng(44).normal(size=(10, 2))
        X[3, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="features must be finite"):
                kmeans(X, k, seed=0)
            init = np.zeros((k, 2))
            init[-1, 0] = bad
            with pytest.raises(ValueError, match="init_centroids must be finite"):
                kmeans(np.nan_to_num(X), k, init_centroids=init)


OBJECTIVE_X = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]])
OBJECTIVE_C = np.array([[0.0, 0.0], [5.0, 5.0]])


def objective(labels):
    return kmeans_objective(OBJECTIVE_X, np.array(labels), OBJECTIVE_C)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: kmeans(np.zeros(4), 2), "features must be a (B, f) matrix"),
        (lambda: kmeans(np.zeros((2, 3, 1)), 2), "features must be a (B, f) matrix"),
        (lambda: kmeans(np.zeros((5, 0)), 1), "features must be a (B, f) matrix"),
        (lambda: kmeans(np.zeros((5, 0)), 2), "features must be a (B, f) matrix"),
        # a negative label would pick the last centroid, and one label would broadcast
        (lambda: objective([0, -1, -1]), "cluster labels must be integers in [0, 2)"),
        (lambda: objective([0, 1, 2]), "cluster labels must be integers in [0, 2)"),
        (lambda: objective([0.0, 1.0, 1.0]), "cluster labels must be integers in [0, 2)"),
        (lambda: objective([True, False, True]), "cluster labels must be integers in [0, 2)"),
        (lambda: objective([0]), "label shape (1,) does not match the 3 samples"),
        (lambda: objective([[0, 1, 1]]), "label shape (1, 3) does not match the 3 samples"),
        (lambda: kmeans(np.zeros((4, 2)), 0), "k must be a positive integer"),
        (lambda: kmeans(np.zeros((4, 2)), 5), "k=5 exceeds the number of samples B=4"),
        (lambda: kmeans(np.zeros((4, 2)), 2.5), "k must be an integer, got 2.5"),
        (lambda: kmeans(np.zeros((4, 2)), math.nan), "k must be an integer, got nan"),
        (lambda: kmeans(np.zeros((4, 2)), False), "k must be a positive integer"),
        (lambda: kmeans(np.zeros((4, 2)), 2, n_init=0), "n_init must be >= 1, got 0"),
        (lambda: kmeans(np.zeros((4, 2)), 2, n_init=-3), "n_init must be >= 1, got -3"),
        (lambda: kmeans(np.zeros((4, 2)), 2, n_init=2.5), "n_init must be an integer, got 2.5"),
        (lambda: kmeans(np.zeros((4, 2)), 2, seed=-1), "seed must be >= 0, got -1"),
        (lambda: kmeans(np.zeros((4, 2)), 2, seed=1.5), "seed must be an integer, got 1.5"),
        (lambda: choose_k(100, 2.5), "optimal_batch must be an integer, got 2.5"),
        (lambda: choose_k(100.0, 50), "batch_size must be an integer, got 100.0"),
        (lambda: choose_k(0, 128), "batch_size and optimal_batch must be positive"),
    ],
    ids=[
        "features-1d",
        "features-3d",
        "features-no-columns-k1",
        "features-no-columns-k2",
        "objective-labels-negative",
        "objective-labels-above-k",
        "objective-labels-float",
        "objective-labels-bool",
        "objective-labels-short",
        "objective-labels-2d",
        "k-zero",
        "k-above-B",
        "k-fractional",
        "k-nan",
        "k-false",
        "n-init-zero",
        "n-init-negative",
        "n-init-fractional",
        "seed-negative",
        "seed-fractional",
        "choose-k-optimal-fractional",
        "choose-k-batch-float",
        "choose-k-zero",
    ],
)
def test_refusal_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("two", [np.int64(2), np.int32(2), np.uint8(2)])
def test_numpy_integer_sizes_accepted(two):
    X = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    want = kmeans(X, 2, seed=1, n_init=2)
    got = kmeans(X, two, seed=1, n_init=two)
    np.testing.assert_array_equal(got.labels, want.labels)
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert choose_k(two * 50, two) == choose_k(100, 2) == 50


def test_bool_sizes_are_their_ints():
    X = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    cases = [(kmeans(X, True), kmeans(X, 1)), (kmeans(X, 2, n_init=True), kmeans(X, 2, n_init=1))]
    for got, want in cases:
        np.testing.assert_array_equal(got.labels, want.labels)
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert got.objective_history == want.objective_history
