"""K-means grouping of batch samples and boosted cluster-mean aggregation.

Samples in a mini-batch are clustered by their feature vectors; each
cluster's mean gradient is boosted against the shared queue statistics
and the boosted means are recombined weighted by cluster population.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import BoostConfig, QueueStats, delta_rho

__all__ = [
    "ClusterAssignment",
    "ClusterAggregate",
    "kmeans",
    "kmeans_objective",
    "cluster_aggregates",
    "aggregate",
    "choose_k",
]


@dataclass
class ClusterAssignment:
    labels: np.ndarray  # (B,) ints in [0, k)
    centroids: np.ndarray  # (k, f)
    k: int
    # objective after each Lloyd update of the winning restart
    objective_history: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class ClusterAggregate:
    cluster_mean_grad: np.ndarray
    population: int
    boosted: np.ndarray


def _sq_dists(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(..., B, k) squared distances; ``centroids`` is (..., k, f), leading axes are restarts."""
    diff = X[:, None, :] - centroids[..., None, :, :]
    return np.einsum("...bkf,...bkf->...bk", diff, diff)


def _assign(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return np.argmin(_sq_dists(X, centroids), axis=-1)


def _objectives(X: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """kmeans_objective of each restart: labels (R, B), centroids (R, k, f)."""
    diff = X - centroids[np.arange(len(labels))[:, None], labels]
    return np.sum(diff * diff, axis=(1, 2))


def kmeans_objective(X: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> float:
    """Sum of squared distances of each sample to its assigned centroid."""
    return float(_objectives(X, np.asarray(labels)[None], np.asarray(centroids)[None])[0])


def _kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]), dtype=float)
    centroids[0] = X[rng.integers(n)]
    for i in range(1, k):
        d2 = np.min(_sq_dists(X, centroids[:i]), axis=1)
        total = d2.sum()
        if total <= 0.0:  # all points coincide with chosen centroids
            centroids[i] = X[rng.integers(n)]
            continue
        if not np.isfinite(total):
            raise ValueError("squared feature distances overflow")
        # rng.choice(n, p=d2 / total) without its checks of p: the same
        # draw, index and generator state
        cdf = (d2 / total).cumsum()
        cdf /= cdf[-1]
        centroids[i] = X[int(cdf.searchsorted(rng.random(), side="right"))]
    return centroids


def _repair_empty(X, labels, centroids, k):
    """Reseed each empty centroid at the point farthest from its assigned centroid."""
    repaired = False
    used = set()
    for j in range(k):
        if np.any(labels == j):
            continue
        diff = X - centroids[labels]
        dist = np.einsum("bf,bf->b", diff, diff)
        # never steal a cluster's last member or reuse a reseed point
        counts = np.bincount(labels, minlength=k)
        dist[counts[labels] <= 1] = -1.0
        for idx in used:
            dist[idx] = -1.0
        far = int(np.argmax(dist))
        if dist[far] < 0.0:
            continue
        centroids[j] = X[far]
        labels[far] = j
        used.add(far)
        repaired = True
    return labels, centroids, repaired


def _cluster_ids(labels: np.ndarray, k: int) -> np.ndarray:
    """One id per (restart, cluster) pair for (R, B) labels, flattened restart-major."""
    return (labels + k * np.arange(labels.shape[0])[:, None]).ravel()


def _update_centroids(X, labels, centroids):
    """Move every centroid to its members' mean; an empty cluster's centroid stays.

    labels is (R, B) and centroids (R, k, f). Each mean adds the members in
    the order ``X[labels == j].mean(axis=0)`` does: one row after another
    when f > 1, pairwise along the single column when f = 1.
    """
    R, k, f = centroids.shape
    ids = _cluster_ids(labels, k)
    counts = np.bincount(ids, minlength=R * k)
    rows = np.tile(X, (R, 1))
    if f > 1:
        sums = np.stack([np.bincount(ids, weights=col, minlength=R * k) for col in rows.T], axis=1)
    else:
        x = rows[np.argsort(ids, kind="stable"), 0]
        ends = np.cumsum(counts)
        sums = np.array([x[e - c : e].sum() for e, c in zip(ends, counts)])[:, None]
    means = centroids.reshape(R * k, f).copy()
    np.divide(sums, counts[:, None], out=means, where=counts[:, None] > 0)
    return means.reshape(R, k, f)


def _lloyd(X, k, starts, max_iters):
    """Lloyd iterations of every restart at once, from (R, k, f) starting centroids.

    Each restart runs its own loop: assign each sample to its nearest
    centroid, reseed empty clusters, stop when the labels repeat with no
    reseed, else move the centroids to their members' means and record the
    objective. Once ``max_iters`` updates are spent the labels are
    reassigned to the final centroids. Returns (R, B) labels, (R, k, f)
    centroids and each restart's objective history.

    An iteration depends only on the centroids and labels it starts from,
    so a restart whose state repeats an earlier one cycles until
    ``max_iters`` (collapsed features do this: the reseeded cluster swaps
    every iteration). The state is saved at every power-of-two iteration;
    when a later state equals the saved one, the restart runs only the
    iterations that bring it to the state it would reach at ``max_iters``,
    and its history is filled out by repeating the cycle's objectives.
    """
    R, B = starts.shape[0], X.shape[0]
    centroids = starts.copy()
    labels = np.full((R, B), -1, dtype=np.intp)  # matches no assignment
    history = np.empty((R, max(max_iters, 0)))
    lengths = np.zeros(R, dtype=int)
    stop = np.full(R, max_iters)  # iteration after which each restart's budget is spent
    active = np.ones(R, dtype=bool)
    saved_at, saved_centroids, saved_labels = 0, None, None
    for it in range(max_iters):
        rs = np.flatnonzero(active)
        if rs.size == 0:
            break
        new = _assign(X, centroids[rs])
        repaired = np.zeros(rs.size, dtype=bool)
        counts = np.bincount(_cluster_ids(new, k), minlength=rs.size * k).reshape(-1, k)
        for i in np.flatnonzero((counts == 0).any(axis=1)):
            new[i], centroids[rs[i]], repaired[i] = _repair_empty(X, new[i], centroids[rs[i]], k)
        converged = ~repaired & (new == labels[rs]).all(axis=1)
        labels[rs] = new
        active[rs[converged]] = False
        moving = rs[~converged]
        if moving.size == 0:
            break
        centroids[moving] = _update_centroids(X, labels[moving], centroids[moving])
        history[moving, it] = _objectives(X, labels[moving], centroids[moving])
        lengths[moving] = it + 1

        t = it + 1  # the moving restarts' state now starts iteration t
        if saved_centroids is not None:
            bits = centroids[moving].view(np.int64)  # bit equality: -0.0 is not 0.0
            same = (bits == saved_centroids[moving].view(np.int64)).all(axis=(1, 2))
            cycling = moving[same & (labels[moving] == saved_labels[moving]).all(axis=1)]
            if cycling.size:
                period = t - saved_at
                stop[cycling] = t + (max_iters - t) % period
                later = np.arange(t, max_iters)
                history[cycling[:, None], later] = history[
                    cycling[:, None], saved_at + (later - saved_at) % period
                ]
        if t & (t - 1) == 0:
            saved_at, saved_centroids, saved_labels = t, centroids.copy(), labels.copy()
        spent = moving[stop[moving] == t]
        if spent.size:  # leave a consistent nearest-centroid state
            labels[spent] = _assign(X, centroids[spent])
            lengths[spent] = max_iters
            active[spent] = False
    if active.any():  # max_iters < 1: no iteration ran
        labels[active] = _assign(X, centroids[active])
    return labels, centroids, [h[:n].tolist() for h, n in zip(history, lengths)]


def kmeans(
    features,
    k: int,
    seed: int = 0,
    max_iters: int = 100,
    n_init: int = 10,
    init_centroids=None,
) -> ClusterAssignment:
    """Cluster feature rows into k groups via Lloyd iterations.

    Seeding is deterministic kmeans++ from ``seed``; the best of
    ``n_init`` restarts (by objective, the first on ties) is returned.
    ``init_centroids`` bypasses seeding and forces a single run from the
    given (k, f) centroids.

    The restarts are seeded one after another from one generator, then
    iterate together in one batched Lloyd loop; every restart gives the
    labels, centroids and objectives it would give on its own. A restart
    that cycles without converging (all feature rows at one point make the
    reseeded empty cluster swap every iteration) ends as soon as the cycle
    is seen, with the state and the ``max_iters``-long objective history
    that running out the budget would give.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be a (B, f) matrix")
    B = X.shape[0]
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k > B:
        raise ValueError(f"k={k} exceeds the number of samples B={B}")

    if init_centroids is not None:
        starts = np.asarray(init_centroids, dtype=float)[None]
        if starts.shape[1:] != (k, X.shape[1]):
            raise ValueError(f"init_centroids must be a ({k}, {X.shape[1]}) matrix")
    else:
        rng = np.random.default_rng(seed)
        starts = np.stack([_kmeans_pp_init(X, k, rng) for _ in range(max(1, n_init))])

    labels, centroids, histories = _lloyd(X, k, starts, max_iters)
    best = int(np.argmin(_objectives(X, labels, centroids)))
    return ClusterAssignment(
        labels=labels[best],
        centroids=centroids[best],
        k=k,
        objective_history=histories[best],
    )


def cluster_aggregates(
    per_sample_grads, assignment: ClusterAssignment, stats: QueueStats, cfg: BoostConfig
) -> list[ClusterAggregate]:
    """Per-cluster mean gradient, population and boosted mean."""
    G = np.asarray(per_sample_grads, dtype=float)
    if G.ndim != 2:
        raise ValueError("per-sample gradients must be a (B, d) matrix")
    if G.shape[0] != assignment.labels.shape[0]:
        raise ValueError("gradient count does not match the assignment")
    out = []
    for j in range(assignment.k):
        members = assignment.labels == j
        pop = int(members.sum())
        if pop == 0:
            continue
        mean_j = G[members].mean(axis=0)
        out.append(
            ClusterAggregate(
                cluster_mean_grad=mean_j,
                population=pop,
                boosted=delta_rho(mean_j, stats, cfg),
            )
        )
    return out


def aggregate(
    per_sample_grads, assignment: ClusterAssignment, stats: QueueStats, cfg: BoostConfig
) -> np.ndarray:
    """Population-weighted mean of the boosted cluster-mean gradients.

    g* = (1/B) * sum_j population_j * boost(mean_j). With rho = 1 this
    reconstructs the plain batch mean for any assignment.
    """
    G = np.asarray(per_sample_grads, dtype=float)
    if G.ndim != 2 or G.shape[0] == 0:
        raise ValueError("need a non-empty (B, d) gradient matrix")
    parts = cluster_aggregates(G, assignment, stats, cfg)
    total = np.zeros(G.shape[1])
    for part in parts:
        total += part.population * part.boosted
    return total / G.shape[0]


def choose_k(batch_size: int, optimal_batch: int) -> int:
    """Cluster count as the rounded ratio of batch size to the optimal size."""
    if batch_size < 1 or optimal_batch < 1:
        raise ValueError("batch_size and optimal_batch must be positive")
    return max(1, round(batch_size / optimal_batch))
