"""K-means grouping of batch samples and boosted cluster-mean aggregation.

Samples in a mini-batch are clustered by their feature vectors; each
cluster's mean gradient is boosted against the shared queue statistics
and the boosted means are recombined weighted by cluster population.

``kmeans`` runs all its restarts at once and gives each the result it
would give alone: kmeans++ draws every centroid from one ``random()``, so
all restarts are seeded together from one generator call
(``_kmeans_pp_init``), and the Lloyd iterations of the distinct starts are
batched (``_lloyd``). Every point-to-centroid squared distance goes
through ``_sq_dists``: squares added in feature order. Every centroid is
its members' mean: member sums row after row from 0.0, over the count.
Features must be finite. ``aggregate`` sorts the samples by cluster once
and reduces each cluster's rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import BoostConfig, QueueStats, _at_least, delta_rho

__all__ = [
    "ClusterAssignment",
    "kmeans",
    "kmeans_objective",
    "aggregate",
    "choose_k",
]

MAX_ITERS = 100  # Lloyd updates per restart


@dataclass
class ClusterAssignment:
    labels: np.ndarray  # (B,) ints in [0, k)
    centroids: np.ndarray  # (k, f)
    # objective after each Lloyd update of the winning restart
    objective_history: list[float] = field(default_factory=list)

    @property
    def k(self) -> int:
        return len(self.centroids)


def _sq_dists(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(..., k, B) squared distances; ``centroids`` is (..., k, f), leading axes are restarts.

    Squares added in feature order: each feature's squared column difference,
    B long, is added to the sum of the features before it.
    """
    total = X[:, 0] - centroids[..., 0, None]
    total *= total
    for j in range(1, X.shape[1]):
        d = X[:, j] - centroids[..., j, None]
        d *= d
        total += d
    return total


def _assign(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each sample's nearest centroid, the first of equals: (..., B) ints.

    A running strict ``<`` over the k distance rows, which is ``argmin``
    for distances that are not NaN (features are finite).
    """
    dists = _sq_dists(X, centroids)
    k = dists.shape[-2]
    best = dists[..., 0, :]
    labels = np.zeros(best.shape, dtype=np.intp)
    for j in range(1, k):
        closer = dists[..., j, :] < best
        np.putmask(labels, closer, j)
        if j + 1 < k:
            np.minimum(best, dists[..., j, :], out=best)
    return labels


def _objectives(X: np.ndarray, ids: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """kmeans_objective of each restart: ``_cluster_ids`` ids, centroids (R, k, f)."""
    R, k, f = centroids.shape
    diff = X - centroids.reshape(R * k, f)[ids].reshape(R, -1, f)
    return np.add.reduce(diff * diff, axis=(1, 2))  # np.sum without its wrapper


def _check_labels(labels, B: int, k: int) -> np.ndarray:
    """``labels`` as intp, refused unless they are B integers in [0, k)."""
    labels = np.asarray(labels)
    if labels.shape != (B,):
        raise ValueError(f"label shape {labels.shape} does not match the {B} samples")
    if labels.dtype.kind not in "iu" or ((labels < 0) | (labels >= k)).any():
        raise ValueError(f"cluster labels must be integers in [0, {k})")
    return labels.astype(np.intp, copy=False)  # uint64 plus int64 cluster offsets is float64


def kmeans_objective(X: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> float:
    """Sum of squared distances of each of the (B, f) samples to its one of (k, f) centroids."""
    X, centroids = np.asarray(X), np.asarray(centroids)
    if centroids.ndim != 2 or centroids.shape[1:] != X.shape[1:]:
        raise ValueError(
            f"centroids of shape {centroids.shape} are not a (k, f) matrix "
            f"for features of shape {X.shape}"
        )
    centroids = centroids[None]
    labels = _check_labels(labels, len(X), centroids.shape[1])
    ids = _cluster_ids(labels[None], centroids.shape[1])
    return float(_objectives(X, ids, centroids)[0])


def _kmeans_pp_init(
    X: np.ndarray, k: int, rng: np.random.Generator, n_init: int = 1
) -> np.ndarray:
    """kmeans++ starting centroids of ``n_init`` restarts, (n_init, k, f).

    Each centroid is drawn from one ``random()``, as ``rng.choice(n, p=w /
    w.sum())`` draws it: w holds the squared distances to the centroids
    chosen so far, or ones for the first centroid and when those distances
    are all 0. Every restart takes k draws, so all restarts are seeded
    together, one centroid at a time, from one ``rng.random((n_init, k))``,
    with the centroids and final generator state of seeding them in turn.
    """
    draws = rng.random((n_init, k))
    centroids = np.empty((n_init, k, X.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(k):
            w = _sq_dists(X, centroids[:, :i]).min(axis=1) if i else np.ones((n_init, len(X)))
            w[w.sum(axis=1) <= 0.0] = 1.0  # every point coincides with a chosen centroid
            # rng.choice(n, p=w / w.sum()) without its checks of p; a row's sum is the row's alone
            cdf = (w / w.sum(axis=1, keepdims=True)).cumsum(axis=1)
            cdf /= cdf[:, -1:]
            if not np.isfinite(cdf[:, -1]).all():
                raise ValueError("squared feature distances overflow")
            centroids[:, i] = X[(cdf <= draws[:, i, None]).sum(axis=1)]
    return centroids


def _repair_empty(X, labels, centroids, k):
    """Reseed each empty cluster, in index order, at the sample farthest from its centroid.

    Equal distances take the first sample, and no cluster gives up its last
    member, so no reseed point is taken twice, and one is always found:
    while one of k <= B clusters is empty, some has two. The returned
    labels leave no cluster empty.
    """
    for j in range(k):
        if np.any(labels == j):
            continue
        dist = _sq_dists(X, centroids)[labels, np.arange(labels.size)]
        counts = np.bincount(labels, minlength=k)
        dist[counts[labels] <= 1] = -1.0
        far = int(np.argmax(dist))
        centroids[j] = X[far]
        labels[far] = j
    return labels, centroids


def _cluster_ids(labels: np.ndarray, k: int) -> np.ndarray:
    """One id per (restart, cluster) pair for (R, B) labels, flattened restart-major."""
    return (labels + k * np.arange(labels.shape[0])[:, None]).ravel()


def _update_centroids(X, ids, counts, centroids):
    """Move every centroid to its members' mean; every cluster has a member.

    ``ids`` are the (R * B,) ``_cluster_ids`` of the labels, ``counts`` their
    bincount and centroids (R, k, f). Member sums row after row from 0.0,
    over the count: one bincount over the bins ``id * f + column``, laid out
    column by column, which keeps each bin's rows in order.
    """
    R, k, f = centroids.shape
    bins = (ids * f + np.arange(f)[:, None]).ravel()
    sums = np.bincount(bins, weights=np.repeat(X.T, R, axis=0).ravel(), minlength=R * k * f)
    return sums.reshape(R, k, f) / counts.reshape(R, k, 1)


def _lloyd(X, k, starts):
    """Lloyd iterations of every restart at once, from (R, k, f) starting centroids.

    Each restart runs its own loop: assign each sample to its nearest
    centroid, reseed empty clusters, stop when the labels repeat with no
    reseed, else move the centroids to their members' means and record the
    objective. Once ``MAX_ITERS`` updates are spent the labels are
    reassigned to the final centroids. Returns (R, B) labels, (R, k, f)
    centroids, each restart's final objective, and the (R, MAX_ITERS)
    objective histories with each restart's history length.

    An iteration's cluster ids and their bincount are computed once and
    shared by the centroid update and the objectives.

    An iteration depends only on the centroids and labels it starts from,
    so a restart whose state repeats an earlier one cycles until
    ``MAX_ITERS`` (collapsed features do this: the reseeded cluster swaps
    every iteration). The state is saved at every power-of-two iteration;
    when a later state equals the saved one, the restart runs only the
    iterations that bring it to the state it would reach at ``MAX_ITERS``,
    and its history is filled out by repeating the cycle's objectives.
    """
    R, B, max_iters = starts.shape[0], X.shape[0], MAX_ITERS
    centroids = starts.copy()
    labels = np.full((R, B), -1, dtype=np.intp)  # matches no assignment
    history = np.empty((R, max_iters))
    lengths = np.full(R, max_iters)
    objectives = np.empty(R)
    stop = np.full(R, max_iters)  # iteration after which each restart's budget is spent
    rs = np.arange(R)  # the restarts still iterating
    saved_at, saved_centroids, saved_labels = 0, None, None
    for it in range(max_iters):
        if rs.size == 0:
            break
        at = rs if rs.size < R else slice(None)  # a slice while every restart iterates
        new = _assign(X, centroids[at])
        ids = _cluster_ids(new, k)
        counts = np.bincount(ids, minlength=rs.size * k).reshape(-1, k)
        reseeded = []
        if not counts.all():
            reseeded = np.flatnonzero((counts == 0).any(axis=1))
            for i in reseeded:
                new[i], centroids[rs[i]] = _repair_empty(X, new[i], centroids[rs[i]], k)
                counts[i] = np.bincount(new[i], minlength=k)
                ids[i * B : (i + 1) * B] = new[i] + i * k
        converged = (new == labels[at]).all(axis=1)
        converged[reseeded] = False
        labels[at] = new
        if converged.any():
            done = rs[converged]
            # unchanged since the last update (none converges at it = 0)
            objectives[done] = history[done, it - 1]
            lengths[done] = it
            at = rs = rs[~converged]
            if rs.size == 0:
                break
            new, counts = new[~converged], counts[~converged]
            ids = _cluster_ids(new, k)
        moved = _update_centroids(X, ids, counts.ravel(), centroids[at])
        centroids[at] = moved
        history[at, it] = _objectives(X, ids, moved)

        t = it + 1  # the moving restarts' state now starts iteration t
        if saved_centroids is not None:
            bits = moved.view(np.int64)  # bit equality: -0.0 is not 0.0
            same = (bits == saved_centroids[at].view(np.int64)).all(axis=(1, 2))
            cycling = rs[same & (new == saved_labels[at]).all(axis=1)]
            if cycling.size:
                period = t - saved_at
                stop[cycling] = t + (max_iters - t) % period
                later = np.arange(t, max_iters)
                history[cycling[:, None], later] = history[
                    cycling[:, None], saved_at + (later - saved_at) % period
                ]
        if t & (t - 1) == 0:
            saved_at, saved_centroids, saved_labels = t, centroids.copy(), labels.copy()
        spent = stop[at] == t
        if spent.any():  # leave a consistent nearest-centroid state
            done = rs[spent]
            labels[done] = _assign(X, centroids[done])
            objectives[done] = _objectives(X, _cluster_ids(labels[done], k), centroids[done])
            rs = rs[~spent]
    return labels, centroids, objectives, history, lengths


def kmeans(
    features,
    k: int,
    seed: int = 0,
    n_init: int = 10,
    init_centroids=None,
) -> ClusterAssignment:
    """Cluster feature rows into k groups via at most ``MAX_ITERS`` Lloyd updates.

    Seeding is deterministic kmeans++ from ``seed``; the best of
    ``n_init`` restarts (by objective, the first on ties) is returned.
    ``init_centroids`` bypasses seeding and forces a single run from the
    given (k, f) centroids.

    Each kmeans++ centroid is drawn from one ``random()`` as
    ``Generator.choice`` draws by weight, so the restarts are seeded
    together, one centroid at a time, from one generator call, each with
    the centroids it would get seeded after the one before it
    (``_kmeans_pp_init``). A restart depends only on its start and the
    features, so byte-equal starts (common when the rows repeat a few
    points) end equal, and only the first of each is iterated: ``argmin``
    picks the first of equal objectives anyway. The distinct starts iterate
    together in one batched Lloyd loop, each giving the labels, centroids
    and objectives it would give on its own. A restart that cycles without
    converging (all feature rows at one point make the reseeded empty
    cluster swap every iteration) ends as soon as the cycle is seen, with
    the state and the ``MAX_ITERS``-long objective history that running
    out the budget would give.

    Features must be a (B, f) matrix with f >= 1, features and
    ``init_centroids`` finite, and ``seed`` an integer >= 0. Squares are
    added in feature order (``_sq_dists``), member sums row after row from
    0.0, and the nearest centroid is the first of equals, as ``argmin``
    picks it. A distance or objective that overflows is inf, with no
    warning; seeding then raises.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError("features must be a (B, f) matrix")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    B = X.shape[0]
    k = _at_least("k", k, 1)
    if k > B:
        raise ValueError(f"k={k} exceeds the number of samples B={B}")
    n_init = _at_least("n_init", n_init, 1)
    seed = _at_least("seed", seed, 0)

    if init_centroids is not None:
        starts = np.asarray(init_centroids, dtype=float)[None]
        if starts.shape[1:] != (k, X.shape[1]):
            raise ValueError(f"init_centroids must be a ({k}, {X.shape[1]}) matrix")
        if not np.isfinite(starts).all():
            raise ValueError("init_centroids must be finite")
    else:
        starts = _kmeans_pp_init(X, k, np.random.default_rng(seed), n_init)
        first = {}  # each distinct start's first restart
        for r, start in enumerate(starts):
            first.setdefault(start.tobytes(), r)
        starts = starts[list(first.values())]
    with np.errstate(over="ignore"):
        labels, centroids, objectives, history, lengths = _lloyd(X, k, starts)
    best = int(np.argmin(objectives))
    return ClusterAssignment(
        labels=labels[best],
        centroids=centroids[best],
        objective_history=history[best, : lengths[best]].tolist(),
    )


def aggregate(
    per_sample_grads, assignment: ClusterAssignment, stats: QueueStats, cfg: BoostConfig
) -> np.ndarray:
    """Population-weighted mean of the boosted cluster-mean gradients.

    g* = (1/B) * sum_j population_j * delta_rho(mean_j), over the non-empty
    clusters in index order. With rho = 1 this reconstructs the plain batch
    mean for any assignment. Every label must be an integer in [0, k), and
    ``stats`` must have the gradients' dimension.

    The rows are sorted stably by label once, so each cluster's members
    are a contiguous slice in the order ``G[labels == j]`` gathers them;
    ``np.add.reduce`` of it over the population is, byte for byte,
    ``G[labels == j].mean(axis=0)`` (``np.add.reduceat`` is not).
    """
    G = np.asarray(per_sample_grads, dtype=float)
    if G.ndim != 2 or G.shape[0] == 0:
        raise ValueError("need a non-empty (B, d) gradient matrix")
    labels = _check_labels(assignment.labels, G.shape[0], assignment.k)
    rows = G[np.argsort(labels, kind="stable")]  # each cluster's members, in order
    total = np.zeros(G.shape[1])
    end = 0
    for pop in np.bincount(labels, minlength=assignment.k).tolist():
        end += pop
        if pop:
            total += pop * delta_rho(np.add.reduce(rows[end - pop : end], axis=0) / pop, stats, cfg)
    return total / G.shape[0]


def choose_k(batch_size: int, optimal_batch: int) -> int:
    """Cluster count as the rounded ratio of batch size to the optimal size."""
    batch_size = _at_least("batch_size", batch_size, 1)
    optimal_batch = _at_least("optimal_batch", optimal_batch, 1)
    return max(1, round(batch_size / optimal_batch))
