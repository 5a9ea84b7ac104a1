"""K-means grouping of batch samples and boosted cluster-mean aggregation.

Samples in a mini-batch are clustered by their feature vectors; each
cluster's mean gradient is boosted against the shared queue statistics
and the boosted means are recombined weighted by cluster population.

``kmeans`` runs all its restarts at once and gives each the result it
would give alone: kmeans++ seeds every restart together under a plan of
the generator draws (``_kmeans_pp_init``), and the Lloyd iterations of
the distinct starts are batched (``_lloyd``). Every point-to-centroid
squared distance goes through ``_sq_dists``, one feature column at a time
in the order of numpy's einsum. Features must be finite. ``aggregate``
sorts the samples by cluster once and reduces each cluster's rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import BoostConfig, QueueStats, _integer, delta_rho

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

    Each feature adds one squared column difference, B long. The squares
    add in the order ``np.einsum("bkf,bkf->bk")`` uses on a contiguous f
    axis with numpy's baseline x86-64 SIMD (a vector of two lanes, multiply
    then add), so the bytes are the einsum's: lane 0 sums the even features
    and lane 1 the odd ones; in each full round of 8 features a lane adds
    its 4 squares last to first, the remaining ones in order; the two lanes
    add last.
    """
    f = X.shape[1]
    full = f - f % 8
    order = [r + t for r in range(0, full, 8) for t in (6, 7, 4, 5, 2, 3, 0, 1)]
    lanes = [None, None]
    for j in order + list(range(full, f)):
        d = X[:, j] - centroids[..., j, None]
        d *= d
        if lanes[j % 2] is None:
            lanes[j % 2] = d
        else:
            lanes[j % 2] += d
    return lanes[0] if lanes[1] is None else np.add(*lanes, out=lanes[0])


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


def kmeans_objective(X: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> float:
    """Sum of squared distances of each sample to its assigned centroid."""
    centroids = np.asarray(centroids)[None]
    ids = _cluster_ids(np.asarray(labels)[None], centroids.shape[1])
    return float(_objectives(X, ids, centroids)[0])


def _kmeans_pp_init(
    X: np.ndarray, k: int, rng: np.random.Generator, n_init: int = 1
) -> np.ndarray:
    """kmeans++ starting centroids of ``n_init`` restarts, (n_init, k, f).

    The centroids and the generator's final state are those of seeding the
    restarts one after another: each draws its first centroid with
    ``rng.integers(n)``, then each later one with ``rng.random()`` against
    the cumulative distribution of the squared distances to the centroids
    chosen so far, or with ``rng.integers(n)`` when all those distances are
    0 (every point coincides with a chosen centroid).

    All restarts are seeded together, one centroid at a time, from draws
    made up front in that order under a plan of which draws are integers.
    When a stage finds a restart whose distances are all 0 against the
    plan, the plan is corrected at the first such restart: a coincidence
    persists, so its later stages become integers too, and every later
    restart's plan is reset. The generator is then rewound and all draws
    are made again. With no coincidence the seeding computes k - 1
    distances, one per stage.
    """
    n = X.shape[0]
    integers, random = rng.integers, rng.random
    plan = np.zeros((n_init, k), dtype=bool)  # True: the draw is integers(n), else random()
    plan[:, 0] = True
    start = rng.bit_generator.state
    while True:
        draws = np.array([integers(n) if p else random() for p in plan.ravel().tolist()])
        with np.errstate(over="ignore", invalid="ignore"):
            centroids = _seed_under_plan(X, plan, draws.reshape(n_init, k))
        if centroids is not None:
            return centroids
        rng.bit_generator.state = start


def _seed_under_plan(X, plan, draws):
    """kmeans++ centroids of every restart from its (R, k) draws made under ``plan``.

    At the first stage whose distances show the plan wrong, corrects the
    plan at the first restart it is wrong for, and returns None.
    """
    R, k = plan.shape
    centroids = np.empty((R, k, X.shape[1]))
    centroids[:, 0] = X[draws[:, 0].astype(np.intp)]
    totals = np.zeros((R, k))
    for i in range(1, k):
        d2 = _sq_dists(X, centroids[:, :i]).min(axis=1)
        totals[:, i] = d2.sum(axis=1)  # each row's sum is that of the row alone
        coincide = totals[:, i] <= 0.0
        wrong = coincide != plan[:, i]
        if wrong.any():
            r = wrong.argmax()
            plan[r, i:] = coincide[r]
            plan[r + 1 :, 1:] = False
            return None
        # rng.choice(n, p=d2 / total) without its checks of p: the same draw,
        # index and generator state. Rows of a zero or non-finite total give
        # NaN here and are not used.
        cdf = (d2 / totals[:, i, None]).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        drawn = (cdf <= draws[:, i, None]).sum(axis=1)
        centroids[:, i] = X[np.where(coincide, draws[:, i], drawn).astype(np.intp)]
    if not np.isfinite(totals).all():
        raise ValueError("squared feature distances overflow")
    return centroids


def _repair_empty(X, labels, centroids, k):
    """Reseed each empty centroid at the point farthest from its assigned centroid.

    No cluster gives up its last member, so no reseed point is taken twice, and
    one is always found: while one of k <= B clusters is empty, some has two.
    """
    repaired = False
    for j in range(k):
        if np.any(labels == j):
            continue
        dist = _sq_dists(X, centroids)[labels, np.arange(labels.size)]
        counts = np.bincount(labels, minlength=k)
        dist[counts[labels] <= 1] = -1.0
        far = int(np.argmax(dist))
        centroids[j] = X[far]
        labels[far] = j
        repaired = True
    return labels, centroids, repaired


def _cluster_ids(labels: np.ndarray, k: int) -> np.ndarray:
    """One id per (restart, cluster) pair for (R, B) labels, flattened restart-major."""
    return (labels + k * np.arange(labels.shape[0])[:, None]).ravel()


def _update_centroids(X, ids, counts, centroids):
    """Move every centroid to its members' mean; an empty cluster's centroid stays.

    ``ids`` are the (R * B,) ``_cluster_ids`` of the labels, ``counts`` their
    bincount and centroids (R, k, f). Each mean adds the members in the
    order ``X[labels == j].mean(axis=0)`` does: one row after another when
    f > 1, pairwise along the single column when f = 1. For f > 1 that is
    one bincount over the bins ``id * f + column``, each bin's rows in order.
    """
    R, k, f = centroids.shape
    if f > 1:  # laid out column by column, which keeps each bin's row order
        bins = (ids * f + np.arange(f)[:, None]).ravel()
        weights = np.empty((f, R, X.shape[0]))
        weights[...] = X.T[:, None]
        sums = np.bincount(bins, weights=weights.ravel(), minlength=R * k * f).reshape(R * k, f)
    else:
        x = np.tile(X[:, 0], R)[np.argsort(ids, kind="stable")]
        ends = np.cumsum(counts)
        sums = np.array([x[e - c : e].sum() for e, c in zip(ends, counts)])[:, None]
    means = centroids.reshape(R * k, f).copy()
    np.divide(sums, counts[:, None], out=means, where=counts[:, None] > 0)
    return means.reshape(R, k, f)


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
            for i in np.flatnonzero((counts == 0).any(axis=1)):
                new[i], centroids[rs[i]], repaired = _repair_empty(X, new[i], centroids[rs[i]], k)
                if repaired:
                    reseeded.append(i)
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

    The restarts are seeded together, one centroid at a time, under a plan
    of the generator draws that gives each the centroids it would get
    seeded after the one before it (``_kmeans_pp_init``). A restart depends
    only on its start and the features, so byte-equal starts (common when
    the rows repeat a few points) end equal, and only the first of each is
    iterated: ``argmin`` picks the first of equal objectives anyway. The
    distinct starts iterate together in one batched Lloyd loop, each giving
    the labels, centroids and objectives it would give on its own. A
    restart that cycles without converging (all feature rows at one point
    make the reseeded empty cluster swap every iteration) ends as soon as
    the cycle is seen, with the state and the ``MAX_ITERS``-long objective
    history that running out the budget would give.

    Features and ``init_centroids`` must be finite, and ``seed`` an integer
    >= 0. Squared distances add per feature column in the order of numpy's
    einsum (``_sq_dists``), and the nearest centroid is the first of equals,
    as ``argmin`` picks it. A distance or objective that overflows is inf,
    with no warning; seeding then raises.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be a (B, f) matrix")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    B = X.shape[0]
    k = _integer("k", k)
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k > B:
        raise ValueError(f"k={k} exceeds the number of samples B={B}")
    n_init = _integer("n_init", n_init)
    if n_init < 1:
        raise ValueError(f"n_init must be >= 1, got {n_init}")
    if _integer("seed", seed) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")

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
    labels = np.asarray(assignment.labels)
    if labels.shape != G.shape[:1]:
        raise ValueError("gradient count does not match the assignment")
    if labels.dtype.kind not in "iu" or labels.min() < 0 or labels.max() >= assignment.k:
        raise ValueError(f"cluster labels must be integers in [0, {assignment.k})")
    rows = G[np.argsort(labels, kind="stable")]  # each cluster's members, in order
    total = np.zeros(G.shape[1])
    end = 0
    # intp first: bincount refuses uint64 under numpy < 2.3; the range check makes it safe
    for pop in np.bincount(labels.astype(np.intp, copy=False), minlength=assignment.k).tolist():
        end += pop
        if pop:
            total += pop * delta_rho(np.add.reduce(rows[end - pop : end], axis=0) / pop, stats, cfg)
    return total / G.shape[0]


def choose_k(batch_size: int, optimal_batch: int) -> int:
    """Cluster count as the rounded ratio of batch size to the optimal size."""
    if _integer("batch_size", batch_size) < 1 or _integer("optimal_batch", optimal_batch) < 1:
        raise ValueError("batch_size and optimal_batch must be positive")
    return max(1, round(batch_size / optimal_batch))
