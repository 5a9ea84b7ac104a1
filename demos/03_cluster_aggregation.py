"""Walkthrough: boosted cluster aggregation of a mini-batch.

A large batch averages away rare per-sample gradients. Clustering the
samples by feature similarity isolates the rare group; boosting each
cluster's mean gradient and recombining weighted by population keeps
the rare contribution alive.

Run: python3 demos/03_cluster_aggregation.py
"""

import numpy as np

from gradqueue import (
    BoostConfig,
    GradQueue,
    aggregate,
    choose_k,
    delta_rho,
    kmeans,
)

rng = np.random.default_rng(7)

# 20 samples: 17 "frequent" ones pulling one way, 3 rare ones pulling
# the other way on the second coordinate
B = 20
grads = np.tile([0.5, 0.1], (B, 1)) + rng.normal(0, 0.02, (B, 2))
grads[17:, 1] = -3.0 + rng.normal(0, 0.05, 3)
features = np.vstack([rng.normal(0, 0.3, (17, 2)), rng.normal(5, 0.3, (3, 2))])

plain_mean = grads.mean(axis=0)
print("plain batch mean      :", np.round(plain_mean, 3))
print("rare-group mean       :", np.round(grads[17:].mean(axis=0), 3))

# queue statistics from past batch means (here: near the frequent mean)
queue = GradQueue(capacity=5)
for _ in range(5):
    queue.push(np.array([0.5, 0.1]) + rng.normal(0, 0.02, 2))

k = choose_k(batch_size=B, optimal_batch=10)
assignment = kmeans(features, k=k, seed=0)
print(f"\nk = {k} clusters, populations:",
      np.bincount(assignment.labels, minlength=k))

cfg = BoostConfig(rho=3.0)
for j in range(k):
    members = grads[assignment.labels == j]
    if len(members):
        mean_j = members.mean(axis=0)
        print(f"  cluster of {len(members):2d}: mean {np.round(mean_j, 3)}"
              f" -> boosted {np.round(delta_rho(mean_j, queue.stats(), cfg), 3)}")

g_star = aggregate(grads, assignment, queue.stats(), cfg)
print("\naggregated update g*  :", np.round(g_star, 3))
print("vs plain batch mean   :", np.round(plain_mean, 3))
print("\nThe rare cluster's second coordinate survives aggregation;")
print("with rho = 1 the aggregate reduces to the plain mean:")
print("  ", np.round(aggregate(grads, assignment, queue.stats(), BoostConfig(rho=1.0)), 3))
