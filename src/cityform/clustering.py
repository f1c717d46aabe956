"""K-means over factor scores, with Silhouette and Davies-Bouldin evaluation.

Fitting uses k-means++ seeding, Lloyd iterations to convergence, and a
configurable number of restarts; the restart with the lowest inertia wins.
Empty clusters are repaired during fitting by donating the point farthest
from its current centroid, so every returned cluster is non-empty. All
distances are Euclidean, both for fitting and for the evaluation indices.
Results are deterministic for a fixed (seed, restarts, input order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

MAX_LLOYD_ITERATIONS = 300


@dataclass(frozen=True)
class ClusteringResult:
    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    silhouette: float | None
    davies_bouldin: float | None
    inertia_history: tuple[float, ...]


def _as_points(scores) -> np.ndarray:
    points = np.asarray(scores, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[0] == 0 or points.shape[1] == 0:
        raise ValidationError("scores must be a non-empty 2-D array")
    if not np.all(np.isfinite(points)):
        raise ValidationError("scores contain non-finite values")
    return points


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.integers(n))]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _lloyd(points: np.ndarray, centroids: np.ndarray):
    """Iterate assignment/update with empty-cluster repair; returns the fit."""
    k = centroids.shape[0]
    centroids = centroids.copy()
    labels = None
    history: list[float] = []
    for _ in range(MAX_LLOYD_ITERATIONS):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        sizes = np.bincount(new_labels, minlength=k)
        for empty in np.flatnonzero(sizes == 0):
            own = d2[np.arange(len(points)), new_labels]
            candidates = sizes[new_labels] > 1
            own = np.where(candidates, own, -np.inf)
            donor = int(own.argmax())
            sizes[new_labels[donor]] -= 1
            new_labels[donor] = empty
            sizes[empty] += 1
        for cid in range(k):
            centroids[cid] = points[new_labels == cid].mean(axis=0)
        inertia = float(((points - centroids[new_labels]) ** 2).sum())
        history.append(inertia)
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
    return labels, centroids, history[-1], history


def _best_fit(points: np.ndarray, k: int, seed: int, restarts: int):
    """The lowest-inertia Lloyd fit over k-means++ restarts drawn from ``seed``."""
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1, got {restarts}")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        fit = _lloyd(points, _kmeans_pp_init(points, k, rng))
        if best is None or fit[2] < best[2]:
            best = fit
    return best


def kmeans(scores, k: int, seed: int = 0, restarts: int = 10) -> ClusteringResult:
    """Best-of-restarts k-means; deterministic for a fixed seed."""
    points = _as_points(scores)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValidationError(f"k must lie in 1..{n}, got {k}")
    labels, centroids, inertia, history = _best_fit(points, k, seed, restarts)
    return ClusteringResult(
        labels=labels,
        centroids=centroids,
        inertia=inertia,
        silhouette=silhouette(points, labels) if k >= 2 else None,
        davies_bouldin=davies_bouldin(points, labels) if k >= 2 else None,
        inertia_history=tuple(history),
    )


def silhouette(scores, labels) -> float:
    """Mean of (b - a) / max(a, b) over points.

    a = mean distance to the point's own cluster (excluding itself);
    b = smallest mean distance to any other cluster. Singleton clusters
    contribute 0, as do points where a and b are both zero.
    """
    points = _as_points(scores)
    labels = np.asarray(labels)
    cluster_ids = np.unique(labels)
    if len(cluster_ids) < 2:
        raise ValidationError("silhouette is undefined for a single cluster")
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    members = {cid: np.flatnonzero(labels == cid) for cid in cluster_ids}
    total = 0.0
    for i in range(len(points)):
        own = members[labels[i]]
        if len(own) == 1:
            continue  # singleton contributes 0
        a = dist[i, own].sum() / (len(own) - 1)
        b = min(
            dist[i, members[cid]].mean() for cid in cluster_ids if cid != labels[i]
        )
        denom = max(a, b)
        if denom > 0.0:
            total += (b - a) / denom
    return total / len(points)


def davies_bouldin(scores, labels) -> float:
    """Mean over clusters of the worst (S_i + S_j) / M_ij ratio; lower is better.

    S is the mean distance to the cluster's own centroid, M the distance
    between centroids. Coincident centroids yield an infinite ratio, which
    propagates rather than crashing.
    """
    points = _as_points(scores)
    labels = np.asarray(labels)
    cluster_ids = np.unique(labels)
    k = len(cluster_ids)
    if k < 2:
        raise ValidationError("Davies-Bouldin is undefined for a single cluster")
    centroids = np.stack([points[labels == cid].mean(axis=0) for cid in cluster_ids])
    scatter = np.array(
        [
            np.sqrt(((points[labels == cid] - centroids[idx]) ** 2).sum(axis=1)).mean()
            for idx, cid in enumerate(cluster_ids)
        ]
    )
    total = 0.0
    for i in range(k):
        worst = 0.0
        for j in range(k):
            if i == j:
                continue
            m = float(np.sqrt(((centroids[i] - centroids[j]) ** 2).sum()))
            ratio = (scatter[i] + scatter[j]) / m if m > 0.0 else float("inf")
            worst = max(worst, ratio)
        total += worst
    return total / k


def elbow(scores, k_range, seed: int = 0, restarts: int = 10) -> tuple[tuple[int, float], ...]:
    """``(k, best inertia)`` for each k over a range of cluster counts.

    Besides the usual restarts, each k > min(k_range) also tries a warm
    start built from the previous k's best centroids plus the point
    farthest from its centroid, which keeps the curve non-increasing.
    """
    points = _as_points(scores)
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ValidationError("k_range is empty")
    if ks[0] < 1 or ks[-1] > points.shape[0]:
        raise ValidationError(f"k_range must lie within 1..{points.shape[0]}")
    entries = []
    prev: tuple[np.ndarray, np.ndarray] | None = None
    for k in ks:
        labels, centroids, inertia, _ = _best_fit(points, k, seed, restarts)
        if prev is not None:
            prev_labels, prev_centroids = prev
            warm = prev_centroids
            warm_labels = prev_labels
            while warm.shape[0] < k:
                residual = ((points - warm[warm_labels]) ** 2).sum(axis=1)
                warm = np.vstack([warm, points[int(residual.argmax())]])
                warm_labels = (
                    ((points[:, None, :] - warm[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
                )
            w_labels, w_centroids, w_inertia, _ = _lloyd(points, warm)
            if w_inertia < inertia:
                labels, centroids, inertia = w_labels, w_centroids, w_inertia
        entries.append((k, float(inertia)))
        prev = (labels, centroids)
    return tuple(entries)
