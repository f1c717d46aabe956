"""K-means over factor scores, with Silhouette and Davies-Bouldin evaluation.

Fitting uses greedy k-means++ seeding, Lloyd iterations to convergence,
and a configurable number of restarts. One path fits k = 1, 2, ... in
order: each k keeps the lowest inertia of its restarts and of a warm start
from the k-1 fit, so ``kmeans`` at k and the ``elbow`` row at k are one fit,
and the elbow curve never rises. Empty clusters are repaired during fitting
by donating the point farthest from its current centroid, so every returned
cluster is non-empty. Clusters are numbered in order of their first point.
All distances are Euclidean, both for fitting and for the evaluation indices.

Seeding draws only ``random.Random(seed).random()``, a sequence Python
keeps the same across releases, so results are the same for a fixed
(seed, restarts, input order) on every supported Python and numpy.
"""

from __future__ import annotations

import math
import numbers
import operator
import random
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_seed

MAX_LLOYD_ITERATIONS = 300


@dataclass(frozen=True)
class ClusteringResult:
    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    silhouette: float | None
    davies_bouldin: float | None
    inertia_history: tuple[float, ...]


def check_seeding(seed: int, restarts: int) -> None:
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1, got {restarts}")
    check_seed(seed)


def check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ValidationError(f"k must lie in 1..{n}, got {k}")


def check_k_range(k_range: tuple[int, int] | None, n: int) -> range:
    """The elbow's k values for n cities: A..B cut at n, or 1..min(10, n) without a range."""
    if k_range is not None and not (
        isinstance(k_range, tuple)
        and len(k_range) == 2
        and all(isinstance(k, numbers.Integral) for k in k_range)
    ):
        raise ValidationError(f"k range must be None or a pair (A, B) of ints, got {k_range!r}")
    lo, hi = k_range or (1, min(10, n))
    if not 1 <= lo <= min(hi, n):
        raise ValidationError(f"k range A..B needs 1 <= A <= min(B, {n} cities), got {k_range}")
    return range(lo, min(hi, n) + 1)


def _as_points(scores) -> np.ndarray:
    points = np.asarray(scores, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[0] == 0 or points.shape[1] == 0:
        raise ValidationError("scores must be a non-empty 2-D array")
    if not np.all(np.isfinite(points)):
        raise ValidationError("scores contain non-finite values")
    return points


def _kmeans_pp_init(points: np.ndarray, k: int, rng: random.Random) -> np.ndarray:
    """Greedy k-means++ (Arthur & Vassilvitskii 2007, section 6).

    Each centre after the first draws 2 + floor(ln k) candidates with
    probability proportional to the squared distance to the nearest centre
    so far, and keeps the one that leaves the lowest total of those distances.
    """
    n = points.shape[0]
    trials = 2 + int(math.log(k))
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.random() * n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        cumulative = np.cumsum(d2)
        total = float(cumulative[-1])
        if total > 0.0:
            draws = [rng.random() * total for _ in range(trials)]
            # A draw that rounds up to the total would fall past the end.
            candidates = np.searchsorted(cumulative, draws, side="right").clip(max=n - 1)
        else:  # every point sits on a centre
            candidates = np.array([int(rng.random() * n) for _ in range(trials)])
        reach = np.minimum(d2, ((points[None, :, :] - points[candidates, None, :]) ** 2).sum(axis=2))
        best = int(reach.sum(axis=1).argmin())
        centroids[j] = points[candidates[best]]
        d2 = reach[best]
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


def _fit_path(points: np.ndarray, k_max: int, seed: int, restarts: int) -> list:
    """The fits at k = 1..k_max, in order, each numbered by first point.

    Each k keeps the lowest-inertia of ``restarts`` k-means++ restarts drawn
    from a fresh ``random.Random(seed)`` and, from k = 2 on, a Lloyd fit
    started from the k-1 fit's centroids plus the point farthest from its
    centroid. A tie keeps the earlier restart, and a restart over the warm start.
    """
    fits = []
    for k in range(1, k_max + 1):
        rng = random.Random(operator.index(seed))  # a numpy integer too
        candidates = [_lloyd(points, _kmeans_pp_init(points, k, rng)) for _ in range(restarts)]
        if fits:
            labels, centroids = fits[-1][:2]
            farthest = ((points - centroids[labels]) ** 2).sum(axis=1).argmax()
            candidates.append(_lloyd(points, np.vstack([centroids, points[farthest]])))
        labels, centroids, inertia, history = min(candidates, key=operator.itemgetter(2))
        order = np.array(list(dict.fromkeys(labels.tolist())))  # old cluster ids by first point
        fits.append((np.argsort(order)[labels], centroids[order], inertia, history))
    return fits


def kmeans(scores, k: int, seed: int = 0, restarts: int = 10) -> ClusteringResult:
    """The fit at k of ``_fit_path``; deterministic for a fixed seed (>= 0)."""
    check_seeding(seed, restarts)
    points = _as_points(scores)
    check_k(k, points.shape[0])
    labels, centroids, inertia, history = _fit_path(points, k, seed, restarts)[-1]
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
    cluster_ids = sorted(set(labels.tolist()))
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
    cluster_ids = sorted(set(labels.tolist()))
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


def elbow(scores, k_range=None, seed: int = 0, restarts: int = 10) -> tuple[tuple[int, float], ...]:
    """``(k, inertia)`` for each k of ``check_k_range(k_range, n)`` on n points:
    A..B cut at n for the pair (A, B) of ``--k-range A..B``, which needs
    1 <= A <= min(B, n), and 1..min(10, n) for None.

    Each k's inertia is ``kmeans(scores, k, seed, restarts).inertia``: the
    curve reads one ``_fit_path`` up to the largest k, which starts at
    k = 1 whatever the range, so it never rises.
    """
    check_seeding(seed, restarts)
    points = _as_points(scores)
    ks = check_k_range(k_range, points.shape[0])
    fits = _fit_path(points, ks[-1], seed, restarts)
    return tuple((k, fits[k - 1][2]) for k in ks)
