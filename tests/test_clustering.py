"""K-means fitting, evaluation indices, and the elbow curve."""

import itertools
import math

import numpy as np
import pytest

from cityform.clustering import davies_bouldin, elbow, kmeans, silhouette
from cityform.errors import ValidationError

from helpers import adjusted_rand_index, davies_bouldin_oracle, silhouette_oracle

FOUR_POINTS = np.array([[0.0], [1.0], [10.0], [11.0]])
NATURAL = np.array([0, 0, 1, 1])


def best_two_partition_inertia(points):
    """Exhaustive oracle: best inertia over every 2-partition."""
    n = len(points)
    best = math.inf
    best_assignment = None
    for bits in itertools.product((0, 1), repeat=n):
        if len(set(bits)) < 2:
            continue
        total = 0.0
        for side in (0, 1):
            members = [points[i] for i in range(n) if bits[i] == side]
            centroid = np.mean(members, axis=0)
            total += sum(((m - centroid) ** 2).sum() for m in members)
        if total < best:
            best = total
            best_assignment = bits
    return best, best_assignment


class TestKmeans:
    def test_two_tight_pairs(self):
        oracle_inertia, oracle_bits = best_two_partition_inertia(FOUR_POINTS)
        result = kmeans(FOUR_POINTS, 2, seed=3, restarts=5)
        assert result.inertia == pytest.approx(oracle_inertia, abs=1e-12)
        assert result.inertia == pytest.approx(1.0)
        assert result.labels[0] == result.labels[1] != result.labels[2] == result.labels[3]
        assert sorted(result.centroids.ravel()) == pytest.approx([0.5, 10.5])
        assert (list(oracle_bits) == list(result.labels)
                or list(oracle_bits) == list(1 - result.labels))

    def test_k_equals_point_count(self):
        result = kmeans(FOUR_POINTS, 4, seed=0, restarts=3)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)
        assert len(set(result.labels)) == 4

    def test_k_one_gives_total_variance(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(40, 3))
        result = kmeans(points, 1, seed=0, restarts=1)
        expected = ((points - points.mean(axis=0)) ** 2).sum()
        assert result.inertia == pytest.approx(expected, rel=1e-12)
        assert result.silhouette is None and result.davies_bouldin is None

    def test_inertia_history_non_increasing(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            points = rng.normal(size=(60, 2))
            result = kmeans(points, 4, seed=seed, restarts=3)
            history = result.inertia_history
            for earlier, later in zip(history, history[1:]):
                assert later <= earlier * (1 + 1e-9) + 1e-12

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(50, 2))
        a = kmeans(points, 3, seed=11, restarts=7)
        b = kmeans(points, 3, seed=11, restarts=7)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia

    def test_duplicate_points_are_legal(self):
        points = np.zeros((6, 2))
        result = kmeans(points, 2, seed=0, restarts=2)
        assert result.inertia == 0.0
        assert len(set(result.labels)) == 2  # empty-cluster repair kicked in

    def test_k_out_of_range(self):
        with pytest.raises(ValidationError):
            kmeans(FOUR_POINTS, 5, seed=0, restarts=1)
        with pytest.raises(ValidationError):
            kmeans(FOUR_POINTS, 0, seed=0, restarts=1)
        with pytest.raises(ValidationError):
            kmeans(FOUR_POINTS, 2, seed=0, restarts=0)

    def test_blob_recovery(self):
        recovered = 0
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            blobs, truth = [], []
            for label, center in enumerate([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)]):
                blobs.append(rng.normal(center, 0.5, size=(30, 2)))
                truth += [label] * 30
            points = np.vstack(blobs)
            result = kmeans(points, 3, seed=seed, restarts=10)
            if adjusted_rand_index(result.labels.tolist(), truth) == 1.0:
                recovered += 1
        assert recovered >= 9


class TestSilhouette:
    def test_four_point_example(self):
        value = silhouette(FOUR_POINTS, NATURAL)
        assert value == pytest.approx(0.8997, abs=1e-3)
        assert value == pytest.approx(silhouette_oracle(FOUR_POINTS, NATURAL), abs=1e-12)

    def test_duplicates_far_apart(self):
        points = np.array([[0.0], [0.0], [1000.0], [1000.0]])
        assert silhouette(points, NATURAL) == 1.0

    def test_permuted_labels_score_lower(self):
        natural = silhouette(FOUR_POINTS, NATURAL)
        permuted = silhouette(FOUR_POINTS, np.array([0, 1, 0, 1]))
        assert permuted < natural

    def test_single_cluster_rejected(self):
        with pytest.raises(ValidationError):
            silhouette(FOUR_POINTS, np.zeros(4, dtype=int))

    def test_singleton_contributes_zero(self):
        points = np.array([[0.0], [10.0], [11.0]])
        labels = np.array([0, 1, 1])
        assert silhouette(points, labels) == pytest.approx(
            silhouette_oracle(points, labels), abs=1e-12
        )


class TestDaviesBouldin:
    def test_four_point_example(self):
        value = davies_bouldin(FOUR_POINTS, NATURAL)
        assert value == pytest.approx(0.1, abs=1e-9)

    def test_two_singletons(self):
        assert davies_bouldin(np.array([[0.0], [5.0]]), np.array([0, 1])) == 0.0

    def test_unbalanced_split_is_worse(self):
        merged = davies_bouldin(FOUR_POINTS, np.array([0, 0, 0, 1]))
        assert merged > 0.1

    def test_coincident_centroids_give_infinity(self):
        points = np.array([[0.0], [2.0], [0.0], [2.0]])
        labels = np.array([0, 0, 1, 1])
        assert math.isinf(davies_bouldin(points, labels))

    def test_single_cluster_rejected(self):
        with pytest.raises(ValidationError):
            davies_bouldin(FOUR_POINTS, np.zeros(4, dtype=int))


class TestIndicesAgainstOracles:
    def test_random_labelings(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(6, 40))
            points = rng.normal(size=(n, int(rng.integers(1, 4))))
            k = int(rng.integers(2, 5))
            labels = rng.integers(0, k, size=n)
            while len(set(labels.tolist())) < 2:
                labels = rng.integers(0, k, size=n)
            assert silhouette(points, labels) == pytest.approx(
                silhouette_oracle(points, labels), abs=1e-9
            )
            got = davies_bouldin(points, labels)
            want = davies_bouldin_oracle(points, labels)
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, abs=1e-9)


class TestElbow:
    def blobs(self):
        rng = np.random.default_rng(9)
        parts = [rng.normal(c, 1.0, size=(10, 1)) for c in (0.0, 50.0, 100.0)]
        return np.vstack(parts)

    def test_three_blob_drop_ratio(self):
        points = self.blobs()
        curve = elbow(points, range(1, 6), seed=0, restarts=5)
        inertia = dict(curve)
        drop_to_three = inertia[2] - inertia[3]
        drop_to_four = inertia[3] - inertia[4]
        assert drop_to_three / max(drop_to_four, 1e-12) > 5.0

    def test_k_equals_n(self):
        points = np.array([[0.0], [1.0], [2.0]])
        curve = elbow(points, [3], seed=0, restarts=2)
        assert curve[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_k_one_total_deviation(self):
        points = self.blobs()
        curve = elbow(points, [1], seed=0, restarts=2)
        expected = ((points - points.mean(axis=0)) ** 2).sum()
        assert curve[0][1] == pytest.approx(expected, rel=1e-12)

    def test_non_increasing(self):
        points = self.blobs()
        curve = elbow(points, range(1, 11), seed=4, restarts=2)
        values = [v for _, v in curve]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-9

    def test_non_increasing_over_gapped_range(self):
        points = self.blobs()
        curve = elbow(points, [1, 3, 6, 10], seed=2, restarts=1)
        values = [v for _, v in curve]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-9

    def test_bad_range(self):
        with pytest.raises(ValidationError):
            elbow(self.blobs(), [0, 1], seed=0, restarts=1)
        with pytest.raises(ValidationError):
            elbow(self.blobs(), [], seed=0, restarts=1)
