"""K-means fitting, evaluation indices, and the elbow curve."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cityform import clustering
from cityform.clustering import davies_bouldin, elbow, kmeans, silhouette
from cityform.errors import ValidationError

from helpers import adjusted_rand_index, davies_bouldin_oracle, silhouette_oracle

FOUR_POINTS = np.array([[0.0], [1.0], [10.0], [11.0]])
NATURAL = np.array([0, 0, 1, 1])
# Three tight triples plus three stray points: k = 4 has several local optima.
TWELVE_POINTS = np.array(
    [[0.0, 0], [1, 0], [0, 1], [5, 5], [6, 5], [5, 6], [10, 0], [11, 0], [10, 1], [3, 8], [8, 8], [2, 2]]
)


def restart_fit(points, k, seed, restarts):
    """The restarts alone: the lowest-inertia Lloyd fit from ``restarts`` k-means++
    seedings drawn from one ``random.Random(seed)``, numbered by first point."""
    rng = random.Random(seed)
    seedings = [clustering._kmeans_pp_init(points, k, rng) for _ in range(restarts)]
    labels, _, inertia, _ = min((clustering._lloyd(points, c) for c in seedings), key=lambda fit: fit[2])
    firsts = list(dict.fromkeys(labels.tolist()))
    return [firsts.index(label) for label in labels.tolist()], inertia


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

    def test_negative_seed_rejected(self):
        # random.Random seeds with |seed|: -1 would silently repeat seed 1.
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            kmeans(FOUR_POINTS, 2, seed=-1, restarts=1)
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            elbow(FOUR_POINTS, (1, 2), seed=-1, restarts=1)

    def test_one_dimensional_scores_are_one_column(self):
        flat = kmeans(FOUR_POINTS[:, 0], 2, seed=0, restarts=1)
        column = kmeans(FOUR_POINTS, 2, seed=0, restarts=1)
        assert np.array_equal(flat.labels, NATURAL)
        assert np.array_equal(flat.centroids, column.centroids)

    @pytest.mark.parametrize(
        "scores, message",
        [
            (np.empty((0, 2)), "scores must be a non-empty 2-D array"),
            (np.empty((3, 0)), "scores must be a non-empty 2-D array"),
            (np.zeros((2, 2, 2)), "scores must be a non-empty 2-D array"),
            ([[0.0, 1.0], [math.nan, 1.0]], "scores contain non-finite values"),
            ([[0.0, 1.0], [math.inf, 1.0]], "scores contain non-finite values"),
        ],
        ids=["no-rows", "no-columns", "3-d", "nan", "inf"],
    )
    def test_bad_scores_rejected(self, scores, message):
        with pytest.raises(ValidationError, match=message):
            kmeans(scores, 1, seed=0, restarts=1)

    def test_numpy_integer_seed(self):
        a = kmeans(TWELVE_POINTS, 4, seed=np.int64(2), restarts=1)
        b = kmeans(TWELVE_POINTS, 4, seed=2, restarts=1)
        assert np.array_equal(a.labels, b.labels) and a.inertia == b.inertia

    @pytest.mark.parametrize(
        "seed, labels, inertia",
        [
            (0, [0, 0, 0, 1, 1, 1, 2, 2, 2, 1, 3, 0], 17.583333333333336),
            (2, [0, 0, 0, 1, 1, 1, 2, 2, 2, 1, 1, 3], 25.066666666666666),
            (4, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 1, 0], 18.833333333333332),
        ],
    )
    def test_seeding_stream_is_pinned(self, seed, labels, inertia):
        # One restart, so each seed's own k-means++ draws decide the local
        # optimum: these values pin the seeding stream and the greedy choice.
        assert restart_fit(TWELVE_POINTS, 4, seed, 1) == (labels, pytest.approx(inertia, rel=1e-12))
        # The warm start from k = 3 can only improve on it.
        assert kmeans(TWELVE_POINTS, 4, seed=seed, restarts=1).inertia <= inertia

    def test_clusters_numbered_by_first_point(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(40, 2))
        for seed in range(5):
            labels = kmeans(points, 5, seed=seed, restarts=2).labels.tolist()
            firsts = [labels.index(cid) for cid in range(5)]
            assert firsts == sorted(firsts)

    def test_same_partition_gives_same_labels_and_centroids(self):
        # Every seed finds the two tight pairs; the numbering no longer
        # depends on which pair the seeding reached first.
        fits = [kmeans(FOUR_POINTS, 2, seed=seed, restarts=1) for seed in range(8)]
        for fit in fits:
            assert fit.labels.tolist() == [0, 0, 1, 1]
            assert fit.centroids.ravel().tolist() == [0.5, 10.5]

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
        curve = elbow(points, (1, 5), seed=0, restarts=5)
        inertia = dict(curve)
        drop_to_three = inertia[2] - inertia[3]
        drop_to_four = inertia[3] - inertia[4]
        assert drop_to_three / max(drop_to_four, 1e-12) > 5.0

    def test_k_equals_n(self):
        points = np.array([[0.0], [1.0], [2.0]])
        curve = elbow(points, (3, 3), seed=0, restarts=2)
        assert curve[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_k_one_total_deviation(self):
        points = self.blobs()
        curve = elbow(points, (1, 1), seed=0, restarts=2)
        expected = ((points - points.mean(axis=0)) ** 2).sum()
        assert curve[0][1] == pytest.approx(expected, rel=1e-12)

    def test_non_increasing(self):
        points = self.blobs()
        curve = elbow(points, (1, 10), seed=4, restarts=2)
        values = [v for _, v in curve]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-9

    def test_range_from_three_is_the_kmeans_fits(self):
        # The path still starts at k = 1, so each row is the fit kmeans makes.
        points = self.blobs()
        curve = elbow(points, (3, 6), seed=2, restarts=1)
        assert [k for k, _ in curve] == [3, 4, 5, 6]
        for k, inertia in curve:
            assert inertia == kmeans(points, k, seed=2, restarts=1).inertia
        values = [v for _, v in curve]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-9

    def test_range_is_cut_at_the_point_count(self):
        assert [k for k, _ in elbow(FOUR_POINTS, (2, 99), seed=0, restarts=1)] == [2, 3, 4]

    def test_no_range_is_one_to_ten_at_most(self):
        assert [k for k, _ in elbow(self.blobs(), seed=0, restarts=1)] == list(range(1, 11))
        assert [k for k, _ in elbow(FOUR_POINTS, None, seed=0, restarts=1)] == [1, 2, 3, 4]

    @given(
        st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), min_size=2, max_size=10),
        st.integers(0, 50),
        st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_at_k_is_the_kmeans_fit_at_k(self, rows, seed, restarts):
        # Integer coordinates make duplicate points and tied distances common.
        points = np.array(rows, dtype=float)
        for k, inertia in elbow(points, (1, len(points)), seed=seed, restarts=restarts):
            assert inertia == kmeans(points, k, seed=seed, restarts=restarts).inertia
            assert inertia <= restart_fit(points, k, seed, restarts)[1]

    def test_bad_range(self):
        # The message of --k-range: A..B needs 1 <= A <= min(B, n).
        with pytest.raises(ValidationError, match=r"needs 1 <= A <= min\(B, 30 cities\), got \(0, 1\)"):
            elbow(self.blobs(), (0, 1), seed=0, restarts=1)
        with pytest.raises(ValidationError, match=r"got \(3, 2\)"):
            elbow(self.blobs(), (3, 2), seed=0, restarts=1)
        with pytest.raises(ValidationError, match=r"got \(31, 40\)"):
            elbow(self.blobs(), (31, 40), seed=0, restarts=1)

    @pytest.mark.parametrize("k_range", [range(1, 6), (1, 2, 3), [1, 3], (1.0, 3), (1,)])
    def test_range_that_is_not_a_pair_of_ints(self, k_range):
        # An iterable of k values, the old signature, is refused, not unpacked;
        # a list [1, 3] is neither read as 1..3 nor as k in {1, 3}.
        with pytest.raises(ValidationError, match=r"k range must be None or a pair \(A, B\) of ints, got "):
            elbow(self.blobs(), k_range, seed=0, restarts=1)
