"""Bearing histograms, feature assembly, z-scoring, and Pearson screening."""

import math
import random

import numpy as np
import pytest

from cityform.errors import DataError, ValidationError
from cityform.features import (
    BASELINE_FEATURES,
    BEARING_BINS,
    BEARING_FEATURES,
    ENHANCED_FEATURES,
    FeatureMatrix,
    assemble_features,
    bearing_histogram,
    drop_features,
    pearson_report,
    rotate_bins,
    zscore,
)
from cityform.geometry import pattern_counts
from cityform.synth import ArchetypeSpec, generate
from cityform.topology import topo_metrics

from helpers import make_city, make_grid_city, rotate_city


def bins(hist):
    return [hist[name] for name in BEARING_BINS]


def row_for(city, mode="enhanced"):
    row = topo_metrics(city)
    if mode == "enhanced":
        row.update(pattern_counts(city), **bearing_histogram(city))
    return row


class TestRotateBins:
    def test_example_rotation(self):
        pre = [0.05, 0.40, 0.05, 0.50] + [0.0] * 14
        rotated, offset = rotate_bins(pre)
        assert offset == 3
        assert rotated[0] == 0.50
        assert rotated[15:] == (0.05, 0.40, 0.05)
        assert all(v == 0.0 for v in rotated[1:15])

    def test_tie_breaks_to_lowest_index(self):
        pre = [0.0, 0.5, 0.0, 0.5] + [0.0] * 14
        _, offset = rotate_bins(pre)
        assert offset == 1

    def test_wrong_bin_count_rejected(self):
        with pytest.raises(ValidationError):
            rotate_bins([1.0] * 17)


class TestBearingHistogram:
    def test_north_south_street(self):
        city = make_city(
            {"A": (0, 0), "B": (0, 100)}, [("A", "B"), ("B", "A")]
        )
        hist = bearing_histogram(city)
        assert hist["dominant_bin_count"] == 2
        assert hist["bearing_bin_1"] == 0.5
        assert sum(bins(hist)) == pytest.approx(1.0, abs=1e-12)

    def test_axis_aligned_grid_has_four_quarter_bins(self):
        hist = bearing_histogram(make_grid_city(10, 10, 100.0))
        populated = [b for b in bins(hist) if b > 0]
        assert len(populated) == 4
        assert all(b == pytest.approx(0.25) for b in populated)
        assert hist["dominant_bin_count"] == 4

    def test_keys_are_the_bearing_features_and_the_offset(self):
        hist = bearing_histogram(make_grid_city(4, 4, 100.0))
        assert list(hist) == [*BEARING_FEATURES, "rotation_offset"]
        assert type(hist["dominant_bin_count"]) is int
        assert type(hist["rotation_offset"]) is int

    def test_link_without_direction_is_left_out(self):
        street = {"A": (0, 0), "B": (0, 100)}, [("A", "B"), ("B", "A")]
        # C sits on A: the links between them have no bearing.
        twin = {**street[0], "C": (0, 0)}, street[1] + [("A", "C", (), 5.0), ("C", "A", (), 5.0)]
        assert bearing_histogram(make_city(*twin)) == bearing_histogram(make_city(*street))

    def test_zero_link_city(self):
        hist = bearing_histogram(make_city({"A": (0, 0)}, []))
        assert bins(hist) == [0.0] * 18
        assert hist["dominant_bin_count"] == 0
        assert hist["rotation_offset"] == 0

    def test_dominant_threshold_is_strict(self):
        # Ten equal directions at exactly 10% each: none dominate.
        nodes = {"o": (0.0, 0.0)}
        links = []
        for i in range(10):
            rad = math.radians(i * 36.0 + 3.0)
            nodes[f"t{i}"] = (10 * math.cos(rad), 10 * math.sin(rad))
            links.append(("o", f"t{i}"))
        hist = bearing_histogram(make_city(nodes, links))
        assert hist["dominant_bin_count"] == 0

    def test_rotation_by_two_bins_is_invisible(self):
        for kind, rate, jitter in (("organic", 0.4, 0.0), ("gridded", 0.2, 0.05)):
            city = generate(
                ArchetypeSpec(kind=kind, size=90, spacing=100.0, jitter=jitter, dead_end_rate=rate, seed=21)
            )
            base = bearing_histogram(city)
            turned = bearing_histogram(rotate_city(city, 40.0))
            assert turned["dominant_bin_count"] == base["dominant_bin_count"]
            for x, y in zip(bins(base), bins(turned)):
                assert abs(x - y) <= 1e-9

    def test_dominant_count_invariant_under_any_cyclic_shift(self):
        rng = random.Random(4)
        raw = [rng.random() for _ in range(18)]
        total = sum(raw)
        props = [v / total for v in raw]
        rotated, _ = rotate_bins(props)
        count = sum(1 for p in props if p > 0.10)
        assert sum(1 for p in rotated if p > 0.10) == count


class TestAssemble:
    def cities(self, n=3):
        out = []
        for i in range(n):
            out.append(make_grid_city(4 + i, 4, 100.0))
        return out

    def rows(self, mode="enhanced"):
        cities = self.cities()
        return [c.city_name for c in cities], [row_for(c, mode) for c in cities]

    def test_baseline_shape(self):
        matrix = assemble_features(*self.rows("baseline"), "baseline")
        assert matrix.values.shape == (3, 9)
        assert matrix.feature_names == BASELINE_FEATURES

    def test_enhanced_shape(self):
        matrix = assemble_features(*self.rows(), "enhanced")
        assert matrix.values.shape == (3, 42)
        assert matrix.feature_names == ENHANCED_FEATURES

    def test_empty_corpus(self):
        with pytest.raises(DataError, match="empty corpus"):
            assemble_features([], [], "baseline")

    def test_more_rows_than_cities(self):
        names, rows = self.rows("baseline")
        with pytest.raises(ValidationError, match="2 cities but 3 feature rows"):
            assemble_features(names[:2], rows, "baseline")

    def test_missing_metric_names_city(self):
        with pytest.raises(DataError, match="grid4x4"):
            assemble_features(*self.rows("baseline"), "enhanced")

    def test_drop_features(self):
        matrix = assemble_features(*self.rows("baseline"), "baseline")
        smaller = drop_features(matrix, ["median_bc"])
        assert "median_bc" not in smaller.feature_names
        assert smaller.values.shape == (3, 8)
        with pytest.raises(ValidationError):
            drop_features(matrix, ["nope"])

    def test_column_order_is_deterministic(self):
        names, rows = self.rows()
        a = assemble_features(names, rows, "enhanced")
        b = assemble_features(names, rows, "enhanced")
        assert a.feature_names == b.feature_names
        assert np.array_equal(a.values, b.values)


class TestZscore:
    def matrix(self, columns):
        arr = np.array(columns, dtype=float).T
        names = tuple(f"f{i}" for i in range(arr.shape[1]))
        cities = tuple(f"c{i}" for i in range(arr.shape[0]))
        return FeatureMatrix(cities, names, arr)

    def test_two_point_column(self):
        out = zscore(self.matrix([[0.0, 10.0]]))
        assert out.values[:, 0] == pytest.approx([-1.0, 1.0])

    def test_constant_column_zeroed_and_flagged(self):
        out = zscore(self.matrix([[5.0, 5.0, 5.0]]))
        assert out.values[:, 0] == pytest.approx([0.0, 0.0, 0.0])
        assert out.constant_columns == ("f0",)

    def test_drop_keeps_flags_of_remaining_columns(self):
        z = zscore(self.matrix([[5.0, 5.0, 5.0], [1.0, 2.0, 3.0], [7.0, 7.0, 7.0]]))
        assert z.constant_columns == ("f0", "f2")
        assert drop_features(z, ["f1"]).constant_columns == ("f0", "f2")
        assert drop_features(z, ["f0"]).constant_columns == ("f2",)

    def test_population_standard_deviation(self):
        out = zscore(self.matrix([[1.0, 2.0, 3.0]]))
        assert out.values[:, 0] == pytest.approx([-1.2247, 0.0, 1.2247], abs=1e-4)

    def test_requires_two_rows(self):
        with pytest.raises(ValidationError):
            zscore(self.matrix([[1.0]]))

    def test_column_statistics(self):
        rng = np.random.default_rng(8)
        matrix = FeatureMatrix(
            tuple(f"c{i}" for i in range(20)),
            tuple(f"f{i}" for i in range(5)),
            rng.normal(3.0, 2.5, size=(20, 5)),
        )
        out = zscore(matrix)
        assert np.allclose(out.values.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(out.values.std(axis=0), 1.0, atol=1e-9)

    def test_double_normalization_rejected(self):
        once = zscore(self.matrix([[0.0, 10.0]]))
        with pytest.raises(ValidationError):
            zscore(once)


class TestPearson:
    def matrix(self, columns):
        arr = np.array(columns, dtype=float).T
        names = tuple(f"f{i}" for i in range(arr.shape[1]))
        cities = tuple(f"c{i}" for i in range(arr.shape[0]))
        return FeatureMatrix(cities, names, arr)

    def test_identical_columns(self):
        corr = pearson_report(zscore(self.matrix([[1, 2, 3, 4], [1, 2, 3, 4]])))
        assert corr[0, 1] == pytest.approx(1.0)

    def test_negated_column(self):
        corr = pearson_report(zscore(self.matrix([[1, 2, 3], [-1, -2, -3]])))
        assert corr[0, 1] == pytest.approx(-1.0)

    def test_hand_oracle_value(self):
        x, y = [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 2.0, 4.0]
        n = 4
        mx, my = sum(x) / n, sum(y) / n
        cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
        sx = math.sqrt(sum((a - mx) ** 2 for a in x) / n)
        sy = math.sqrt(sum((b - my) ** 2 for b in y) / n)
        expected = cov / (sx * sy)
        corr = pearson_report(zscore(self.matrix([x, y])))
        assert corr[0, 1] == pytest.approx(expected, abs=1e-12)
        assert corr[0, 1] == pytest.approx(0.9234, abs=1e-3)

    def test_constant_column_reports_zero(self):
        corr = pearson_report(zscore(self.matrix([[1, 2, 3], [7, 7, 7]])))
        assert corr[0, 1] == 0.0
        assert corr[1, 1] == 1.0

    def test_symmetric_unit_diagonal_bounded(self):
        rng = np.random.default_rng(3)
        matrix = self.matrix([list(rng.normal(size=10)) for _ in range(4)])
        corr = pearson_report(zscore(matrix))
        assert np.allclose(corr, corr.T)
        assert np.allclose(np.diag(corr), 1.0)
        assert np.all(np.abs(corr) <= 1.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        raw = self.matrix([list(rng.normal(size=12)) for _ in range(4)])
        normalized = zscore(raw)
        r1 = pearson_report(zscore(raw))
        r2 = pearson_report(
            zscore(FeatureMatrix(raw.cities, raw.feature_names, normalized.values))
        )
        assert np.allclose(r1, r2, atol=1e-9)

    def test_needs_three_rows(self):
        with pytest.raises(ValidationError):
            pearson_report(zscore(self.matrix([[1, 2], [3, 4]])))

    def test_requires_zscored_input(self):
        with pytest.raises(ValidationError, match="z-scored"):
            pearson_report(self.matrix([[1, 2, 3], [3, 1, 2]]))
