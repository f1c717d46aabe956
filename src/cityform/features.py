"""Bearing histograms and city-by-feature matrix assembly.

Bearings of all directed links discretize into eighteen 20-degree bins.
The histogram is cyclically rotated so the fullest bin leads, which makes
the feature insensitive to a city's absolute compass orientation; the
count of dominant bins (share above a threshold, default 10%) summarizes
how concentrated the street directions are.

Feature matrices come in two layouts:

* baseline (9 columns): five out-degree proportions, median normalized
  betweenness, mean link length, network density, link-node ratio.
* enhanced (42 columns): baseline + 14 intersection-pattern proportions +
  18 rotated bearing bins + the dominant-bin count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, DegenerateGeometryError, ValidationError
from .geometry import OTHER_PATTERN, PATTERN_COLUMNS, link_bearing
from .graph import CityNetwork
from .topology import DEGREE_FEATURES

BIN_COUNT = 18
BIN_WIDTH_DEG = 360.0 / BIN_COUNT
DEFAULT_DOMINANT_THRESHOLD = 0.10

BASELINE_FEATURES = DEGREE_FEATURES + (
    "median_bc",
    "mean_link_length_m",
    "density_km_per_km2",
    "link_node_ratio",
)
# The features leave out the "other" pattern shares.
PATTERN_FEATURES = tuple(c for c in PATTERN_COLUMNS if not c.endswith(OTHER_PATTERN))
BEARING_BINS = tuple(f"bearing_bin_{i}" for i in range(1, BIN_COUNT + 1))
BEARING_FEATURES = BEARING_BINS + ("dominant_bin_count",)
ENHANCED_FEATURES = BASELINE_FEATURES + PATTERN_FEATURES + BEARING_FEATURES

# Each feature mode's columns, in features.csv order.
FEATURE_MODES = {"baseline": BASELINE_FEATURES, "enhanced": ENHANCED_FEATURES}

# Columns whose population standard deviation falls below this are constant.
_CONSTANT_STD_EPS = 1e-12


def feature_columns(mode: str) -> tuple[str, ...]:
    if mode not in FEATURE_MODES:
        raise ValidationError(f"unknown feature mode {mode!r}")
    return FEATURE_MODES[mode]


def check_dominant_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 1.0:
        raise ValidationError(f"dominant threshold must lie in (0, 1), got {threshold}")


def check_correlation_cities(n_cities: int) -> None:
    if n_cities < 3:
        raise ValidationError("correlation needs at least 3 cities")


def rotate_bins(proportions: Sequence[float]) -> tuple[tuple[float, ...], int]:
    """Cyclically rotate so the maximum proportion leads (ties: lowest index)."""
    props = list(proportions)
    if len(props) != BIN_COUNT:
        raise ValidationError(f"expected {BIN_COUNT} bins, got {len(props)}")
    offset = props.index(max(props))
    return tuple(props[offset:] + props[:offset]), offset


def bearing_histogram(
    city: CityNetwork, dominant_threshold: float = DEFAULT_DOMINANT_THRESHOLD
) -> dict[str, float]:
    """Histogram of every directed link's bearing in 20-degree bins.

    Keyed by ``BEARING_FEATURES``: the rotated proportions (bin 1 = the
    fullest bin), then the int ``dominant_bin_count``; ``rotation_offset``
    is the pre-rotation index that became bin 1. Links with no point
    distinct from their start node have no bearing and are left out.
    """
    check_dominant_threshold(dominant_threshold)
    counts = [0] * BIN_COUNT
    for link in city.graph.links:
        try:
            bearing = link_bearing(link, city.graph)
        except DegenerateGeometryError:
            continue
        counts[int(bearing // BIN_WIDTH_DEG) % BIN_COUNT] += 1
    total = sum(counts)
    proportions = [c / total if total else 0.0 for c in counts]
    rotated, offset = rotate_bins(proportions)
    dominant = sum(1 for p in proportions if p > dominant_threshold)
    values = dict(zip(BEARING_FEATURES, (*rotated, dominant), strict=True))
    return values | {"rotation_offset": offset}


@dataclass(frozen=True)
class FeatureMatrix:
    cities: tuple[str, ...]
    feature_names: tuple[str, ...]
    values: np.ndarray
    normalization: str = "none"
    constant_columns: tuple[str, ...] = ()


def assemble_features(
    cities: Sequence[str], rows: Sequence[Mapping[str, float]], mode: str = "baseline"
) -> FeatureMatrix:
    """Fixed-order cities x features matrix, unnormalized.

    ``rows`` holds one mapping from column name to value per city: the
    ``topo_metrics`` columns, plus the ``pattern_counts`` and
    ``bearing_histogram`` columns for the enhanced mode. Other keys are ignored.
    """
    names = feature_columns(mode)
    if not cities:
        raise DataError("empty corpus: no cities to assemble")
    if len(rows) != len(cities):
        raise ValidationError(f"{len(cities)} cities but {len(rows)} feature rows")
    values = []
    for city, row in zip(cities, rows):
        missing = [name for name in names if name not in row]
        if missing:
            raise DataError(f"city {city!r} is missing features: {', '.join(missing)}")
        values.append([row[name] for name in names])
    return FeatureMatrix(
        cities=tuple(cities), feature_names=names, values=np.array(values, dtype=float)
    )


def kept_features(columns: Sequence[str], drop: Sequence[str]) -> tuple[str, ...]:
    """``columns`` without ``drop``, each of which must be one of ``columns``."""
    unknown = [n for n in drop if n not in columns]
    if unknown:
        raise ValidationError(f"cannot drop unknown features: {unknown}")
    kept = tuple(n for n in columns if n not in drop)
    if not kept:
        raise ValidationError("cannot drop every feature")
    return kept


def drop_features(matrix: FeatureMatrix, names: Sequence[str]) -> FeatureMatrix:
    """Remove named columns (e.g. one of each pair correlated at |r| >= 0.9)."""
    kept = kept_features(matrix.feature_names, names)
    keep = [i for i, n in enumerate(matrix.feature_names) if n in kept]
    return FeatureMatrix(
        cities=matrix.cities,
        feature_names=kept,
        values=matrix.values[:, keep],
        normalization=matrix.normalization,
        constant_columns=tuple(n for n in matrix.constant_columns if n in kept),
    )


def zscore(matrix: FeatureMatrix) -> FeatureMatrix:
    """Standardize each column to mean 0, population standard deviation 1.

    Constant columns become all-zero and are flagged by name.
    """
    if matrix.normalization != "none":
        raise ValidationError("matrix is already normalized")
    if matrix.values.shape[0] < 2:
        raise ValidationError("z-score needs at least 2 cities")
    means = matrix.values.mean(axis=0)
    stds = matrix.values.std(axis=0)
    constant = stds < _CONSTANT_STD_EPS
    safe = np.where(constant, 1.0, stds)
    values = (matrix.values - means) / safe
    values[:, constant] = 0.0
    return FeatureMatrix(
        cities=matrix.cities,
        feature_names=matrix.feature_names,
        values=values,
        normalization="zscore",
        constant_columns=tuple(
            n for n, is_const in zip(matrix.feature_names, constant) if is_const
        ),
    )


def correlation_matrix(z: np.ndarray) -> np.ndarray:
    """Pearson correlations of z-scored columns (population moments).

    z-scoring leaves a constant column all zero; such a column correlates
    as 0 with every other column. The diagonal is exactly 1.
    """
    constant = ~z.any(axis=0)
    corr = (z.T @ z) / z.shape[0]
    corr[constant, :] = 0.0
    corr[:, constant] = 0.0
    np.fill_diagonal(corr, 1.0)
    return corr


def pearson_report(z: FeatureMatrix) -> np.ndarray:
    """Pearson correlation matrix of a z-scored feature matrix, clipped to [-1, 1]."""
    if z.normalization != "zscore":
        raise ValidationError("correlation requires a z-scored matrix")
    check_correlation_cities(z.values.shape[0])
    return np.clip(correlation_matrix(z.values), -1.0, 1.0)
