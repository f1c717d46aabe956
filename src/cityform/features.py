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
from operator import attrgetter
from typing import Sequence

import numpy as np

from .errors import DataError, ValidationError
from .geometry import OTHER_PATTERN, PATTERN_TYPES, PatternCounts, link_bearing
from .graph import CityNetwork
from .topology import DEGREE_CLASSES, TopoMetrics

BIN_COUNT = 18
BIN_WIDTH_DEG = 360.0 / BIN_COUNT
DEFAULT_DOMINANT_THRESHOLD = 0.10

DEGREE_FEATURES = tuple(f"prop_deg{c}".replace("5+", "5plus") for c in DEGREE_CLASSES)
# metrics.csv columns after the degree shares, each with its TopoMetrics
# attribute path; the baseline features reorder a subset.
_METRIC_ATTRS = {
    "median_bc": "centrality.median_normalized_bc",
    "link_node_ratio": "geometry.link_node_ratio",
    "density_km_per_km2": "geometry.network_density_km_per_km2",
    "mean_link_length_m": "geometry.mean_link_length_m",
    "pct_in_ne_out": "degree_profile.pct_nodes_in_ne_out",
}
METRIC_COLUMNS = DEGREE_FEATURES + tuple(_METRIC_ATTRS)
BASELINE_FEATURES = DEGREE_FEATURES + (
    "median_bc",
    "mean_link_length_m",
    "density_km_per_km2",
    "link_node_ratio",
)


def _pattern_column(degree: int, code: str) -> str:
    return f"d{degree}_{code}" if code == OTHER_PATTERN else f"d{degree}_t{code}"


_PATTERN_CODES = PATTERN_TYPES + (OTHER_PATTERN,)
# Column order of patterns.csv; the features leave out the "other" shares.
PATTERN_COLUMNS = tuple(_pattern_column(d, code) for d in (3, 4) for code in _PATTERN_CODES)
PATTERN_FEATURES = tuple(c for c in PATTERN_COLUMNS if not c.endswith(OTHER_PATTERN))
BEARING_FEATURES = tuple(f"bearing_bin_{i}" for i in range(1, BIN_COUNT + 1)) + (
    "dominant_bin_count",
)
ENHANCED_FEATURES = BASELINE_FEATURES + PATTERN_FEATURES + BEARING_FEATURES

FEATURE_MODES = ("baseline", "enhanced")

# Columns whose population standard deviation falls below this are constant.
_CONSTANT_STD_EPS = 1e-12


@dataclass(frozen=True)
class BearingHistogram:
    """Rotated 18-bin histogram of directed link bearings.

    ``bins`` holds the rotated proportions (bin 1 = the fullest bin);
    ``rotation_offset`` is the pre-rotation index that became bin 1.
    """

    bins: tuple[float, ...]
    rotation_offset: int
    dominant_bin_count: int


def rotate_bins(proportions: Sequence[float]) -> tuple[tuple[float, ...], int]:
    """Cyclically rotate so the maximum proportion leads (ties: lowest index)."""
    props = list(proportions)
    if len(props) != BIN_COUNT:
        raise ValidationError(f"expected {BIN_COUNT} bins, got {len(props)}")
    offset = props.index(max(props))
    return tuple(props[offset:] + props[:offset]), offset


def bearing_histogram(
    city: CityNetwork, dominant_threshold: float = DEFAULT_DOMINANT_THRESHOLD
) -> BearingHistogram:
    """Histogram of every directed link's bearing in 20-degree bins."""
    if not 0.0 < dominant_threshold < 1.0:
        raise ValidationError(
            f"dominant threshold must lie in (0, 1), got {dominant_threshold}"
        )
    counts = [0] * BIN_COUNT
    for link in city.graph.links:
        bearing = link_bearing(link, city.graph)
        counts[int(bearing // BIN_WIDTH_DEG) % BIN_COUNT] += 1
    total = sum(counts)
    if total == 0:
        return BearingHistogram(bins=(0.0,) * BIN_COUNT, rotation_offset=0, dominant_bin_count=0)
    proportions = [c / total for c in counts]
    rotated, offset = rotate_bins(proportions)
    dominant = sum(1 for p in proportions if p > dominant_threshold)
    return BearingHistogram(bins=rotated, rotation_offset=offset, dominant_bin_count=dominant)


@dataclass(frozen=True)
class CityMetrics:
    """Everything one city contributes to the feature matrix."""

    city_name: str
    topo: TopoMetrics
    patterns: PatternCounts | None = None
    bearings: BearingHistogram | None = None


@dataclass(frozen=True)
class FeatureMatrix:
    cities: tuple[str, ...]
    feature_names: tuple[str, ...]
    values: np.ndarray
    normalization: str = "none"
    constant_columns: tuple[str, ...] = ()


def metric_values(topo: TopoMetrics) -> dict[str, float]:
    """One city's topological metrics keyed by their ``METRIC_COLUMNS`` name."""
    shares = topo.degree_profile.proportions_out
    values = {name: shares[c] for name, c in zip(DEGREE_FEATURES, DEGREE_CLASSES)}
    values.update((name, attrgetter(path)(topo)) for name, path in _METRIC_ATTRS.items())
    return values


def pattern_values(counts: PatternCounts) -> dict[str, float]:
    """One city's pattern shares keyed by their ``PATTERN_COLUMNS`` name."""
    props = {3: counts.d3_props, 4: counts.d4_props}
    return {_pattern_column(d, code): props[d][code] for d in (3, 4) for code in _PATTERN_CODES}


def assemble_features(bundles: Sequence[CityMetrics], mode: str = "baseline") -> FeatureMatrix:
    """Fixed-order cities x features matrix, unnormalized."""
    if mode not in FEATURE_MODES:
        raise ValidationError(f"unknown feature mode {mode!r}")
    if not bundles:
        raise DataError("empty corpus: no cities to assemble")
    rows = []
    for bundle in bundles:
        if bundle.topo is None:
            raise DataError(f"city {bundle.city_name!r} is missing topology metrics")
        metrics = metric_values(bundle.topo)
        row = [metrics[name] for name in BASELINE_FEATURES]
        if mode == "enhanced":
            if bundle.patterns is None:
                raise DataError(f"city {bundle.city_name!r} is missing pattern counts")
            if bundle.bearings is None:
                raise DataError(f"city {bundle.city_name!r} is missing a bearing histogram")
            patterns = pattern_values(bundle.patterns)
            row += [patterns[name] for name in PATTERN_FEATURES]
            row += list(bundle.bearings.bins)
            row.append(float(bundle.bearings.dominant_bin_count))
        rows.append(row)
    names = BASELINE_FEATURES if mode == "baseline" else ENHANCED_FEATURES
    return FeatureMatrix(
        cities=tuple(b.city_name for b in bundles),
        feature_names=names,
        values=np.array(rows, dtype=float),
    )


def drop_features(matrix: FeatureMatrix, names: Sequence[str]) -> FeatureMatrix:
    """Remove named columns (e.g. one of each pair correlated at |r| >= 0.9)."""
    unknown = [n for n in names if n not in matrix.feature_names]
    if unknown:
        raise ValidationError(f"cannot drop unknown features: {unknown}")
    keep = [i for i, n in enumerate(matrix.feature_names) if n not in set(names)]
    if not keep:
        raise ValidationError("cannot drop every feature")
    return FeatureMatrix(
        cities=matrix.cities,
        feature_names=tuple(matrix.feature_names[i] for i in keep),
        values=matrix.values[:, keep],
        normalization=matrix.normalization,
        constant_columns=tuple(n for n in matrix.constant_columns if n not in names),
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
    if z.values.shape[0] < 3:
        raise ValidationError("correlation needs at least 3 cities")
    return np.clip(correlation_matrix(z.values), -1.0, 1.0)
