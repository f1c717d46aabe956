"""Characterize cities by their road-network structure.

Core pieces: a directed primal road graph with per-city clipping,
topological metrics (degree mix, weighted betweenness), intersection-angle
pattern codes for 3-way and 4-way crossings, bearing histograms, feature
assembly with factor extraction, and k-means typology clustering with
Silhouette / Davies-Bouldin evaluation.
"""

__version__ = "0.1.0"

from .clustering import ClusteringResult, davies_bouldin, elbow, kmeans, silhouette
from .errors import (
    CityformError,
    DataError,
    DegenerateGeometryError,
    EmptyCityError,
    ValidationError,
)
from .features import (
    BASELINE_FEATURES,
    ENHANCED_FEATURES,
    BearingHistogram,
    FeatureMatrix,
    assemble_features,
    bearing_histogram,
    bearing_values,
    drop_features,
    pearson_report,
    rotate_bins,
    zscore,
)
from .geometry import (
    NodePattern,
    categorize,
    classify_pattern,
    link_bearing,
    node_angles,
    node_patterns,
    outgoing_ray,
    pattern_counts,
)
from .graph import (
    CityBoundary,
    CityNetwork,
    GeoPoint,
    RoadGraph,
    RoadLink,
    RoadNode,
    boundary_area_km2,
    clip_to_city,
    load_boundaries,
    load_graph,
    make_boundary,
    point_in_polygon,
    polyline_length_m,
)
from .reduction import FactorModel, extract_factors
from .synth import ArchetypeSpec, city_boundary, generate
from .topology import (
    betweenness,
    degree_profile,
    geometric_summaries,
    topo_metrics,
)

__all__ = [
    "__version__",
    "ArchetypeSpec",
    "BASELINE_FEATURES",
    "BearingHistogram",
    "CityBoundary",
    "CityNetwork",
    "CityformError",
    "ClusteringResult",
    "DataError",
    "DegenerateGeometryError",
    "ENHANCED_FEATURES",
    "EmptyCityError",
    "FactorModel",
    "FeatureMatrix",
    "GeoPoint",
    "NodePattern",
    "RoadGraph",
    "RoadLink",
    "RoadNode",
    "ValidationError",
    "assemble_features",
    "bearing_histogram",
    "bearing_values",
    "betweenness",
    "boundary_area_km2",
    "categorize",
    "city_boundary",
    "classify_pattern",
    "clip_to_city",
    "davies_bouldin",
    "degree_profile",
    "drop_features",
    "elbow",
    "extract_factors",
    "generate",
    "geometric_summaries",
    "kmeans",
    "link_bearing",
    "load_boundaries",
    "load_graph",
    "make_boundary",
    "node_angles",
    "node_patterns",
    "outgoing_ray",
    "pattern_counts",
    "pearson_report",
    "point_in_polygon",
    "polyline_length_m",
    "rotate_bins",
    "silhouette",
    "topo_metrics",
    "zscore",
]
