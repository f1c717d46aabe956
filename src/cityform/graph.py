"""Directed primal road graph: types, file ingestion, and per-city clipping.

Nodes are intersections or dead ends; links are directed street segments
that may carry intermediate shape points describing curvature. Two
coordinate modes exist and apply to a whole graph:

* ``geographic``: x = longitude, y = latitude (WGS84 degrees). Distances
  use the haversine formula; polygon areas use a spherical-excess formula.
* ``planar``: x, y in meters. Distances are Euclidean; areas use the
  shoelace formula.

Boundary rings are stored *open* (no repeated closing vertex) and treated
as implicitly closed. The GeoJSON loader strips a closing duplicate when
present.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import DataError, EmptyCityError, ValidationError

# Sphere radius such that one degree of longitude on the equator measures
# the conventional 111.32 km.
EARTH_RADIUS_M = 6378137.0

MODES = ("geographic", "planar")

# Tolerance, in coordinate units, for "point lies on the boundary" tests.
_ON_BOUNDARY_EPS = 1e-9


def check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValidationError(f"unknown coordinate mode: {mode!r}")


class GeoPoint(NamedTuple):
    x: float
    y: float


def validate_point(p: GeoPoint, mode: str) -> None:
    """Reject non-finite coordinates, and out-of-range lon/lat in geographic mode."""
    if not (math.isfinite(p.x) and math.isfinite(p.y)):
        raise DataError(f"non-finite coordinate: {p}")
    if mode == "geographic" and not (-180.0 <= p.x <= 180.0 and -90.0 <= p.y <= 90.0):
        raise DataError(f"coordinate out of lon/lat range: {p}")


def point_distance_m(a: GeoPoint, b: GeoPoint, mode: str) -> float:
    """Distance between two points in meters (haversine or Euclidean per mode)."""
    if mode == "planar":
        return math.hypot(b.x - a.x, b.y - a.y)
    lon1, lat1 = math.radians(a.x), math.radians(a.y)
    lon2, lat2 = math.radians(b.x), math.radians(b.y)
    sin_dlat = math.sin((lat2 - lat1) / 2.0)
    sin_dlon = math.sin((lon2 - lon1) / 2.0)
    h = sin_dlat * sin_dlat + math.cos(lat1) * math.cos(lat2) * sin_dlon * sin_dlon
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def polyline_length_m(points: Iterable[GeoPoint], mode: str) -> float:
    """Sum of consecutive segment distances along a polyline."""
    pts = list(points)
    return sum(point_distance_m(pts[i], pts[i + 1], mode) for i in range(len(pts) - 1))


# Slotted: a graph holds one of each per node and per link.
@dataclass(frozen=True, slots=True)
class RoadNode:
    id: str
    location: GeoPoint


@dataclass(frozen=True, slots=True)
class RoadLink:
    id: str
    from_node: str
    to_node: str
    shape_points: tuple[GeoPoint, ...]
    length_m: float


class RoadGraph:
    """Validated directed primal graph. Treat as immutable after construction.

    Parallel links are allowed, but node ids and link ids are unique and
    self-loops are refused. Every link endpoint must resolve to a node and
    every length must be positive. In geographic mode no node lies at a pole.
    """

    def __init__(self, nodes: Iterable[RoadNode], links: Iterable[RoadLink], mode: str):
        check_mode(mode)
        self.mode = mode
        self.nodes: dict[str, RoadNode] = {}
        for node in nodes:
            if node.id in self.nodes:
                raise DataError(f"duplicate node id: {node.id!r}")
            validate_point(node.location, mode)
            # East offsets scale by cos(latitude), so a pole has no directions.
            if mode == "geographic" and abs(node.location.y) == 90.0:
                raise DataError(f"node {node.id!r} lies at a pole (latitude {node.location.y})")
            self.nodes[node.id] = node
        self.links: tuple[RoadLink, ...] = tuple(links)
        self._out: dict[str, list[RoadLink]] = {nid: [] for nid in self.nodes}
        self._in_degree: dict[str, int] = {nid: 0 for nid in self.nodes}
        link_ids: set[str] = set()
        for link in self.links:
            if link.id in link_ids:
                raise DataError(f"duplicate link id: {link.id!r}")
            link_ids.add(link.id)
            for endpoint in (link.from_node, link.to_node):
                if endpoint not in self.nodes:
                    raise DataError(
                        f"link {link.id!r} references missing node {endpoint!r}"
                    )
            if link.from_node == link.to_node:
                raise DataError(f"link {link.id!r} is a self-loop at {link.from_node!r}")
            if not (math.isfinite(link.length_m) and link.length_m > 0):
                raise DataError(f"link {link.id!r} has non-positive length {link.length_m}")
            for p in link.shape_points:
                validate_point(p, mode)
            self._out[link.from_node].append(link)
            self._in_degree[link.to_node] += 1

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def link_count(self) -> int:
        return len(self.links)

    @cached_property
    def node_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """Node x and y coordinates as float64 arrays, in node order."""
        xs = np.fromiter((n.location.x for n in self.nodes.values()), float, self.node_count)
        ys = np.fromiter((n.location.y for n in self.nodes.values()), float, self.node_count)
        return xs, ys

    def out_links(self, node_id: str) -> list[RoadLink]:
        return self._out[node_id]

    def out_degree(self, node_id: str) -> int:
        return len(self._out[node_id])

    def in_degree(self, node_id: str) -> int:
        return self._in_degree[node_id]


Ring = tuple[GeoPoint, ...]


@dataclass(frozen=True)
class CityBoundary:
    """One named boundary: a list of polygons, each (exterior, *holes)."""

    city_name: str
    polygons: tuple[tuple[Ring, ...], ...]

    def rings(self) -> Iterable[Ring]:
        for polygon in self.polygons:
            yield from polygon


def _coordinate(value, name: str) -> float:
    # GeoJSON coordinates are numbers; a bool is an int in Python but not one.
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DataError(
            f"boundary ring for {name!r} has a coordinate of type {type(value).__name__}"
        )
    value = float(value)
    if not math.isfinite(value):
        raise DataError(f"boundary ring for {name!r} has a non-finite vertex")
    return value


def _validated_ring(raw: Iterable[tuple[float, ...]], name: str) -> Ring:
    # A GeoJSON position may carry an altitude after x and y. Every member
    # must be a finite number; the altitude is then ignored.
    positions = ([_coordinate(c, name) for c in position] for position in raw)
    pts = [GeoPoint(x, y) for x, y, *_ in positions]
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts = pts[:-1]
    if len(pts) < 3:
        raise DataError(f"boundary ring for {name!r} has fewer than 3 distinct vertices")
    return tuple(pts)


def make_boundary(
    city_name: str, polygons: Iterable[Iterable[Iterable[tuple[float, float]]]]
) -> CityBoundary:
    """Build a validated CityBoundary from nested (polygon, ring, vertex) data."""
    validated = tuple(
        tuple(_validated_ring(ring, city_name) for ring in polygon) for polygon in polygons
    )
    if not validated or any(len(polygon) == 0 for polygon in validated):
        raise DataError(f"boundary for {city_name!r} has no rings")
    return CityBoundary(city_name, validated)


@dataclass(frozen=True)
class CityNetwork:
    """A road graph clipped to one city, with the boundary-derived area."""

    city_name: str
    graph: RoadGraph
    area_km2: float

    @property
    def is_empty(self) -> bool:
        return self.graph.node_count == 0


# ---------------------------------------------------------------------------
# Areas
# ---------------------------------------------------------------------------


def _ring_area_planar_m2(ring: Ring) -> float:
    total = 0.0
    n = len(ring)
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return abs(total) / 2.0


def _ring_area_spherical_m2(ring: Ring) -> float:
    # Spherical-excess approximation over great-ellipse trapezoids.
    total = 0.0
    n = len(ring)
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        total += math.radians(b.x - a.x) * (
            2.0 + math.sin(math.radians(a.y)) + math.sin(math.radians(b.y))
        )
    return abs(total) * EARTH_RADIUS_M * EARTH_RADIUS_M / 2.0


def boundary_area_km2(boundary: CityBoundary, mode: str) -> float:
    """Polygon area in km^2: exterior rings minus holes, floored at zero."""
    ring_area = _ring_area_planar_m2 if mode == "planar" else _ring_area_spherical_m2
    total_m2 = 0.0
    for polygon in boundary.polygons:
        total_m2 += ring_area(polygon[0])
        for hole in polygon[1:]:
            total_m2 -= ring_area(hole)
    return max(total_m2, 0.0) / 1e6


# ---------------------------------------------------------------------------
# Clipping
# ---------------------------------------------------------------------------


def _inside_indices(xs: np.ndarray, ys: np.ndarray, boundary: CityBoundary) -> np.ndarray:
    """Ascending indices of the points inside or on the boundary.

    Even-odd ray casting, boundary-inclusive: a point within
    ``_ON_BOUNDARY_EPS`` of a ring edge is inside, and otherwise it is
    inside when a ray to +x crosses an odd number of ring edges. Holes need
    no special casing: a point inside a hole crosses the hole ring and the
    exterior ring, an even count. Each ring edge tests every candidate
    point at once.
    """
    vertices = [p for ring in boundary.rings() for p in ring]
    x0, x1 = min(p.x for p in vertices), max(p.x for p in vertices)
    y0, y1 = min(p.y for p in vertices), max(p.y for p in vertices)
    # A point outside the box widened by the on-segment tolerance lies on no
    # edge and, above or below it, straddles none. Left or right of it, every
    # straddling edge crosses (clamped to the edge) on one side of the
    # point, an even count.
    candidates = np.flatnonzero(
        (xs >= x0 - _ON_BOUNDARY_EPS) & (xs <= x1 + _ON_BOUNDARY_EPS)
        & (ys >= y0 - _ON_BOUNDARY_EPS) & (ys <= y1 + _ON_BOUNDARY_EPS)
    )
    xs, ys = xs[candidates], ys[candidates]
    on_any = np.zeros(len(candidates), dtype=bool)
    odd = np.zeros(len(candidates), dtype=bool)
    # Python floats overflow to inf and nan without a word; so do these.
    with np.errstate(all="ignore"):
        for ring in boundary.rings():
            n = len(ring)
            for i in range(n):
                a, b = ring[i], ring[(i + 1) % n]
                near = (
                    (min(a.x, b.x) - _ON_BOUNDARY_EPS <= xs)
                    & (xs <= max(a.x, b.x) + _ON_BOUNDARY_EPS)
                    & (min(a.y, b.y) - _ON_BOUNDARY_EPS <= ys)
                    & (ys <= max(a.y, b.y) + _ON_BOUNDARY_EPS)
                )
                cross = (b.x - a.x) * (ys - a.y) - (b.y - a.y) * (xs - a.x)
                scale = max(1.0, abs(b.x - a.x), abs(b.y - a.y))
                on_any |= near & (np.abs(cross) <= _ON_BOUNDARY_EPS * scale)
                if a.y != b.y:  # a horizontal edge straddles no point
                    # The rounded crossing can fall a few ulps outside its
                    # edge's x range; clamp it back.
                    x_at = a.x + (ys - a.y) * (b.x - a.x) / (b.y - a.y)
                    x_at = np.clip(x_at, min(a.x, b.x), max(a.x, b.x))
                    odd ^= ((a.y > ys) != (b.y > ys)) & (x_at > xs)
    return candidates[on_any | odd]


def point_in_polygon(p: GeoPoint, boundary: CityBoundary) -> bool:
    """Whether ``clip_to_city`` keeps a node at ``p``: its test on one point."""
    return _inside_indices(np.array([p.x]), np.array([p.y]), boundary).size == 1


def clip_to_city(graph: RoadGraph, boundary: CityBoundary) -> CityNetwork:
    """Induced subgraph on nodes inside (or on) the boundary.

    Membership is tested for all nodes of the boundary's box at once.
    Kept nodes and links stay in the parent graph's order. A link survives
    only if both endpoints survive. An empty result is a legal outcome
    (``CityNetwork.is_empty``), not an error; downstream metrics raise
    :class:`EmptyCityError` where emptiness is fatal.
    """
    if graph.node_count == 0:
        raise EmptyCityError("cannot clip an empty regional graph")
    # Rings are neither split nor wrapped at +-180 degrees, so an edge that
    # crosses there would cover the far side of the globe instead.
    if graph.mode == "geographic" and any(
        abs(ring[i].x - ring[i - 1].x) > 180.0
        for ring in boundary.rings()
        for i in range(len(ring))
    ):
        raise DataError(
            f"boundary {boundary.city_name!r} has an edge spanning more than 180 degrees of "
            "longitude; split the polygon at the antimeridian (RFC 7946, section 3.1.9)"
        )
    area = boundary_area_km2(boundary, graph.mode)
    if not math.isfinite(area):
        raise DataError(f"boundary {boundary.city_name!r} has a non-finite area ({area} km^2)")
    if area <= 0.0:
        raise DataError(f"boundary {boundary.city_name!r} has zero area")
    nodes = list(graph.nodes.values())
    kept_nodes = [nodes[i] for i in _inside_indices(*graph.node_xy, boundary)]
    kept_ids = {node.id for node in kept_nodes}
    kept_links = [
        link
        for link in graph.links
        if link.from_node in kept_ids and link.to_node in kept_ids
    ]
    return CityNetwork(
        city_name=boundary.city_name,
        graph=RoadGraph(kept_nodes, kept_links, graph.mode),
        area_km2=area,
    )


# ---------------------------------------------------------------------------
# File ingestion
# ---------------------------------------------------------------------------

NODES_HEADER = ["node_id", "x", "y"]
LINKS_HEADER = ["link_id", "from", "to", "length_m", "shape_points"]


def _parse_float(raw: str, what: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise DataError(f"{where}: cannot parse {what} from {raw!r}") from None
    if not math.isfinite(value):
        raise DataError(f"{where}: non-finite {what}: {raw!r}")
    return value


def _parse_shape_points(raw: str, where: str) -> tuple[GeoPoint, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    points = []
    for token in raw.split(";"):
        parts = token.split()
        if len(parts) != 2:
            raise DataError(f"{where}: malformed shape point {token!r} (expected 'x y')")
        points.append(
            GeoPoint(_parse_float(parts[0], "shape x", where), _parse_float(parts[1], "shape y", where))
        )
    return tuple(points)


@contextmanager
def _reading(path: str, what: str, undecodable: tuple, **kwargs):
    """The file opened as UTF-8, with or without a BOM. An OSError (missing, unreadable,
    a directory) is a ValidationError; an ``undecodable`` error, the DataError "PATH: what"."""
    try:
        with open(path, encoding="utf-8-sig", **kwargs) as handle:
            yield handle
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None
    except undecodable as exc:
        raise DataError(f"{path}: {what} ({exc})") from None


def _csv_rows(path: str, header: list[str]) -> Iterator[tuple[str, list[str]]]:
    """``(file:line, fields)`` for each non-blank row after ``header``."""
    with _reading(path, "unreadable CSV", (UnicodeDecodeError, csv.Error), newline="") as handle:
        reader = csv.reader(handle)
        actual = next(reader, None)
        if actual is None or [c.strip() for c in actual] != header:
            raise DataError(f"{path}: expected header {','.join(header)!r}, got {actual!r}")
        for row in reader:
            if not any(field.strip() for field in row):
                continue
            # The row's last line: a quoted field may span several.
            where = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                raise DataError(f"{where}: expected {len(header)} fields, got {len(row)}")
            yield where, row


def load_graph(nodes_file: str, links_file: str, mode: str) -> RoadGraph:
    """Load a RoadGraph from the documented CSV schemas.

    Nodes: ``node_id,x,y``. Links: ``link_id,from,to,length_m,shape_points``
    where ``shape_points`` is a semicolon-separated list of ``x y`` pairs and
    an empty ``length_m`` means "compute the polyline length".
    """
    check_mode(mode)
    nodes: list[RoadNode] = []
    for where, row in _csv_rows(nodes_file, NODES_HEADER):
        point = GeoPoint(_parse_float(row[1], "x", where), _parse_float(row[2], "y", where))
        nodes.append(RoadNode(id=row[0].strip(), location=point))

    by_id = {node.id: node for node in nodes}
    links: list[RoadLink] = []
    for where, row in _csv_rows(links_file, LINKS_HEADER):
        link_id, from_id, to_id = row[0].strip(), row[1].strip(), row[2].strip()
        for endpoint in (from_id, to_id):
            if endpoint not in by_id:
                raise DataError(f"{where}: link {link_id!r} references missing node {endpoint!r}")
        source, target = by_id[from_id], by_id[to_id]
        shape = _parse_shape_points(row[4], where)
        if row[3].strip():
            length = _parse_float(row[3], "length_m", where)
            if length <= 0:
                raise DataError(f"{where}: length_m must be positive, got {length}")
        else:
            length = polyline_length_m((source.location, *shape, target.location), mode)
        # The node's own id string, not a copy per link.
        links.append(RoadLink(link_id, source.id, target.id, shape, length))

    return RoadGraph(nodes, links, mode)


def load_boundaries(path: str) -> list[CityBoundary]:
    """Load city boundaries from a GeoJSON FeatureCollection.

    Each feature must be a Polygon or MultiPolygon and carry a ``name``
    property, a non-empty string or a number, that no other feature carries.
    """
    # A ValueError also covers non-UTF-8 bytes; a RecursionError, deep nesting.
    with _reading(path, "invalid JSON", (ValueError, RecursionError)) as handle:
        doc = json.load(handle)
    features = doc.get("features", []) if isinstance(doc, dict) else None
    if not isinstance(features, list) or doc.get("type") != "FeatureCollection":
        raise DataError(f"{path}: expected a GeoJSON FeatureCollection")
    boundaries = []
    for idx, feature in enumerate(features):
        if not isinstance(feature, dict):
            raise DataError(f"{path}: feature {idx} is not a JSON object")
        props = feature.get("properties")
        name = props.get("name") if isinstance(props, dict) else None
        if name is None or name == "":
            raise DataError(f"{path}: feature {idx} has no 'name' property")
        # A number names a city too (0 as "0"); a bool is not a number here.
        if isinstance(name, bool) or not isinstance(name, (str, numbers.Real)):
            raise DataError(
                f"{path}: feature {idx} has a 'name' of type {type(name).__name__}, "
                "not a string or a number"
            )
        name = str(name)
        if any(b.city_name == name for b in boundaries):
            raise DataError(f"{path}: feature {idx} repeats the boundary name {name!r}")
        geometry = feature.get("geometry")
        gtype = geometry.get("type") if isinstance(geometry, dict) else None
        if gtype not in ("Polygon", "MultiPolygon"):
            raise DataError(
                f"{path}: feature {name!r} has unsupported geometry type {gtype!r}"
            )
        coords = geometry.get("coordinates")
        try:
            boundaries.append(make_boundary(name, [coords] if gtype == "Polygon" else coords))
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"{path}: feature {name!r} has malformed coordinates ({exc})") from None
    return boundaries
