"""Link bearings, intersection angles, and 3-way/4-way pattern codes.

Angles at a node come from its *outgoing* links only. Each link's initial
direction is taken toward its first shape point when one exists, so curved
streets contribute their true departure direction rather than the chord to
the far node. Compass bearings come from the same direction. In
geographic mode, neighbor points are first projected onto a local tangent
plane at the vertex (longitude difference taken the short way round the
antimeridian, then scaled by cos(latitude)), which keeps angle error
sub-meter at street scale without a projection library.

Classification buckets each angle as acute / right / obtuse / straight /
reflex within a tolerance band ``tau`` (degrees), then maps the multiset of
categories at the node to a type code 1..7. Both decision tables are total:
every angle list receives exactly one code.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateGeometryError, ValidationError
from .graph import CityNetwork, GeoPoint, RoadGraph, RoadLink, RoadNode

DEFAULT_TAU_DEG = 10.0

ACUTE = "acute"
RIGHT = "right"
OBTUSE = "obtuse"
STRAIGHT = "straight"
REFLEX = "reflex"

PATTERN_TYPES = ("1", "2", "3", "4", "5", "6", "7")
OTHER_PATTERN = "other"
# patterns.csv columns, one row per city from ``pattern_counts``: for
# degree 3, then 4, the share of each type code and of "other" nodes.
_PATTERN_TAGS = {code: f"t{code}" for code in PATTERN_TYPES} | {OTHER_PATTERN: OTHER_PATTERN}
PATTERN_COLUMNS = tuple(f"d{degree}_{tag}" for degree in (3, 4) for tag in _PATTERN_TAGS.values())

# Two directions closer than this (in coordinate units) are coincident.
_COINCIDENT_EPS = 1e-12


def _check_tau(tau: float) -> None:
    if not 0.0 < tau < 45.0:
        raise ValidationError(f"angle tolerance tau must lie in (0, 45), got {tau}")


def categorize(value: float, tau: float = DEFAULT_TAU_DEG) -> str:
    """Bucket an angle in [0, 360) into one of the five categories."""
    _check_tau(tau)
    if abs(value - 90.0) <= tau:
        return RIGHT
    if abs(value - 180.0) <= tau:
        return STRAIGHT
    if value < 90.0 - tau:
        return ACUTE
    if value < 180.0 - tau:
        return OBTUSE
    return REFLEX


def _local_xy(p: GeoPoint, origin: GeoPoint, mode: str) -> tuple[float, float]:
    dx = p.x - origin.x
    dy = p.y - origin.y
    if mode == "geographic":
        # The short way round the antimeridian. A modulo would change the
        # last bits of every dx.
        if dx > 180.0:
            dx -= 360.0
        elif dx < -180.0:
            dx += 360.0
        dx *= math.cos(math.radians(origin.y))
    return dx, dy


def outgoing_ray(link: RoadLink, graph: RoadGraph) -> GeoPoint:
    """The point defining a link's initial direction at its start node.

    First shape point when present; falls through coincident shape points
    to the end node.
    """
    origin = graph.nodes[link.from_node].location
    for candidate in (*link.shape_points, graph.nodes[link.to_node].location):
        if abs(candidate.x - origin.x) > _COINCIDENT_EPS or abs(candidate.y - origin.y) > _COINCIDENT_EPS:
            return candidate
    raise DegenerateGeometryError(
        f"link {link.id!r} has no point distinct from its start node"
    )


def _initial_direction_deg(link: RoadLink, graph: RoadGraph) -> float:
    """Math-convention direction (CCW from +x) of the link's first segment."""
    origin = graph.nodes[link.from_node].location
    dx, dy = _local_xy(outgoing_ray(link, graph), origin, graph.mode)
    return math.degrees(math.atan2(dy, dx)) % 360.0


def link_bearing(link: RoadLink, graph: RoadGraph) -> float:
    """Compass bearing (0 = north, clockwise) of the link's initial direction."""
    return (90.0 - _initial_direction_deg(link, graph)) % 360.0


def node_angles(node: RoadNode, city: CityNetwork) -> list[float]:
    """Consecutive angular gaps between a node's outgoing links, summing to 360.

    Links are sorted by initial direction; the wrap-around gap closes the
    circle. Duplicate directions yield zero-degree gaps, which classify as
    acute.
    """
    links = city.graph.out_links(node.id)
    if len(links) < 2:
        raise ValidationError(
            f"node {node.id!r} has out-degree {len(links)}; angles need at least 2"
        )
    try:
        directions = sorted(_initial_direction_deg(link, city.graph) for link in links)
    except DegenerateGeometryError as exc:
        raise DegenerateGeometryError(f"node {node.id!r}: {exc}") from None
    gaps = [directions[i + 1] - directions[i] for i in range(len(directions) - 1)]
    gaps.append(360.0 - directions[-1] + directions[0])
    return gaps


def classify_pattern(angles: Sequence[float], degree: int, tau: float = DEFAULT_TAU_DEG) -> str:
    """Map a node's angle multiset to its intersection type code "1".."7".

    Degree-3 table (checked top-down):
      1: two right + one straight (the classic T)
      2: acute + obtuse + straight
      6: anything containing a reflex angle
      3: three obtuse
      4: right + two obtuse
      5: acute + two obtuse
      7: everything else

    Degree-4 table (checked top-down):
      1: four right angles (the square crossing)
      3: exactly two right + one acute + one obtuse
      2: two acute + two obtuse (skewed crossing, no right angle)
      4: contains a straight angle
      5: contains a reflex angle
      6: no right angle and none of the above
      7: everything else
    """
    if degree not in (3, 4):
        raise ValidationError(f"patterns are defined for degree 3 or 4, got {degree}")
    if len(angles) != degree:
        raise ValidationError(
            f"expected {degree} angles for a degree-{degree} node, got {len(angles)}"
        )
    cats = Counter(categorize(value, tau) for value in angles)
    if degree == 3:
        if cats == {RIGHT: 2, STRAIGHT: 1}:
            return "1"
        if cats == {ACUTE: 1, OBTUSE: 1, STRAIGHT: 1}:
            return "2"
        if cats[REFLEX] >= 1:
            return "6"
        if cats == {OBTUSE: 3}:
            return "3"
        if cats == {RIGHT: 1, OBTUSE: 2}:
            return "4"
        if cats == {ACUTE: 1, OBTUSE: 2}:
            return "5"
        return "7"
    if cats == {RIGHT: 4}:
        return "1"
    if cats[RIGHT] == 2 and cats[ACUTE] == 1 and cats[OBTUSE] == 1:
        return "3"
    if cats == {ACUTE: 2, OBTUSE: 2}:
        return "2"
    if cats[STRAIGHT] >= 1:
        return "4"
    if cats[REFLEX] >= 1:
        return "5"
    if cats[RIGHT] == 0:
        return "6"
    return "7"


@dataclass(frozen=True)
class NodePattern:
    node_id: str
    degree: int
    type_code: str
    angles: tuple[float, ...]


def node_patterns(city: CityNetwork, tau: float = DEFAULT_TAU_DEG) -> list[NodePattern]:
    """Classify every node with out-degree exactly 3 or 4."""
    _check_tau(tau)
    patterns = []
    for node in city.graph.nodes.values():
        degree = city.graph.out_degree(node.id)
        if degree not in (3, 4):
            continue
        try:
            angles = node_angles(node, city)
        except DegenerateGeometryError:
            patterns.append(NodePattern(node.id, degree, OTHER_PATTERN, ()))
            continue
        code = classify_pattern(angles, degree, tau)
        patterns.append(NodePattern(node.id, degree, code, tuple(angles)))
    return patterns


def pattern_counts(city: CityNetwork, tau: float = DEFAULT_TAU_DEG) -> dict[str, float]:
    """Type-code shares of the city's degree-3 and degree-4 nodes.

    Keyed by ``PATTERN_COLUMNS``: ``d3_t1``..``d3_t7`` and ``d3_other``
    (nodes whose geometry was too degenerate to angle), then the same for
    degree 4. Each degree's shares sum to 1 when it has nodes and are all
    zero otherwise.
    """
    tallies = {3: Counter(), 4: Counter()}
    for pattern in node_patterns(city, tau):
        tallies[pattern.degree][pattern.type_code] += 1
    shares = {}
    for degree, tally in tallies.items():
        total = sum(tally.values())
        for code, tag in _PATTERN_TAGS.items():
            shares[f"d{degree}_{tag}"] = tally[code] / total if total else 0.0
    return shares
