"""Graph model: ingestion, validation, point-in-polygon, and clipping."""

import json
import math
import random
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cityform.errors import CityformError, DataError, ValidationError
from cityform.graph import (
    _ON_BOUNDARY_EPS as EPS,
    EARTH_RADIUS_M,
    MODES,
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
    point_distance_m,
    polyline_length_m,
)

from helpers import make_city, point_in_polygon_oracle

UNIT_SQUARE = make_boundary("unit", [[[(0, 0), (1, 0), (1, 1), (0, 1)]]])


def write_graph_files(tmp_path, node_rows, link_rows):
    nodes = tmp_path / "nodes.csv"
    links = tmp_path / "links.csv"
    nodes.write_text("node_id,x,y\n" + "".join(f"{r}\n" for r in node_rows))
    links.write_text(
        "link_id,from,to,length_m,shape_points\n" + "".join(f"{r}\n" for r in link_rows)
    )
    return str(nodes), str(links)


class TestLoadGraph:
    def test_equator_link_length_matches_geodesic_oracle(self, tmp_path):
        # Independent oracle: an east-west arc on the equator has length
        # R * delta_lambda exactly.
        expected = EARTH_RADIUS_M * math.radians(0.001)
        nodes, links = write_graph_files(
            tmp_path, ["A,0,0", "B,0.001,0"], ["L1,A,B,,"]
        )
        graph = load_graph(nodes, links, "geographic")
        assert graph.node_count == 2 and graph.link_count == 1
        length = graph.links[0].length_m
        assert length == pytest.approx(expected, abs=1e-6)
        assert round(length, 1) == 111.3

    def test_empty_links_file(self, tmp_path):
        nodes, links = write_graph_files(tmp_path, ["A,0,0", "B,1,0"], [])
        graph = load_graph(nodes, links, "planar")
        assert graph.node_count == 2 and graph.link_count == 0

    def test_dangling_endpoint_names_offender(self, tmp_path):
        nodes, links = write_graph_files(tmp_path, ["A,0,0"], ["L1,A,Z,,"])
        with pytest.raises(DataError, match="'Z'"):
            load_graph(nodes, links, "planar")

    def test_duplicate_node_id(self, tmp_path):
        nodes, links = write_graph_files(tmp_path, ["A,0,0", "A,1,0"], [])
        with pytest.raises(DataError, match="duplicate"):
            load_graph(nodes, links, "planar")

    def test_self_loop_rejected(self, tmp_path):
        nodes, links = write_graph_files(tmp_path, ["A,0,0"], ["L1,A,A,5,"])
        with pytest.raises(DataError, match="self-loop"):
            load_graph(nodes, links, "planar")

    def test_shape_points_parsed_and_length_computed(self, tmp_path):
        nodes, links = write_graph_files(
            tmp_path, ["A,0,0", "B,10,0"], ["L1,A,B,,5 5;10 5"]
        )
        graph = load_graph(nodes, links, "planar")
        link = graph.links[0]
        assert link.shape_points == (GeoPoint(5, 5), GeoPoint(10, 5))
        expected = math.hypot(5, 5) + 5 + 5
        assert link.length_m == pytest.approx(expected, rel=1e-12)

    def test_links_share_their_nodes_id_strings(self, tmp_path):
        nodes, links = write_graph_files(
            tmp_path, ["A,0,0", "B,10,0"], ["L1,A,B,10,", "L2, B ,A,10,"]
        )
        graph = load_graph(nodes, links, "planar")
        for link in graph.links:
            assert link.from_node is graph.nodes[link.from_node].id
            assert link.to_node is graph.nodes[link.to_node].id
        # Slotted records carry no per-instance dict.
        assert not hasattr(graph.links[0], "__dict__")
        assert not hasattr(graph.nodes["A"], "__dict__")

    def test_explicit_length_kept(self, tmp_path):
        nodes, links = write_graph_files(tmp_path, ["A,0,0", "B,10,0"], ["L1,A,B,42.5,"])
        assert load_graph(nodes, links, "planar").links[0].length_m == 42.5

    def test_nonpositive_length_rejected(self, tmp_path):
        nodes, links = write_graph_files(tmp_path, ["A,0,0", "B,10,0"], ["L1,A,B,-3,"])
        with pytest.raises(DataError, match="positive"):
            load_graph(nodes, links, "planar")

    def test_malformed_coordinate(self, tmp_path):
        nodes, links = write_graph_files(tmp_path, ["A,zero,0"], [])
        with pytest.raises(DataError, match="cannot parse"):
            load_graph(nodes, links, "planar")

    def test_bad_header_rejected(self, tmp_path):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("id,lon,lat\nA,0,0\n")
        links = tmp_path / "links.csv"
        links.write_text("link_id,from,to,length_m,shape_points\n")
        with pytest.raises(DataError, match="header"):
            load_graph(str(nodes), str(links), "planar")

    def test_error_names_the_physical_line(self, tmp_path):
        nodes, links = write_graph_files(tmp_path, ['"A', 'B",0,0', "C,zz,0"], [])
        with pytest.raises(DataError, match=r"nodes\.csv:4: cannot parse x"):
            load_graph(nodes, links, "planar")

    def test_out_of_range_geographic_coordinate(self, tmp_path):
        nodes, links = write_graph_files(tmp_path, ["A,200,0"], [])
        with pytest.raises(DataError, match="range"):
            load_graph(nodes, links, "geographic")


class TestRoadGraph:
    """The checks of a graph built directly, not through ``load_graph``."""

    @pytest.mark.parametrize(
        "to_node, length, mode, error, match",
        [
            ("Z", 5.0, "planar", DataError, "references missing node 'Z'"),
            ("B", 0.0, "planar", DataError, "non-positive length 0.0"),
            ("B", math.nan, "planar", DataError, "non-positive length nan"),
            ("B", 5.0, "mercator", ValidationError, "unknown coordinate mode: 'mercator'"),
        ],
        ids=["missing-endpoint", "zero-length", "nan-length", "unknown-mode"],
    )
    def test_bad_graph_rejected(self, to_node, length, mode, error, match):
        nodes = [RoadNode("A", GeoPoint(0, 0)), RoadNode("B", GeoPoint(1, 0))]
        with pytest.raises(error, match=match):
            RoadGraph(nodes, [RoadLink("L1", "A", to_node, (), length)], mode)

    @pytest.mark.parametrize("mode", ["planar", "geographic"])
    def test_non_finite_node_coordinate_rejected(self, mode):
        nodes = [RoadNode("A", GeoPoint(0, 0)), RoadNode("B", GeoPoint(math.nan, 0))]
        with pytest.raises(DataError, match="non-finite coordinate"):
            RoadGraph(nodes, [], mode)

    def test_duplicate_link_id_rejected(self):
        nodes = [RoadNode("A", GeoPoint(0, 0)), RoadNode("B", GeoPoint(1, 0))]
        # Parallel links are legal; two links under one id are not.
        links = [RoadLink("L1", "A", "B", (), 1.0), RoadLink("L2", "A", "B", (), 1.0)]
        assert RoadGraph(nodes, links, "planar").link_count == 2
        with pytest.raises(DataError, match="duplicate link id: 'L1'"):
            RoadGraph(nodes, links + [RoadLink("L1", "B", "A", (), 1.0)], "planar")

    def test_geographic_node_at_a_pole_rejected(self):
        # A shape point may lie at a pole: no direction starts there.
        nodes = [RoadNode("A", GeoPoint(0, 89.9)), RoadNode("B", GeoPoint(90, 89.9))]
        links = [RoadLink("L1", "A", "B", (GeoPoint(0, 90),), 1.0)]
        assert RoadGraph(nodes, links, "geographic").link_count == 1
        pole = [RoadNode("P", GeoPoint(0.0, -90.0))]
        assert RoadGraph(pole, [], "planar").node_count == 1
        with pytest.raises(DataError, match=r"node 'P' lies at a pole \(latitude -90\.0\)"):
            RoadGraph(pole, [], "geographic")


class TestPointInPolygon:
    def test_inside(self):
        assert point_in_polygon(GeoPoint(0.5, 0.5), UNIT_SQUARE)

    def test_outside(self):
        assert not point_in_polygon(GeoPoint(1.5, 0.5), UNIT_SQUARE)

    def test_vertex_counts_as_inside(self):
        assert point_in_polygon(GeoPoint(0, 0), UNIT_SQUARE)

    def test_edge_counts_as_inside(self):
        assert point_in_polygon(GeoPoint(0.5, 0.0), UNIT_SQUARE)

    def test_hole_is_outside(self):
        with_hole = make_boundary(
            "holey",
            [[
                [(0, 0), (10, 0), (10, 10), (0, 10)],
                [(4, 4), (6, 4), (6, 6), (4, 6)],
            ]],
        )
        assert point_in_polygon(GeoPoint(2, 2), with_hole)
        assert not point_in_polygon(GeoPoint(5, 5), with_hole)


class TestClip:
    def test_endpoint_outside_drops_link(self):
        city = make_city({"A": (0.5, 0.5), "B": (2, 2)}, [("A", "B")])
        clipped = clip_to_city(city.graph, UNIT_SQUARE)
        assert clipped.graph.node_count == 1
        assert clipped.graph.link_count == 0

    def test_boundary_containing_all_is_identity(self):
        city = make_city(
            {"A": (0.2, 0.2), "B": (0.8, 0.2), "C": (0.5, 0.9)},
            [("A", "B"), ("B", "C"), ("C", "A")],
        )
        clipped = clip_to_city(city.graph, UNIT_SQUARE)
        assert set(clipped.graph.nodes) == {"A", "B", "C"}
        assert clipped.graph.link_count == 3

    def test_square_area(self):
        square = make_boundary("big", [[[(0, 0), (10_000, 0), (10_000, 10_000), (0, 10_000)]]])
        assert boundary_area_km2(square, "planar") == pytest.approx(100.0, abs=1e-9)

    @pytest.mark.parametrize("mode, unit", [("planar", 1000.0), ("geographic", 0.01)])
    def test_hole_area_is_subtracted(self, mode, unit):
        def square(lo, hi):
            lo, hi = lo * unit, hi * unit
            return [(lo, lo), (hi, lo), (hi, hi), (lo, hi)]

        outer, hole = square(0, 2), square(0.5, 1.5)
        solid = boundary_area_km2(make_boundary("solid", [[outer]]), mode)
        alone = boundary_area_km2(make_boundary("hole", [[hole]]), mode)
        holey = boundary_area_km2(make_boundary("holey", [[outer, hole]]), mode)
        assert alone == pytest.approx(solid / 4, rel=1e-3)
        assert holey == pytest.approx(solid - alone, rel=1e-12)

    def test_empty_city_is_reported_not_raised(self):
        city = make_city({"A": (5, 5), "B": (6, 5)}, [("A", "B")])
        clipped = clip_to_city(city.graph, UNIT_SQUARE)
        assert clipped.is_empty
        assert isinstance(clipped, CityNetwork)

    def test_clip_is_idempotent(self):
        rng = random.Random(3)
        nodes = {f"n{i}": (rng.uniform(-1, 2), rng.uniform(-1, 2)) for i in range(40)}
        links = []
        names = list(nodes)
        for i in range(60):
            u, v = rng.sample(names, 2)
            links.append((u, v))
        city = make_city(nodes, links)
        once = clip_to_city(city.graph, UNIT_SQUARE)
        twice = clip_to_city(once.graph, UNIT_SQUARE)
        assert list(twice.graph.nodes) == list(once.graph.nodes)
        assert [l.id for l in twice.graph.links] == [l.id for l in once.graph.links]

    def test_no_dangling_links_after_clip(self):
        rng = random.Random(11)
        for trial in range(20):
            nodes = {f"n{i}": (rng.uniform(-1, 2), rng.uniform(-1, 2)) for i in range(25)}
            names = list(nodes)
            links = [tuple(rng.sample(names, 2)) for _ in range(40)]
            city = make_city(nodes, links)
            clipped = clip_to_city(city.graph, UNIT_SQUARE)
            kept = set(clipped.graph.nodes)
            for link in clipped.graph.links:
                assert link.from_node in kept and link.to_node in kept

    def test_spherical_area_sanity(self):
        # 1 degree x 1 degree cell on the equator: about (111.32 km)^2.
        cell = make_boundary("cell", [[[(0, 0), (1, 0), (1, 1), (0, 1)]]])
        area = boundary_area_km2(cell, "geographic")
        expected = (EARTH_RADIUS_M * math.radians(1.0) / 1000.0) ** 2
        assert area == pytest.approx(expected, rel=5e-4)


def nudged(value: float, ulps: int) -> float:
    """``value`` moved by ``ulps`` representable steps (down if negative)."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        value = math.nextafter(value, toward)
    return value


@st.composite
def clip_cases(draw, mode):
    """A MultiPolygon boundary and points placed where clipping can go wrong.

    Ring vertices sit on an integer grid scaled by ``unit`` and shifted, so
    rings have horizontal, vertical and slanted edges, collinear and
    repeated vertices, and holes.
    """
    if mode == "planar":
        unit = draw(st.sampled_from([1.0, 0.37, 250.0]))
        ox, oy = (draw(st.sampled_from([0.0, -3.7e5, 6.4e6]) | st.floats(-1e4, 1e4)) for _ in "xy")
    else:
        unit = draw(st.sampled_from([1e-3, 0.0137]))
        ox, oy = draw(st.floats(-170, 170)), draw(st.floats(-80, 80))

    def at(i, j):
        return (ox + i * unit, oy + j * unit)

    polygons, holes = [], []
    for _ in range(draw(st.integers(1, 2))):
        x0, y0 = draw(st.integers(0, 8)), draw(st.integers(0, 3))
        x1, y1 = x0 + draw(st.integers(2, 6)), y0 + draw(st.integers(2, 6))
        apex_x, apex_dy = draw(st.integers(x0, x1)), draw(st.integers(0, 3))
        rings = [[at(x0, y0), at(x1, y0), at(x1, y1), at(apex_x, y1 + apex_dy), at(x0, y1)]]
        if draw(st.booleans()):
            cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
            corners = [(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)]
            if draw(st.booleans()):  # a diamond, with slanted edges
                corners = [(0, -0.5), (0.5, 0), (0, 0.5), (-0.5, 0)]
            rings.append([at(cx + dx, cy + dy) for dx, dy in corners])
            holes.append(at(cx, cy))
        polygons.append(rings)
    boundary = make_boundary("b", polygons)

    rings = list(boundary.rings())
    vertices = [p for ring in rings for p in ring]
    edges = [(ring[i], ring[(i + 1) % len(ring)]) for ring in rings for i in range(len(ring))]
    bx0, bx1 = min(p.x for p in vertices), max(p.x for p in vertices)
    by0, by1 = min(p.y for p in vertices), max(p.y for p in vertices)

    def near_edge(args):
        (a, b), t, dx, dy = args
        return (a.x + t * (b.x - a.x) + dx, a.y + t * (b.y - a.y) + dy)

    def near_box_side(args):
        # On one side of the bounding box widened by EPS, moved a few ulps
        # in or out, anywhere along that side.
        side, t, ulps = args
        x, y = bx0 + t * (bx1 - bx0), by0 + t * (by1 - by0)
        if side == "left":
            return (nudged(bx0 - EPS, ulps), y)
        if side == "right":
            return (nudged(bx1 + EPS, ulps), y)
        if side == "bottom":
            return (x, nudged(by0 - EPS, ulps))
        return (x, nudged(by1 + EPS, ulps))

    half_eps = st.floats(-EPS / 2, EPS / 2)
    point = st.one_of(
        st.sampled_from(vertices).map(tuple),
        st.sampled_from(edges).map(lambda e: ((e[0].x + e[1].x) / 2, (e[0].y + e[1].y) / 2)),
        st.tuples(st.sampled_from(edges), st.floats(0, 1), half_eps, half_eps).map(near_edge),
        st.sampled_from(holes or [tuple(vertices[0])]),
        st.tuples(
            st.sampled_from(["left", "right", "bottom", "top"]),
            st.floats(0, 1),
            st.integers(-40, 40),
        ).map(near_box_side),
        st.sampled_from([(bx0 - 50 * unit, by1 + 50 * unit), (bx1 + 50 * unit, (by0 + by1) / 2)]),
        st.tuples(st.floats(bx0 - unit, bx1 + unit), st.floats(by0 - unit, by1 + unit)),
    )
    return boundary, draw(st.lists(point, min_size=1, max_size=40))


def accepted(graph, boundary) -> list[str]:
    """Ids of the nodes the scalar oracle accepts, in graph order."""
    return [
        nid for nid, node in graph.nodes.items() if point_in_polygon_oracle(node.location, boundary)
    ]


class TestVectorisedClip:
    """``clip_to_city`` keeps exactly the nodes the scalar oracle accepts."""

    @pytest.mark.parametrize("mode", MODES)
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_point_in_polygon(self, mode, data):
        boundary, points = data.draw(clip_cases(mode))
        nodes = {f"n{i}": p for i, p in enumerate(points)}
        chain = [(f"n{i}", f"n{i + 1}", (), 1.0) for i in range(len(points) - 1)]
        graph = make_city(nodes, chain, mode=mode).graph
        clipped = clip_to_city(graph, boundary)
        inside = accepted(graph, boundary)
        assert list(clipped.graph.nodes) == inside
        kept = set(inside)
        assert [l.id for l in clipped.graph.links] == [
            l.id for l in graph.links if l.from_node in kept and l.to_node in kept
        ]

    # At web-Mercator magnitudes the rounded crossing of the triangle's
    # slanted edge with the point's ray lands 1.6e-9 right of the edge's
    # vertex, and so right of the point. Clamped to the edge, it lies left
    # of the point, which is outside.
    TRIANGLE = [
        (-17189704.310621675, 6885939.748056918),
        (-1212822.920311667, -3873224.1222796924),
        (-17190704.310621675, 1506357.812888613),
    ]
    BESIDE_VERTEX = (-1212822.9203116654, -3873224.122279692)

    def test_rounded_crossing_beyond_the_box(self):
        ring, point = self.TRIANGLE, self.BESIDE_VERTEX
        boundary = make_boundary("mercator", [[ring]])
        assert point[0] > max(x for x, _ in ring) + EPS
        assert not point_in_polygon(GeoPoint(*point), boundary)
        assert not point_in_polygon_oracle(GeoPoint(*point), boundary)
        graph = make_city({"p": point, "q": (0.0, 0.0)}, [("p", "q")]).graph
        assert list(clip_to_city(graph, boundary).graph.nodes) == []

    def test_rounded_crossing_inside_the_box(self):
        # A second polygon widens the box past the point but straddles no
        # ray at its y, so the clamp alone keeps the point outside.
        point = self.BESIDE_VERTEX
        boundary = make_boundary("mercator", [[self.TRIANGLE], [[(0, 0), (1, 0), (1, 1), (0, 1)]]])
        assert not point_in_polygon(GeoPoint(*point), boundary)
        assert not point_in_polygon_oracle(GeoPoint(*point), boundary)
        graph = make_city({"p": point, "q": (0.5, 0.5)}, [("p", "q")]).graph
        assert list(clip_to_city(graph, boundary).graph.nodes) == ["q"]

    def test_parent_order_is_kept(self):
        rng = random.Random(5)
        coords = [(i / 4, j / 4) for i in range(-2, 7) for j in range(-2, 7)]
        names = [f"n{i}" for i in range(len(coords))]
        rng.shuffle(names)
        nodes = dict(zip(names, coords))
        links = [tuple(rng.sample(names, 2)) for _ in range(150)]
        graph = make_city(nodes, links).graph
        clipped = clip_to_city(graph, UNIT_SQUARE)
        inside = set(accepted(graph, UNIT_SQUARE))
        assert 0 < len(inside) < len(nodes)
        assert list(clipped.graph.nodes) == [nid for nid in names if nid in inside]
        assert [l.id for l in clipped.graph.links] == [
            l.id for l in graph.links if l.from_node in inside and l.to_node in inside
        ]
        assert clipped.graph.link_count > 0

    def test_boundary_box_without_nodes_is_empty_without_warnings(self):
        city = make_city({"A": (5, 5), "B": (6, 5)}, [("A", "B"), ("B", "A")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clipped = clip_to_city(city.graph, UNIT_SQUARE)
        assert clipped.is_empty
        assert clipped.graph.link_count == 0


class TestDistances:
    def test_polyline_length_matches_independent_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            pts = [GeoPoint(rng.uniform(-50, 50), rng.uniform(-40, 40)) for _ in range(6)]
            total = polyline_length_m(pts, "geographic")
            # Spherical law of cosines as the independent distance formula.
            oracle = 0.0
            for a, b in zip(pts, pts[1:]):
                f1, f2 = math.radians(a.y), math.radians(b.y)
                dl = math.radians(b.x - a.x)
                central = math.acos(
                    min(1.0, max(-1.0, math.sin(f1) * math.sin(f2) + math.cos(f1) * math.cos(f2) * math.cos(dl)))
                )
                oracle += EARTH_RADIUS_M * central
            assert total == pytest.approx(oracle, rel=1e-9)

    def test_planar_distance(self):
        assert point_distance_m(GeoPoint(0, 0), GeoPoint(3, 4), "planar") == 5.0


class TestBoundariesFile:
    def test_load_polygon_and_multipolygon(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "properties": {"name": "alpha"},
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]],
                    },
                },
                {
                    "type": "Feature",
                    "properties": {"name": "beta"},
                    "geometry": {
                        "type": "MultiPolygon",
                        "coordinates": [
                            [[[2, 0], [3, 0], [3, 1], [2, 1], [2, 0]]],
                            [[[4, 0], [5, 0], [5, 1], [4, 1], [4, 0]]],
                        ],
                    },
                },
            ],
        }
        path = tmp_path / "b.geojson"
        path.write_text(json.dumps(doc))
        boundaries = load_boundaries(str(path))
        assert [b.city_name for b in boundaries] == ["alpha", "beta"]
        # Closing vertex stripped; ring stored open.
        assert len(boundaries[0].polygons[0][0]) == 4
        assert len(boundaries[1].polygons) == 2

    def test_missing_name_rejected(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "properties": {},
                    "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1]]]},
                }
            ],
        }
        path = tmp_path / "b.geojson"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="name"):
            load_boundaries(str(path))

    def test_degenerate_ring_rejected(self):
        with pytest.raises(DataError, match="3 distinct"):
            make_boundary("bad", [[[(0, 0), (1, 1)]]])


VALID_NODES = b"node_id,x,y\nA,0,0\nB,0.001,0\nC,0,0.001\n"
VALID_LINKS = b"link_id,from,to,length_m,shape_points\nL1,A,B,,\nL2,B,C,,0.0005 0.0005\n"
FUZZ_BYTES = st.one_of(st.binary(max_size=64), st.text(max_size=32).map(str.encode))
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=16,
)


def raises_only_cityform_errors(load, *args):
    try:
        load(*args)
    except CityformError:
        pass


class TestLoaderFuzz:
    """Whatever the input files hold, the loaders fail only with CityformError."""

    @given(FUZZ_BYTES, FUZZ_BYTES, st.sampled_from(["geographic", "planar"]))
    @settings(max_examples=200, deadline=None)
    def test_graph_files_with_appended_bytes(self, node_tail, link_tail, mode):
        with tempfile.TemporaryDirectory() as tmp:
            nodes, links = Path(tmp, "nodes.csv"), Path(tmp, "links.csv")
            nodes.write_bytes(VALID_NODES + node_tail)
            links.write_bytes(VALID_LINKS + link_tail)
            raises_only_cityform_errors(load_graph, str(nodes), str(links), mode)

    @given(JSON_TREES, st.sampled_from(["document", "Polygon", "MultiPolygon"]))
    @settings(max_examples=300, deadline=None)
    def test_boundary_files_with_random_json(self, tree, place):
        # The tree is the whole document, or the coordinates of one geometry.
        if place == "document":
            doc = tree
        else:
            geometry = {"type": place, "coordinates": tree}
            doc = {
                "type": "FeatureCollection",
                "features": [{"type": "Feature", "properties": {"name": "a"}, "geometry": geometry}],
            }
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "b.geojson")
            path.write_text(json.dumps(doc))
            raises_only_cityform_errors(load_boundaries, str(path))
