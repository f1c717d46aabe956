"""Angle kernel, outgoing rays, bearing, and pattern classification."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cityform.errors import DegenerateGeometryError, ValidationError
from cityform.geometry import (
    categorize,
    classify_pattern,
    link_bearing,
    node_angles,
    pattern_counts,
)
from cityform.graph import GeoPoint
from cityform.synth import ArchetypeSpec, generate
from cityform.geometry import outgoing_ray

from helpers import make_city, make_grid_city, ray_gaps, rotate_city, rotation_angle_oracle

P = GeoPoint


class TestAngle:
    """``node_angles`` at a node with two outgoing links, against exact values and the oracle."""

    def test_quarter_turn_ccw(self):
        assert ray_gaps(P(1, 0), P(0, 0), P(0, 1)) == [90.0, 270.0]

    def test_negative_branch_adds_360(self):
        # Listing the links in the other order gives the same gaps: the
        # wrap-around gap closes the circle by adding 360 to the difference.
        assert ray_gaps(P(0, 1), P(0, 0), P(1, 0)) == [90.0, 270.0]

    def test_collinear(self):
        assert sorted(ray_gaps(P(1, 0), P(0, 0), P(-1, 0))) == [180.0, 180.0]

    def test_matches_rotation_oracle(self):
        rng = random.Random(1)
        for _ in range(300):
            o = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            a = (o[0] + rng.uniform(-10, 10), o[1] + rng.uniform(-10, 10))
            b = (o[0] + rng.uniform(-10, 10), o[1] + rng.uniform(-10, 10))
            if math.dist(a, o) < 1e-3 or math.dist(b, o) < 1e-3:
                continue
            want = rotation_angle_oracle(a, o, b)
            got = sorted(ray_gaps(a, o, b))
            assert got == pytest.approx(sorted([want, 360.0 - want]), abs=1e-9)

    def test_geographic_projection_scales_longitude(self):
        # At 60N one degree of longitude is half a degree of latitude, so a
        # "diagonal" in lon/lat leans toward north after projection.
        o = P(0.0, 60.0)
        east = P(0.01, 60.0)
        diag = P(0.01, 60.01)
        expected = math.degrees(math.atan2(0.01, 0.01 * math.cos(math.radians(60.0))))
        got = sorted(ray_gaps(east, o, diag, mode="geographic"))
        assert got == pytest.approx([expected, 360.0 - expected], abs=1e-6)

    def test_geographic_projection_crosses_the_antimeridian(self):
        # The link to -179.9999 runs 0.0002 degrees east, not 359.9998 west.
        o = P(179.9999, 0.0)
        got = sorted(ray_gaps(P(-179.9999, 0.0), o, P(180.0, 0.0002), mode="geographic"))
        expected = math.degrees(math.atan2(2.0, 1.0))
        assert got == pytest.approx([expected, 360.0 - expected], abs=1e-6)

    @given(
        st.floats(-100, 100), st.floats(-100, 100),
        st.floats(-100, 100), st.floats(-100, 100),
    )
    @settings(max_examples=200)
    def test_forward_plus_reverse_is_full_turn(self, ax, ay, bx, by):
        o = P(3.0, -2.0)
        a, b = P(ax, ay), P(bx, by)
        if math.dist(a, o) < 1e-6 or math.dist(b, o) < 1e-6:
            return
        forward, reverse = ray_gaps(a, o, b)
        assert abs(forward + reverse - 360.0) < 1e-9


class TestCategorize:
    def test_band_edges(self):
        assert categorize(80.0) == "right"
        assert categorize(79.999) == "acute"
        assert categorize(100.0) == "right"
        assert categorize(100.001) == "obtuse"
        assert categorize(170.0) == "straight"
        assert categorize(190.0) == "straight"
        assert categorize(190.001) == "reflex"
        assert categorize(0.0) == "acute"

    @given(st.floats(0.001, 359.999), st.floats(0.5, 44.5))
    @settings(max_examples=300)
    def test_partition(self, value, tau):
        # Exactly one band claims each value: re-derive by interval logic.
        got = categorize(value, tau)
        if 90.0 - tau <= value <= 90.0 + tau:
            assert got == "right"
        elif 180.0 - tau <= value <= 180.0 + tau:
            assert got == "straight"
        elif value < 90.0 - tau:
            assert got == "acute"
        elif value < 180.0 - tau:
            assert got == "obtuse"
        else:
            assert got == "reflex"

    def test_tau_out_of_range(self):
        with pytest.raises(ValidationError):
            categorize(90.0, tau=45.0)


class TestOutgoingRay:
    def test_first_shape_point(self):
        city = make_city({"A": (0, 0), "B": (10, 0)}, [("A", "B", [(5, 5)])])
        assert outgoing_ray(city.graph.links[0], city.graph) == P(5, 5)

    def test_no_shape_points_uses_to_node(self):
        city = make_city({"A": (0, 0), "B": (10, 0)}, [("A", "B")])
        assert outgoing_ray(city.graph.links[0], city.graph) == P(10, 0)

    def test_coincident_shape_point_falls_through(self):
        city = make_city({"A": (0, 0), "B": (10, 0)}, [("A", "B", [(0, 0), (3, 4)])])
        assert outgoing_ray(city.graph.links[0], city.graph) == P(3, 4)

    def test_all_coincident_raises(self):
        # End node shares the start coordinates; explicit length keeps the
        # link legal while the geometry stays degenerate.
        city = make_city({"A": (0, 0), "B": (0, 0)}, [("A", "B", [(0, 0)], 1.0)])
        with pytest.raises(DegenerateGeometryError):
            outgoing_ray(city.graph.links[0], city.graph)


class TestNodeAngles:
    def cross(self, bearings):
        nodes = {"o": (0.0, 0.0)}
        links = []
        for i, b in enumerate(bearings):
            rad = math.radians(b)
            nodes[f"t{i}"] = (math.cos(rad) * 10, math.sin(rad) * 10)
            links.append(("o", f"t{i}"))
        return make_city(nodes, links)

    def test_four_way_square(self):
        city = self.cross([0, 90, 180, 270])
        gaps = node_angles(city.graph.nodes["o"], city)
        assert gaps == pytest.approx([90, 90, 90, 90])

    def test_three_way_t(self):
        city = self.cross([0, 90, 180])
        gaps = node_angles(city.graph.nodes["o"], city)
        assert sorted(gaps) == pytest.approx([90, 90, 180])

    def test_three_way_skewed(self):
        city = self.cross([0, 60, 180])
        gaps = node_angles(city.graph.nodes["o"], city)
        assert sorted(gaps) == pytest.approx([60, 120, 180])

    def test_duplicate_bearing_gives_zero_gap(self):
        city = self.cross([0, 0, 180])
        gaps = node_angles(city.graph.nodes["o"], city)
        assert min(gaps) == pytest.approx(0.0, abs=1e-9)
        assert categorize(min(gaps)) == "acute"

    def test_out_degree_below_two_rejected(self):
        city = self.cross([0])
        with pytest.raises(ValidationError):
            node_angles(city.graph.nodes["o"], city)

    def test_gaps_sum_to_360_over_synthetic_corpus(self):
        for kind, rate in (("gridded", 0.2), ("orthogonal", 0.3), ("organic", 0.4)):
            city = generate(
                ArchetypeSpec(kind=kind, size=80, spacing=100.0, jitter=0.02, dead_end_rate=rate, seed=5)
            )
            for node in city.graph.nodes.values():
                if city.graph.out_degree(node.id) >= 2:
                    assert sum(node_angles(node, city)) == pytest.approx(360.0, abs=1e-6)


class TestClassifyPattern:
    def test_degree3_table(self):
        assert classify_pattern([90, 90, 180], 3) == "1"
        assert classify_pattern([60, 120, 180], 3) == "2"
        assert classify_pattern([120, 120, 120], 3) == "3"
        assert classify_pattern([90, 120, 150], 3) == "4"
        assert classify_pattern([70, 130, 160], 3) == "5"
        assert classify_pattern([60, 60, 240], 3) == "6"
        assert classify_pattern([90, 90, 90], 3) == "7"

    def test_degree4_table(self):
        assert classify_pattern([90, 90, 90, 90], 4) == "1"
        assert classify_pattern([70, 110, 70, 110], 4) == "2"
        assert classify_pattern([90, 90, 76, 104], 4) == "3"
        assert classify_pattern([180, 60, 60, 60], 4) == "4"
        assert classify_pattern([191, 60, 60, 49], 4) == "5"
        assert classify_pattern([70, 70, 70, 150], 4) == "6"
        assert classify_pattern([100, 100, 100, 60], 4) == "7"

    def test_total_on_random_circular_partitions(self):
        rng = random.Random(2)
        for degree in (3, 4):
            for _ in range(1000):
                cuts = sorted(rng.uniform(0, 360) for _ in range(degree))
                gaps = [b - a for a, b in zip(cuts, cuts[1:])]
                gaps.append(360.0 - cuts[-1] + cuts[0])
                code = classify_pattern(gaps, degree)
                assert code in {"1", "2", "3", "4", "5", "6", "7"}

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValidationError):
            classify_pattern([90, 90, 90], 4)
        with pytest.raises(ValidationError):
            classify_pattern([180, 180], 2)


class TestPatternCounts:
    def test_grid_10x10(self):
        counts = pattern_counts(make_grid_city(10, 10, 100.0))
        assert counts["d4_t1"] == 1.0
        assert counts["d3_t1"] == 1.0

    def test_single_t_node(self):
        city = make_city(
            {"o": (0, 0), "a": (10, 0), "b": (0, 10), "c": (-10, 0)},
            [("o", "a"), ("o", "b"), ("o", "c")],
        )
        counts = pattern_counts(city)
        assert counts["d3_t1"] == 1.0
        assert all(v == 0.0 for k, v in counts.items() if k.startswith("d4_"))

    def test_city_without_classified_nodes(self):
        city = make_city({"A": (0, 0), "B": (10, 0)}, [("A", "B")])
        counts = pattern_counts(city)
        assert all(v == 0.0 for v in counts.values())

    def test_degenerate_node_lands_in_other(self):
        nodes = {"o": (0.0, 0.0), "a": (0.0, 0.0), "b": (0.0, 0.0), "c": (0.0, 0.0)}
        links = [("o", "a", (), 1.0), ("o", "b", (), 1.0), ("o", "c", (), 1.0)]
        counts = pattern_counts(make_city(nodes, links))
        assert counts["d3_other"] == 1.0

    def test_rotation_leaves_type_codes_unchanged(self):
        city = generate(
            ArchetypeSpec(kind="orthogonal", size=90, spacing=100.0, jitter=0.02, dead_end_rate=0.35, seed=13)
        )
        base = pattern_counts(city)
        for theta in (17.3, 40.0, 111.9, 263.0):
            rotated = pattern_counts(rotate_city(city, theta))
            for key in base:
                assert rotated[key] == pytest.approx(base[key], abs=1e-12)

    def test_degree3_feasibility_over_corpus(self):
        from cityform.geometry import node_angles as angles_of

        for kind, rate, seed in (("gridded", 0.25, 3), ("orthogonal", 0.4, 4), ("organic", 0.45, 5)):
            city = generate(
                ArchetypeSpec(kind=kind, size=100, spacing=100.0, jitter=0.02, dead_end_rate=rate, seed=seed)
            )
            for node in city.graph.nodes.values():
                if city.graph.out_degree(node.id) != 3:
                    continue
                cats = [categorize(v) for v in angles_of(node, city)]
                assert cats.count("straight") <= 1
                assert cats.count("reflex") <= 1


class TestLinkBearing:
    def bearing_of(self, dx, dy):
        city = make_city({"A": (0, 0), "B": (dx, dy)}, [("A", "B")])
        return link_bearing(city.graph.links[0], city.graph)

    def test_cardinal_directions(self):
        assert self.bearing_of(0, 10) == 0.0
        assert self.bearing_of(10, 0) == 90.0
        assert self.bearing_of(-10, 0) == 270.0

    def test_uses_first_shape_point(self):
        city = make_city({"A": (0, 0), "B": (10, 0)}, [("A", "B", [(0, 5)])])
        assert link_bearing(city.graph.links[0], city.graph) == 0.0

    def test_geographic_due_east(self):
        city = make_city({"A": (0, 60), "B": (0.01, 60)}, [("A", "B")], mode="geographic")
        assert link_bearing(city.graph.links[0], city.graph) == pytest.approx(90.0, abs=0.01)

    def test_geographic_due_east_across_the_antimeridian(self):
        city = make_city(
            {"A": (179.9999, 0), "B": (-179.9999, 0)}, [("A", "B")], mode="geographic"
        )
        assert link_bearing(city.graph.links[0], city.graph) == pytest.approx(90.0, abs=1e-9)

    def test_geographic_due_west_across_the_antimeridian(self):
        # 359.9998 degrees east is 0.0002 degrees west.
        city = make_city(
            {"A": (-179.9999, 0), "B": (179.9999, 0)},
            [("A", "B"), ("B", "A")],
            mode="geographic",
        )
        west, east = (link_bearing(link, city.graph) for link in city.graph.links)
        assert (west, east) == (270.0, 90.0)
