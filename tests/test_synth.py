"""Synthetic archetype generators: frozen regressions and invariants."""

import numpy as np
import pytest

from cityform.errors import ValidationError
from cityform.features import assemble_features, bearing_histogram, zscore
from cityform.geometry import pattern_counts
from cityform.graph import GeoPoint, RoadGraph, RoadNode, point_in_polygon
from cityform.synth import ArchetypeSpec, city_boundary, corpus_specs, generate
from cityform.topology import DEGREE_FEATURES, degree_profile, topo_metrics


def spec_for(kind, **overrides):
    base = dict(kind=kind, size=120, spacing=100.0, jitter=0.02, dead_end_rate=0.3, seed=17)
    base.update(overrides)
    return ArchetypeSpec(**base)


class TestSpecValidation:
    def test_size_floor(self):
        with pytest.raises(ValidationError, match="size too small"):
            ArchetypeSpec(kind="gridded", size=8, spacing=100.0)

    def test_bad_kind(self):
        with pytest.raises(ValidationError):
            ArchetypeSpec(kind="radial", size=50, spacing=100.0)

    def test_bad_jitter(self):
        with pytest.raises(ValidationError):
            ArchetypeSpec(kind="gridded", size=50, spacing=100.0, jitter=0.5)

    def test_dead_end_rate_below_one(self):
        with pytest.raises(ValidationError, match=r"dead_end_rate must lie in \[0, 1\), got 1.0"):
            ArchetypeSpec(kind="gridded", size=50, spacing=100.0, dead_end_rate=1.0)

    @pytest.mark.parametrize("spacing", [float("nan"), float("inf")])
    def test_non_finite_spacing(self, spacing):
        with pytest.raises(ValidationError, match="spacing must be positive and finite"):
            ArchetypeSpec(kind="gridded", size=50, spacing=spacing)


class TestGridded:
    def test_jitter_free_grid_is_all_type1(self):
        city = generate(spec_for("gridded", size=100, jitter=0.0, dead_end_rate=0.0))
        counts = pattern_counts(city)
        assert counts["d4_t1"] == 1.0
        assert counts["d3_t1"] == 1.0

    def test_knockouts_create_dead_ends(self):
        city = generate(spec_for("gridded", size=144, jitter=0.0, dead_end_rate=0.3))
        profile = degree_profile(city)
        assert profile["prop_deg1"] > 0.0
        # Nobody fully stranded: no node has out-degree 0.
        assert sum(profile[c] for c in DEGREE_FEATURES) == pytest.approx(1.0, abs=1e-12)


class TestOrthogonal:
    def test_frozen_degree_band_and_modal_type(self):
        city = generate(spec_for("orthogonal", size=140, dead_end_rate=0.3, seed=1))
        profile = degree_profile(city)
        assert 0.2 <= profile["prop_deg1"] <= 0.4
        counts = pattern_counts(city)
        degree3 = {k: v for k, v in counts.items() if k.startswith("d3_")}
        modal = max(degree3, key=degree3.get)
        assert modal == "d3_t1"

    def test_four_way_mix_includes_skewed_crossings(self):
        city = generate(spec_for("orthogonal", size=200, dead_end_rate=0.35, seed=2))
        counts = pattern_counts(city)
        assert counts["d4_t1"] < 1.0
        assert counts["d4_t3"] + counts["d4_t2"] > 0.0


class TestOrganic:
    def test_frozen_orientation_and_pattern_profile(self):
        city = generate(spec_for("organic", size=140, jitter=0.0, dead_end_rate=0.4, seed=3))
        assert bearing_histogram(city)["dominant_bin_count"] <= 1
        counts = pattern_counts(city)
        assert 1.0 - counts["d3_t1"] > 0.5

    def test_has_curved_links_with_shape_points(self):
        city = generate(spec_for("organic", size=60, jitter=0.0, dead_end_rate=0.3))
        assert all(len(l.shape_points) == 1 for l in city.graph.links)


class TestDeterminismAndInvariants:
    def test_same_seed_same_city(self):
        for kind in ("gridded", "orthogonal", "organic"):
            a = generate(spec_for(kind))
            b = generate(spec_for(kind))
            assert [(n.id, n.location) for n in a.graph.nodes.values()] == [
                (n.id, n.location) for n in b.graph.nodes.values()
            ]
            assert [
                (l.id, l.from_node, l.to_node, l.shape_points, l.length_m)
                for l in a.graph.links
            ] == [
                (l.id, l.from_node, l.to_node, l.shape_points, l.length_m)
                for l in b.graph.links
            ]
            assert a.area_km2 == b.area_km2

    def test_different_seeds_differ(self):
        a = generate(spec_for("organic", seed=1))
        b = generate(spec_for("organic", seed=2))
        locations_a = {n.location for n in a.graph.nodes.values()}
        locations_b = {n.location for n in b.graph.nodes.values()}
        assert locations_a != locations_b

    def test_graph_invariants(self):
        for kind in ("gridded", "orthogonal", "organic"):
            city = generate(spec_for(kind))
            graph = city.graph
            assert city.area_km2 > 0
            for link in graph.links:
                assert link.length_m > 0
                assert link.from_node in graph.nodes and link.to_node in graph.nodes
            # Two-way: every street contributes one link each way.
            assert graph.link_count % 2 == 0

    def test_boundary_contains_every_node(self):
        for kind in ("gridded", "orthogonal", "organic"):
            spec = spec_for(kind)
            city = generate(spec)
            boundary = city_boundary(city.graph, spec.spacing, city.city_name)
            for node in city.graph.nodes.values():
                assert point_in_polygon(node.location, boundary)

    def test_boundary_needs_three_distinct_nodes(self):
        # Three nodes, two of them on one spot: no hull to buffer.
        spots = [(0.0, 0.0), (100.0, 0.0), (100.0, 0.0)]
        graph = RoadGraph([RoadNode(f"n{i}", GeoPoint(*p)) for i, p in enumerate(spots)], [], "planar")
        with pytest.raises(ValidationError, match="convex hull needs at least 3 distinct points"):
            city_boundary(graph, 100.0, "pair")

    def test_node_count_tracks_size(self):
        for kind in ("gridded", "orthogonal", "organic"):
            city = generate(spec_for(kind, size=150))
            assert 0.6 * 150 <= city.graph.node_count <= 1.5 * 150


class TestSeparability:
    def test_between_archetype_distance_exceeds_within(self):
        names, rows, kinds = [], [], []
        for name, spec in corpus_specs(10, seed=0, base_size=110):
            city = generate(spec, name=name)
            names.append(name)
            rows.append(
                {**topo_metrics(city), **pattern_counts(city), **bearing_histogram(city)}
            )
            kinds.append(spec.kind)
        matrix = zscore(assemble_features(names, rows, "enhanced"))
        values = matrix.values
        kinds = np.array(kinds)
        within, between = [], []
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                dist = np.linalg.norm(values[i] - values[j])
                (within if kinds[i] == kinds[j] else between).append(dist)
        assert np.mean(between) > np.mean(within)
