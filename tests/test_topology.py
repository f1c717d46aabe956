"""Topology metrics: degree profiles, betweenness, geometric summaries."""

import random

import pytest

from cityform.errors import EmptyCityError
from cityform.graph import CityNetwork, RoadGraph
from cityform.topology import (
    betweenness,
    degree_profile,
    geometric_summaries,
    topo_metrics,
    undirected_edge_lengths,
)

from helpers import brute_force_betweenness, make_city, make_grid_city, random_directed_city


def two_way(links):
    out = []
    for u, v in links:
        out.append((u, v))
        out.append((v, u))
    return out


class TestDegreeProfile:
    def test_star(self):
        city = make_city(
            {"c": (0, 0), "a": (1, 0), "b": (0, 1), "d": (-1, 0)},
            two_way([("c", "a"), ("c", "b"), ("c", "d")]),
        )
        profile = degree_profile(city)
        assert profile.proportions_out["1"] == 0.75
        assert profile.proportions_out["3"] == 0.25
        assert profile.pct_nodes_in_ne_out == 0.0

    def test_single_one_way_link(self):
        city = make_city({"A": (0, 0), "B": (100, 0)}, [("A", "B")])
        profile = degree_profile(city)
        assert profile.proportions_out == {"0": 0.5, "1": 0.5, "2": 0, "3": 0, "4": 0, "5+": 0}
        assert profile.pct_nodes_in_ne_out == 1.0

    def test_grid_5x5(self):
        # 25 nodes: 9 interior (out-degree 4), 12 edge (3), 4 corners (2).
        profile = degree_profile(make_grid_city(5, 5, 100.0))
        assert profile.proportions_out["4"] == pytest.approx(9 / 25)
        assert profile.proportions_out["3"] == pytest.approx(12 / 25)
        assert profile.proportions_out["2"] == pytest.approx(4 / 25)

    def test_proportions_sum_to_one(self):
        rng = random.Random(5)
        for _ in range(10):
            city = random_directed_city(rng, max_nodes=20)
            profile = degree_profile(city)
            assert sum(profile.proportions_out.values()) == pytest.approx(1.0, abs=1e-9)

    def test_in_total_equals_out_total_equals_links(self):
        rng = random.Random(6)
        city = random_directed_city(rng, max_nodes=20)
        graph = city.graph
        out_total = sum(graph.out_degree(n) for n in graph.nodes)
        in_total = sum(graph.in_degree(n) for n in graph.nodes)
        assert out_total == in_total == graph.link_count

    def test_two_way_city_is_balanced(self):
        profile = degree_profile(make_grid_city(4, 4, 50.0))
        assert profile.pct_nodes_in_ne_out == 0.0

    def test_empty_city_error(self):
        empty = CityNetwork("void", RoadGraph([], [], "planar"), 1.0)
        with pytest.raises(EmptyCityError):
            degree_profile(empty)
        with pytest.raises(EmptyCityError):
            betweenness(empty)
        with pytest.raises(EmptyCityError):
            geometric_summaries(empty)


class TestBetweenness:
    def test_directed_path(self):
        city = make_city(
            {"A": (0, 0), "B": (100, 0), "C": (200, 0)},
            [("A", "B"), ("B", "C")],
        )
        result = betweenness(city)
        assert result.per_node_bc["B"] == pytest.approx(1 / 3, abs=1e-12)
        assert result.per_node_bc["A"] == 0.0
        assert result.per_node_bc["C"] == 0.0
        assert result.median_normalized_bc == 0.0

    def test_complete_triangle_all_zero(self):
        city = make_city(
            {"A": (0, 0), "B": (1, 0), "C": (0, 1)},
            two_way([("A", "B"), ("B", "C"), ("C", "A")]),
        )
        result = betweenness(city)
        assert all(v == 0.0 for v in result.per_node_bc.values())

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(42)
        for _ in range(30):
            city = random_directed_city(rng)
            fast = betweenness(city).per_node_bc
            slow = brute_force_betweenness(city)
            for nid in fast:
                assert fast[nid] == pytest.approx(slow[nid], abs=1e-9)

    def test_scaling_invariance(self):
        rng = random.Random(9)
        city = random_directed_city(rng, max_nodes=20)
        scaled_links = [
            (l.from_node, l.to_node, (), l.length_m * 7.3) for l in city.graph.links
        ]
        nodes = {n.id: (n.location.x, n.location.y) for n in city.graph.nodes.values()}
        scaled = make_city(nodes, scaled_links)
        base = betweenness(city).per_node_bc
        after = betweenness(scaled).per_node_bc
        for nid in base:
            assert after[nid] == pytest.approx(base[nid], abs=1e-12)

    def test_median_is_median_of_values(self):
        rng = random.Random(10)
        city = random_directed_city(rng, max_nodes=15)
        result = betweenness(city)
        values = sorted(result.per_node_bc.values())
        n = len(values)
        expected = (
            values[n // 2] if n % 2 else (values[n // 2 - 1] + values[n // 2]) / 2
        )
        assert result.median_normalized_bc == pytest.approx(expected, abs=1e-15)


class TestGeometricSummaries:
    def test_grid_3x3(self):
        city = make_grid_city(3, 3, 100.0, area_km2=0.04)
        summary = geometric_summaries(city)
        assert summary.link_node_ratio == pytest.approx(12 / 9)
        assert summary.mean_link_length_m == pytest.approx(100.0)
        assert summary.network_density_km_per_km2 == pytest.approx(1.2 / 0.04)

    def test_single_one_way_link(self):
        city = make_city({"A": (0, 0), "B": (150, 0)}, [("A", "B")])
        summary = geometric_summaries(city)
        assert summary.mean_link_length_m == pytest.approx(150.0)
        assert summary.link_node_ratio == pytest.approx(0.5)

    def test_opposing_pair_collapses(self):
        city = make_city({"A": (0, 0), "B": (100, 0)}, [("A", "B"), ("B", "A")])
        assert len(undirected_edge_lengths(city)) == 1

    def test_opposing_pair_with_length_gap_stays_split(self):
        city = make_city(
            {"A": (0, 0), "B": (100, 0)},
            [("A", "B", (), 100.0), ("B", "A", (), 103.0)],
        )
        assert len(undirected_edge_lengths(city)) == 2

    def test_shorter_unpaired_backward_link_counts_alone(self):
        city = make_city(
            {"A": (0, 0), "B": (100, 0)},
            [("A", "B", (), 103.0), ("B", "A", (), 100.0), ("B", "A", (), 103.5)],
        )
        # B->A at 100 m pairs with nothing; A->B pairs with B->A at 103.5 m.
        assert undirected_edge_lengths(city) == [100.0, 103.25]

    def test_parallel_duplicates_stay_separate(self):
        city = make_city(
            {"A": (0, 0), "B": (100, 0)},
            [("A", "B", (), 100.0), ("A", "B", (), 100.0), ("B", "A", (), 100.0)],
        )
        # One opposing pair collapses; the duplicate forward link remains.
        assert len(undirected_edge_lengths(city)) == 2

    def test_nodes_without_links(self):
        city = make_city({"A": (0, 0), "B": (1, 1)}, [])
        summary = geometric_summaries(city)
        assert summary.mean_link_length_m == 0.0
        assert summary.link_node_ratio == 0.0


def test_topo_metrics_bundles_everything():
    city = make_grid_city(4, 4, 100.0)
    metrics = topo_metrics(city)
    assert metrics["prop_deg2"] == pytest.approx(4 / 16)
    assert metrics["link_node_ratio"] == pytest.approx(24 / 16)
    assert metrics["median_bc"] > 0.0
