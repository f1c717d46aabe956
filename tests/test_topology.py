"""Topology metrics: degree profiles, betweenness, geometric summaries."""

import dataclasses
import random

import pytest

from cityform.errors import EmptyCityError
from cityform.graph import CityNetwork, RoadGraph
from cityform.synth import ARCHETYPES, corpus_specs, generate
from cityform.topology import (
    DEGREE_FEATURES,
    METRIC_COLUMNS,
    betweenness,
    degree_profile,
    geometric_summaries,
    topo_metrics,
    undirected_edge_lengths,
)

from helpers import (
    brandes_oracle,
    brute_force_betweenness,
    make_city,
    make_grid_city,
    random_appendage_city,
    random_directed_city,
)


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
        assert profile["prop_deg1"] == 0.75
        assert profile["prop_deg3"] == 0.25
        assert profile["pct_in_ne_out"] == 0.0

    def test_single_one_way_link(self):
        city = make_city({"A": (0, 0), "B": (100, 0)}, [("A", "B")])
        profile = degree_profile(city)
        assert profile == {
            "prop_deg1": 0.5,
            "prop_deg2": 0,
            "prop_deg3": 0,
            "prop_deg4": 0,
            "prop_deg5plus": 0,
            "pct_in_ne_out": 1.0,
        }
        # B, a pure sink, has out-degree 0: the one share no column holds.
        assert 1 - sum(profile[c] for c in DEGREE_FEATURES) == 0.5

    def test_grid_5x5(self):
        # 25 nodes: 9 interior (out-degree 4), 12 edge (3), 4 corners (2).
        profile = degree_profile(make_grid_city(5, 5, 100.0))
        assert profile["prop_deg4"] == pytest.approx(9 / 25)
        assert profile["prop_deg3"] == pytest.approx(12 / 25)
        assert profile["prop_deg2"] == pytest.approx(4 / 25)

    def test_proportions_sum_to_one(self):
        rng = random.Random(5)
        for _ in range(10):
            city = random_directed_city(rng, max_nodes=20)
            profile = degree_profile(city)
            graph = city.graph
            sinks = sum(graph.out_degree(n) == 0 for n in graph.nodes) / graph.node_count
            classed = sum(profile[c] for c in DEGREE_FEATURES)
            assert classed + sinks == pytest.approx(1.0, abs=1e-9)

    def test_in_total_equals_out_total_equals_links(self):
        rng = random.Random(6)
        city = random_directed_city(rng, max_nodes=20)
        graph = city.graph
        out_total = sum(graph.out_degree(n) for n in graph.nodes)
        in_total = sum(graph.in_degree(n) for n in graph.nodes)
        assert out_total == in_total == graph.link_count

    def test_two_way_city_is_balanced(self):
        profile = degree_profile(make_grid_city(4, 4, 50.0))
        assert profile["pct_in_ne_out"] == 0.0

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
        assert result["B"] == pytest.approx(1 / 3, abs=1e-12)
        assert result["A"] == 0.0
        assert result["C"] == 0.0
        assert topo_metrics(city)["median_bc"] == 0.0

    def test_complete_triangle_all_zero(self):
        city = make_city(
            {"A": (0, 0), "B": (1, 0), "C": (0, 1)},
            two_way([("A", "B"), ("B", "C"), ("C", "A")]),
        )
        result = betweenness(city)
        assert all(v == 0.0 for v in result.values())

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(42)
        for _ in range(30):
            city = random_directed_city(rng)
            fast = betweenness(city)
            slow = brute_force_betweenness(city)
            for nid in fast:
                assert fast[nid] == pytest.approx(slow[nid], abs=1e-9)

    def test_matches_brute_force_with_tree_appendages(self):
        # Trees, chains, one-way and parallel-link leaves, isolated nodes and
        # whole-tree components, with ties from integer lengths.
        rng = random.Random(2012)
        for _ in range(400):
            city = random_appendage_city(rng)
            fast = betweenness(city)
            slow = brute_force_betweenness(city)
            assert list(fast) == list(city.graph.nodes)
            for nid in fast:
                assert fast[nid] == pytest.approx(slow[nid], abs=1e-9)

    @pytest.mark.parametrize("kind", ARCHETYPES)
    def test_matches_plain_brandes_on_a_synthetic_city(self, kind):
        _, spec = corpus_specs(1, seed=0, base_size=400)[ARCHETYPES.index(kind)]
        city = generate(dataclasses.replace(spec, size=400))
        assert degree_profile(city)["prop_deg1"] > 0.05  # dead ends to prune
        fast = betweenness(city)
        slow = brandes_oracle(city)
        assert list(fast) == list(slow)
        for nid in fast:
            assert abs(fast[nid] - slow[nid]) <= 1e-12 * abs(slow[nid])

    def test_scaling_invariance(self):
        rng = random.Random(9)
        city = random_directed_city(rng, max_nodes=20)
        scaled_links = [
            (l.from_node, l.to_node, (), l.length_m * 7.3) for l in city.graph.links
        ]
        nodes = {n.id: (n.location.x, n.location.y) for n in city.graph.nodes.values()}
        scaled = make_city(nodes, scaled_links)
        base = betweenness(city)
        after = betweenness(scaled)
        for nid in base:
            assert after[nid] == pytest.approx(base[nid], abs=1e-12)

    def test_median_is_median_of_values(self):
        rng = random.Random(10)
        city = random_directed_city(rng, max_nodes=15)
        values = sorted(betweenness(city).values())
        n = len(values)
        expected = (
            values[n // 2] if n % 2 else (values[n // 2 - 1] + values[n // 2]) / 2
        )
        assert topo_metrics(city)["median_bc"] == pytest.approx(expected, abs=1e-15)


# Four nodes; every link is 100 m long.
_NODES = {name: (100.0 * i, 0.0) for i, name in enumerate("ABCD")}


@pytest.mark.parametrize(
    "links, expected",
    [
        (two_way([("A", "B"), ("B", "C"), ("C", "D")]), {"A": 0, "B": 1, "C": 1, "D": 0}),
        # B is the centre: 3 * 2 ordered leaf pairs over n = 4.
        (two_way([("B", "A"), ("B", "C"), ("B", "D")]), {"A": 0, "B": 1.5, "C": 0, "D": 0}),
        (two_way([("A", "B")]), {"A": 0, "B": 0, "C": 0, "D": 0}),
        # D is joined to C one way only, in or out: it is never pruned.
        (two_way([("A", "B"), ("B", "C")]) + [("C", "D")], {"A": 0, "B": 0.75, "C": 0.5, "D": 0}),
        (two_way([("A", "B"), ("B", "C")]) + [("D", "C")], {"A": 0, "B": 0.75, "C": 0.5, "D": 0}),
        # D hangs at A by two links out and one in: A is on all of D's pairs.
        (
            two_way([("A", "B"), ("B", "C"), ("C", "A")]) + [("D", "A"), ("D", "A"), ("A", "D")],
            {"A": 1, "B": 0, "C": 0, "D": 0},
        ),
    ],
    ids=["two-way-path", "star", "two-node-pair", "one-way-in-leaf", "one-way-out-leaf",
         "parallel-link-leaf"],
)
def test_betweenness_on_tree_cases(links, expected):
    city = make_city(_NODES, [(u, v, (), 100.0) for u, v in links])
    result = betweenness(city)
    assert result == pytest.approx(expected, abs=1e-12)
    assert result == pytest.approx(brute_force_betweenness(city), abs=1e-12)


# Shortest-path ties: D is reached from A over B and over C, so its sole
# predecessor becomes a list of two; with B3, a list of three. The second
# path is longer by `excess` (relative to the 200 m path): 1e-13 is within
# the tie tolerance, 1e-11 is not. B's link to D is the longer one, so from A
# the longer path is found first and the shorter one ties with or replaces
# it; from D it is found second.
def _diamond(excess):
    nodes = {"A": (0, 0), "B": (100, 100), "C": (100, -100), "D": (200, 0)}
    lengths = {("A", "B"): 100.0, ("B", "D"): 100.0 + 200.0 * excess,
               ("A", "C"): 100.0, ("C", "D"): 100.0}
    links = [(u, v, (), length) for (a, b), length in lengths.items() for u, v in ((a, b), (b, a))]
    return make_city(nodes, links)


def _three_paths():
    nodes = {"A": (0, 0), "B1": (100, 100), "B2": (100, 0), "B3": (100, -100), "D": (200, 0)}
    links = [(u, v, (), 100.0) for b in ("B1", "B2", "B3") for u, v in two_way([("A", b), (b, "D")])]
    return make_city(nodes, links)


@pytest.mark.parametrize(
    "city, expected",
    [
        # A 4-cycle: each node is on one of the two paths between its
        # neighbours, both ways: 2 * 1/2 over n = 4.
        (_diamond(0.0), {"A": 0.25, "B": 0.25, "C": 0.25, "D": 0.25}),
        # A and D are on half the paths between two Bs (6 ordered pairs,
        # 3 / 5); each B is on a third of the A-D paths (2/3 / 5).
        (_three_paths(), {"A": 0.6, "D": 0.6, "B1": 2 / 15, "B2": 2 / 15, "B3": 2 / 15}),
        (_diamond(1e-13), {"A": 0.25, "B": 0.25, "C": 0.25, "D": 0.25}),
        # No tie: A-D runs over C and B-C over A, both ways.
        (_diamond(1e-11), {"A": 0.5, "B": 0.0, "C": 0.5, "D": 0.0}),
    ],
    ids=["two-paths", "three-paths", "within-tie-tolerance", "outside-tie-tolerance"],
)
def test_betweenness_on_tied_paths(city, expected):
    result = betweenness(city)
    assert result == pytest.approx(expected, abs=1e-12)
    assert result == pytest.approx(brute_force_betweenness(city), abs=1e-9)


def test_betweenness_near_tie_is_neither_tie_nor_improvement():
    # From s, w is first reached over a at dw, then over b at c, where
    # c = fl(dw - 1e-12 * dw): c < dw but outside the tie tolerance by
    # rounding, and not below dw - 1e-12 * dw either, so a stays w's sole
    # predecessor.
    dw, c = 84743.52625998633, 84743.52625990158
    nodes = {"s": (0, 0), "a": (1, 1), "b": (1, -1), "w": (2, 0)}
    lengths = {("s", "a"): 1.0, ("a", "w"): dw - 1.0, ("s", "b"): 2.0, ("b", "w"): c - 2.0}
    city = make_city(nodes, [(u, v, (), length) for (u, v), length in lengths.items()])
    result = betweenness(city)
    assert result == {"s": 0.0, "a": 0.25, "b": 0.0, "w": 0.0}
    assert result == pytest.approx(brandes_oracle(city), abs=1e-12)


class TestGeometricSummaries:
    def test_grid_3x3(self):
        city = make_grid_city(3, 3, 100.0, area_km2=0.04)
        summary = geometric_summaries(city)
        assert summary["link_node_ratio"] == pytest.approx(12 / 9)
        assert summary["mean_link_length_m"] == pytest.approx(100.0)
        assert summary["density_km_per_km2"] == pytest.approx(1.2 / 0.04)

    def test_single_one_way_link(self):
        city = make_city({"A": (0, 0), "B": (150, 0)}, [("A", "B")])
        summary = geometric_summaries(city)
        assert summary["mean_link_length_m"] == pytest.approx(150.0)
        assert summary["link_node_ratio"] == pytest.approx(0.5)

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
        assert summary["mean_link_length_m"] == 0.0
        assert summary["link_node_ratio"] == 0.0


def test_topo_metrics_bundles_everything():
    city = make_grid_city(4, 4, 100.0)
    metrics = topo_metrics(city)
    assert metrics["prop_deg2"] == pytest.approx(4 / 16)
    assert metrics["link_node_ratio"] == pytest.approx(24 / 16)
    assert metrics["median_bc"] > 0.0


@pytest.mark.parametrize(
    "city",
    [
        make_grid_city(4, 4, 100.0),
        make_city({"A": (0, 0), "B": (100, 0), "C": (100, 100)}, [("A", "B"), ("B", "C")]),
    ],
    ids=["two-way-grid", "one-way"],
)
def test_topo_metrics_keys_are_the_metric_columns(city):
    assert sorted(topo_metrics(city)) == sorted(METRIC_COLUMNS)
