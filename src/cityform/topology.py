"""Topological metrics: degree mix, betweenness centrality, density ratios.

Betweenness runs on the directed graph with link lengths as weights and is
normalized by the city's node count. Link-node ratio, network density, and
mean link length use an undirected edge set in which opposing directed
links between the same endpoints (lengths within 1 m) collapse into one
street.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import EmptyCityError
from .graph import CityNetwork

DEGREE_CLASSES = ("1", "2", "3", "4", "5+")
DEGREE_FEATURES = tuple(f"prop_deg{c}".replace("5+", "5plus") for c in DEGREE_CLASSES)
# metrics.csv columns, one row per city from ``topo_metrics``.
METRIC_COLUMNS = DEGREE_FEATURES + (
    "median_bc",
    "link_node_ratio",
    "density_km_per_km2",
    "mean_link_length_m",
    "pct_in_ne_out",
)

# Relative tolerance for "two path lengths are equal" during shortest-path
# counting; keeps tie detection stable under float summation order.
_TIE_REL_TOL = 1e-12

# Opposing directed links collapse into one street when their lengths agree
# within this many meters.
_OPPOSING_LENGTH_TOL_M = 1.0


@dataclass(frozen=True)
class DegreeProfile:
    """Fractions of nodes per out-degree class, and the share of nodes whose
    in-degree differs from their out-degree.

    Degrees of 5 and above pool into the "5+" class. A "0" class exists so
    the proportions always sum to 1 even on one-way graphs with pure
    sinks.
    """

    proportions_out: dict[str, float]
    pct_nodes_in_ne_out: float


@dataclass(frozen=True)
class CentralitySummary:
    median_normalized_bc: float
    per_node_bc: dict[str, float]


@dataclass(frozen=True)
class GeometrySummary:
    link_node_ratio: float
    network_density_km_per_km2: float
    mean_link_length_m: float


def _degree_class(degree: int) -> str:
    if degree >= 5:
        return "5+"
    return str(degree)


def degree_profile(city: CityNetwork) -> DegreeProfile:
    """Out-degree class proportions and the share of unbalanced nodes."""
    graph = city.graph
    n = graph.node_count
    if n == 0:
        raise EmptyCityError(f"city {city.city_name!r} has no nodes")
    out_counts: dict[str, int] = {}
    unbalanced = 0
    for node_id in graph.nodes:
        out_deg = graph.out_degree(node_id)
        out_counts[_degree_class(out_deg)] = out_counts.get(_degree_class(out_deg), 0) + 1
        if out_deg != graph.in_degree(node_id):
            unbalanced += 1
    classes = ("0",) + DEGREE_CLASSES
    return DegreeProfile(
        proportions_out={c: out_counts.get(c, 0) / n for c in classes},
        pct_nodes_in_ne_out=unbalanced / n,
    )


def betweenness(city: CityNetwork) -> CentralitySummary:
    """Length-weighted betweenness on the directed graph, normalized by n.

    For node i, BC(i) = (1/n) * sum over ordered pairs (a, b) with
    a != b != i of (shortest a->b paths through i) / (shortest a->b paths).
    Unconnected pairs contribute zero. Uses Brandes-style dependency
    accumulation over per-source Dijkstra trees.
    """
    graph = city.graph
    n = graph.node_count
    if n == 0:
        raise EmptyCityError(f"city {city.city_name!r} has no nodes")
    ids = list(graph.nodes)
    index = {nid: i for i, nid in enumerate(ids)}
    adjacency: list[list[tuple[int, float]]] = [
        [(index[link.to_node], link.length_m) for link in graph.out_links(nid)]
        for nid in ids
    ]

    bc = [0.0] * n
    inf = float("inf")
    for source in range(n):
        dist = [inf] * n
        sigma = [0.0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        settled = [False] * n
        order: list[int] = []
        dist[source] = 0.0
        sigma[source] = 1.0
        heap: list[tuple[float, int]] = [(0.0, source)]
        while heap:
            d, v = heappop(heap)
            if settled[v]:
                continue
            settled[v] = True
            order.append(v)
            for w, weight in adjacency[v]:
                if settled[w]:
                    continue
                candidate = d + weight
                tol = _TIE_REL_TOL * max(candidate, dist[w]) if dist[w] < inf else 0.0
                if candidate < dist[w] - tol:
                    dist[w] = candidate
                    sigma[w] = sigma[v]
                    preds[w] = [v]
                    heappush(heap, (candidate, w))
                elif abs(candidate - dist[w]) <= tol:
                    sigma[w] += sigma[v]
                    preds[w].append(v)

        delta = [0.0] * n
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != source:
                bc[w] += delta[w]

    per_node = {nid: bc[index[nid]] / n for nid in ids}
    return CentralitySummary(
        median_normalized_bc=statistics.median(per_node.values()),
        per_node_bc=per_node,
    )


def undirected_edge_lengths(city: CityNetwork) -> list[float]:
    """Lengths of the collapsed undirected edge set.

    Directed links sharing endpoints in opposite directions pair up when
    their lengths agree within 1 m; each pair counts once (mean length).
    Unpaired links, including one-way streets and parallel duplicates,
    count individually.
    """
    graph = city.graph
    forward: dict[tuple[str, str], list[float]] = {}
    backward: dict[tuple[str, str], list[float]] = {}
    for link in graph.links:
        if link.from_node <= link.to_node:
            forward.setdefault((link.from_node, link.to_node), []).append(link.length_m)
        else:
            backward.setdefault((link.to_node, link.from_node), []).append(link.length_m)

    lengths: list[float] = []
    # Sorted, so the float sums downstream do not follow PYTHONHASHSEED.
    for key in sorted(set(forward) | set(backward)):
        fwd = sorted(forward.get(key, []))
        bwd = sorted(backward.get(key, []))
        i = j = 0
        while i < len(fwd) and j < len(bwd):
            if abs(fwd[i] - bwd[j]) <= _OPPOSING_LENGTH_TOL_M:
                lengths.append((fwd[i] + bwd[j]) / 2.0)
                i += 1
                j += 1
            elif fwd[i] < bwd[j]:
                lengths.append(fwd[i])
                i += 1
            else:
                lengths.append(bwd[j])
                j += 1
        lengths.extend(fwd[i:])
        lengths.extend(bwd[j:])
    return lengths


def geometric_summaries(city: CityNetwork) -> GeometrySummary:
    """Link-node ratio, street density (km/km^2), and mean street length."""
    graph = city.graph
    if graph.node_count == 0:
        raise EmptyCityError(f"city {city.city_name!r} has no nodes")
    lengths = undirected_edge_lengths(city)
    total_km = sum(lengths) / 1000.0
    return GeometrySummary(
        link_node_ratio=len(lengths) / graph.node_count,
        network_density_km_per_km2=total_km / city.area_km2,
        mean_link_length_m=sum(lengths) / len(lengths) if lengths else 0.0,
    )


def topo_metrics(city: CityNetwork) -> dict[str, float]:
    """All topological metrics for one city, keyed by ``METRIC_COLUMNS``."""
    degrees = degree_profile(city)
    centrality = betweenness(city)
    geometry = geometric_summaries(city)
    return {
        **{name: degrees.proportions_out[c] for name, c in zip(DEGREE_FEATURES, DEGREE_CLASSES)},
        "median_bc": centrality.median_normalized_bc,
        "link_node_ratio": geometry.link_node_ratio,
        "density_km_per_km2": geometry.network_density_km_per_km2,
        "mean_link_length_m": geometry.mean_link_length_m,
        "pct_in_ne_out": degrees.pct_nodes_in_ne_out,
    }
