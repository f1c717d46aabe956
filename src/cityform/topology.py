"""Topological metrics: degree mix, betweenness centrality, density ratios.

Betweenness runs on the directed graph with link lengths as weights and is
normalized by the city's node count. It is exact, but Brandes' algorithm
runs on the street core only: the dead-end trees hanging off it are pruned
first and added back in closed form (Baglioni et al. 2012, "Fast exact
computation of betweenness centrality in social networks"), with their
sizes carried as node weights (Brandes 2008, "On variants of shortest-path
betweenness centrality", Social Networks 30(2)).

Link-node ratio, network density, and mean link length use an undirected
edge set in which opposing directed links between the same endpoints
(lengths within 1 m) collapse into one street.
"""

from __future__ import annotations

import statistics
from heapq import heappop, heappush

from .errors import EmptyCityError
from .graph import CityNetwork

# Share of nodes with out-degree 1, 2, 3, 4 and 5 or more.
DEGREE_FEATURES = ("prop_deg1", "prop_deg2", "prop_deg3", "prop_deg4", "prop_deg5plus")
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


def degree_profile(city: CityNetwork) -> dict[str, float]:
    """Out-degree shares (``DEGREE_FEATURES``) and the share of nodes whose
    in-degree differs from their out-degree (``pct_in_ne_out``).

    Nodes with out-degree 0, pure sinks on one-way graphs, fall in no class.
    """
    graph = city.graph
    n = graph.node_count
    if n == 0:
        raise EmptyCityError(f"city {city.city_name!r} has no nodes")
    out_counts = [0] * len(DEGREE_FEATURES)
    unbalanced = 0
    for node_id in graph.nodes:
        out_deg = graph.out_degree(node_id)
        if out_deg > 0:
            out_counts[min(out_deg, len(DEGREE_FEATURES)) - 1] += 1
        if out_deg != graph.in_degree(node_id):
            unbalanced += 1
    return {
        **{name: count / n for name, count in zip(DEGREE_FEATURES, out_counts)},
        "pct_in_ne_out": unbalanced / n,
    }


def _prune_trees(
    adjacency: list[list[tuple[int, float]]],
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Strip the dead-end trees hanging off the graph, leaves first.

    A node is a leaf when it has one neighbour left and links run both
    ways between them; each leaf is pruned into that neighbour, its
    parent, until none is left. A tree that is a whole component keeps one
    node in the core. Returns ``parent`` (-1 for core nodes), ``size``
    (nodes in the subtree at each node, itself included: w(u) at a core
    node u), ``squares`` (the sum of its pruned children's squared sizes)
    and the pruned nodes in pruning order, so every child precedes its
    parent.
    """
    n = len(adjacency)
    # links[v][u]: bit 1 when a link runs v -> u, bit 2 when one runs u -> v.
    links: list[dict[int, int]] = [{} for _ in range(n)]
    for v, out in enumerate(adjacency):
        for u, _ in out:
            links[v][u] = links[v].get(u, 0) | 1
            links[u][v] = links[u].get(v, 0) | 2
    degree = [len(neighbours) for neighbours in links]
    parent = [-1] * n
    size = [1] * n
    squares = [0] * n
    pruned: list[int] = []
    stack = [v for v in range(n) if degree[v] == 1]
    while stack:
        v = stack.pop()
        if degree[v] != 1:  # its last neighbour was pruned into it
            continue
        u, both = next((u, both) for u, both in links[v].items() if parent[u] < 0)
        if both != 3:  # a one-way leaf only reaches u or is only reached: keep it
            continue
        parent[v] = u
        pruned.append(v)
        size[u] += size[v]
        squares[u] += size[v] * size[v]
        degree[u] -= 1
        if degree[u] == 1:
            stack.append(u)
    return parent, size, squares, pruned


def betweenness(city: CityNetwork) -> dict[str, float]:
    """Length-weighted betweenness of each node id, normalized by n.

    For node i, BC(i) = (1/n) * sum over ordered pairs (a, b) with
    a != b != i of (shortest a->b paths through i) / (shortest a->b paths).
    Unconnected pairs contribute zero.

    Exact tree-appendage pruning (Baglioni et al. 2012, "Fast exact
    computation of betweenness centrality in social networks"): the dead-end
    trees are stripped first (``_prune_trees``), and each core node u
    carries the w(u) nodes of the tree hanging at it. Node-weighted Brandes
    (Brandes 2008, "On variants of shortest-path betweenness centrality")
    then runs from the core sources over the core graph: the Dijkstra tree
    of source s accumulates delta(v) += sigma(v)/sigma(x) * (w(x) + delta(x))
    and adds w(s) * delta(x) to each x != s. A tree member leaves its tree
    only through the root, along the one tree path, so the pairs with an
    end inside a tree add closed-form terms built from subtree sizes and
    the weighted reach out(u) and in(u) of each root: the sums of w(b) over
    core nodes b != u that u reaches and that reach u. A core node u with
    t = w(u) - 1 gains t^2 - sum_c size(c)^2 + t * (out(u) + in(u)), c
    running over its pruned children; a pruned node i with root u and
    d = size(i) - 1 gains d^2 - sum_c size(c)^2
    + d * (2 * (w(u) - size(i)) + out(u) + in(u)).
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
    parent, size, squares, pruned = _prune_trees(adjacency)

    # The core keeps the graph's node order and each node's link order.
    core = [v for v in range(n) if parent[v] < 0]
    position = {v: i for i, v in enumerate(core)}
    core_adjacency = [
        [(position[u], length) for u, length in adjacency[v] if parent[u] < 0]
        for v in core
    ]
    weight = [float(size[v]) for v in core]
    m = len(core)
    bc = [0.0] * m
    reach_in = [0.0] * m
    reach_out = [0.0] * m
    inf = float("inf")
    rel = _TIE_REL_TOL
    pop, push = heappop, heappush
    for source in range(m):
        dist = [inf] * m
        sigma = [0.0] * m
        # A node's predecessors: None before it is reached, the index of its
        # sole predecessor while it has one, a list from its first tie on.
        preds: list[int | list[int] | None] = [None] * m
        settled = [False] * m
        order: list[int] = []
        dist[source] = 0.0
        sigma[source] = 1.0
        heap: list[tuple[float, int]] = [(0.0, source)]
        while heap:
            d, v = pop(heap)
            if settled[v]:
                continue
            settled[v] = True
            order.append(v)
            sigma_v = sigma[v]
            for w, length in core_adjacency[v]:
                if settled[w]:
                    continue
                candidate = d + length
                dw = dist[w]
                # The tie rule is |candidate - dw| <= rel * max(candidate, dw)
                # and an improvement is candidate < dw - rel * max(candidate, dw),
                # split by which side is larger so that each branch evaluates
                # the same float expressions. candidate >= dw (dw finite):
                # the max is candidate, and dw - rel * candidate <= dw rules out
                # an improvement. candidate < dw: the max is dw; when dw is inf
                # every candidate improves, and the test below would read
                # inf - rel * inf, which is NaN. fl(dw - candidate) equals
                # |fl(candidate - dw)|, since rounding is symmetric. A sum that
                # overflows to inf against an unreached inf makes inf - inf,
                # NaN: no tie, as before.
                if candidate >= dw:
                    if not candidate - dw <= rel * candidate:
                        continue
                elif dw == inf or candidate < dw - rel * dw:
                    dist[w] = candidate
                    sigma[w] = sigma_v
                    preds[w] = v
                    push(heap, (candidate, w))
                    continue
                elif dw - candidate > rel * dw:
                    continue
                sigma[w] += sigma_v
                p = preds[w]
                if p.__class__ is int:
                    preds[w] = [p, v]
                else:
                    p.append(v)

        # The source is settled first and has no predecessors, so the sweep
        # stops short of it. A sole predecessor p of x set sigma[x] to
        # sigma[p] and nothing added to it since, so sigma[p] / sigma[x] is
        # exactly 1.0 and multiplying by it changes nothing: the term is
        # added as it stands. A tied x keeps the ratio.
        delta = [0.0] * m
        source_weight = weight[source]
        for x in order[:0:-1]:
            p = preds[x]
            flow = weight[x] + delta[x]
            if p.__class__ is int:
                delta[p] += flow
            else:
                sigma_x = sigma[x]
                for v in p:
                    delta[v] += sigma[v] / sigma_x * flow
            bc[x] += source_weight * delta[x]
            reach_in[x] += source_weight
        # Integer-valued weights: the sum is exact in any order.
        reach_out[source] = sum([weight[x] for x in order[1:]])

    total = [0.0] * n
    root = list(range(n))
    for i, u in enumerate(core):
        t = size[u] - 1
        total[u] = bc[i] + (t * t - squares[u] + t * (reach_out[i] + reach_in[i]))
    # Parents are pruned after their children, so walk back to the roots.
    for v in reversed(pruned):
        u = root[v] = root[parent[v]]
        d = size[v] - 1
        i = position[u]
        total[v] = d * d - squares[v] + d * (
            2 * (size[u] - size[v]) + reach_out[i] + reach_in[i]
        )
    return {nid: total[i] / n for i, nid in enumerate(ids)}


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


def geometric_summaries(city: CityNetwork) -> dict[str, float]:
    """Link-node ratio, street density (km/km^2), and mean street length."""
    graph = city.graph
    if graph.node_count == 0:
        raise EmptyCityError(f"city {city.city_name!r} has no nodes")
    lengths = undirected_edge_lengths(city)
    total_km = sum(lengths) / 1000.0
    return {
        "link_node_ratio": len(lengths) / graph.node_count,
        "density_km_per_km2": total_km / city.area_km2,
        "mean_link_length_m": sum(lengths) / len(lengths) if lengths else 0.0,
    }


def topo_metrics(city: CityNetwork) -> dict[str, float]:
    """All topological metrics for one city, keyed by ``METRIC_COLUMNS``."""
    return {
        **degree_profile(city),
        "median_bc": statistics.median(betweenness(city).values()),
        **geometric_summaries(city),
    }
