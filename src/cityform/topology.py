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

import numpy as np

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

# A source runs the scalar loop when a node has an alternative link within this
# relative margin of its distance: 1000 times the tie tolerance, past rounding.
_TIE_SCREEN_REL = 1e-9

# The batch path runs max(1, _BATCH_CELLS // m) sources of an m-node core at
# once, so that its arrays hold about this many (source, node) cells.
_BATCH_CELLS = 16384
# The tie screen takes a batch's sources in chunks of about this many (source,
# link) cells: screening a whole batch at once added 0.7 MB to peak RSS.
_SCREEN_CELLS = 4096

# Opposing links collapse into one street when their lengths agree within this many meters.
_OPPOSING_LENGTH_TOL_M = 1.0


def _node_count(city: CityNetwork) -> int:
    if city.is_empty:
        raise EmptyCityError(f"city {city.city_name!r} has no nodes")
    return city.graph.node_count


def degree_profile(city: CityNetwork) -> dict[str, float]:
    """Out-degree shares (``DEGREE_FEATURES``) and the share of nodes whose
    in-degree differs from their out-degree (``pct_in_ne_out``).

    Nodes with out-degree 0, pure sinks on one-way graphs, fall in no class.
    """
    graph = city.graph
    n = _node_count(city)
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
    then runs from the core sources over the core graph: the shortest-path
    DAG of source s accumulates delta(v) += sigma(v)/sigma(x) * (w(x) + delta(x))
    and adds w(s) * delta(x) to each x != s. A tree member leaves its tree
    only through the root, along the one tree path, so the pairs with an
    end inside a tree add closed-form terms built from subtree sizes and
    the weighted reach out(u) and in(u) of each root: the sums of w(b) over
    core nodes b != u that u reaches and that reach u. A core node u with
    t = w(u) - 1 gains t^2 - sum_c size(c)^2 + t * (out(u) + in(u)), c
    running over its pruned children; a pruned node i with root u and
    d = size(i) - 1 gains d^2 - sum_c size(c)^2
    + d * (2 * (w(u) - size(i)) + out(u) + in(u)).

    The sources run in batches of max(1, ``_BATCH_CELLS`` // m) over an
    m-node core (``_tree_rows``): label-correcting rounds in numpy find
    every source's distances at once, the one shortest-path search. From a
    source whose shortest paths are unique every sigma is 1 and each
    w(s) * delta(x) an exact integer float, so subtree sums give plain
    Brandes' floats bit for bit. A source the tie screen (``_ties``) flags
    runs the scalar counting loop (``_brandes_source``) in the batch's
    distance order instead. The rows go into bc in source order.
    """
    graph = city.graph
    n = _node_count(city)
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
    m = len(core)
    weight = np.array([float(size[v]) for v in core])
    bc, reach_in, reach_out = np.zeros((3, m))
    links = _core_links(core_adjacency)
    batch = max(1, _BATCH_CELLS // m)
    for first in range(0, m, batch):
        sources = np.arange(first, min(first + batch, m))
        rows, reached = _tree_rows(sources, links, weight, core_adjacency)
        # Ties do not change reach, and integer-valued weights sum exactly in any order.
        reach_in += (reached * weight[sources, None]).sum(axis=0)
        reach_out[sources] = (reached * weight).sum(axis=1)
        # Source by source, in source order, like the scalar loop: once a
        # tied source makes bc fractional, the order of its sums matters.
        for row in rows:
            bc += row

    bc, reach_in, reach_out = bc.tolist(), reach_in.tolist(), reach_out.tolist()
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


# The core's links in CSR form: ``indptr``, heads, tails and lengths.
_Links = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _core_links(core_adjacency: list[list[tuple[int, float]]]) -> _Links:
    """The core's links in CSR form, in each node's link order."""
    degree = [len(out) for out in core_adjacency]
    indptr = np.zeros(len(core_adjacency) + 1, dtype=np.intp)
    np.cumsum(degree, out=indptr[1:])
    heads = np.array([u for out in core_adjacency for u, _ in out], dtype=np.intp)
    lengths = np.array([length for out in core_adjacency for _, length in out], dtype=float)
    tails = np.repeat(np.arange(len(core_adjacency)), degree)
    return indptr, heads, tails, lengths


def _tree_rows(
    sources: np.ndarray, links: _Links, weight: np.ndarray,
    core_adjacency: list[list[tuple[int, float]]],
) -> tuple[np.ndarray, np.ndarray]:
    """Brandes' rows for a batch of sources, from trees found together.

    Returns, one row per source, its bc row ``weight[s] * delta`` and its
    mask of reached nodes other than s. A tied source's bc row comes from
    ``_brandes_source``, in the settle order of ``_settle_orders``."""
    m = len(weight)
    dist, link = _shortest_path_links(sources, links)
    tied = _ties(dist, link, links)
    reached = link >= 0  # other than the source
    child = np.flatnonzero(reached)
    above = np.arange(reached.size)  # each cell's parent cell, a root's own
    above[child] = child - child % m + links[2][link.ravel()[child]]
    orders = _settle_orders(dist, tied, above, links) if tied.any() else []
    del dist, link  # the subtree pass needs neither

    # Distances rise strictly along the tree links of a tie-free source, so
    # subtree weight sums go level by level of hop depth, children first:
    # integer-valued, so exact in any order.
    tree = reached & ~tied[:, None]
    depth = _hops(above, tree.ravel())
    subtree = np.tile(weight, len(sources))
    order = np.argsort(depth)
    ends = np.cumsum(np.bincount(depth))
    for level in range(len(ends) - 1, 0, -1):
        cells = order[ends[level - 1]:ends[level]]
        np.add.at(subtree, above[cells], subtree[cells])
    rows = subtree.reshape(tree.shape)
    rows -= weight
    rows *= weight[sources, None]
    rows[~tree] = 0.0
    for b, settle in zip(np.flatnonzero(tied).tolist(), orders):
        rows[b] = weight[sources[b]] * _brandes_source(settle, core_adjacency, weight.tolist())
    return rows, reached


def _hops(above: np.ndarray, step: np.ndarray) -> np.ndarray:
    """The cells of ``step``, no root among them, on each cell's path up ``above``."""
    hops = step.astype(np.intp)
    while not (above[above] == above).all():
        hops += hops[above]
        above = above[above]
    return hops


def _settle_orders(
    dist: np.ndarray, tied: np.ndarray, above: np.ndarray, links: _Links
) -> list[list[int]]:
    """Each tied source's reached nodes by distance, equal ones in node
    order (a stable sort), as Dijkstra's (distance, node) heap pops them. A
    node that no link from a nearer node reaches at its distance, only an
    absorbed tree link, follows its tree parent, which has to push it first."""
    cells = np.arange(dist.size)
    late = (dist.ravel()[above] == dist.ravel()) & (above != cells)  # over an absorbed link
    if late.any():  # and over no link from a nearer node
        _, heads, tails, lengths = links
        tail_dist, head_dist = dist[:, tails], dist[:, heads]
        rows, entries = np.nonzero((tail_dist < head_dist) & (tail_dist + lengths == head_dist))
        late[rows * dist.shape[1] + heads[entries]] = False
    level = _hops(np.where(late, above, cells), late).reshape(dist.shape)
    orders = np.lexsort((level[tied], dist[tied])).tolist()
    return [order[:k] for order, k in zip(orders, np.isfinite(dist[tied]).sum(axis=1).tolist())]


def _shortest_path_links(sources: np.ndarray, links: _Links) -> tuple[np.ndarray, np.ndarray]:
    """Distances from each source of a batch, and the CSR position of the
    link that set each one (-1 at the source and where unreached).

    Cell b * m + v is node v seen from the batch's b-th source. Label-
    correcting rounds relax the links out of the cells that changed.
    """
    indptr, heads, _, lengths = links
    m = len(indptr) - 1
    degree = np.diff(indptr)
    dist = np.full(len(sources) * m, np.inf)
    link = np.full(len(sources) * m, -1, dtype=np.intp)
    changed = np.zeros(len(sources) * m, dtype=bool)
    frontier = np.arange(len(sources)) * m + sources
    dist[frontier] = 0.0
    while frontier.size:
        node = frontier % m
        deg = degree[node]
        ends = np.cumsum(deg)
        pos = np.repeat(indptr[node] + deg - ends, deg) + np.arange(ends[-1])
        target = np.repeat(frontier - node, deg) + heads[pos]
        candidate = np.repeat(dist[frontier], deg) + lengths[pos]
        better = candidate < dist[target]
        target, candidate, pos = target[better], candidate[better], pos[better]
        # Of equal winners one link is kept; the tie screen flags the rest.
        np.minimum.at(dist, target, candidate)
        won = candidate == dist[target]
        target = target[won]
        link[target] = pos[won]
        changed[target] = True
        frontier = np.flatnonzero(changed)
        changed[frontier] = False
    return dist.reshape(-1, m), link.reshape(-1, m)


def _ties(dist: np.ndarray, link: np.ndarray, links: _Links) -> np.ndarray:
    """Which sources of a batch the tree path must leave to the scalar loop.

    A source ties when a tree link's length is absorbed, leaving a node at
    its parent's distance, or when a link other than a node's tree link, a
    parallel copy included, comes within ``_TIE_SCREEN_REL`` of the node's
    distance. Unreached ends give inf - inf, which compares false.
    """
    _, heads, tails, lengths = links
    tied = np.zeros(len(dist), dtype=bool)
    every = np.arange(len(heads))
    step = max(1, _SCREEN_CELLS // max(1, len(heads)))
    for first in range(0, len(dist), step):
        rows = slice(first, first + step)
        head_dist = dist[rows, heads]
        slack = dist[rows, tails]
        in_tree = link[rows, heads] == every
        tie = in_tree & (slack == head_dist)
        slack += lengths
        with np.errstate(invalid="ignore"):
            slack -= head_dist
        head_dist *= _TIE_SCREEN_REL
        tie |= ~in_tree & (slack <= head_dist)
        tied[rows] = tie.any(axis=1)
    return tied


def _brandes_source(
    order: list[int], core_adjacency: list[list[tuple[int, float]]], weight: list[float]
) -> np.ndarray:
    """One source of node-weighted Brandes, ties included, settling the nodes
    it reaches in ``order``, the source first. Returns ``delta``, 0 at the
    source and at the nodes it does not reach."""
    m = len(core_adjacency)
    inf = float("inf")
    dist = [inf] * m
    sigma = [0.0] * m
    preds: list[list[int]] = [[] for _ in range(m)]
    settled = [False] * m
    source = order[0]
    dist[source], sigma[source] = 0.0, 1.0
    for v in order:
        settled[v] = True
        d = dist[v]
        for w, length in core_adjacency[v]:
            if settled[w]:
                continue
            candidate = d + length
            tol = _TIE_REL_TOL * max(candidate, dist[w]) if dist[w] < inf else 0.0
            if candidate < dist[w] - tol:
                dist[w] = candidate
                sigma[w] = sigma[v]
                preds[w] = [v]
            elif abs(candidate - dist[w]) <= tol:
                sigma[w] += sigma[v]
                preds[w].append(v)

    delta = [0.0] * m
    for x in reversed(order):
        flow = weight[x] + delta[x]
        for v in preds[x]:
            delta[v] += sigma[v] / sigma[x] * flow
    delta[source] = 0.0
    return np.array(delta)


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
    n = _node_count(city)
    lengths = undirected_edge_lengths(city)
    total_km = sum(lengths) / 1000.0
    return {
        "link_node_ratio": len(lengths) / n,
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
