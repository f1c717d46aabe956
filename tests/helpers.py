"""Shared builders and independent oracles for the test suite.

Oracles deliberately use different algorithms than the library: path
counting by sorted-distance DP instead of Brandes accumulation, plain
Brandes from every source instead of weighted Brandes on the core left
after tree pruning, plain-loop index formulas instead of vectorized ones, characteristic-polynomial root
bisection instead of a packaged eigensolver, explicit plane rotation instead of
atan2 differences, and a per-point ring loop instead of the clip's
per-edge array pass.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter

import numpy as np

from cityform.geometry import node_angles
from cityform.graph import (
    _ON_BOUNDARY_EPS,
    CityBoundary,
    CityNetwork,
    GeoPoint,
    RoadGraph,
    RoadLink,
    RoadNode,
    polyline_length_m,
)
from cityform.topology import _TIE_REL_TOL

INF = float("inf")


# ---------------------------------------------------------------------------
# Graph builders
# ---------------------------------------------------------------------------


def make_city(
    nodes: dict[str, tuple[float, float]],
    links: list,
    mode: str = "planar",
    area_km2: float = 1.0,
    name: str = "test",
) -> CityNetwork:
    """Ad-hoc city from node coords and (u, v[, shape[, length]]) tuples."""
    road_nodes = [RoadNode(nid, GeoPoint(*xy)) for nid, xy in nodes.items()]
    road_links = []
    for i, entry in enumerate(links):
        u, v = entry[0], entry[1]
        shape = tuple(GeoPoint(*p) for p in (entry[2] if len(entry) > 2 else ()))
        if len(entry) > 3:
            length = entry[3]
        else:
            length = polyline_length_m(
                (GeoPoint(*nodes[u]), *shape, GeoPoint(*nodes[v])), mode
            )
        road_links.append(RoadLink(f"l{i}", u, v, shape, length))
    return CityNetwork(name, RoadGraph(road_nodes, road_links, mode), area_km2)


def ray_gaps(a, o, b, mode: str = "planar") -> list[float]:
    """``node_angles`` at a node o whose only outgoing links run to a and b."""
    city = make_city({"o": o, "a": a, "b": b}, [("o", "a"), ("o", "b")], mode=mode)
    return node_angles(city.graph.nodes["o"], city)


def make_grid_city(
    rows: int, cols: int, spacing: float, area_km2: float | None = None, two_way: bool = True
) -> CityNetwork:
    """Axis-aligned planar lattice with two-way streets (independent of synth)."""
    nodes = {}
    links = []
    for i in range(cols):
        for j in range(rows):
            nodes[f"g{i}_{j}"] = (i * spacing, j * spacing)
    pairs = []
    for i in range(cols):
        for j in range(rows):
            if i + 1 < cols:
                pairs.append((f"g{i}_{j}", f"g{i + 1}_{j}"))
            if j + 1 < rows:
                pairs.append((f"g{i}_{j}", f"g{i}_{j + 1}"))
    for u, v in pairs:
        links.append((u, v))
        if two_way:
            links.append((v, u))
    if area_km2 is None:
        area_km2 = ((cols - 1) * spacing * (rows - 1) * spacing) / 1e6 or 1.0
    return make_city(nodes, links, area_km2=area_km2, name=f"grid{cols}x{rows}")


def rotate_city(city: CityNetwork, theta_deg: float) -> CityNetwork:
    """Rigidly rotate all coordinates (planar); lengths and area unchanged."""
    t = math.radians(theta_deg)

    def rot(p: GeoPoint) -> GeoPoint:
        return GeoPoint(
            p.x * math.cos(t) - p.y * math.sin(t),
            p.x * math.sin(t) + p.y * math.cos(t),
        )

    nodes = [RoadNode(n.id, rot(n.location)) for n in city.graph.nodes.values()]
    links = [
        RoadLink(
            link.id,
            link.from_node,
            link.to_node,
            tuple(rot(p) for p in link.shape_points),
            link.length_m,
        )
        for link in city.graph.links
    ]
    return CityNetwork(city.city_name, RoadGraph(nodes, links, "planar"), city.area_km2)


# ---------------------------------------------------------------------------
# Betweenness oracle: repeated Dijkstra, sorted-distance multiplicity DP,
# then direct evaluation of the pair-sum definition.
# ---------------------------------------------------------------------------


def brute_force_betweenness(city: CityNetwork) -> dict[str, float]:
    graph = city.graph
    ids = list(graph.nodes)
    n = len(ids)
    index = {nid: i for i, nid in enumerate(ids)}
    out_edges: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    in_edges: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for link in graph.links:
        u, v = index[link.from_node], index[link.to_node]
        out_edges[u].append((v, link.length_m))
        in_edges[v].append((u, link.length_m))

    def close(x: float, y: float) -> bool:
        return abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))

    dist = np.full((n, n), INF)
    sigma = np.zeros((n, n))
    for s in range(n):
        d = [INF] * n
        d[s] = 0.0
        done = [False] * n
        heap = [(0.0, s)]
        while heap:
            dv, v = heapq.heappop(heap)
            if done[v]:
                continue
            done[v] = True
            for w, weight in out_edges[v]:
                if dv + weight < d[w]:
                    d[w] = dv + weight
                    heapq.heappush(heap, (d[w], w))
        # Multiplicities by scanning nodes in distance order.
        counts = [0.0] * n
        counts[s] = 1.0
        for v in sorted((i for i in range(n) if d[i] < INF), key=lambda i: d[i]):
            if v == s:
                continue
            for u, weight in in_edges[v]:
                if d[u] < INF and close(d[u] + weight, d[v]):
                    counts[v] += counts[u]
        dist[s] = d
        sigma[s] = counts

    bc = {nid: 0.0 for nid in ids}
    for i in range(n):
        total = 0.0
        for a in range(n):
            if a == i:
                continue
            for b in range(n):
                if b == i or b == a:
                    continue
                if dist[a][b] == INF or sigma[a][b] == 0.0:
                    continue
                if close(dist[a][i] + dist[i][b], dist[a][b]):
                    total += sigma[a][i] * sigma[i][b] / sigma[a][b]
        bc[ids[i]] = total / n
    return bc


# ---------------------------------------------------------------------------
# Scalar Brandes oracle: plain length-weighted Brandes from every source,
# with the library's tie rule and no pruning. Brute force cannot reach
# graphs of a few hundred nodes; this can.
# ---------------------------------------------------------------------------


def brandes_oracle(city: CityNetwork) -> dict[str, float]:
    graph = city.graph
    n = graph.node_count
    ids = list(graph.nodes)
    index = {nid: i for i, nid in enumerate(ids)}
    adjacency = [
        [(index[link.to_node], link.length_m) for link in graph.out_links(nid)]
        for nid in ids
    ]
    bc = [0.0] * n
    for source in range(n):
        dist = [INF] * n
        sigma = [0.0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        settled = [False] * n
        order: list[int] = []
        dist[source] = 0.0
        sigma[source] = 1.0
        heap = [(0.0, source)]
        while heap:
            d, v = heapq.heappop(heap)
            if settled[v]:
                continue
            settled[v] = True
            order.append(v)
            for w, weight in adjacency[v]:
                if settled[w]:
                    continue
                candidate = d + weight
                tol = _TIE_REL_TOL * max(candidate, dist[w]) if dist[w] < INF else 0.0
                if candidate < dist[w] - tol:
                    dist[w] = candidate
                    sigma[w] = sigma[v]
                    preds[w] = [v]
                    heapq.heappush(heap, (candidate, w))
                elif abs(candidate - dist[w]) <= tol:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * n
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != source:
                bc[w] += delta[w]
    return {nid: bc[index[nid]] / n for nid in ids}


# ---------------------------------------------------------------------------
# Clip membership oracle: even-odd ray casting, one point and one edge at a
# time, with the clip's arithmetic, so it agrees with ``clip_to_city`` node
# for node.
# ---------------------------------------------------------------------------


def _on_segment(p: GeoPoint, a: GeoPoint, b: GeoPoint) -> bool:
    if not (
        min(a.x, b.x) - _ON_BOUNDARY_EPS <= p.x <= max(a.x, b.x) + _ON_BOUNDARY_EPS
        and min(a.y, b.y) - _ON_BOUNDARY_EPS <= p.y <= max(a.y, b.y) + _ON_BOUNDARY_EPS
    ):
        return False
    cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
    scale = max(1.0, abs(b.x - a.x), abs(b.y - a.y))
    return abs(cross) <= _ON_BOUNDARY_EPS * scale


def point_in_polygon_oracle(p: GeoPoint, boundary: CityBoundary) -> bool:
    """Inside or on the boundary: on an edge, or an odd count of crossings to +x."""
    crossings = 0
    for ring in boundary.rings():
        n = len(ring)
        for i in range(n):
            a, b = ring[i], ring[(i + 1) % n]
            if _on_segment(p, a, b):
                return True
            if (a.y > p.y) != (b.y > p.y):
                x_at = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
                x_at = min(max(x_at, min(a.x, b.x)), max(a.x, b.x))
                if x_at > p.x:
                    crossings += 1
    return crossings % 2 == 1


def random_directed_city(rng, max_nodes: int = 30) -> CityNetwork:
    """Random weighted directed graph (possibly disconnected), integer lengths."""
    n = rng.randint(4, max_nodes)
    nodes = {f"v{i}": (float(i), 0.0) for i in range(n)}
    density = rng.uniform(0.05, 0.3)
    links = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                links.append((f"v{i}", f"v{j}", (), float(rng.randint(1, 9))))
    if not links:
        links = [(f"v0", f"v1", (), 1.0)]
    return make_city(nodes, links)


def random_appendage_city(rng) -> CityNetwork:
    """Random core with the cases tree pruning must get right, integer lengths.

    Two-way trees and chains are grafted onto the core and onto each other;
    then come one-way leaves (in and out), leaves joined by parallel two-way
    links, isolated nodes and components that are whole trees (a pair, a
    path or a random tree). Integer lengths make ties.
    """
    links = []
    count = 0

    def node() -> str:
        nonlocal count
        count += 1
        return f"v{count - 1}"

    def two_way(u: str, v: str) -> None:
        links.append((u, v, (), float(rng.randint(1, 5))))
        links.append((v, u, (), float(rng.randint(1, 5))))

    core = [node() for _ in range(rng.randint(0, 8))]
    density = rng.uniform(0.1, 0.5)
    for u in core:
        for v in core:
            if u != v and rng.random() < density:
                links.append((u, v, (), float(rng.randint(1, 5))))
    attach = list(core)
    for _ in range(rng.randint(0, 4) if core else 0):
        # A tree or, one node at a time down one branch, a chain.
        tip = rng.choice(attach)
        chain = rng.random() < 0.4
        for _ in range(rng.randint(1, 5)):
            leaf = node()
            two_way(tip if chain else rng.choice(attach), leaf)
            attach.append(leaf)
            tip = leaf
    for _ in range(rng.randint(0, 2) if attach else 0):
        leaf = node()
        u = rng.choice(attach)
        ends = (leaf, u) if rng.random() < 0.5 else (u, leaf)
        links.append((*ends, (), 1.0))
    for _ in range(rng.randint(0, 2) if attach else 0):
        leaf = node()
        u = rng.choice(attach)
        two_way(u, leaf)
        ends = (leaf, u) if rng.random() < 0.5 else (u, leaf)
        links.append((*ends, (), float(rng.randint(1, 5))))
    for _ in range(rng.randint(0, 2)):
        node()
    for _ in range(rng.randint(0, 2)):
        members = [node() for _ in range(rng.randint(2, 6))]
        for i in range(1, len(members)):
            two_way(members[rng.randrange(i)], members[i])
    if count == 0:
        node()
    nodes = {f"v{i}": (float(i), 0.0) for i in range(count)}
    return make_city(nodes, links)


# ---------------------------------------------------------------------------
# Angle oracle: rotate the plane so o->a lies on +x, then read off b.
# ---------------------------------------------------------------------------


def rotation_angle_oracle(a, o, b) -> float:
    ref = math.atan2(a[1] - o[1], a[0] - o[0])
    bx, by = b[0] - o[0], b[1] - o[1]
    rx = bx * math.cos(-ref) - by * math.sin(-ref)
    ry = bx * math.sin(-ref) + by * math.cos(-ref)
    value = math.degrees(math.atan2(ry, rx))
    return value % 360.0


# ---------------------------------------------------------------------------
# Clustering-index oracles: literal formula evaluation with plain loops.
# ---------------------------------------------------------------------------


def silhouette_oracle(points, labels) -> float:
    points = [tuple(map(float, p)) for p in np.atleast_2d(points)]
    n = len(points)
    clusters: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        clusters.setdefault(int(lab), []).append(i)
    total = 0.0
    for i in range(n):
        own = clusters[int(labels[i])]
        if len(own) == 1:
            continue
        a = sum(math.dist(points[i], points[j]) for j in own if j != i) / (len(own) - 1)
        b = min(
            sum(math.dist(points[i], points[j]) for j in members) / len(members)
            for lab, members in clusters.items()
            if lab != int(labels[i])
        )
        if max(a, b) > 0:
            total += (b - a) / max(a, b)
    return total / n


def davies_bouldin_oracle(points, labels) -> float:
    points = [tuple(map(float, p)) for p in np.atleast_2d(points)]
    clusters: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        clusters.setdefault(int(lab), []).append(i)
    ids = sorted(clusters)
    centroids = {}
    scatter = {}
    for lab in ids:
        members = clusters[lab]
        dims = len(points[0])
        centroids[lab] = tuple(
            sum(points[i][d] for i in members) / len(members) for d in range(dims)
        )
        scatter[lab] = sum(math.dist(points[i], centroids[lab]) for i in members) / len(members)
    total = 0.0
    for i in ids:
        worst = 0.0
        for j in ids:
            if i == j:
                continue
            m = math.dist(centroids[i], centroids[j])
            worst = max(worst, (scatter[i] + scatter[j]) / m if m > 0 else INF)
        total += worst
    return total / len(ids)


def adjusted_rand_index(a, b) -> float:
    n = len(a)
    contingency = Counter(zip(a, b))

    def comb2(x: int) -> float:
        return x * (x - 1) / 2.0

    sum_ij = sum(comb2(c) for c in contingency.values())
    sum_a = sum(comb2(c) for c in Counter(a).values())
    sum_b = sum(comb2(c) for c in Counter(b).values())
    expected = sum_a * sum_b / comb2(n)
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_ij - expected) / (max_index - expected)


def cluster_purity(labels, truth) -> float:
    total = 0
    for lab in set(labels):
        members = [truth[i] for i in range(len(truth)) if labels[i] == lab]
        total += Counter(members).most_common(1)[0][1]
    return total / len(truth)


# ---------------------------------------------------------------------------
# Eigenvalue oracle: Faddeev-LeVerrier characteristic polynomial plus
# sign-change bisection. Assumes distinct roots (true for the random
# correlation matrices used in tests).
# ---------------------------------------------------------------------------


def charpoly_eigvals(matrix) -> list[float]:
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    coeffs = [1.0]  # p(x) = x^n + c[1] x^(n-1) + ... + c[n]
    m = np.identity(n)
    for k in range(1, n + 1):
        am = a @ m
        c = -np.trace(am) / k
        coeffs.append(float(c))
        m = am + c * np.identity(n)

    def p(x: float) -> float:
        value = 0.0
        for c in coeffs:
            value = value * x + c
        return value

    lo, hi = -1.0, n + 1.0
    grid = 200000
    xs = [lo + (hi - lo) * i / grid for i in range(grid + 1)]
    roots = []
    prev_x, prev_v = xs[0], p(xs[0])
    for x in xs[1:]:
        v = p(x)
        if prev_v == 0.0:
            roots.append(prev_x)
        elif prev_v * v < 0.0:
            a_, b_ = prev_x, x
            fa = prev_v
            for _ in range(200):
                mid = (a_ + b_) / 2.0
                fm = p(mid)
                if fa * fm <= 0.0:
                    b_ = mid
                else:
                    a_, fa = mid, fm
            roots.append((a_ + b_) / 2.0)
        prev_x, prev_v = x, v
    if abs(prev_v) < 1e-12:
        roots.append(prev_x)
    return sorted(roots, reverse=True)
