"""Synthetic archetype cities with known ground-truth typology.

Three generators produce planar two-way networks used for end-to-end
validation. They are built so the archetypes overlap on coarse topology
(degree mix, density, link-node ratio) but differ sharply in intersection
geometry and street orientation:

* ``gridded``: a jittered rectangular lattice with a ``dead_end_rate``
  fraction of edges knocked out (creating dead ends and T junctions).
  Surviving crossings keep exact right angles, so 4-way nodes stay type 1.
* ``orthogonal``: an arterial grid whose horizontal arterials bend a few
  degrees at some crossings, mixing right-angled and skewed four-ways
  (types 1 and 3); blocks fill with perpendicular local streets that
  cross, dead-end, bend in an L, or fork into a court. Rich in T
  junctions and culs-de-sac.
* ``organic``: winding branch growth with curved links (midpoint shape
  points), occasional loop closures, and many dead ends; headings wander,
  so bearings spread over all directions and angles avoid 90/180.

Gridded and orthogonal cities are rotated by a small seed-derived angle so
bearings do not sit exactly on histogram bin edges; inter-link angles are
rotation invariant, so pattern codes are unaffected. The same seed always
produces the identical city.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass

from .errors import ValidationError, check_seed
from .graph import (
    CityBoundary,
    CityNetwork,
    GeoPoint,
    RoadGraph,
    RoadLink,
    RoadNode,
    boundary_area_km2,
    make_boundary,
    polyline_length_m,
)

ARCHETYPES = ("gridded", "orthogonal", "organic")

# Arterial block side, in lattice spacings, for orthogonal cities.
_BLOCK_CELLS = 3
# Probability that an orthogonal arterial segment runs skewed, and the skew
# band in degrees (chosen to clear the default 10-degree right-angle band).
_BEND_PROB = 0.45
_BEND_DEG = (11.0, 18.0)


def check_spacing(spacing: float) -> None:
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValidationError(f"spacing must be positive and finite, got {spacing}")


@dataclass(frozen=True)
class ArchetypeSpec:
    kind: str
    size: int
    spacing: float
    jitter: float = 0.0
    dead_end_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ARCHETYPES:
            raise ValidationError(f"unknown archetype {self.kind!r}")
        if self.size < 9:
            raise ValidationError(f"size too small: {self.size} (need at least 9 nodes)")
        check_spacing(self.spacing)
        check_seed(self.seed)
        if not 0.0 <= self.jitter < 0.5:
            raise ValidationError(f"jitter must lie in [0, 0.5), got {self.jitter}")
        if not 0.0 <= self.dead_end_rate < 1.0:
            raise ValidationError(
                f"dead_end_rate must lie in [0, 1), got {self.dead_end_rate}"
            )


Edge = tuple[str, str, tuple[GeoPoint, ...]]


def _rotate(x: float, y: float, theta_deg: float) -> tuple[float, float]:
    t = math.radians(theta_deg)
    return x * math.cos(t) - y * math.sin(t), x * math.sin(t) + y * math.cos(t)


# ---------------------------------------------------------------------------
# Gridded
# ---------------------------------------------------------------------------


def _gridded(spec: ArchetypeSpec, rng: random.Random) -> tuple[dict[str, GeoPoint], list[Edge]]:
    # Slightly oblong so one street direction always dominates the bearing
    # histogram, keeping rotated histograms aligned across gridded cities.
    rows = max(4, round(1.2 * math.sqrt(spec.size)))
    cols = max(3, math.ceil(spec.size / rows))
    s = spec.spacing
    theta = rng.uniform(5.0, 8.0)
    positions: dict[str, GeoPoint] = {}
    for i in range(cols):
        for j in range(rows):
            x = i * s + rng.uniform(-1.0, 1.0) * spec.jitter * s
            y = j * s + rng.uniform(-1.0, 1.0) * spec.jitter * s
            positions[f"n{i}_{j}"] = GeoPoint(*_rotate(x, y, theta))
    pairs: list[tuple[str, str]] = []
    for i in range(cols):
        for j in range(rows):
            if i + 1 < cols:
                pairs.append((f"n{i}_{j}", f"n{i + 1}_{j}"))
            if j + 1 < rows:
                pairs.append((f"n{i}_{j}", f"n{i}_{j + 1}"))
    # Knock out a fraction of edges; never strand a node entirely.
    target = int(spec.dead_end_rate * len(pairs))
    if target:
        degree: dict[str, int] = {}
        for u, v in pairs:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        order = list(range(len(pairs)))
        rng.shuffle(order)
        removed = set()
        for idx in order:
            if len(removed) >= target:
                break
            u, v = pairs[idx]
            if degree[u] >= 2 and degree[v] >= 2:
                removed.add(idx)
                degree[u] -= 1
                degree[v] -= 1
        pairs = [p for i, p in enumerate(pairs) if i not in removed]
    return positions, [(u, v, ()) for u, v in pairs]


# ---------------------------------------------------------------------------
# Orthogonal
# ---------------------------------------------------------------------------


def _orthogonal(spec: ArchetypeSpec, rng: random.Random) -> tuple[dict[str, GeoPoint], list[Edge]]:
    s = spec.spacing
    block = _BLOCK_CELLS * s
    rate = min(spec.dead_end_rate, 0.45)
    per_local = 2.0 + 2.5 * rate
    best_a, best_err = 3, float("inf")
    for a in range(3, 14):
        expected = a * a + (a - 1) * (a - 1) * 2.5 * per_local
        if abs(expected - spec.size) < best_err:
            best_err = abs(expected - spec.size)
            best_a = a
    a_count = best_a
    theta = rng.uniform(5.0, 8.0)

    # Horizontal arterials bend at crossings: per-segment slope, cumulative
    # vertical offset capped so lines never wander into the next block.
    slope: list[list[float]] = []
    y_off: list[list[float]] = []
    for b in range(a_count):
        slopes_b, offs_b = [], [0.0]
        for a in range(a_count - 1):
            if rng.random() < _BEND_PROB:
                grade = math.tan(math.radians(rng.uniform(*_BEND_DEG)))
                if offs_b[-1] > 0.2 * block:
                    grade = -grade
                elif offs_b[-1] > -0.2 * block and rng.random() < 0.5:
                    grade = -grade
            else:
                grade = 0.0
            slopes_b.append(grade)
            offs_b.append(offs_b[-1] + grade * block)
        slope.append(slopes_b)
        y_off.append(offs_b)

    design: dict[str, tuple[float, float]] = {}
    edges_raw: list[tuple[str, str]] = []
    h_lines: dict[int, list[tuple[float, str]]] = {b: [] for b in range(a_count)}
    v_lines: dict[int, list[tuple[float, str]]] = {a: [] for a in range(a_count)}
    for a in range(a_count):
        for b in range(a_count):
            nid = f"I{a}_{b}"
            design[nid] = (a * block, b * block + y_off[b][a])
            h_lines[b].append((float(a * block), nid))
            v_lines[a].append((float(b * block), nid))

    counter = 0

    def fresh(prefix: str) -> str:
        nonlocal counter
        counter += 1
        return f"{prefix}{counter}"

    def register(line: list[tuple[float, str]], coord: float, nid: str) -> bool:
        if any(abs(coord - existing) < 0.06 * block for existing, _ in line):
            return False
        line.append((coord, nid))
        return True

    def on_horizontal(b: int, a: int, frac: float) -> tuple[float, float, float]:
        """Point on horizontal line b within segment a at fraction frac, plus slope."""
        x = (a + frac) * block
        y = b * block + y_off[b][a] + slope[b][a] * frac * block
        return x, y, slope[b][a]

    def add_court(jx: float, jy: float, ux: float, uy: float, jid: str, room: float) -> None:
        stem = rng.uniform(0.45, 0.75) * block
        fx, fy = jx + ux * stem, jy + uy * stem
        fid = fresh("F")
        design[fid] = (fx, fy)
        edges_raw.append((jid, fid))
        arm = min(0.3 * block, room) * rng.uniform(0.55, 0.95)
        if arm >= 0.05 * block:
            for sign in (-1.0, 1.0):
                tid = fresh("T")
                design[tid] = (fx + sign * -uy * arm, fy + sign * ux * arm)
                edges_raw.append((fid, tid))

    def add_stub(jx: float, jy: float, ux: float, uy: float, jid: str) -> None:
        stem = rng.uniform(0.45, 0.8) * block
        if rng.random() < 0.3:
            tid = fresh("T")
            design[tid] = (jx + ux * stem, jy + uy * stem)
            edges_raw.append((jid, tid))
        else:  # L bend: corner node, then a perpendicular leg to the tip
            cx, cy = jx + ux * stem * 0.6, jy + uy * stem * 0.6
            cid = fresh("C")
            design[cid] = (cx, cy)
            edges_raw.append((jid, cid))
            sign = rng.choice((-1.0, 1.0))
            leg = rng.uniform(0.2, 0.35) * block
            tid = fresh("T")
            design[tid] = (cx + sign * -uy * leg, cy + sign * ux * leg)
            edges_raw.append((cid, tid))

    def add_local(a: int, b: int, slot: float) -> None:
        vertical = rng.random() < 0.5
        u = rng.random()
        style = "court" if u < rate else "stub" if u < 2 * rate else "through"
        if vertical:
            jx, jy, grade = on_horizontal(b, a, slot)
            jid = fresh("J")
            if not register(h_lines[b], jx, jid):
                return
            design[jid] = (jx, jy)
            if style == "through":
                # Vertical street to the next arterial, sometimes with a
                # dogleg bend partway up.
                shift = rng.choice((0.0, rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.12)))
                top_slot = min(0.92, max(0.08, slot + shift))
                tx, ty, _ = on_horizontal(b + 1, a, top_slot)
                tid = fresh("J")
                if register(h_lines[b + 1], tx, tid):
                    design[tid] = (tx, ty)
                    if shift:
                        cid = fresh("C")
                        design[cid] = (jx, jy + rng.uniform(0.4, 0.6) * block)
                        edges_raw.append((jid, cid))
                        edges_raw.append((cid, tid))
                    else:
                        edges_raw.append((jid, tid))
                    return
                style = "stub"
            # Stems leave perpendicular to the (possibly bent) segment.
            norm = math.hypot(1.0, grade)
            ux, uy = -grade / norm, 1.0 / norm
            room = min(jx - a * block, (a + 1) * block - jx) - 0.04 * block
            if style == "court":
                add_court(jx, jy, ux, uy, jid, room)
            else:
                add_stub(jx, jy, ux, uy, jid)
        else:
            jy = (b + slot) * block
            jid = fresh("J")
            if not register(v_lines[a], jy, jid):
                return
            design[jid] = (a * block, jy)
            if style == "through":
                tid = fresh("J")
                if register(v_lines[a + 1], jy, tid):
                    design[tid] = ((a + 1) * block, jy)
                    edges_raw.append((jid, tid))
                    return
                style = "stub"
            room = min(jy - b * block, (b + 1) * block - jy) - 0.04 * block
            if style == "court":
                add_court(a * block, jy, 1.0, 0.0, jid, room)
            else:
                add_stub(a * block, jy, 1.0, 0.0, jid)

    for a in range(a_count - 1):
        for b in range(a_count - 1):
            n_loc = 2 + (1 if rng.random() < 0.5 else 0)
            for i in range(n_loc):
                add_local(a, b, (i + rng.uniform(0.3, 0.7)) / n_loc)

    # Chain arterial segments between consecutive nodes on each line.
    for line in list(h_lines.values()) + list(v_lines.values()):
        line.sort()
        for (_, u), (_, v) in zip(line, line[1:]):
            edges_raw.append((u, v))

    positions = {}
    for nid, (x, y) in design.items():
        x += rng.uniform(-1.0, 1.0) * spec.jitter * s
        y += rng.uniform(-1.0, 1.0) * spec.jitter * s
        positions[nid] = GeoPoint(*_rotate(x, y, theta))
    return positions, [(u, v, ()) for u, v in edges_raw]


# ---------------------------------------------------------------------------
# Organic
# ---------------------------------------------------------------------------


def _organic(spec: ArchetypeSpec, rng: random.Random) -> tuple[dict[str, GeoPoint], list[Edge]]:
    s = spec.spacing
    extent = s * math.sqrt(spec.size) * 0.85
    positions: dict[str, tuple[float, float]] = {"n0": (0.0, 0.0)}
    adjacency: dict[str, set[str]] = {"n0": set()}
    edges: list[Edge] = []
    frontier: deque[tuple[str, float]] = deque()
    base = rng.uniform(0.0, 360.0)
    for k in range(3):
        frontier.append(("n0", base + 120.0 * k + rng.uniform(-25.0, 25.0)))
    counter = 0
    budget = spec.size * 60
    rate = spec.dead_end_rate
    p_branch2 = 0.62 * (1.0 - rate)
    p_branch3 = 0.06

    def curved_edge(uid: str, vid: str, heading: float, length: float) -> None:
        (x0, y0), (x1, y1) = positions[uid], positions[vid]
        off = length * rng.uniform(0.12, 0.28) * rng.choice((-1.0, 1.0))
        nx, ny = -math.sin(math.radians(heading)), math.cos(math.radians(heading))
        mid = GeoPoint((x0 + x1) / 2.0 + off * nx, (y0 + y1) / 2.0 + off * ny)
        edges.append((uid, vid, (mid,)))
        adjacency[uid].add(vid)
        adjacency[vid].add(uid)

    def direction_clear(nid: str, heading: float, margin: float = 50.0) -> bool:
        x0, y0 = positions[nid]
        for other in adjacency[nid]:
            ox, oy = positions[other]
            existing = math.degrees(math.atan2(oy - y0, ox - x0))
            diff = abs((existing - heading + 180.0) % 360.0 - 180.0)
            if diff < margin:
                return False
        return True

    while len(positions) < spec.size and budget > 0:
        budget -= 1
        if not frontier:
            nid = rng.choice(sorted(positions))
            frontier.append((nid, rng.uniform(0.0, 360.0)))
            continue
        nid, heading = frontier.popleft()
        heading += rng.choice((-1.0, 1.0)) * rng.uniform(15.0, 55.0)

        # Occasionally close a loop onto a nearby street instead of growing.
        if rng.random() < 0.12:
            x0, y0 = positions[nid]
            candidates = []
            for other in sorted(positions):
                if other == nid or other in adjacency[nid]:
                    continue
                ox, oy = positions[other]
                dist = math.hypot(ox - x0, oy - y0)
                if 0.7 * s <= dist <= 1.7 * s:
                    candidates.append((dist, other))
            if candidates:
                _, other = min(candidates)
                ox, oy = positions[other]
                to_other = math.degrees(math.atan2(oy - y0, ox - x0))
                if direction_clear(nid, to_other) and direction_clear(
                    other, (to_other + 180.0) % 360.0
                ):
                    curved_edge(nid, other, to_other, math.hypot(ox - x0, oy - y0))
                    continue

        step = s * rng.uniform(0.85, 1.5)
        x0, y0 = positions[nid]
        x = x0 + step * math.cos(math.radians(heading))
        y = y0 + step * math.sin(math.radians(heading))
        if math.hypot(x, y) > extent:
            continue
        if any(math.hypot(x - px, y - py) < 0.4 * s for px, py in positions.values()):
            continue
        counter += 1
        vid = f"n{counter}"
        positions[vid] = (x, y)
        adjacency[vid] = set()
        curved_edge(nid, vid, heading, step)
        u = rng.random()
        if u < rate:
            pass  # branch dies here: a dead end
        elif u < rate + p_branch2:
            frontier.append((vid, heading - rng.uniform(30.0, 70.0)))
            frontier.append((vid, heading + rng.uniform(30.0, 70.0)))
        elif u < rate + p_branch2 + p_branch3:
            frontier.append((vid, heading - rng.uniform(40.0, 75.0)))
            frontier.append((vid, heading))
            frontier.append((vid, heading + rng.uniform(40.0, 75.0)))
        else:
            frontier.append((vid, heading))
    return {nid: GeoPoint(x, y) for nid, (x, y) in positions.items()}, edges


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def _convex_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    pts = sorted(set(points))
    if len(pts) < 3:
        raise ValidationError("convex hull needs at least 3 distinct points")

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def city_boundary(graph: RoadGraph, spacing: float, name: str) -> CityBoundary:
    """Convex hull of the nodes, buffered outward by one spacing."""
    coords = [(n.location.x, n.location.y) for n in graph.nodes.values()]
    hull = _convex_hull(coords)
    padded: list[tuple[float, float]] = []
    for x, y in hull:
        for k in range(8):
            t = math.pi * k / 4.0
            padded.append((x + spacing * math.cos(t), y + spacing * math.sin(t)))
    ring = _convex_hull(padded)
    return make_boundary(name, [[ring]])


def generate(spec: ArchetypeSpec, name: str | None = None) -> CityNetwork:
    """Build one synthetic city; deterministic for a fixed spec."""
    rng = random.Random(spec.seed)
    builder = {"gridded": _gridded, "orthogonal": _orthogonal, "organic": _organic}[spec.kind]
    positions, edges = builder(spec, rng)
    nodes = [RoadNode(nid, loc) for nid, loc in positions.items()]
    links: list[RoadLink] = []
    for idx, (u, v, shape) in enumerate(edges):
        length = polyline_length_m((positions[u], *shape, positions[v]), "planar")
        links.append(RoadLink(f"s{idx}f", u, v, shape, length))
        links.append(RoadLink(f"s{idx}r", v, u, tuple(reversed(shape)), length))
    graph = RoadGraph(nodes, links, "planar")
    city_name = name if name is not None else f"{spec.kind}_{spec.seed}"
    boundary = city_boundary(graph, spec.spacing, city_name)
    return CityNetwork(
        city_name=city_name,
        graph=graph,
        area_km2=boundary_area_km2(boundary, "planar"),
    )


def corpus_specs(
    count: int, seed: int, base_size: int = 140, base_spacing: float = 100.0
) -> list[tuple[str, ArchetypeSpec]]:
    """Named specs for a mixed validation corpus: ``count`` cities per archetype.

    Per-city size, spacing, jitter, and dead-end rate are drawn from
    archetype-specific ranges so topology overlaps across archetypes while
    intersection geometry stays characteristic.
    """
    check_seed(seed)
    rng = random.Random(seed)
    ranges = {
        "gridded": {
            "jitter": (0.03, 0.07),
            "dead_end_rate": (0.22, 0.42),
            "spacing": (1.0, 1.35),
        },
        "orthogonal": {
            "jitter": (0.01, 0.03),
            "dead_end_rate": (0.30, 0.50),
            "spacing": (0.88, 1.18),
        },
        "organic": {
            "jitter": (0.0, 0.0),
            "dead_end_rate": (0.30, 0.50),
            "spacing": (0.88, 1.18),
        },
    }
    specs = []
    for kind in ARCHETYPES:
        band = ranges[kind]
        for i in range(count):
            specs.append(
                (
                    f"{kind}_{i:02d}",
                    ArchetypeSpec(
                        kind=kind,
                        size=max(9, int(base_size * rng.uniform(0.7, 1.35))),
                        spacing=base_spacing * rng.uniform(*band["spacing"]),
                        jitter=rng.uniform(*band["jitter"]),
                        dead_end_rate=rng.uniform(*band["dead_end_rate"]),
                        seed=rng.randrange(2**31),
                    ),
                )
            )
    return specs
