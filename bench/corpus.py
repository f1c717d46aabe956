"""Seeded synthetic corpora for the benchmark workloads.

Every workload keeps its corpus *shape* fixed: the per-city archetype,
target size, spacing, jitter and dead-end rate come from
``corpus_specs(count, 0, base_size)`` (the recipe behind ``cityform synth``)
and do not depend on ``--seed``. The seed only picks each city's generator
seed, i.e. its street layout. Drawing sizes from the seed as ``synth`` does
would change the amount of work between seeds by 14% (interquartile range
of the betweenness cost over ten quick-start seeds), which is more than the
bounds the benchmark can afford.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from cityform.graph import EARTH_RADIUS_M
from cityform.synth import city_boundary, corpus_specs, generate

# Origin of the lon/lat version of a corpus (planar metres are mapped
# linearly around it, so clip membership is preserved).
GEO_ORIGIN = (4.35, 50.85)


@dataclass(frozen=True)
class Shape:
    count: int  # cities per archetype
    base_size: int
    pinned_size: int | None = None  # every city gets this target size
    geo: bool = False  # write lon/lat with empty length_m


@dataclass
class Corpus:
    nodes: str
    links: str
    boundaries: str
    archetype: dict[str, str]  # city name -> archetype
    node_ids: dict[str, set[str]]  # city name -> generated node ids
    link_ids: dict[str, set[str]]  # city name -> generated link ids
    mode: str  # "planar" or "geo", as the CLI flag spells it

    def io_args(self) -> list[str]:
        return [
            "--nodes", self.nodes, "--links", self.links,
            "--boundaries", self.boundaries, "--mode", self.mode,
        ]

    def node_total(self) -> int:
        return sum(len(ids) for ids in self.node_ids.values())

    def link_total(self) -> int:
        return sum(len(ids) for ids in self.link_ids.values())


def _to_lonlat(x: float, y: float) -> tuple[float, float]:
    lon0, lat0 = GEO_ORIGIN
    metres_per_deg = math.pi * EARTH_RADIUS_M / 180.0
    return (
        lon0 + x / (metres_per_deg * math.cos(math.radians(lat0))),
        lat0 + y / metres_per_deg,
    )


def build(shape: Shape, seed: int, out_dir: Path) -> Corpus:
    """Generate the corpus for ``seed`` and write nodes, links and boundaries."""
    rng = random.Random(seed)
    cities = []
    for name, spec in corpus_specs(shape.count, 0, base_size=shape.base_size):
        spec = dataclasses.replace(spec, seed=rng.randrange(2**31))
        if shape.pinned_size is not None:
            spec = dataclasses.replace(spec, size=shape.pinned_size)
        city = generate(spec, name=name)
        boundary = city_boundary(city.graph, spec.spacing, name)
        cities.append((name, spec.kind, city.graph, boundary.polygons[0][0]))

    # One grid cell per city, wide enough for the largest padded hull plus
    # a gap, so no node of one city falls inside another city's boundary.
    extent = max(
        max(max(p.x for p in ring) - min(p.x for p in ring), max(p.y for p in ring) - min(p.y for p in ring))
        for _, _, _, ring in cities
    )
    cell = extent * 1.25
    point = _to_lonlat if shape.geo else (lambda x, y: (x, y))

    node_rows, link_rows, features = [], [], []
    corpus = Corpus(
        nodes=str(out_dir / "nodes.csv"),
        links=str(out_dir / "links.csv"),
        boundaries=str(out_dir / "boundaries.geojson"),
        archetype={}, node_ids={}, link_ids={},
        mode="geo" if shape.geo else "planar",
    )
    for idx, (name, kind, graph, ring) in enumerate(cities):
        ox = (idx % 6) * cell - min(p.x for p in ring)
        oy = (idx // 6) * cell - min(p.y for p in ring)
        corpus.archetype[name] = kind
        corpus.node_ids[name] = set()
        corpus.link_ids[name] = set()
        for node in graph.nodes.values():
            nid = f"{name}:{node.id}"
            corpus.node_ids[name].add(nid)
            node_rows.append([nid, *point(node.location.x + ox, node.location.y + oy)])
        for link in graph.links:
            lid = f"{name}:{link.id}"
            corpus.link_ids[name].add(lid)
            shape_pts = ";".join(
                "{} {}".format(*point(p.x + ox, p.y + oy)) for p in link.shape_points
            )
            length = "" if shape.geo else link.length_m
            link_rows.append([lid, f"{name}:{link.from_node}", f"{name}:{link.to_node}", length, shape_pts])
        coords = [list(point(p.x + ox, p.y + oy)) for p in ring]
        coords.append(coords[0])
        features.append(
            {
                "type": "Feature",
                "properties": {"name": name, "archetype": kind},
                "geometry": {"type": "Polygon", "coordinates": [coords]},
            }
        )

    out_dir.mkdir(parents=True, exist_ok=True)
    for path, header, rows in (
        (corpus.nodes, ["node_id", "x", "y"], node_rows),
        (corpus.links, ["link_id", "from", "to", "length_m", "shape_points"], link_rows),
    ):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    with open(corpus.boundaries, "w") as handle:
        json.dump({"type": "FeatureCollection", "features": features}, handle)
    return corpus
