"""Output checks. Each compares an artifact with a computation made here,
apart from the program, or with a property the method must have; none
compares with a saved copy of earlier output.

Every check returns a list of failure messages (empty when it passes).
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
from collections import Counter
from pathlib import Path

import numpy as np

from corpus import Corpus

REL_TOL = 1e-9
EARTH_RADIUS_M = 6378137.0  # the sphere the method's documentation names
CONSTANT_STD = 1e-12  # the method's documented "constant column" threshold
DEGREE_COLUMNS = ("prop_deg1", "prop_deg2", "prop_deg3", "prop_deg4", "prop_deg5plus")


def _close(a: float, b: float, rel: float = REL_TOL, abs_: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def read_table(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """(row labels, column names, values) of a CSV whose first column labels rows."""
    header, rows = read_csv(path)
    return [r[0] for r in rows], header[1:], np.array([[float(v) for v in r[1:]] for r in rows], dtype=float)


# ---------------------------------------------------------------------------
# Inputs, read back from the files the program was given
# ---------------------------------------------------------------------------


def _distance(a, b, geo: bool) -> float:
    if not geo:
        return math.hypot(b[0] - a[0], b[1] - a[1])
    lon1, lat1, lon2, lat2 = map(math.radians, (a[0], a[1], b[0], b[1]))
    h = math.sin((lat2 - lat1) / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def _ring_area_m2(ring, geo: bool) -> float:
    total = 0.0
    n = len(ring)
    for i in range(n):
        (ax, ay), (bx, by) = ring[i], ring[(i + 1) % n]
        if geo:
            total += math.radians(bx - ax) * (2.0 + math.sin(math.radians(ay)) + math.sin(math.radians(by)))
        else:
            total += ax * by - bx * ay
    scale = EARTH_RADIUS_M * EARTH_RADIUS_M if geo else 1.0
    return abs(total) * scale / 2.0


class Inputs:
    """Nodes, links (with lengths) and boundary areas, grouped by generated city."""

    def __init__(self, corpus: Corpus):
        geo = corpus.mode == "geo"
        _, rows = read_csv(Path(corpus.nodes))
        xy = {r[0]: (float(r[1]), float(r[2])) for r in rows}
        _, rows = read_csv(Path(corpus.links))
        city_of = {nid: city for city, ids in corpus.node_ids.items() for nid in ids}
        self.nodes = {city: sorted(ids) for city, ids in corpus.node_ids.items()}
        self.links: dict[str, list[tuple[str, str, float]]] = {city: [] for city in corpus.node_ids}
        for link_id, u, v, length, shape in rows:
            if length:
                metres = float(length)
            else:
                pts = [xy[u]] + [tuple(map(float, p.split())) for p in shape.split(";") if p] + [xy[v]]
                metres = sum(_distance(pts[i], pts[i + 1], geo) for i in range(len(pts) - 1))
            self.links[city_of[u]].append((u, v, metres))
        with open(corpus.boundaries) as handle:
            features = json.load(handle)["features"]
        self.area_km2 = {
            f["properties"]["name"]: _ring_area_m2(f["geometry"]["coordinates"][0][:-1], geo) / 1e6
            for f in features
        }


def _streets(links) -> list[float]:
    """Undirected street lengths: opposing links whose lengths agree within
    1 m form one street of their mean length; other links count alone."""
    forward: dict[tuple[str, str], list[float]] = {}
    backward: dict[tuple[str, str], list[float]] = {}
    for u, v, length in links:
        if u <= v:
            forward.setdefault((u, v), []).append(length)
        else:
            backward.setdefault((v, u), []).append(length)
    streets = []
    for key in sorted(set(forward) | set(backward)):
        fwd, bwd = sorted(forward.get(key, [])), sorted(backward.get(key, []))
        while fwd and bwd:
            if abs(fwd[0] - bwd[0]) <= 1.0:
                streets.append((fwd.pop(0) + bwd.pop(0)) / 2.0)
            elif fwd[0] < bwd[0]:
                streets.append(fwd.pop(0))
            else:
                streets.append(bwd.pop(0))
        streets += fwd + bwd
    return streets


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_clip(corpus: Corpus, clipped) -> list[str]:
    """The clip keeps exactly each city's generated nodes and links."""
    errors = []
    got = {city.city_name: city for city in clipped}
    if sorted(got) != sorted(corpus.node_ids):
        return [f"clip: cities {sorted(got)} != generated {sorted(corpus.node_ids)}"]
    for name, city in got.items():
        if set(city.graph.nodes) != corpus.node_ids[name]:
            errors.append(f"clip: {name} kept {city.graph.node_count} nodes, generated {len(corpus.node_ids[name])}")
        if {link.id for link in city.graph.links} != corpus.link_ids[name]:
            errors.append(f"clip: {name} kept {city.graph.link_count} links, generated {len(corpus.link_ids[name])}")
    return errors


def check_metrics(inputs: Inputs, out: Path) -> list[str]:
    """Degree mix, link-node ratio, mean link length and density, recomputed."""
    errors = []
    cities, columns, values = read_table(out / "metrics.csv")
    if sorted(cities) != sorted(inputs.nodes):
        return [f"metrics.csv: cities {cities} != generated"]
    for city, row in zip(cities, values):
        got = dict(zip(columns, row))
        nodes, links = inputs.nodes[city], inputs.links[city]
        n = len(nodes)
        out_deg = Counter(u for u, _, _ in links)
        in_deg = Counter(v for _, v, _ in links)
        classes = Counter(min(out_deg[nid], 5) for nid in nodes)
        streets = _streets(links)
        want = {name: classes[d] / n for d, name in enumerate(DEGREE_COLUMNS, start=1)}
        want["link_node_ratio"] = len(streets) / n
        want["mean_link_length_m"] = sum(streets) / len(streets)
        want["density_km_per_km2"] = sum(streets) / 1000.0 / inputs.area_km2[city]
        want["pct_in_ne_out"] = sum(out_deg[nid] != in_deg[nid] for nid in nodes) / n
        for name, value in want.items():
            if not _close(got[name], value):
                errors.append(f"metrics.csv: {city} {name} = {got[name]!r}, recomputed {value!r}")
    return errors


def check_betweenness(inputs: Inputs, out: Path, sample: list[str]) -> list[str]:
    """median_bc equals networkx's unnormalised length-weighted betweenness / n."""
    import networkx as nx  # only the checks need networkx

    cities, columns, values = read_table(out / "metrics.csv")
    median_bc = dict(zip(cities, values[:, columns.index("median_bc")]))
    errors = []
    for city in sample:
        graph = nx.DiGraph()
        graph.add_nodes_from(inputs.nodes[city])
        graph.add_weighted_edges_from(inputs.links[city], weight="length")
        if graph.number_of_edges() != len(inputs.links[city]):
            errors.append(f"betweenness: {city} has parallel links; networkx cannot check it")
            continue
        n = graph.number_of_nodes()
        bc = nx.betweenness_centrality(graph, weight="length", normalized=False)
        want = statistics.median(v / n for v in bc.values())
        if not _close(median_bc[city], want):
            errors.append(f"betweenness: {city} median_bc = {median_bc[city]!r}, networkx {want!r}")
    return errors


def _constant(values: np.ndarray) -> np.ndarray:
    return values.std(axis=0) < CONSTANT_STD


def check_correlations(out: Path) -> list[str]:
    """correlations.csv equals numpy.corrcoef of features.csv; constant columns are 0 off the diagonal."""
    _, names, x = read_table(out / "features.csv")
    rows, columns, corr = read_table(out / "correlations.csv")
    if rows != names or columns != names:
        return ["correlations.csv: feature names differ from features.csv"]
    live = ~_constant(x)
    want = np.eye(len(names))
    want[np.ix_(live, live)] = np.corrcoef(x[:, live], rowvar=False)
    worst = float(np.abs(corr - want).max())
    return [] if worst <= 1e-9 else [f"correlations.csv: max |difference| from numpy.corrcoef is {worst:.3g}"]


def check_factors(out: Path) -> list[str]:
    """Eigenvalues do not increase and sum to the feature count."""
    factors = json.loads((out / "factors.json").read_text())
    eig = factors["eigenvalues"]
    _, names, _ = read_table(out / "features.csv")
    errors = []
    if factors["feature_count"] != len(names) or len(eig) != len(names):
        errors.append(f"factors.json: {len(eig)} eigenvalues for {len(names)} features")
    if any(b > a for a, b in zip(eig, eig[1:])):
        errors.append("factors.json: eigenvalues increase")
    if not _close(sum(eig), len(names)):
        errors.append(f"factors.json: eigenvalues sum to {sum(eig)!r}, not {len(names)}")
    return errors


def _silhouette(points: np.ndarray, labels: np.ndarray) -> float:
    dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    total = 0.0
    for i in range(len(points)):
        own = labels == labels[i]
        if own.sum() == 1:
            continue
        a = dist[i, own].sum() / (own.sum() - 1)
        b = min(dist[i, labels == c].mean() for c in set(labels.tolist()) if c != labels[i])
        if max(a, b) > 0:
            total += (b - a) / max(a, b)
    return total / len(points)


def _davies_bouldin(points: np.ndarray, labels: np.ndarray) -> float:
    ids = sorted(set(labels.tolist()))
    centres = [points[labels == c].mean(axis=0) for c in ids]
    spread = [np.linalg.norm(points[labels == c] - centres[i], axis=1).mean() for i, c in enumerate(ids)]
    worst = [
        max((spread[i] + spread[j]) / np.linalg.norm(centres[i] - centres[j]) for j in range(len(ids)) if j != i)
        for i in range(len(ids))
    ]
    return float(np.mean(worst))


def _scores_and_labels(out: Path) -> tuple[np.ndarray, np.ndarray]:
    """Factor scores taken by SVD of the z-scored features.csv, and the
    clusters.csv label of each row. The scores equal the program's up to a
    rotation, which keeps every distance."""
    cities, _, x = read_table(out / "features.csv")
    _, rows = read_csv(out / "clusters.csv")
    label_of = {r[0]: int(r[1]) for r in rows}
    retained = json.loads((out / "factors.json").read_text())["retained"]
    z = (x - x.mean(axis=0)) / np.where(_constant(x), 1.0, x.std(axis=0))
    z[:, _constant(x)] = 0.0
    _, _, vt = np.linalg.svd(z, full_matrices=False)
    return z @ vt[:retained].T, np.array([label_of[c] for c in cities])


def check_evaluation(out: Path, feature_mode: str) -> list[str]:
    """Silhouette and Davies-Bouldin, recomputed from clusters.csv on the
    factor scores, match evaluation.json."""
    scores, labels = _scores_and_labels(out)
    report = json.loads((out / "evaluation.json").read_text())[feature_mode]
    errors = []
    for name, value in (("silhouette", _silhouette(scores, labels)), ("davies_bouldin", _davies_bouldin(scores, labels))):
        if report[name] is None or not _close(report[name], value, rel=1e-7, abs_=1e-9):
            errors.append(f"evaluation.json: {name} = {report[name]!r}, recomputed {value!r}")
    return errors


def check_kmeans(out: Path, feature_mode: str) -> list[str]:
    """The clusters are a converged k-means fit on the factor scores: every
    city is nearest to its own cluster's mean, and evaluation.json's inertia
    is the recomputed sum of squared distances to those means."""
    scores, labels = _scores_and_labels(out)
    ids = sorted(set(labels.tolist()))
    centres = np.array([scores[labels == c].mean(axis=0) for c in ids])
    d2 = ((scores[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
    own = d2[np.arange(len(scores)), [ids.index(c) for c in labels]]
    stray = np.flatnonzero(own > d2.min(axis=1) * (1 + 1e-9) + 1e-12)
    errors = [f"clusters.csv: row {i + 1} is nearer another cluster's mean" for i in stray]
    inertia = float(own.sum())
    report = json.loads((out / "evaluation.json").read_text())[feature_mode]
    if not _close(report["inertia"], inertia, rel=1e-7, abs_=1e-9):
        errors.append(f"evaluation.json: inertia = {report['inertia']!r}, recomputed {inertia!r}")
    return errors


def check_elbow(out: Path) -> list[str]:
    _, rows = read_csv(out / "elbow.csv")
    inertia = [float(r[1]) for r in rows]
    bad = [i for i in range(1, len(inertia)) if inertia[i] > inertia[i - 1] * (1 + 1e-12)]
    return [f"elbow.csv: inertia rises at k={rows[i][0]}" for i in bad]


def _bins_ok(where: str, bins) -> list[str]:
    errors = []
    if not _close(sum(bins), 1.0):
        errors.append(f"{where}: bearing bins sum to {sum(bins)!r}")
    if bins[0] != max(bins):
        errors.append(f"{where}: bin 1 is not the largest")
    return errors


def check_bearings(out: Path) -> list[str]:
    """Bearing bins sum to 1 and bin 1 is the largest, in every place they are written."""
    errors = []
    cities, names, x = read_table(out / "features.csv")
    cols = [names.index(f"bearing_bin_{i}") for i in range(1, 19)]
    for city, row in zip(cities, x):
        errors += _bins_ok(f"features.csv {city}", list(row[cols]))
    histograms = out / "bearing_histograms.json"
    if histograms.exists():
        for city, entry in json.loads(histograms.read_text()).items():
            errors += _bins_ok(f"bearing_histograms.json {city}", entry["bins"])
    return errors


def check_patterns(out: Path) -> list[str]:
    """Pattern proportions for each degree sum to 1 or are all zero."""
    cities, names, x = read_table(out / "patterns.csv")
    errors = []
    for degree in ("d3", "d4"):
        cols = [i for i, n in enumerate(names) if n.startswith(degree + "_")]
        for city, total in zip(cities, x[:, cols].sum(axis=1)):
            if not (_close(total, 1.0) or total == 0.0):
                errors.append(f"patterns.csv: {city} {degree} proportions sum to {total!r}")
    return errors


def check_purity(out: Path, archetype: dict[str, str], minimum: float = 0.9) -> list[str]:
    """Clusters recover the archetypes (the paper's claim)."""
    _, rows = read_csv(out / "clusters.csv")
    by_label: dict[str, Counter] = {}
    for city, label in rows:
        by_label.setdefault(label, Counter())[archetype[city]] += 1
    purity = sum(c.most_common(1)[0][1] for c in by_label.values()) / len(rows)
    return [] if purity >= minimum else [f"clusters.csv: purity {purity:.3f} < {minimum}"]


def check_same_files(names, left: Path, right: Path, what: str) -> list[str]:
    return [
        f"{what}: {name} differs"
        for name in names
        if (left / name).read_bytes() != (right / name).read_bytes()
    ]


def betweenness_sample(corpus: Corpus, seed: int, count: int) -> list[str]:
    """``count`` cities of distinct archetypes, chosen by the seed."""
    names = sorted(corpus.archetype)
    random.Random(seed).shuffle(names)
    sample: dict[str, str] = {}
    for name in names:
        sample.setdefault(corpus.archetype[name], name)
    return list(sample.values())[:count]
