"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
Every tolerance and runtime budget is asserted, not just reported.
"""

import math
import random
import time

import numpy as np
import pytest

from cityform.clustering import davies_bouldin, kmeans, silhouette
from cityform.features import BEARING_BINS, assemble_features, bearing_histogram, zscore
from cityform.geometry import classify_pattern, pattern_counts
from cityform.reduction import extract_factors
from cityform.synth import corpus_specs, generate
from cityform.topology import betweenness, topo_metrics
from cityform.cli import PIPELINE_ARTIFACTS, RunConfig, run_pipeline, write_corpus

from helpers import (
    adjusted_rand_index,
    brute_force_betweenness,
    cluster_purity,
    davies_bouldin_oracle,
    make_grid_city,
    random_directed_city,
    ray_gaps,
    rotate_city,
    rotation_angle_oracle,
    silhouette_oracle,
)


def verdict(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_angle_kernel():
    started = time.perf_counter()
    rng = random.Random(101)
    worst = 0.0
    seen_bins = set()
    trials = 0
    while trials < 1000:
        o = (rng.uniform(-100, 100), rng.uniform(-100, 100))
        a = (o[0] + rng.uniform(-50, 50), o[1] + rng.uniform(-50, 50))
        b = (o[0] + rng.uniform(-50, 50), o[1] + rng.uniform(-50, 50))
        if math.dist(a, o) < 1e-3 or math.dist(b, o) < 1e-3:
            continue
        trials += 1
        # node_angles yields the two gaps between rays o->a and o->b.
        got = sorted(ray_gaps(a, o, b))
        want = rotation_angle_oracle(a, o, b)
        worst = max(worst, *(abs(g - w) for g, w in zip(got, sorted([want, 360.0 - want]))))
        seen_bins.add(int(want // 20.0))
    trivials = (
        sorted(ray_gaps((1, 0), (0, 0), (0, 1))) == [90.0, 270.0]
        and sorted(ray_gaps((0, 1), (0, 0), (1, 0))) == [90.0, 270.0]
        and sorted(ray_gaps((1, 0), (0, 0), (-1, 0))) == [180.0, 180.0]
    )
    elapsed = time.perf_counter() - started
    verdict(
        1,
        "node_angles matches rotation oracle on 1000 triples",
        worst < 1e-9 and len(seen_bins) == 18 and trivials and elapsed < 1.0,
        f"max err {worst:.2e} deg, {len(seen_bins)}/18 sectors hit, {elapsed:.2f}s",
    )


def test_criterion_2_pattern_classifier():
    started = time.perf_counter()
    grid = make_grid_city(10, 10, 100.0)
    counts = pattern_counts(grid)
    grid_ok = counts["d4_t1"] == 1.0 and counts["d3_t1"] == 1.0
    rng = random.Random(202)
    total = True
    for degree in (3, 4):
        for _ in range(1000):
            cuts = sorted(rng.uniform(0.0, 360.0) for _ in range(degree))
            gaps = [b - a for a, b in zip(cuts, cuts[1:])]
            gaps.append(360.0 - cuts[-1] + cuts[0])
            if classify_pattern(gaps, degree) not in {"1", "2", "3", "4", "5", "6", "7"}:
                total = False
    elapsed = time.perf_counter() - started
    verdict(
        2,
        "grid nodes all type 1; classifier total on random partitions",
        grid_ok and total and elapsed < 1.0,
        f"d4 t1 {counts['d4_t1']:.2f}, d3 t1 {counts['d3_t1']:.2f}, {elapsed:.2f}s",
    )


def test_criterion_3_betweenness_oracle():
    started = time.perf_counter()
    rng = random.Random(303)
    worst = 0.0
    disconnected = 0
    for _ in range(100):
        city = random_directed_city(rng, max_nodes=30)
        fast = betweenness(city)
        slow = brute_force_betweenness(city)
        worst = max(worst, max(abs(fast[n] - slow[n]) for n in fast))
        graph = city.graph
        if any(graph.out_degree(n) == 0 and graph.in_degree(n) == 0 for n in graph.nodes):
            disconnected += 1
    elapsed = time.perf_counter() - started
    verdict(
        3,
        "betweenness exact against brute-force oracle on 100 random graphs",
        worst <= 1e-9 and disconnected > 0 and elapsed < 30.0,
        f"max abs err {worst:.2e}, {disconnected} with isolated nodes, {elapsed:.1f}s",
    )


def test_criterion_4_evaluation_indices():
    points = np.array([[0.0], [1.0], [10.0], [11.0]])
    labels = np.array([0, 0, 1, 1])
    sil = silhouette(points, labels)
    dbi = davies_bouldin(points, labels)
    example_ok = abs(sil - 0.8997) <= 1e-3 and abs(dbi - 0.1) <= 1e-9
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 51))
        data = rng.normal(size=(n, int(rng.integers(1, 4))))
        k = int(rng.integers(2, 6))
        random_labels = rng.integers(0, k, size=n)
        while len(set(random_labels.tolist())) < 2:
            random_labels = rng.integers(0, k, size=n)
        worst = max(worst, abs(silhouette(data, random_labels) - silhouette_oracle(data, random_labels)))
        got = davies_bouldin(data, random_labels)
        want = davies_bouldin_oracle(data, random_labels)
        if math.isinf(want) or math.isinf(got):
            if not (math.isinf(want) and math.isinf(got)):
                worst = math.inf
        else:
            worst = max(worst, abs(got - want))
    verdict(
        4,
        "silhouette/DBI match hand values and brute-force formulas",
        example_ok and worst <= 1e-9,
        f"sil {sil:.4f}, dbi {dbi:.10f}, max oracle err {worst:.2e}",
    )


def test_criterion_5_kmeans_recovery():
    started = time.perf_counter()
    centers = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)]
    recovered = 0
    for seed in range(100):
        rng = np.random.default_rng(50_000 + seed)
        blobs, truth = [], []
        for label, center in enumerate(centers):
            blobs.append(rng.normal(center, 0.5, size=(30, 2)))
            truth += [label] * 30
        points = np.vstack(blobs)
        result = kmeans(points, 3, seed=seed, restarts=10)
        if adjusted_rand_index(result.labels.tolist(), truth) == 1.0:
            recovered += 1
    elapsed = time.perf_counter() - started
    verdict(
        5,
        "k-means recovers three separated blobs",
        recovered >= 95 and elapsed < 10.0,
        f"{recovered}/100 seeds, {elapsed:.1f}s",
    )


def test_criterion_6_bearing_invariance():
    worst = 0.0
    dominant_ok = True
    for name, spec in corpus_specs(1, seed=606):
        city = generate(spec, name=name)
        base = bearing_histogram(city)
        turned = bearing_histogram(rotate_city(city, 40.0))
        worst = max(worst, max(abs(base[name] - turned[name]) for name in BEARING_BINS))
        dominant_ok = dominant_ok and base["dominant_bin_count"] == turned["dominant_bin_count"]
    verdict(
        6,
        "40-degree rotation leaves rotated histogram and dominant count unchanged",
        worst <= 1e-9 and dominant_ok,
        f"max bin delta {worst:.2e}",
    )


def test_criterion_7_end_to_end_typology():
    started = time.perf_counter()
    names, rows, truth = [], [], []
    for name, spec in corpus_specs(10, seed=0):
        city = generate(spec, name=name)
        names.append(name)
        rows.append(
            {**topo_metrics(city), **pattern_counts(city), **bearing_histogram(city)}
        )
        truth.append(spec.kind)

    def cluster(mode):
        matrix = zscore(assemble_features(names, rows, mode))
        model = extract_factors(matrix)
        return kmeans(model.scores, 3, seed=0, restarts=10)

    enhanced = cluster("enhanced")
    baseline = cluster("baseline")
    purity = cluster_purity(enhanced.labels.tolist(), truth)
    elapsed = time.perf_counter() - started
    verdict(
        7,
        "enhanced pipeline recovers archetypes and beats baseline silhouette",
        purity >= 0.90 and enhanced.silhouette >= baseline.silhouette and elapsed < 60.0,
        f"purity {purity:.3f}, silhouette enhanced {enhanced.silhouette:.4f} "
        f"vs baseline {baseline.silhouette:.4f}, {elapsed:.1f}s",
    )


def test_criterion_8_pipeline_determinism(tmp_path):
    corpus = tmp_path / "corpus"
    write_corpus(
        ["gridded", "orthogonal", "organic"], count=2, seed=8, size=48,
        spacing=100.0, out_dir=str(corpus),
    )

    def run(out):
        config = RunConfig(
            nodes_path=str(corpus / "nodes.csv"),
            links_path=str(corpus / "links.csv"),
            boundaries_path=str(corpus / "boundaries.geojson"),
            out_dir=str(out),
            mode="planar",
            feature_mode="enhanced",
            k=3,
            seed=2,
            restarts=5,
        )
        run_pipeline(config)
        return out

    first = run(tmp_path / "run_a")
    second = run(tmp_path / "run_b")
    identical = True
    for artifact in PIPELINE_ARTIFACTS:
        left = (first / artifact).read_bytes()
        right = (second / artifact).read_bytes()
        if left != right:
            identical = False
    verdict(8, "pipeline run twice produces byte-identical artifacts", identical)
