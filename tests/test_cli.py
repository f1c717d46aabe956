"""CLI subcommands, artifact files, exit codes, and the pipeline contract."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cityform
from cityform.cli import (
    METRICS_HEADER,
    PATTERNS_HEADER,
    PIPELINE_ARTIFACTS,
    RunConfig,
    main,
    run_pipeline,
    write_corpus,
)
from cityform.clustering import elbow, kmeans
from cityform.errors import ValidationError
from cityform.features import (
    BASELINE_FEATURES,
    BEARING_BINS,
    ENHANCED_FEATURES,
    FeatureMatrix,
    assemble_features,
    bearing_histogram,
    pearson_report,
    zscore,
)
from cityform.geometry import DEFAULT_TAU_DEG, pattern_counts
from cityform.graph import clip_to_city, load_boundaries, load_graph
from cityform.reduction import extract_factors
from cityform.synth import ArchetypeSpec
from cityform.topology import topo_metrics

from helpers import make_grid_city


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    names = write_corpus(
        ["gridded", "orthogonal", "organic"], count=2, seed=5, size=48,
        spacing=100.0, out_dir=str(root),
    )
    return root, names


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def io_args(root, out):
    return [
        "--nodes", str(root / "nodes.csv"),
        "--links", str(root / "links.csv"),
        "--boundaries", str(root / "boundaries.geojson"),
        "--mode", "planar",
        "--out", str(out),
    ]


class TestSynthCommand:
    def test_corpus_is_loadable_and_clippable(self, corpus):
        root, names = corpus
        assert len(names) == 6
        graph = load_graph(str(root / "nodes.csv"), str(root / "links.csv"), "planar")
        boundaries = load_boundaries(str(root / "boundaries.geojson"))
        assert [b.city_name for b in boundaries] == names
        from cityform.graph import clip_to_city

        for boundary in boundaries:
            city = clip_to_city(graph, boundary)
            assert not city.is_empty
            # Clipping recovers exactly the nodes written for that city.
            assert all(nid.startswith(boundary.city_name + ":") for nid in city.graph.nodes)

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_no_cities_is_validation(self, tmp_path, capsys, count):
        assert main(["synth", "--count", count, "--out", str(tmp_path / "s")]) == 2
        assert f"count must be >= 1, got {count}" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--size", "-5", "size must be >= 1, got -5"),
            ("--size", "0", "size must be >= 1, got 0"),
            ("--spacing", "nan", "spacing must be positive and finite, got nan"),
            ("--spacing", "inf", "spacing must be positive and finite, got inf"),
            ("--spacing", "-100", "spacing must be positive and finite, got -100.0"),
            ("--spacing", "0", "spacing must be positive and finite, got 0.0"),
            # random.Random seeds with |seed|: -3 would write the corpus of seed 3.
            ("--seed", "-3", "seed must be >= 0, got -3"),
        ],
    )
    def test_bad_size_or_spacing_is_validation(self, tmp_path, capsys, flag, value, message):
        assert main(["synth", "--count", "1", flag, value, "--out", str(tmp_path / "s")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_out_that_is_a_file_is_validation(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("generated a city for an output it cannot write")

        monkeypatch.setattr("cityform.cli.generate", refuse)
        blocker = tmp_path / "F"
        blocker.write_text("keep\n")
        assert main(["synth", "--count", "1", "--size", "36", "--out", str(blocker)]) == 2
        assert f"cannot make output directory {blocker}: File exists" in capsys.readouterr().err
        assert blocker.read_text() == "keep\n"

    def test_failure_removes_what_it_wrote(self, tmp_path, capsys):
        out = tmp_path / "s"
        (out / "boundaries.geojson").mkdir(parents=True)
        assert main(["synth", "--count", "1", "--size", "36", "--out", str(out)]) == 2
        assert f"cannot write {out / 'boundaries.geojson'}" in capsys.readouterr().err
        # nodes.csv and links.csv were written first, then removed.
        assert [p.name for p in out.iterdir()] == ["boundaries.geojson"]

    def test_cli_entry(self, tmp_path):
        code = main([
            "synth", "--kind", "gridded", "--count", "1", "--seed", "3",
            "--size", "36", "--out", str(tmp_path / "s"),
        ])
        assert code == 0
        assert (tmp_path / "s" / "nodes.csv").exists()


class TestStageCommands:
    def test_metrics_command(self, corpus, tmp_path):
        root, names = corpus
        assert main(["metrics"] + io_args(root, tmp_path)) == 0
        rows = read_csv(tmp_path / "metrics.csv")
        assert rows[0] == METRICS_HEADER
        assert len(rows) == 1 + len(names)

    def test_patterns_command_with_detail(self, corpus, tmp_path):
        root, names = corpus
        assert main(["patterns", "--detail"] + io_args(root, tmp_path)) == 0
        rows = read_csv(tmp_path / "patterns.csv")
        assert rows[0] == PATTERNS_HEADER
        detail = read_csv(tmp_path / "patterns_detail.csv")
        assert detail[0] == ["city", "node_id", "degree", "angles_sorted", "type"]
        assert len(detail) > 1

    def test_features_command(self, corpus, tmp_path):
        root, _ = corpus
        assert main(["features", "--feature-mode", "enhanced"] + io_args(root, tmp_path)) == 0
        rows = read_csv(tmp_path / "features.csv")
        assert len(rows[0]) == 1 + 42
        corr = read_csv(tmp_path / "correlations.csv")
        assert len(corr) == 1 + 42

    def test_features_drop(self, corpus, tmp_path):
        root, _ = corpus
        code = main(
            ["features", "--feature-mode", "baseline", "--drop-features", "median_bc"]
            + io_args(root, tmp_path)
        )
        assert code == 0
        rows = read_csv(tmp_path / "features.csv")
        assert "median_bc" not in rows[0]
        assert len(rows[0]) == 1 + 8

    def test_cluster_command(self, corpus, tmp_path):
        root, names = corpus
        code = main(["cluster", "--k", "3", "--seed", "1"] + io_args(root, tmp_path))
        assert code == 0
        rows = read_csv(tmp_path / "clusters.csv")
        assert len(rows) == 1 + len(names)
        evaluation = json.loads((tmp_path / "evaluation.json").read_text())
        assert "enhanced" in evaluation
        entry = evaluation["enhanced"]
        assert entry["k"] == 3 and entry["space"] == "factor_scores"
        assert -1.0 <= entry["silhouette"] <= 1.0
        elbow_rows = read_csv(tmp_path / "elbow.csv")
        assert elbow_rows[0] == ["k", "inertia"]

    def test_coincident_factor_scores_give_a_degenerate_dbi(self, corpus, tmp_path):
        # d3_t7 is 0 in every city of this corpus, so every factor score is
        # 0 and both clusters share one centroid.
        root, _ = corpus
        drop = [name for name in ENHANCED_FEATURES if name != "d3_t7"]
        argv = ["cluster", "--k", "2", "--drop-features", *drop] + io_args(root, tmp_path)
        assert main(argv) == 0
        entry = json.loads((tmp_path / "evaluation.json").read_text())["enhanced"]
        assert entry["inertia"] == 0.0 and entry["silhouette"] == 0.0
        assert entry["davies_bouldin"] is None and entry["degenerate_dbi"] is True

    def test_clusters_csv_does_not_depend_on_the_seed(self, corpus, tmp_path):
        root, _ = corpus
        for seed in ("0", "1"):
            assert main(["cluster", "--seed", seed] + io_args(root, tmp_path / seed)) == 0

        def partition(out):
            groups = {}
            for city, label in read_csv(out / "clusters.csv")[1:]:
                groups.setdefault(label, set()).add(city)
            return sorted(map(sorted, groups.values()))

        # Both seeds find one partition, so they number it alike.
        assert partition(tmp_path / "0") == partition(tmp_path / "1")
        assert (tmp_path / "0" / "clusters.csv").read_bytes() == (
            tmp_path / "1" / "clusters.csv"
        ).read_bytes()

    def test_evaluation_inertia_is_the_elbow_row_at_k(self, tmp_path):
        # On this corpus the warm start from k = 3 beats every restart at k = 4.
        root = tmp_path / "corpus"
        write_corpus(["gridded", "orthogonal", "organic"], 4, 7, 120, 100.0, str(root))
        assert main(["pipeline", "--k", "4"] + io_args(root, tmp_path / "out")) == 0
        inertia = json.loads((tmp_path / "out" / "evaluation.json").read_text())["enhanced"]["inertia"]
        rows = dict(read_csv(tmp_path / "out" / "elbow.csv")[1:])
        assert inertia == float(rows["4"]) == 72.58614131173438

    def test_ingest_command(self, corpus, tmp_path):
        root, names = corpus
        assert main(["ingest"] + io_args(root, tmp_path)) == 0
        rows = read_csv(tmp_path / "cities_summary.csv")
        assert rows[0] == ["city", "nodes", "links", "area_km2"]
        assert len(rows) == 1 + len(names)


class TestPipeline:
    def config(self, root, out, **overrides):
        base = dict(
            nodes_path=str(root / "nodes.csv"),
            links_path=str(root / "links.csv"),
            boundaries_path=str(root / "boundaries.geojson"),
            out_dir=str(out),
            mode="planar",
            feature_mode="enhanced",
            k=3,
            seed=1,
            restarts=5,
        )
        base.update(overrides)
        return RunConfig(**base)

    def test_all_artifacts_written(self, corpus, tmp_path):
        root, names = corpus
        summary = run_pipeline(self.config(root, tmp_path / "run"))
        assert summary["cities"] == len(names)
        for artifact in PIPELINE_ARTIFACTS:
            assert (tmp_path / "run" / artifact).exists(), artifact
        assert (tmp_path / "run" / "run_manifest.json").exists()
        clusters = read_csv(tmp_path / "run" / "clusters.csv")
        assert len(clusters) == 1 + len(names)
        labels = {row[1] for row in clusters[1:]}
        assert labels <= {"0", "1", "2"}

    def test_manifest_round_trips(self, corpus, tmp_path):
        root, _ = corpus
        config = self.config(root, tmp_path / "run2", k_range=(1, 4))
        run_pipeline(config)
        manifest = json.loads((tmp_path / "run2" / "run_manifest.json").read_text())
        assert manifest["tool"] == "cityform"
        rebuilt = RunConfig(**manifest["config"])
        assert rebuilt == config

    def test_identical_runs_are_byte_identical(self, corpus, tmp_path):
        root, _ = corpus
        run_pipeline(self.config(root, tmp_path / "a"))
        run_pipeline(self.config(root, tmp_path / "b"))
        for artifact in PIPELINE_ARTIFACTS + ("run_manifest.json",):
            left = (tmp_path / "a" / artifact).read_bytes()
            right = (
                (tmp_path / "b" / artifact)
                .read_bytes()
                .replace(str(tmp_path / "b").encode(), str(tmp_path / "a").encode())
            )
            assert left == right, artifact

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"tau": 50.0}, "tau must lie in"),
            ({"mode": "mercator"}, "unknown coordinate mode: 'mercator'"),
            ({"feature_mode": "fancy"}, "unknown feature mode 'fancy'"),
        ],
        ids=["tau", "mode", "feature-mode"],
    )
    def test_validation_failure_before_compute(self, corpus, tmp_path, override, message):
        root, _ = corpus
        with pytest.raises(ValidationError, match=message):
            run_pipeline(self.config(root, tmp_path / "bad", **override))
        assert not (tmp_path / "bad").exists()

    def test_unknown_artifact_is_validation(self, corpus, tmp_path):
        root, _ = corpus
        with pytest.raises(ValidationError, match=r"unknown artifacts: \['nope.csv'\]"):
            run_pipeline(self.config(root, tmp_path / "bad"), ("metrics.csv", "nope.csv"))
        assert not (tmp_path / "bad").exists()

    @staticmethod
    def fail_after_factors(monkeypatch, out):
        def fail(*args, **kwargs):
            # Nothing is written until every artifact is computed.
            assert not (out / "factors.json").exists()
            raise ValidationError("k-means failed")

        monkeypatch.setattr("cityform.cli.kmeans", fail)

    def test_partial_outputs_removed_on_error(self, corpus, tmp_path, monkeypatch):
        root, _ = corpus
        out = tmp_path / "broken" / "out"
        self.fail_after_factors(monkeypatch, out)
        with pytest.raises(ValidationError):
            run_pipeline(self.config(root, out))
        # Both directories the run created are gone; the one it found stays.
        assert not (tmp_path / "broken").exists()
        assert tmp_path.is_dir()

    def test_failed_run_keeps_an_existing_out_directory(self, corpus, tmp_path, monkeypatch):
        root, _ = corpus
        out = tmp_path / "existing"
        out.mkdir()
        self.fail_after_factors(monkeypatch, out)
        with pytest.raises(ValidationError):
            run_pipeline(self.config(root, out))
        assert out.is_dir()
        assert list(out.iterdir()) == []


class TestGeographicMode:
    def test_metrics_on_lonlat_corpus(self, tmp_path):
        (tmp_path / "nodes.csv").write_text(
            "node_id,x,y\nA,-122.3,37.8\nB,-122.299,37.8\nC,-122.3,37.801\n"
        )
        (tmp_path / "links.csv").write_text(
            "link_id,from,to,length_m,shape_points\n"
            "L1,A,B,,\nL2,B,A,,\nL3,A,C,,\nL4,C,A,,\n"
        )
        (tmp_path / "b.geojson").write_text(json.dumps({
            "type": "FeatureCollection",
            "features": [{
                "type": "Feature",
                "properties": {"name": "bay"},
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [[[-122.31, 37.79], [-122.29, 37.79],
                                     [-122.29, 37.81], [-122.31, 37.81],
                                     [-122.31, 37.79]]],
                },
            }],
        }))
        out = tmp_path / "o"
        code = main([
            "metrics",
            "--nodes", str(tmp_path / "nodes.csv"),
            "--links", str(tmp_path / "links.csv"),
            "--boundaries", str(tmp_path / "b.geojson"),
            "--mode", "geo",
            "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "metrics.csv")
        assert rows[1][0] == "bay"
        # ~0.001 deg of longitude at 37.8N is below 100 m; sanity bound only.
        mean_len = float(rows[1][METRICS_HEADER.index("mean_link_length_m")])
        assert 50.0 < mean_len < 130.0

    def test_boundary_across_the_antimeridian_is_data_error(self, tmp_path, capsys):
        (tmp_path / "nodes.csv").write_text("node_id,x,y\nA,179.5,0\nB,179.6,0\nC,179.5,0.1\n")
        (tmp_path / "links.csv").write_text(
            "link_id,from,to,length_m,shape_points\nL1,A,B,,\nL2,B,A,,\nL3,A,C,,\nL4,C,A,,\n"
        )
        argv = io_args(tmp_path, tmp_path / "out")
        argv[argv.index("--boundaries") + 1] = str(tmp_path / "b.geojson")
        argv[argv.index("--mode") + 1] = "geo"
        # A box that reaches the antimeridian is clipped; one that crosses it is refused.
        for west, east, code in [(178.0, 180.0, 0), (179.0, -179.0, 3)]:
            ring = [[west, -1.0], [east, -1.0], [east, 1.0], [west, 1.0], [west, -1.0]]
            doc = {"type": "FeatureCollection", "features": [feature("dateline", [ring])]}
            (tmp_path / "b.geojson").write_text(json.dumps(doc))
            assert main(["ingest"] + argv) == code
        assert "split the polygon at the antimeridian" in capsys.readouterr().err
        assert read_csv(tmp_path / "out" / "cities_summary.csv")[1][:3] == ["dateline", "3", "4"]

    @pytest.mark.parametrize("lat", [90.0, -90.0], ids=["north", "south"])
    def test_node_at_a_pole_is_data_error(self, tmp_path, capsys, lat):
        # A four-way junction with 10 m arms, centred on the pole.
        step = 10.0 / 111_320.0
        edge = math.copysign(90.0 - step, lat)
        (tmp_path / "nodes.csv").write_text(
            f"node_id,x,y\nP,0,{lat}\nA,0,{edge}\nB,90,{edge}\nC,180,{edge}\nD,-90,{edge}\n"
        )
        (tmp_path / "links.csv").write_text(
            "link_id,from,to,length_m,shape_points\n"
            + "".join(f"P{n},P,{n},,\n{n}P,{n},P,,\n" for n in "ABCD")
        )
        rim = edge - lat / 90
        ring = [[-180.0, rim], [0.0, rim], [180.0, rim], [180.0, lat], [0.0, lat], [-180.0, lat]]
        doc = {"type": "FeatureCollection", "features": [feature("cap", [ring])]}
        (tmp_path / "b.geojson").write_text(json.dumps(doc))
        argv = io_args(tmp_path, tmp_path / "out")
        argv[argv.index("--boundaries") + 1] = str(tmp_path / "b.geojson")
        argv[argv.index("--mode") + 1] = "geo"
        assert main(["patterns"] + argv) == 3
        assert f"node 'P' lies at a pole (latitude {lat})" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    def test_geographic_run_agrees_with_planar_run(self, corpus, tmp_path):
        # The corpus in lon/lat with blank lengths, each city mapped around
        # its own centre, so lengths become haversine and areas spherical.
        # Against the planar run, measured on this corpus: links differ by
        # <= 6.6e-5 relative, mean link length, density and area by <= 3.4e-6,
        # node angles by <= 0.0023 degrees, and no pattern type changes. The
        # gap is the local scale, off by tan(latitude) * (metres north of the
        # centre) / earth radius. The bounds are 3x those measurements.
        root, _ = corpus
        geo = geographic_copy(root, tmp_path / "geo")
        runs = {}
        for mode, where in (("planar", root), ("geo", geo)):
            argv = io_args(where, tmp_path / mode)
            argv[argv.index("--mode") + 1] = mode
            for command in (["pipeline"], ["patterns", "--detail"], ["ingest"]):
                assert main(command + argv) == 0
            runs[mode] = tmp_path / mode
        planar, geo_out = runs["planar"], runs["geo"]
        assert (planar / "clusters.csv").read_bytes() == (geo_out / "clusters.csv").read_bytes()

        lengths = {}
        for mode, where in (("planar", root), ("geographic", geo)):
            graph = load_graph(str(where / "nodes.csv"), str(where / "links.csv"), mode)
            lengths[mode] = {link.id: link.length_m for link in graph.links}
        assert lengths["planar"].keys() == lengths["geographic"].keys()
        for link_id, length in lengths["planar"].items():
            assert lengths["geographic"][link_id] == pytest.approx(length, rel=2e-4)
        for artifact, columns in (
            ("metrics.csv", ("mean_link_length_m", "density_km_per_km2")),
            ("cities_summary.csv", ("area_km2",)),
        ):
            want, got = read_csv(planar / artifact), read_csv(geo_out / artifact)
            for column in columns:
                i = want[0].index(column)
                for w, g in zip(want[1:], got[1:], strict=True):
                    assert float(g[i]) == pytest.approx(float(w[i]), rel=1e-5), (w[0], column)

        margin = 0.007  # degrees
        edges = [90 - DEFAULT_TAU_DEG, 90 + DEFAULT_TAU_DEG, 180 - DEFAULT_TAU_DEG, 180 + DEFAULT_TAU_DEG]
        want = read_csv(planar / "patterns_detail.csv")
        got = read_csv(geo_out / "patterns_detail.csv")
        assert [row[:3] for row in want] == [row[:3] for row in got]
        for w, g in zip(want[1:], got[1:]):
            angles = [float(a) for a in w[3].split(";") if a]
            assert [float(a) for a in g[3].split(";") if a] == pytest.approx(angles, abs=margin)
            if all(abs(a - edge) > margin for a in angles for edge in edges):
                assert g[4] == w[4], w[1]


class TestExitCodes:
    def test_tau_out_of_range_is_validation(self, corpus, tmp_path):
        root, _ = corpus
        code = main(["pipeline", "--tau", "50"] + io_args(root, tmp_path))
        assert code == 2

    def test_missing_file_is_validation(self, tmp_path):
        code = main([
            "pipeline",
            "--nodes", str(tmp_path / "none.csv"),
            "--links", str(tmp_path / "none2.csv"),
            "--boundaries", str(tmp_path / "none3.geojson"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    @pytest.mark.parametrize("blocked", ["links.csv", "boundaries.geojson"])
    def test_unreadable_input_is_validation(self, corpus, tmp_path, monkeypatch, capsys, blocked):
        def guarded_open(file, *args, **kwargs):
            if Path(file).name == blocked:
                raise PermissionError(13, "Permission denied", str(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr("cityform.graph.open", guarded_open, raising=False)
        root, _ = corpus
        assert main(["metrics"] + io_args(root, tmp_path / "out")) == 2
        assert f"cannot read {root / blocked}: Permission denied" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_k_range_flag(self, corpus, tmp_path):
        root, _ = corpus
        assert main(["cluster", "--k-range", "2..6"] + io_args(root, tmp_path)) == 0
        assert [row[0] for row in read_csv(tmp_path / "elbow.csv")[1:]] == ["2", "3", "4", "5", "6"]
        with pytest.raises(SystemExit) as exit_info:
            main(["cluster", "--k-range", "2-6"] + io_args(root, tmp_path / "dash"))
        assert exit_info.value.code == 2

    def test_unexpected_exception_is_internal_error(self, corpus, tmp_path, monkeypatch, capsys):
        def fail(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr("cityform.cli.zscore", fail)
        root, _ = corpus
        assert main(["features"] + io_args(root, tmp_path / "out")) == 4
        assert "internal error: boom" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_dangling_link_is_data_error(self, tmp_path):
        (tmp_path / "nodes.csv").write_text("node_id,x,y\nA,0,0\nB,10,0\n")
        (tmp_path / "links.csv").write_text(
            "link_id,from,to,length_m,shape_points\nL1,A,MISSING,,\n"
        )
        (tmp_path / "b.geojson").write_text(json.dumps({
            "type": "FeatureCollection",
            "features": [{
                "type": "Feature",
                "properties": {"name": "t"},
                "geometry": {"type": "Polygon",
                             "coordinates": [[[-1, -1], [20, -1], [20, 20], [-1, 20], [-1, -1]]]},
            }],
        }))
        code = main([
            "metrics",
            "--nodes", str(tmp_path / "nodes.csv"),
            "--links", str(tmp_path / "links.csv"),
            "--boundaries", str(tmp_path / "b.geojson"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 3


class TestRunner:
    """Every subcommand goes through run_pipeline's lazy, self-cleaning runner."""

    def test_subcommand_failure_removes_what_it_wrote(self, corpus, tmp_path, monkeypatch):
        root, _ = corpus

        def fail(*args, **kwargs):
            assert not (tmp_path / "out" / "factors.json").exists()
            raise ValidationError("k-means failed")

        monkeypatch.setattr("cityform.cli.kmeans", fail)
        assert main(["cluster"] + io_args(root, tmp_path / "out")) == 2
        assert not (tmp_path / "out" / "factors.json").exists()

    @pytest.mark.parametrize(
        "argv, message, cities",
        [
            (["cluster", "--k", "99"], "k must lie in 1..6, got 99", None),
            (["cluster", "--factors", "0"], "factors must lie in 1..42, got 0", None),
            (
                ["cluster", "--feature-mode", "baseline", "--drop-features", "median_bc",
                 "--factors", "9"],
                "factors must lie in 1..8, got 9",
                None,
            ),
            (["features", "--drop-features", "nope"], "cannot drop unknown features: ['nope']", None),
            (["cluster", "--drop-features", "nope"], "cannot drop unknown features: ['nope']", None),
            (
                ["features", "--feature-mode", "baseline", "--drop-features", *BASELINE_FEATURES],
                "cannot drop every feature",
                None,
            ),
            (
                ["cluster", "--k-range", "0..3"],
                "k range A..B needs 1 <= A <= min(B, 6 cities), got (0, 3)",
                None,
            ),
            (
                ["cluster", "--k-range", "5..3"],
                "k range A..B needs 1 <= A <= min(B, 6 cities), got (5, 3)",
                None,
            ),
            (
                ["pipeline", "--k-range", "9..12"],
                "k range A..B needs 1 <= A <= min(B, 6 cities), got (9, 12)",
                None,
            ),
            (["cluster", "--k", "0"], "k must lie in 1..6, got 0", None),
            (["cluster", "--restarts", "0"], "restarts must be >= 1, got 0", None),
            (
                ["features", "--dominant-threshold", "1"],
                "dominant threshold must lie in (0, 1), got 1.0",
                None,
            ),
            (["features"], "correlation needs at least 3 cities", 1),
            (["pipeline", "--k", "1"], "correlation needs at least 3 cities", 1),
            (["pipeline", "--k", "2"], "correlation needs at least 3 cities", 2),
            (["pipeline"], "correlation needs at least 3 cities", 2),
            (["cluster", "--k", "2"], "factor extraction needs at least 3 cities", 2),
            (["cluster", "--seed", "-1"], "seed must be >= 0, got -1", None),
        ],
        ids=[
            "k-above-cities", "no-factors", "factors-above-kept", "drop-unknown-features",
            "drop-unknown-cluster", "drop-every-feature", "k-range-from-0", "reversed-k-range",
            "k-range-above-cities", "k-0", "restarts-0", "dominant-threshold-1",
            "features-on-1-city", "pipeline-on-1-city", "pipeline-on-2-cities",
            "pipeline-k-3-on-2-cities", "cluster-on-2-cities", "seed-negative",
        ],
    )
    def test_bad_configuration_fails_before_betweenness(
        self, corpus, tmp_path, monkeypatch, capsys, argv, message, cities
    ):
        def refuse(city):
            raise AssertionError("computed betweenness for a configuration that cannot run")

        monkeypatch.setattr("cityform.topology.betweenness", refuse)
        root, _ = corpus
        if cities is not None:  # keep the first boundaries only
            doc = json.loads((root / "boundaries.geojson").read_text())
            doc["features"] = doc["features"][:cities]
            root = corpus_copy(corpus, tmp_path, boundaries_replaced(doc))
        assert main(argv + io_args(root, tmp_path / "out")) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_city_is_skipped_with_a_warning(self, corpus, tmp_path, capsys):
        root, names = corpus
        doc = json.loads((root / "boundaries.geojson").read_text())
        doc["features"].append(feature("nowhere", FAR_SQUARE))
        copy = corpus_copy(corpus, tmp_path, boundaries_replaced(doc))
        assert main(["ingest"] + io_args(copy, tmp_path / "out")) == 0
        assert "city 'nowhere' has no nodes inside its boundary; skipped" in capsys.readouterr().err
        rows = read_csv(tmp_path / "out" / "cities_summary.csv")
        assert [row[0] for row in rows[1:]] == names

    def test_every_city_empty_is_data_error(self, corpus, tmp_path, capsys):
        doc = {"type": "FeatureCollection", "features": [feature("nowhere", FAR_SQUARE)]}
        copy = corpus_copy(corpus, tmp_path, boundaries_replaced(doc))
        assert main(["ingest"] + io_args(copy, tmp_path / "out")) == 3
        assert "no non-empty cities after clipping" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_patterns_never_computes_betweenness(self, corpus, tmp_path, monkeypatch):
        def refuse(city):
            raise AssertionError("patterns computed betweenness")

        monkeypatch.setattr("cityform.topology.betweenness", refuse)
        root, _ = corpus
        assert main(["patterns", "--detail"] + io_args(root, tmp_path)) == 0
        assert (tmp_path / "patterns_detail.csv").exists()

    @pytest.mark.parametrize("command", ["features", "cluster"])
    def test_baseline_never_computes_patterns_or_bearings(
        self, corpus, tmp_path, monkeypatch, command
    ):
        def refuse(*args):
            raise AssertionError("a baseline run computed patterns or bearings")

        monkeypatch.setattr("cityform.cli.pattern_counts", refuse)
        monkeypatch.setattr("cityform.cli.bearing_histogram", refuse)
        root, _ = corpus
        assert main([command, "--feature-mode", "baseline"] + io_args(root, tmp_path)) == 0

    @staticmethod
    def assert_artifacts_ignore(variable, root, out):
        """``pipeline`` in fresh interpreters with ``variable`` set to 1 and
        to 2 writes byte-identical artifacts."""
        src = str(Path(cityform.__file__).resolve().parents[1])
        for value in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, **{variable: value})
            subprocess.run(
                [sys.executable, "-m", "cityform.cli", "pipeline"] + io_args(root, out / value),
                env=env, check=True, capture_output=True,
            )
        for artifact in PIPELINE_ARTIFACTS:
            left = (out / "1" / artifact).read_bytes()
            assert left == (out / "2" / artifact).read_bytes(), artifact

    def test_artifacts_do_not_depend_on_hash_seed(self, corpus, tmp_path):
        root, _ = corpus
        self.assert_artifacts_ignore("PYTHONHASHSEED", root, tmp_path / "as-generated")
        # With lengths rounded to 10 m, 97 of the corpus's 141 core sources
        # have tied shortest paths, so betweenness runs its scalar fallback.
        tied = corpus_copy(corpus, tmp_path, lengths_rounded(10.0))
        self.assert_artifacts_ignore("PYTHONHASHSEED", tied, tmp_path / "tied")

    def test_artifacts_do_not_depend_on_blas_threads(self, tmp_path):
        # From 26 cities up, eigh of the correlation matrix takes LAPACK's
        # divide-and-conquer path, whose dgemm runs on OpenBLAS threads.
        root = tmp_path / "corpus"
        names = write_corpus(
            ["gridded", "orthogonal", "organic"], count=9, seed=5, size=36,
            spacing=100.0, out_dir=str(root),
        )
        assert len(names) == 27
        self.assert_artifacts_ignore("OPENBLAS_NUM_THREADS", root, tmp_path)

    @staticmethod
    def loaded_by_pipeline(root, out, module):
        """Whether ``module`` was loaded after importing numpy and after a
        ``pipeline`` run in a fresh interpreter, with the run's exit code."""
        src = str(Path(cityform.__file__).resolve().parents[1])
        script = (
            f"import sys, numpy; before = {module!r} in sys.modules; "
            "from cityform.cli import main; code = main(sys.argv[1:]); "
            f"print(code, before, {module!r} in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "pipeline"] + io_args(root, out),
            env=dict(os.environ, PYTHONPATH=src), check=True, capture_output=True, text=True,
        )
        code, before, after = proc.stdout.split()[-3:]
        if before == "True":
            pytest.skip(f"this numpy imports {module} with numpy itself")
        return code, after

    def test_pipeline_leaves_numpy_random_unloaded(self, corpus, tmp_path):
        # k-means seeds from the standard library's generator.
        root, _ = corpus
        assert self.loaded_by_pipeline(root, tmp_path, "numpy.random") == ("0", "False")

    def test_pipeline_leaves_numpy_ma_unloaded(self, corpus, tmp_path):
        # np.unique imports numpy.ma on first use, for ~0.8 MB of memory.
        root, _ = corpus
        assert self.loaded_by_pipeline(root, tmp_path, "numpy.ma") == ("0", "False")


class TestBlasThreadDefault:
    """``import cityform`` sets OPENBLAS_NUM_THREADS=1 unless it is set."""

    SETTING = "import os, cityform; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    THREADS = (
        "import cityform; "
        "print(next(line.split()[1] for line in open('/proc/self/status') "
        "if line.startswith('Threads:')))"
    )

    def fresh_import(self, script, threads=None):
        env = dict(os.environ, PYTHONPATH=str(Path(cityform.__file__).resolve().parents[1]))
        env.pop("OPENBLAS_NUM_THREADS", None)  # importing cityform here set it
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True
        )
        return proc.stdout.strip()

    def test_unset_becomes_one(self):
        assert self.fresh_import(self.SETTING) == "1"

    def test_user_value_is_kept(self):
        assert self.fresh_import(self.SETTING, "3") == "3"

    def test_import_starts_no_blas_worker(self):
        if not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("counts threads in /proc/self/status, on 2 or more CPUs")
        if self.fresh_import(self.THREADS, "2") != "2":
            pytest.skip("this numpy's BLAS starts no worker thread at load")
        assert self.fresh_import(self.THREADS) == "1"


def zscored(n_cities, columns=BASELINE_FEATURES):
    values = np.arange(n_cities * len(columns), dtype=float).reshape(n_cities, -1) ** 2
    return zscore(FeatureMatrix(tuple(f"c{i}" for i in range(n_cities)), tuple(columns), values))


def first_cities(corpus, tmp_path, count):
    """A copy of the corpus that keeps only its first ``count`` boundaries."""
    doc = json.loads((corpus[0] / "boundaries.geojson").read_text())
    doc["features"] = doc["features"][:count]
    return corpus_copy(corpus, tmp_path, boundaries_replaced(doc))


class TestSharedRules:
    """A flag is refused by the very check its stage applies as a library call."""

    @pytest.mark.parametrize(
        "argv, cities, stage_call",
        [
            (["cluster", "--seed", "-1"], None, lambda: kmeans(np.zeros((6, 2)), 2, seed=-1)),
            (["cluster", "--restarts", "0"], None, lambda: kmeans(np.zeros((6, 2)), 2, restarts=0)),
            (["cluster", "--k", "99"], None, lambda: kmeans(np.zeros((6, 2)), 99)),
            (
                ["features", "--dominant-threshold", "1"],
                None,
                lambda: bearing_histogram(make_grid_city(3, 3, 100.0), 1.0),
            ),
            (["features"], 2, lambda: pearson_report(zscored(2))),
            (
                ["cluster", "--factors", "0"],
                None,
                lambda: extract_factors(zscored(3, ENHANCED_FEATURES), 0),
            ),
            (["cluster", "--k", "2"], 2, lambda: extract_factors(zscored(2))),
            (["cluster", "--k-range", "0..3"], None, lambda: elbow(np.zeros((6, 2)), (0, 3))),
            (["synth", "--spacing", "0"], None, lambda: ArchetypeSpec("gridded", 50, 0.0)),
            (["synth", "--seed", "-3"], None, lambda: ArchetypeSpec("gridded", 50, 100.0, seed=-3)),
        ],
        ids=[
            "seed", "restarts", "k", "dominant-threshold", "correlation-cities", "factors",
            "factor-cities", "k-range", "spacing", "synth-seed",
        ],
    )
    def test_flag_and_stage_refuse_alike(self, corpus, tmp_path, capsys, argv, cities, stage_call):
        with pytest.raises(ValidationError) as refused:
            stage_call()
        if argv[0] == "synth":
            argv = argv + ["--count", "1", "--out", str(tmp_path / "out")]
        else:
            root = first_cities(corpus, tmp_path, cities) if cities else corpus[0]
            argv = argv + io_args(root, tmp_path / "out")
        assert main(argv) == 2
        assert capsys.readouterr().err == f"validation error: {refused.value}\n"

    def test_feature_mode_is_refused_alike(self, corpus, tmp_path):
        # --feature-mode has argparse choices, so only a RunConfig reaches the rule.
        root, _ = corpus
        config = RunConfig(
            *(str(root / name) for name in ("nodes.csv", "links.csv", "boundaries.geojson")),
            out_dir=str(tmp_path / "out"),
            feature_mode="fancy",
        )
        with pytest.raises(ValidationError) as by_runner:
            run_pipeline(config)
        with pytest.raises(ValidationError) as by_stage:
            assemble_features(["a"], [{}], "fancy")
        assert str(by_runner.value) == str(by_stage.value) == "unknown feature mode 'fancy'"

    def test_library_elbow_gives_the_rows_of_k_range(self, tmp_path):
        # --k-range 1..20 on 12 cities is cut at 12, in the library as in the CLI.
        root = tmp_path / "corpus"
        write_corpus(["gridded", "orthogonal", "organic"], 4, 5, 48, 100.0, str(root))
        assert main(["pipeline", "--k-range", "1..20"] + io_args(root, tmp_path / "out")) == 0
        graph = load_graph(str(root / "nodes.csv"), str(root / "links.csv"), "planar")
        cities = [clip_to_city(graph, b) for b in load_boundaries(str(root / "boundaries.geojson"))]
        rows = [{**topo_metrics(c), **pattern_counts(c), **bearing_histogram(c)} for c in cities]
        matrix = zscore(assemble_features([c.city_name for c in cities], rows, "enhanced"))
        curve = elbow(extract_factors(matrix).scores, (1, 20))
        written = read_csv(tmp_path / "out" / "elbow.csv")[1:]
        assert len(written) == len(cities) == 12
        assert written == [[str(k), repr(inertia)] for k, inertia in curve]


class TestOutputPath:
    """All subcommands write through one path: a bad ``--out`` exits 2."""

    @pytest.mark.parametrize("command", ["synth", "metrics"])
    def test_name_over_the_length_limit_fails_before_betweenness(
        self, corpus, tmp_path, monkeypatch, capsys, command
    ):
        def refuse(city):
            raise AssertionError("computed betweenness for an output it cannot write")

        monkeypatch.setattr("cityform.topology.betweenness", refuse)
        root, _ = corpus
        out = tmp_path / ("x" * 300) / "o"
        if command == "synth":
            argv = ["synth", "--count", "1", "--size", "36", "--out", str(out)]
        else:
            argv = ["metrics"] + io_args(root, out)
        assert main(argv) == 2
        assert f"cannot make output directory {out}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-file"])
    def test_out_at_or_under_a_file_fails_before_betweenness(
        self, corpus, tmp_path, monkeypatch, capsys, under
    ):
        def refuse(city):
            raise AssertionError("computed betweenness for an output it cannot write")

        monkeypatch.setattr("cityform.topology.betweenness", refuse)
        root, _ = corpus
        blocker = tmp_path / "F"
        blocker.write_text("keep\n")
        assert main(["metrics"] + io_args(root, blocker / under)) == 2
        assert f"cannot make output directory {blocker / under}" in capsys.readouterr().err
        assert blocker.read_text() == "keep\n"

    def test_blocked_artifact_removes_what_was_written(self, corpus, tmp_path, capsys):
        root, _ = corpus
        out = tmp_path / "out"
        (out / "elbow.csv").mkdir(parents=True)
        assert main(["pipeline"] + io_args(root, out)) == 2
        assert f"cannot write {out / 'elbow.csv'}: Is a directory" in capsys.readouterr().err
        # The seven artifacts written before elbow.csv are gone; both directories stay.
        assert [p.name for p in out.iterdir()] == ["elbow.csv"]
        assert list((out / "elbow.csv").iterdir()) == []

    def test_failed_rerun_leaves_the_first_run_as_it_was(
        self, corpus, tmp_path, monkeypatch, capsys
    ):
        root, _ = corpus
        out = tmp_path / "out"
        assert main(["pipeline"] + io_args(root, out)) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(first) == 10

        def fail(*args, **kwargs):
            raise RuntimeError("k-means failed")

        monkeypatch.setattr("cityform.cli.kmeans", fail)
        assert main(["pipeline"] + io_args(root, out)) == 4
        assert "internal error: k-means failed" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    def test_blocked_rerun_leaves_no_file_of_either_run(self, corpus, tmp_path, capsys):
        root, _ = corpus
        out = tmp_path / "out"
        assert main(["pipeline"] + io_args(root, out)) == 0
        (out / "elbow.csv").unlink()
        (out / "elbow.csv").mkdir()
        assert main(["pipeline"] + io_args(root, out)) == 2
        assert f"cannot write {out / 'elbow.csv'}: Is a directory" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["elbow.csv"]
        assert list((out / "elbow.csv").iterdir()) == []

    def test_part_written_file_is_removed(self, corpus, tmp_path, monkeypatch, capsys):
        # json.dump has written the first key by the time it refuses the NaN.
        monkeypatch.setitem(
            cityform.cli._CONTENTS, "factors.json", lambda run: {"a": 1, "b": float("nan")}
        )
        root, _ = corpus
        assert main(["cluster"] + io_args(root, tmp_path / "out")) == 4
        assert "Out of range float values" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def feature(name, coordinates):
    return {
        "type": "Feature",
        "properties": {"name": name},
        "geometry": {"type": "Polygon", "coordinates": coordinates},
    }


SQUARE = [[[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]]
# Far from every node of the corpus.
FAR_SQUARE = [[[x + 1e7, y + 1e7] for x, y in SQUARE[0]]]


class TestBoundaryFaults:
    def run_with_boundaries(self, corpus, tmp_path, doc):
        root, _ = corpus
        (tmp_path / "b.geojson").write_text(json.dumps(doc))
        argv = io_args(root, tmp_path / "out")
        argv[argv.index("--boundaries") + 1] = str(tmp_path / "b.geojson")
        return main(["pipeline"] + argv)

    def test_duplicate_name_is_data_error(self, corpus, tmp_path, capsys):
        root, names = corpus
        doc = json.loads((root / "boundaries.geojson").read_text())
        doc["features"][1]["properties"]["name"] = names[0]
        assert self.run_with_boundaries(corpus, tmp_path, doc) == 3
        assert repr(names[0]) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_number_names_a_city(self, corpus, tmp_path):
        root, _ = corpus
        doc = json.loads((root / "boundaries.geojson").read_text())
        doc["features"][0]["properties"]["name"] = 0
        copy = corpus_copy(corpus, tmp_path, boundaries_replaced(doc))
        assert main(["ingest"] + io_args(copy, tmp_path / "out")) == 0
        assert read_csv(tmp_path / "out" / "cities_summary.csv")[1][0] == "0"

    @pytest.mark.parametrize(
        "doc, names",
        [
            ([feature("a", SQUARE)], "FeatureCollection"),
            ({"type": "FeatureCollection", "features": [feature("a", SQUARE), 5]}, "feature 1"),
            (
                {"type": "FeatureCollection",
                 "features": [{"type": "Feature", "properties": {"name": "a"},
                               "geometry": {"type": "Polygon"}}]},
                "'a'",
            ),
            (
                {"type": "FeatureCollection",
                 "features": [feature("b", [[[0.0], [10.0, 0.0], [10.0, 10.0]]])]},
                "'b'",
            ),
            *(
                ({"type": "FeatureCollection", "features": [feature(name, SQUARE)]},
                 f"feature 0 has a 'name' of type {type(name).__name__}")
                for name in (False, True, {"a": 1}, [1])
            ),
            # RFC 7946 requires the "features" member; an empty one names no city.
            ({"type": "FeatureCollection"}, "b.geojson: expected a GeoJSON FeatureCollection"),
            ({"type": "FeatureCollection", "features": []}, "b.geojson: no boundary features"),
        ],
        ids=["top-level-list", "non-object-feature", "missing-coordinates", "one-coordinate-vertex",
             "false-name", "true-name", "object-name", "list-name", "no-features-member",
             "empty-features"],
    )
    def test_malformed_geojson_is_data_error(self, corpus, tmp_path, capsys, doc, names):
        assert self.run_with_boundaries(corpus, tmp_path, doc) == 3
        assert names in capsys.readouterr().err


def corpus_copy(corpus, tmp_path, edit):
    """The corpus's three input files, each passed through ``edit(name, bytes)``."""
    root, _ = corpus
    copy = tmp_path / "in"
    copy.mkdir()
    for name in ("nodes.csv", "links.csv", "boundaries.geojson"):
        (copy / name).write_bytes(edit(name, (root / name).read_bytes()))
    return copy


def lengths_rounded(step):
    """Round every link's ``length_m`` to a whole ``step`` metres."""
    def edit(name, data):
        if name != "links.csv":
            return data
        header, *rows = data.decode().splitlines()
        for i, row in enumerate(rows):
            cells = row.split(",")
            cells[3] = repr(round(float(cells[3]) / step) * step)
            rows[i] = ",".join(cells)
        return "\n".join([header, *rows, ""]).encode()
    return edit


def geographic_copy(root, out):
    """The corpus at ``root`` in lon/lat with blank lengths, written to ``out``.

    Each city's boundary centre goes to its planar offset from (-122.27,
    37.80), and its points to their metres east and north of that centre,
    at the centre's scale. Node ids carry the city name before the colon.
    """
    per_degree = 111_319.490793  # metres in one degree of the WGS84 equator
    doc = json.loads((root / "boundaries.geojson").read_text())
    centres = {}
    for item in doc["features"]:
        xs, ys = zip(*item["geometry"]["coordinates"][0])
        x, y = (min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2
        lat = 37.80 + y / per_degree
        lon = -122.27 + x / (per_degree * math.cos(math.radians(37.80)))
        centres[item["properties"]["name"]] = (x, y, lon, lat)

    def lonlat(city, x, y):
        cx, cy, lon, lat = centres[city]
        return lon + (x - cx) / (per_degree * math.cos(math.radians(lat))), lat + (y - cy) / per_degree

    for item in doc["features"]:
        name = item["properties"]["name"]
        rings = item["geometry"]["coordinates"]
        item["geometry"]["coordinates"] = [[lonlat(name, x, y) for x, y in ring] for ring in rings]
    nodes = read_csv(root / "nodes.csv")
    for row in nodes[1:]:
        row[1:3] = lonlat(row[0].split(":")[0], float(row[1]), float(row[2]))
    links = read_csv(root / "links.csv")
    for row in links[1:]:
        city = row[1].split(":")[0]
        points = [lonlat(city, *map(float, p.split())) for p in row[4].split(";") if p]
        row[3:5] = "", ";".join(f"{lon!r} {lat!r}" for lon, lat in points)
    out.mkdir()
    (out / "boundaries.geojson").write_text(json.dumps(doc))
    for name, rows in (("nodes.csv", nodes), ("links.csv", links)):
        with open(out / name, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
    return out


def first_vertex(raw):
    """Replace the first vertex of the first boundary with the JSON text ``raw``."""
    def edit(name, data):
        if name != "boundaries.geojson":
            return data
        doc = json.loads(data)
        doc["features"][0]["geometry"]["coordinates"][0][0] = "VERTEX"
        return json.dumps(doc).replace('"VERTEX"', raw).encode()
    return edit


def boundaries_replaced(doc):
    return lambda name, data: json.dumps(doc).encode() if name == "boundaries.geojson" else data


def appended(target, extra):
    return lambda name, data: data + extra if name == target else data


class TestInputFaults:
    @pytest.mark.parametrize(
        "edit, named",
        [
            (first_vertex("[NaN, 0.0]"), "'gridded_00'"),
            (first_vertex("[1e400, 0.0]"), "'gridded_00'"),
            (first_vertex("[1" + "0" * 400 + ", 0.0]"), "'gridded_00'"),
            (first_vertex("[true, 0.0]"), "'gridded_00'"),
            (first_vertex('["1", 0.0]'), "'gridded_00'"),
            (first_vertex('[0, 0, "x"]'), "'gridded_00'"),
            (first_vertex("[1, 0, true]"), "'gridded_00'"),
            (first_vertex("[1, 1, null]"), "'gridded_00'"),
            (appended("nodes.csv", b"x\xff,1,2\n"), "nodes.csv"),
            (appended("links.csv", b"x\xff,a,b,,\n"), "links.csv"),
            (
                lambda name, data: data.replace(b'"name": "', b'"name": "\xff', 1)
                if name == "boundaries.geojson" else data,
                "boundaries.geojson",
            ),
            (appended("nodes.csv", b"n" + b"a" * 200_000 + b",1,2\n"), "nodes.csv"),
            (
                lambda name, data: b"[" * 100_000 if name == "boundaries.geojson" else data,
                "boundaries.geojson",
            ),
            (
                boundaries_replaced({"type": "FeatureCollection",
                                     "features": [feature("flat", [[[0, 0], [10, 0], [20, 0]]])]}),
                "boundary 'flat' has zero area",
            ),
            (appended("nodes.csv", b"nanx,nan,0\n"), "non-finite x: 'nan'"),
            (
                lambda name, data: {
                    "nodes.csv": data + b"p,0,0\nq,10,0\n",
                    "links.csv": data + b"pq,p,q,5,1 2 3\n",
                }.get(name, data),
                "malformed shape point '1 2 3'",
            ),
            (
                boundaries_replaced({"type": "FeatureCollection", "features": [{
                    "type": "Feature", "properties": {"name": "pin"},
                    "geometry": {"type": "Point", "coordinates": [0, 0]},
                }]}),
                "feature 'pin' has unsupported geometry type 'Point'",
            ),
            (
                lambda name, data: data.split(b"\n", 1)[0] + b"\n" if name.endswith(".csv") else data,
                "cannot clip an empty regional graph",
            ),
            (
                lambda name, data: data + data.split(b"\n")[1] + b"\n" if name == "links.csv" else data,
                "duplicate link id: 'gridded_00:",
            ),
            (appended("nodes.csv", b" ,0,0\n"), "blank node_id"),
            (appended("links.csv", b",,gridded_00:n0_0,5,\n"), "blank link_id"),
            (appended("links.csv", b"x,,gridded_00:n0_0,5,\n"), "link 'x' references missing node ''"),
        ],
        ids=[
            "nan-vertex", "1e400-vertex", "400-digit-vertex", "bool-vertex", "string-vertex",
            "string-altitude", "bool-altitude", "null-altitude",
            "0xff-nodes", "0xff-links",
            "0xff-geojson", "200k-char-field", "deeply-nested-geojson",
            "zero-area-boundary", "nan-node-x", "three-number-shape-point", "point-geometry",
            "header-only-csvs", "repeated-link-row", "blank-node-id", "blank-link-id", "blank-from",
        ],
    )
    def test_bad_input_is_data_error(self, corpus, tmp_path, capsys, edit, named):
        copy = corpus_copy(corpus, tmp_path, edit)
        assert main(["features"] + io_args(copy, tmp_path / "out")) == 3
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["ingest", "metrics"])
    def test_non_finite_area_is_data_error(self, corpus, tmp_path, capsys, command):
        # Every vertex is finite, but the shoelace sum overflows to inf.
        huge = [[[-1e300, -1e300], [1e300, -1e300], [1e300, 1e300], [-1e300, 1e300]]]
        doc = {"type": "FeatureCollection", "features": [feature("huge", huge)]}
        copy = corpus_copy(corpus, tmp_path, boundaries_replaced(doc))
        assert main([command] + io_args(copy, tmp_path / "out")) == 3
        assert "boundary 'huge' has a non-finite area" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_link_without_direction_is_left_out_of_bearings(self, corpus, tmp_path):
        root, names = corpus
        graph = load_graph(str(root / "nodes.csv"), str(root / "links.csv"), "planar")
        city = clip_to_city(graph, load_boundaries(str(root / "boundaries.geojson"))[0])
        node = next(n for n in city.graph.nodes.values() if city.graph.out_degree(n.id) == 2)
        x, y = node.location

        def edit(name, data):
            # "twin" sits on the node; the links between them have no direction.
            if name == "nodes.csv":
                return data + f"twin,{x!r},{y!r}\n".encode()
            if name == "links.csv":
                return data + f"twinlink,{node.id},twin,5,\ntwinback,twin,{node.id},5,\n".encode()
            return data

        copy = corpus_copy(corpus, tmp_path, edit)
        assert main(["pipeline"] + io_args(copy, tmp_path / "out")) == 0
        entry = json.loads((tmp_path / "out" / "bearing_histograms.json").read_text())[names[0]]
        plain = bearing_histogram(city)
        assert entry["bins"] == [plain[name] for name in BEARING_BINS]
        assert entry["dominant_bin_count"] == plain["dominant_bin_count"]
        # The node, now of out-degree 3, cannot be angled.
        patterns = read_csv(tmp_path / "out" / "patterns.csv")
        assert float(patterns[1][PATTERNS_HEADER.index("d3_other")]) > 0.0

    def test_bom_and_altitude_change_no_artifact(self, corpus, tmp_path):
        def edit(name, data):
            if name == "boundaries.geojson":
                doc = json.loads(data)
                for feat in doc["features"]:
                    for ring in feat["geometry"]["coordinates"]:
                        for vertex in ring:
                            vertex.append(7)
                data = json.dumps(doc).encode()
            return b"\xef\xbb\xbf" + data

        copy = corpus_copy(corpus, tmp_path, edit)
        assert (copy / "boundaries.geojson").read_bytes().count(b", 7]") > 0
        root, _ = corpus
        assert main(["pipeline"] + io_args(root, tmp_path / "plain")) == 0
        assert main(["pipeline"] + io_args(copy, tmp_path / "edited")) == 0
        for artifact in PIPELINE_ARTIFACTS:
            left = (tmp_path / "plain" / artifact).read_bytes()
            assert left == (tmp_path / "edited" / artifact).read_bytes(), artifact
