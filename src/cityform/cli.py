"""Command-line interface: ingestion through metrics, patterns, features,
factor extraction, and clustering, plus a one-shot ``pipeline`` command.

Subcommands: synth, ingest, metrics, patterns, features, cluster, pipeline.
Exit codes: 0 success, 2 validation error, 3 data error, 4 internal error.
Coordinates are selected with ``--mode {geo,planar}``; the feature-set
choice (baseline vs enhanced) uses ``--feature-mode`` to avoid clashing
with the coordinate flag.

Every run subcommand writes a subset of the ``pipeline`` artifacts through
the one runner, ``run_pipeline``. All artifacts are plain CSV/JSON and are
byte-identical across runs with the same configuration and inputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path

from . import __version__
from .clustering import check_k, check_k_range, check_seeding, elbow, kmeans
from .errors import DataError, ValidationError
from .features import (
    BEARING_BINS,
    DEFAULT_DOMINANT_THRESHOLD,
    FEATURE_MODES,
    assemble_features,
    bearing_histogram,
    check_correlation_cities,
    check_dominant_threshold,
    drop_features,
    feature_columns,
    kept_features,
    pearson_report,
    zscore,
)
from .geometry import DEFAULT_TAU_DEG, PATTERN_COLUMNS, check_tau, node_patterns, pattern_counts
from .graph import LINKS_HEADER, NODES_HEADER, CityNetwork, clip_to_city, load_boundaries, load_graph
from .reduction import check_factor_cities, check_factor_count, extract_factors
from .synth import ARCHETYPES, check_spacing, city_boundary, corpus_specs, generate
from .topology import METRIC_COLUMNS, topo_metrics

_MODE_NAMES = {"geo": "geographic", "planar": "planar"}

METRICS_HEADER = ["city", *METRIC_COLUMNS]
PATTERNS_HEADER = ["city", *PATTERN_COLUMNS]

PIPELINE_ARTIFACTS = (
    "metrics.csv",
    "patterns.csv",
    "features.csv",
    "correlations.csv",
    "factors.json",
    "clusters.csv",
    "evaluation.json",
    "elbow.csv",
    "bearing_histograms.json",
)

# What each run subcommand writes; ``patterns --detail`` adds patterns_detail.csv.
COMMAND_ARTIFACTS = {
    "ingest": ("cities_summary.csv",),
    "metrics": ("metrics.csv",),
    "patterns": ("patterns.csv",),
    "features": ("features.csv", "correlations.csv"),
    "cluster": ("factors.json", "clusters.csv", "evaluation.json", "elbow.csv"),
    "pipeline": PIPELINE_ARTIFACTS + ("run_manifest.json",),
}

# Each artifact's checks that need the city count, left to right in the order its
# computation meets them. The z-score needs only 2 cities, so never refuses first.
_CITY_CHECKS = {
    "correlations.csv": lambda config, n: check_correlation_cities(n),
    "factors.json": lambda config, n: check_factor_cities(n),
    **dict.fromkeys(
        ("clusters.csv", "evaluation.json"),
        lambda config, n: (check_factor_cities(n), check_k(config.k, n)),
    ),
    "elbow.csv": lambda config, n: (check_factor_cities(n), check_k_range(config.k_range, n)),
}


@dataclass
class RunConfig:
    nodes_path: str
    links_path: str
    boundaries_path: str
    out_dir: str
    mode: str = "planar"
    feature_mode: str = "enhanced"
    tau: float = DEFAULT_TAU_DEG
    dominant_threshold: float = DEFAULT_DOMINANT_THRESHOLD
    k: int = 3
    k_range: tuple[int, int] | None = None
    seed: int = 0
    restarts: int = 10
    factors_override: int | None = None
    drop: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # Command lines and manifests hand these over as lists.
        self.drop = tuple(self.drop)
        if self.k_range is not None:
            self.k_range = tuple(self.k_range)

    def validate(self) -> None:
        features = kept_features(feature_columns(self.feature_mode), self.drop)
        if self.factors_override is not None:
            check_factor_count(self.factors_override, len(features))
        check_tau(self.tau)
        check_dominant_threshold(self.dominant_threshold)
        check_seeding(self.seed, self.restarts)


# ---------------------------------------------------------------------------
# Stages and artifacts
# ---------------------------------------------------------------------------


def _write_files(out_dir: str, files) -> list[str]:
    """Write the ``(name, content)`` pairs drawn from ``files`` into ``out_dir``.

    A CSV's content is ``(header, rows)``, any other file's a JSON payload.
    The directory is made, then every pair drawn, then each file written:
    a bad directory fails before a lazy ``files`` computes anything, and a
    failed computation writes nothing. A failed write removes every file
    the pairs name, so ``out_dir`` never mixes two runs. Any failure
    removes every directory made; an ``OSError`` becomes a ValidationError.
    """
    out = Path(out_dir)
    missing_dirs, pairs = [], []
    try:
        try:
            # Deepest first, so each directory is empty by the time it is
            # reached. A name over the length limit fails the probe itself.
            missing_dirs = [d for d in (out, *out.parents) if not d.exists()]
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            reason = exc.strerror or exc
            raise ValidationError(f"cannot make output directory {out}: {reason}") from None
        pairs = [(out / name, content) for name, content in files]
        for path, content in pairs:
            try:
                with open(path, "w", newline="") as handle:
                    if path.suffix == ".csv":
                        csv.writer(handle, lineterminator="\n").writerows([content[0], *content[1]])
                    else:
                        json.dump(content, handle, indent=2, sort_keys=True, allow_nan=False)
                        handle.write("\n")
            except OSError as exc:
                raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None
    except BaseException:
        for path, _ in pairs:
            if not path.is_dir():  # a directory in a file's place stays
                path.unlink(missing_ok=True)
        for directory in missing_dirs:
            try:
                directory.rmdir()
            except OSError:  # never made, or holds something else
                pass
        raise
    return [path.name for path, _ in pairs]


def _finite_or_none(value: float | None) -> float | None:
    if value is None or not math.isfinite(value):
        return None
    return float(value)


class _Run:
    """The stage results of one run, each computed the first time it is needed."""

    def __init__(self, config: RunConfig):
        self.config = config

    @cached_property
    def cities(self) -> list[CityNetwork]:
        config = self.config
        graph = load_graph(config.nodes_path, config.links_path, config.mode)
        cities = []
        for boundary in load_boundaries(config.boundaries_path):
            city = clip_to_city(graph, boundary)
            if city.is_empty:
                print(
                    f"warning: city {city.city_name!r} has no nodes inside its boundary; skipped",
                    file=sys.stderr,
                )
                continue
            cities.append(city)
        if not cities:
            raise DataError("no non-empty cities after clipping")
        return cities

    @cached_property
    def topo(self):
        return [topo_metrics(city) for city in self.cities]

    @cached_property
    def patterns(self):
        return [pattern_counts(city, self.config.tau) for city in self.cities]

    @cached_property
    def bearings(self):
        return [bearing_histogram(city, self.config.dominant_threshold) for city in self.cities]

    @cached_property
    def matrix(self):
        rows = self.topo
        # Baseline features read neither patterns nor bearings, so only
        # enhanced runs compute them here.
        if self.config.feature_mode == "enhanced":
            rows = [
                {**topo, **patterns, **bearings}
                for topo, patterns, bearings in zip(rows, self.patterns, self.bearings)
            ]
        names = [city.city_name for city in self.cities]
        matrix = assemble_features(names, rows, self.config.feature_mode)
        return drop_features(matrix, self.config.drop) if self.config.drop else matrix

    @cached_property
    def zscored(self):
        return zscore(self.matrix)

    @cached_property
    def factors(self):
        return extract_factors(self.zscored, self.config.factors_override)

    @cached_property
    def clustering(self):
        config = self.config
        return kmeans(self.factors.scores, config.k, seed=config.seed, restarts=config.restarts)


def _named_rows(cities, values, columns) -> list[list]:
    return [[city.city_name] + [named[c] for c in columns] for city, named in zip(cities, values)]


def _labelled_table(corner: str, columns, labels, values):
    return [corner, *columns], [[label, *map(float, row)] for label, row in zip(labels, values)]


def _evaluation(run: _Run) -> dict:
    config, result = run.config, run.clustering
    return {
        config.feature_mode: {
            "k": config.k,
            "seed": config.seed,
            "restarts": config.restarts,
            "inertia": result.inertia,
            "silhouette": _finite_or_none(result.silhouette),
            "davies_bouldin": _finite_or_none(result.davies_bouldin),
            "degenerate_dbi": result.davies_bouldin is not None
            and not math.isfinite(result.davies_bouldin),
            "space": "factor_scores",
        }
    }


# Each artifact's contents: (header, rows) for a CSV, the payload for JSON.
_CONTENTS = {
    "cities_summary.csv": lambda run: (
        ["city", "nodes", "links", "area_km2"],
        [[c.city_name, c.graph.node_count, c.graph.link_count, c.area_km2] for c in run.cities],
    ),
    "metrics.csv": lambda run: (
        METRICS_HEADER,
        _named_rows(run.cities, run.topo, METRIC_COLUMNS),
    ),
    "patterns.csv": lambda run: (
        PATTERNS_HEADER,
        _named_rows(run.cities, run.patterns, PATTERN_COLUMNS),
    ),
    "patterns_detail.csv": lambda run: (
        ["city", "node_id", "degree", "angles_sorted", "type"],
        [
            [city.city_name, p.node_id, p.degree, ";".join(map(str, sorted(p.angles))), p.type_code]
            for city in run.cities
            for p in node_patterns(city, run.config.tau)
        ],
    ),
    "bearing_histograms.json": lambda run: {
        city.city_name: {
            "bins": [h[name] for name in BEARING_BINS],
            "rotation_offset": h["rotation_offset"],
            "dominant_bin_count": h["dominant_bin_count"],
        }
        for city, h in zip(run.cities, run.bearings)
    },
    "features.csv": lambda run: _labelled_table(
        "city", run.matrix.feature_names, run.matrix.cities, run.matrix.values
    ),
    "correlations.csv": lambda run: _labelled_table(
        "feature", run.zscored.feature_names, run.zscored.feature_names, pearson_report(run.zscored)
    ),
    "factors.json": lambda run: {
        "eigenvalues": list(run.factors.eigenvalues),
        "retained": run.factors.retained,
        "override": run.config.factors_override,
        "warnings": list(run.factors.warnings),
        "feature_count": len(run.factors.feature_names),
    },
    "clusters.csv": lambda run: (
        ["city", "label"],
        [[name, int(label)] for name, label in zip(run.matrix.cities, run.clustering.labels)],
    ),
    "evaluation.json": _evaluation,
    "elbow.csv": lambda run: (
        ["k", "inertia"], elbow(run.factors.scores, run.config.k_range, run.config.seed, run.config.restarts)
    ),
    "run_manifest.json": lambda run: {
        "tool": "cityform",
        "version": __version__,
        "config": asdict(run.config),
    },
}


def run_pipeline(config: RunConfig, artifacts=COMMAND_ARTIFACTS["pipeline"]) -> dict:
    """Write the named artifacts, computing only the stages they need.

    All artifacts are computed before the first is written: a failure while
    computing leaves ``out_dir`` as it was, and a failed write removes every
    named artifact and every directory made (see ``_write_files``).
    """
    config.validate()
    unknown = [name for name in artifacts if name not in _CONTENTS]
    if unknown:
        raise ValidationError(f"unknown artifacts: {unknown}")
    run = _Run(config)
    # The city count is known right after clipping: check what depends on it before
    # any betweenness, in writing order, so the first refusal is the run's own.
    n_cities = len(run.cities)
    for name in artifacts:
        if name in _CITY_CHECKS:
            _CITY_CHECKS[name](config, n_cities)
    written = _write_files(config.out_dir, ((name, _CONTENTS[name](run)) for name in artifacts))
    return {"cities": n_cities, "artifacts": written}


# ---------------------------------------------------------------------------
# Synthetic corpus emission
# ---------------------------------------------------------------------------


def write_corpus(
    kinds: list[str],
    count: int,
    seed: int,
    size: int,
    spacing: float,
    out_dir: str,
) -> list[str]:
    """Generate cities and write nodes/links/boundaries files for ingestion."""
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    if size < 1:
        raise ValidationError(f"size must be >= 1, got {size}")
    check_spacing(spacing)
    specs = [
        (name, spec)
        for name, spec in corpus_specs(count, seed, base_size=size, base_spacing=spacing)
        if spec.kind in kinds
    ]

    offset_step = spacing * (2.6 * math.sqrt(1.25 * size) + 4.0)

    def files():  # drawn once the output directory exists
        node_rows, link_rows, features = [], [], []
        for idx, (name, spec) in enumerate(specs):
            city = generate(spec, name=name)
            boundary = city_boundary(city.graph, spec.spacing, name)
            ox = (idx % 6) * offset_step
            oy = (idx // 6) * offset_step
            for node in city.graph.nodes.values():
                node_rows.append([f"{name}:{node.id}", node.location.x + ox, node.location.y + oy])
            for link in city.graph.links:
                shape = ";".join(f"{p.x + ox} {p.y + oy}" for p in link.shape_points)
                link_rows.append(
                    [
                        f"{name}:{link.id}",
                        f"{name}:{link.from_node}",
                        f"{name}:{link.to_node}",
                        link.length_m,
                        shape,
                    ]
                )
            ring = [[p.x + ox, p.y + oy] for p in boundary.polygons[0][0]]
            ring.append(ring[0])
            features.append(
                {
                    "type": "Feature",
                    "properties": {"name": name, "archetype": spec.kind},
                    "geometry": {"type": "Polygon", "coordinates": [ring]},
                }
            )
        yield "nodes.csv", (NODES_HEADER, node_rows)
        yield "links.csv", (LINKS_HEADER, link_rows)
        yield "boundaries.geojson", {"type": "FeatureCollection", "features": features}

    _write_files(out_dir, files())
    return [name for name, _ in specs]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


_CONFIG_FIELDS = {f.name for f in fields(RunConfig)}


def _config_from_args(args) -> RunConfig:
    # Run subcommands leave flags not given out of ``args``, so RunConfig's
    # defaults are the only ones.
    given = {name: value for name, value in vars(args).items() if name in _CONFIG_FIELDS}
    if "mode" in given:
        given["mode"] = _MODE_NAMES[given["mode"]]
    return RunConfig(**given)


def _cmd_synth(args) -> None:
    kinds = list(ARCHETYPES) if args.kind == "all" else [args.kind]
    names = write_corpus(kinds, args.count, args.seed, args.size, args.spacing, args.out)
    print(f"wrote {len(names)} cities to {args.out}")


def _cmd_run(args) -> None:
    summary = run_pipeline(_config_from_args(args), args.artifacts)
    print(f"{args.command}: {summary['cities']} cities, wrote {', '.join(summary['artifacts'])}")


def _parse_k_range(raw: str) -> tuple[int, int]:
    try:
        lo, hi = raw.split("..")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'a..b', got {raw!r}") from None


def _add_io_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", dest="nodes_path", required=True, help="nodes CSV (node_id,x,y)")
    parser.add_argument(
        "--links", dest="links_path", required=True,
        help="links CSV (link_id,from,to,length_m,shape_points)",
    )
    parser.add_argument(
        "--boundaries", dest="boundaries_path", required=True,
        help="GeoJSON FeatureCollection of city boundaries",
    )
    parser.add_argument("--mode", choices=("geo", "planar"), help="coordinate mode")
    parser.add_argument("--out", dest="out_dir", required=True, help="output directory")
    parser.add_argument("--tau", type=float, help="angle tolerance in degrees")


def _add_feature_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--feature-mode", choices=FEATURE_MODES)
    parser.add_argument("--drop-features", dest="drop", nargs="*", help="feature columns to drop")
    parser.add_argument("--dominant-threshold", type=float)


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    _add_feature_args(parser)
    parser.add_argument("--k", type=int)
    parser.add_argument("--k-range", type=_parse_k_range, metavar="A..B")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--restarts", type=int)
    parser.add_argument(
        "--factors", dest="factors_override", type=int,
        help="override the Kaiser retention count",
    )


_RUN_COMMANDS = (
    ("ingest", "load, clip, and summarize cities", None),
    ("metrics", "per-city topological metrics CSV", None),
    ("patterns", "per-city intersection pattern CSV", None),
    ("features", "assemble the feature matrix and correlations", _add_feature_args),
    ("cluster", "factor extraction plus k-means evaluation", _add_cluster_args),
    ("pipeline", "run every stage and write all artifacts", _add_cluster_args),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cityform", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cityform {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--kind", choices=ARCHETYPES + ("all",), default="all")
    p.add_argument("--count", type=int, default=10, help="cities per archetype")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=140, help="target nodes per city")
    p.add_argument("--spacing", type=float, default=100.0, help="street spacing in meters")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    for name, help_text, add_args in _RUN_COMMANDS:
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        _add_io_args(p)
        if add_args:
            add_args(p)
        p.set_defaults(func=_cmd_run, artifacts=COMMAND_ARTIFACTS[name])
        if name == "patterns":
            p.add_argument(
                "--detail", dest="artifacts", action="store_const",
                const=COMMAND_ARTIFACTS["patterns"] + ("patterns_detail.csv",),
                help="also write per-node detail",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
