"""cityform benchmark: one workload per run, timed end to end, then traced.

    python3 bench/run.py --workload quickstart --seed 1 --seconds 25 --trace 0

Run from the root of a cityform checkout. Inputs are generated from
``--seed`` under ``.bench_work/``. The program is imported from ``src/`` of
that checkout and driven in-process, through ``cityform.cli.main(argv)``,
by a fresh interpreter (``measure.py``), so that the memory and CPU
figures count the program and not the corpus generation. After one
warm-up iteration it times whole iterations until ``--seconds`` have
passed, and this run reports their medians; with ``--trace 1`` it then
makes one traced iteration and this run reports per-layer times instead.
Every output is then checked here (see ``checks.py``). The last line
of standard output is one JSON object. The exit code is 1 when a check
fails, and also when the program cannot be imported (then nothing is
printed on standard output).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(SRC))
try:
    import cityform
    from cityform.cli import PIPELINE_ARTIFACTS, main
    from cityform.graph import clip_to_city, load_boundaries, load_graph
except ImportError as exc:
    sys.exit(f"cannot import cityform from {SRC}: {exc}")
if Path(cityform.__file__).resolve().parent != SRC / "cityform":
    sys.exit(f"cityform imported from {cityform.__file__}, not from {SRC}")

import checks  # noqa: E402  (needs cityform on the path)
from corpus import Corpus, Shape, build  # noqa: E402
from tracing import Tracer  # noqa: E402

MEASURE = Path(__file__).resolve().with_name("measure.py")

CLUSTER_FLAGS = ["--feature-mode", "enhanced", "--k", "3", "--seed", "0"]
SETUP_REPEATS = 7  # fresh interpreters per run for setup_s


@dataclass(frozen=True)
class Workload:
    shape: Shape
    stagewise: bool  # a session of subcommands instead of one pipeline call
    bc_sample: int  # cities whose betweenness networkx recomputes
    min_purity: float | None


WORKLOADS = {
    # The README quick-start recipe: 30 cities of ~140 nodes.
    "quickstart": Workload(Shape(count=10, base_size=140), False, 3, 0.9),
    # One city of 1100 nodes per archetype: betweenness dominates.
    "large_city": Workload(Shape(count=1, base_size=1100, pinned_size=1100), False, 1, None),
    # 12 cities of ~120 nodes in lon/lat without lengths, through subcommands.
    # No purity gate: on some seeds (275 of 200-299) k-means settles on a
    # partition of higher inertia than the archetypes' and purity is 0.83.
    "stagewise_geo": Workload(Shape(count=4, base_size=120, geo=True), True, 3, None),
}

STAGEWISE_ARTIFACTS = {
    "ingest": ("cities_summary.csv",),
    "metrics": ("metrics.csv",),
    "patterns": ("patterns.csv", "patterns_detail.csv"),
    "features": ("features.csv", "correlations.csv"),
    "cluster": ("factors.json", "clusters.csv", "evaluation.json", "elbow.csv"),
}


class Program:
    """Calls ``main(argv)`` and counts operations attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, argv: list[str]) -> int:
        self.attempted += 1
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        if code != 0:
            self.failed += 1
            self.errors.append(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
        return code


def redundant_features(correlations: Path) -> list[str]:
    """Columns an analyst drops after the features step: the second column
    of every pair that correlations.csv flags at |r| >= 0.9."""
    _, names, corr = checks.read_table(correlations)
    dropped: list[str] = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if abs(corr[i, j]) >= 0.9 and names[i] not in dropped and names[j] not in dropped:
                dropped.append(names[j])
    return dropped


def session(workload: Workload, io_args: list[str], out: Path):
    """The argv of each operation of one iteration, made when it is due."""
    io_args = io_args + ["--out", str(out)]
    if not workload.stagewise:
        yield ["pipeline", *io_args, *CLUSTER_FLAGS]
        return
    yield ["ingest", *io_args]
    yield ["metrics", *io_args]
    yield ["patterns", *io_args, "--detail"]
    yield ["features", *io_args, "--feature-mode", "enhanced"]
    yield ["cluster", *io_args, *CLUSTER_FLAGS, "--drop-features", *redundant_features(out / "correlations.csv")]


def iteration(program: Program, workload: Workload, io_args: list[str], out: Path, tracer: Tracer | None = None):
    """One timed unit: a pipeline call, or the stagewise session."""
    for argv in session(workload, io_args, out):
        if tracer is None:
            program(argv)
        else:
            with tracer.span("cli." + argv[0]):
                program(argv)


def artifact_names(workload: Workload) -> list[str]:
    if workload.stagewise:
        return [name for names in STAGEWISE_ARTIFACTS.values() for name in names]
    return list(PIPELINE_ARTIFACTS)


def digests(out: Path, names: list[str]) -> dict[str, str]:
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest() if (out / n).exists() else "" for n in names}


def setup_seconds() -> float:
    """Median wall time for a fresh interpreter to import cityform.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cityform.cli"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def pipeline_references(program: Program, io_args: list[str], work: Path) -> None:
    """The two pipeline runs a stagewise session is compared with: the same
    flags without and with the columns the session dropped. They must run
    in the process that ran the session, because artifacts are
    byte-identical only within one process (they depend on PYTHONHASHSEED)."""
    program(["pipeline", *io_args, "--out", str(work / "pipeline_plain"), *CLUSTER_FLAGS])
    program(["pipeline", *io_args, "--out", str(work / "pipeline_dropped"), *CLUSTER_FLAGS,
             "--drop-features", *redundant_features(work / "out" / "correlations.csv")])


def run_checks(workload: Workload, corpus: Corpus, seed: int, work: Path) -> list[str]:
    out = work / "out"
    graph = load_graph(corpus.nodes, corpus.links, "geographic" if corpus.mode == "geo" else "planar")
    errors = checks.check_clip(corpus, [clip_to_city(graph, b) for b in load_boundaries(corpus.boundaries)])
    inputs = checks.Inputs(corpus)
    errors += checks.check_metrics(inputs, out)
    errors += checks.check_betweenness(inputs, out, checks.betweenness_sample(corpus, seed, workload.bc_sample))
    errors += checks.check_patterns(out)
    errors += checks.check_correlations(out)
    clustered = out
    if workload.stagewise:
        # Each subcommand's artifacts equal those of a pipeline run with the
        # same flags; the run with the dropped columns is then checked as a
        # whole, since its features.csv is the one the clusters were fit on.
        plain, clustered = work / "pipeline_plain", work / "pipeline_dropped"
        errors += checks.check_same_files(("metrics.csv", "patterns.csv", "features.csv", "correlations.csv"),
                                          out, plain, "stagewise vs pipeline")
        errors += checks.check_same_files(STAGEWISE_ARTIFACTS["cluster"], out, clustered, "stagewise vs pipeline")
        errors += checks.check_correlations(clustered)
        errors += checks.check_bearings(plain)
    else:
        errors += checks.check_bearings(out)
    errors += checks.check_factors(clustered)
    errors += checks.check_evaluation(clustered, "enhanced")
    errors += checks.check_kmeans(clustered, "enhanced")
    errors += checks.check_elbow(clustered)
    if workload.min_purity is not None:
        errors += checks.check_purity(clustered, corpus.archetype, workload.min_purity)
    return errors


def measure(name: str, corpus: Corpus, work: Path, seconds: float, trace_file: Path | None) -> dict:
    """Time the workload in a fresh interpreter; see measure.py for the result."""
    job = {"workload": name, "io_args": corpus.io_args(), "work": str(work), "seconds": seconds,
           "trace_file": None if trace_file is None else str(trace_file)}
    proc = subprocess.run([sys.executable, str(MEASURE), json.dumps(job)], stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"measure.py exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, bool]:
    workload = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        corpus = build(workload.shape, seed, work / "corpus")
        trace_file = WORK / "traces" / f"{name}-seed{seed}.json" if trace else None
        timed = measure(name, corpus, work, seconds, trace_file)
        if trace:
            metrics = {k: (v, "s") for k, v in timed["layers"].items()}
        else:
            metrics = {
                "run_s": (statistics.median(timed["wall"]), "s"),
                "cpu_s": (statistics.median(timed["cpu"]), "s"),
                "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
                "setup_s": (setup_seconds(), "s"),
            }
        errors = timed["check_errors"] + run_checks(workload, corpus, seed, work)
        shape = {"cities": len(corpus.archetype), "nodes": corpus.node_total(), "links": corpus.link_total(),
                 "iterations": len(timed["wall"])}
        print(json.dumps({"shape": shape}), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in timed["operation_errors"]:
        print("OPERATION FAILED:", error, file=sys.stderr)
    for error in errors:
        print("CHECK FAILED:", error, file=sys.stderr)
    correct = not errors  # failed operations are counted in "failed" instead
    result = {
        "correct": correct,
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, correct


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    result, correct = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    sys.exit(0 if correct else 1)
