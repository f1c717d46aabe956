"""The timed part of a benchmark run, in an interpreter of its own.

    python3 bench/measure.py '<job as JSON>'

``run.py`` writes the corpus and then starts this with a job naming the
workload, the program's input arguments, the work directory, the run
length and, for a traced run, the file the spans go to. A fresh
interpreter holds only the program and the benchmark's code, so the
high-water memory and the CPU time read here count the program and the
children it reaps, not the corpus generation or the output checks.

The run makes one untimed warm-up iteration, then times whole iterations
until the run length has passed, writing to ``<work>/out``. With a trace
file it then makes one traced iteration into ``<work>/traced``. For the
stagewise workload it last makes the pipeline runs the session's artifacts
are compared with (``run.pipeline_references``). The last
line of standard output is one JSON object: the operations attempted and
failed with the failures' messages, the wall and CPU seconds of each timed
iteration, the peak resident memory in MB, the per-layer seconds of the
traced iteration (or null) and any iteration whose artifacts differ from
the warm-up iteration's.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

from run import STAGEWISE_ARTIFACTS, WORKLOADS, Program, artifact_names, digests, iteration, pipeline_references
from tracing import Tracer, span_cost

MIN_ITERATIONS = 3


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer seconds from the spans of the traced iteration."""
    by_id = {s.id: s for s in spans}

    def ancestors(span):
        while span.parent is not None:
            span = by_id[span.parent]
            yield span

    def outermost(name):
        return [s for s in spans if s.name == name and all(a.name != name for a in ancestors(s))]

    def total(selected):
        return sum(s.end - s.start for s in selected)

    kmeans_top = [s for s in outermost("clustering.kmeans") if all(a.name != "clustering.elbow" for a in ancestors(s))]
    top_ids = {s.id for s in kmeans_top}
    betweenness = [s.end - s.start for s in spans if s.name == "topology.betweenness"]
    metrics = {
        f"{name}_s": total(outermost(name))
        for name in ("graph.load", "graph.clip", "topology.betweenness", "topology.summaries",
                     "geometry.patterns", "features.bearings", "features.matrix", "reduction.factors",
                     "clustering.elbow")
    }
    metrics["topology.betweenness_city_max_s"] = max(betweenness, default=0.0)
    metrics["clustering.kmeans_s"] = total(kmeans_top)
    metrics["clustering.eval_s"] = total(s for s in spans if s.name == "clustering.eval" and s.parent in top_ids)
    for command in STAGEWISE_ARTIFACTS:
        metrics[f"cli.{command}_s"] = total(s for s in spans if s.name == f"cli.{command}")
    # One traced iteration minus an untraced one would be swamped by the
    # host's drift; the wrappers' own cost per span, times the spans, is not.
    metrics["trace.overhead_s"] = span_cost() * len(spans)
    return metrics


def measure(job: dict) -> dict:
    workload = WORKLOADS[job["workload"]]
    io_args, work, seconds = job["io_args"], Path(job["work"]), job["seconds"]
    out = work / "out"
    names = artifact_names(workload)
    program = Program()
    check_errors: list[str] = []

    iteration(program, workload, io_args, out)  # warm-up
    reference = digests(out, names)
    wall, cpu = [], []
    deadline = time.perf_counter() + seconds
    while True:
        start, start_cpu = time.perf_counter(), cpu_seconds()
        iteration(program, workload, io_args, out)
        wall.append(time.perf_counter() - start)
        cpu.append(cpu_seconds() - start_cpu)
        if digests(out, names) != reference:
            check_errors.append(f"iteration {len(wall)}: artifacts differ from the warm-up iteration")
        # Stop before an iteration that would overrun the run length,
        # so the run measures about --seconds whatever the workload.
        if time.perf_counter() + statistics.median(wall) > deadline and len(wall) >= MIN_ITERATIONS:
            break
    rss = peak_rss_mb()

    layers = None
    if job["trace_file"] is not None:
        tracer = Tracer()
        with tracer:
            iteration(program, workload, io_args, work / "traced", tracer)
        traced = digests(work / "traced", names)
        if traced != reference:
            check_errors.append("traced pass: artifacts differ from the untraced run: "
                                + ", ".join(n for n in names if traced[n] != reference[n]))
        trace_file = Path(job["trace_file"])
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps(tracer.as_json()))
        layers = layer_metrics(tracer.spans)
    if workload.stagewise:
        pipeline_references(program, io_args, work)

    return {
        "attempted": program.attempted,
        "failed": program.failed,
        "operation_errors": program.errors,
        "wall": wall,
        "cpu": cpu,
        "peak_rss_mb": rss,
        "layers": layers,
        "check_errors": check_errors,
    }


if __name__ == "__main__":
    print(json.dumps(measure(json.loads(sys.argv[1]))))
