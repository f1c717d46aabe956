"""Steadiness of the end-to-end metrics: two sets of runs of the same code.

    python3 bench/steady.py --runs 10

Runs ``bench/run.py`` once per workload and seed, one run at a time, the
workloads in turn. Set A uses seeds 1..runs and set B seeds runs+1..2*runs.
For every workload and end-to-end metric it prints each set's median and
quartiles, the spread (interquartile range over median) and the shift of
set B's median from set A's, each next to the metric's bound in
BENCHMARK.json, and the share of failed operations per set. All results
are written to ``.bench_work/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    # run.py reports the corpus and iteration count as {"shape": {...}} on stderr.
    shapes = [json.loads(line)["shape"] for line in proc.stderr.splitlines() if line.startswith('{"shape": ')]
    if len(shapes) != 1:
        sys.exit(f"{workload} seed {seed}: expected one shape line on stderr:\n{proc.stderr}")
    result["shape"] = shapes[0]
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload in each set")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    results: dict[str, dict[str, list[dict]]] = {w: {"A": [], "B": []} for w in workloads}
    for label, first in (("A", 1), ("B", args.runs + 1)):
        for seed in range(first, first + args.runs):
            for workload in workloads:
                result = run_once(workload, seed, spec["run_seconds"])
                results[workload][label].append(result)
                print(f"set {label} {workload} seed {seed}: {result['wall_s']:.1f} s", file=sys.stderr, flush=True)

    report = {}
    for workload in workloads:
        sets = results[workload]
        report[workload] = {
            "failed_share": {k: sum(r["failed"] for r in v) / sum(r["attempted"] for r in v) for k, v in sets.items()},
            "run_wall_s_max": max(r["wall_s"] for v in sets.values() for r in v),
            "shape": {
                key: [min(r["shape"][key] for v in sets.values() for r in v),
                      max(r["shape"][key] for v in sets.values() for r in v)]
                for key in ("cities", "nodes", "links", "iterations")
            },
        }
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = (summary([r["metrics"][name]["value"] for r in sets[k]]) for k in ("A", "B"))
            report[workload][name] = {"A": a, "B": b, "shift": b["median"] / a["median"] - 1, "bound": metric["bound"]}

    for workload, metrics in report.items():
        print(f"\n{workload}  failed share A {metrics['failed_share']['A']:.4f}  "
              f"B {metrics['failed_share']['B']:.4f}  longest run {metrics['run_wall_s_max']:.1f} s")
        print("  " + ", ".join(f"{key} {lo}-{hi}" for key, (lo, hi) in metrics["shape"].items()))
        print(f"  {'metric':12} {'set':3} {'q1':>10} {'median':>10} {'q3':>10} {'spread':>7} {'shift':>7} {'bound':>6}")
        for metric in spec["end_to_end"]:
            entry = metrics[metric["name"]]
            for k in ("A", "B"):
                s = entry[k]
                shift = f"{entry['shift']:+.3f}" if k == "B" else ""
                print(f"  {metric['name']:12} {k:3} {s['q1']:10.4f} {s['median']:10.4f} {s['q3']:10.4f} "
                      f"{s['spread']:7.3f} {shift:>7} {entry['bound']:6.2f}")

    out = ROOT / ".bench_work" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"report": report, "runs": results}, indent=1))
    print(f"\nwrote {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
