"""Steadiness check: repeat each workload and report the spread of every metric.

    python3 perfbench/steady.py [--runs 10] [--workloads dirichlet nu exact]
                                [--seed-base 1] [--trace]

Run from the repository root.  Run i uses seed ``seed-base + i``; the
workload order alternates between runs.  Runs are sequential, one process
at a time.  For each end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median and
the metric's bound from BENCHMARK.json, and the share of failed
operations seen in the runs.  ``--trace`` adds one traced run per seed and
reports the per-layer medians and the tracing overhead, the relative loss
of ``ops_per_s`` between the untraced and the traced runs.  All run
results are written to ``perfbench/results/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(spec, workload, seed, trace):
    cmd = [sys.executable if c == "python3" else c for c in spec["command"]]
    cmd += ["--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    runs = {w: [] for w in args.workloads}
    traced = {w: [] for w in args.workloads}
    for i in range(args.runs):
        order = args.workloads if i % 2 == 0 else args.workloads[::-1]
        for w in order:
            seed = args.seed_base + i
            runs[w].append(run_once(spec, w, seed, 0))
            r = runs[w][-1]
            print(f"run {i} {w} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} wall={r['wall_s']:.1f}s", flush=True)
            if args.trace:
                traced[w].append(run_once(spec, w, seed, 1))

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"\n{'workload':10} {'metric':14} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for w in args.workloads:
        for name, bound in bounds.items():
            med, q1, q3, spread = summarize([r["metrics"][name]["value"] for r in runs[w]])
            verdict = ("steady" if spread <= bound / 3 else
                       "within bound" if spread <= bound else "TOO WIDE")
            print(f"{w:10} {name:14} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound:6.3f}  {verdict}")
        shares = sorted({r["failed"] / r["attempted"] for r in runs[w]})
        correct = all(r["correct"] for r in runs[w])
        print(f"{w:10} failed share(s) {shares}  all correct: {correct}  "
              f"median wall {statistics.median(r['wall_s'] for r in runs[w]):.1f}s")
        if traced[w]:
            base = statistics.median(r["metrics"]["ops_per_s"]["value"] for r in runs[w])
            tr = statistics.median(r["metrics"]["trace.ops_per_s"]["value"] for r in traced[w])
            print(f"{w:10} tracing overhead {1 - tr / base:+.4f} of ops_per_s")
            for name in traced[w][0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in traced[w]]
                if any(vals):
                    print(f"{w:10}   {name:34} {statistics.median(vals):14.6g}")

    out = HERE / "results" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"untraced": runs, "traced": traced}, indent=1))
    print(f"\nwrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
