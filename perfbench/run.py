"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload {dirichlet,nu,exact} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.
Operations run in-process, in whole rounds, for about ``--seconds``: a
round starts only while the loop is expected to end less than half a
round past ``--seconds``.  Outputs are checked against ``oracles.py``
after the timed loop.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
rebinds the calls between layers (see ``spans.py``) and prints the
per-layer metrics instead.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 5  # this process's own set-up and four in child processes


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("dirichlet", "nu", "exact"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it and exit (used for set-up samples)")
    return p.parse_args(argv)


def import_package():
    sys.path.insert(0, str(SRC))
    import sphere2gauss
    import sphere2gauss.cli
    import sphere2gauss.convergence
    import sphere2gauss.harmonics
    import sphere2gauss.indices
    if Path(sphere2gauss.__file__).resolve().parent != SRC / "sphere2gauss":
        sys.exit(f"error: imported sphere2gauss from {sphere2gauss.__file__}, not {SRC}")
    return sphere2gauss


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sphere2gauss" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'sphere2gauss'}; "
                 "run from a checkout of the repository")
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    ctx = {"nu_csv": str(RESULTS / f"nu-{tag}.csv")}
    try:
        return _run(args, tag, ctx)
    finally:
        if os.path.exists(ctx["nu_csv"]):
            os.remove(ctx["nu_csv"])


def _run(args, tag, ctx) -> int:
    # set-up: import, the warm-up input and one cold warm-up operation
    t0 = time.perf_counter()
    s2g = import_package()
    import workloads
    Workload = workloads.WORKLOADS[args.workload]
    wl = Workload(s2g, ctx)
    inp = Workload.warmup()
    out, failed = wl.run(inp)
    own_setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0
    warm = [(inp, out, failed)]
    # a cold set-up happens once per process, so its repetitions run in
    # fresh processes, one after the other, before the timed loop; the
    # traced run does not report set-up time
    setup_s = statistics.median([own_setup_s] + [
        _setup_in_child(args) for _ in range(0 if args.trace else SETUP_SAMPLES - 1)])
    rounds = (Workload.round(args.seed, r) for r in itertools.count())

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    cache = _cap_cache(s2g) if tracer else None
    cache0 = cache.cache_info() if cache else None

    records, op_times = [], []
    loop0, cpu0 = time.perf_counter(), time.process_time()
    for n_rounds, ops in enumerate(rounds):
        elapsed = time.perf_counter() - loop0
        if n_rounds and elapsed + elapsed / n_rounds / 2 > args.seconds:
            break
        for inp in ops:
            op = len(records)
            t = time.perf_counter()
            try:
                if tracer:
                    with tracer.operation(op, "cli.main" if args.workload == "nu" else "op"):
                        out, failed = wl.run(inp)
                else:
                    out, failed = wl.run(inp)
            except Exception as exc:  # a raising operation counts as failed
                out, failed = exc, True
            op_times.append(time.perf_counter() - t)
            records.append((inp, out, failed))
        if n_rounds == 0:
            # the outputs kept for the checks and the cap solver's memo grow
            # with every round, so memory is read after a fixed amount of
            # work: a faster program runs more rounds and must not read larger
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop_s, loop_cpu_s = time.perf_counter() - loop0, time.process_time() - cpu0
    cache1 = cache.cache_info() if cache else None
    if tracer:
        tracer.uninstall()

    errors = _check(Workload, warm + records)
    for line in errors[:20]:
        print("check:", line, file=sys.stderr)
    attempted = len(records)
    failed = sum(1 for _, _, f in records if f)
    for inp, out, f in records:
        if f:
            print(f"failed: {inp!r}: {out if isinstance(out, Exception) else 'rejected'}",
                  file=sys.stderr)

    if tracer:
        metrics = _per_layer(tracer, args.workload, records, op_times, loop_s,
                             cache0, cache1)
        tracer.dump(RESULTS / f"trace-{tag}.json")
    else:
        metrics = {
            # the rates are taken over the whole loop: every round costs about
            # the same, so the longest window gives the steadiest figure
            "ops_per_s": (len(records) / loop_s, "1/s"),
            "op_p50_s": (statistics.median(op_times), "s"),
            "cpu_s_per_op": (loop_cpu_s / len(records), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


def _setup_in_child(args):
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _cap_cache(s2g):
    """The cap solver's memo, if it still has one, for the hit share."""
    solve = getattr(s2g.eigensolve, "_cap_mu_solve", None)
    return solve if hasattr(solve, "cache_info") else None


def _check(Workload, records):
    import oracles

    errors = [f"oracle self-test: {line}" for line in oracles.self_test()]
    for inp, out, failed in records:
        if isinstance(out, Exception):
            continue
        try:
            errors += Workload.check(inp, out)
        except Exception as exc:  # an unreadable output is a wrong output
            errors.append(f"{inp!r}: check raised {exc!r}")
    return errors


# per-layer metric -> (span name, what to take from it); counts and times
# are divided by the operations of the traced loop, since a time-boxed run
# attempts more operations the faster it is
SPAN_METRICS = {
    "convergence.tables": ("convergence.table", "calls"),
    "convergence.table_self_s": ("convergence.table", "self"),
    "eigensolve.cap_calls": ("eigensolve.cap", "calls"),
    "eigensolve.cap_s": ("eigensolve.cap", "time"),
    "eigensolve.halfline_calls": ("eigensolve.halfline", "calls"),
    "eigensolve.halfline_s": ("eigensolve.halfline", "time"),
    "eigensolve.nu_calls": ("eigensolve.nu", "calls"),
    "eigensolve.nu_s": ("eigensolve.nu", "time"),
    "quadrature.volume_fraction_calls": ("quadrature.volume_fraction", "calls"),
    "quadrature.volume_fraction_s": ("quadrature.volume_fraction", "time"),
    "cli.main_s": ("cli.main", "time"),
    "cli.main_self_s": ("cli.main", "self"),
    "harmonics.dimension_calls": ("harmonics.dimension", "calls"),
    "harmonics.dimension_s": ("harmonics.dimension", "time"),
    "harmonics.dimension_self_s": ("harmonics.dimension", "self"),
    "harmonics.build_Q_sphere_s": ("harmonics.build_Q_sphere", "time"),
    "harmonics.build_P_s": ("harmonics.build_P", "time"),
    "harmonics.build_Q_gauss_s": ("harmonics.build_Q_gauss", "time"),
    "harmonics.ou_apply_s": ("harmonics.ou_apply", "time"),
    "polyalg.rank_calls": ("polyalg.rank", "calls"),
    "polyalg.rank_s": ("polyalg.rank", "time"),
    "polyalg.evaluate_calls": ("polyalg.evaluate", "calls"),
    "polyalg.evaluate_s": ("polyalg.evaluate", "time"),
    "polyalg.lifted_laplacian_s": ("polyalg.lifted_laplacian", "time"),
}
COUNT_METRICS = ["eigensolve.cap_shots", "eigensolve.halfline_shots",
                 "eigensolve.cert_rejects", "polyalg.rank_entries"]


def _per_layer(tracer, workload, records, op_times, loop_s, cache0, cache1):
    ops = len(records)
    totals = tracer.totals()
    m = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        calls, time_s, self_s = totals.get(span, (0, 0.0, 0.0))
        if kind == "calls":
            m[metric] = (calls / ops, "count/op")
        else:
            m[metric] = ((time_s if kind == "time" else self_s) / ops, "s/op")
    for metric in COUNT_METRICS:
        m[metric] = (tracer.counts[metric] / ops, "count/op")
    main_s = totals.get("cli.main", (0, 0.0, 0.0))[1]
    nu_s = totals.get("eigensolve.nu", (0, 0.0, 0.0))[1]
    m["cli.pool_busy_ratio"] = (nu_s / main_s if main_s else 0.0, "ratio")
    m["cli.bytes_out"] = (sum(len(out[1]) for _, out, _ in records
                              if workload == "nu" and isinstance(out, tuple)) / ops, "B/op")
    hits = cache1.hits - cache0.hits if cache0 else 0
    lookups = hits + (cache1.misses - cache0.misses if cache0 else 0)
    m["eigensolve.cap_cache_hit_share"] = (hits / lookups if lookups else 0.0, "ratio")
    m["runtime.gc_s"] = (tracer.gc_s / ops, "s/op")
    m["trace.spans"] = (len(tracer.spans) / ops, "count/op")
    m["trace.ops_per_s"] = (ops / loop_s, "1/s")
    m["trace.op_p50_s"] = (statistics.median(op_times), "s")
    return m


if __name__ == "__main__":
    sys.exit(main())
