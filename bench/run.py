"""Serial, self-checking benchmark of jfrbench.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it imports the package from ``src/``.
One process, one thread, one workload.  ``--trace 0`` prints the
end-to-end metrics, measured untraced; ``--trace 1`` prints the per-layer
metrics from a traced run and writes its spans to
``.bench_out/spans-<workload>-seed<N>.json``.  Every result is checked;
the last stdout line is the JSON summary, and the exit code is 1 when any
check failed.  See README.md for the metrics and workloads.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

if (SRC / "jfrbench" / "__init__.py").is_file():
    sys.path.insert(0, str(SRC))
    import harness
    from reference import Yardstick
    from spans import Timer, Tracer, geomean, loglog_slope, self_times
else:  # not inside a checkout: there is nothing to measure
    harness = None

# end-to-end name prefix of each solver call
SOLVER_LABELS = {"baselines.bf": "bf", "baselines.spfa": "spfa",
                 "baselines.slf": "slf", "jfr.strict": "jfr_strict",
                 "jfr.pq": "jfr_pq"}
CERTIFY_CALLS = ("verify.audit", "paths.detect_negative_cycle",
                 "paths.cycle_weight")
LAYERS = ("bench", "generators", "graph", "baselines", "jfr", "verify",
          "paths", "metrics", "cli")


class Metrics:
    """Named metrics with unit and sample count, in insertion order.

    ``info`` rows are printed in the table and kept in the result file,
    but are not part of the contract's result line.
    """

    def __init__(self):
        self.rows = {}
        self.info = {}

    def add(self, name, value, unit, samples, info=False):
        (self.info if info else self.rows)[name] = (value, unit, samples)

    def print_table(self):
        for name, (value, unit, samples) in {**self.rows, **self.info}.items():
            print(f"{name:34s} {value:>16.6g} {unit:8s} n={samples}")


def _git(*args):
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env, timeout=30,
                              capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args, wl) -> dict:
    status = _git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": f"{platform.system()} {platform.release()} "
                  f"{platform.machine()}",
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "cpu_count": os.cpu_count(),
        "perf_counter": vars(time.get_clock_info("perf_counter")),
        "workload": wl.name,
        "params": wl.params(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _median_ns(runs):
    """Per (call, instance): the median over passes of its summed time."""
    keys = set().union(*runs)
    return {key: statistics.median(r[key] for r in runs if key in r)
            for key in keys}


def _total(med, names):
    return sum(v for (name, _), v in med.items() if name in names)


def _warm_up(instances):
    for fn in harness.SOLVERS.values():
        fn(instances[0].g, 0)


def end_to_end(wl, args, gate, workdir, metrics):
    instances = harness.set_up_pass(wl, args.seed, Timer(), gate, workdir)
    if len(instances) != len(wl.sizes):
        return
    _warm_up(instances)
    largest = max(instances, key=lambda inst: inst.g.m).g
    yardstick = Yardstick(largest.n, largest.m)
    gc.freeze()
    # Each measured pass runs on instances set up just before it, in a
    # timed set-up pass.  So set-up is sampled across the whole run, as
    # the solves are, and each pass sees a fresh memory layout of its
    # graphs: a layout kept for the whole run moves a call's time by up
    # to 10% from one run to the next.
    setup_s, runs = [], []
    deadline = time.perf_counter() + args.seconds
    while not runs or time.perf_counter() < deadline:
        timer = Timer()
        instances = harness.set_up_pass(wl, args.seed, timer, gate, workdir)
        setup_s.append(timer.total_ns() / 1e9)
        timer = Timer(yardstick)
        harness.measure_pass(wl, args.seed, instances, timer, gate)
        runs.append(timer.ns)
    metrics.add("setup_s", statistics.median(setup_s), "s", len(setup_s))
    med = _median_ns(runs)
    ref_ns = yardstick.median_ns()
    n_inst, reps = len(instances), len(runs)

    def add_rate(name, count, calls):
        """``count`` operations over the summed median time of ``calls``:
        per reference time (the contract metric) and per second (info)."""
        ns = _total(med, calls)
        metrics.add(f"{name}_per_ref", count * ref_ns / ns, "1/ref",
                    reps * count)
        metrics.add(f"{name}_per_s", count / (ns / 1e9), "1/s", reps * count,
                    info=True)

    for call, label in SOLVER_LABELS.items():
        add_rate(f"{label}.solves", n_inst, {call})
    add_rate("certify", n_inst * len(harness.SOLVERS), CERTIFY_CALLS)
    for call in ("run", "verify"):
        add_rate(f"cli_{call}", n_inst, {f"cli.{call}"})
    metrics.add("reference_ms", ref_ns / 1e6, "ms", len(yardstick.ns),
                info=True)


def _alloc_peak_kb(fn, *args) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


# per-layer counters of each solver: (metric suffix, RunStats-derived key)
SOLVER_FIELDS = {
    "baselines.bf": ("edge_inspections", "useful_ratio", "ns_per_inspection",
                     "inspection_slope", "time_slope",
                     ("passes", "outer_iterations")),
    "baselines.spfa": ("edge_inspections", "useful_ratio", "ns_per_inspection",
                       "inspection_slope", "time_slope", "queue_pushes"),
    "baselines.slf": ("edge_inspections", "useful_ratio", "ns_per_inspection",
                      "inspection_slope", "time_slope", "queue_pushes"),
    "jfr.pq": ("edge_inspections", "lmh_inspections", "useful_ratio",
               "queue_pushes", "stale_pops", ("pops", "outer_iterations"),
               "lmh_calls", "ns_per_inspection", "inspection_slope",
               "time_slope", "alloc_peak_kb"),
    "jfr.strict": ("edge_inspections", "lmh_inspections", "outer_iterations",
                   "useful_ratio", "ns_per_inspection", "inspection_slope",
                   "time_slope", "alloc_peak_kb"),
}


def per_layer(wl, args, gate, workdir, metrics, spans):
    instances = harness.set_up_pass(wl, args.seed, Timer(), gate, workdir)
    if len(instances) != len(wl.sizes):
        return []
    _warm_up(instances)
    gc.freeze()
    untraced, traced = [], []  # (recorder, summaries, pass wall ns)
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        for runs in (untraced, traced):
            rec = Tracer(spans, len(traced)) if runs is traced else Timer()
            t0 = time.perf_counter_ns()
            summaries = harness.full_pass(wl, args.seed, rec, gate, workdir)
            runs.append((rec, summaries, time.perf_counter_ns() - t0))
    if any(len(s) != len(wl.sizes) for _, s, _ in traced):
        return []
    reps = len(traced)
    summaries = traced[-1][1]
    med = _median_ns([rec.ns for rec, _, _ in traced])

    # instances of one size form a rung; slopes are fitted over rung means
    rungs = defaultdict(list)
    for i, n in enumerate(wl.sizes):
        rungs[n].append(i)
    rung_m = [statistics.fmean(summaries[i]["m"] for i in idx)
              for idx in rungs.values()]

    def slope(per_instance):
        return loglog_slope(rung_m, [statistics.fmean(per_instance[i]
                                                      for i in idx)
                                     for idx in rungs.values()])

    def per_instance_ns(call):
        return [med.get((call, i), 0) for i in range(len(summaries))]

    def add_ms(metric, call):
        metrics.add(metric, _total(med, {call}) / 1e6, "ms", reps)

    for metric, call in (("generators.generate_ms", "generators.generate"),
                         ("generators.plant_ms", "generators.plant"),
                         ("graph.write_text_ms", "graph.write_text"),
                         ("graph.read_text_ms", "graph.read_text"),
                         ("graph.csr_build_ms", "graph.csr_build")):
        add_ms(metric, call)
    metrics.add("graph.text_bytes",
                sum(inst.text_bytes for inst in instances), "bytes", 1)

    # tracemalloc slows allocation-heavy calls 10-30x, so the allocation
    # peaks are taken on the first (smallest) instance only
    g = instances[0].g
    peaks = {call: _alloc_peak_kb(harness.SOLVERS[call], g, 0)
             for call in ("jfr.pq", "jfr.strict")}
    ref = harness.SOLVERS["baselines.bf"](g, 0)
    peaks["verify.audit"] = 0.0 if ref.neg_cycle else _alloc_peak_kb(
        harness.check_optimality_conditions, g, 0, ref)

    for call, fields in SOLVER_FIELDS.items():
        counts = [s[call] for s in summaries]
        inspections = [c["edge_inspections"] for c in counts]
        for field in fields:
            suffix, key = field if isinstance(field, tuple) else (field, field)
            name = f"{call}.{suffix}"
            if key == "useful_ratio":
                metrics.add(name, sum(c["successful_relaxations"]
                                      for c in counts) / sum(inspections),
                            "1", 1)
            elif key == "ns_per_inspection":
                metrics.add(name, _total(med, {call}) / sum(inspections), "ns",
                            reps)
            elif key == "inspection_slope":
                metrics.add(name, slope(inspections), "1", len(rungs))
            elif key == "time_slope":
                metrics.add(name, slope(per_instance_ns(call)), "1",
                            reps * len(summaries))
            elif key == "alloc_peak_kb":
                metrics.add(name, peaks[call], "KiB", 1)
            else:
                metrics.add(name, sum(c[key] for c in counts), "count", 1)
    metrics.add("jfr.lmh_cap_max", max(s["lmh_cap_max"] for s in summaries),
                "1", 1)

    audit_ns = per_instance_ns("verify.audit")
    audited_edges = sum(s["m"] * len(harness.SOLVERS)
                        for s, t in zip(summaries, audit_ns) if t)
    add_ms("verify.audit_ms", "verify.audit")
    metrics.add("verify.audit_ns_per_edge",
                sum(audit_ns) / audited_edges if audited_edges else 0.0, "ns",
                reps)
    metrics.add("verify.audit_time_slope", slope(audit_ns), "1",
                reps * len(summaries))
    metrics.add("verify.audit_alloc_peak_kb", peaks["verify.audit"], "KiB", 1)
    add_ms("verify.oracle_compare_ms", "verify.oracle_compare")
    metrics.add("verify.audit_unsound", harness.audit_unsound(), "count", 1)

    add_ms("paths.detect_negative_cycle_ms", "paths.detect_negative_cycle")
    flagged = len(summaries) * len(harness.SOLVERS) if wl.plant else 0
    metrics.add("paths.cycle_len",
                sum(s["cycle_len"] for s in summaries) / flagged if flagged
                else 0.0, "edges", flagged)
    metrics.add("metrics.rho_ops", geomean(s["rho_ops"] for s in summaries),
                "1", len(summaries))
    add_ms("metrics.bound_check_ms", "metrics.bound_check")
    metrics.add("metrics.bound_flagged_violations",
                sum(s["bound_flagged_violations"] for s in summaries), "count",
                1)
    add_ms("cli.run_ms", "cli.run")
    add_ms("cli.verify_ms", "cli.verify")
    metrics.add("cli.verify_flagged_rejects",
                sum(s["verify_flagged_rejects"] for s in summaries), "count",
                1)

    by_pass = defaultdict(list)
    for span in spans:
        by_pass[span["pass"]].append(span)
    selfs = [self_times(group) for group in by_pass.values()]
    for layer in LAYERS:
        metrics.add(f"{layer}.self_ms",
                    statistics.median(s.get(layer, 0) for s in selfs) / 1e6,
                    "ms", reps)
    untraced_ms = statistics.median(w for _, _, w in untraced) / 1e6
    traced_ms = statistics.median(w for _, _, w in traced) / 1e6
    metrics.add("trace.pass_ms", traced_ms, "ms", reps)
    metrics.add("trace.overhead_ms", traced_ms - untraced_ms, "ms",
                reps + len(untraced))

    table = []
    for n, idx in rungs.items():
        row = {"n": n, "instances": len(idx),
               "m": sum(summaries[i]["m"] for i in idx)}
        for call in harness.SOLVERS:
            row[call] = {"edge_inspections": sum(
                summaries[i][call]["edge_inspections"] for i in idx),
                "ms": sum(med.get((call, i), 0) for i in idx) / 1e6}
        table.append(row)
    return table


def _print_rungs(rungs):
    for r in rungs:
        print(f"rung n={r['n']} x{r['instances']} m={r['m']}: " + " ".join(
            f"{call}={r[call]['edge_inspections']}insp/{r[call]['ms']:.1f}ms"
            for call in harness.SOLVERS))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if harness is None:
        print(f"error: no jfrbench package under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = harness.WORKLOADS[args.workload]
    # GC stays enabled; freezing the long-lived interpreter and harness
    # objects keeps the gc.collect() before each timed call from rescanning
    # them (about 3 ms each time otherwise)
    gc.freeze()
    prov = provenance(args, wl)
    print("provenance " + json.dumps(prov))
    gate = harness.Gate()
    metrics = Metrics()
    spans = []
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            rungs = per_layer(wl, args, gate, workdir, metrics, spans)
        else:
            rungs = []
            end_to_end(wl, args, gate, workdir, metrics)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics.add("peak_rss_mb", rss_kb / 1024, "MB", 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tag = f"{wl.name}-seed{args.seed}"
    if args.trace:
        path = OUT_DIR / f"spans-{tag}.json"
        path.write_text(json.dumps({"provenance": prov, "spans": spans}))
        print(f"spans: {len(spans)} -> {path}")
    _print_rungs(rungs)
    metrics.print_table()
    failed_frac = gate.failed / max(gate.attempted, 1)
    print(f"{'failed_frac':34s} {failed_frac:>16.6g} {'1':8s} "
          f"n={gate.attempted}")
    record = {"provenance": prov, "rungs": rungs, "attempted": gate.attempted,
              "failed": gate.failed,
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.rows.items()},
              "info": {k: {"value": v, "unit": u, "samples": n}
                       for k, (v, u, n) in metrics.info.items()}}
    (OUT_DIR / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed if gate.attempted else 1,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.rows.items()}}))
    return 0 if gate.failed == 0 and gate.attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
