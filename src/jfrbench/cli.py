"""Benchmark command line.

Subcommands:
  gen          write a generated graph in the text format
  run          run one algorithm on a graph file, print a JSON result row
  compare      run a baseline and a jump-frontier algorithm, print CSV
  suite        run a multi-family suite (bundled desk suite by default)
  sweep-edges  re-run one algorithm while appending random edges in steps
  verify       check a saved result file against the oracle

Determinism: re-running any command with identical flags reproduces the
operation-count columns byte for byte; only wall times vary.  Instance i
of every suite entry uses seed = base_seed + i, so any row can be
regenerated in isolation.  Suite instances run one after another, so no
run's time is inflated by another's.  Every PASS/FAIL is the
Bellman-Ford oracle's verdict (:func:`jfrbench.verify.oracle_verdict`).
"""

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import statistics
import sys

from .baselines import bellman_ford, dijkstra_oracle, spfa_fifo, spfa_slf
from .errors import (JfrError, NegativeWeightPresent, SpecInvalid,
                     UnknownAlgorithm)
from .generators import add_edges, generate
from .graph import Graph, read_file, write_file, write_text
from .jfr import jfr_pq, jfr_strict
from .metrics import compare
from .results import RunStats, SsspResult
from .verify import (check_optimality_conditions, oracle_compare,
                     oracle_verdict, well_formed_parents)

SCHEMA_TAG = "#schema=1"  # suite and sweep-edges rows
COMPARE_SCHEMA_TAG = "#schema=2"  # compare rows
ALGORITHMS = ("bf", "spfa", "slf", "jfr-strict", "jfr-pq", "dijkstra")

# Desk-scale default suite: one entry per family, sized to finish in
# about a minute while still separating the algorithms clearly.
DESK_SUITE = {
    "seed": 42,
    "repetitions": 30,
    "k": 2,
    "algorithms": ["slf", "jfr-pq"],
    "entries": [
        {"family": "sparse-random", "n": 2000, "m": 10000},
        {"family": "neg-dense", "n": 500, "m": 30000, "neg_fraction": 0.3},
        {"family": "windmill", "blades": 20, "blade_size": 15},
        {"family": "slf-killer", "n": 2000},
    ],
}


def run_algorithm(name: str, g: Graph, source: int, k: int = 2) -> SsspResult:
    if name.startswith("jfr-") and k < 1:
        raise SpecInvalid(f"k must be >= 1, got {k}")
    if name == "bf":
        return bellman_ford(g, source)
    if name == "spfa":
        return spfa_fifo(g, source)
    if name == "slf":
        return spfa_slf(g, source)
    if name == "jfr-strict":
        return jfr_strict(g, source, k)
    if name == "jfr-pq":
        return jfr_pq(g, source, k)
    if name == "dijkstra":
        return dijkstra_oracle(g, source)
    raise UnknownAlgorithm(f"unknown algorithm {name!r}; "
                           f"choose from {', '.join(ALGORITHMS)}")


def _timed_run(name, g, source, k, repetitions):
    """Run `repetitions` times; return the last result with its wall time
    replaced by the median across runs (counts are identical every run)."""
    if repetitions < 1:
        raise SpecInvalid(f"repetitions must be >= 1, got {repetitions}")
    times = []
    result = None
    for _ in range(repetitions):
        result = run_algorithm(name, g, source, k)
        times.append(result.stats.wall_time_ns)
    result.stats.wall_time_ns = int(statistics.median(times))
    return result


def _check(oracle, candidate) -> str:
    return "PASS" if oracle_verdict(oracle, candidate).ok else "FAIL"


def _write_csv(path, tag, header, rows):
    """Write the ``#schema`` tag line, the header and the rows to ``path``,
    or to stdout when ``path`` is None."""
    with (open(path, "w", newline="") if path
          else contextlib.nullcontext(sys.stdout)) as out:
        out.write(tag + "\n")
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_gen(args) -> int:
    g = generate(args.family, args.seed, n=args.n, m=args.m,
                 weight_lo=args.weight_lo, weight_hi=args.weight_hi,
                 neg_fraction=args.neg_fraction, blades=args.blades,
                 blade_size=args.blade_size)
    if args.out:
        write_file(args.out, g)
        print(f"family={args.family} n={g.n} m={g.m} seed={args.seed} "
              f"-> {args.out}")
    else:
        sys.stdout.write(write_text(g.to_edge_list()).decode("ascii"))
    return 0


def cmd_run(args) -> int:
    g = read_file(args.graph)
    result = _timed_run(args.algo, g, args.source, args.k, args.repetitions)
    if args.check:
        check = _check(bellman_ford(g, args.source), result)
    else:
        check = "SKIPPED"
    s = result.stats
    print(json.dumps(dict(
        graph=args.graph, family="file", n=g.n, m=g.m, algorithm=args.algo,
        time_ns=s.wall_time_ns, edge_inspections=s.edge_inspections,
        successful_relaxations=s.successful_relaxations,
        outer_iterations=s.outer_iterations, check=check)))
    if args.out:
        payload = dict(graph=args.graph, source=args.source,
                       algorithm=args.algo, neg_cycle=result.neg_cycle,
                       dist=["inf" if d == math.inf else d
                             for d in result.dist],
                       parent=result.parent)
        with open(args.out, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    return 0


def cmd_compare(args) -> int:
    g = read_file(args.graph)
    base = _timed_run(args.base, g, args.source, args.k, args.repetitions)
    jfr = _timed_run(args.jfr, g, args.source, args.k, args.repetitions)
    oracle = bellman_ford(g, args.source)
    cm = compare(base.stats, jfr.stats)
    _write_csv(None, COMPARE_SCHEMA_TAG,
               ["graph", "base_algo", "jfr_algo", "ops_base", "ops_jfr",
                "time_base_ns", "time_jfr_ns", "rho_ops", "rho_tpr", "nwr",
                "check_base", "check_jfr"],
               [[args.graph, args.base, args.jfr, cm.ops_base, cm.ops_jfr,
                 cm.time_base_ns, cm.time_jfr_ns, f"{cm.rho_ops:.6f}",
                 f"{cm.rho_tpr:.6f}", f"{cm.nwr:.6f}",
                 _check(oracle, base), _check(oracle, jfr)]])
    return 0


def _load_suite(path):
    if path is None:
        return DESK_SUITE
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecInvalid(f"suite spec {path}: {exc}") from None


def _expect(ok, what, value):
    if not ok:
        raise SpecInvalid(f"suite spec: {what}, got {value!r}")


def _validate_suite(spec):
    _expect(isinstance(spec, dict), "the spec must be a JSON object", spec)
    for key, default in (("seed", 0), ("repetitions", 1), ("k", 2)):
        value = spec.get(key, default)
        _expect(type(value) is int, f"{key!r} must be an integer", value)
    if spec.get("repetitions", 1) < 1:
        raise SpecInvalid("repetitions must be >= 1")
    algos = spec.get("algorithms", [])
    entries = spec.get("entries", [])
    _expect(isinstance(algos, list), "'algorithms' must be a list", algos)
    if not algos:
        raise SpecInvalid("at least one algorithm must be selected")
    for a in algos:
        if a not in ALGORITHMS:
            raise UnknownAlgorithm(f"unknown algorithm {a!r} in suite spec")
    _expect(isinstance(entries, list), "'entries' must be a list", entries)
    if not entries:
        raise SpecInvalid("suite has no entries")
    for entry in entries:
        _expect(isinstance(entry, dict) and "family" in entry,
                "each entry must be an object with a 'family'", entry)
        for key, value in entry.items():
            kinds = (int,) if key in ("n", "m", "blades", "blade_size") \
                else (int, float)
            _expect(key == "family" or value is None or type(value) in kinds,
                    f"entry {key!r} must be "
                    f"{' or '.join(t.__name__ for t in kinds)}", value)


def _entry_id(entry):
    if entry["family"] == "windmill":
        return (f"windmill-b{entry['blades']}-s{entry['blade_size']}")
    bits = [entry["family"], f"n{entry['n']}"]
    if entry.get("m") is not None:
        bits.append(f"m{entry['m']}")
    return "-".join(bits)


def _suite_instance(spec, entry, i):
    """Run every selected algorithm on instance i of a suite entry; per
    algorithm, give its counts and check, or why it was skipped."""
    seed = spec.get("seed", 0) + i
    g = generate(entry["family"], seed, n=entry.get("n"), m=entry.get("m"),
                 weight_lo=entry.get("weight_lo"),
                 weight_hi=entry.get("weight_hi"),
                 neg_fraction=entry.get("neg_fraction", 0.3),
                 blades=entry.get("blades"),
                 blade_size=entry.get("blade_size"))
    oracle = bellman_ford(g, 0)
    out = {}
    for algo in spec["algorithms"]:
        try:
            result = run_algorithm(algo, g, 0, spec.get("k", 2))
        except NegativeWeightPresent as exc:
            out[algo] = f"SKIPPED: {exc}"
            continue
        s = result.stats
        out[algo] = (s.wall_time_ns, s.edge_inspections,
                     s.successful_relaxations, s.outer_iterations,
                     _check(oracle, result))
    return g.n, g.m, out


def cmd_suite(args) -> int:
    spec = _load_suite(args.spec)
    _validate_suite(spec)
    reps = spec.get("repetitions", 1)
    rows = []
    for entry in spec["entries"]:
        runs = [_suite_instance(spec, entry, i) for i in range(reps)]
        n, m, _ = runs[0]
        for algo in spec["algorithms"]:
            vals = [run[2][algo] for run in runs]
            row = [_entry_id(entry), entry["family"], n, m, algo, reps]
            skipped = [v for v in vals if isinstance(v, str)]
            if skipped:
                rows.append(row + ["", "", "", "", skipped[0]])
                continue
            median_ns = int(statistics.median(v[0] for v in vals))
            means = [f"{statistics.fmean(v[c] for v in vals):.1f}"
                     for c in (1, 2, 3)]
            check = "PASS" if all(v[4] == "PASS" for v in vals) else "FAIL"
            rows.append(row + [median_ns, *means, check])
    rows.sort(key=lambda r: (r[1], r[2], r[3], r[4]))
    _write_csv(args.out, SCHEMA_TAG,
               ["id", "family", "n", "m", "algorithm", "instances", "time_ns",
                "edge_inspections", "successful_relaxations",
                "outer_iterations", "check"], rows)
    if args.out:
        print(f"wrote {len(rows)} rows -> {args.out}")
    return 0


def _parse_fractions(text):
    if not text:
        raise SpecInvalid("at least one fraction is required")
    try:
        fractions = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise SpecInvalid(f"bad fraction list {text!r}") from None
    if not fractions:
        raise SpecInvalid("at least one fraction is required")
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise SpecInvalid(f"fraction {f} outside (0, 1]")
    return fractions


def cmd_sweep_edges(args) -> int:
    fractions = _parse_fractions(args.fractions)
    if args.graph:
        g0 = read_file(args.graph)
    elif args.family:
        g0 = generate(args.family, args.seed, n=args.n, m=args.m,
                      neg_fraction=args.neg_fraction, blades=args.blades,
                      blade_size=args.blade_size)
    else:
        raise SpecInvalid("sweep-edges needs a graph file or --family")
    rows = []

    def measure(g, fraction):
        result = run_algorithm(args.algo, g, args.source, args.k)
        check = _check(bellman_ford(g, args.source), result)
        rows.append([f"{fraction:.6f}", g.n, g.m, g.m - g0.m,
                     result.stats.wall_time_ns,
                     result.stats.edge_inspections, None, check])

    measure(g0, 0.0)
    for i, f in enumerate(fractions):
        measure(add_edges(g0, f, args.weight_lo, args.weight_hi,
                          args.seed + 1 + i), f)
    base_ops = rows[0][5]
    for row in rows:
        row[6] = row[5] - base_ops  # delta_ops against the unaugmented run
    _write_csv(args.out, SCHEMA_TAG,
               ["fraction", "n", "m", "delta_edges", "time_ns",
                "edge_inspections", "delta_ops", "check"], rows)
    return 0


def _label(d, path):
    try:
        return math.inf if d == "inf" else float(d)
    except (TypeError, ValueError):
        raise SpecInvalid(f"result file {path}: label {d!r} is not a number "
                          "or \"inf\"") from None


def _load_result(path, g):
    """Read a ``run --out`` file into (source, candidate result)."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise SpecInvalid(f"result file {path}: {exc}") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("dist"),
                                                       list):
        raise SpecInvalid(f"result file {path}: no \"dist\" label list")
    dist = [_label(d, path) for d in payload["dist"]]
    if len(dist) != g.n:
        raise SpecInvalid(f"result has {len(dist)} labels, "
                          f"graph has {g.n} vertices")
    parent = payload.get("parent") or [None] * g.n
    if not isinstance(parent, list) or not well_formed_parents(parent, g.n):
        raise SpecInvalid(f"result file {path}: \"parent\" must list {g.n} "
                          f"entries, each null or a vertex in [0, {g.n})")
    source = payload.get("source", 0)
    if type(source) is not int:
        raise SpecInvalid(f"result file {path}: bad source {source!r}")
    return source, SsspResult(dist=dist, parent=parent,
                              neg_cycle=bool(payload.get("neg_cycle", False)),
                              stats=RunStats(mode="external"))


def cmd_verify(args) -> int:
    g = read_file(args.graph)
    source, candidate = _load_result(args.result, g)
    if args.source is not None:
        source = args.source
    report = oracle_compare(g, source, candidate)
    if not candidate.neg_cycle:
        audit = check_optimality_conditions(g, source, candidate)
        report.triangle_ok = audit.triangle_ok
        report.parent_ok = audit.parent_ok
    print(json.dumps(dataclasses.asdict(report)))
    return 0 if report.ok else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="jfrbench",
        description="shortest-path benchmark toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--neg-fraction", type=float, default=0.3)
    p.add_argument("--weight-lo", type=float, default=None)
    p.add_argument("--weight-hi", type=float, default=None)
    p.add_argument("--blades", type=int)
    p.add_argument("--blade-size", type=int)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="run one algorithm on a graph file")
    p.add_argument("graph")
    p.add_argument("--algo", required=True)
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--check", action="store_true")
    p.add_argument("--out", help="write full labels to a JSON file")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="baseline vs jump-frontier on one graph")
    p.add_argument("graph")
    p.add_argument("--base", default="slf")
    p.add_argument("--jfr", default="jfr-pq")
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("suite", help="run a suite spec (default: desk suite)")
    p.add_argument("spec", nargs="?")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("sweep-edges",
                       help="measure one algorithm while adding edges")
    p.add_argument("graph", nargs="?")
    p.add_argument("--family")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--neg-fraction", type=float, default=0.3)
    p.add_argument("--blades", type=int)
    p.add_argument("--blade-size", type=int)
    p.add_argument("--fractions", required=True,
                   help="comma-separated list, each in (0,1]")
    p.add_argument("--algo", default="jfr-pq")
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--weight-lo", type=float, default=0.0)
    p.add_argument("--weight-hi", type=float, default=10.0)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_sweep_edges)

    p = sub.add_parser("verify", help="audit a saved result file")
    p.add_argument("graph")
    p.add_argument("result")
    p.add_argument("--source", type=int, default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except JfrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
