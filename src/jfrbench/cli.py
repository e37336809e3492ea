"""Benchmark command line.

Subcommands:
  gen      write a generated graph in the text format
  run      run one algorithm on a graph file, print a JSON result row
  suite    run a multi-family suite (bundled desk suite by default)
  verify   check a saved result file against the oracle

Determinism: re-running any command with identical flags reproduces the
operation-count columns byte for byte; only wall times vary.  Instance i
of every suite entry uses seed = base_seed + i, so any row can be
regenerated in isolation.  Suite instances run one after another, so no
run's time is inflated by another's.  Every PASS/FAIL is
``certify(...).ok`` (:func:`jfrbench.verify.certify`), as ``verify``'s
exit status is: the Bellman-Ford oracle's distances and negative-cycle
flag, and for an unflagged result the audit's triangle and parent checks
too.  Any FAIL makes ``run`` and ``suite`` exit 1, as it does ``verify``.
"""

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import statistics
import sys

from .baselines import bellman_ford, spfa_fifo, spfa_slf
from .errors import JfrError, SpecInvalid, UnknownAlgorithm
from .generators import FAMILIES, family_args, family_params, generate
from .graph import SCALE, Graph, read_file, write_file, write_text
from .jfr import DEFAULT_K, jfr_pq, jfr_strict
from .results import RunStats, SsspResult
from .verify import certify, well_formed_parents

SCHEMA_TAG = "#schema=1"  # suite rows
ALGORITHMS = {"bf": bellman_ford, "spfa": spfa_fifo, "slf": spfa_slf,
              "jfr-strict": jfr_strict, "jfr-pq": jfr_pq}
READS_K = ("jfr-strict", "jfr-pq")  # the algorithms called with a depth k

SPEC_KEYS = ("seed", "repetitions", "k", "algorithms", "entries")
# every generator parameter and its type, in family-table order: gen's flags
GEN_FLAGS = {name: p.annotation for family in FAMILIES
             for name, p in family_params(family).items()}

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


def run_algorithm(name: str, g: Graph, source: int,
                  k: int = DEFAULT_K) -> SsspResult:
    if name not in READS_K:
        return ALGORITHMS[name](g, source)
    return ALGORITHMS[name](g, source, k)


def _judge_plan(algorithms, k, repetitions):
    """The k to run ``algorithms`` with, ``repetitions`` times each, judged
    before anything runs: each algorithm a name in ALGORITHMS, a k >= 1
    given only where an algorithm reads it (the jfr default unless one
    is), and at least one repetition."""
    for a in algorithms:
        if type(a) is not str or a not in ALGORITHMS:
            raise UnknownAlgorithm(f"unknown algorithm {a!r}; "
                                   f"choose from {', '.join(ALGORITHMS)}")
    if k is not None and (k < 1 or not any(a in READS_K for a in algorithms)):
        raise SpecInvalid(f"k must be >= 1 and for {' or '.join(READS_K)}, "
                          f"got {k} for {', '.join(algorithms)}")
    if repetitions < 1:
        raise SpecInvalid(f"repetitions must be >= 1, got {repetitions}")
    return DEFAULT_K if k is None else k


def _check(g, source, result) -> str:
    """PASS exactly when ``certify(...).ok``, the rule behind ``verify``'s
    exit status."""
    return "PASS" if certify(g, source, result).ok else "FAIL"


def _json_label(d):
    """A micro-unit label in whole units, "inf" / "-inf" for strict JSON."""
    return "inf" if d == math.inf else "-inf" if d == -math.inf else d / SCALE


def cmd_gen(args) -> int:
    g = generate(args.family, args.seed, **family_args(args.family, {
        flag: value for flag in GEN_FLAGS
        if (value := getattr(args, flag)) is not None}))
    if args.out:
        write_file(args.out, g)
        print(f"family={args.family} n={g.n} m={g.m} seed={args.seed} "
              f"-> {args.out}")
    else:
        sys.stdout.write(write_text(g.to_edge_list()).decode("ascii"))
    return 0


def cmd_run(args) -> int:
    k = _judge_plan([args.algo], args.k, args.repetitions)
    g = read_file(args.graph)
    times = []
    for _ in range(args.repetitions):  # counts are the same every run
        result = run_algorithm(args.algo, g, args.source, k)
        times.append(result.stats.wall_time_ns)
    s = result.stats
    s.wall_time_ns = int(statistics.median(times))  # the row's time
    check = _check(g, args.source, result) if args.check else "SKIPPED"
    if args.out:  # before the summary, so a failed write prints no row
        payload = dict(graph=args.graph, source=args.source,
                       algorithm=args.algo, neg_cycle=result.neg_cycle,
                       dist=[_json_label(d) for d in result.dist],
                       parent=result.parent)
        with open(args.out, "w") as fh:  # dumps: json.dump skips the C encoder
            fh.write(json.dumps(payload) + "\n")
    print(json.dumps(dict(
        graph=args.graph, source=args.source, n=g.n, m=g.m,
        algorithm=args.algo, k=s.k, time_ns=s.wall_time_ns,
        edge_inspections=s.edge_inspections,
        successful_relaxations=s.successful_relaxations,
        outer_iterations=s.outer_iterations, check=check)))
    return int(check == "FAIL")


def _read_json(path, what):
    """The JSON value the file ``path`` holds; any other content is a
    SpecInvalid that names the file as ``what``."""
    with open(path) as fh:
        try:
            return json.load(fh)
        # not JSON, not UTF-8, too long an int, or nested too deep
        except (ValueError, RecursionError) as exc:
            raise SpecInvalid(f"{what} {path}: {exc}") from None


def _expect(ok, what, value):
    if not ok:
        raise SpecInvalid(f"suite spec: {what}, got {value!r}")


def _plan_suite(spec):
    """The suite ``spec``, judged in full before any instance runs, as
    ``(seed, repetitions, k, algorithms, entries)``.  Each entry is an
    ``(id, family, args)`` triple with ``args`` as :func:`family_args`
    gives them; the id is the family, then each argument's name and
    value, so ``0`` and ``0.0`` for a float parameter give one id."""
    _expect(isinstance(spec, dict), "the spec must be a JSON object", spec)
    for key in spec:
        _expect(key in SPEC_KEYS, f"unknown key; choose from "
                f"{', '.join(SPEC_KEYS)}", key)
    for key in ("seed", "repetitions", "k"):
        value = spec.get(key, 0)
        _expect(type(value) is int, f"{key!r} must be an integer", value)
    algos = spec.get("algorithms", [])
    entries = spec.get("entries", [])
    _expect(isinstance(algos, list) and algos,
            "'algorithms' must be a nonempty list", algos)
    k = _judge_plan(algos, spec.get("k"), reps := spec.get("repetitions", 1))
    _expect(isinstance(entries, list) and entries,
            "'entries' must be a nonempty list", entries)
    plan = []
    for entry in entries:
        _expect(isinstance(entry, dict) and "family" in entry,
                "each entry must be an object with a 'family'", entry)
        params = dict(entry)
        family = params.pop("family")
        args = family_args(family, params)
        plan.append(("-".join([family] + [f"{name}{v}" for name, v
                                          in args.items()]), family, args))
    ids = [entry_id for entry_id, _, _ in plan]
    _expect(len(set(ids)) == len(ids), "two entries share an id", ids)
    return spec.get("seed", 0), reps, k, algos, plan


def cmd_suite(args) -> int:
    seed, reps, k, algos, plan = _plan_suite(
        DESK_SUITE if args.spec is None
        else _read_json(args.spec, "suite spec"))
    rows = []
    for entry_id, family, params in plan:
        runs = {algo: [] for algo in algos}
        for i in range(reps):
            g = generate(family, seed + i, **params)
            for algo, done in runs.items():
                result = run_algorithm(algo, g, 0, k)
                s = result.stats
                done.append((s.wall_time_ns, s.edge_inspections,
                             s.successful_relaxations, s.outer_iterations,
                             _check(g, 0, result)))
        for algo, done in runs.items():
            times, *counts, checks = zip(*done)
            rows.append([entry_id, family, g.n, g.m, algo, reps,
                         int(statistics.median(times)),
                         *(f"{statistics.fmean(c):.1f}" for c in counts),
                         "PASS" if set(checks) == {"PASS"} else "FAIL"])
    rows.sort(key=lambda r: (r[1], r[2], r[3], r[4]))
    with (open(args.out, "w", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        out.write(SCHEMA_TAG + "\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["id", "family", "n", "m", "algorithm", "instances",
                         "time_ns", "edge_inspections",
                         "successful_relaxations", "outer_iterations",
                         "check"])
        writer.writerows(rows)
    if args.out:
        print(f"wrote {len(rows)} rows -> {args.out}")
    return int(any(row[-1] == "FAIL" for row in rows))


def _label(d, path):
    """A result file's label to the nearest micro-unit, or infinite."""
    if d in ("inf", "-inf"):
        d = float(d)
    try:
        if type(d) in (int, float) and d == d:  # not NaN
            u = d * SCALE
            return u if math.isinf(d) else float(float.__round__(u))
    except OverflowError:  # past the float range in micro-units
        pass
    raise SpecInvalid(f"result file {path}: label {d!r} is not \"inf\", "
                      "\"-inf\" or a number within the float range in "
                      "micro-units")


def _load_result(path, g):
    """Read a ``run --out`` file into (source, candidate result)."""
    payload = _read_json(path, "result file")
    if not isinstance(payload, dict) or not isinstance(payload.get("dist"),
                                                       list):
        raise SpecInvalid(f"result file {path}: no \"dist\" label list")
    dist = [_label(d, path) for d in payload["dist"]]
    if len(dist) != g.n:
        raise SpecInvalid(f"result has {len(dist)} labels, "
                          f"graph has {g.n} vertices")
    parent = payload.get("parent")
    if parent is None:
        parent = [None] * g.n
    if not isinstance(parent, list) or not well_formed_parents(parent, g.n):
        raise SpecInvalid(f"result file {path}: \"parent\" must list {g.n} "
                          f"entries, each null or a vertex in [0, {g.n})")
    source = payload.get("source", 0)
    if type(source) is not int:
        raise SpecInvalid(f"result file {path}: bad source {source!r}")
    neg_cycle = payload.get("neg_cycle", False)
    if type(neg_cycle) is not bool:
        raise SpecInvalid(f"result file {path}: \"neg_cycle\" must be true "
                          f"or false, got {neg_cycle!r}")
    return source, SsspResult(dist=dist, parent=parent, neg_cycle=neg_cycle,
                              stats=RunStats(mode="external"))


def cmd_verify(args) -> int:
    g = read_file(args.graph)
    source, candidate = _load_result(args.result, g)
    report = certify(g, source, candidate)
    if report.first_mismatch is not None:
        v, want, got = report.first_mismatch
        report.first_mismatch = (v, _json_label(want), _json_label(got))
    print(json.dumps(dataclasses.asdict(report)))
    return 0 if report.ok else 1


@functools.cache
def _build_parser():
    """The one parser of the process: building it costs more than a small
    command's own work, and ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="jfrbench",
        description="shortest-path benchmark toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph")
    p.add_argument("--family", required=True)
    p.add_argument("--seed", type=int, default=0)
    for flag, kind in GEN_FLAGS.items():
        p.add_argument("--" + flag.replace("_", "-"), type=kind)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="run one algorithm on a graph file")
    p.add_argument("graph")
    p.add_argument("--algo", required=True)
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--k", type=int, help=f"jfr depth (default {DEFAULT_K})")
    p.add_argument("--check", action="store_true")
    p.add_argument("--out", help="write full labels to a JSON file")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("suite", help="run a suite spec (default: desk suite)")
    p.add_argument("spec", nargs="?")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("verify", help="audit a saved result file")
    p.add_argument("graph")
    p.add_argument("result")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (JfrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
