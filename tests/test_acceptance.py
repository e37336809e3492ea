"""End-to-end acceptance gates.

Each test prints one PASS/FAIL line and then asserts; the lines surface
in the report through the ``-rP`` flag configured in pyproject.toml.  The
big criterion-1 sweep is shared by the invariant audits in criteria 4
and 6.
"""

import csv
import dataclasses
import json
import math
import random
import statistics
import time
from dataclasses import dataclass
from functools import partial

import pytest

from jfrbench.baselines import bellman_ford, spfa_fifo, spfa_slf
from jfrbench.cli import DESK_SUITE, main, run_algorithm
from jfrbench.generators import (gen_slf_killer, gen_sparse_random, generate,
                                 plant_negative_cycle)
from jfrbench.graph import SCALE, EdgeListDoc, from_edge_list
from jfrbench.jfr import LmhWorkspace, jfr_pq, jfr_strict, lmh_propagate
from jfrbench.metrics import bound_check, compare
from jfrbench.results import RunStats, SsspResult, on_parent_cycle, start_run
from jfrbench.verify import (certify, check_optimality_conditions,
                             cycle_weight, detect_negative_cycle,
                             oracle_compare)

STRICT_KS = (1, 2, 4, 8)


def report(line):
    print(line, flush=True)


def sweep_graph(i):
    """Instance i of the mixed-family oracle sweep, n <= 200 throughout.

    Half the population carries potential-shifted negative weights at two
    densities; the rest splits between narrow-band sparse graphs and
    windmills.
    """
    seed = 10_000 + i
    family = i % 4
    if family == 0:
        n = 40 + (i % 17) * 9
        return generate("sparse-random", seed, n=n, m=4 * n, weight_lo=4.0)
    if family == 1:
        n = 30 + (i % 12) * 9
        frac = (0.2, 0.35, 0.5)[i % 3]
        return generate("neg-dense", seed, n=n, m=4 * n, neg_fraction=frac)
    if family == 2:
        return generate("windmill", seed, blades=2 + i % 5,
                        blade_size=3 + i % 5)
    n = 24 + (i % 14) * 8
    return generate("neg-dense", seed, n=n, m=6 * n, neg_fraction=0.3)


@dataclass
class SweepTally:
    instances: int = 0
    mismatches: int = 0
    first_mismatch: tuple = None
    strict_runs: int = 0
    decomposition_bad: int = 0
    activation_bound_bad: int = 0
    bound_check_bad: int = 0
    lmh_calls_checked: int = 0
    pq_lmh_calls_checked: int = 0
    lmh_bound_bad: int = 0
    elapsed: float = 0.0


@pytest.fixture(scope="module")
def sweep():
    tally = SweepTally()
    t0 = time.perf_counter()
    for i in range(2000):
        g = sweep_graph(i)
        oracle = bellman_ford(g, 0)
        assert not oracle.neg_cycle, f"generator produced a cycle at {i}"
        degs = [g.offsets[v + 1] - g.offsets[v] for v in range(g.n)]

        pq = jfr_pq(g, 0)
        candidates = [("spfa-fifo", spfa_fifo(g, 0)),
                      ("spfa-slf", spfa_slf(g, 0)),
                      ("jfr-pq", pq)]
        strict = [(k, jfr_strict(g, 0, k)) for k in STRICT_KS]
        candidates.extend((f"jfr-strict-k{k}", r) for k, r in strict)
        for name, r in candidates:
            if r.dist != oracle.dist or r.neg_cycle:
                tally.mismatches += 1
                if tally.first_mismatch is None:
                    tally.first_mismatch = (i, name)

        for k, r in strict:
            s = r.stats
            tally.strict_runs += 1
            frontier_scans = sum(a * d for a, d in zip(s.activations, degs))
            if s.edge_inspections - s.lmh_inspections != frontier_scans:
                tally.decomposition_bad += 1
            if any(a > 1 + -(-imp // k)
                   for a, imp in zip(s.activations, s.improvements)):
                tally.activation_bound_bad += 1
            if not bound_check(s, g, k).holds:
                tally.bound_check_bad += 1
            for depth, inspections, window_deg in s.lmh_calls:
                tally.lmh_calls_checked += 1
                if inspections > depth * window_deg:
                    tally.lmh_bound_bad += 1
        for depth, inspections, window_deg in pq.stats.lmh_calls:
            tally.pq_lmh_calls_checked += 1
            if inspections > depth * window_deg:
                tally.lmh_bound_bad += 1
        tally.instances += 1
    tally.elapsed = time.perf_counter() - t0
    return tally


def test_criterion_1_oracle_equivalence(sweep):
    ok = sweep.instances >= 2000 and sweep.mismatches == 0 \
        and sweep.elapsed < 120
    report(f"ACCEPTANCE 1 oracle equivalence: {'PASS' if ok else 'FAIL'} — "
           f"{sweep.instances} instances x 7 solvers, "
           f"{sweep.mismatches} mismatches, {sweep.elapsed:.1f}s")
    assert sweep.mismatches == 0, sweep.first_mismatch
    assert sweep.instances >= 2000
    assert sweep.elapsed < 120


def test_criterion_2_negative_cycle_detection():
    solvers = [("bf", bellman_ford), ("spfa-fifo", spfa_fifo),
               ("spfa-slf", spfa_slf), ("jfr-pq", jfr_pq),
               ("jfr-strict", lambda g, s: jfr_strict(g, s, 2))]
    misses = 0
    bad_certificates = 0
    for i in range(200):
        n = 30 + i % 40
        base = gen_sparse_random(n, 3 * n, 20_000 + i)
        g = plant_negative_cycle(base, 3 + i % 4, seed=20_000 + i)
        for _name, solve in solvers:
            r = solve(g, 0)
            if not r.neg_cycle:
                misses += 1
                continue
            cycle = detect_negative_cycle(r, g)
            if cycle_weight(g, cycle) >= 0:
                bad_certificates += 1
    ok = misses == 0 and bad_certificates == 0
    report(f"ACCEPTANCE 2 negative-cycle detection: "
           f"{'PASS' if ok else 'FAIL'} — 200 planted instances x 5 solvers, "
           f"{misses} misses, {bad_certificates} bad certificates")
    assert misses == 0 and bad_certificates == 0


def test_criterion_3_adversarial_suppression():
    t0 = time.perf_counter()
    slf_ops = []
    pq_ops = []
    for i in range(30):
        g = gen_slf_killer(2000, seed=3000 + i)
        slf_ops.append(spfa_slf(g, 0).stats.edge_inspections)
        pq_ops.append(jfr_pq(g, 0).stats.edge_inspections)
    elapsed = time.perf_counter() - t0
    ratio = statistics.fmean(slf_ops) / statistics.fmean(pq_ops)
    ok = ratio >= 10.0 and elapsed < 60
    report(f"ACCEPTANCE 3 adversarial suppression: "
           f"{'PASS' if ok else 'FAIL'} — mean ops "
           f"{statistics.fmean(slf_ops):.0f} vs "
           f"{statistics.fmean(pq_ops):.0f}, ratio {ratio:.1f}x "
           f"(bar 10x), {elapsed:.1f}s")
    assert ratio >= 10.0
    assert elapsed < 60


def test_criterion_4_strict_mode_invariants(sweep):
    ok = (sweep.decomposition_bad == 0 and sweep.activation_bound_bad == 0
          and sweep.bound_check_bad == 0)
    report(f"ACCEPTANCE 4 inspection/activation invariants: "
           f"{'PASS' if ok else 'FAIL'} — {sweep.strict_runs} strict runs: "
           f"{sweep.decomposition_bad} decomposition, "
           f"{sweep.activation_bound_bad} activation-bound, "
           f"{sweep.bound_check_bad} bound-check violations")
    assert sweep.decomposition_bad == 0
    assert sweep.activation_bound_bad == 0
    assert sweep.bound_check_bad == 0


@pytest.fixture(scope="module")
def desk_comparisons():
    pairs = []
    for entry in DESK_SUITE["entries"]:
        for i in range(DESK_SUITE["repetitions"]):
            seed = DESK_SUITE["seed"] + i
            g = generate(entry["family"], seed, n=entry.get("n"),
                         m=entry.get("m"),
                         neg_fraction=entry.get("neg_fraction", 0.3),
                         blades=entry.get("blades"),
                         blade_size=entry.get("blade_size"))
            base = run_algorithm("slf", g, 0)
            jfr = run_algorithm("jfr-pq", g, 0)
            pairs.append((compare(base.stats, jfr.stats),
                          base.stats.wall_time_ns / jfr.stats.wall_time_ns))
    return pairs


def test_criterion_5_metric_identities(desk_comparisons):
    worst = max(abs(c.rho_ops / c.rho_tpr / clock_ratio - 1.0)
                for c, clock_ratio in desk_comparisons)
    ok = worst <= 1e-12
    report(f"ACCEPTANCE 5 metric identities: {'PASS' if ok else 'FAIL'} — "
           f"{len(desk_comparisons)} comparisons, max "
           f"|rho_ops/rho_tpr / (time_base/time_jfr) - 1| {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_6_local_propagation_cost_bound(sweep):
    ok = (sweep.lmh_bound_bad == 0 and sweep.lmh_calls_checked > 0
          and sweep.pq_lmh_calls_checked > 0)
    report(f"ACCEPTANCE 6 local-propagation cost bound: "
           f"{'PASS' if ok else 'FAIL'} — {sweep.lmh_calls_checked} "
           f"jfr-strict and {sweep.pq_lmh_calls_checked} jfr-pq calls "
           f"audited, {sweep.lmh_bound_bad} violations")
    assert sweep.lmh_calls_checked > 0
    assert sweep.pq_lmh_calls_checked > 0
    assert sweep.lmh_bound_bad == 0


def test_criterion_7_edge_increment_sweep(tmp_path):
    # at a fixed seed, a neg-dense graph with more edges is the graph with
    # fewer edges plus some appended, so this m-ladder adds 5%, 10% and 15%
    # more edges to the same 30 graphs
    ladder = (30_000, 31_500, 33_000, 34_500)
    spec, out = tmp_path / "ladder.json", tmp_path / "ladder.csv"
    spec.write_text(json.dumps({
        "seed": 40_000, "repetitions": 30, "algorithms": ["jfr-pq", "slf"],
        "entries": [{"family": "neg-dense", "n": 500, "m": m,
                     "neg_fraction": 0.3} for m in ladder]}))
    assert main(["suite", str(spec), "-o", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    means = {algo: [float(r["edge_inspections"]) for r in rows
                    if r["algorithm"] == algo] for algo in ("jfr-pq", "slf")}
    passed = len(rows) == 8 and all(r["check"] == "PASS" for r in rows)
    rising = all(len(v) == len(ladder) and v == sorted(set(v))
                 for v in means.values())
    ok = passed and rising
    shown = "; ".join(f"{algo} " + " / ".join(f"{v:.0f}" for v in vals)
                      for algo, vals in means.items())
    report(f"ACCEPTANCE 7 edge-increment sweep: {'PASS' if ok else 'FAIL'} "
           f"— m = {', '.join(map(str, ladder))} on 30 seeds, {len(rows)} "
           f"rows all PASS: {passed}; mean inspections {shown}")
    assert passed
    assert rising


@pytest.fixture(scope="module")
def desk_suite_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("desk")
    paths = []
    for tag in ("a", "b"):
        out = base / f"desk_{tag}.csv"
        assert main(["suite", "-o", str(out)]) == 0
        paths.append(out)
    return paths


def test_criterion_8_suite_determinism(desk_suite_runs):
    def ops_view(path):
        rows = list(csv.reader(path.read_text().splitlines()[1:]))
        return [[c for i, c in enumerate(r) if i != 6] for r in rows]

    first, second = desk_suite_runs
    identical = ops_view(first) == ops_view(second)
    report(f"ACCEPTANCE 8 determinism: {'PASS' if identical else 'FAIL'} — "
           f"desk suite re-run, non-time columns byte-identical: "
           f"{identical}")
    assert identical


def test_criterion_9_desk_suite_table(desk_suite_runs):
    lines = desk_suite_runs[0].read_text().splitlines()
    header = lines[1].split(",")
    rows = list(csv.DictReader(lines[1:]))
    has_columns = {"time_ns", "edge_inspections", "check"} <= set(header)
    all_pass = all(r["check"] == "PASS" for r in rows)
    ok = has_columns and all_pass and len(rows) == 8
    report(f"ACCEPTANCE 9 desk-suite table: {'PASS' if ok else 'FAIL'} — "
           f"{len(rows)} rows, time/ops/check columns present: "
           f"{has_columns}, all checks PASS: {all_pass}")
    assert has_columns
    assert len(rows) == 8
    assert all_pass


def test_criterion_10_pq_killer_inspections_polynomial():
    # k = detour: every detour lies within one propagation's reach, the
    # case where lazy deletion alone doubles its scans per level
    rows, over = [], 0
    for k in (1, 2, 3, 4):
        for levels in (8, 12, 16):
            g = generate("pq-killer", 0, levels=levels, detour=k)
            pq = jfr_pq(g, 0, k).stats.edge_inspections
            over += pq > g.n * g.m
            rows.append(f"k{k}/L{levels} {pq}/"
                        f"{spfa_fifo(g, 0).stats.edge_inspections}/"
                        f"{bellman_ford(g, 0).stats.edge_inspections}"
                        f" (n*m {g.n * g.m})")
    report(f"ACCEPTANCE 10 pq-killer inspections: "
           f"{'PASS' if over == 0 else 'FAIL'} — jfr-pq/fifo/bf per rung: "
           f"{'; '.join(rows)}; {over} rungs above n*m")
    assert over == 0


def rounding_fuzz_graph(rng):
    """A multigraph of the negative-cycle fuzz: n = 3-8, up to 3n edges of
    6-decimal weight in [0, 10], each but a loop followed in 30% of the
    draws by a reverse edge of negated weight, whose zero-weight 2-cycles
    float sums of the weights once left as parent cycles."""
    n = rng.randint(3, 8)
    edges = []
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        w = round(rng.uniform(0, 10), 6)
        edges.append((u, v, w))
        if u != v and rng.random() < 0.3:
            edges.append((v, u, -w))
    return from_edge_list(EdgeListDoc(n, edges))


def test_criterion_11_one_negative_cycle_verdict():
    solvers = [spfa_fifo, spfa_slf] + [
        partial(solve, k=k) for solve in (jfr_pq, jfr_strict) for k in (1, 2)]
    rng = random.Random(7)
    graphs = splits = rejections = flagged = off_cycle = not_negative = 0
    for _ in range(3000):
        g = rounding_fuzz_graph(rng)
        oracle = bellman_ford(g, 0)
        results = [solve(g, 0) for solve in solvers]
        splits += sum(r.neg_cycle != oracle.neg_cycle for r in results)
        rejections += not certify(g, 0, oracle).ok
        for r in (oracle, *results):
            if r.neg_cycle:  # the witness lies on the cycle it leads to
                cycle = detect_negative_cycle(r, g)
                flagged += 1
                off_cycle += r.cycle_witness not in cycle
                not_negative += cycle_weight(g, cycle) >= 0
        graphs += 1
    ok = splits == 0 and rejections == 0 and off_cycle == not_negative == 0
    report(f"ACCEPTANCE 11 one negative-cycle verdict: "
           f"{'PASS' if ok else 'FAIL'} — {graphs} fuzzed multigraphs x "
           f"{len(solvers)} solvers, {splits} verdicts that split from "
           f"Bellman-Ford, {rejections} certify rejections of its own "
           f"result; of {flagged} flagged results, {off_cycle} witnesses off "
           f"their cycle and {not_negative} cycles not negative")
    assert ok


AUDIT_LABELS = (math.inf, -math.inf, 0.0, SCALE, -SCALE, 2 * SCALE,
                -2 * SCALE, 3 * SCALE)


def audit_fuzz_candidate(rng, mutate):
    """An adversarial (graph, unflagged result) pair for the audit.

    The graph is a multigraph on n = 2-7 vertices with up to 3n edges of
    whole-unit weight in [-2, 2], zero-weight cycles and negative cycles
    included.  With ``mutate`` the result is Bellman-Ford's labels and
    parents with up to two entries redrawn; otherwise every label and
    parent is drawn, with dist[0] = 0 and no parent of 0 in 90% of draws.
    """
    n = rng.randint(2, 7)
    edges = []
    for _ in range(rng.randint(0, 3 * n)):
        u, v, w = rng.randrange(n), rng.randrange(n), rng.randint(-2, 2)
        if u != v or w >= 0:
            edges.append((u, v, float(w)))
    g = from_edge_list(EdgeListDoc(n, edges))
    parents = [None, *range(n)]
    if mutate:
        r = bellman_ford(g, 0)
        dist, parent = list(r.dist), list(r.parent)
        for _ in range(rng.randint(0, 2)):
            v = rng.randrange(n)
            if rng.random() < 0.5:
                dist[v] = rng.choice(AUDIT_LABELS)
            else:
                parent[v] = rng.choice(parents)
    else:
        dist = [rng.choice(AUDIT_LABELS) for _ in range(n)]
        parent = [rng.choice(parents) for _ in range(n)]
        if rng.random() < 0.9:
            dist[0], parent[0] = 0.0, None
    return g, SsspResult(dist, parent, False, RunStats(mode="external"))


def test_criterion_12_audit_soundness_fuzz():
    rng = random.Random(12)
    candidates = accepted = unsound = 0
    for i in range(20000):
        g, claim = audit_fuzz_candidate(rng, mutate=i % 2 == 0)
        candidates += 1
        if check_optimality_conditions(g, 0, claim).ok:
            accepted += 1
            unsound += not oracle_compare(g, 0, claim).ok
    ok = unsound == 0
    report(f"ACCEPTANCE 12 audit soundness: {'PASS' if ok else 'FAIL'} — "
           f"{candidates} adversarial candidates (half mutated Bellman-Ford "
           f"results, half drawn labels and parents), {accepted} accepted "
           f"by the audit, {unsound} of those rejected by the oracle")
    assert ok


def plain_bellman_ford(g, s):
    """Bellman-Ford with its early exit but without scan-once: every pass
    scans every finite vertex.  Returns its outputs and inspections."""
    dist, parent = [math.inf] * g.n, [None] * g.n
    dist[s] = 0.0
    improvements = [0] * g.n
    inspections = passes = 0
    witness = None
    for _ in range(g.n):
        last = None
        for u in range(g.n):
            du = dist[u]
            if du == math.inf:
                continue
            inspections += g.offsets[u + 1] - g.offsets[u]
            for e in range(g.offsets[u], g.offsets[u + 1]):
                v = g.targets[e]
                if du + g.weights[e] < dist[v]:
                    dist[v], parent[v] = du + g.weights[e], u
                    improvements[v] += 1
                    last = v
        passes += 1
        if last is None:
            break
        witness = on_parent_cycle(parent, last)
        if witness is not None:
            break
    else:
        witness = last
    outputs = (dist, parent, witness is not None, witness, improvements,
               passes)
    return outputs, inspections


def scan_once_families():
    """The six families on which criteria 13 and 14 compare a solver with
    its plain loop."""
    seeds = range(42, 47)
    return {
        "sparse-random 2000/10000": [generate("sparse-random", s, n=2000,
                                              m=10000) for s in seeds],
        "windmill 20x15": [generate("windmill", s, blades=20, blade_size=15)
                           for s in seeds],
        "neg-dense 500/30000": [generate("neg-dense", s, n=500, m=30000,
                                         neg_fraction=0.3) for s in seeds],
        "neg-dense 1000/5000": [generate("neg-dense", s, n=1000, m=5000,
                                         neg_fraction=0.3) for s in seeds],
        "pq-killer 16/2": [generate("pq-killer", 0, levels=16, detour=2)],
        "neg-cycle 64 x 40/800": [plant_negative_cycle(generate(
            "neg-dense", s, n=40, m=800, neg_fraction=0.3), 8, s, -0.5)
            for s in range(1, 65)],
    }


def test_criterion_13_bellman_ford_scan_once():
    rows, differ, more = [], 0, 0
    for family, graphs in scan_once_families().items():
        plain = scan_once = 0
        for g in graphs:
            outputs, inspections = plain_bellman_ford(g, 0)
            r = bellman_ford(g, 0)
            differ += outputs != (r.dist, r.parent, r.neg_cycle,
                                  r.cycle_witness, r.stats.improvements,
                                  r.stats.outer_iterations)
            more += r.stats.edge_inspections > inspections
            plain += inspections
            scan_once += r.stats.edge_inspections
        rows.append(f"{family} {plain} -> {scan_once}")
    ok = differ == 0 and more == 0
    report(f"ACCEPTANCE 13 Bellman-Ford scan-once: {'PASS' if ok else 'FAIL'}"
           f" — plain -> scan-once inspections per family: "
           f"{'; '.join(rows)}; {differ} graphs whose outputs differ, "
           f"{more} with more inspections")
    assert ok


def plain_jfr_strict(g, s, k):
    """``jfr_strict`` with every promoted vertex, sinks included, kept in
    the next frontier and scanned there.  Returns its result, the frontier
    entries it scanned and how many of those were sinks."""
    dist, parent, stats = start_run(g, s, "jfr-strict", k)
    ws = LmhWorkspace(g, dist, parent, stats)
    frontier = [s]
    stats.activations[s] = 1
    frontier_inspections = outer = entries = sinks = 0
    next_walk = g.n
    witness = None
    while frontier:
        outer += 1
        entries += len(frontier)
        improved = []
        for u in frontier:
            du = dist[u]
            lo, hi = g.offsets[u], g.offsets[u + 1]
            sinks += lo == hi
            frontier_inspections += hi - lo
            for e in range(lo, hi):
                v = g.targets[e]
                if du + g.weights[e] < dist[v]:
                    dist[v], parent[v] = du + g.weights[e], u
                    stats.improvements[v] += 1
                    improved.append(v)
        if k > 1 and improved:
            improved += lmh_propagate(ws, improved, k - 1)
        inspections = frontier_inspections + stats.edge_inspections
        if improved and inspections >= next_walk:
            witness = on_parent_cycle(parent, improved[0])
            if witness is not None:
                break
            next_walk = 2 * inspections
        frontier = []
        for v in improved:
            if dist[v] != ws.scanned[v]:
                ws.scanned[v] = dist[v]
                stats.activations[v] += 1
                frontier.append(v)
    stats.edge_inspections += frontier_inspections
    stats.outer_iterations = outer
    return (SsspResult(dist, parent, witness is not None, stats, witness),
            entries, sinks)


def outputs_and_counters(r):
    counters = dataclasses.asdict(r.stats)
    del counters["wall_time_ns"]
    return r.dist, r.parent, r.neg_cycle, r.cycle_witness, counters


def test_criterion_14_jfr_strict_skips_sinks():
    families = scan_once_families()
    # the benchmark's slf-killer ladder at seed 1
    families["slf-killer 200/600/2000"] = [
        generate("slf-killer", s, n=n) for s, n in ((1, 200), (2, 600),
                                                    (3, 2000))]
    rows, differ = [], 0
    for family, graphs in families.items():
        entries = sinks = 0
        for g in graphs:
            same = True
            for k in (1, 2, 3):
                plain, scanned, scanned_sinks = plain_jfr_strict(g, 0, k)
                same &= (outputs_and_counters(plain)
                         == outputs_and_counters(jfr_strict(g, 0, k)))
                if k == 2:
                    entries += scanned
                    sinks += scanned_sinks
            differ += not same
        rows.append(f"{family} {entries} ({sinks} sinks)")
    ok = differ == 0
    report(f"ACCEPTANCE 14 jfr_strict skips sinks: {'PASS' if ok else 'FAIL'}"
           f" — frontier entries the plain loop scanned at k = 2 per family: "
           f"{'; '.join(rows)}; {differ} graphs whose outputs or counters "
           f"differ at k = 1, 2 or 3")
    assert ok
