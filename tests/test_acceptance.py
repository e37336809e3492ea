"""End-to-end acceptance gates.

Each test prints one PASS/FAIL line and then asserts; the lines surface
in the report through the ``-rP`` flag configured in pyproject.toml.  The
big criterion-1 sweep is shared by the invariant audits in criteria 4
and 6.
"""

import csv
import statistics
import time
from dataclasses import dataclass

import pytest

from jfrbench.baselines import bellman_ford, spfa_fifo, spfa_slf
from jfrbench.cli import DESK_SUITE, main, run_algorithm
from jfrbench.generators import (GenSpec, gen_slf_killer, gen_sparse_random,
                                 generate, plant_negative_cycle)
from jfrbench.jfr import jfr_pq, jfr_strict
from jfrbench.metrics import bound_check, compare
from jfrbench.paths import cycle_weight, detect_negative_cycle

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
            for _depth, inspections, window_deg in s.lmh_calls:
                tally.lmh_calls_checked += 1
                if inspections > k * window_deg:
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
        base = gen_sparse_random(GenSpec("sparse-random", n=30 + i % 40,
                                         m=3 * (30 + i % 40),
                                         seed=20_000 + i))
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
            pairs.append(compare(base.stats, jfr.stats))
    return pairs


def test_criterion_5_metric_identities(desk_comparisons):
    worst = max(abs(c.rho_ops * c.nwr - 1.0) for c in desk_comparisons)
    ok = worst <= 1e-12
    report(f"ACCEPTANCE 5 metric identities: {'PASS' if ok else 'FAIL'} — "
           f"{len(desk_comparisons)} comparisons, max |rho*nwr-1| "
           f"{worst:.2e}")
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
    fractions = ("0.05", "0.10", "0.15")
    signs = {f: [0, 0] for f in fractions}  # [negative, non-negative]
    failures = 0
    for i in range(30):
        out = tmp_path / f"sweep{i}.csv"
        code = main(["sweep-edges", "--family", "neg-dense", "--n", "500",
                     "--m", "30000", "--neg-fraction", "0.3",
                     "--seed", str(40_000 + i), "--fractions",
                     ",".join(fractions), "--algo", "jfr-pq",
                     "-o", str(out)])
        if code != 0:
            failures += 1
            continue
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        if len(rows) != 4 or any(r["check"] != "PASS" for r in rows):
            failures += 1
            continue
        for r in rows[1:]:
            sign = 0 if int(r["delta_ops"]) < 0 else 1
            signs[f"{float(r['fraction']):.2f}"][sign] += 1
    ok = failures == 0
    dist = ", ".join(f"f={f}: {neg}neg/{pos}pos"
                     for f, (neg, pos) in signs.items())
    report(f"ACCEPTANCE 7 edge-increment sweep: {'PASS' if ok else 'FAIL'} "
           f"— 30 seeds, {failures} failed runs; delta-ops signs: {dist}")
    assert failures == 0


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
