"""Workloads, instance set-up and the measured pass with its correctness gate.

Everything here calls ``jfrbench`` through its public functions, from the
outside, one call at a time; the recorder passed in (``spans.Timer`` or
``spans.Tracer``) times each call.  Instance ``i`` of a workload has
``n = sizes[i]`` vertices and is generated with seed ``seed + i``; the
instances of one size form one rung of the workload's size ladder.
"""

import contextlib
import io
import json
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from jfrbench import (EdgeListDoc, Graph, RunStats, SsspResult, bellman_ford,
                      bound_check, check_optimality_conditions, cli, compare,
                      cycle_weight, detect_negative_cycle, from_edge_list,
                      generate, jfr_pq, jfr_strict, oracle_compare,
                      plant_negative_cycle, read_text, spfa_fifo, spfa_slf,
                      write_text)

K = 2  # jfr_strict depth; also the default JfrConfig.k that jfr_pq runs with
NEG_FRACTION = 0.3
CYCLE_LEN = 8
CYCLE_WEIGHT = -0.5

# call name -> solver; the call name's first part is the layer (module)
SOLVERS = {
    "baselines.bf": bellman_ford,
    "baselines.spfa": spfa_fifo,
    "baselines.slf": spfa_slf,
    "jfr.strict": partial(jfr_strict, k=K),
    "jfr.pq": jfr_pq,
}


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    sizes: tuple  # n of each instance
    m_per_n: int = 0  # neg-dense edge count m = m_per_n * n
    plant: bool = False  # every instance carries a planted negative cycle

    def params(self) -> dict:
        out = {"family": self.family,
               "instances_per_n": dict(Counter(self.sizes))}
        if self.m_per_n:
            out.update(m_per_n=self.m_per_n, neg_fraction=NEG_FRACTION)
        if self.plant:
            out.update(cycle_len=CYCLE_LEN, cycle_weight=CYCLE_WEIGHT)
        return out


# Why each workload exists is in README.md: mixed-sparse is the paper's
# central feasible case (jfr_pq heavy), slf-killer its adversarial claim
# (SLF quadratic, audit quadratic), neg-cycle the detection exit path.
WORKLOADS = {
    "mixed-sparse": Workload("mixed-sparse", "neg-dense",
                             (1000,) * 6 + (3000,) * 2 + (10000,), m_per_n=5),
    "slf-killer": Workload("slf-killer", "slf-killer", (200, 600, 2000)),
    "neg-cycle": Workload("neg-cycle", "neg-dense", (40,) * 64, m_per_n=20,
                          plant=True),
}

# ROADMAP item 4's counterexample: a parent 2-cycle 1<->2 that the audit
# accepts although the true d(1) is 5, not -100.
UNSOUND_EDGES = [(0, 1, 5.0), (1, 2, 0.0), (2, 1, 0.0)]
UNSOUND_DIST = [0.0, -100.0, -100.0]
UNSOUND_PARENT = [None, 2, 1]


@dataclass
class Instance:
    index: int
    g: Graph
    text_bytes: int
    path: Path
    res_path: Path


class Gate:
    """Counts checked operations and the ones whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL: {what}", file=sys.stderr)
        return ok

    def crashed(self, what: str) -> None:
        traceback.print_exc(file=sys.stderr)
        self.check(False, f"{what} raised")


def _serialize(g: Graph) -> bytes:
    return write_text(g.to_edge_list())


def _cli(*argv) -> tuple:
    """Run ``jfrbench`` in process; return its exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def _last_json(text: str) -> dict:
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        return {}


def set_up(wl: Workload, seed: int, i: int, rec, gate: Gate,
           workdir: Path) -> Instance:
    """Generate instance ``i`` and take it through the text format."""
    n, s = wl.sizes[i], seed + i
    g = rec.call("generators.generate", generate, wl.family, s, n=n,
                 m=wl.m_per_n * n or None, neg_fraction=NEG_FRACTION)
    if wl.plant:
        g = rec.call("generators.plant", plant_negative_cycle, g, CYCLE_LEN,
                     s, CYCLE_WEIGHT)
    data = rec.call("graph.write_text", _serialize, g)
    doc = rec.call("graph.read_text", read_text, data)
    parsed = rec.call("graph.csr_build", from_edge_list, doc)
    gate.check(parsed == g, f"{wl.name}[{i}]: text round trip changed it")
    path = workdir / f"g{i}.txt"
    path.write_bytes(data)
    return Instance(i, parsed, len(data), path, workdir / f"r{i}.json")


def measure(wl: Workload, inst: Instance, rec, gate: Gate) -> dict:
    """Solve, certify and run the CLI on one instance, gating every output.

    Returns the instance's operation counts.
    """
    g, tag = inst.g, f"{wl.name}[{inst.index}]"
    results = {name: rec.call(name, fn, g, 0) for name, fn in SOLVERS.items()}
    ref = results["baselines.bf"]
    summary = {"m": g.m, "cycle_len": 0, "verify_flagged_rejects": 0,
               "bound_flagged_violations": 0}
    for name, r in results.items():
        gate.check(r.neg_cycle == wl.plant,
                   f"{tag} {name}: neg_cycle={r.neg_cycle}")
        if not r.neg_cycle:
            gate.check(r.dist == ref.dist, f"{tag} {name}: dist differs from "
                       "bellman_ford")
        s = r.stats
        summary[name] = {
            "edge_inspections": s.edge_inspections,
            "successful_relaxations": s.successful_relaxations,
            "lmh_inspections": s.lmh_inspections,
            "queue_pushes": s.queue_pushes,
            "stale_pops": s.stale_pops,
            "outer_iterations": s.outer_iterations,
            "lmh_calls": len(s.lmh_calls),
        }

    # certification without re-solving
    for name, r in results.items():
        if r.neg_cycle:
            cycle = rec.call("paths.detect_negative_cycle",
                             detect_negative_cycle, r, g)
            weight = rec.call("paths.cycle_weight", cycle_weight, g, cycle)
            gate.check(weight < 0, f"{tag} {name}: cycle weight {weight}")
            summary["cycle_len"] += len(cycle)
        else:
            report = rec.call("verify.audit", check_optimality_conditions,
                              g, 0, r)
            gate.check(report.ok, f"{tag} {name}: audit rejected {report}")

    cap = 0.0
    for name in ("jfr.strict", "jfr.pq"):
        s = results[name].stats
        gate.check(all(insp <= s.k * wds for _, insp, wds in s.lmh_calls),
                   f"{tag} {name}: lmh_propagate exceeded k * window degrees")
        cap = max([cap] + [insp / (s.k * wds)
                           for _, insp, wds in s.lmh_calls if wds])
    summary["lmh_cap_max"] = cap

    slf, pq = results["baselines.slf"], results["jfr.pq"]
    summary["rho_ops"] = 0.0
    # compare raises ZeroOps on a run without inspections, which a source
    # with no out-edges gives (about 1 in 150 neg-dense graphs at m = 5n)
    if slf.stats.edge_inspections and pq.stats.edge_inspections:
        summary["rho_ops"] = rec.call("metrics.compare", compare, slf.stats,
                                      pq.stats).rho_ops
    strict = results["jfr.strict"]
    bound = rec.call("metrics.bound_check", bound_check, strict.stats, g, K)
    if strict.neg_cycle:
        # The amortized bound is about runs that converge, as the package's
        # own tests check it; a run cut off by the negative-cycle guard can
        # exceed it.  Counted in metrics.bound_flagged_violations.
        summary["bound_flagged_violations"] += not bound.holds
    else:
        gate.check(bound.holds, f"{tag} jfr.strict: bound_check {bound}")

    report = rec.call("verify.oracle_compare", oracle_compare, g, 0, pq)
    gate.check(report.neg_cycle_agree
               and (pq.neg_cycle or report.distances_match),
               f"{tag}: oracle_compare {report}")

    rc, out = rec.call("cli.run", _cli, "run", str(inst.path), "--algo",
                       "jfr-pq", "--check", "--out", str(inst.res_path))
    gate.check(rc == 0 and _last_json(out).get("check") == "PASS",
               f"{tag}: cli run exit {rc}: {out.strip()}")
    rc, out = rec.call("cli.verify", _cli, "verify", str(inst.path),
                       str(inst.res_path))
    row = _last_json(out)
    if wl.plant:
        # Known defect: verify compares the labels of a flagged run, which
        # are not defined, so it exits 1 on a correct negative-cycle
        # result.  Counted in cli.verify_flagged_rejects; the gate here is
        # the verdict, as `run --check` judges it.
        gate.check(row.get("neg_cycle_agree") is True,
                   f"{tag}: cli verify exit {rc}: {out.strip()}")
        summary["verify_flagged_rejects"] += rc != 0
    else:
        gate.check(rc == 0 and bool(row) and all(
            row.get(key) is True for key in ("distances_match", "triangle_ok",
                                             "parent_ok", "neg_cycle_agree")),
            f"{tag}: cli verify exit {rc}: {out.strip()}")
    return summary


def _each_instance(wl, seed, rec, gate, step) -> list:
    """Run ``step(i)`` for every rung under its instance span; a call that
    raises counts as one failed operation."""
    out = []
    for i, n in enumerate(wl.sizes):
        with rec.instance_scope(i, n=n, seed=seed + i):
            try:
                out.append(step(i))
            except Exception:
                gate.crashed(f"{wl.name}[{i}]")
    return out


def set_up_pass(wl, seed, rec, gate, workdir) -> list:
    return _each_instance(wl, seed, rec, gate,
                          lambda i: set_up(wl, seed, i, rec, gate, workdir))


def measure_pass(wl, seed, instances, rec, gate) -> list:
    return _each_instance(wl, seed, rec, gate,
                          lambda i: measure(wl, instances[i], rec, gate))


def full_pass(wl, seed, rec, gate, workdir) -> list:
    """Set-up and measurement of each instance under one instance span."""
    return _each_instance(wl, seed, rec, gate, lambda i: measure(
        wl, set_up(wl, seed, i, rec, gate, workdir), rec, gate))


def audit_unsound() -> int:
    """How many known-bad certificates check_optimality_conditions accepts."""
    g = from_edge_list(EdgeListDoc(3, UNSOUND_EDGES))
    claim = SsspResult(list(UNSOUND_DIST), list(UNSOUND_PARENT), False,
                       RunStats(mode="external"))
    return int(check_optimality_conditions(g, 0, claim).ok)
