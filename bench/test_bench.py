"""Tests for the benchmark's own code: the slope fit, self time from nested
spans, the correctness gate's failure counting, the reference yardstick,
and the metric names each mode prints against BENCHMARK.json.

    python3 -m pytest bench/test_bench.py
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from spans import Tracer, loglog_slope, self_times  # noqa: E402

TINY = {
    "tiny": harness.Workload("tiny", "slf-killer", (20, 60)),
    "tiny-cycle": harness.Workload("tiny-cycle", "neg-dense", (40,),
                                   m_per_n=10, plant=True),
}
CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_slope_is_exact_on_a_power_law():
    xs = [10, 300, 7000, 20000]
    ys = [3.5 * x ** 1.62 for x in xs]
    assert math.isclose(loglog_slope(xs, ys), 1.62, rel_tol=1e-12)
    assert math.isclose(loglog_slope(xs, [42.0] * 4), 0.0, abs_tol=1e-12)


def test_slope_needs_two_positive_points():
    assert loglog_slope([100], [5.0]) == 0.0
    assert loglog_slope([100, 200], [0, 7.0]) == 0.0


def _span(sid, name, start, end, parent):
    return {"id": sid, "name": name, "start_ns": start, "end_ns": end,
            "parent": parent}


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        _span(0, "bench.instance", 0, 100, None),
        _span(1, "cli.run", 10, 40, 0),
        _span(2, "graph.read_text", 20, 30, 1),
        _span(3, "verify.audit", 50, 60, 0),
        # overlaps its sibling: the overlap is subtracted from the parent once
        _span(4, "verify.audit", 55, 70, 0),
    ]
    assert self_times(spans) == {"bench": 100 - 30 - 20, "cli": 30 - 10,
                                 "graph": 10, "verify": 10 + 15}


def test_tracer_links_calls_to_their_instance_span():
    spans = []
    tracer = Tracer(spans, pass_index=0)
    for i in range(2):
        with tracer.instance_scope(i, n=5):
            tracer.call("metrics.noop", sum, [1, 2])
            tracer.call("metrics.noop", sum, [3])
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["bench.instance"] * 2
    for s in spans:
        assert s["end_ns"] >= s["start_ns"]
        if s["parent"] is not None:
            assert s["instance"] == s["parent"]
    assert tracer.ns["metrics.noop", 1] > 0
    total = sum(s["end_ns"] - s["start_ns"] for s in roots)
    assert sum(self_times(spans).values()) == total


def _run(monkeypatch, tmp_path, capsys, *argv):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    for name, wl in TINY.items():
        monkeypatch.setitem(harness.WORKLOADS, name, wl)
    rc = run.main(list(argv))
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return rc, last


def test_end_to_end_run_passes_and_prints_the_contract_metrics(
        monkeypatch, tmp_path, capsys):
    for workload in TINY:
        rc, last = _run(monkeypatch, tmp_path, capsys, "--workload", workload,
                        "--seed", "3", "--seconds", "0", "--trace", "0")
        assert rc == 0 and last["correct"] and last["failed"] == 0
        assert sorted(last["metrics"]) == sorted(
            m["name"] for m in CONTRACT["end_to_end"])
        assert all(m["value"] > 0 for m in last["metrics"].values())
        info = json.loads((tmp_path / f"result-{workload}-seed3-trace0.json")
                          .read_text())["info"]
        ref_s = info["reference_ms"]["value"] / 1e3
        assert math.isclose(last["metrics"]["jfr_pq.solves_per_ref"]["value"],
                            info["jfr_pq.solves_per_s"]["value"] * ref_s)


def test_traced_run_prints_every_per_layer_metric_and_writes_spans(
        monkeypatch, tmp_path, capsys):
    for workload in TINY:
        rc, last = _run(monkeypatch, tmp_path, capsys, "--workload", workload,
                        "--seed", "3", "--seconds", "0", "--trace", "1")
        assert rc == 0 and last["failed"] == 0
        assert sorted(last["metrics"]) == sorted(
            m["name"] for m in CONTRACT["per_layer"])
        spans = json.loads(
            (tmp_path / f"spans-{workload}-seed3.json").read_text())["spans"]
        assert {s["name"] for s in spans} >= {"bench.instance", "jfr.pq",
                                              "cli.run", "cli.verify"}
    assert last["metrics"]["verify.audit_unsound"]["value"] in (0, 1)


def test_a_wrong_result_is_counted_and_fails_the_command(
        monkeypatch, tmp_path, capsys):
    real = harness.SOLVERS["baselines.slf"]

    def wrong_slf(g, source):
        result = real(g, source)
        result.dist = list(result.dist)
        result.dist[-1] -= 1.0  # the last fan vertex is reachable
        return result

    monkeypatch.setitem(harness.SOLVERS, "baselines.slf", wrong_slf)
    rc, last = _run(monkeypatch, tmp_path, capsys, "--workload", "tiny",
                    "--seed", "3", "--seconds", "0", "--trace", "0")
    assert rc == 1
    assert not last["correct"]
    # per instance: dist differs from bellman_ford, and the audit rejects it
    assert last["failed"] == 2 * len(TINY["tiny"].sizes)
    assert last["attempted"] > last["failed"]


def test_yardstick_solves_its_graph_and_samples_sparsely():
    g = reference.make_reference_graph(200, 1000, seed=1)
    assert len(g[0]) == 201 and g[0][-1] == len(g[1]) == len(g[2]) == 1000
    # the two passes agree on vertices beyond the source (distance 0)
    assert reference.run_reference(g) > 0
    yardstick = reference.Yardstick(10, 10)
    assert (yardstick.n, yardstick.m) == (reference.REF_MIN_N,
                                          reference.REF_MIN_M)
    yardstick.sample_if_due()
    yardstick.sample_if_due()  # not due before REF_DUTY x its duration
    assert len(yardstick.ns) == 1 and yardstick.median_ns() > 0


def test_gate_counts_attempts_and_misses():
    gate = harness.Gate()
    gate.check(True, "fine")
    gate.check(False, "wrong")
    assert (gate.attempted, gate.failed) == (2, 1)
