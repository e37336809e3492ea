import ast
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import jfrbench
from conftest import rule_before_certify
from jfrbench import cli, errors, graph
from jfrbench.baselines import bellman_ford
from jfrbench.cli import ALGORITHMS, SPEC_KEYS, main
from jfrbench.errors import SpecInvalid
from jfrbench.generators import (FAMILIES, family_params, generate,
                                 plant_negative_cycle)
from jfrbench.graph import SCALE, from_edge_list, read_text, write_file
from jfrbench.results import RunStats, SsspResult
from jfrbench.verify import check_optimality_conditions


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def strict_json(text):
    """Parse CLI JSON output, refusing NaN and the infinities."""
    return json.loads(text, parse_constant=_refuse_constant)


def gen_graph(capsys, tmp_path, *argv):
    path = tmp_path / "g.txt"
    code, _, err = run_cli(capsys, "gen", "-o", str(path), *argv)
    assert code == 0, err
    return str(path)


def test_gen_writes_header_and_info_line(capsys, tmp_path):
    path = tmp_path / "g.txt"
    code, out, _ = run_cli(capsys, "gen", "--family", "slf-killer",
                           "--n", "50", "--seed", "1", "-o", str(path))
    assert code == 0
    assert "n=50" in out and "seed=1" in out
    header = path.read_text().splitlines()[0].split()
    assert len(header) == 2 and header[0] == "50"


def test_gen_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "windmill",
                           "--blades", "2", "--blade-size", "3")
    assert code == 0
    assert out.splitlines()[0] == "5 12"


def test_gen_missing_parameter(capsys):
    code, _, err = run_cli(capsys, "gen", "--family", "sparse-random",
                           "--m", "10")
    assert code == 1
    assert "error:" in err and "n" in err


def test_run_check_json(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "--family", "neg-dense", "--n", "60",
                  "--m", "300", "--neg-fraction", "0.4", "--seed", "3")
    code, out, _ = run_cli(capsys, "run", g, "--algo", "jfr-pq",
                           "--check", "--repetitions", "3")
    assert code == 0
    row = strict_json(out)
    assert row["check"] == "PASS"
    assert row["n"] == 60 and row["m"] == 300
    assert row["algorithm"] == "jfr-pq"
    assert row["edge_inspections"] > 0
    assert isinstance(row["time_ns"], int)
    # the row names what reproduces it: the depth (none for a baseline)
    # and the source
    assert (row["source"], row["k"]) == (0, 2) and "family" not in row
    for argv, source, k in ((["--algo", "jfr-strict", "--k", "3"], 0, 3),
                            (["--algo", "bf", "--source", "5"], 5, None)):
        code, out, _ = run_cli(capsys, "run", g, *argv)
        assert code == 0
        assert strict_json(out)["source"] == source
        assert strict_json(out)["k"] == k


def test_run_jfr_pq_honors_k(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "--family", "neg-dense", "--n", "200",
                  "--m", "1000", "--seed", "3")
    ops = {}
    for k in ("1", "4", "2", None):
        code, out, _ = run_cli(capsys, "run", g, "--algo", "jfr-pq",
                               "--check", *(["--k", k] if k else []))
        assert code == 0
        row = strict_json(out)
        assert row["check"] == "PASS"
        ops[k] = row["edge_inspections"]
    assert ops["1"] != ops["4"] and ops[None] == ops["2"]  # default k = 2
    code, _, err = run_cli(capsys, "run", g, "--algo", "jfr-pq", "--k", "0")
    assert code == 1 and "error: k must be >= 1" in err


def test_run_unknown_algorithm(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "--family", "sparse-random",
                  "--n", "10", "--m", "20")
    for argv in (["run", g, "--algo", "bogus"],
                 ["suite", write_suite(tmp_path, algorithms=["bogus"])],
                 *(MALFORMED[f"suite-algorithm-{kind}"](tmp_path, g)
                   for kind in ("list", "object"))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "", argv[0]
        assert err.startswith("error: unknown algorithm") \
            and err.count("\n") == 1, argv[0]


def test_run_dijkstra_rejects_negative(capsys, tmp_path):
    # jfr-pq at k = 1 is Dijkstra on non-negative weights, so the CLI
    # offers no separate one: "dijkstra" is an unknown algorithm and a
    # negative-weight graph never reaches a Dijkstra
    g = gen_graph(capsys, tmp_path, "--family", "neg-dense", "--n", "30",
                  "--m", "200", "--neg-fraction", "0.5")
    code, out, err = run_cli(capsys, "run", g, "--algo", "dijkstra")
    assert code == 1 and out == ""
    assert err.startswith("error: unknown algorithm") \
        and err.count("\n") == 1


def write_suite(tmp_path, **overrides):
    spec = {
        "seed": 11,
        "repetitions": 2,
        "algorithms": ["bf", "slf", "jfr-pq"],
        "entries": [
            {"family": "neg-dense", "n": 40, "m": 200, "neg_fraction": 0.4},
            {"family": "slf-killer", "n": 60},
        ],
    }
    spec.update(overrides)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_suite_rows_and_checks(capsys, tmp_path):
    spec = write_suite(tmp_path)
    out_csv = tmp_path / "rows.csv"
    code, _, err = run_cli(capsys, "suite", spec, "-o", str(out_csv))
    assert code == 0, err
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "#schema=1"
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 6  # 2 entries x 3 algorithms
    assert all(r["check"] == "PASS" for r in rows)
    assert {r["algorithm"] for r in rows} == {"bf", "slf", "jfr-pq"}
    assert all(r["instances"] == "2" for r in rows)


def test_suite_writes_one_line_ending(capsys, tmp_path):
    # the schema tag and the csv rows both end in LF, on stdout and in -o
    spec = write_suite(tmp_path, algorithms=["bf"],
                       entries=[{"family": "slf-killer", "n": 20}])
    code, out, err = run_cli(capsys, "suite", spec)
    assert code == 0, err
    assert out.startswith("#schema=1\n") and out.count("\n") == 3
    out_csv = tmp_path / "rows.csv"
    assert run_cli(capsys, "suite", spec, "-o", str(out_csv))[0] == 0
    assert "\r" not in out and b"\r" not in out_csv.read_bytes()


def test_suite_skips_dijkstra_on_negative_family(capsys, tmp_path):
    # no row is skipped any more: a spec naming "dijkstra" is refused
    # whole, with a one-line error, before any instance runs
    spec = write_suite(tmp_path, algorithms=["dijkstra", "bf"],
                       entries=[{"family": "neg-dense", "n": 30, "m": 150,
                                 "neg_fraction": 0.5}])
    code, out, err = run_cli(capsys, "suite", spec)
    assert code == 1 and out == ""
    assert err.startswith("error: unknown algorithm") \
        and err.count("\n") == 1


def test_suite_operation_counts_are_reproducible(capsys, tmp_path):
    spec = write_suite(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli(capsys, "suite", spec, "-o", str(a))[0] == 0
    assert run_cli(capsys, "suite", spec, "-o", str(b))[0] == 0

    def ops_view(path):
        lines = path.read_text().splitlines()
        rows = list(csv.reader(lines[1:]))
        return [[c for i, c in enumerate(r) if i != 6] for r in rows]

    assert ops_view(a) == ops_view(b)


def test_suite_validation(capsys, tmp_path):
    spec = write_suite(tmp_path, algorithms=[])
    assert run_cli(capsys, "suite", spec)[0] == 1
    spec = write_suite(tmp_path, repetitions=0)
    assert run_cli(capsys, "suite", spec)[0] == 1


def test_suite_ids_name_every_given_parameter(capsys, tmp_path):
    spec = write_suite(tmp_path, algorithms=["bf"], entries=[
        {"family": "neg-dense", "n": 30, "m": 120, "neg_fraction": 0},
        {"family": "neg-dense", "n": 30, "m": 120, "neg_fraction": 0.2},
        {"family": "neg-dense", "n": 30, "m": 120, "neg_fraction": 0.6},
        {"family": "windmill", "blades": 3, "blade_size": 4},
        {"family": "windmill", "blade_size": 4, "blades": 3,
         "weight_lo": 2.0}])
    code, out, err = run_cli(capsys, "suite", spec)
    assert code == 0, err
    rows = list(csv.DictReader(out.splitlines()[1:]))
    assert [r["id"] for r in rows] == [
        "neg-dense-n30-m120-neg_fraction0.0",
        "neg-dense-n30-m120-neg_fraction0.2",
        "neg-dense-n30-m120-neg_fraction0.6",
        "windmill-blades3-blade_size4",
        "windmill-blades3-blade_size4-weight_lo2.0"]


def test_verify_round_trip(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "--family", "neg-dense", "--n", "40",
                  "--m", "200", "--seed", "9")
    result = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "run", g, "--algo", "slf",
                         "--out", str(result))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", g, str(result))
    assert code == 0
    report = strict_json(out)
    assert report["distances_match"] and report["triangle_ok"]


def test_verify_flags_tampered_result(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "--family", "sparse-random", "--n", "20",
                  "--m", "60", "--seed", "2")
    result = tmp_path / "r.json"
    assert run_cli(capsys, "run", g, "--algo", "bf",
                   "--out", str(result))[0] == 0
    payload = strict_json(result.read_text())
    finite = next(i for i, d in enumerate(payload["dist"])
                  if d != "inf" and i != 0)
    payload["dist"][finite] = float(payload["dist"][finite]) + 0.5
    result.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "verify", g, str(result))
    assert code == 1
    report = strict_json(out)
    assert not report["distances_match"]
    assert report["first_mismatch"][0] == finite


def test_verify_wrong_source(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "--family", "sparse-random", "--n", "30",
                  "--m", "120", "--seed", "4")
    result = tmp_path / "r.json"
    assert run_cli(capsys, "run", g, "--algo", "bf", "--source", "1",
                   "--out", str(result))[0] == 0
    # labels from source 1, claimed for source 0
    payload = strict_json(result.read_text())
    payload["source"] = 0
    result.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "verify", g, str(result))
    assert code == 1
    assert not strict_json(out)["distances_match"]


def test_verify_accepts_flagged_negative_cycle_result(capsys, tmp_path):
    base = generate("neg-dense", 5, n=40, m=800, neg_fraction=0.3)
    g = tmp_path / "g.txt"
    write_file(str(g), plant_negative_cycle(base, 8, 5, -0.5))
    result = tmp_path / "r.json"
    code, out, _ = run_cli(capsys, "run", str(g), "--algo", "jfr-pq",
                           "--check", "--out", str(result))
    assert code == 0 and strict_json(out)["check"] == "PASS"
    assert strict_json(result.read_text())["neg_cycle"] is True
    code, out, _ = run_cli(capsys, "verify", str(g), str(result))
    assert code == 0
    report = strict_json(out)
    assert report["neg_cycle_agree"] and report["distances_match"]
    assert report["first_mismatch"] is None
    # a flag the oracle does not share is still rejected
    payload = strict_json(result.read_text())
    payload["neg_cycle"] = False
    result.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "verify", str(g), str(result))
    assert code == 1 and not strict_json(out)["neg_cycle_agree"]


def test_a_parent_edge_that_is_not_tight_fails_every_command(
        capsys, tmp_path, monkeypatch):
    # exact labels, but vertex 2's parent edge 0 -> 2 is not tight, so
    # certify(...).ok is false and every command's verdict is FAIL
    def broken_parent(g, source):
        result = bellman_ford(g, source)
        result.parent[2] = 0
        return result

    monkeypatch.setitem(ALGORITHMS, "bf", broken_parent)
    graph = _file_arg(tmp_path, "g.txt", "3 3\n0 1 2.0\n1 2 -1.0\n0 2 5.0\n")
    result = str(tmp_path / "r.json")
    code, out, _ = run_cli(capsys, "run", graph, "--algo", "bf", "--check",
                           "--out", result)
    assert (code, strict_json(out)["check"]) == (1, "FAIL")
    code, out, _ = run_cli(capsys, "verify", graph, result)
    report = strict_json(out)
    assert code == 1 and report["distances_match"]
    assert not report["parent_ok"]
    code, out, err = run_cli(capsys, "suite", write_suite(
        tmp_path, algorithms=["bf"],
        entries=[{"family": "slf-killer", "n": 60}]))
    rows = list(csv.DictReader(out.splitlines()[1:]))
    assert (code, err, [r["check"] for r in rows]) == (1, "", ["FAIL"])


def test_verify_prints_infinite_labels_as_strings(capsys, tmp_path):
    graph = tmp_path / "chain.txt"
    graph.write_text("3 2\n0 1 1.0\n1 2 1.0\n")
    result = tmp_path / "r.json"
    result.write_text(json.dumps({"dist": [0.0, "inf", "-inf"],
                                  "parent": [None, None, None]}))
    code, out, _ = run_cli(capsys, "verify", str(graph), str(result))
    assert code == 1
    assert strict_json(out)["first_mismatch"] == [1, 1.0, "inf"]
    graph.write_text("3 1\n0 1 1.0\n")
    result.write_text(json.dumps({"dist": [0.0, 1.0, 5.0],
                                  "parent": [None, 0, None]}))
    code, out, _ = run_cli(capsys, "verify", str(graph), str(result))
    assert code == 1
    assert strict_json(out)["first_mismatch"] == [2, "inf", 5.0]



TRIPLE = "3 2\n0 1 1.0\n1 2 1.0\n"
GOOD_RESULT = {"source": 0, "neg_cycle": False, "dist": [0.0, 1.0, 2.0],
               "parent": [None, 0, 1]}


# entries that are not a vertex of TRIPLE's graph
BAD_PARENTS = {"true": True, "float": 1.0, "minus-one": -1, "n": 3}


def _file_arg(tmp_path, name, text):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    return str(path)


def _suite_with(**overrides):
    return lambda tmp_path, graph: ["suite", write_suite(tmp_path,
                                                         **overrides)]


def _verify_with(body):
    text = body if isinstance(body, str) else json.dumps(body)
    return lambda tmp_path, graph: [
        "verify", graph, _file_arg(tmp_path, "r.json", text)]


def _with_huge_header(cmd, n):
    def make_argv(tmp_path, graph):
        graph = _file_arg(tmp_path, "huge.txt", f"{n} 0\n")
        if cmd == "run":
            return ["run", graph, "--algo", "bf"]
        return _verify_with(GOOD_RESULT)(tmp_path, graph)
    return make_argv


MALFORMED = {
    "run-repetitions-0": lambda tmp_path, graph: [
        "run", graph, "--algo", "bf", "--repetitions", "0"],
    "suite-repetitions-string": _suite_with(repetitions="3"),
    "suite-k-string": _suite_with(k="2"),
    "suite-k-without-jfr": _suite_with(k=-4, algorithms=["bf"]),
    "suite-entry-ids-collide": _suite_with(entries=[
        {"family": "slf-killer", "n": 60}, {"n": 60, "family": "slf-killer"}]),
    "suite-entry-ids-collide-int-and-float": _suite_with(entries=[
        {"family": "neg-dense", "n": 40, "m": 200, "neg_fraction": 0},
        {"family": "neg-dense", "n": 40, "m": 200, "neg_fraction": 0.0}]),
    "suite-entry-float-past-float-range": _suite_with(entries=[
        {"family": "sparse-random", "n": 40, "m": 200,
         "weight_hi": 10 ** 400}]),
    # below 2^1024, but it rounds up to it as a float
    "suite-entry-int-that-no-float-holds": _suite_with(entries=[
        {"family": "sparse-random", "n": 40, "m": 200,
         "weight_hi": 2 ** 1024 - 1}]),
    "run-k-without-jfr": lambda tmp_path, graph: [
        "run", graph, "--algo", "bf", "--k", "-5"],
    "suite-entry-n-string": _suite_with(entries=[
        {"family": "slf-killer", "n": "60"}]),
    "suite-spec-list": lambda tmp_path, graph: [
        "suite", _file_arg(tmp_path, "s.json", "[1, 2]")],
    "suite-spec-not-utf8": lambda tmp_path, graph: [
        "suite", _file_arg(tmp_path, "s.json", b"\xff\xfe{")],
    "suite-int-past-digit-limit": lambda tmp_path, graph: [
        "suite", _file_arg(tmp_path, "s.json",
                           '{"seed": 1%s}' % ("0" * 4400))],
    "suite-spec-nested-too-deep": lambda tmp_path, graph: [
        "suite", _file_arg(tmp_path, "s.json", "[" * 100000)],
    "suite-unknown-key": _suite_with(threads=2),
    # algorithm names that are not strings
    "suite-algorithm-list": _suite_with(algorithms=[["slf"]]),
    "suite-algorithm-object": _suite_with(algorithms=[{"a": 1}]),
    "suite-entry-misspelled-key": _suite_with(entries=[
        {"family": "neg-dense", "n": 40, "m": 200, "neg_fracton": 0.9}]),
    "suite-entry-unknown-key": _suite_with(entries=[
        {"family": "slf-killer", "n": 60, "bogus": 1}]),
    "suite-entry-key-of-another-family": _suite_with(entries=[
        {"family": "slf-killer", "n": 60, "neg_fraction": 0.5}]),
    "suite-entry-family-list": _suite_with(entries=[
        {"family": ["slf-killer"], "n": 60}]),
    "suite-entry-missing-required": _suite_with(entries=[
        {"family": "slf-killer", "n": 60}, {"family": "pq-killer",
                                            "levels": 8}]),
    "gen-flags-the-family-does-not-read": lambda tmp_path, graph: [
        "gen", "--family", "slf-killer", "--n", "10", "--m", "999",
        "--neg-fraction", "0.9", "--blades", "3"],
    "gen-windmill-with-n-and-m": lambda tmp_path, graph: [
        "gen", "--family", "windmill", "--blades", "2", "--blade-size", "3",
        "--n", "500", "--m", "7"],
    "gen-neg-dense-weight-lo-does-not-apply": lambda tmp_path, graph: [
        "gen", "--family", "neg-dense", "--n", "10", "--m", "20",
        "--weight-lo", "5"],
    "gen-neg-dense-weight-hi-below-1": lambda tmp_path, graph: [
        "gen", "--family", "neg-dense", "--n", "10", "--m", "20",
        "--weight-hi", "0.5"],
    "gen-neg-dense-weight-lo-at-no-negative-share": lambda tmp_path, graph: [
        "gen", "--family", "neg-dense", "--n", "10", "--m", "20",
        "--neg-fraction", "0", "--weight-lo", "0.0001"],
    # a vertex or edge count past the index range, refused before any
    # per-vertex list is built: the bucket families would build until
    # memory runs out
    **{f"gen-{family}-{flag[2:]}-past-index-range":
       lambda tmp_path, graph, family=family, flag=flag, rest=rest: [
           "gen", "--family", family, flag, str(10 ** 30), *rest]
       for family, flag, rest in (
           ("slf-killer", "--n", []),
           ("pq-killer", "--detour", ["--levels", "3"]),
           ("sparse-random", "--n", ["--m", "10"]),
           ("sparse-random", "--m", ["--n", "10"]),
           ("neg-dense", "--n", ["--m", "10"]),
           ("windmill", "--blades", ["--blade-size", "3"]))},
    "run-graph-negative-header": lambda tmp_path, graph: [
        "run", _file_arg(tmp_path, "h.txt", "-1 0\n"), "--algo", "bf"],
    "run-graph-only-a-comment": lambda tmp_path, graph: [
        "run", _file_arg(tmp_path, "c.txt", "# no header\n"), "--algo", "bf"],
    # n + 1 offsets past the index range, and past the address space
    **{f"{cmd}-graph-n-{n}": _with_huge_header(cmd, n)
       for cmd in ("run", "verify") for n in (10 ** 19, 10 ** 15)},
    # a weight off the micro-unit grid, and weights past 2^52 micro-units
    **{f"run-graph-weight-{w}": lambda tmp_path, graph, w=w: [
        "run", _file_arg(tmp_path, "w.txt", f"3 2\n0 1 1.0\n1 2 {w}\n"),
        "--algo", "bf"]
       for w in ("-0.100000000001", "1e-7", "1e299", "1e308")},
    "run-graph-missing": lambda tmp_path, graph: [
        "run", str(tmp_path / "missing.txt"), "--algo", "bf"],
    "run-out-unwritable": lambda tmp_path, graph: [
        "run", graph, "--algo", "jfr-pq", "--out",
        str(tmp_path / "missing" / "r.json")],
    "verify-not-json": _verify_with("{not json"),
    "verify-payload-list": _verify_with([0.0, 1.0, 2.0]),
    "verify-no-dist": _verify_with({"parent": [None, 0, 1]}),
    "verify-non-numeric-label": _verify_with(
        {**GOOD_RESULT, "dist": [0.0, "one", 2.0]}),
    "verify-parent-out-of-range": _verify_with(
        {**GOOD_RESULT, "parent": [None, 0, 7]}),
    "verify-parent-wrong-length": _verify_with(
        {**GOOD_RESULT, "parent": [None, 0]}),
    "verify-parent-empty": _verify_with({**GOOD_RESULT, "parent": []}),
    "verify-parent-false": _verify_with({**GOOD_RESULT, "parent": False}),
    **{f"verify-parent-{name}": _verify_with(
        {**GOOD_RESULT, "parent": [None, 0, bad]})
       for name, bad in BAD_PARENTS.items()},
    "verify-source-string": _verify_with({**GOOD_RESULT, "source": "0"}),
    "verify-nan-label": _verify_with(
        {**GOOD_RESULT, "dist": [0.0, "nan", 2.0]}),
    "verify-string-number-label": _verify_with(
        {**GOOD_RESULT, "dist": [0.0, "1.0", 2.0]}),
    "verify-bool-label": _verify_with(
        {**GOOD_RESULT, "dist": [0.0, True, 2.0]}),
    "verify-label-past-float-range": _verify_with(
        '{"dist": [0.0, 1%s, 2.0]}' % ("0" * 400)),
    "verify-neg-cycle-string": _verify_with(
        {**GOOD_RESULT, "neg_cycle": "false"}),
    "verify-nested-too-deep": _verify_with("[" * 100000),
}


@pytest.mark.parametrize("make_argv", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_fails_closed(capsys, tmp_path, make_argv):
    graph = _file_arg(tmp_path, "g.txt", TRIPLE)
    # the well-formed result passes, so each failure below is the input's
    assert run_cli(capsys, *_verify_with(GOOD_RESULT)(tmp_path, graph))[0] \
        == 0
    code, out, err = run_cli(capsys, *make_argv(tmp_path, graph))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out == ""


# suite entries refused after a good one, each for another reason
BAD_ENTRIES = {
    "missing-required": {"family": "pq-killer", "levels": 8},
    "unknown-key": {"family": "slf-killer", "n": 61, "bogus": 1},
    "wrong-type": {"family": "slf-killer", "n": 61.0},
    "id-of-the-first": {"n": 60, "family": "slf-killer"},
    "no-family": {"n": 60},
}


@pytest.mark.parametrize("bad", BAD_ENTRIES.values(), ids=BAD_ENTRIES)
def test_a_bad_suite_entry_stops_the_suite_before_any_instance(
        capsys, tmp_path, monkeypatch, bad):
    calls = []
    monkeypatch.setattr(cli, "generate", lambda *a, **kw: calls.append(a))
    spec = write_suite(tmp_path, entries=[{"family": "slf-killer", "n": 60},
                                          bad])
    code, out, err = run_cli(capsys, "suite", spec)
    assert (code, out, calls) == (1, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_depth_below_1_stops_the_suite_before_any_instance(
        capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "generate", lambda *a, **kw: calls.append(a))
    code, out, err = run_cli(capsys, "suite", write_suite(tmp_path, k=0))
    assert (code, out, calls) == (1, "", [])
    assert err.startswith("error: k must be >= 1") and err.count("\n") == 1


@pytest.mark.parametrize("bad, edge", [("0 3 1.0", "(0, 3)"),  # head = n
                                       ("1 2 1e999", "(1, 2)"),  # inf
                                       ("1 1 -0.5", "(1, 1)")])
def test_run_names_the_one_faulty_edge_of_a_canonical_file(
        capsys, tmp_path, bad, edge):
    text = f"3 4\n0 1 1.0\n0 2 1.0\n{bad}\n2 0 2.0\n".encode("ascii")
    assert graph._scan_canonical(text) is not None  # read_file scans it
    code, out, err = run_cli(capsys, "run", _file_arg(tmp_path, "g.txt", text),
                             "--algo", "bf")
    assert code == 1 and out == ""
    assert err.startswith(f"error: edge {edge} ") and err.count("\n") == 1


def run_module(*argv):
    """``python -m jfrbench`` with ``argv``, importing this package."""
    src = str(Path(jfrbench.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "jfrbench", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_python_dash_m_runs_the_cli(tmp_path):
    path = tmp_path / "g.txt"
    done = run_module("gen", "--family", "slf-killer", "--n", "20", "-o",
                      str(path))
    assert done.returncode == 0 and done.stderr == ""
    assert "n=20" in done.stdout and path.read_text().startswith("20 ")
    done = run_module("run", str(tmp_path / "missing.txt"), "--algo", "bf")
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: ") and \
        done.stderr.count("\n") == 1


def test_run_out_bytes_are_pinned(capsys, tmp_path, monkeypatch):
    # relative paths, since the payload names the graph file; the graph
    # has negative weights and 15 vertices the source cannot reach
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "gen", "--family", "neg-dense", "--n", "40",
                   "--m", "60", "--seed", "2", "-o", "g.txt")[0] == 0
    assert run_cli(capsys, "run", "g.txt", "--algo", "jfr-pq", "--out",
                   "r.json")[0] == 0
    text = (tmp_path / "r.json").read_bytes()
    assert strict_json(text)["dist"].count("inf") == 15
    assert hashlib.md5(text).hexdigest() == "853fadab3ed4b8daa489564c2ac5ed6e"


def untimed(out):
    """``out`` with the run row's wall time blanked."""
    return re.sub(r'"time_ns": \d+', '"time_ns": 0', out)


def test_reused_parser_keeps_no_state_between_calls(capsys, tmp_path):
    graph = _file_arg(tmp_path, "g.txt", TRIPLE)
    result = _file_arg(tmp_path, "r.json", json.dumps(GOOD_RESULT))
    run = ["run", graph, "--algo", "jfr-pq", "--check"]
    calls = [run, ["run", graph, "--algo", "jfr-pq", "--k", "0"],
             ["run", graph, "--algo", "bf", "--bogus"],
             ["gen", "--family", "windmill", "--blades", "2",
              "--blade-size", "3"],
             ["verify", graph, result], run]
    fresh = []
    for argv in calls:  # each call first in a fresh process
        done = run_module(*argv)
        fresh.append((done.returncode, untimed(done.stdout), done.stderr))
    cli._build_parser.cache_clear()
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's exit on the unknown flag
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, untimed(captured.out), captured.err))
    assert in_process == fresh
    assert [code for code, _, _ in fresh] == [0, 1, 2, 0, 0, 0]
    assert cli._build_parser() is cli._build_parser()


# Fuzz graphs: a feasible one with a zero-weight cycle and a vertex the
# source cannot reach; one with a reachable negative cycle (and a second
# one out of reach); one whose only negative cycle is out of reach.
FUZZ_GRAPHS = {
    "feasible": "5 6\n0 1 2.0\n1 2 -1.0\n0 2 5.0\n2 3 0.0\n3 2 0.0\n"
                "4 0 1.0\n",
    "reachable-cycle": "5 5\n0 1 1.0\n1 2 -2.0\n2 1 1.0\n3 4 -1.0\n"
                       "4 3 -1.0\n",
    "unreachable-cycle": "4 3\n0 1 1.0\n2 3 -1.0\n3 2 -1.0\n",
}
JUNK = st.one_of(
    st.floats(), st.integers(), st.none(), st.booleans(),
    st.sampled_from(["inf", "-inf", "nan", "1.5", "x", "", [], {}, [0.0]]))


def fuzz_graph(name):
    return from_edge_list(read_text(FUZZ_GRAPHS[name].encode("ascii")))


def mixed_list(draw, correct, wrong):
    """Mostly ``correct`` with a few entries swapped for ``wrong`` or junk
    draws; now and then a list of wrong length, or junk."""
    shape = draw(st.sampled_from(["mixed"] * 8 + ["length", "junk"]))
    if shape == "junk":
        return draw(JUNK)
    if shape == "length":
        return draw(st.lists(wrong, max_size=len(correct) + 1).filter(
            lambda entries: len(entries) != len(correct)))
    pick = st.sampled_from(["keep"] * 6 + ["wrong", "wrong", "junk"])
    return [c if kind == "keep" else draw(wrong if kind == "wrong" else JUNK)
            for c, kind in ((c, draw(pick)) for c in correct)]


@st.composite
def result_payloads(draw):
    """A fuzz graph's name and a result payload built around the oracle's
    labels and parents."""
    name = draw(st.sampled_from(sorted(FUZZ_GRAPHS)))
    oracle = bellman_ford(fuzz_graph(name), 0)
    n = len(oracle.dist)
    payload = {"neg_cycle": draw(st.booleans()), "dist": mixed_list(
        draw, ["inf" if d == math.inf else d / SCALE for d in oracle.dist],
        st.one_of(st.floats(-3, 6), st.just("inf")))}
    if draw(st.booleans()):
        payload["parent"] = mixed_list(draw, oracle.parent,
                                       st.one_of(st.none(),
                                                 st.integers(-1, n)))
    if draw(st.sampled_from([False] * 4 + [True])):
        payload["source"] = draw(st.one_of(st.integers(-1, n), JUNK))
    return name, payload


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=result_payloads())
def test_verify_fuzz_ends_in_a_verdict_or_a_one_line_error(tmp_path, case):
    name, payload = case
    graph = tmp_path / f"{name}.txt"
    graph.write_text(FUZZ_GRAPHS[name])
    result = tmp_path / "r.json"
    result.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(graph), str(result)])
    out, err = out.getvalue(), err.getvalue()
    if not out:
        assert code == 1 and err.startswith("error: ") \
            and err.count("\n") == 1, (code, err)
        return
    assert code in (0, 1) and err == ""
    report = strict_json(out)
    # the verdict the checks gave before certify, on the result as loaded:
    # each label to the nearest micro-unit
    g = fuzz_graph(name)
    dist = [u if math.isinf(u) else float(round(u))
            for u in (float(d) * SCALE for d in payload["dist"])]
    parent = payload.get("parent")
    candidate = SsspResult(dist, [None] * g.n if parent is None else parent,
                           payload["neg_cycle"], RunStats(mode="external"))
    want = rule_before_certify(g, payload.get("source", 0), candidate)
    if want.first_mismatch is not None:
        v, a, b = want.first_mismatch
        want.first_mismatch = [v] + [x / SCALE if math.isfinite(x)
                                     else str(x) for x in (a, b)]
    assert report == json.loads(json.dumps(want.__dict__))
    assert code == (0 if want.ok else 1)


# Suite-spec fuzzing: each key present or not, each value of the right type
# and range or junk, with unknown keys and families mixed in.  Graphs stay
# tiny (n <= 30) and specs ask for at most one instance per entry.
SPEC_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 1), st.floats(),
    st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1))
WEIGHT = st.one_of(st.integers(-3, 20), st.floats(-3, 20), st.floats())
ENTRY_VALUES = {
    "n": st.integers(0, 30), "m": st.integers(-1, 90),
    "weight_lo": WEIGHT, "weight_hi": WEIGHT,
    "neg_fraction": st.floats(-0.5, 1.5), "blades": st.integers(0, 4),
    "blade_size": st.integers(0, 6), "levels": st.integers(0, 8),
    "detour": st.integers(0, 3), "bogus": st.integers(0, 3),
}


def one_in(draw, odds):
    return draw(st.sampled_from([False] * (odds - 1) + [True]))


def maybe(draw, strategy):
    """A draw from ``strategy``, or now and then a junk value."""
    return draw(SPEC_JUNK if one_in(draw, 25) else strategy)


def present(draw, known):
    """Whether a key goes in: a key that is read mostly, others rarely."""
    return not one_in(draw, 8) if known else one_in(draw, 25)


@st.composite
def suite_entries(draw):
    family = maybe(draw, st.sampled_from(sorted(FAMILIES) * 3 + ["bogus"]))
    entry = {} if one_in(draw, 25) else {"family": family}
    reads = family_params(family) \
        if isinstance(family, str) and family in FAMILIES else ()
    for key, values in ENTRY_VALUES.items():
        if present(draw, key in reads):
            entry[key] = maybe(draw, values)
    return entry


SPEC_VALUES = {
    "seed": st.integers(0, 10 ** 6), "repetitions": st.just(1),
    "k": st.integers(-1, 4),
    "algorithms": st.lists(st.sampled_from(tuple(ALGORITHMS) * 4 + (
        "bogus", ["slf"], {"jfr-pq": 1})), min_size=1, max_size=3),
    "entries": st.lists(suite_entries(), min_size=1, max_size=2),
    "threads": st.integers(1, 2),  # a key suite specs no longer take
}


@st.composite
def suite_specs(draw):
    if one_in(draw, 30):
        return draw(SPEC_JUNK)
    spec = {}
    for key, values in SPEC_VALUES.items():
        if present(draw, key in SPEC_KEYS):
            spec[key] = maybe(draw, values)
    return spec


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=suite_specs())
def test_suite_fuzz_ends_in_csv_or_a_one_line_error(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["suite", str(path)])
    out, err = out.getvalue(), err.getvalue()
    if code == 1 and not out:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return
    lines = out.splitlines()
    assert lines[0] == "#schema=1"
    rows = list(csv.DictReader(lines[1:]))
    # every solver is correct on every family, parallel edges included
    # (test_parallel_edges_are_not_a_negative_cycle), so a spec that runs
    # gives only PASS rows and exit 0
    assert rows and all(r["check"] == "PASS" for r in rows), rows
    assert code == 0 and err == "", (code, err)


@pytest.mark.parametrize("bad", BAD_PARENTS.values(), ids=BAD_PARENTS)
def test_a_parent_that_is_not_a_vertex_fails_the_cli_and_the_audit(
        tmp_path, bad):
    g = from_edge_list(read_text(TRIPLE))
    parent = [None, 0, bad]
    path = tmp_path / "r.json"
    path.write_text(json.dumps({**GOOD_RESULT, "parent": parent}))
    with pytest.raises(SpecInvalid):
        cli._load_result(path, g)
    claim = SsspResult([0.0, SCALE, 2 * SCALE], parent, False,
                       RunStats(mode="external"))
    report = check_optimality_conditions(g, 0, claim)
    assert report.triangle_ok and not report.parent_ok
    claim.parent = [None, 0, 1]
    assert check_optimality_conditions(g, 0, claim).ok


def test_every_export_resolves_and_every_error_is_raised():
    # a stale export, or an error class nothing raises, is dead surface
    assert [name for name in jfrbench.__all__
            if not hasattr(jfrbench, name)] == []
    raised = set()
    for path in Path(jfrbench.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                raised.add(getattr(exc, "id", None))
    assert [name for name, c in vars(errors).items()
            if isinstance(c, type) and issubclass(c, errors.JfrError)
            and c is not errors.JfrError and name not in raised] == []
