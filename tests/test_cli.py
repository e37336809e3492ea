import csv
import json

import pytest

from jfrbench.cli import main
from jfrbench.generators import generate, plant_negative_cycle
from jfrbench.graph import write_file


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    row = json.loads(out)
    assert row["check"] == "PASS"
    assert row["n"] == 60 and row["m"] == 300
    assert row["algorithm"] == "jfr-pq"
    assert row["edge_inspections"] > 0
    assert isinstance(row["time_ns"], int)


def test_run_jfr_pq_honors_k(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "--family", "neg-dense", "--n", "200",
                  "--m", "1000", "--seed", "3")
    ops = {}
    for k in ("1", "4"):
        code, out, _ = run_cli(capsys, "run", g, "--algo", "jfr-pq",
                               "--k", k, "--check")
        assert code == 0
        row = json.loads(out)
        assert row["check"] == "PASS"
        ops[k] = row["edge_inspections"]
    assert ops["1"] != ops["4"]
    code, _, err = run_cli(capsys, "run", g, "--algo", "jfr-pq", "--k", "0")
    assert code == 1 and "error: k must be >= 1" in err


def test_run_unknown_algorithm(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "--family", "sparse-random",
                  "--n", "10", "--m", "20")
    code, _, err = run_cli(capsys, "run", g, "--algo", "bogus")
    assert code == 1 and "unknown algorithm" in err


def test_run_dijkstra_rejects_negative(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "--family", "neg-dense", "--n", "30",
                  "--m", "200", "--neg-fraction", "0.5")
    code, _, err = run_cli(capsys, "run", g, "--algo", "dijkstra")
    assert code == 1 and "negative" in err


def test_compare_same_algorithm_is_neutral(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "--family", "sparse-random",
                  "--n", "100", "--m", "400")
    code, out, _ = run_cli(capsys, "compare", g, "--base", "spfa",
                           "--jfr", "spfa", "--repetitions", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "#schema=1"
    row = dict(zip(*csv.reader(lines[1:3])))
    assert float(row["rho_ops"]) == 1.0
    assert float(row["nwr"]) == 1.0
    assert row["check_base"] == row["check_jfr"] == "PASS"


def write_suite(tmp_path, **overrides):
    spec = {
        "seed": 11,
        "repetitions": 2,
        "k": 2,
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


def test_suite_skips_dijkstra_on_negative_family(capsys, tmp_path):
    spec = write_suite(tmp_path, algorithms=["dijkstra", "bf"],
                       entries=[{"family": "neg-dense", "n": 30, "m": 150,
                                 "neg_fraction": 0.5}])
    code, out, _ = run_cli(capsys, "suite", spec)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()[1:]))
    by_algo = {r["algorithm"]: r for r in rows}
    assert by_algo["dijkstra"]["check"].startswith("SKIPPED")
    assert by_algo["bf"]["check"] == "PASS"


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
    spec = write_suite(tmp_path, algorithms=["bogus"])
    assert run_cli(capsys, "suite", spec)[0] == 1


def test_suite_honors_thread_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BENCH_THREADS", "1")
    spec = write_suite(tmp_path, repetitions=1)
    assert run_cli(capsys, "suite", spec)[0] == 0


def test_sweep_edges_rows(capsys, tmp_path):
    code, out, err = run_cli(capsys, "sweep-edges", "--family", "neg-dense",
                             "--n", "60", "--m", "400", "--seed", "5",
                             "--fractions", "0.05,0.10", "--algo", "jfr-pq")
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "#schema=1"
    rows = list(csv.DictReader(lines[1:]))
    assert [r["fraction"] for r in rows] == ["0.000000", "0.050000",
                                             "0.100000"]
    assert [int(r["delta_edges"]) for r in rows] == [0, 20, 40]
    base_ops = int(rows[0]["edge_inspections"])
    for r in rows:
        assert int(r["delta_ops"]) == int(r["edge_inspections"]) - base_ops
        assert r["check"] == "PASS"


def test_sweep_edges_minimum_increment(capsys, tmp_path):
    graph = tmp_path / "two.txt"
    graph.write_text("2 1\n0 1 1.0\n")
    code, out, _ = run_cli(capsys, "sweep-edges", str(graph),
                           "--fractions", "1.0", "--algo", "bf")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()[1:]))
    assert [int(r["m"]) for r in rows] == [1, 2]


def test_sweep_edges_bad_fractions(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sweep-edges", "--family", "sparse-random",
                           "--n", "10", "--m", "20", "--fractions", "0,0.5")
    assert code == 1 and "fraction" in err
    code, _, err = run_cli(capsys, "sweep-edges", "--family", "sparse-random",
                           "--n", "10", "--m", "20", "--fractions", " ")
    assert code == 1


def test_verify_round_trip(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "--family", "neg-dense", "--n", "40",
                  "--m", "200", "--seed", "9")
    result = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "run", g, "--algo", "slf",
                         "--out", str(result))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", g, str(result))
    assert code == 0
    report = json.loads(out)
    assert report["distances_match"] and report["triangle_ok"]


def test_verify_flags_tampered_result(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "--family", "sparse-random", "--n", "20",
                  "--m", "60", "--seed", "2")
    result = tmp_path / "r.json"
    assert run_cli(capsys, "run", g, "--algo", "bf",
                   "--out", str(result))[0] == 0
    payload = json.loads(result.read_text())
    finite = next(i for i, d in enumerate(payload["dist"])
                  if d != "inf" and i != 0)
    payload["dist"][finite] = float(payload["dist"][finite]) + 0.5
    result.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "verify", g, str(result))
    assert code == 1
    report = json.loads(out)
    assert not report["distances_match"]
    assert report["first_mismatch"][0] == finite


def test_verify_wrong_source(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "--family", "sparse-random", "--n", "30",
                  "--m", "120", "--seed", "4")
    result = tmp_path / "r.json"
    assert run_cli(capsys, "run", g, "--algo", "bf", "--source", "1",
                   "--out", str(result))[0] == 0
    code, out, _ = run_cli(capsys, "verify", g, str(result), "--source", "0")
    assert code == 1
    assert not json.loads(out)["distances_match"]


def test_verify_accepts_flagged_negative_cycle_result(capsys, tmp_path):
    base = generate("neg-dense", 5, n=40, m=800, neg_fraction=0.3)
    g = tmp_path / "g.txt"
    write_file(str(g), plant_negative_cycle(base, 8, 5, -0.5))
    result = tmp_path / "r.json"
    code, out, _ = run_cli(capsys, "run", str(g), "--algo", "jfr-pq",
                           "--check", "--out", str(result))
    assert code == 0 and json.loads(out)["check"] == "PASS"
    assert json.loads(result.read_text())["neg_cycle"] is True
    code, out, _ = run_cli(capsys, "verify", str(g), str(result))
    assert code == 0
    report = json.loads(out)
    assert report["neg_cycle_agree"] and report["distances_match"]
    assert report["first_mismatch"] is None
    # a flag the oracle does not share is still rejected
    payload = json.loads(result.read_text())
    payload["neg_cycle"] = False
    result.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "verify", str(g), str(result))
    assert code == 1 and not json.loads(out)["neg_cycle_agree"]
