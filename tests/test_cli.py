import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from maxminfre import cli
from maxminfre.cli import main
from maxminfre.exact import decimal_str

from .conftest import DATA_DIR, RULES_BLIND_INFEASIBLE

DEMO = str(DATA_DIR / "demo10.json")
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DEMO_X = "0.66,0.57,0.14,0.4,0.45,1,0.55,0.62,0.04,0.53"
# nested far past the depth at which the JSON decoder runs out of recursion
DEEP = "[" * 100_000 + "]" * 100_000
# golden file -> (exit code, argv), run from the repository root so the echoed
# path is stable
GOLDENS = {
    "solve-region-trace": (0, ("solve", "data/demo10.json", "--region", "--trace")),
    "region": (0, ("region", "data/demo10.json")),
    "vc-brute": (0, ("vc", "data/triangle.col", "--brute")),
    # 60 vertices with real neighbour sets for the masks check
    "vc-grid10x6": (0, ("vc", "data/grid10x6.col")),
    # every ExtremalSet family, which only this command prints
    "extremals-demo10": (0, ("extremals", "data/demo10.json")),
    "oracle-graph": (0, ("oracle", "data/path3.col")),
    "check": (0, ("check", "data/demo10.json", "--x", DEMO_X)),
    # random_fre_doc(64, 0.3, 0, b_cap=0.5): every rule fires but rule 4, and
    # rule 7 empties two anchor domains
    "reduce-wide64": (1, ("reduce", "data/wide64.json")),
}


@pytest.fixture()
def infeasible_file(tmp_path):
    path = tmp_path / "blind.json"
    path.write_text(json.dumps(RULES_BLIND_INFEASIBLE))
    return str(path)


@pytest.fixture()
def triangle_file(tmp_path):
    path = tmp_path / "k3.col"
    path.write_text("p 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_human_output_matches_golden(capsys, monkeypatch, name):
    """The non-JSON stdout, byte for byte, apart from the timing line."""
    monkeypatch.chdir(DATA_DIR.parent)
    expected_code, argv = GOLDENS[name]
    code, out, _ = run_cli(capsys, *argv)
    kept = [line for line in out.splitlines(True) if not line.startswith("elapsed_seconds:")]
    assert code == expected_code
    assert "".join(kept) == (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")


def test_file_names_that_look_like_content(capsys, monkeypatch, tmp_path):
    """A path that names an existing file is read, whatever it starts with."""
    monkeypatch.chdir(tmp_path)
    Path("{a}.json").write_text(json.dumps({"A": [["0.5"]], "b": ["0.5"], "c": ["1"]}))
    Path("p g.col").write_text("p 2 1\ne 1 2\n")
    for argv in (
        ("solve", "{a}.json"),
        ("region", "{a}.json"),
        ("check", "{a}.json", "--x", "0.5"),
        ("reduce", "{a}.json"),
        ("extremals", "{a}.json"),
        ("oracle", "{a}.json"),
        ("oracle", "{a}.json", "--sample", "5"),
        ("vc", "p g.col"),
        ("oracle", "p g.col"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
    _, out, _ = run_cli(capsys, "vc", "p g.col", "--json")
    assert json.loads(out)["size"] == 1


def test_solve_exit_codes(capsys, infeasible_file, tmp_path):
    assert run_cli(capsys, "solve", DEMO)[0] == 0
    assert run_cli(capsys, "solve", infeasible_file)[0] == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{]")
    code, _, err = run_cli(capsys, "solve", str(broken))
    assert code == 2 and "error" in err


def test_solve_json_document(capsys):
    code, out, _ = run_cli(capsys, "solve", DEMO, "--json", "--trace", "--region")
    assert code == 0
    doc = json.loads(out)
    assert doc["objective"] == "-13.0727"
    assert doc["objective_display"] == "-13.07"
    assert doc["x"][0] == "0.66" and doc["x"][5] == "1"
    assert doc["statistics"]["initial_domains"] == {"eq": 16, "lt": 8, "anchor": 144}
    assert len(doc["trace"]) == 17
    assert len(doc["region"]) == 1
    # serialized result parses back to the identical document
    assert json.loads(json.dumps(doc)) == doc


def test_solve_infeasible_names_cause(capsys, infeasible_file):
    code, out, _ = run_cli(capsys, "solve", infeasible_file, "--json")
    doc = json.loads(out)
    assert code == 1 and doc["infeasibility_cause"] == "no-admissible-triple"


def test_solve_no_rules_same_answer(capsys):
    _, plain, _ = run_cli(capsys, "solve", DEMO, "--json")
    _, without, _ = run_cli(capsys, "solve", DEMO, "--no-rules", "--json")
    a, b = json.loads(plain), json.loads(without)
    assert a["x"] == b["x"] and a["objective"] == b["objective"]
    assert b["statistics"]["enumerated"] == 18432


def test_reduce_trace_lines(capsys):
    code, out, _ = run_cli(capsys, "reduce", DEMO)
    assert code == 0
    lines = out.splitlines()
    assert "RULE1 target=2 removed=2 witness=1" in lines
    assert "RULE4 target=4 removed=2 witness=(4, 7)" in lines
    assert "RULE7 target=7 removed=10 witness=(10, 7)" in lines
    assert "rule7: |eq|=2 |lt|=1 |anchor|=4 total=8" in lines


def test_extremals_dump(capsys):
    code, out, _ = run_cli(capsys, "extremals", DEMO)
    assert code == 0
    lines = out.splitlines()
    assert "row 1 [diag_gt] support={1, 4, 7, 8}" in lines
    assert "  max variant 2: [0.57, 1, 1, 0.57, 1, 0.57, 1, 1, 0.57, 1]" in lines
    assert "  min anchor 9: [0, 0, 0, 0, 0, 0, 0.55, 0, 0.55, 0]" in lines


def test_empty_support_verdict_line(capsys, tmp_path):
    # reduce and extremals print the verdict as region does
    path = tmp_path / "empty.json"
    path.write_text(
        json.dumps({"A": [["0.1", "0.2"], ["0.3", "0.9"]], "b": ["0.5", "0.4"], "c": ["1", "1"]})
    )
    for command in ("reduce", "extremals", "region"):
        code, out, _ = run_cli(capsys, command, str(path))
        assert code == 1 and out.splitlines()[-1] == "infeasible: empty-support (rows 1)"


def test_region_subcommand(capsys, infeasible_file, tmp_path):
    code, out, _ = run_cli(capsys, "region", DEMO, "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["cells"]) == 1
    assert doc["cells"][0]["upper"][5] == "1"
    code, out, _ = run_cli(capsys, "region", DEMO, "--json", "--no-dedup")
    assert len(json.loads(out)["cells"]) == 2
    assert run_cli(capsys, "region", infeasible_file)[0] == 1
    # infeasible with --json: the same keys as solve --json
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"A": [["0.1"]], "b": ["0.5"], "c": ["1"]}))
    code, out, _ = run_cli(capsys, "region", str(empty), "--json")
    assert code == 1
    assert json.loads(out) == {
        "status": "infeasible",
        "infeasibility_cause": "empty-support",
        "infeasibility_rows": [1],
    }
    code, out, _ = run_cli(capsys, "region", str(empty))
    assert code == 1 and out == "infeasible: empty-support (rows 1)\n"
    code, out, _ = run_cli(capsys, "region", infeasible_file, "--json")
    _, solved, _ = run_cli(capsys, "solve", infeasible_file, "--json")
    solved = json.loads(solved)
    assert code == 1 and json.loads(out) == {
        key: solved[key] for key in ("status", "infeasibility_cause", "infeasibility_rows")
    }


def test_region_infeasible_runs_the_pipeline_once(capsys, monkeypatch, infeasible_file):
    """The verdict comes from the same pass that finds no box."""
    from maxminfre import solver

    calls = []
    prepare = solver._prepare

    def counted(*args, **kwargs):
        calls.append(args)
        return prepare(*args, **kwargs)

    monkeypatch.setattr(solver, "_prepare", counted)
    code, out, _ = run_cli(capsys, "region", infeasible_file, "--json")
    assert code == 1 and len(calls) == 1
    assert json.loads(out) == {
        "status": "infeasible",
        "infeasibility_cause": "no-admissible-triple",
        "infeasibility_rows": [],
    }
    code, out, _ = run_cli(capsys, "region", infeasible_file, "--no-dedup")
    assert code == 1 and len(calls) == 2
    assert out == "infeasible: no-admissible-triple\n"


def test_vc_subcommand(capsys, triangle_file, tmp_path):
    code, out, _ = run_cli(capsys, "vc", triangle_file, "--brute", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 2 and doc["brute_agrees"] and doc["checks_ok"]
    bad = tmp_path / "bad.col"
    for text, message in (
        ("p 2 1\ne 1 1\n", "self-loop"),
        ("p 2 1\ne 1 2\np 3 1\n", "repeated problem line 3: 'p 3 1'"),
        ("p 3 2\ne 1 2\np 3 1\n", "repeated problem line 3: 'p 3 1'"),
    ):
        bad.write_text(text)
        code, out, err = run_cli(capsys, "vc", str(bad))
        assert code == 2 and out == "" and message in err


@pytest.mark.parametrize(
    "command, text, start",
    [
        (
            "solve",
            json.dumps({"A": [["0.5"]], "b": ["0.5"], "c": ["1"], "sense": "x" * 100_000}),
            "error: sense must be min or max, got 'xxx",
        ),
        ("solve", '{"A": [["0.5"]], "b": [%d], "c": ["1"]}' % 3**2000, "error: b[1] = '1747"),
        ("vc", "p 3 1\n" + "z" * 100_000 + "\ne 1 2\n", "error: unrecognized line 2: 'zzz"),
        ("vc", "p edge " + "9" * 100_000 + " 1\n", "error: bad problem line 1: 'p edge 999"),
        ("vc", '{"adjacency": [["' + "x" * 100_000 + '"]]}', "error: adjacency entries"),
    ],
    ids=["sense", "b", "line", "problem-line", "adjacency-value"],
)
def test_oversized_input_is_an_input_error_echoed_short(capsys, tmp_path, command, text, start):
    path = tmp_path / "input"
    path.write_text(text)
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err.startswith(start) and "..." in err and len(err) < 200


@pytest.mark.parametrize(
    "text, argv",
    [
        (DEEP, ("solve", "{path}")),
        (DEEP, ("reduce", "{path}")),
        (DEEP, ("extremals", "{path}")),
        (DEEP, ("region", "{path}")),
        (DEEP, ("check", "{path}", "--x", DEMO_X)),
        ("", ("check", DEMO, "--x", DEEP)),
        # oracle reads a file that starts with '{' as JSON
        ('{"A": %s, "b": [], "c": []}' % DEEP, ("oracle", "{path}")),
        ('{"adjacency": %s}' % DEEP, ("vc", "{path}")),
    ],
    ids=["solve", "reduce", "extremals", "region", "check", "check-x", "oracle", "vc"],
)
def test_deeply_nested_json_is_an_input_error(capsys, tmp_path, text, argv):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, *(str(path) if a == "{path}" else a for a in argv))
    assert code == 2 and out == ""
    assert err.startswith(("error: invalid JSON", "error: --x: invalid JSON"))
    assert "Traceback" not in err and len(err.encode()) < 200


@pytest.mark.parametrize(
    "argv",
    [("solve",), ("vc",), ("oracle",), ("gen", "random-graph", "--n", "3", "-o")],
    ids=["solve", "vc", "oracle", "gen"],
)
def test_unusable_long_path_is_an_input_error_echoed_short(capsys, tmp_path, argv):
    # each echoed the whole path once: 5,000 characters and more on stderr
    path = str(tmp_path / ("x" * 5000 + "-missing"))
    code, out, err = run_cli(capsys, *argv, path)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot") and "-missing': " in err
    assert len(err.encode()) < 200


def test_oracle_subcommand(capsys, tmp_path, triangle_file, infeasible_file):
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps({"A": [["0.55"]], "b": ["0.55"], "c": ["1"], "sense": "min"}))
    code, out, _ = run_cli(capsys, "oracle", str(tiny), "--json")
    assert code == 0 and json.loads(out)["objective"] == "0.55"
    code, out, _ = run_cli(capsys, "oracle", str(tiny), "--sample", "200", "--json")
    assert code == 0 and json.loads(out)["agreed"]
    code, out, err = run_cli(capsys, "oracle", str(tiny), "--sample", "0")
    assert code == 2 and out == "" and "--sample must be at least 1" in err
    code, out, _ = run_cli(capsys, "oracle", triangle_file, "--json")
    assert code == 0 and json.loads(out)["size"] == 2
    # one line, no trailing newline: the file's text, not a path
    lone = tmp_path / "lone.col"
    lone.write_text("p 1 0")
    code, out, _ = run_cli(capsys, "oracle", str(lone), "--json")
    assert code == 0 and json.loads(out) == {"size": 0, "cover": []}
    # sampling checks an instance's boxes; a graph has none
    for k in ("0", "5"):
        code, out, err = run_cli(capsys, "oracle", triangle_file, "--sample", k)
        assert code == 2 and out == "" and "--sample" in err
    assert run_cli(capsys, "oracle", infeasible_file)[0] == 1
    # JSON routes on the top-level key, not on a substring of the text
    noted = tmp_path / "noted.json"
    noted.write_text(
        json.dumps({"A": [["0.5"]], "b": ["0.5"], "c": ["1"], "note": "adjacency of rows"})
    )
    code, out, _ = run_cli(capsys, "oracle", str(noted), "--json")
    assert code == 0 and json.loads(out)["objective"] == "0.5"
    assert run_cli(capsys, "solve", str(noted))[0] == 0
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"adjacency": [[0, 1], [1, 0]]}))
    code, out, _ = run_cli(capsys, "oracle", str(graph), "--json")
    assert code == 0 and json.loads(out)["size"] == 1
    for text in ('{"A": [["0.5"]], "adjacency"', "{]"):
        noted.write_text(text)
        code, out, err = run_cli(capsys, "oracle", str(noted))
        assert code == 2 and out == "" and "invalid JSON" in err
    # --grid and --sample exclude each other
    with pytest.raises(SystemExit) as exc:
        main(["oracle", str(tiny), "--grid", "--sample", "3"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "oracle", str(tiny), "--grid", "--json")
    assert code == 0 and json.loads(out)["objective"] == "0.55"


def test_gen_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "gen", "random-fre", "--n", "4", "--density", "0.5", "--seed", "7"
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert len(doc["A"]) == 4 and doc["sense"] == "min"


def test_gen_binary_regime(capsys):
    _, out, _ = run_cli(capsys, "gen", "random-binary-fre", "--n", "6", "--seed", "1")
    doc = json.loads(out)
    assert doc["b"] == ["0"] * 6
    assert set(v for row in doc["A"] for v in row) <= {"0", "1"}


def test_gen_edgeless_graph(capsys):
    _, out, _ = run_cli(capsys, "gen", "random-graph", "--n", "5", "--density", "0", "--seed", "0")
    assert out == "p 5 0\n"


def test_gen_rejects_bad_parameters(capsys):
    assert run_cli(capsys, "gen", "random-fre", "--n", "0")[0] == 2
    assert run_cli(capsys, "gen", "random-graph", "--n", "3", "--density", "1.5")[0] == 2


def test_gen_writes_file(capsys, tmp_path):
    target = tmp_path / "g.col"
    code, out, _ = run_cli(
        capsys, "gen", "random-graph", "--n", "4", "--density", "1", "--seed", "0",
        "-o", str(target),
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("p 4 6")


def test_check_subcommand(capsys):
    x = "0.66,0.57,0.14,0.40,0.45,1,0.55,0.62,0.04,0.53"
    code, out, _ = run_cli(capsys, "check", DEMO, "--x", x, "--json")
    assert code == 0 and json.loads(out)["feasible"]
    code, out, _ = run_cli(capsys, "check", DEMO, "--x", "[0,0,0,0,0,0,0,0,0,0]", "--json")
    doc = json.loads(out)
    assert code == 1 and not doc["feasible"]
    assert doc["rows"][0]["achieved"] == "0"


def test_input_contract_enforced_at_load(capsys, tmp_path):
    third = tmp_path / "third.json"
    third.write_text(json.dumps({"A": [["0.5"]], "b": ["1/3"], "c": ["1"]}))
    code, out, err = run_cli(capsys, "solve", str(third), "--json")
    assert code == 2 and out == "" and "b[1]" in err
    code, _, err = run_cli(capsys, "check", DEMO, "--x", "1/3,0,0,0,0,0,0,0,0,0")
    assert code == 2 and "x[1]" in err
    code, _, err = run_cli(capsys, "check", DEMO, "--x", "[0, 0")
    assert code == 2 and "--x" in err
    # an empty field, inside the list or after a trailing comma, is a field too
    for x, field in ((DEMO_X.replace(",", ",,", 1), "x[2]"), (DEMO_X + ",", "x[11]")):
        code, out, err = run_cli(capsys, "check", DEMO, "--x", x)
        assert code == 2 and out == "" and err.startswith(f"error: {field}: ")
    # a JSON list reads its numbers as the loader does: as text
    for x in ("[1e-1000000,0,0,0,0,0,0,0,0,0]", "1e-1000000,0,0,0,0,0,0,0,0,0"):
        code, out, err = run_cli(capsys, "check", DEMO, "--x", x)
        assert code == 2 and out == ""
        assert "x[1]: '1e-1000000' has an exponent beyond +-1000" in err
    for field, doc in (
        ("b[1]", '{"A": [["0.5"]], "b": ["1e5000"], "c": ["1"]}'),
        ("c[1]", '{"A": [["0.5"]], "b": ["0.5"], "c": ["1e5000"]}'),
        ("A[1][1]", '{"A": [[1e-1000000]], "b": ["0.5"], "c": ["1"]}'),
        # results are sums of products of the scalars: one too long to render is rejected
        *(
            ("b[1]", json.dumps({"A": [["1"]], "b": [s], "c": [s], "sense": "max"}))
            for s in ("0." + "9" * 3000, decimal_str(Fraction(1, 2**3300)))
        ),
    ):
        third.write_text(doc)
        code, out, err = run_cli(capsys, "solve", str(third), "--json")
        assert code == 2 and out == "" and field in err


def test_internal_error_is_not_an_input_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal defect")

    monkeypatch.setattr(cli, "solve", broken)
    code, _, err = run_cli(capsys, "solve", DEMO)
    assert code == 3 and "Traceback" in err and "internal defect" in err


def test_closed_stdout_pipe_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "maxminfre.cli", "region", DEMO, "--json", "--no-dedup"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141 and proc.stderr == ""


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "maxminfre.cli", "solve", DEMO, "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["objective_display"] == "-13.07"


def test_package_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "maxminfre", "solve", DEMO, "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["objective_display"] == "-13.07"
