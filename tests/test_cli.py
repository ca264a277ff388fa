import argparse
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pathrd.cli as cli
from pathrd import parse_instance
from pathrd.cli import BENCH_HEADER, main

from helpers import EX1_DOC, EX2_DOC


def run(argv, capsys):
    """Call main in-process; returns (exit code, stdout, stderr)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def x1_path(tmp_path):
    path = tmp_path / "x1.json"
    path.write_text(json.dumps(EX1_DOC))
    return str(path)


@pytest.fixture
def x2_path(tmp_path):
    path = tmp_path / "x2.json"
    path.write_text(json.dumps(EX2_DOC))
    return str(path)


def test_solve_time_fast(x1_path, capsys):
    code, out, _ = run(["solve", x1_path, "--objective", "time"], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["status"] == "optimal"
    assert report["value"] == 31
    assert report["algorithm"] == "time_linear"
    assert report["objective"] == "time"
    assert report["instance"]["n_left"] == 0
    assert report["instance"]["n_right"] == 3
    assert report["routes"][-1]["completion"] == 31


def test_solve_time_baseline_agrees(x1_path, capsys):
    code, out, _ = run(["solve", x1_path, "--objective", "time", "--algo", "baseline"], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["algorithm"] == "time_quadratic"
    assert report["value"] == 31


def test_solve_refuses_solver_name_suffixes(x1_path, capsys):
    # --algo names a family; the last word of a solver's name is no synonym
    for algo in ("linear", "heap", "cubic"):
        code, _, err = run(["solve", x1_path, "--objective", "time", "--algo", algo], capsys)
        assert code == 2
        assert "invalid choice" in err


def test_solve_distance(x1_path, capsys):
    code, out, _ = run(
        ["solve", x1_path, "--objective", "distance", "--deadline", "40"], capsys
    )
    report = json.loads(out)
    assert code == 0
    assert report["value"] == 26
    assert report["deadline"] == 40
    assert report["algorithm"] == "distance_heap"


def test_solve_distance_infeasible_exits_1(x1_path, capsys):
    code, out, _ = run(
        ["solve", x1_path, "--objective", "distance", "--deadline", "20"], capsys
    )
    report = json.loads(out)
    assert code == 1
    assert report["status"] == "infeasible"
    assert report["value"] is None
    assert report["routes"] == []


def test_solve_distance_without_deadline_is_usage_error(x1_path, capsys):
    code, _, err = run(["solve", x1_path, "--objective", "distance"], capsys)
    assert code == 2
    assert "--deadline" in err


def test_deadline_flag_rejects_non_finite_numbers(x1_path, capsys):
    for text in ("nan", "inf", "1e400", "-inf"):
        code, _, err = run(
            ["solve", x1_path, "--objective", "distance", f"--deadline={text}"], capsys
        )
        assert code == 2
        assert "must be a number" in err


def test_deadline_flag_rejects_numbers_above_the_bound(x1_path, capsys):
    for text in (str(2**53 + 1), "1e17", str(-(2**54))):
        code, _, err = run(
            ["solve", x1_path, "--objective", "distance", f"--deadline={text}"], capsys
        )
        assert code == 2
        # the sign is checked before the bound, as in a document
        assert ("is negative" if text.startswith("-") else "exceeds 2**53") in err
    code, _, _ = run(["solve", x1_path, "--objective", "distance", f"--deadline={2**53}"], capsys)
    assert code == 0


def test_deadline_flag_rejects_negative_numbers(x1_path, tmp_path, capsys):
    # a document deadline of -1 raises NegativeValue; the flag must agree
    # rather than report the instance infeasible
    report_path = tmp_path / "report.json"
    run(["solve", x1_path, "--objective", "distance", "--deadline", "45",
         "--out", str(report_path)], capsys)
    code, out, err = run(["solve", x1_path, "--objective", "distance", "--deadline", "-1"], capsys)
    assert (code, out) == (2, "")
    assert "negative" in err
    for text in ("-1", "-0.5", "-1e-300"):
        code, out, err = run(
            ["solve", x1_path, "--objective", "distance", f"--deadline={text}"], capsys
        )
        assert (code, out) == (2, "")
        assert "negative" in err
        code, out, err = run(
            ["validate", "--instance", x1_path, "--solution", str(report_path),
             f"--deadline={text}"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert "negative" in err


def test_solve_rejects_document_above_the_bound(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(EX1_DOC, deadline=2**53 + 1)))
    code, _, err = run(["solve", str(path), "--objective", "time"], capsys)
    assert code == 2
    assert "exceeds 2**53" in err


def test_deadline_flag_overrides_document(tmp_path, capsys):
    doc = dict(EX1_DOC, deadline=20)
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(
        ["solve", str(path), "--objective", "distance", "--deadline", "40"], capsys
    )
    assert code == 0
    assert json.loads(out)["value"] == 26


def test_solve_general_instance_both_objectives(x2_path, capsys):
    code, out, _ = run(["solve", x2_path, "--objective", "time"], capsys)
    report = json.loads(out)
    assert (code, report["value"], report["algorithm"]) == (0, 21, "time_2d_minqueue")

    code, out, _ = run(
        ["solve", x2_path, "--objective", "distance", "--deadline", "22", "--algo", "baseline"],
        capsys,
    )
    report = json.loads(out)
    assert (code, report["value"], report["algorithm"]) == (0, 18, "distance_2d_cubic")


def test_solve_reads_stdin(x1_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(Path(x1_path).read_text()))
    code, out, _ = run(["solve", "-", "--objective", "time"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == 31


def test_solve_reports_are_deterministic(x1_path, capsys):
    argv = ["solve", x1_path, "--objective", "time"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    a, b = json.loads(first), json.loads(second)
    a.pop("wall_ns"), b.pop("wall_ns")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_first_dispatch_at_the_origin_takes_the_table_dtype(tmp_path, capsys):
    # int releases and one float edge length make the time table float:
    # a first route leaving at the origin reports the float table's 0.0,
    # from the fast solver as from the baseline; an all-int document
    # keeps int 0
    path = tmp_path / "mixed.json"
    doc = {
        "vertices": [{"id": 0}, {"id": 1, "release": 10}, {"id": 2, "release": 0}],
        "edges": [{"u": 0, "v": 1, "d": 1.5}, {"u": 1, "v": 2, "d": 6}],
        "depot": 0,
    }
    path.write_text(json.dumps(doc))
    for algo in ("fast", "baseline"):
        code, out, _ = run(["solve", str(path), "--objective", "time", "--algo", algo], capsys)
        routes = json.loads(out)["routes"]
        assert code == 0
        assert [(type(r["dispatch"]), r["dispatch"]) for r in routes] == [(float, 0.0), (float, 15.0)]
        assert '"dispatch": 0.0,' in out
    doc["edges"][0]["d"] = 1
    path.write_text(json.dumps(doc))
    for algo in ("fast", "baseline"):
        _, out, _ = run(["solve", str(path), "--objective", "time", "--algo", algo], capsys)
        assert '"dispatch": 0,' in out


def test_solve_rejects_malformed_instance(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run(["solve", str(path), "--objective", "time"], capsys)
    assert code == 2
    assert "junk.json" in err


def test_no_subcommand_is_usage_error(capsys):
    code, _, _ = run([], capsys)
    assert code == 2


def test_generate_single_to_stdout_and_deterministic(capsys):
    argv = ["generate", "--left", "3", "--right", "2", "--seed", "7"]
    code, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert code == 0
    assert first == second
    doc = json.loads(first)
    assert {"vertices", "edges", "depot", "deadline"} <= set(doc)


def test_generated_deadline_is_feasible(capsys, tmp_path):
    _, out, _ = run(["generate", "--left", "4", "--right", "3", "--seed", "11"], capsys)
    path = tmp_path / "gen.json"
    path.write_text(out)
    code, out, _ = run(["solve", str(path), "--objective", "distance"], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "optimal"


def test_generate_corpus_writes_count_files(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    code, _, _ = run(
        ["generate", "--left", "2", "--right", "2", "--count", "5",
         "--seed", "3", "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == [f"instance_{i:04d}.json" for i in range(5)]
    # files differ: count indexes into one seeded stream
    texts = {p.read_text() for p in out_dir.iterdir()}
    assert len(texts) == 5


def test_generate_corpus_needs_out_dir(capsys):
    code, _, err = run(["generate", "--count", "2"], capsys)
    assert code == 2
    assert "--out" in err


def test_generate_extremity_corpus(tmp_path, capsys):
    _, out, _ = run(["generate", "--left", "0", "--right", "4", "--seed", "5"], capsys)
    path = tmp_path / "ext.json"
    path.write_text(out)
    code, out, _ = run(["solve", str(path), "--objective", "time"], capsys)
    assert json.loads(out)["algorithm"] == "time_linear"


def test_validate_round_trip(x1_path, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    run(["solve", x1_path, "--objective", "distance", "--deadline", "45",
         "--out", str(report_path)], capsys)
    code, out, err = run(
        ["validate", "--instance", x1_path, "--solution", str(report_path)], capsys
    )
    assert code == 0
    assert out.strip() == "0 violations"
    assert err == ""


def test_validate_flags_tampered_report(x1_path, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    run(["solve", x1_path, "--objective", "time", "--out", str(report_path)], capsys)
    report = json.loads(report_path.read_text())
    report["routes"][0]["dispatch"] -= 1
    report_path.write_text(json.dumps(report))
    code, _, err = run(
        ["validate", "--instance", x1_path, "--solution", str(report_path)], capsys
    )
    assert code == 1
    assert "release" in err or "serialization" in err or "value" in err


def _solve_report(x1_path, tmp_path, capsys, *argv):
    """A report of x1, as solve writes it with argv, and its path."""
    report_path = tmp_path / "report.json"
    run(["solve", x1_path, *argv, "--out", str(report_path)], capsys)
    return json.loads(report_path.read_text()), report_path


def test_validate_flags_unknown_objective(x1_path, tmp_path, capsys):
    # a distance report's value is its routes' durations, so only the
    # objective is wrong here
    report, report_path = _solve_report(
        x1_path, tmp_path, capsys, "--objective", "distance", "--deadline", "45"
    )
    report["objective"] = "speed"
    report_path.write_text(json.dumps(report))
    code, out, err = run(
        ["validate", "--instance", x1_path, "--solution", str(report_path)], capsys
    )
    assert (code, out.strip()) == (1, "1 violations")
    assert err.startswith("objective: ")


def test_validate_checks_completion_claims(x1_path, tmp_path, capsys):
    report, report_path = _solve_report(x1_path, tmp_path, capsys, "--objective", "time")
    route = report["routes"][0]
    assert route["completion"] == route["dispatch"] + route["duration"] == 25
    route["completion"] = 1000000
    report_path.write_text(json.dumps(report))
    code, out, err = run(
        ["validate", "--instance", x1_path, "--solution", str(report_path)], capsys
    )
    assert (code, out.strip()) == (1, "1 violations")
    assert err.startswith("completion: route 0 claims 1000000")
    # a claim that is no number makes the report malformed, as elsewhere
    route["completion"] = "25"
    report_path.write_text(json.dumps(report))
    code, _, err = run(
        ["validate", "--instance", x1_path, "--solution", str(report_path)], capsys
    )
    assert code == 2 and "bad solution file" in err


def test_unwritable_output_paths_are_usage_errors(x1_path, tmp_path, capsys):
    missing = tmp_path / "missing" / "out"
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    for argv in (
        ["solve", x1_path, "--objective", "time", "--out", str(missing)],
        ["bench", "--algo", "time_linear", "--sizes", "10", "--reps", "1", "--csv", str(missing)],
        ["generate", "--out", str(a_file)],
        ["generate", "--count", "2", "--out", str(a_file)],
    ):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert "usage:" in err and str(tmp_path) in err, argv
    assert not missing.parent.exists() and a_file.read_text() == ""


def test_validate_infeasible_report_passes(x1_path, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    run(["solve", x1_path, "--objective", "distance", "--deadline", "20",
         "--out", str(report_path)], capsys)
    code, out, _ = run(
        ["validate", "--instance", x1_path, "--solution", str(report_path)], capsys
    )
    assert code == 0
    assert "infeasible" in out


def test_validate_refutes_false_infeasible_claim(x1_path, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    for claim in (
        {"status": "infeasible", "objective": "distance", "deadline": 1000},
        {"status": "infeasible", "objective": "time"},
        {"status": "infeasible"},
    ):
        report_path.write_text(json.dumps(claim))
        code, out, err = run(
            ["validate", "--instance", x1_path, "--solution", str(report_path),
             "--deadline", "1000"],
            capsys,
        )
        assert code == 1
        assert "1 violations" in out
        assert "infeasible" in err


def test_validate_rejects_negative_report_deadline(x1_path, tmp_path, capsys):
    # the same number as --deadline or in the instance document exits 2,
    # so a report's deadline must not confirm an infeasible claim either
    report_path = tmp_path / "report.json"
    for deadline in (-1, -0.5):
        for claim in (
            {"status": "infeasible", "objective": "distance", "deadline": deadline},
            {"status": "optimal", "objective": "distance", "deadline": deadline,
             "value": 0, "routes": []},
        ):
            report_path.write_text(json.dumps(claim))
            code, out, err = run(
                ["validate", "--instance", x1_path, "--solution", str(report_path)], capsys
            )
            assert (code, out) == (2, "")
            assert "deadline is negative" in err


def test_validate_rejects_report_deadline_above_the_bound(x1_path, tmp_path, capsys):
    # the bound --deadline and a document's deadline keep; 2**53 itself
    # is admitted, and the fast solver refutes the infeasible claim there
    report_path = tmp_path / "report.json"
    for deadline, want in ((10**30, 2), (2**53 + 1, 2), (2**53, 1)):
        report_path.write_text(
            json.dumps({"status": "infeasible", "objective": "distance", "deadline": deadline})
        )
        code, _, err = run(
            ["validate", "--instance", x1_path, "--solution", str(report_path)], capsys
        )
        assert code == want, deadline
        if want == 2:
            assert "exceeds 2**53" in err


def test_validate_falls_back_to_the_document_deadline(tmp_path, capsys):
    # a distance report without a deadline is checked against the
    # document's: x1's plan at deadline 45 is one route back at 45
    report_path = tmp_path / "report.json"
    for doc_deadline, want in ((45, 0), (40, 1)):
        path = tmp_path / "x1.json"
        path.write_text(json.dumps(dict(EX1_DOC, deadline=doc_deadline)))
        run(["solve", str(path), "--objective", "distance", "--deadline", "45",
             "--out", str(report_path)], capsys)
        report = json.loads(report_path.read_text())
        del report["deadline"]
        report_path.write_text(json.dumps(report))
        code, out, err = run(
            ["validate", "--instance", str(path), "--solution", str(report_path)], capsys
        )
        assert (code, out.strip()) == (want, f"{want} violations")
        assert err.startswith("deadline: ") if want else err == ""


def test_validate_distance_report_without_any_deadline_is_usage_error(x1_path, tmp_path, capsys):
    # neither the report, the document nor --deadline gives a deadline:
    # validate refuses the distance objective as solve does, optimal
    # report or infeasible claim alike
    report_path = tmp_path / "report.json"
    _, _, solve_err = run(["solve", x1_path, "--objective", "distance"], capsys)
    for deadline in (45, 20):
        run(["solve", x1_path, "--objective", "distance", "--deadline", str(deadline),
             "--out", str(report_path)], capsys)
        report = json.loads(report_path.read_text())
        del report["deadline"]
        report_path.write_text(json.dumps(report))
        code, out, err = run(
            ["validate", "--instance", x1_path, "--solution", str(report_path)], capsys
        )
        assert (code, out) == (2, "")
        assert "the distance objective needs --deadline" in err
        assert err.splitlines()[-1].split(": error: ")[1] == solve_err.splitlines()[-1].split(": error: ")[1]


def test_validate_rejects_non_report(x1_path, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    route = {"side": "right", "lo": 0, "hi": 2, "dispatch": 21, "duration": 20}
    for text in (
        "[1, 2, 3]",
        json.dumps({"status": "infeasible", "objective": "distance", "deadline": "soon"}),
        json.dumps({"status": "optimal", "objective": "time", "value": 41,
                    "routes": [dict(route, deliveries=[[1], 2, 3])]}),
        # a side is read like lo, before validation looks it up
        *(json.dumps({"status": "optimal", "objective": "time", "value": 41,
                      "routes": [dict(route, side=side, deliveries=[1, 2, 3], completion=41)]})
          for side in (["right"], {"right": 1}, 1)),
    ):
        bad.write_text(text)
        code, _, _ = run(["validate", "--instance", x1_path, "--solution", str(bad)], capsys)
        assert code == 2


def _first_route(report):
    return report["routes"][0]


@pytest.mark.parametrize(
    "objective, mangle",
    [
        ("time", lambda r: _first_route(r)["deliveries"].__setitem__(0, True)),
        ("time", lambda r: _first_route(r).update(lo=False)),
        ("time", lambda r: _first_route(r).update(hi=0.0)),
        ("time", lambda r: _first_route(r).update(dispatch=float("nan"))),
        ("time", lambda r: _first_route(r).update(dispatch=True)),
        ("time", lambda r: _first_route(r).update(duration=float("inf"))),
        ("time", lambda r: r.update(value=float("nan"))),
        ("distance", lambda r: _first_route(r).update(dispatch=float("nan"))),
        ("distance", lambda r: r.update(deadline=float("nan"))),
        ("distance", lambda r: r.update(deadline=True)),
        ("infeasible", lambda r: r.update(deadline=float("nan"))),
    ],
    ids=[
        "true-label", "false-lo", "float-hi", "nan-dispatch", "true-dispatch",
        "inf-duration", "nan-value", "nan-dispatch-distance", "nan-deadline",
        "true-deadline", "nan-deadline-infeasible",
    ],
)
def test_validate_rejects_bad_report_numbers(x1_path, tmp_path, capsys, objective, mangle):
    report_path = tmp_path / "report.json"
    if objective == "infeasible":
        argv = ["--objective", "distance", "--deadline", "20"]
    elif objective == "distance":
        argv = ["--objective", "distance", "--deadline", "40"]
    else:
        argv = ["--objective", "time"]
    run(["solve", x1_path, *argv, "--out", str(report_path)], capsys)
    report = json.loads(report_path.read_text())
    mangle(report)
    report_path.write_text(json.dumps(report))
    code, _, err = run(
        ["validate", "--instance", x1_path, "--solution", str(report_path)], capsys
    )
    assert code == 2
    assert "bad solution file" in err


def test_crosscheck_clean(capsys):
    code, out, _ = run(["crosscheck", "--count", "30", "--max-n", "8", "--seed", "1"], capsys)
    assert code == 0
    assert "0 mismatches" in out


def _break_fast(monkeypatch, objective, broken):
    """Swap the fast solver of objective for broken(op), on every
    instance shape."""
    monkeypatch.setattr(cli, "SOLVERS", tuple(
        s._replace(op=broken(s.op)) if (s.objective, s.family) == (objective, cli.FAST) else s
        for s in cli.SOLVERS
    ))


def test_crosscheck_reports_mismatch(capsys, monkeypatch):
    def broken(op):
        def solve(inst, check=False):
            trace, solution = op(inst, check=check)
            return trace, dataclasses.replace(solution, value=solution.value + 1)
        return solve

    _break_fast(monkeypatch, "time", broken)
    code, out, err = run(
        ["crosscheck", "--count", "3", "--seed", "2", "--objective", "time"], capsys
    )
    assert code == 3
    assert "0 mismatches" not in out
    assert "mismatch" in err


def test_crosscheck_reports_distance_mismatch(capsys, monkeypatch):
    def broken(op):
        def solve(inst, deadline, check=False):
            trace, solution = op(inst, deadline, check=check)
            return trace, dataclasses.replace(solution, value=solution.value + 1)
        return solve

    _break_fast(monkeypatch, "distance", broken)
    code, out, err = run(
        ["crosscheck", "--count", "3", "--seed", "2", "--objective", "distance"], capsys
    )
    assert code == 3
    assert "0 mismatches" not in out
    assert "disagreement" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--count", "0"],
        ["generate", "--left", "-2"],
        ["generate", "--max-edge", "-1"],
        ["crosscheck", "--count", "1", "--max-release", "-1"],
        ["crosscheck", "--max-n", "0"],
        ["bench", "--algo", "time_linear", "--sizes", "1e400"],
        ["bench", "--algo", "time_linear", "--sizes", "-5"],
        ["bench", "--algo", "time_linear", "--sizes", "abc"],
        ["bench", "--algo", "time_linear", "--sizes", "10,1.5"],
        ["bench", "--algo", "time_linear", "--sizes", "10", "--seed", "-1"],
        # instances or deadlines that could leave the admissible range
        ["generate", "--left", "2", "--right", "2", "--max-release", str(10**20)],
        ["crosscheck", "--count", "3", "--max-release", str(10**20)],
        ["generate", "--left=1", "--right=1", f"--max-edge={2**50 + 1}", "--max-release=0"],
        ["generate", "--left=64", "--right=64", f"--max-edge={2**38 + 1}", "--max-release=0"],
        ["generate", "--left=1", "--right=0", "--max-edge=0", f"--max-release={2**52 + 1}"],
        ["crosscheck", "--max-n=1", "--max-edge=0", f"--max-release={2**52 - 4}"],
    ],
    ids=[
        "count-0", "left-negative", "max-edge-negative", "max-release-negative",
        "max-n-0", "sizes-overflow", "sizes-negative", "sizes-word", "sizes-fraction",
        "seed-negative", "generate-release-1e20", "crosscheck-release-1e20",
        "generate-edge-past-limit", "generate-instance-past-limit",
        "generate-deadline-past-limit", "crosscheck-deadline-past-limit",
    ],
)
def test_bad_integer_arguments_are_usage_errors(capsys, argv):
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "error: argument" in err
    assert "Traceback" not in err


def test_generation_bounds_admit_the_limit(capsys):
    # worst case 1 + 1 customers at 2**50 apart: 8 * 2**50 = 2**53 both as
    # release + 2 * customers * total length and as the latest deadline;
    # 64 + 64 customers at 2**38 apart: 2 * 128 * 128 * 2**38 = 2**53
    for sides, edge in ((1, 2**50), (64, 2**38)):
        code, out, _ = run(
            ["generate", f"--left={sides}", f"--right={sides}", f"--max-edge={edge}",
             "--max-release=0"],
            capsys,
        )
        assert code == 0
        parse_instance(out)
    # a deadline of up to 2 * makespan + 10 = 2**53
    code, out, _ = run(
        ["crosscheck", "--count=3", "--max-n=1", "--max-edge=0", f"--max-release={2**52 - 5}"],
        capsys,
    )
    assert (code, out) == (0, "checked 3 instances: 0 mismatches\n")


def test_solve_unreadable_instance_is_usage_error(tmp_path, capsys):
    for path in (tmp_path / "missing.json", tmp_path):
        code, out, err = run(["solve", str(path), "--objective", "time"], capsys)
        assert (code, out) == (2, "")
        assert f"cannot read {path}" in err


# every --algo name and report algorithm, as (baseline, fast) pairs:
# one-sided names first, two-sided ones second
NAME_PAIRS = [
    ("time_quadratic", "time_linear"),
    ("distance_quadratic", "distance_heap"),
    ("time_2d_cubic", "time_2d_minqueue"),
    ("distance_2d_cubic", "distance_2d_heap"),
]
ALGOS = [name for pair in NAME_PAIRS for name in pair]


def test_registry_holds_one_solver_per_objective_and_family():
    assert [(s.objective, s.family) for s in cli.SOLVERS] == [
        ("time", "baseline"), ("time", "fast"), ("distance", "baseline"), ("distance", "fast")
    ]
    assert sorted(name for s in cli.SOLVERS for name in s.names) == sorted(ALGOS)
    subcommands = next(
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    bench = subcommands.choices["bench"]
    assert next(a for a in bench._actions if a.dest == "algo").choices == sorted(ALGOS)


def _bench_rows(algo, capsys):
    code, out, _ = run(["bench", "--algo", algo, "--sizes", "100,200", "--reps", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == BENCH_HEADER
    assert len(lines) == 1 + 2 * 2
    return [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize("algo", ALGOS)
def test_bench_csv_shape(capsys, algo):
    pair = next(pair for pair in NAME_PAIRS if algo in pair)
    two_sided = NAME_PAIRS.index(pair) >= 2
    rows = _bench_rows(algo, capsys)
    other = _bench_rows(pair[1 - pair.index(algo)], capsys)
    for (name, objective, n_left, n_right, rep, wall_ns, value), theirs in zip(rows, other):
        assert name == algo
        assert objective == ("time" if algo.startswith("time_") else "distance")
        assert int(n_right) in (100, 200)
        assert int(n_left) == (int(n_right) if two_sided else 0)
        assert int(wall_ns) > 0 and int(value) >= 0
        # the other family runs the same instances to the same value
        assert theirs[2:5] + theirs[6:] == [n_left, n_right, rep, value]


def test_bench_distance_uses_feasible_deadline(capsys):
    code, out, _ = run(
        ["bench", "--algo", "distance_2d_heap", "--sizes", "40", "--reps", "1"], capsys
    )
    assert code == 0
    value = out.strip().splitlines()[-1].split(",")[-1]
    assert int(value) > 0


def test_bench_understands_scientific_sizes(capsys):
    code, out, _ = run(
        ["bench", "--algo", "time_quadratic", "--sizes", "1e2", "--reps", "1"], capsys
    )
    assert code == 0
    assert ",0,100," in out.strip().splitlines()[-1]


def test_console_script_help():
    # the child finds the package where pytest does, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "pathrd.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    for name in ("solve", "generate", "crosscheck", "bench", "validate"):
        assert name in proc.stdout
