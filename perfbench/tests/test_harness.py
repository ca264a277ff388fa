"""Harness self-test: a tampered report must count as a failed operation,
and the metric names must match BENCHMARK.json."""

import io
import json
from contextlib import redirect_stdout

import pytest

import run
import workloads as wl

BENCHMARK = run.ROOT / "BENCHMARK.json"


def _bump_value(report):
    report["value"] += 1


def _drop_delivery(report):
    report["routes"][-1]["deliveries"].pop()


def _run_tiny(monkeypatch, tmp_path, tamper=None):
    """One round of the untraced grid-2d loop on a tiny document; returns
    the result object the benchmark prints last."""
    monkeypatch.setattr(wl, "GRID_N", 6)
    monkeypatch.setattr(run, "STATE", tmp_path)
    if tamper is not None:
        judge = run.judge

        def tampering(subject, objective, path):
            report = json.loads(path.read_text())
            tamper(report)
            path.write_text(json.dumps(report))
            return judge(subject, objective, path)

        monkeypatch.setattr(run, "judge", tampering)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "grid-2d", "--seed", "3", "--seconds", "0"])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_untouched_reports_pass(monkeypatch, tmp_path):
    result = _run_tiny(monkeypatch, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3  # document check + time case + distance case


@pytest.mark.parametrize("tamper", [_bump_value, _drop_delivery])
def test_tampered_report_counts_as_failed(monkeypatch, tmp_path, tamper):
    result = _run_tiny(monkeypatch, tmp_path, tamper)
    assert not result["correct"]
    assert result["failed"] == 2


def test_metric_names_match_benchmark_json():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_traced_run_reports_the_layers_it_uses(monkeypatch, tmp_path):
    monkeypatch.setattr(wl, "GRID_N", 6)
    monkeypatch.setattr(run, "STATE", tmp_path)
    out = io.StringIO()
    with redirect_stdout(out):
        run.main(["--workload", "grid-2d", "--seed", "3", "--seconds", "0", "--trace", "1"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 5
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    used = [name for name in metrics
            if not name.startswith(("time_extremity.", "distance_extremity."))]
    assert all(metrics[name] != 0 for name in used if name != "instance.riders"), metrics
    assert metrics["instance.riders"] == 0
    assert metrics["time_general.states"] == metrics["distance_general.states"] == 49
    spans = json.loads((tmp_path / "trace-grid-2d-seed3.json").read_text())["spans"]
    assert {span["case"] for span in spans} == {1, 3}
    assert all(span["self_s"] >= 0 for span in spans)
