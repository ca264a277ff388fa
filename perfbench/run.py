"""Layered benchmark: document -> report wall time and peak RSS.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's input from the seed, then runs a closed loop with
one client: one case at a time, each in a fresh child process
(``case.py``), until the time budget is spent.  Every report a case
writes is checked; a case whose checks fail counts as a failed
operation.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics, with ``--trace 1`` the per-layer ones, taken from
traced cases each paired with an untraced case just before it.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from hostspeed import calibrate, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

CASE_TIMEOUT_S = 150

WORKLOADS = ("raw-dense", "raw-uniform", "grid-2d", "canonical-default")

END_TO_END = {
    "time.wall_s": "s",
    "distance.wall_s": "s",
    "time.peak_rss_mb": "MB",
    "distance.peak_rss_mb": "MB",
    "setup_s": "s",
}

SOLVER_LAYERS = ("time_extremity", "time_general", "distance_extremity", "distance_general")

PER_LAYER = {
    "instance.json_decode_s": "s",
    "instance.parse_s": "s",
    "instance.split_s": "s",
    "instance.customers": "count",
    "instance.survivors": "count",
    "instance.riders": "count",
    "instance.kept_ratio": "ratio",
    **{
        f"{layer}.{metric}": unit
        for layer in SOLVER_LAYERS
        for metric, unit in (
            ("solve_s", "s"),
            ("reconstruct_s", "s"),
            ("sweep_s", "s"),
            ("states", "count"),
            ("routes", "count"),
        )
        + ((("present_ratio", "ratio"),) if layer.startswith("distance") else ())
    },
    "cli.report_s": "s",
    "cli.report_bytes": "count",
    "cli.deliveries": "count",
    "cli.other_s": "s",
    "rss.after_parse_mb": "MB",
    "rss.after_split_mb": "MB",
    "rss.after_solve_mb": "MB",
    "rss.after_report_mb": "MB",
    "trace.overhead_s": "s",
    "time.raw_wall_s": "s",
    "distance.raw_wall_s": "s",
    "host.speed": "ratio",
}

# printed beside the end-to-end metrics, not bounded: on a shared host
# they swing with the host's speed
RAW = {"time.raw_wall_s": "s", "distance.raw_wall_s": "s", "setup.raw_s": "s"}


@dataclass
class Subject:
    """A generated input and what its reports are checked against."""

    source: list  # case.py arguments naming the input
    inst: object  # GeneralInstance the plans must fit
    customers: frozenset  # every raw customer label
    t_star: int


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_sample():
    """Seconds from starting a fresh interpreter to ``import pathrd,
    pathrd.cli`` done, and the host calibration around it."""
    before = calibrate()
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import pathrd, pathrd.cli"], env=child_env(), check=True)
    elapsed = time.perf_counter() - start
    return {"wall_s": elapsed, "cal_s": (before + calibrate()) / 2}


def _distance_feasible_cli(path, deadline, work):
    from pathrd import cli

    with redirect_stdout(io.StringIO()):
        code = cli.main(["solve", str(path), "--objective", "distance",
                         "--deadline", str(deadline), "--out", str(work / "below.json")])
    return code != 1


def build(workload, seed, work):
    """Generate the input, write it, and return (Subject, problems of the
    document itself).  The document check: distance at T* - 1 must be
    infeasible, so no plan beats the time optimum T*."""
    import workloads as wl
    from pathrd import EMPTY_SIDE, GeneralInstance, Infeasible, parse_instance, split_at_depot
    from pathrd import solve_distance_heap, solve_time_linear

    if workload == "canonical-default":
        side = wl.canonical_default(wl.CANONICAL_N, seed)
        t_star = solve_time_linear(side)[1].value
        try:
            solve_distance_heap(side, t_star - 1)
            feasible_below = True
        except Infeasible:
            feasible_below = False
        subject = Subject(["--canonical", str(seed), str(wl.CANONICAL_N)],
                          GeneralInstance(EMPTY_SIDE, side), frozenset(side.labels), t_star)
    else:
        if workload == "raw-dense":
            dense = wl.raw_dense(wl.RAW_DENSE_N, seed)
            text, t_star = dense.text, dense.t_star
        elif workload == "raw-uniform":
            text, t_star = wl.raw_uniform(wl.RAW_UNIFORM_N, seed)
        else:
            text, t_star = wl.grid_2d(wl.GRID_N, seed)
        path = work / "doc.json"
        path.write_text(text)
        raw = parse_instance(text)
        customers = frozenset(v for v in raw.order if v != raw.depot)
        subject = Subject(["--doc", str(path)], split_at_depot(raw), customers, t_star)
        feasible_below = _distance_feasible_cli(path, t_star - 1, work)
    if feasible_below:
        return subject, [f"distance is feasible at T* - 1 = {t_star - 1}"]
    return subject, []


def judge(subject, objective, report_path):
    """Read a case's report back, delete it, and return its problems."""
    from check import report_problems

    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc!r}"]
    report_path.unlink()
    return report_problems(subject.inst, subject.customers, report, objective, subject.t_star)


def run_case(subject, objective, traced, case_id, work):
    """Run one case in a fresh process; returns (result or None, problems)."""
    out = work / f"report-{case_id}.json"
    cmd = [sys.executable, str(HERE / "case.py"), "--objective", objective,
           "--out", str(out), *subject.source] + (["--trace"] if traced else [])
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=CASE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [f"timed out after {CASE_TIMEOUT_S} s"]
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, [f"exit code {proc.returncode}: {tail[0]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, judge(subject, objective, out)


def closed_loop(subject, traced, seconds, work, setup):
    """Run rounds of cases until one more round would overrun the budget.

    A round is a time case and a distance case; traced, each is preceded
    by its untraced twin.  Untraced, each round also starts one fresh
    interpreter for a set-up sample, appended to ``setup``, so set-up
    is sampled across the whole run.  Returns the list of case records."""
    round_plan = [(obj, t) for obj in ("time", "distance")
                  for t in ((False, True) if traced else (False,))]
    cases = []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        if not traced:
            setup.append(setup_sample())
        for objective, is_traced in round_plan:
            case_id = len(cases)
            result, problems = run_case(subject, objective, is_traced, case_id, work)
            for problem in problems:
                print(f"case {case_id} ({objective}) FAILED: {problem}")
            cases.append({"id": case_id, "objective": objective, "traced": is_traced,
                          "result": result, "ok": result is not None and not problems})
        now = time.monotonic()
        if now - start + (now - round_start) > seconds:
            return cases


def summary(values):
    """(median, q1, q3, n) of a sample."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, len(values)


def end_to_end(cases, setup):
    """Samples of the end-to-end metrics and of their raw walls.  Times
    are scaled to the reference host speed."""
    samples = {
        "setup_s": [s["wall_s"] * scale(s["cal_s"]) for s in setup],
        "setup.raw_s": [s["wall_s"] for s in setup],
    }

    def add(name, value):
        samples.setdefault(name, []).append(value)

    for case in cases:
        if case["ok"]:
            obj = case["objective"]
            result = case["result"]
            add(f"{obj}.wall_s", result["wall_s"] * scale(result["cal_s"]))
            add(f"{obj}.raw_wall_s", result["wall_s"])
            add(f"{obj}.peak_rss_mb", result["peak_rss_mb"])
    return samples


def self_times(spans):
    """Each span's duration minus the part its direct children cover."""
    out = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            out[span["parent"]] -= span["end"] - span["start"]
    return out


def per_layer(cases, dump):
    """Per-layer samples from traced cases, each paired with the untraced
    case of the same objective run just before it.  Appends every span,
    with the case id and its self time, to ``dump["spans"]`` and each
    case's counts to ``dump["counts"]``.  Times are scaled to the
    reference host speed by each case's own calibration."""
    samples = {}

    def add(name, value):
        samples.setdefault(name, []).append(value)

    for prev, case in zip(cases, cases[1:]):
        if not (case["traced"] and case["ok"] and prev["ok"]):
            continue
        result = case["result"]
        untraced = prev["result"]
        factor = scale(result["cal_s"])
        spans = result["spans"]
        own = [t * factor for t in self_times(spans)]
        for span, self_s in zip(spans, own):
            dump["spans"].append({**span, "case": case["id"], "self_s": self_s})
        durations = {span["name"]: (span["end"] - span["start"]) * factor for span in spans}
        for name, value in durations.items():
            if name != "case":
                add(f"{name}_s", value)
        for layer in SOLVER_LAYERS:
            if f"{layer}.solve" in durations:
                add(f"{layer}.sweep_s",
                    durations[f"{layer}.solve"] - durations[f"{layer}.reconstruct"])
        counts = result["counts"]
        dump["counts"].append({"case": case["id"], **counts})
        for name, value in counts.items():
            add(name, value)
        if "instance.customers" in counts:
            add("instance.kept_ratio", counts["instance.survivors"] / counts["instance.customers"])
        # the case span's self time: what no layer span covers, so the
        # layer spans plus cli.other_s are the traced wall, which is the
        # untraced wall plus trace.overhead_s
        add("cli.other_s", own[0])
        add("trace.overhead_s",
            result["wall_s"] * factor - untraced["wall_s"] * scale(untraced["cal_s"]))
        add(f"{case['objective']}.raw_wall_s", untraced["wall_s"])
        add("host.speed", factor)
    # counts and RSS readings differ between the objectives, so a median
    # of the two would describe neither: report the larger
    return {name: values if PER_LAYER[name] in ("s", "ratio") else [max(values)]
            for name, values in samples.items()}


def emit(samples, units):
    """Print each metric's median, quartiles and sample count; return the
    metrics object.  A metric without samples, such as a layer the
    workload never calls, reads 0."""
    metrics = {}
    for name, unit in units.items():
        values = samples.get(name)
        if values:
            median, q1, q3, n = summary(values)
            print(f"{name:34s} {median:14.6f} {unit:5s} q1 {q1:.6f} q3 {q3:.6f} n={n}")
        else:
            median = 0
            print(f"{name:34s} {'-':>14s} {unit:5s} no samples")
        metrics[name] = {"value": median, "unit": unit}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pathrd" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'pathrd'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    work = STATE / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_sample()  # compiles the bytecode, which users pay once
        subject, doc_problems = build(args.workload, args.seed, work)
        for problem in doc_problems:
            print(f"document FAILED: {problem}")
        setup = []
        cases = closed_loop(subject, bool(args.trace), args.seconds, work, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {len(cases)} cases, "
          f"closed loop, 1 client, {os.cpu_count()} cores, Python {sys.version.split()[0]}")
    if args.trace:
        dump = {"spans": [], "counts": []}
        metrics = emit(per_layer(cases, dump), PER_LAYER)
        path = STATE / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({**dump, "metrics": metrics}, indent=1))
        print(f"spans and counts written to {path}")
    else:
        samples = end_to_end(cases, setup)
        emit(samples, RAW)
        metrics = emit(samples, END_TO_END)
    failed = sum(not case["ok"] for case in cases) + len(doc_problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(cases) + 1,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
