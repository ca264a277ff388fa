"""One benchmark case, run in a fresh process by ``run.py``.

Usage:
    case.py --objective time|distance --out REPORT --doc PATH [--trace]
    case.py --objective time|distance --out REPORT --canonical SEED N [--trace]

Untraced, a document case times ``pathrd.cli.main(["solve", ...])`` from
reading the file to the written report, after imports; a canonical case
times the bare 1-D fast solver call on ``random_canonical_side(N, SEED)``
and writes its report untimed.  Traced, the same pipeline is replayed
one module call at a time inside spans, and each solver's plan
reconstruction is re-run on the returned trace.  The timed region is
bracketed by host-speed calibrations (see ``hostspeed``).  The last
stdout line is a JSON object: wall time, calibration, peak RSS and,
when traced, spans and counts.
"""

import argparse
import io
import json
import resource
import sys
import time
from contextlib import contextmanager, redirect_stdout

import hostspeed
from pathrd import EMPTY_SIDE, GeneralInstance, cli
from pathrd import distance_extremity, distance_general, time_extremity, time_general
from pathrd.instance import parse_instance, random_canonical_side, split_at_depot
from pathrd.solution import DISTANCE, LEFT, RIGHT, TIME


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Spans and counts kept in memory; parent is the index of the
    enclosing span, or None at the top."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._open = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = {"name": name, "start": start, "end": end, "parent": parent}


def pick(inst, objective):
    """The fast solver ``pathrd solve`` dispatches to, as (layer name,
    solve(deadline), rebuild(trace)); rebuild re-runs only the
    module's plan reconstruction."""
    if inst.left.n and inst.right.n:
        if objective == TIME:
            return (
                "time_general",
                lambda deadline: time_general.solve_time_2d_minqueue(inst),
                lambda tr: time_general._build_solution(inst, tr.c, tr.pred),
            )
        return (
            "distance_general",
            lambda deadline: distance_general.solve_distance_2d_heap(inst, deadline),
            lambda tr: distance_general._build_solution(inst, tr.lam, tr.succ),
        )
    side, label = (inst.left, LEFT) if inst.right.n == 0 else (inst.right, RIGHT)
    if objective == TIME:
        return (
            "time_extremity",
            lambda deadline: time_extremity.solve_time_linear(side, label=label),
            lambda tr: time_extremity._build_solution(side, label, tr.c, tr.pred),
        )
    return (
        "distance_extremity",
        lambda deadline: distance_extremity.solve_distance_heap(side, deadline, label=label),
        lambda tr: distance_extremity._build_solution(side, label, tr.lam, tr.succ),
    )


def _table_counts(layer, trace):
    table = trace.c if hasattr(trace, "c") else trace.lam
    rows = table if isinstance(table[0], list) else [table]
    counts = {f"{layer}.states": sum(len(row) for row in rows)}
    if hasattr(trace, "lam"):
        present = sum(v is not None for row in rows for v in row)
        counts[f"{layer}.present_ratio"] = present / counts[f"{layer}.states"]
    return counts


def _report_text(layer, objective, solution, deadline):
    """The report ``pathrd solve`` writes, minus its instance summary."""
    report = {
        "algorithm": layer,
        "objective": objective,
        "status": "optimal",
        "value": solution.value,
        "routes": [cli._route_doc(route) for route in solution.routes],
    }
    if objective == DISTANCE:
        report["deadline"] = deadline
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def document_untraced(path, objective, out):
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()):
        code = cli.main(["solve", path, "--objective", objective, "--out", out])
    return {"exit": code, "wall_s": time.perf_counter() - start}


def calibrated(run, *args):
    """run(*args) bracketed by calibrations; adds their mean as cal_s."""
    before = hostspeed.calibrate()
    result = run(*args)
    result["cal_s"] = (before + hostspeed.calibrate()) / 2
    return result


def document_traced(path, objective, out):
    tr = Tracer()
    rss = {}
    with tr.span("case"):
        with open(path) as fh:
            text = fh.read()
        with tr.span("instance.json_decode"):
            doc = json.loads(text)
        with tr.span("instance.parse"):
            raw = parse_instance(doc)
        rss["rss.after_parse_mb"] = peak_rss_mb()
        with tr.span("instance.split"):
            inst = split_at_depot(raw)
        rss["rss.after_split_mb"] = peak_rss_mb()
        deadline = raw.deadline if objective == DISTANCE else None
        layer, solve, rebuild = pick(inst, objective)
        with tr.span(f"{layer}.solve"):
            trace, solution = solve(deadline)
        rss["rss.after_solve_mb"] = peak_rss_mb()
        with tr.span("cli.report"):
            text = _report_text(layer, objective, solution, deadline)
        _write(out, text)
        rss["rss.after_report_mb"] = peak_rss_mb()
    with tr.span(f"{layer}.reconstruct"):
        rebuild(trace)
    sides = (inst.left, inst.right)
    tr.counts.update(rss)
    tr.counts.update(_table_counts(layer, trace))
    tr.counts.update({
        "instance.customers": raw.n_customers,
        "instance.survivors": sum(side.n for side in sides),
        "instance.riders": sum(len(pack) for side in sides for pack in side.riders),
        f"{layer}.routes": len(solution.routes),
        "cli.report_bytes": len(text),
        "cli.deliveries": sum(len(route.deliveries) for route in solution.routes),
    })
    return {"exit": 0, "wall_s": tr.spans[0]["end"] - tr.spans[0]["start"],
            "spans": tr.spans, "counts": tr.counts}


def canonical(side, deadline, objective, out, traced):
    layer, solve, rebuild = pick(GeneralInstance(EMPTY_SIDE, side), objective)
    tr = Tracer()
    with tr.span("case"):
        if traced:
            with tr.span(f"{layer}.solve"):
                trace, solution = solve(deadline)
        else:
            trace, solution = solve(deadline)
    result = {"exit": 0, "wall_s": tr.spans[0]["end"] - tr.spans[0]["start"]}
    if traced:
        tr.counts["rss.after_solve_mb"] = peak_rss_mb()
        with tr.span(f"{layer}.reconstruct"):
            rebuild(trace)
        tr.counts.update(_table_counts(layer, trace))
        tr.counts[f"{layer}.routes"] = len(solution.routes)
        result.update(spans=tr.spans, counts=tr.counts)
    _write(out, _report_text(layer, objective, solution, deadline))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--objective", choices=(TIME, DISTANCE), required=True)
    parser.add_argument("--out", required=True)
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--doc")
    source.add_argument("--canonical", nargs=2, type=int, metavar=("SEED", "N"))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.canonical:
        side = random_canonical_side(args.canonical[1], args.canonical[0])
        deadline = None
        if args.objective == DISTANCE:
            deadline = time_extremity.solve_time_linear(side)[1].value
        result = calibrated(canonical, side, deadline, args.objective, args.out, args.trace)
    elif args.trace:
        result = calibrated(document_traced, args.doc, args.objective, args.out)
    else:
        result = calibrated(document_untraced, args.doc, args.objective, args.out)
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return result["exit"]


if __name__ == "__main__":
    sys.exit(main())
