"""Command-line front end.

Subcommands: ``solve`` runs one algorithm on one instance and writes a
JSON report, ``generate`` writes random instance documents, ``crosscheck``
compares the fast solvers against the baselines (and the exhaustive
oracle when the instance is small enough), ``bench`` emits CSV timings,
and ``validate`` re-checks a report against its instance.

Exit codes: 0 on success, 1 when a distance instance is infeasible or a
report fails validation, 2 on usage errors, 3 on crosscheck mismatches.
"""

import argparse
import json
import os
import random
import sys
import time
from dataclasses import replace
from typing import Callable, NamedTuple

from .distance_general import solve_distance_2d_cubic, solve_distance_2d_heap
from .errors import Infeasible, OutOfRange, PathrdError
from .instance import (
    EMPTY_SIDE,
    GeneralInstance,
    _admit,
    _check_magnitude,
    _is_int,
    _is_num,
    generate_instance,
    parse_instance,
    random_canonical_side,
    split_at_depot,
)
from .oracle import (
    ORACLE_MAX_CUSTOMERS,
    Violation,
    oracle_distance,
    oracle_time,
    validate_solution,
)
from .solution import DISTANCE, TIME, Route, Solution
from .time_general import solve_time_2d_cubic, solve_time_2d_minqueue

__all__ = ["main"]

BASELINE = "baseline"
FAST = "fast"


class Solver(NamedTuple):
    """One solver behind ``solve``, ``bench`` and ``crosscheck``: op
    takes the whole instance, and the deadline for distance.  names is
    the (one-sided, two-sided) pair that reports and ``bench --algo``
    use; a one-sided document is right-only, so op solves it as the
    1-D solver of the first name, one row long."""

    objective: str
    family: str
    op: Callable
    names: tuple[str, str]

    def name_for(self, inst):
        return self.names[inst.left.n > 0 and inst.right.n > 0]


# one solver per (objective, family), the baseline first: crosscheck
# takes the first one's value as the reference
SOLVERS = (
    Solver(TIME, BASELINE, solve_time_2d_cubic, ("time_quadratic", "time_2d_cubic")),
    Solver(TIME, FAST, solve_time_2d_minqueue, ("time_linear", "time_2d_minqueue")),
    Solver(DISTANCE, BASELINE, solve_distance_2d_cubic, ("distance_quadratic", "distance_2d_cubic")),
    Solver(DISTANCE, FAST, solve_distance_2d_heap, ("distance_heap", "distance_2d_heap")),
)
# every name bench --algo takes: its solver, and whether it is the two-sided name
_BENCH_NAMES = {name: (solver, two) for solver in SOLVERS for two, name in enumerate(solver.names)}

BENCH_HEADER = "algo,objective,n_left,n_right,rep,wall_ns,value"


def _number(text):
    """Parse a CLI number, keeping integers exact, and admit it as a
    document's deadline is admitted (instance._admit)."""
    try:
        value = int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            value = text  # no number, which _admit refuses
    try:
        return _admit(value, "value")
    except PathrdError as exc:
        raise argparse.ArgumentTypeError(f"{exc}: {text!r}") from None


def _integer(least):
    """An argparse type: an integer of at least `least`."""

    def integer(text):
        value = int(text)  # argparse turns a ValueError into a usage error
        if value < least:
            raise argparse.ArgumentTypeError(f"below {least}: {text!r}")
        return value

    return integer


def _sizes(text):
    """bench's comma-separated sizes, whole numbers that _number accepts,
    so "1e5" reads as 100000."""
    sizes = [_number(token) for token in text.split(",") if token.strip()]
    if not sizes or any(size != int(size) for size in sizes):
        raise argparse.ArgumentTypeError(f"not a list of whole numbers: {text!r}")
    return [int(size) for size in sizes]


def _read_instance(path, parser):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read {path}: {exc}")
    try:
        return parse_instance(text)
    except PathrdError as exc:
        parser.error(f"bad instance {path}: {exc}")


def _pick_solver(objective, family):
    """The solver of this family for the objective."""
    return next(s for s in SOLVERS if (s.objective, s.family) == (objective, family))


def _run(solver, inst, deadline=None):
    """Call solver on inst, with the deadline for distance."""
    if solver.objective == DISTANCE:
        return solver.op(inst, deadline)
    return solver.op(inst)


def _route_doc(route):
    return {
        "side": route.side,
        "lo": route.lo,
        "hi": route.hi,
        "dispatch": route.dispatch,
        "duration": route.duration,
        "completion": route.completion,
        "deliveries": list(route.deliveries),
    }


# a route's deliveries in the indented report: the key sits at depth 3,
# its items one level deeper
_NO_DELIVERIES = '"deliveries": []'
_DELIVERY_SEPARATORS = (",\n        ", ": ")


def _report_text(report):
    """json.dumps(report, sort_keys=True, indent=2) + "\\n", byte for
    byte, for a solve report, whose every route delivers someone.  With
    indent set, json.dumps runs its pure-Python encoder, so the report
    goes through it with every route's deliveries empty, and the labels
    go through the C encoder, which the separators indent.

    Inside a JSON string every '"' is escaped, so _NO_DELIVERIES occurs
    in the envelope only as the routes' own keys, in route order."""
    routes = report["routes"]
    envelope = dict(report, routes=[dict(route, deliveries=[]) for route in routes])
    pieces = json.dumps(envelope, sort_keys=True, indent=2).split(_NO_DELIVERIES)
    out = [pieces[0]]
    for route, rest in zip(routes, pieces[1:]):
        labels = json.dumps(route["deliveries"], separators=_DELIVERY_SEPARATORS)
        out += ['"deliveries": [\n        ', labels[1:-1], "\n      ]", rest]
    out.append("\n")
    return "".join(out)


def _report(value, ok, what):
    """A report's field, refused with TypeError unless ok(value)."""
    if not ok(value):
        raise TypeError(f"{what} {value!r} is malformed")
    return value


def _is_str(x):
    return isinstance(x, str)


def _solution_from_report(report):
    routes = tuple(
        Route(
            side=_report(item["side"], _is_str, "side"),
            lo=_report(item["lo"], _is_int, "lo"),
            hi=_report(item["hi"], _is_int, "hi"),
            dispatch=_report(item["dispatch"], _is_num, "dispatch"),
            duration=_report(item["duration"], _is_num, "duration"),
            deliveries=tuple(_report(label, _is_int, "delivery") for label in item["deliveries"]),
        )
        for item in report["routes"]
    )
    claims = [_report(item["completion"], _is_num, "completion") for item in report["routes"]]
    objective = _report(report["objective"], _is_str, "objective")
    return Solution(objective, _report(report["value"], _is_num, "value"), routes), claims


def _emit(text, out_path, parser):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        parser.error(f"cannot write {out_path}: {exc}")


_NO_DEADLINE = "the distance objective needs --deadline (or a 'deadline' field in the instance document)"


def cmd_solve(args):
    raw = _read_instance(args.instance, args.parser)
    inst = split_at_depot(raw)
    deadline = None
    if args.objective == DISTANCE:
        deadline = args.deadline if args.deadline is not None else raw.deadline
        if deadline is None:
            args.parser.error(_NO_DEADLINE)
    solver = _pick_solver(args.objective, args.algo)
    name = solver.name_for(inst)

    start = time.perf_counter_ns()
    try:
        _, solution = _run(solver, inst, deadline)
        status = "optimal"
        value = solution.value
        routes = [_route_doc(route) for route in solution.routes]
    except Infeasible:
        status = "infeasible"
        value = None
        routes = []
    wall_ns = time.perf_counter_ns() - start

    report = {
        "algorithm": name,
        "objective": args.objective,
        "status": status,
        "value": value,
        "routes": routes,
        "wall_ns": wall_ns,
        "instance": {
            "path": args.instance,
            "customers": raw.n_customers,
            "depot": raw.depot,
            "n_left": inst.left.n,
            "n_right": inst.right.n,
        },
    }
    if args.objective == DISTANCE:
        report["deadline"] = deadline
    _emit(_report_text(report), args.out, args.parser)
    if args.out is not None:
        print(f"{status}: value {value} ({name}), report in {args.out}")
    return 0 if status == "optimal" else 1


def _feasible_deadlines(m):
    """The least and greatest deadline generate draws, m being the
    document's largest release + 2 * total edge length, which one route
    per side dispatched after the last release meets."""
    return m, m + max(m, 10)


def _slack_deadlines(makespan):
    """The least and greatest slack deadline crosscheck draws."""
    return makespan + 1, 2 * makespan + 10


def _refuse_out_of_range(args, customers, deadlines):
    """Usage error unless the worst instance args can draw is admissible:
    customers max_edge apart, all released at max_release, and the
    latest of deadlines(m), m = max_release + one full trip per side."""
    total = customers * args.max_edge
    m = args.max_release + 2 * total
    try:
        _check_magnitude((args.max_release,), (total,), customers)
        _admit(deadlines(m)[1], "deadline")
    except OutOfRange as exc:
        args.parser.error(f"arguments --max-edge and --max-release, {customers} customers: {exc}")


def cmd_generate(args):
    if args.count > 1 and args.out is None:
        args.parser.error("--out DIR is required when --count exceeds 1")
    _refuse_out_of_range(args, args.left + args.right, _feasible_deadlines)
    if args.out is not None:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            args.parser.error(f"cannot write {args.out}: {exc}")
    rng = random.Random(args.seed)
    for i in range(args.count):
        raw = generate_instance(
            args.left, args.right, args.max_edge, args.max_release, rng.randrange(2**32)
        )
        m = max(raw.release.values(), default=0) + 2 * sum(raw.lengths)
        raw = replace(raw, deadline=rng.randint(*_feasible_deadlines(m)))
        path = None if args.out is None else os.path.join(args.out, f"instance_{i:04d}.json")
        _emit(json.dumps(raw.to_document(), sort_keys=True, indent=2) + "\n", path, args.parser)
    if args.out is not None:
        print(f"wrote {args.count} instances to {args.out}")
    return 0


def _crosscheck(inst, objective, deadline=None, optimum=None):
    """Run the objective's baseline and fast solver once each, None
    standing for a solver that finds no plan, and validate each plan;
    returns each solver's value by name and one message per fault: a
    plan that fails validation, solvers that disagree, a distance solver
    that finds a plan when the time optimum, optimum, misses the
    deadline or none when it meets it, or, on instances small enough, a
    value other than the oracle's."""
    values = {}
    problems = []
    where = objective if deadline is None else f"deadline {deadline}"
    for solver in SOLVERS:
        if solver.objective != objective:
            continue
        name = solver.name_for(inst)
        try:
            _, solution = _run(solver, inst, deadline)
        except Infeasible:
            values[name] = None
            continue
        values[name] = solution.value
        bad = validate_solution(inst, solution, deadline=deadline)
        problems.extend(f"{name} witness: {v.kind}: {v.detail}" for v in bad)
    if objective == DISTANCE:
        # a plan meets the deadline exactly when the time optimum does
        problems.extend(
            f"{where}: {name} value {value}, time optimum {optimum}"
            for name, value in values.items()
            if (value is None) != (optimum > deadline)
        )
    if len(set(values.values())) > 1:
        problems.append(f"{where}: disagreement {values}")
    reference = next(iter(values.values()))
    if inst.left.n + inst.right.n <= ORACLE_MAX_CUSTOMERS:
        oracle = oracle_time(inst) if objective == TIME else oracle_distance(inst, deadline)
        if reference != oracle.value:
            problems.append(f"{where}: value {reference} != oracle {oracle.value}")
    return values, problems


def cmd_crosscheck(args):
    _refuse_out_of_range(args, args.max_n, _slack_deadlines)
    rng = random.Random(args.seed)
    mismatches = 0
    for _ in range(args.count):
        total = rng.randint(1, args.max_n)
        n_left = rng.randint(0, total)
        seed = rng.randrange(2**32)
        raw = generate_instance(n_left, total - n_left, args.max_edge, args.max_release, seed)
        inst = split_at_depot(raw)
        if args.objective == "distance":
            # each time solver's value, unchecked
            problems = []
            values = {s.name_for(inst): _run(s, inst)[1].value for s in SOLVERS if s.objective == TIME}
        else:
            values, problems = _crosscheck(inst, TIME)
        if args.objective != "time":
            # the baseline's makespan and the fast time optimum, each
            # solved once per instance: the optimum decides which
            # deadlines have a plan
            makespan, optimum = (values[_pick_solver(TIME, f).name_for(inst)] for f in (BASELINE, FAST))
            # span infeasible through slack around the optimal makespan
            for deadline in (makespan - 1, makespan, rng.randint(*_slack_deadlines(makespan))):
                problems.extend(_crosscheck(inst, DISTANCE, deadline, optimum)[1])
        if problems:
            mismatches += 1
            print(f"mismatch on instance seed {seed}:", file=sys.stderr)
            for line in problems:
                print(f"  {line}", file=sys.stderr)
            print(f"  document: {json.dumps(raw.to_document(), sort_keys=True)}", file=sys.stderr)
    print(f"checked {args.count} instances: {mismatches} mismatches")
    return 3 if mismatches else 0


def _bench_case(solver, two_sided, size, seed):
    """Build the instance one bench run needs and a call that solves it,
    at the fast time optimum as deadline for distance."""
    first = random_canonical_side(size, seed)
    if two_sided:
        inst = GeneralInstance(first, random_canonical_side(size, seed + 1))
    else:
        inst = GeneralInstance(EMPTY_SIDE, first)
    deadline = None
    if solver.objective == DISTANCE:
        deadline = _run(_pick_solver(TIME, FAST), inst)[1].value
    return inst, lambda: _run(solver, inst, deadline)


def cmd_bench(args):
    solver, two_sided = _BENCH_NAMES[args.algo]
    rows = [BENCH_HEADER]
    for size in args.sizes:
        for rep in range(args.reps):
            seed = args.seed * 1_000_003 + size * 1_009 + 2 * rep
            inst, run = _bench_case(solver, two_sided, size, seed)
            start = time.perf_counter_ns()
            _, solution = run()
            wall_ns = time.perf_counter_ns() - start
            rows.append(
                f"{args.algo},{solver.objective},{inst.left.n},{inst.right.n},{rep},"
                f"{wall_ns},{solution.value}"
            )
    _emit("\n".join(rows) + "\n", args.csv, args.parser)
    return 0


def _refute_infeasible(inst, objective, deadline):
    """Violations of a report's claim that no plan exists.  A plan that
    finishes by the deadline exists exactly when the time optimum does,
    so the fast time solver's plan refutes the claim when it validates
    at the deadline, without the distance DP."""
    if objective != DISTANCE:
        return [
            Violation("infeasible", "only the distance objective with a deadline can be infeasible")
        ]
    solver = _pick_solver(TIME, FAST)
    name = solver.name_for(inst)
    _, solution = _run(solver, inst)
    if validate_solution(inst, solution, deadline=deadline):
        print(f"infeasible at deadline {deadline}, confirmed: {name} gives time optimum {solution.value}")
        return []
    return [
        Violation(
            "infeasible",
            f"{name} finds a plan of makespan {solution.value} by deadline {deadline}",
        )
    ]


def cmd_validate(args):
    raw = _read_instance(args.instance, args.parser)
    inst = split_at_depot(raw)
    try:
        with open(args.solution) as fh:
            report = json.load(fh)
        status = _report(report.get("status"), lambda s: s in ("optimal", "infeasible"), "status")
        infeasible = status == "infeasible"
        objective = report.get("objective")
        solution, claims = (None, None) if infeasible else _solution_from_report(report)
        deadline = report.get("deadline")
        if deadline is not None:
            _admit(deadline, "deadline")
    except (OSError, ValueError, KeyError, TypeError, AttributeError, PathrdError) as exc:
        args.parser.error(f"bad solution file {args.solution}: {exc!r}")
    if args.deadline is not None:
        deadline = args.deadline
    if deadline is None and objective == DISTANCE:
        deadline = raw.deadline
        if deadline is None:
            args.parser.error(_NO_DEADLINE)
    if infeasible:
        violations = _refute_infeasible(inst, objective, deadline)
    else:
        violations = validate_solution(inst, solution, deadline=deadline)
        violations += [
            Violation("completion", f"route {k} claims {claim}, dispatch + duration is {route.completion}")
            for k, (route, claim) in enumerate(zip(solution.routes, claims)) if claim != route.completion
        ]
    for violation in violations:
        print(f"{violation.kind}: {violation.detail}", file=sys.stderr)
    print(f"{len(violations)} violations")
    return 1 if violations else 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pathrd",
        description="Exact solvers for delivery routing on a path with release dates.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve", help="solve one instance and write a JSON report")
    p.add_argument("instance", help="instance JSON file, or - for stdin")
    p.add_argument("--objective", choices=(TIME, DISTANCE), required=True)
    p.add_argument("--algo", choices=(BASELINE, FAST), default=FAST, help="solver family")
    p.add_argument("--deadline", type=_number, default=None,
                   help="deadline for the distance objective (overrides the document)")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.set_defaults(func=cmd_solve, parser=p)

    p = subs.add_parser("generate", help="write random instance documents")
    p.add_argument("--left", type=_integer(0), default=5, help="customers left of the depot")
    p.add_argument("--right", type=_integer(0), default=5, help="customers right of the depot")
    p.add_argument("--max-edge", type=_integer(0), default=10)
    p.add_argument("--max-release", type=_integer(0), default=50)
    p.add_argument("--seed", type=_integer(0), default=0)
    p.add_argument("--count", type=_integer(1), default=1)
    p.add_argument("--out", default=None, help="directory for the documents; stdout when --count is 1")
    p.set_defaults(func=cmd_generate, parser=p)

    p = subs.add_parser("crosscheck", help="compare fast solvers, baselines, and oracle")
    p.add_argument("--count", type=_integer(1), default=100)
    p.add_argument("--max-n", type=_integer(1), default=10)
    p.add_argument("--seed", type=_integer(0), default=0)
    p.add_argument("--objective", choices=(TIME, DISTANCE, "both"), default="both")
    p.add_argument("--max-edge", type=_integer(0), default=10)
    p.add_argument("--max-release", type=_integer(0), default=50)
    p.set_defaults(func=cmd_crosscheck, parser=p)

    p = subs.add_parser("bench", help="time one algorithm across instance sizes, CSV out")
    p.add_argument("--algo", choices=sorted(_BENCH_NAMES), required=True)
    p.add_argument("--sizes", type=_sizes, required=True, help="comma-separated, e.g. 1e3,1e4,1e5")
    p.add_argument("--reps", type=_integer(1), default=3)
    p.add_argument("--seed", type=_integer(0), default=0)
    p.add_argument("--csv", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_bench, parser=p)

    p = subs.add_parser("validate", help="re-check a solve report against its instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--solution", required=True, help="report written by solve")
    p.add_argument("--deadline", type=_number, default=None)
    p.set_defaults(func=cmd_validate, parser=p)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
