"""The package's import layering, read from its source with ast.

Every import sits at module level, so importing a module is all it
ever imports.  The 1-D modules, time_extremity and distance_extremity,
are views over the 2-D modules that hold each objective's DP, so within
pathrd only the package's __init__ imports them.  The two DP modules,
time_general and distance_general, stand apart: neither imports the
other.  Every move of a time cursor or window and every slide of a
distance front lives in the line kernels, _time_line and
_distance_line: neither solve_time_2d_minqueue nor
solve_distance_2d_heap holds a while loop, so no column step grows
back inline.  Both 2-D solvers fill one table shape, in the same kernel
calls: the left side's line in one call, the column with no right term
(column 0 for time, column n_r for distance), then, with a right side,
its first row in one call (row 0 for time, the bottom row for distance)
and each other row in one call with column work.  Both kernels keep one
fill rule: a numpy block of time states or a slice run of distance
states is filled only on a line without column work, a 1-D line, the
left side's line or a 2-D solve's first row; a row with column work
takes every state on the scalar loop.  Only the scalar loops assert the
invariants, _check_line and _check_top; a numpy or slice fill is
checked against the scalar loop's fill of the same line, so it takes
no check of its own.
"""

import ast
import inspect
import itertools
from pathlib import Path

import pathrd
from pathrd import GeneralInstance, Infeasible, distance_general, random_canonical_side, time_general
from pathrd.distance_general import solve_distance_2d_heap
from pathrd.time_general import solve_time_2d_minqueue

from helpers import BLOCK_LEFT, dense_time_sides, spy_fills_by_column_work

SOURCES = sorted(Path(pathrd.__file__).parent.glob("*.py"))
VIEWS = {"time_extremity", "distance_extremity"}


def _imported_modules(node):
    """The pathrd module names an import statement names, as far as it
    can tell; `from . import x` counts x."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[-1] for alias in node.names}
    names = set((node.module or "").split("."))
    if node.level or node.module == "pathrd":
        names |= {alias.name for alias in node.names}
    return names


def test_no_import_inside_a_function():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [
                    f"{path.name}:{sub.lineno}"
                    for sub in ast.walk(node)
                    if isinstance(sub, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


def test_only_the_package_imports_the_1d_views():
    assert {"__init__", "time_general", "distance_general"} | VIEWS <= {p.stem for p in SOURCES}
    found = []
    for path in SOURCES:
        if path.stem == "__init__":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and _imported_modules(node) & VIEWS:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_dp_modules_import_nothing_from_each_other():
    dps = {"time_general", "distance_general"}
    found = []
    for path in SOURCES:
        if path.stem not in dps:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and _imported_modules(node) & (dps - {path.stem}):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_2d_solvers_move_no_cursor_window_or_front_themselves():
    found = {}
    for module, name in (("time_general", "solve_time_2d_minqueue"), ("distance_general", "solve_distance_2d_heap")):
        source = (Path(pathrd.__file__).parent / f"{module}.py").read_text()
        (solver,) = [
            node
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name == name
        ]
        found[name] = [node.lineno for node in ast.walk(solver) if isinstance(node, ast.While)]
    assert found == {"solve_time_2d_minqueue": [], "solve_distance_2d_heap": []}


def test_only_the_scalar_loops_assert_the_invariants():
    callers = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                callers |= {
                    (path.stem, node.name, sub.func.id)
                    for sub in ast.walk(node)
                    if isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id in ("_check_line", "_check_top")
                }
    assert callers == {
        ("time_general", "_time_line", "_check_line"),
        ("distance_general", "_distance_line", "_check_top"),
    }
    for fill in (time_general._time_block, distance_general._run_values):
        assert "check" not in inspect.signature(fill).parameters


def test_both_2d_solvers_fill_one_table_shape(monkeypatch):
    # in every shape, either objective fills the left side's line in one
    # kernel call without cols, then, with a right side, its first row in
    # one more and each other row with column work
    calls = []
    for module, kernel in ((time_general, "_time_line"), (distance_general, "_distance_line")):
        line = getattr(module, kernel)
        params = inspect.signature(line)

        def spied(*args, line=line, params=params):
            calls.append((args[0], params.bind(*args).arguments.get("cols") is not None))
            return line(*args)

        monkeypatch.setattr(module, kernel, spied)
    for nl, nr in itertools.product((0, 1, 7, 40), repeat=2):
        left = random_canonical_side(nl, 2 * nl + 1)
        right = random_canonical_side(nr, 2 * nr + 2)
        inst = GeneralInstance(left, right)
        want = [(left, False)]
        if nr:
            want += [(right, False)] + [(right, True)] * nl
        del calls[:]
        _, plan = solve_time_2d_minqueue(inst)
        assert calls == want, ("time", nl, nr)
        for deadline in (plan.value - 1, plan.value, 2 * plan.value + 3):
            del calls[:]
            try:
                solve_distance_2d_heap(inst, deadline)
            except Infeasible:
                pass
            assert calls == want, ("distance", nl, nr, deadline)


def test_fills_run_only_on_lines_without_column_work(monkeypatch):
    # skinny one-route pairs both ways round and a many-route pair whose
    # rows above the first are long: both kernels fill their first
    # lines, and no row with column work; the long left line of the
    # flipped pair takes a distance run
    fills = spy_fills_by_column_work(monkeypatch)
    runs = []
    run_values = distance_general._run_values

    def spied(top, side, lo, hi):
        runs.append(side)
        return run_values(top, side, lo, hi)

    monkeypatch.setattr(distance_general, "_run_values", spied)
    skinny = GeneralInstance(random_canonical_side(30, 5), random_canonical_side(3000, 6))
    flipped = GeneralInstance(random_canonical_side(3000, 5), random_canonical_side(30, 6))
    for inst in (skinny, GeneralInstance(BLOCK_LEFT, dense_time_sides()[0])):
        _, plan = solve_time_2d_minqueue(inst)
        solve_distance_2d_heap(inst, plan.value)
    assert {name for name, _ in fills} == {"_time_block", "_run_values"}
    _, plan = solve_time_2d_minqueue(flipped)
    for deadline in (plan.value, 2 * plan.value):
        del runs[:]
        solve_distance_2d_heap(flipped, deadline)
        assert any(side is flipped.left for side in runs), deadline
    assert not any(cols for _, cols in fills)
