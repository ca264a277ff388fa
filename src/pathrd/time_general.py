"""Minimum completion time, the depot inside the path or at an end.

Each route stays on one side of the depot, so a plan interleaves
routes over the two canonical sides.  c[i][j] is the earliest return
with the first i left and first j right customers served.  The last
route picks up a suffix of one side's served prefix: it leaves once
the vehicle has returned and the suffix's last customer is released,
and drives to the farthest passenger and back,

    c[i][j] = min( min over w < i of  max(c[w][j], rl[i]) + 2 taul[w+1],
                   min over w < j of  max(c[i][w], rr[j]) + 2 taur[w+1] ),

1-based on the right-hand sides, with ties broken toward the left term
and the smallest w; pred[i][j] is w for the right term and (LEFT, w)
for the left.  The cubic baseline scans both terms of every state with
one full line scan, _scan.  A depot at an extremity is the case with an
empty left side: the table is one row, the 1-D table that
time_extremity's views return.

Along one line, tau strictly decreases, so the states released at or
before the line's release r form a prefix whose best candidate is its
last state, the cursor; the rest enter a sliding window of (a, w),
a = c[w] + 2 tau[w+1], kept monotone, its back popped while larger than
a new entry and its front popped once the cursor passes it.  Each entry
is pushed and popped at most once, so a state costs O(1) amortized.
The kernel _time_line runs one line that way, its window two flat
lists, values and indices, read from a head index.  The fast solver
runs it once per line: column 0, the left side's line, then each row,
the right side's, from row 0 on, in one sweep per row.  Above row 0,
each state j first advances column j's line by one state, the row
below, and takes the left term, then takes the right term from the
row's own cursor and window, the left term winning ties: O(n_l * n_r)
in all.
Each column's cursor, head and window lists live in lists the solver
passes in, so every cursor and window rule is written once, in the
kernel, and each side's doubled taus are computed once per solve.  Row
0 never decreases, so past a column whose first state is not released
at a row no column's is, and the kernel skips those cursors.  A state
not yet filled holds _UNSET, above every release, so the cursors stop
at it without a bound test.  A left-only instance is one line, the left
side's: one call of the kernel.

A line takes blocks under the one rule distance's lines follow, stated
in instance.block_line: it has no column work, as column 0, row 0 and
every 1-D line do, and it is an exact int line.  The states i+1..e with
r[e-1] < c[i] are all released before c[i], so each one's cursor lies
among the states up to i, whose c are known, and states i on all stay
in its window: numpy fills the block, the cursors by a searchsorted
over the known c, the window's least a past each cursor from those
states' suffix minima, and the block's own a by a running minimum, all
in int64, which holds every sum exactly, so each state takes the scalar
loop's winner and value.  Float, mixed and out-of-range lines stay on
the scalar loop.  Blocks follow each other from the last state of the
one before while they are _BLOCK states long; the window lists are
rebuilt once, when the scalar loop resumes.  A stretch where the cursor
k holds and its released candidate wins, c[i] = r[i-1] + 2 tau[k] and
pred[i] = k, ends once r[i-1] reaches c[k+1] <= c[i], so it lies inside
the block from its first state, and a one-route int line is one chain
of blocks.  A row above row 0 takes every state's column step anyway,
and stays on the scalar loop; so do lines whose blocks are shorter than
_BLOCK, such as grid-2d's rows.  With check=True, a line without column
work is filled twice, once as above on a copy and once by the scalar
loop, which asserts _check_line at every state, and the two fills must
be equal; a row with column work is filled once, by the scalar loop,
which asserts _check_line at every state and every column.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .instance import block_line, table_dtype
from .solution import LEFT, time_solution

__all__ = ["TimeDpTrace", "solve_time_2d_cubic", "solve_time_2d_minqueue"]

# Blocks are written into c in numpy slices of at most this many
# states, each before the next is converted, so a block holds O(1)
# memory for its own states; when a block is tried is _BLOCK's
# business, not this length's.
_CHUNK = 4096

# A block is filled only when it is at least this many states long: a
# block costs a few dozen numpy calls, which shorter ones, such as
# those of grid-2d's 300-state rows, would not repay.
_BLOCK = 256

# the known window's sentinel in a block: no entry, never the minimum;
# a block line's sums are at most 5 * 2**53 (instance.block_line)
_NONE = 2**62

# the value of a dead window entry, below every a
_DEAD = float("-inf")

# the value of a state not yet filled, above every release: it stops the
# cursors
_UNSET = float("inf")


@dataclass(frozen=True)
class TimeDpTrace:
    """c[i]: best completion for the first i customers; pred[i]: the j
    the minimum was taken at, ties to the smallest j, None at 0.  The
    2-D solvers return this class with [i][j] tables, moves written as
    solution.time_solution reads them; a 1-D trace is the one row of
    such a trace with an empty left side."""

    c: list
    pred: list


def _build_solution(inst, c, pred):
    return time_solution(inst.left, inst.right, c, pred)


def _check_line(line, tau, release, k, values, indices):
    """Assert one line's invariants: states 0..k are released, the rest
    are not, and the window, its values and indices front to back, is
    the chain of suffix minima (line[w] + 2 tau[w], w) over the
    unreleased states, equal values kept."""
    assert all(v <= release for v in line[: k + 1])
    assert all(v > release for v in line[k + 1 :])
    chain = []
    for w in range(len(line) - 1, k, -1):
        a = line[w] + 2 * tau[w]
        if not chain or a <= chain[-1][0]:
            chain.append((a, w))
    assert list(zip(values, indices)) == chain[::-1]


def _time_line(side, c, pred, check=False, two=None, cols=None):
    """Fill c[1..n] and pred[1..n] of side's line from the given c[0],
    n = side.n; pred[i] is the raw j the minimum was taken at.  c[1..n]
    hold _UNSET on entry.  c[0] may exceed the first releases, so the
    cursor starts at -1 and state 0 enters the window like any other.
    two, when given, is [2 * t for t in side.tau], doubled once for the
    many rows of a 2-D solve.  On a block line without cols, each
    state with a cursor probes for a block, which _time_block fills
    when it is _BLOCK states long.

    With cols, the line is row `row` >= 1 of a 2-D table whose column 0
    is filled, cols = (left_side, table, row, left_two, left_of,
    cursors, heads, values, indices): each state i first advances
    column i's line by one state, row - 1, and takes its left term, then
    takes the right term from the row's own cursor and window, the left
    term winning ties.  Column i's cursor is cursors[i] and its window
    values[i][heads[i]:] and indices[i][heads[i]:], kept as the row's
    own; left_two doubles left_side.tau, and the left moves are
    left_of[w] = (LEFT, w).  Only lines without cols take blocks.

    check=True fills a line without cols on a copy, taken at entry, as
    above, with no checks; then fills the line itself by the scalar
    loop alone, asserting _check_line at every state and at every
    column; and asserts that the two fills are equal, types and pred
    included.
    """
    if check and cols is None:
        filled = c[:], pred[:]
        _time_line(side, *filled, False, two)
    r = side.r
    tau = side.tau
    n = len(r)
    # stepping: each state takes its column step before the right term;
    # released: no column so far lacks a released state
    stepping = cols is not None
    released = True
    if stepping:
        left_side, table, row, left_two, left_of, cursors, heads, cvalues, cindices = cols
        lrow = row - 1
        lr = left_side.r[lrow]
        up = table[lrow]
        la = left_two[lrow]
    # the window: values[head:] and indices[head:] hold the (a_j, j),
    # a_j = c[j] + 2 tau[j], j in (k, i-1], that no later a undercuts,
    # values nondecreasing front to back; equal values all stay so the
    # front is always the smallest j among minima.  The entries before
    # head are dead ones, whose value _DEAD stops the back pops; each
    # state pushes one entry, so the lists stay within the line's length.
    values = [_DEAD]
    indices = [-1]
    head = 1
    k = -1
    # blocks start before state reach
    reach = n + 1 - _BLOCK if not stepping and not check and n >= _BLOCK and block_line(side, c[0]) else 0
    i = 1
    while i <= n:
        # the scalar loop; a block leaves it, to resume past the block
        for i in range(i, n + 1):
            if stepping:
                # column i's line gains state lrow and gives the left term
                cv = cvalues[i]
                cw = cindices[i]
                a = up[i] + la
                while cv[-1] > a:
                    cv.pop()
                    cw.pop()
                cv.append(a)
                cw.append(lrow)
                if released:
                    ck = cursors[i]
                    ch = heads[i]
                    while table[ck + 1][i] <= lr:
                        ck += 1
                        if cw[ch] <= ck:
                            cv[ch] = _DEAD
                            ch += 1
                    cursors[i] = ck
                    heads[i] = ch
                    if ck >= 0:
                        left = lr + left_two[ck]
                        lw = ck
                        if ck < lrow and cv[ch] < left:
                            left = cv[ch]
                            lw = cw[ch]
                    else:
                        released = False
                        left = cv[ch]
                        lw = cw[ch]
                else:
                    # row 0 never decreases, so past a column whose
                    # first state is not released no column's is: its
                    # cursor is -1 and its window whole, from head 1
                    left = cv[1]
                    lw = cw[1]
            last = i - 1
            ri = r[last]
            a = c[last] + (2 * tau[last] if two is None else two[last])
            while values[-1] > a:
                values.pop()
                indices.pop()
            values.append(a)
            indices.append(last)
            # grow the released region; its best candidate is always j = k
            # because tau strictly decreases.  c[i] is _UNSET, which ends
            # the loop at k = last at the latest, as table[row][i] ends
            # the column's
            while c[k + 1] <= ri:
                k += 1
                if indices[head] <= k:
                    values[head] = _DEAD
                    head += 1
            if check:
                if stepping:
                    ch = heads[i]
                    _check_line([line[i] for line in table[:row]], left_side.tau, lr, cursors[i], cv[ch:], cw[ch:])
                _check_line(c[:i], tau, ri, k, values[head:], indices[head:])
            # the window holds state last until the cursor reaches it
            if k >= 0:
                best = ri + (2 * tau[k] if two is None else two[k])
                bj = k
                if k < last and values[head] < best:
                    best = values[head]
                    bj = indices[head]
            else:
                best = values[head]
                bj = indices[head]
            if stepping and left <= best:
                best = left
                bj = left_of[lw]
            c[i] = best
            pred[i] = bj
            if i < reach and k >= 0 and r[i + _BLOCK - 1] < best:
                i, k = _time_block(side, c, pred, i, k, values, indices)
                head = 1
                i += 1
                break
        else:
            break
    if check and cols is None:
        assert [(v.__class__, v) for v in c] == [(v.__class__, v) for v in filled[0]]
        assert pred == filled[1]


def _chain(values):
    """The positions of values' suffix minima, equal values kept: what
    is left of a window after values are pushed onto it, in order."""
    if not len(values):
        return np.arange(0)
    suffix = np.minimum.accumulate(values[::-1])[::-1]
    (keep,) = (values[:-1] <= suffix[1:]).nonzero()
    return np.append(keep, len(values) - 1)


def _time_block(side, c, pred, i, k, values, indices):
    """Fill blocks from state i on, where the cursor is k >= 0 and a
    block of _BLOCK states starts, and return the last state filled and
    the cursor there; the window lists then hold the window there, head
    at 1 past one dead entry, unless the blocks reach state n.

    A block is the states i+1..e with r[e-1] < c[i].  Each of them is
    released before c[i], so its cursor k_m lies among k..i-1, whose c
    are known, and states i..m-1 all stay in its window.  So c[m] is
    X_m = min(r[m-1] + 2 tau[k_m], the least a_j, j in (k_m, i-1]), the
    released candidate winning ties, unless Y_m = min(a_i..a_{m-1})
    undercuts it.  A state that takes Y pushes an a above Y, so Y is
    also the running minimum of a_i and the X_j + 2 tau[j], j < m, and
    pred its first record.  The cursors are a searchsorted over c[k+1..i-1],
    skipped for a chunk whose first and last state's bisects give one
    cursor, and the least a past each a lookup in that range's suffix
    minima.  Blocks follow each other, the next from state e with e's
    cursor, while they are _BLOCK states long; each is written into c
    in chunks of _CHUNK states.  The window left behind, the suffix
    minima of the a past the last cursor, is rebuilt from c once, at
    the end.  It takes no check: _time_line compares the line it fills
    with the scalar loop's.  The line is a block line, so every number
    is an int64 and each chunk writes its values as they are.
    """
    r = side.r
    tau = side.tau
    n = len(r)
    rv, tv = side.arrays
    while True:
        e = bisect_left(r, c[i], i, n)
        if e - i < _BLOCK:
            break
        base = k
        known = np.fromiter(c[k + 1 : i], np.int64, i - k - 1)
        twos = 2 * tv[k:i]
        least, at = _suffix_minima(known + twos[1:], k + 1)
        # the least a and X + 2 tau pushed since state i, and the first j
        # it was reached at
        low = c[i] + 2 * tau[i]
        low_j = i
        lo = i + 1
        while lo <= e:
            hi = min(e + 1, lo + _CHUNK)
            rel = rv[lo - 1 : hi - 1]
            # each state's cursor, less base: one for the whole chunk
            # when its first and last state share it
            cur = bisect_right(c, r[lo - 1], base + 1, i) - base - 1
            if cur != bisect_right(c, r[hi - 2], base + 1, i) - base - 1:
                cur = np.searchsorted(known, rel, "right")
            x = rel + twos[cur]
            front = least[cur]
            # the window's front beats the released candidate
            won = front < x
            x = np.minimum(x, front)
            # state m pushes Z_m = X_m + 2 tau[m] for the states after it
            z = x[:-1] + 2 * tv[lo : hi - 1]
            seen = np.concatenate(((low,), z))
            y = np.minimum.accumulate(seen)
            # the j at which each record of the running minimum was set
            records = np.concatenate(((low_j,), (seen[1:] < y[:-1]).nonzero()[0] + lo))
            lose = y < x
            # an a wins, from before the block or in it
            won |= lose
            if cur.__class__ is int and not won.any():
                # one cursor's released candidate takes every state
                pred[lo:hi] = [cur + base] * (hi - lo)
                c[lo:hi] = x.tolist()
            else:
                xj = np.where(won, at[cur], cur + base)
                (at_y,) = lose.nonzero()
                xj[at_y] = records[np.searchsorted(records[1:], at_y + lo)]
                pred[lo:hi] = xj.tolist()
                c[lo:hi] = np.minimum(x, y).tolist()
            low, low_j = y[-1], int(records[-1])
            if hi <= e:
                # the next chunk's states see this one's last Z too
                last = x[-1] + 2 * tv[hi - 1]
                if last < low:
                    low, low_j = last, hi - 1
            lo = hi
        k = bisect_right(c, r[e - 1], base + 1, i) - 1
        i = e
    if i == n:
        # the scalar loop has no state left to read the window
        return i, k
    a = np.fromiter(c[k + 1 : i], np.int64, i - k - 1) + 2 * tv[k + 1 : i]
    js = (_chain(a) + (k + 1)).tolist()
    values[:] = [_DEAD] + [c[j] + 2 * tau[j] for j in js]
    indices[:] = [-1] + js
    return i, k


def _suffix_minima(a, j0):
    """For each position p of a, and one past its end, the least of
    a[p:] and the first j it is reached at, a[0] being j0's: the least
    a past a cursor, and its pred.  Past the end there is no a: _NONE,
    above every number of a block line, at j = -1."""
    n = len(a)
    least = np.full(n + 1, _NONE, a.dtype)
    at = np.full(n + 1, -1)
    if n:
        least[:n] = np.minimum.accumulate(a[::-1])[::-1]
        # the first j at or after p that no later a undercuts
        first = np.full(n, n)
        keep = _chain(a)
        first[keep] = keep
        at[:n] = np.minimum.accumulate(first[::-1])[::-1] + j0
    return least, at


def _scan(c, r, two_tau):
    """One state's full scan: the minimum of max(c[j], r) + two_tau[j]
    over the given j, and the smallest j it is taken at."""
    cand = np.maximum(c, r) + two_tau
    j = int(cand.argmin())
    return cand[j], j


def solve_time_2d_cubic(inst):
    """Reference solver: full scans of both terms at every state."""
    nl = inst.left.n
    nr = inst.right.n
    dt = table_dtype(inst.left, inst.right)
    rl, taul = inst.left.arrays
    rr, taur = inst.right.arrays
    rl = rl.astype(dt, copy=False)
    twol = 2 * taul.astype(dt, copy=False)
    rr = rr.astype(dt, copy=False)
    twor = 2 * taur.astype(dt, copy=False)
    c = np.zeros((nl + 1, nr + 1), dtype=dt)
    pred = [[None] * (nr + 1) for _ in range(nl + 1)]
    for i in range(nl + 1):
        for j in range(nr + 1):
            best = None
            if i:
                best, w = _scan(c[:i, j], rl[i - 1], twol[:i])
                take = (LEFT, w)
            if j:
                value, w = _scan(c[i, :j], rr[j - 1], twor[:j])
                if best is None or value < best:
                    best = value
                    take = w
            if best is not None:
                c[i, j] = best
                pred[i][j] = take
    c = c.tolist()
    return TimeDpTrace(c, pred), _build_solution(inst, c, pred)


def solve_time_2d_minqueue(inst, check=False):
    """Window-and-cursor solver; output matches solve_time_2d_cubic.

    One call of _time_line fills column 0, the left side's line, and one
    per row the row's other states, each above row 0 taking its column's
    step too.  check=True asserts _check_line on every column and row at
    every state, and the blocks of column 0 and row 0 against the scalar
    loop.
    """
    left = inst.left
    right = inst.right
    nl = left.n
    nr = right.n
    # the origin is the table dtype's zero, as in the cubic baseline
    dt = table_dtype(left, right)
    origin = np.zeros((), dt).item()
    # each side's doubled taus, once per solve, when the table has more
    # than one line
    left_two = [2 * t for t in left.tau] if nr else None
    right_two = [2 * t for t in right.tau] if nl else None
    # column 0, the left side's line: the whole table when the right
    # side is empty
    line = [origin] + [_UNSET] * nl
    moves = [None] * (nl + 1)
    _time_line(left, line, moves, check, left_two)
    if not nr:
        left_of = {w: None if w is None else (LEFT, w) for w in set(moves)}
        c = [[v] for v in line]
        pred = [[left_of[w]] for w in moves]
        return TimeDpTrace(c, pred), _build_solution(inst, c, pred)
    # the left moves, shared; the row kernel's bare w is a right move
    left_of = [(LEFT, w) for w in range(nl + 1)]
    c = [[_UNSET] * (nr + 1) for _ in line]
    pred = [[None] * (nr + 1) for _ in line]
    for i in range(nl + 1):
        c[i][0] = line[i]
        pred[i][0] = left_of[moves[i]] if i else None
    _time_line(right, c[0], pred[0], check, right_two)
    if nl:
        # columns 1..nr serve the left term and live for the whole
        # sweep: a cursor and a window each, kept as in _time_line
        cursors = [-1] * (nr + 1)
        heads = [1] * (nr + 1)
        values = [[_DEAD] for _ in range(nr + 1)]
        indices = [[-1] for _ in range(nr + 1)]
        for i in range(1, nl + 1):
            cols = (left, c, i, left_two, left_of, cursors, heads, values, indices)
            _time_line(right, c[i], pred[i], check, right_two, cols)
    return TimeDpTrace(c, pred), _build_solution(inst, c, pred)
