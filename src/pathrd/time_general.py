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
lists, values and indices, read from a head index.  The fast solver is
that kernel plus a column step.  Row by row, the column step first
advances every column's cursor and window, a deque of (a, w), by one
row and writes the left term into the row; then one call of _time_line
merges the row's right term into it in place: O(n_l * n_r) in all.
The column step advances n_r + 1 lines by one state each, so it is
written inline rather than as a per-state call of the kernel.

While the cursor k holds and its released candidate wins, c[i] =
r[i-1] + 2 tau[k] and pred[i] = k: a run.  It ends where the cursor
moves or the window front wins, two thresholds on the nondecreasing r
that a bisect finds each, or where one of the run's own a_j undercuts,
or, in a merged row, the left term already in the row wins, which numpy
finds over chunks of the run, sliced from the side's arrays, with the
same float operations the scalar loop makes; so the left term keeps its
ties.  A run whose cursor holds past RUN states is filled by slice, and
the window left behind is rebuilt from the run's suffix minima.  On a
one-route line the whole line is one run.

Where no run starts, a line of an int table takes blocks.  The states
i+1..e with r[e-1] < c[i] are all released before c[i], so each one's
cursor lies among the states up to i, whose c are known, and states i
on all stay in its window: numpy fills the block with the scalar loop's
int operations, the cursors by a searchsorted over the known c, the
window's least a past each cursor from those states' suffix minima,
and the block's own a by a running minimum.  Blocks follow each other
from the last state of the one before while they are _BLOCK states
long; the window lists are rebuilt once, when the scalar loop resumes.
Float tables, and lines whose blocks are shorter than _BLOCK, such as
grid-2d's rows, stay on the scalar loop and runs.  Column steps fill
neither.
"""

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np

from .distance_general import RUN
from .instance import MAX_MAGNITUDE, table_dtype
from .solution import LEFT, time_solution

__all__ = ["TimeDpTrace", "solve_time_2d_cubic", "solve_time_2d_minqueue"]

# Fills are written into c in numpy slices of at most this many states,
# each before the next is converted, so a run or a block holds O(1)
# memory for its own states; when a fill is tried is RUN's and _BLOCK's
# business, not this length's.
_CHUNK = 4096

# A block is filled only when it is at least this many states long: a
# block costs a few dozen numpy calls, which shorter ones, such as
# those of grid-2d's 300-state rows, would not repay.
_BLOCK = 256

# the known window's sentinel in a block: no entry, never the minimum;
# a block line's numbers are at most MAX_MAGNITUDE
_NONE = 2**62

# the value of a dead window entry, below every a
_DEAD = float("-inf")

# the window lists drop their dead entries once these outnumber the
# live ones, and there are more than this many
_COMPACT = 64


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


def _time_line(side, c, pred, merge=False, check=False, ints=False):
    """Fill c[1..n] and pred[1..n] of side's line from the given c[0],
    n = side.n; pred[i] is the raw j the minimum was taken at.

    With merge, c[i] and pred[i] already hold the other side's
    candidate, which the kernel reads before it overwrites them; the
    candidate wins ties.  c[0] may exceed the first releases, so the
    cursor starts at -1 and state 0 enters the window like any other.
    The first state whose released candidate beats the window with a
    new cursor probes for a run, and _time_run fills it when the cursor
    holds RUN states on.  With ints, every number of the table is an
    int within MAX_MAGNITUDE, and where no run starts a state probes
    for a block, which _time_block fills when it is _BLOCK states long.
    check=True asserts _check_line at every state, the ones a fill
    writes included.
    """
    # the window: values[head:] and indices[head:] hold the (a_j, j),
    # a_j = c[j] + 2 tau[j], j in (k, i-1], that no later a undercuts,
    # values nondecreasing front to back; equal values all stay so the
    # front is always the smallest j among minima.  The entry before
    # head is a dead one, whose value _DEAD stops the back pops.
    values = [_DEAD]
    indices = [-1]
    head = 1
    k = -1
    tried = -1
    fill = False
    r = side.r
    tau = side.tau
    n = len(r)
    stop = n + 1 - RUN
    # blocks start before state reach
    reach = n + 1 - _BLOCK if ints and n >= _BLOCK else 0
    i = 1
    while i <= n:
        # the scalar loop; a fill leaves it, to resume past the fill
        for i in range(i, n + 1):
            last = i - 1
            ri = r[last]
            a = c[last] + 2 * tau[last]
            while values[-1] > a:
                values.pop()
                indices.pop()
            values.append(a)
            indices.append(last)
            # grow the released region; its best candidate is always j = k
            # because tau strictly decreases
            while k < last and c[k + 1] <= ri:
                k += 1
                if indices[head] <= k:
                    values[head] = _DEAD
                    head += 1
                    if head > _COMPACT and head + head > len(values):
                        del values[: head - 1]
                        del indices[: head - 1]
                        head = 1
            if check:
                _check_line(c[:i], tau, ri, k, values[head:], indices[head:])
            # the window holds state last until the cursor reaches it
            if k >= 0:
                best = ri + 2 * tau[k]
                bj = k
                if k < last and values[head] < best:
                    best = values[head]
                    bj = indices[head]
                elif k > tried:
                    # the released candidate beats the window, and the
                    # cursor is new
                    tried = k
                    fill = True
            else:
                best = values[head]
                bj = indices[head]
            if merge and c[i] <= best:
                best = c[i]
                bj = pred[i]
            c[i] = best
            pred[i] = bj
            if fill:
                # a run may follow if the cursor holds to state i + RUN;
                # that only gets less likely as i grows, so each cursor
                # is probed once, here where c[k + 1] is known
                fill = False
                if i < stop and r[i + RUN - 1] < c[k + 1]:
                    end = _time_run(side, c, pred, merge, check, i, k, values, indices, head)
                    if end > i:
                        i = end + 1
                        break
            if i < reach and k >= 0 and r[i + _BLOCK - 1] < best:
                i, k = _time_block(side, c, pred, merge, check, i, k, values, indices, head)
                head = 1
                i += 1
                break
        else:
            break


def _chain(values):
    """The positions of values' suffix minima, equal values kept: what
    is left of a window after values are pushed onto it, in order."""
    if not len(values):
        return np.arange(0)
    suffix = np.minimum.accumulate(values[::-1])[::-1]
    (keep,) = (values[:-1] <= suffix[1:]).nonzero()
    return np.append(keep, len(values) - 1)


def _push(values, indices, head, kept, js):
    """Push a chain of suffix minima onto the window: drop the entries
    past head that its least value, the first, undercuts, then append it."""
    cut = bisect_right(values, kept[0], head)
    del values[cut:]
    del indices[cut:]
    values.extend(kept)
    indices.extend(js)


def _time_run(side, c, pred, merge, check, i, k, values, indices, head):
    """Fill the run that follows state i, whose released candidate won
    with cursor k, and return the run's last state (i when none).

    Each state m of a run takes c[m] = r[m-1] + 2 tau[k] and pred[m] = k.
    The run ends before the first state where the cursor moves, the
    window front wins, one of the run's own a_j undercuts, or, with
    merge, the other side's candidate wins; the first two are bisects,
    the last two numpy tests, in chunks of _CHUNK states sliced from
    side.arrays and written straight into c.  The window ends as the
    scalar loop would hold it: its entries up to the run's least a,
    then the run's suffix-minimum a_j, equal values kept; head stays,
    as the cursor does.
    """
    r = side.r
    tau = side.tau
    n = len(r)
    p = i + RUN
    two = 2 * tau[k]
    front = values[head] if len(values) > head else None
    prev = c[i] + 2 * tau[i]
    # the other O(1) probes at state p, the cursor's passed: a run that
    # fails one ends within RUN states and is left to the scalar loop,
    # and as both thresholds hold up to p, their bisects start there
    top = r[p - 1] + two
    if (front is not None and top > front) or top > prev or (merge and c[p] <= top):
        return i
    # the numpy tests run in float64 unless every number is an int, and
    # float64 adds integers exactly below 2**53; the margin covers the
    # rounding of this bound itself when a float release takes part
    floats = two.__class__ is float
    if not floats and r[-1] + 2 * two > MAX_MAGNITUDE - 4:
        return i
    end = bisect_left(r, c[k + 1], p, n)
    if front is not None:
        # x + two rounds monotonically, so the key keeps r's order
        end = bisect_right(r, front, p, end, key=lambda x: x + two)
    # a float two makes every entry a float, so the chunks convert to
    # float64 as Python's sums would, an object slice of ints past int64
    # included; otherwise they keep the arrays' dtype, int64 exactly
    # when the line holds only ints
    dt = float if floats else None
    rv, tv = side.arrays
    if check:
        start = _snapshot(c, pred, i, end, k, values, indices, head)
    low = prev
    lo = i + 1
    while True:
        # states lo..hi-1 take best; state lo pushes prev = a_{lo-1} and
        # the others a_lo..a_{hi-2}; low is the least a pushed before lo
        hi = min(end + 1, lo + _CHUNK)
        best = np.asarray(rv[lo - 1 : hi - 1], dt) + two
        av = best[:-1] + 2 * np.asarray(tv[lo : hi - 1], dt)
        window = np.minimum.accumulate(np.concatenate(((min(low, prev),), av)))
        bad = best > window
        if merge:
            bad |= np.array(c[lo:hi], float) <= best
        (cut,) = bad.nonzero()
        if len(cut):
            hi = lo + int(cut[0])
            if hi == lo:
                break
        if floats or best.dtype.kind == "i":
            c[lo:hi] = best[: hi - lo].tolist()
        else:
            c[lo:hi] = [x + two for x in r[lo - 1 : hi - 1]]
        pred[lo:hi] = [k] * (hi - lo)
        # push prev, then the chunk's a: the chunk's own suffix minima
        # stay
        _push(values, indices, head, [prev], [lo - 1])
        pushed = av[: hi - lo - 1]
        if len(pushed):
            keep = _chain(pushed)
            js = (keep + lo).tolist()
            if floats or pushed.dtype.kind == "i":
                kept = pushed[keep].tolist()
            else:
                kept = [c[j] + 2 * tau[j] for j in js]
            _push(values, indices, head, kept, js)
        if len(cut) or hi > end:
            break
        low = window[-1]
        prev = c[hi - 1] + 2 * tau[hi - 1]
        lo = hi
    if check:
        _replay(side, c, pred, merge, i, hi - 1, start, k, values[head:], indices[head:])
    return hi - 1


def _time_block(side, c, pred, merge, check, i, k, values, indices, head):
    """Fill blocks from state i on, where the cursor is k >= 0 and a
    block of _BLOCK states starts, and return the last state filled and
    the cursor there; the window lists then hold the window there, head
    at 1 past one dead entry.

    A block is the states i+1..e with r[e-1] < c[i].  Each of them is
    released before c[i], so its cursor k_m lies among k..i-1, whose c
    are known, and states i..m-1 all stay in its window.  So c[m] is
    X_m = min(r[m-1] + 2 tau[k_m], the least a_j, j in (k_m, i-1]), the
    released candidate winning ties and, with merge, the other side's
    candidate winning first, unless Y_m = min(a_i..a_{m-1}) undercuts
    it.  A state that takes Y pushes an a above Y, so Y is also the
    running minimum of a_i and the X_j + 2 tau[j], j < m, and pred its
    first record.  The cursors are a searchsorted over c[k+1..i-1], the
    least a past each a lookup in that range's suffix minima.  Blocks
    follow each other, the next from state e with e's cursor, while
    they are _BLOCK states long; each is written into c in chunks of
    _CHUNK states.  The window left behind, the suffix minima of the a
    past the last cursor, is rebuilt from c once, at the end.
    """
    r = side.r
    n = len(r)
    rv, tv = side.arrays
    if check:
        start = _snapshot(c, pred, i, n, k, values, indices, head)
    first = i
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
        low = c[i] + 2 * side.tau[i]
        low_j = i
        lo = i + 1
        while lo <= e:
            hi = min(e + 1, lo + _CHUNK)
            rel = rv[lo - 1 : hi - 1]
            # each state's cursor, less base
            cur = np.searchsorted(known, rel, "right")
            x = rel + twos[cur]
            front = least[cur]
            xj = np.where(front < x, at[cur], cur + base)
            x = np.minimum(x, front)
            if merge:
                other = np.fromiter(c[lo:hi], np.int64, hi - lo)
                took = other <= x
                x = np.minimum(x, other)
            # state m pushes Z_m = X_m + 2 tau[m] for the states after it
            z = x[:-1] + 2 * tv[lo : hi - 1]
            seen = np.concatenate(((low,), z))
            y = np.minimum.accumulate(seen)
            c[lo:hi] = np.minimum(x, y).tolist()
            # the j at which each record of the running minimum was set
            records = np.concatenate(((low_j,), (seen[1:] < y[:-1]).nonzero()[0] + lo))
            (lose,) = (y < x).nonzero()
            if len(lose):
                xj[lose] = records[np.searchsorted(records[1:], lose + lo)]
            js = xj.tolist()
            if merge:
                js = [q if t else j for q, j, t in zip(pred[lo:hi], js, (took & (x <= y)).tolist())]
            pred[lo:hi] = js
            low, low_j = y[-1], int(records[-1])
            if hi <= e:
                # the next chunk's states see this one's last Z too
                last = x[-1] + 2 * tv[hi - 1]
                if last < low:
                    low, low_j = last, hi - 1
            lo = hi
        k = int(cur[-1]) + base
        i = e
    a = np.fromiter(c[k + 1 : i], np.int64, i - k - 1) + 2 * tv[k + 1 : i]
    keep = _chain(a)
    values[:] = [_DEAD] + a[keep].tolist()
    indices[:] = [-1] + (keep + (k + 1)).tolist()
    if check:
        _replay(side, c, pred, merge, first, i, start, k, values[1:], indices[1:])
    return i, k


def _suffix_minima(a, j0):
    """For each position p of a, and one past its end, the least of
    a[p:] and the first j it is reached at, a[0] being j0's: the least
    a past a cursor, and its pred.  Past the end there is no a: _NONE,
    above every number of a block line, at j = -1."""
    n = len(a)
    least = np.full(n + 1, _NONE)
    at = np.full(n + 1, -1)
    if n:
        least[:n] = np.minimum.accumulate(a[::-1])[::-1]
        # the first j at or after p that no later a undercuts
        first = np.full(n, n)
        keep = _chain(a)
        first[keep] = keep
        at[:n] = np.minimum.accumulate(first[::-1])[::-1] + j0
    return least, at


def _snapshot(c, pred, i, end, k, values, indices, head):
    """What _replay needs of a fill of states i+1..end: the cursor and
    a copy of the window at state i, and the c and pred it finds there."""
    return k, values[head:], indices[head:], c[i + 1 : end + 1], pred[i + 1 : end + 1]


def _replay(side, c, pred, merge, i, end, start, k, values, indices):
    """Assert that states i+1..end, filled in numpy, hold what the
    scalar loop writes there, from start, _snapshot's record at state
    i, state by state, each passing _check_line; and that the scalar
    loop ends with the cursor k and window (values, indices) the fill
    left."""
    r = side.r
    tau = side.tau
    at, window, js, other, other_pred = start
    for m in range(i + 1, end + 1):
        ri = r[m - 1]
        a = c[m - 1] + 2 * tau[m - 1]
        cut = bisect_right(window, a)
        del window[cut:], js[cut:]
        window.append(a)
        js.append(m - 1)
        while at < m - 1 and c[at + 1] <= ri:
            at += 1
            if js[0] <= at:
                del window[0], js[0]
        _check_line(c[:m], tau, ri, at, window, js)
        best, bj = (ri + 2 * tau[at], at) if at >= 0 else (window[0], js[0])
        if window and window[0] < best:
            best, bj = window[0], js[0]
        if merge and other[m - i - 1] <= best:
            best, bj = other[m - i - 1], other_pred[m - i - 1]
        assert (best.__class__, best, bj) == (c[m].__class__, c[m], pred[m]), m
    assert (at, window, js) == (k, values, indices)


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

    check=True re-verifies every cursor and window against its
    definition (the released states really form a prefix of the column
    or row, and the window front is the minimum over the rest), which
    is what the amortized updates silently rely on.
    """
    nl = inst.left.n
    nr = inst.right.n
    rl = inst.left.r
    taul = inst.left.tau
    # shared left moves for the column step; the row kernel's bare w is a right move
    left_of = [(LEFT, w) for w in range(nl + 1)]
    c = [[0] * (nr + 1) for _ in range(nl + 1)]
    # the origin is the table dtype's zero, as in the cubic baseline
    dt = table_dtype(inst.left, inst.right)
    c[0][0] = np.zeros((), dt).item()
    # every entry is at most the last release plus one round trip to
    # each side's far end, and every sum a block makes one more such
    # trip: an int table within MAX_MAGNITUDE adds exactly in int64, so
    # its rows take blocks
    sides = [side for side in (inst.left, inst.right) if side.n]
    bound = max((side.r[-1] for side in sides), default=0) + 4 * sum(side.tau[0] for side in sides)
    ints = dt.kind == "i" and bound <= MAX_MAGNITUDE
    pred = [[None] * (nr + 1) for _ in range(nl + 1)]
    # per column, for the left term: a cursor over the released rows
    # and a window of (a, w), a = c[w][j] + 2 taul[w], kept as in
    # _time_line; an empty left side steps no column
    cols = range(nr + 1) if nl else ()
    kl = [-1 for _ in cols]
    wl = [deque() for _ in cols]
    for i in range(nl + 1):
        ci = c[i]
        pi = pred[i]
        if i:
            # column step: each column's line gains state i - 1 and
            # yields its left term at row i
            last = i - 1
            ri = rl[last]
            up = c[last]
            two = 2 * taul[last]
            for j in range(nr + 1):
                win = wl[j]
                a = up[j] + two
                while win and win[-1][0] > a:
                    win.pop()
                win.append((a, last))
                k = kl[j]
                while k < last and c[k + 1][j] <= ri:
                    k += 1
                    if win[0][1] <= k:
                        win.popleft()
                kl[j] = k
                if check:
                    line = [c[w][j] for w in range(i)]
                    _check_line(line, taul, ri, k, [v for v, _ in win], [w for _, w in win])
                if k >= 0:
                    best = ri + 2 * taul[k]
                    w = k
                    if win and win[0][0] < best:
                        best, w = win[0]
                else:
                    best, w = win[0]
                ci[j] = best
                pi[j] = left_of[w]
        if nr:
            # the right term along the row; the left term wins ties
            _time_line(inst.right, ci, pi, i > 0, check, ints)
    return TimeDpTrace(c, pred), _build_solution(inst, c, pred)
