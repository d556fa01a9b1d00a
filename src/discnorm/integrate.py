"""Integration engines over the cell decomposition.

Two routes, used by the norm modules:

* ``lp_moment_integral``: exact binomial/moment evaluation of
  int (A - prod t)^p for even integer p.  No quadrature error, but the
  alternating sum loses digits as p grows, so callers check the
  reported amplification factor.

* ``lp_adaptive_integral``: int |A - prod t|^p for arbitrary real
  p >= 1.  The last axis is integrated in closed form, which leaves on
  each cell column a function F(s) of the product s of the other
  coordinates against the density of s over the column's box: one
  dimension in every d.  Every piece, from the first pass or a
  bisection, starts at the 7-node Kronrod rule K7, in one pass with the
  piece's two ends, where the convex F peaks, which bounds the piece.
  K7's difference from the Gauss rule G3 on 3 of its nodes is the error
  estimate (not a bound).  A piece keeps its sums of all four rules, and
  its level picks its value and error from them.  Each round refines
  every piece the worst-first rule selects, up the nested Patterson
  rules P15 and P31, each evaluating only the nodes it adds, and at P31
  by bisection.  A piece's cells go as runs of one count A, one
  integrand each, but for those with a kink of F, where the zero of
  A - s t crosses a cell edge: each is the one run of the sub-pieces
  cut at its kinks, rows of the same pass made per group of pieces, each
  right after its piece, and run in cache-sized blocks of whole pieces.
  Each run and node has one p-independent weight, so a new p costs two
  transcendental passes, one multiply and one segmented sum per piece.
  Everything is scaled by sup |local discrepancy| so any large p stays in
  range.  A grid keeps its setup and its first pieces' masses and, from
  its second compute on, their rows and, below the top level, the
  p-independent work of each piece asked (``_Plan``), which
  ``_Plan.blocks`` hands out whole, for a compute to read once, or else a
  fresh pass.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .cells import CellGrid

# Work guard of the adaptive engine: first-pass cells and 2^(d-1) law terms per node.
MAX_EVAL_ELEMENTS = 400_000_000
# Stack elements a grid's plan keeps, at most; a larger first pass keeps none.
_PLAN_ELEMENTS = 24_000_000
# Stack elements per block of the kernel, so no call holds a pass.
_BLOCK_ELEMENTS = 1 << 16
_DBL_MAX = np.finfo(float).max
# Each thread's two arrays for the kernel on frozen blocks, kept across calls,
# as fresh block-sized ones made every read of a plan's kept work page-fault
_SCRATCH = threading.local()


class NumericalError(RuntimeError):
    """Raised when an iteration fails to bracket or converge structurally."""


def lp_moment_integral(grid: CellGrid, p: int):
    """Exact int (A - prod t)^p over all cells, p a nonnegative even integer.

    Returns (integral, amplification) where amplification is the ratio
    of the largest binomial term to the result; values near 1/eps mean
    the closed form has cancelled away and the caller should fall back
    to the adaptive route.
    """
    if p < 0 or p % 2 != 0:
        raise ValueError("moment path needs an even integer p >= 0")
    d = grid.dim
    afrac = grid.count_fractions()
    terms = []
    for k in range(p + 1):
        t = afrac ** (p - k)
        for i in range(d):
            lo = grid.cell_lo(i)
            hi = grid.cell_hi(i)
            mom = (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
            t = np.tensordot(t, mom, axes=([0], [0]))
        terms.append(((-1.0) ** k) * math.comb(p, k) * float(t))
    total = math.fsum(terms)
    amp = max(abs(v) for v in terms) / max(abs(total), 1e-300)
    return total, amp


def _stack_prep(q, a_cnt, t_lo, t_hi, scale, law, row):
    """The p-independent work of int_{t_lo}^{t_hi} (|A - q t| / scale)^p dt
    on runs of count a_cnt and bounds t_lo/t_hi, each (U, 1), run i at the
    nodes q[row[i]] of rows q (R, S), each weighted by the row's ``law``
    (R, S), as the tuple that ``_stack_apply`` reads.

    Per element: the log L of the endpoint value |v| of larger magnitude,
    floored at 1e-300, log1p(-delta/|v|), and the weight law times
    min(scale / q, DBL_MAX), the p-independent part of the closed form's
    factor scale / (q (p+1)); the straddle elements, where the sign changes
    inside the run, with the logs of their two endpoint magnitudes; and the
    thin elements, whose length is below rounding of |v|, with their lengths
    times the law and their midpoint values.  Those two sets are flat
    indices into the (U, S) block, None when empty.  The floor reads as
    L >= -690.8, so exp((p+1) L) underflows to 0 there, as p >= 1.
    """
    tlen = t_hi - t_lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        # capped so that inf * 0 cannot make a NaN: where scale / q overflows,
        # an element that is not thin has |v| below 1e-296, whose powers are 0
        weight = (np.minimum(scale / q, _DBL_MAX) * law)[row]
        # -delta, so that log1p(-delta/|v|) needs no negation; vhi in the nodes'
        vhi = q[row]
        ndelta = np.multiply(vhi, -tlen)
        np.multiply(vhi, t_lo, out=vhi)
        np.subtract(a_cnt, vhi, out=vhi)
        vhi /= scale
        ndelta /= scale
        vlo = np.add(vhi, ndelta)
        straddle = vhi > 0.0
        straddle &= vlo < 0.0
        cross = None
        if straddle.any():
            idx = np.flatnonzero(straddle)
            cross = (idx, np.log(vhi.reshape(-1)[idx]), np.log(-vlo.reshape(-1)[idx]))
        # the endpoint value of larger magnitude off the straddle elements, in
        # place of vlo so that no fourth block is held; -vlo is exactly
        # delta - vhi under IEEE rounding
        big = np.negative(vlo, out=vlo)
        np.maximum(big, vhi, out=big)
        np.maximum(big, 1e-300, out=big)
        thin = np.greater_equal(ndelta, np.multiply(big, -1e-12, out=vhi))
        thin &= ~straddle
        lg = np.divide(ndelta, big, out=ndelta)
        np.maximum(lg, -1.0, out=lg)
        np.log1p(lg, out=lg)
        np.log(big, out=big)
        flat = None
        if thin.any():
            idx = np.flatnonzero(thin)
            r, j = np.divmod(idx, q.shape[1])
            mid = np.abs(a_cnt[r, 0] - q[row[r], j] * (t_lo + t_hi)[r, 0] * 0.5) / scale
            flat = idx, tlen[r, 0] * law[row[r], j], mid
    return big, lg, weight, cross, flat


def _stack_apply(cells, p):
    """The runs' law-weighted integrals (U, S) times -(p + 1) from their
    ``_stack_prep`` ``cells``, in place of ``big`` and ``lg`` if writable,
    else in the thread's scratch, which its next call overwrites.  Every
    power but a thin element's is exp of p + 1 times a kept log, so that a
    later p of a plan pays for no log, and one multiply by the weight
    stands for the factor scale / (q (p+1)) and the law."""
    big, lg, weight, cross, flat = cells
    q1 = p + 1.0
    out, ratio = big, lg
    if not big.flags.writeable:
        pair = getattr(_SCRATCH, "pair", None)
        if pair is None or pair[0].size < big.size:
            pair = _SCRATCH.pair = np.empty(big.size), np.empty(big.size)
        out, ratio = (v[:big.size].reshape(big.shape) for v in pair)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        # the common case: the run sits entirely on one side of the zero
        # crossing, so the power antiderivative nearly cancels between the
        # endpoints and goes through log1p/expm1 for accuracy.  It runs on
        # the whole block; the few straddle and thin elements are
        # overwritten afterwards.
        np.multiply(lg, q1, out=ratio)
        np.expm1(ratio, out=ratio)
        np.multiply(big, q1, out=out)
        np.exp(out, out=out)
        out *= weight
        out *= ratio
        flat_out = out.reshape(-1)
        if cross is not None:
            idx, log_hi, log_lo = cross
            flat_out[idx] = -weight.reshape(-1)[idx] * (np.exp(q1 * log_hi) + np.exp(q1 * log_lo))
        if flat is not None:
            idx, tlen, mid = flat
            flat_out[idx] = tlen * np.power(mid, p) * -q1
    return out


# The nested quadrature ladder G3 < K7 < P15 < P31 on [0, 1] (Kronrod 1965;
# Patterson 1968), exact to degrees 5, 11, 23 and 47: its nodes x <= 1/2,
# the centre and then those each rule adds, whose mirrors 1 - x are the
# rest; and each rule's weights on its nodes in that order.
_HALF_NODES = (
    0.5, 0.11270166537925831, 0.019754365645989858, 0.28287812532659873, 0.0030840183936224888,
    0.055770383563871498, 0.18944852663138681, 0.38830665678551657, 0.00045093751616620119,
    0.009234425223129946, 0.035172571285129975, 0.081637030915565637, 0.14875189675423647,
    0.23434012817781219, 0.3344323033710116, 0.44375552843340671)
_HALF_WEIGHTS = (
    (0.44444444444444442, 0.27777777777777779),
    (0.22545826932923707, 0.13424404493416672, 0.052328113013233632, 0.20069870738798112),
    (0.11275524989910335, 0.067207627621892113, 0.025801641498539869, 0.10031426468849451,
     0.0085008598149701308, 0.046463597657562271, 0.085755954568195694, 0.10957842920079375),
    (0.056377628360384346, 0.033603877147995349, 0.012903799048088327, 0.05015713930589779,
     0.0042172828696605529, 0.023231446630878994, 0.042877960024995172, 0.054789210527962318,
     0.0012723903957809373, 0.0082230249271939056, 0.01797855165356466, 0.028489754747061679,
     0.038439810249501764, 0.046813554990632236, 0.052834946790117403, 0.05597843651047673))
# The ends 0 and 1, then the 31 nodes as the centre and x and 1 - x, so
# that each rule's come first; the weights (33, 4), a column per rule, 0
# off its nodes, so 0 at the ends.
_NODES = np.append([0.0, 1.0, 0.5], np.stack([_HALF_NODES[1:], np.subtract(1, _HALF_NODES[1:])], 1))
_WEIGHTS = np.stack([np.pad(np.append(w[0], np.repeat(w[1:], 2)),
                            (2, _NODES.size - 1 - 2 * len(w))) for w in _HALF_WEIGHTS], axis=1)
# A piece at level l takes rule l + 1 as its value and the difference
# from rule l as its error; below the top level it is refined by the
# next rule, at the top by bisection.  Level l evaluates the _SPANS[l]
# of the nodes: the ends and K7's at level 0, above it those its rule adds.
_STOPS = (0, *(2 * len(w) + 1 for w in _HALF_WEIGHTS[1:]))
_SPANS = tuple(map(slice, _STOPS[:-1], _STOPS[1:]))
_MAX_LEVEL = len(_SPANS) - 1


def _product_law(s, corners, col, cumulative=False):
    """Density at s (P, K) of the product of the n outer coordinates over
    column col[i]'s box on row i, or with ``cumulative`` the box's measure
    where it is <= s.  On [0, c]^n with C = prod c these are log(C/s)^(n-1)
    / (n-1)! and s sum_{k<n} log(C/s)^k / k! for s < C; the box is their
    signed sum over its corner products corners[col], corner j taking the
    lower bound on the axes of the set bits of j (Dettmann and Georgiou
    2009), added one corner at a time in the order of j, the sum by Horner."""
    n, s = corners.shape[1].bit_length() - 1, np.maximum(s, 5e-324)
    # [log(C/s)]_+ from two logs, so that no quotient overflows; s = 0 (the
    # end of a piece at a zero lower corner) is clamped to keep its log finite
    log_s, out = np.log(s), np.zeros(s.shape)
    with np.errstate(divide="ignore"):
        for j in range(1 << n):
            c = corners[col, j][:, None]
            if n == 1 and not cumulative:
                # the density log(C/s)^0 / 0! is the indicator of s < C
                term = np.log(c) > log_s
            else:
                lg = np.maximum(np.log(c) - log_s, 0.0)
                term = (np.minimum(s, c) * functools.reduce(lambda acc, k: 1.0 + acc * lg / k,
                                                            range(n - 1, 0, -1), 1.0)
                        if cumulative else (lg > 0.0) * lg ** (n - 1) / math.factorial(n - 1))
            (np.subtract if bin(j).count("1") % 2 else np.add)(out, term, out=out)
    return out


def _rows(col, lo, hi, stack):
    """The rows (col, lo, hi) of a group of pieces, each piece's kink
    sub-pieces right after it; the rows' offsets into their runs (rows +
    1) and the pieces' into their rows (pieces + 1); and each run's count
    and first and last cell, so that a piece's runs, its sub-pieces'
    included, are one stretch.  A piece's own runs are its maximal
    stretches of one count free of kink cells, whose kink A/t_hi or A/t_lo
    lies inside it.  A kink cell is the one run of each sub-piece cut at
    its kinks; one of zero width, where a kink is clipped to an end, adds
    nothing and is left out."""
    a_cols, t_lo, t_hi = stack[:3]
    a = a_cols[col]
    m = a.shape[1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k_hi, k_lo = a / t_hi, a / t_lo
    kink = (k_hi > lo[:, None]) & (k_hi < hi[:, None])
    kink |= (k_lo > lo[:, None]) & (k_lo < hi[:, None])
    k_rows, k_cells = np.nonzero(kink)
    cuts = np.clip(np.stack([k_hi[k_rows, k_cells], k_lo[k_rows, k_cells]], axis=1),
                   lo[k_rows, None], hi[k_rows, None])
    edges = np.concatenate([lo[k_rows, None], cuts, hi[k_rows, None]], axis=1)
    wide = np.flatnonzero(edges[:, 1:] > edges[:, :-1])
    r3, c3 = k_rows[wide // 3], k_cells[wide // 3]
    start = kink.copy()
    start[:, 0] = True
    start[:, 1:] |= a[:, 1:] != a[:, :-1]
    start[:, 1:] |= kink[:, :-1]
    first = np.flatnonzero(start)
    last = np.append(first[1:], start.size) - 1
    keep = ~kink.reshape(-1)[first]
    first, last = first[keep], last[keep]
    off = np.searchsorted(first, np.arange(0, a.size + 1, m))
    # a piece's row and runs move up by the sub-pieces before it, and
    # sub-piece j's go right after its piece's, one destination per family
    at, j, u = np.arange(off.size), np.arange(r3.size), np.arange(first.size)
    at += np.searchsorted(r3, at)
    row_to = np.append(at[:-1], r3 + 1 + j)
    run_to = np.append(u + np.searchsorted(off[r3 + 1], u, "right"), off[r3 + 1] + j)

    def place(to, own, new):
        out = np.empty(to.size, own.dtype)
        out[to[:own.size]], out[to[own.size:]] = own, new
        return out

    rows = tuple(place(row_to, v, new) for v, new in (
        (col, col[r3]), (lo, edges[:, :-1].flat[wide]), (hi, edges[:, 1:].flat[wide])))
    first, last = (place(run_to, v, r3 * m + c3) for v in (first, last))
    return (rows, np.append(0, np.cumsum(place(row_to, np.diff(off), np.ones_like(r3)))),
            at, a.reshape(-1)[first], first % m, last % m)


def _blocks(off, at, per_run):
    """Slices of pieces, piece i with rows at[i]:at[i + 1], row j with runs
    off[j]:off[j + 1] of ``per_run`` elements, of about ``_BLOCK_ELEMENTS``, one piece
    at least: each with its rows, its runs, its pieces' offsets into them, each run's row."""
    r, s = off[at], 0
    while s < at.size - 1:
        t = max(s + 1, int(np.searchsorted(r, r[s] + _BLOCK_ELEMENTS // per_run, "right")) - 1)
        rows = slice(at[s], at[t])
        yield (slice(s, t), rows, slice(r[s], r[t]), r[s:t + 1] - r[s],
               np.repeat(np.arange(at[t] - at[s]), np.diff(off[rows.start:rows.stop + 1])))
        s = t


def _masses(col, lo, hi, corners):
    """The product law's measure of each piece, in blocks of pieces."""
    mass, step = np.empty(col.size), max(1, _BLOCK_ELEMENTS // 2)
    for s in (slice(i, i + step) for i in range(0, col.size, step)):
        law = _product_law(np.stack([lo[s], hi[s]], axis=1), corners, col[s], cumulative=True)
        mass[s] = law[:, 1] - law[:, 0]
    return mass


def _row_blocks(rows, stack, level, base=0):
    """The work on ``rows``, a ``_rows`` output, at ``level`` in blocks of
    whole pieces: per block the slice of its pieces, counted from ``base``,
    their offsets into its runs, and the runs' ``_stack_prep`` at their
    row's nodes, the ladder's ``_SPANS[level]`` on [lo, hi], each node
    weighted by the row's length times the product law there but 1 at the
    ends, so that the ends' sums are F there."""
    (c, l, h), off, at, *runs = rows
    t_lo, t_hi, corners, scale = stack[1:]
    x = _NODES[_SPANS[level]]
    for s, rows, r, piece_off, row in _blocks(off, at, x.size):
        length = (h[rows] - l[rows])[:, None]
        q = l[rows, None] + length * x
        law = length * _product_law(q, corners, c[rows])
        if level == 0:
            law[:, :2] = 1.0
        a, first, last = (v[r] for v in runs)
        # the prep made in the yield, so that the generator holds none
        # while the next block is made
        yield slice(base + s.start, base + s.stop), piece_off, _stack_prep(
            q, a[:, None], t_lo[first][:, None], t_hi[last][:, None], scale, law, row)


def _group_rows(col, lo, hi, stack):
    """The pieces' ``_rows`` per group of about ``_BLOCK_ELEMENTS`` cells,
    each after the index of its first piece."""
    group = max(1, _BLOCK_ELEMENTS // stack[0].shape[1])
    for g in range(0, col.size, group):
        yield g, _rows(*(v[g:g + group] for v in (col, lo, hi)), stack)


def _level_blocks(col, lo, hi, stack, level):
    """The pieces' ``_row_blocks`` at ``level``, from their ``_group_rows``."""
    for g, rows in _group_rows(col, lo, hi, stack):
        yield from _row_blocks(rows, stack, level, g)


def _ranges(start, stop):
    """The indices start[i]:stop[i], for each i in turn."""
    n = stop - start
    return np.repeat(start - np.cumsum(n) + n, n) + np.arange(n.sum())


def _merge(a, b):
    """Block ``b``'s pieces after block ``a``'s, as one block."""
    (s, off, cells), (t, off_b, cells_b) = a, b
    moved = [y and (y[0] + cells[0].size, *y[1:]) for y in cells_b[3:]]
    sparse = [x if y is None else y if x is None else tuple(map(np.concatenate, zip(x, y)))
              for x, y in zip(cells[3:], moved)]
    return (slice(s.start, t.stop), np.append(off, off_b[1:] + off[-1]),
            (*map(np.concatenate, zip(cells[:3], cells_b[:3])), *sparse))


class _Plan:
    """What one grid keeps for its adaptive computes, across p.

    Made at the grid's first compute: the stack, with the counts and corner
    products of the occupied columns only, the outer axes' cell bounds, the
    occupied columns, the first-pass pieces (col, lo, hi), col a row of the
    stack, and their masses.  Refused, before any corner product is made,
    where the first pass passes ``MAX_EVAL_ELEMENTS``, each node counting
    its column's m cells and 2^(d-1) product-law terms, the terms as work,
    not memory, as the law adds them one corner at a time.  Where the first
    pass (``cost``, m per node) is within ``_PLAN_ELEMENTS``, the plan
    keeps, from the grid's second compute on, the ``_rows`` of all its
    pieces (``rows``), from which every later block of its own pieces is
    gathered, and per level below the top the p-independent work of
    exactly the pieces asked of it (``work``, with each piece's place in it
    or -1 in ``place``), as the ``_row_blocks`` of the nodes the level adds to
    the one below: the ends and K7's 7 at level 0, which every compute asks
    whole, and P15's 8 at level 1.  P31's 16 at the top level are not kept:
    few pieces reach it, and it would be the largest work.  A piece asked
    anew joins its level's work, its blocks merged onto the last one while
    that stays within ``_BLOCK_ELEMENTS``, so that a level is read in few
    blocks; its ``big``, ``lg`` and weights are frozen for ``_stack_apply``.
    ``elements`` counts what is kept, the rows at 24 bytes an element, and
    an add that would pass the cap is refused and served a fresh pass.  A
    single-p call keeps nothing, nor does a bisected half join any work.
    """

    def __init__(self, grid):
        d, k = grid.dim, 1 << (grid.dim - 1)
        a_cols = grid.count_fractions().reshape(-1, grid.counts.shape[-1])
        self.lo_axes, self.hi_axes = ([f(i) for i in range(d - 1)]
                                      for f in (grid.cell_lo, grid.cell_hi))
        self.occupied = a_cols.any(axis=1)
        # each occupied column is the k - 1 pieces between its k corner products
        cols, m = np.flatnonzero(self.occupied), a_cols.shape[1]
        nodes = cols.size * (k - 1) * _SPANS[0].stop
        if nodes * (m + k) > MAX_EVAL_ELEMENTS:
            raise ValueError(f"adaptive Lp integration pass needs {nodes * (m + k)} evaluations "
                             f"(limit {MAX_EVAL_ELEMENTS}); size is beyond the exact-engine scale")
        at = np.unravel_index(cols, grid.counts.shape[:-1])
        corners = np.stack([functools.reduce(np.multiply, [
            (self.lo_axes if j >> i & 1 else self.hi_axes)[i][at[i]] for i in range(d - 1)])
            for j in range(k)], axis=1)
        brk = np.sort(corners, axis=1)
        self.pieces = (np.repeat(np.arange(cols.size), k - 1), brk[:, :-1].reshape(-1),
                       brk[:, 1:].reshape(-1))
        self.stack = (a_cols[self.occupied], grid.cell_lo(d - 1), grid.cell_hi(d - 1), corners,
                      grid.sup_abs)
        self.cost = nodes * m
        self.mass = _masses(*self.pieces, corners)
        self.elements, self.computes, self.rows, self.work, self.place = 0, 0, None, {}, {}

    def blocks(self, level, pieces, asked=None):
        """The blocks at ``level`` for a compute's ``pieces`` (col, lo, hi),
        which start with the plan's own, or for those at the sorted indices
        ``asked``, with the count of pieces they hold and where the asked
        ones lie among those: the level's kept work, a list that a compute
        reads whole, once the asked pieces have joined it, else the asked
        ones in a fresh pass, gathered from ``rows`` where they are the
        plan's own.
        A call without ``asked`` is a compute's first pass."""
        n = pieces[0].size if asked is None else asked.size
        self.computes += asked is None
        own = (n if asked is None else asked[-1] + 1) <= self.pieces[0].size
        if not own or self.computes < 2 or not 0 < self.cost <= _PLAN_ELEMENTS:
            return (_level_blocks(*(v if asked is None else v[asked] for v in pieces), self.stack,
                                  level), n, slice(None))
        if self.rows is None:
            rows, *offs, a, first, last = zip(*(r for _, r in _group_rows(*self.pieces, self.stack)))
            # each group's offsets chained after the group before it
            offs = [np.append(0, np.cumsum(np.concatenate([np.diff(v) for v in o]))) for o in offs]
            self.rows = (tuple(map(np.concatenate, zip(*rows))), *offs,
                         *map(np.concatenate, (a, first, last)))
            self.elements = sum(v.nbytes for v in (*self.rows[0], *self.rows[1:])) // 24
        g = np.arange(n) if asked is None else asked
        if level < _MAX_LEVEL and self._join(level, g):
            work, place = self.work[level], self.place[level]
            return work, work[-1][0].stop, slice(None) if asked is None else place[asked]
        return _row_blocks(self._gather(g), self.stack, level), n, slice(None)

    def _gather(self, g):
        """The kept ``rows`` of the plan's pieces g, as ``_rows`` gives them."""
        if g.size == self.pieces[0].size:
            return self.rows
        (c, l, h), off, at, *runs = self.rows
        r, u = _ranges(at[g], at[g + 1]), _ranges(off[at[g]], off[at[g + 1]])
        return ((c[r], l[r], h[r]), np.append(0, np.cumsum(off[r + 1] - off[r])),
                np.append(0, np.cumsum(at[g + 1] - at[g])), *(v[u] for v in runs))

    def _join(self, level, g):
        """Whether the plan's pieces g are in the work at ``level``, after
        those not yet in it join it where the cap allows."""
        place = self.place.setdefault(level, np.full(self.pieces[0].size, -1))
        (_, off, at, *_), new = self.rows, g[place[g] < 0]
        size = int((off[at[new + 1]] - off[at[new]]).sum()) * _NODES[_SPANS[level]].size
        if self.elements + size > _PLAN_ELEMENTS:
            return False
        if new.size:
            work = self.work.setdefault(level, [])
            base = work[-1][0].stop if work else 0
            place[new] = np.arange(base, base + new.size)
            for block in _row_blocks(self._gather(new), self.stack, level, base):
                if work and work[-1][-1][0].size + block[-1][0].size <= _BLOCK_ELEMENTS:
                    block = _merge(work.pop(), block)
                for v in block[-1][:3]:
                    v.flags.writeable = False
                work.append(block)
            self.elements += size
        return True


def _eval_pieces(blocks, n, p, level, scale):
    """The sums (n, 4) that the k nodes ``level`` adds give the four rules
    on each of n pieces, to be added to those of the levels below, the
    sums (n, k) of its weighted nodes, and each piece's elements, from the
    pieces' ``blocks`` in turn.  A piece's node sums are one segmented sum
    over its runs, its kink sub-pieces' included, divided by -(p + 1);
    ``scale`` is already in the blocks' weights."""
    span = _SPANS[level]
    nodes, used = np.zeros((n, _NODES[span].size)), np.zeros(n, int)
    for s, off, cells in blocks:
        # a piece lies in one block and sums its runs in order, so that no
        # block size changes its sums
        nodes[s] = np.add.reduceat(_stack_apply(cells, p), off[:-1], axis=0)
        used[s] = np.diff(off) * nodes.shape[1]
        del cells  # before the next block is made
    nodes /= -(p + 1.0)
    # the rules in one contraction of fixed order, as BLAS's depends on sizes
    return np.einsum("pk,kr->pr", nodes, _WEIGHTS[span]), nodes, used


def _sup_bound(nodes, mass):
    """New pieces' sup bounds from their level-0 node sums: each cell's
    integral is convex in s, so a piece's F peaks at an end, and the larger
    end sum, which a kink sub-piece's inner end only adds to, times the
    piece's ``mass`` bounds it."""
    return nodes[:, :2].max(axis=1) * mass


# Pieces a compute may hold, at most: bisection stops short of it.
PIECE_BUDGET = 1 << 22


def lp_adaptive_integral(grid: CellGrid, p: float, rel_tol: float):
    """int (|A - prod t| / scale)^p over the cube, scale = sup |disc|.

    Returns (integral, scale, err_estimate, diagnostics).  d = 1 is
    exact, and so is every column whose counts are all zero.  The other
    columns start as one piece between each two consecutive corner
    products, refined worst-first until the summed error estimate meets
    ``rel_tol`` times the integral or no piece can be refined.  A round
    bisects no more pieces than keep the total (``boxes`` in the
    diagnostics) within ``PIECE_BUDGET``; where the first pass or the
    bisections would pass it, ``budget_exceeded`` says so, never
    silently.  ``elements`` counts the inner-stack elements of the pieces
    evaluated, one per node and run on each piece's own stack, as a fresh
    grid would: what the plan's kept work, read whole, evaluates beyond
    them is not counted, and a kept level read once serves every later ask
    at that level in the compute until new pieces join it.
    """
    d, q1 = grid.dim, p + 1.0
    diag = {"engine": "adaptive", "boxes": 0, "elements": 0, "budget_exceeded": False}
    scale = grid.sup_abs
    if d == 1:
        # each cell a run of one node at q = 1, of law 1
        a, lo, hi = (v[:, None] for v in (grid.count_fractions(), grid.cell_lo(0), grid.cell_hi(0)))
        q = np.ones_like(a)
        f = _stack_apply(_stack_prep(q, a, lo, hi, scale, q, np.arange(a.size)), p)
        diag.update(engine="exact-1d", boxes=1, elements=a.size)
        return float(f.sum()) / -q1, scale, 0.0, diag

    plan = grid.memo["plan"] = grid.memo.get("plan") or _Plan(grid)
    col, lo, hi = plan.pieces
    # a column with no point below it integrates (prod t / scale)^p, a
    # product of one-axis powers; in logs, as large p underflows them.  A
    # NaN from -inf - -inf near p = 1e308 is a term below q1^-d, so 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logs = [q1 * np.log(h) + np.log(-np.expm1(q1 * np.log(low / h)))
                for low, h in zip(plan.lo_axes, plan.hi_axes)]
        log_closed = functools.reduce(np.add.outer, logs).reshape(-1)[~plan.occupied]
        log_closed = log_closed - d * math.log(q1) - p * math.log(scale)
    closed = math.fsum(np.exp(np.nan_to_num(log_closed, nan=-np.inf)))

    read = {}

    def evaluate(level, pieces, asked=None):
        # the rule sums, node sums and elements of the pieces asked; a kept
        # level above 0, the only kind a compute asks more than once, is read
        # once per compute, again only once new pieces joined it
        blocks, n, at = plan.blocks(level, pieces, asked)
        if level and isinstance(blocks, list):
            if read.get(level, (None,))[0] != n:
                read[level] = n, *_eval_pieces(blocks, n, p, level, scale)
            _, sums, nodes, used = read[level]
        else:
            sums, nodes, used = _eval_pieces(blocks, n, p, level, scale)
        return sums[at], nodes[at], int(used[at].sum())

    sums, nodes, elements = evaluate(0, plan.pieces)
    bnd = _sup_bound(nodes, plan.mass)
    del nodes  # (P, 9), more than the store holds per piece
    lvl = np.zeros(col.size, int)
    diag["budget_exceeded"] = col.size > PIECE_BUDGET
    # every piece made stays in the store; a bisected one holds zeros
    while True:
        # each piece's value and error from its sums, by its level
        at = np.arange(lvl.size)
        val = sums[at, lvl + 1]
        err = np.abs(val - sums[at, lvl])
        target = rel_tol * max(closed + float(val.sum()), 1e-300)
        # a near-zero value against a sizable sup bound means the nodes may
        # have missed a narrow peak, and rules that differ by more than half
        # the value have not converged; such a piece carries half its bound
        missed = ((val < 1e-3 * bnd) | (err > 0.5 * val)) & (bnd > 0.01 * target)
        eff = np.where(missed, np.maximum(err, 0.5 * bnd), err)
        if float(eff.sum()) <= target:
            break
        # the pieces in (-eff, slot) order, each taken while the error from
        # it on, over all pieces, exceeds half the target.  Summing what is
        # left, not what is taken, keeps the choice exact when half the
        # target is below the rounding unit of the total.  A top-level piece
        # whose midpoint rounds to an end cannot be bisected, so it is never
        # taken and its error stays in the sum.
        mid = 0.5 * (lo + hi)
        pick = np.where((lvl == _MAX_LEVEL) & ((mid == lo) | (mid == hi)), 0.0, eff)
        order = np.argsort(-pick, kind="stable")
        left = np.cumsum(pick[order][::-1])[::-1]
        par = order[(left > 0.5 * target) & (pick[order] > 0.0)]
        # a piece below the top level moves one level up in place, adding
        # the next rule's nodes to its sums; one at the top level is
        # bisected into two new pieces at level 0, the worst first while
        # the halves fit in the budget
        up, par = par[lvl[par] < _MAX_LEVEL], par[lvl[par] == _MAX_LEVEL]
        room = max(0, (PIECE_BUDGET - col.size) // 2)
        if par.size > room:
            diag["budget_exceeded"], par = True, par[:room]
        if up.size + par.size == 0:
            break
        for level in np.unique(lvl[up]).tolist():
            g = np.sort(up[lvl[up] == level])
            add, _, used = evaluate(level + 1, (col, lo, hi), g)
            sums[g] += add
            lvl[g] += 1
            elements += used
        if par.size:
            n, sums[par], bnd[par] = col.size, 0.0, 0.0
            col, lo, hi = (np.concatenate(x) for x in zip((col, lo, hi), (
                np.tile(col[par], 2), np.append(lo[par], mid[par]), np.append(mid[par], hi[par]))))
            made, nodes, used = evaluate(0, (col, lo, hi), np.arange(n, col.size))
            bnd = np.append(bnd, _sup_bound(nodes, _masses(col[n:], lo[n:], hi[n:], plan.stack[3])))
            sums, lvl = np.concatenate([sums, made]), np.append(lvl, np.zeros(col.size - n, int))
            elements += used

    diag.update(boxes=col.size, elements=elements)
    # a floor of four rounding units of the sums, as converged rules can
    # agree below them
    err_j = math.fsum(eff) + 4 * 2.0 ** -52 * (math.fsum(np.abs(val)) + closed)
    return math.fsum(np.append(val, closed)), scale, err_j, diag
