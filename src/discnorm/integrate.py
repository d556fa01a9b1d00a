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
  dimension in every d.  Pieces between corner products start at
  Gauss-Legendre orders 3 and 6, whose difference is the error estimate
  (not a bound); the worst are refined first, by doubling both orders up
  to (12, 24) and by bisection there.  The kinks of F, where the zero of
  A - s t crosses a cell edge, are cut out cell by cell, and the other
  cells go as runs of one count A, one integrand each.  Everything is
  scaled by sup |local discrepancy| so any large p stays in range.  The
  stacks run in cache-sized blocks, and from a grid's second call on the
  p-independent work on its first pieces is kept on it (``_Plan``).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .cells import CellGrid

# Evaluation-cost guard for the adaptive engines (elements per full pass).
MAX_EVAL_ELEMENTS = 400_000_000
# Batch memory cap (array elements per evaluation chunk).
_CHUNK_ELEMENTS = 24_000_000
# Stack elements per block of the kernel, so no call holds a pass.
_BLOCK_ELEMENTS = 1 << 16
_DBL_MAX = np.finfo(float).max


class NumericalError(RuntimeError):
    """Raised when an iteration fails to bracket or converge structurally."""


@functools.cache
def _gl01(n: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


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


def _stack_prep(q, a_cnt, t_lo, t_hi, scale):
    """The p-independent work of ``_inner_stack``, as the tuple that
    ``_stack_apply`` reads.

    Per cell: the endpoint value |v| of larger magnitude, floored at
    1e-300, and log1p(-delta/|v|); the straddle cells, where the sign
    changes inside the cell, with their two endpoint magnitudes; and the
    thin cells, whose length is below rounding of |v|, with their lengths
    and midpoint values.  Those two sets are flat indices, None when
    empty.  The floor leaves |v|^(p+1) at 0, as p >= 1.
    """
    qe = q[:, :, None]
    ae = a_cnt[:, None, :]
    tlen = t_hi - t_lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        # -delta, so that log1p(-delta/|v|) needs no negation pass
        ndelta = np.multiply(qe, -tlen)
        ndelta /= scale
        vhi = np.multiply(qe, t_lo)
        np.subtract(ae, vhi, out=vhi)
        vhi /= scale
        vlo = np.add(vhi, ndelta)
        straddle = vhi > 0.0
        straddle &= vlo < 0.0
        cross = None
        if straddle.any():
            idx = np.flatnonzero(straddle)
            cross = (idx, np.maximum(vhi.reshape(-1)[idx], 0.0),
                     np.maximum(-vlo.reshape(-1)[idx], 0.0))
        # the endpoint value of larger magnitude off the straddle cells, in
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
        flat = None
        if thin.any():
            idx = np.flatnonzero(thin)
            b, s, k = np.unravel_index(idx, thin.shape)
            t_mid = np.broadcast_to(t_lo + t_hi, thin.shape)[b, s, k]
            mid = np.abs(a_cnt[b, k] - q[b, s] * t_mid * 0.5) / scale
            flat = idx, np.broadcast_to(tlen, thin.shape)[b, s, k], mid
    return q, big, lg, cross, flat


def _stack_apply(prep, p, scale, reduce=True, inplace=True):
    """The p-dependent rest of ``_inner_stack`` on a ``_stack_prep``;
    ``inplace`` lets it overwrite the prep's arrays."""
    q, big, lg, cross, flat = prep
    q1 = p + 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        # capped so that inf * 0 cannot make a NaN: when q * q1 underflows,
        # a cell that is not thin has |v| below 1e-296, whose powers are 0
        inv = np.minimum(scale / (q[:, :, None] * q1), _DBL_MAX)
        # the common case: the cell sits entirely on one side of the zero
        # crossing, so the power antiderivative nearly cancels between the
        # endpoints and goes through log1p/expm1 for accuracy.  It runs on
        # the whole block; the few straddle and thin cells are overwritten
        # afterwards.
        ratio = np.multiply(lg, q1, out=lg if inplace else None)
        np.expm1(ratio, out=ratio)
        np.negative(ratio, out=ratio)
        out = np.power(big, q1, out=big if inplace else None)
        out *= inv
        out *= ratio
        flat_out = out.reshape(-1)
        if cross is not None:
            idx, vhi, vlo = cross
            flat_out[idx] = inv.reshape(-1)[idx // out.shape[2]] * (
                np.power(vhi, q1) + np.power(vlo, q1))
        if flat is not None:
            idx, tlen, mid = flat
            flat_out[idx] = tlen * np.power(mid, p)
    return out.sum(axis=2) if reduce else out


def _inner_stack(q, a_cnt, t_lo, t_hi, p, scale, reduce=True):
    """sum_k int_{t_lo[k]}^{t_hi[k]} (|A_k - q t| / scale)^p dt, vectorized.

    q: (B, S) products of the outer coordinates; a_cnt: (B, m) counting
    terms of the inner cell stack; t_lo/t_hi: (m,), or (B, 1, m) for
    bounds that differ per row.  The antiderivative of each one-signed
    piece is a pure power, evaluated through log1p/expm1 so nearly-
    cancelling endpoint powers stay accurate.  With ``reduce=False`` the
    per-cell integrals (B, S, m) are returned unsummed.
    """
    return _stack_apply(_stack_prep(q, a_cnt, t_lo, t_hi, scale), p, scale, reduce)


# A piece at level l has Gauss-Legendre orders n = 3 * 2^l and 2n; below
# the top level it is refined by doubling n, at the top by bisection.
_BASE_ORDER = 3
_MAX_LEVEL = 2


def _gauss_nodes(lo, hi, level, both=True):
    """Nodes (P, 3n) of orders n and 2n at ``level``, low first, on
    [lo, hi], or without ``both`` (P, 2n) of order 2n alone; weights."""
    n = _BASE_ORDER << level
    x, w = (np.concatenate(v[not both:]) for v in zip(_gl01(n), _gl01(2 * n)))
    h = (hi - lo)[:, None]
    return lo[:, None] + h * x, h * w


def _product_law(s, corners, cumulative=False):
    """Density at s (P, K) of the product of the n outer coordinates over
    a column's box, or with ``cumulative`` the box's measure where it is
    <= s.  On [0, c]^n with C = prod c these are log(C/s)^(n-1) / (n-1)!
    and s sum_{k<n} log(C/s)^k / k! for s < C; the box is their signed
    sum over its corner products (P, 2^n), corner j taking the lower
    bound on the axes of the set bits of j (Dettmann and Georgiou 2009).
    """
    n = corners.shape[1].bit_length() - 1
    # [log(C/s)]_+ from two logs, so that no quotient overflows; s = 0 (the
    # end of a piece at a zero lower corner) is clamped to keep its log finite
    s, c = np.maximum(s, 5e-324)[:, :, None], corners[:, None, :]
    with np.errstate(divide="ignore"):
        lg = np.maximum(np.log(c) - np.log(s), 0.0)
    if cumulative:
        terms = np.minimum(s, c) * sum(lg ** k / math.factorial(k) for k in range(n))
    else:
        terms = (lg > 0.0) * lg ** (n - 1) / math.factorial(n - 1)
    return terms @ [(-1.0) ** bin(j).count("1") for j in range(1 << n)]


def _ends_prep(col, lo, hi, stack):
    """The pieces' masses and the ``_stack_prep`` at their endpoints."""
    a_cols, t_lo, t_hi, corners, scale = stack
    ends = np.stack([lo, hi], axis=1)
    mass = np.diff(_product_law(ends, corners[col], cumulative=True), axis=1)[:, 0]
    return mass, _stack_prep(ends, a_cols[col], t_lo, t_hi, scale)


def _runs(a, k_rows, k_cells):
    """The runs of pieces with cell counts ``a`` (P, m), the maximal
    stretches of one count free of kink cells: each piece's offset into
    them (P + 1), and each run's count and first and last cell."""
    m = a.shape[1]
    kink = np.zeros(a.shape, dtype=bool)
    kink[k_rows, k_cells] = True
    start = kink.copy()
    start[:, 0] = True
    start[:, 1:] |= a[:, 1:] != a[:, :-1]
    start[:, 1:] |= kink[:, :-1]
    first = np.flatnonzero(start)
    last = np.roll(first, -1) - 1
    last[-1:] = start.size - 1
    keep = ~kink.reshape(-1)[first]
    first, last = first[keep], last[keep]
    off = np.searchsorted(first, np.arange(0, a.size + 1, m))
    return off, a.reshape(-1)[first], first % m, last % m


def _main_prep(col, lo, hi, stack, level, both, runs):
    """The pieces' Gauss nodes at ``level``, the weights times the product
    law there, and the ``_stack_prep`` of the ``runs`` (piece, count,
    first and last cell) at their piece's nodes."""
    a_cols, t_lo, t_hi, corners, scale = stack
    q, wt = _gauss_nodes(lo, hi, level, both)
    piece, a, first, last = runs
    prep = _stack_prep(q[piece], a[:, None], t_lo[first][:, None, None],
                       t_hi[last][:, None, None], scale)
    return q, wt * _product_law(q, corners[col]), prep


def _kinks(col, lo, hi, stack):
    """The cells (rows, cells) whose kink A/t_hi or A/t_lo lies inside a
    piece, which leave the piece's runs and are integrated alone on the
    sub-pieces cut there; and the sub-pieces' rows, cells and ends.  A
    sub-piece of zero width, where a kink is clipped to an end, adds
    nothing and is left out."""
    a_cols, t_lo, t_hi = stack[:3]
    a = a_cols[col]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kinks = np.stack([a / t_hi, a / t_lo], axis=2)
    inside = (kinks > lo[:, None, None]) & (kinks < hi[:, None, None])
    rows, cells = np.nonzero(inside.any(axis=2))
    cuts = np.clip(kinks[rows, cells], lo[rows, None], hi[rows, None])
    edges = np.concatenate([lo[rows, None], cuts, hi[rows, None]], axis=1)
    wide = np.flatnonzero(edges[:, 1:] > edges[:, :-1])
    return rows, cells, (rows[wide // 3], cells[wide // 3], edges[:, :-1].flat[wide],
                         edges[:, 1:].flat[wide])


def _kink_prep(col, stack, level, both, subs):
    """The ``_stack_prep`` of the sub-pieces ``subs`` of ``_kinks``, their
    weights times product law, and their piece rows."""
    a_cols, t_lo, t_hi, corners, scale = stack
    r3, c3, s_lo, s_hi = subs
    q, wt = _gauss_nodes(s_lo, s_hi, level, both)
    # the weights first: the product law's temporaries outsize the prep
    weights = wt * _product_law(q, corners[col[r3]])
    sub = _stack_prep(q, a_cols[col[r3], c3][:, None], t_lo[c3][:, None, None],
                      t_hi[c3][:, None, None], scale)
    return sub, weights, r3


def _ranges(starts, counts):
    """The indices of the ranges starts[i]:starts[i] + counts[i], in order."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def _take_cells(cells, rows):
    """``_stack_prep(...)[1:]`` with its straddle and thin cells moved to
    the positions of their rows in ``rows`` (sorted), others dropped."""
    big, lg, *cells = cells
    pos = np.full(big.shape[0], -1)
    pos[rows] = np.arange(rows.size)
    per_row = math.prod(big.shape[1:])
    for i, c in enumerate(cells):
        if c is not None:
            r, rest = np.divmod(c[0], per_row)
            keep = np.flatnonzero(pos[r] >= 0)
            cells[i] = (pos[r[keep]] * per_row + rest[keep], *(v[keep] for v in c[1:])
                        ) if keep.size else None
    return big, lg, *cells


def _row_block(prep, s, rows=None):
    """Rows ``s`` of ``_stack_prep(...)[1:]``, cells re-based unless ``s`` is
    every row; with ``rows``, of ``_take_cells(prep, rows)``, taking
    ``rows[s]``."""
    big, lg, *cells = prep
    per_row = math.prod(big.shape[1:])
    for i, c in enumerate(cells if s.start or s.stop < len(big if rows is None else rows) else ()):
        if c is not None:
            a, b = np.searchsorted(c[0], [s.start * per_row, s.stop * per_row])
            cells[i] = (c[0][a:b] - s.start * per_row, *(v[a:b] for v in c[1:])) if b > a else None
    r = s if rows is None else rows[s]
    return big[r], lg[r], *cells


def _blocks(off, per_run):
    """Slices of pieces, piece i having runs off[i]:off[i + 1] of
    ``per_run`` elements, of about ``_BLOCK_ELEMENTS``, one piece at least."""
    s = 0
    while s < off.size - 1:
        t = max(s + 1, int(np.searchsorted(off, off[s] + _BLOCK_ELEMENTS // per_run, "right")) - 1)
        yield slice(s, t)
        s = t


def _block_runs(off, s):
    """The runs of the pieces ``s`` and each run's piece in ``s``."""
    return slice(off[s.start], off[s.stop]), np.repeat(np.arange(s.stop - s.start),
                                                       np.diff(off[s.start:s.stop + 1]))


def _piece_sums(f, off):
    """Per piece i the sum of rows f[off[i]:off[i + 1]], in order, or 0."""
    out = np.zeros((off.size - 1, f.shape[1]))
    full = np.flatnonzero(off[1:] > off[:-1])
    if full.size:
        out[full] = np.add.reduceat(f, off[full], axis=0)
    return out


def _take(work, rows):
    """A plan's ``work`` for its pieces ``rows`` (sorted): copies but for
    the runs' cells, which ``_row_block`` takes with their runs' rows."""
    (q, weights, off, cells), (sub, sub_w, r3) = work
    counts = off[rows + 1] - off[rows]
    runs = _ranges(off[rows], counts)
    k_lo, k_hi = np.searchsorted(r3, [rows, rows + 1])
    s = _ranges(k_lo, k_hi - k_lo)
    sub = sub[0][s], *_row_block(_take_cells(sub[1:], s), slice(0, s.size), s)
    return ((q[rows], weights[rows], np.concatenate([[0], np.cumsum(counts)]),
             _take_cells(cells, runs), runs),
            (sub, sub_w[s], np.repeat(np.arange(rows.size), k_hi - k_lo)))


class _Plan:
    """The p-independent work on one grid's first-pass pieces, kept across p.

    It holds the pieces (col, lo, hi), their masses and the
    ``_stack_prep`` at their endpoints, and per (level, orders) the
    ``_main_prep`` and ``_kink_prep`` of every piece, by first-pass piece.
    The work of a level and orders is made once the pieces asked of it
    reach the number of pieces, so that it costs no more than the
    evaluations it replaces, and kept while it fits ``_CHUNK_ELEMENTS``.
    """

    def __init__(self, col, lo, hi, stack):
        self.pieces, self.stack, self.work, self.asked = (col, lo, hi), stack, {}, {}
        self.mass, self.ends = _ends_prep(col, lo, hi, stack)
        self.elements = self.ends[1].size

    def entry(self, level, both, asked):
        """The work at ``level`` and orders ``both`` (2n alone when False)
        of every piece, asked for ``asked`` of them, or None if it is not
        kept."""
        key = (level, both)
        if key not in self.work:
            self.asked[key] = self.asked.get(key, 0) + asked
            if self.asked[key] < self.pieces[0].size:
                return None
            self.work[key] = None
            col, lo, hi = self.pieces
            # sized before the prep is made, so a level left out costs
            # only the cells' counts and kinks
            k_rows, k_cells, subs = _kinks(col, lo, hi, self.stack)
            off, *runs = _runs(self.stack[0][col], k_rows, k_cells)
            size = (int(off[-1]) + subs[0].size) * (3 if both else 2) * (_BASE_ORDER << level)
            if self.elements + size <= _CHUNK_ELEMENTS:
                kinks = _kink_prep(col, self.stack, level, both, subs)
                self.work[key] = self._main(level, both, off, runs), kinks
                self.elements += size
        return self.work[key]

    def _main(self, level, both, off, runs):
        """The ``_main_prep`` of every piece, made block by block into one."""
        col, lo, hi = self.pieces
        nodes = (3 if both else 2) * (_BASE_ORDER << level)
        q, weights = np.empty((2, col.size, nodes))
        big, lg = np.empty((2, off[-1], nodes, 1))
        cells = [], []
        for s in _blocks(off, nodes):
            r, piece = _block_runs(off, s)
            q[s], weights[s], (_, big[r], lg[r], *made) = _main_prep(
                col[s], lo[s], hi[s], self.stack, level, both, (piece, *(v[r] for v in runs)))
            for c, part in zip(cells, made):
                if part is not None:
                    c.append((part[0] + r.start * nodes, *part[1:]))
        cells = [tuple(map(np.concatenate, zip(*c))) if c else None for c in cells]
        return q, weights, off, (big, lg, *cells)


def _grid_plan(grid, first, col, lo, hi, stack):
    """``grid``'s plan, made at its second adaptive compute: None before
    that, and when its first pass of ``first`` elements does not fit in
    ``_CHUNK_ELEMENTS`` (so a kept plan always has a one-chunk first pass)."""
    memo = grid.memo
    if "plan" not in memo:
        memo["computes"] = memo.get("computes", 0) + 1
        if memo["computes"] < 2:
            return None
        memo["plan"] = _Plan(col, lo, hi, stack) if first <= _CHUNK_ELEMENTS else None
    return memo["plan"]


def _new_pieces(col, lo, hi, stack, p, level, skip_tol=0.0, plan=None):
    """Value, error, sup bound and level of new pieces; elements used.

    Each cell's integral is convex in s, so its max over a piece sits at
    an endpoint, and the summed max times the piece's mass bounds the
    piece.  With ``skip_tol`` (the first pass) the summed endpoint min is
    a cheap, non-rigorous size hint; a piece whose bound is a negligible
    share of it is a placeholder at level -1, carrying half its bound as
    value and as error, which keeps the truth within the error.  Together
    these placeholders stay a few percent of the target.  Given the
    grid's ``plan``, the pieces are its first-pass pieces.
    """
    block = (lambda s: (plan.mass[s], (plan.ends[0][s], *_row_block(plan.ends[1:], s)))) if plan \
        else (lambda s: _ends_prep(col[s], lo[s], hi[s], stack))
    bounds, low = np.empty(col.size), np.empty(col.size)
    for s in _blocks(np.arange(col.size + 1), 2 * stack[0].shape[1]):
        mass, prep = block(s)
        per_cell = _stack_apply(prep, p, stack[-1], reduce=False, inplace=plan is None)
        bounds[s] = per_cell.max(axis=1).sum(axis=1) * mass
        low[s] = per_cell.min(axis=1).sum(axis=1) * mass
    hint = float(low.sum())
    go = bounds > 0.04 * skip_tol * hint / max(col.size, 1)
    vals, errs, levels = 0.5 * bounds, 0.5 * bounds, np.where(go, level, -1)
    vals[go], errs[go], used = _eval_pieces(col[go], lo[go], hi[go], stack, p, level, None, plan,
                                            None if go.all() else np.flatnonzero(go))
    return vals, errs, bounds, levels, 2 * col.size * stack[0].shape[1] + used


def _eval_pieces(col, lo, hi, stack, p, level, low=None, plan=None, rows=None):
    """Order-2n Gauss value of every piece at ``level``, its difference
    from order n, and the elements used; given the order-n values
    ``low``, only order 2n is evaluated.  Given the grid's ``plan``, the
    pieces are its first-pass pieces ``rows`` (sorted; all when None),
    and the plan's work is used where it keeps it.
    """
    scale, n, both = stack[-1], _BASE_ORDER << level, low is None
    work = plan.entry(level, both, col.size) if plan else None
    if work is None:
        k_rows, k_cells, subs = _kinks(col, lo, hi, stack)
        sub, sub_w, r3 = _kink_prep(col, stack, level, both, subs)
        off, *runs = _runs(stack[0][col], k_rows, k_cells)
        block = lambda s, r, piece: _main_prep(col[s], lo[s], hi[s], stack, level, both,
                                               (piece, *(v[r] for v in runs)))[1:]
    else:
        (q, weights, off, cells, *taken), (sub, sub_w, r3) = work if rows is None else _take(
            work, rows)
        block = lambda s, r, piece: (weights[s], (q[s][piece], *_row_block(cells, r, *taken)))
    own = work is None or rows is not None
    main = np.empty((col.size, (3 if both else 2) * n))
    for s in _blocks(off, main.shape[1]):
        r, piece = _block_runs(off, s)
        weights_s, prep = block(s, r, piece)
        f = _stack_apply(prep, p, scale, reduce=False, inplace=own)[:, :, 0]
        main[s] = weights_s * _piece_sums(f, off[s.start:s.stop + 1] - r.start)
        del prep, f  # before the next block is made
    part = np.concatenate([main, sub_w * _stack_apply(sub, p, scale, inplace=own)])
    idx = np.concatenate([np.arange(col.size), r3])
    high = part[:, -2 * n:].sum(axis=1)
    vals = np.bincount(idx, high, minlength=col.size)
    errs = np.abs(vals - low) if low is not None else np.bincount(
        idx, np.abs(high - part[:, :n].sum(axis=1)), minlength=col.size)
    return vals, errs, int(off[-1]) * main.shape[1] + sub[0].size


# Pieces picked per refinement round, at most.
_ROUND_PIECES = 128
# Pieces the adaptive refinement may make, at most.
PIECE_BUDGET = 1 << 22


def lp_adaptive_integral(grid: CellGrid, p: float, rel_tol: float):
    """int (|A - prod t| / scale)^p over the cube, scale = sup |disc|.

    Returns (integral, scale, err_estimate, diagnostics).  d = 1 is
    exact, and so is every column whose counts are all zero.  The other
    columns start as one piece between each two consecutive corner
    products, refined worst-first until the summed error estimate meets
    ``rel_tol`` times the integral, until ``PIECE_BUDGET`` pieces
    (``boxes`` in the diagnostics) have been made, or until no piece can
    be refined; running out of budget is reported through the
    diagnostics, never silently.  ``elements`` counts the inner-stack
    elements evaluated, one per node and run on the pieces' own stacks.
    """
    d = grid.dim
    diag = {"engine": "adaptive", "boxes": 0, "elements": 0, "budget_exceeded": False}
    scale = grid.sup_abs
    if d == 1:
        a = grid.count_fractions()[None]
        f = _inner_stack(np.ones((1, 1)), a, grid.cell_lo(0), grid.cell_hi(0), p, scale)
        diag.update(engine="exact-1d", boxes=1, elements=a.size)
        return float(f[0, 0]), scale, 0.0, diag

    memo = grid.memo
    # the p-independent setup, made once per grid: the stack, the outer
    # axes' cell bounds, the occupied columns and the first-pass pieces
    if "layout" not in memo:
        a_cols = grid.count_fractions().reshape(-1, grid.counts.shape[-1])
        lo_axes, hi_axes = ([f(i) for i in range(d - 1)] for f in (grid.cell_lo, grid.cell_hi))
        corners = np.stack([functools.reduce(np.multiply.outer, [
            (lo_axes if j >> i & 1 else hi_axes)[i] for i in range(d - 1)]).reshape(-1)
            for j in range(1 << (d - 1))], axis=1)
        occupied = a_cols.any(axis=1)
        brk = np.sort(corners[occupied], axis=1)
        col = np.repeat(np.nonzero(occupied)[0], brk.shape[1] - 1)
        stack = a_cols, grid.cell_lo(d - 1), grid.cell_hi(d - 1), corners, scale
        memo["layout"] = stack, lo_axes, hi_axes, occupied, (
            col, brk[:, :-1].reshape(-1), brk[:, 1:].reshape(-1))
    stack, lo_axes, hi_axes, occupied, (col, lo, hi) = memo["layout"]
    m = stack[0].shape[1]
    # a column with no point below it integrates (prod t / scale)^p, a
    # product of one-axis powers; in logs, as large p underflows them.  A
    # NaN from -inf - -inf near p = 1e308 is a term below q1^-d, so 0
    q1 = p + 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logs = [q1 * np.log(h) + np.log(-np.expm1(q1 * np.log(low / h)))
                for low, h in zip(lo_axes, hi_axes)]
        log_closed = functools.reduce(np.add.outer, logs).reshape(-1)[~occupied]
        log_closed = log_closed - d * math.log(q1) - p * math.log(scale)
    closed = math.fsum(np.exp(np.nan_to_num(log_closed, nan=-np.inf)))

    cost = col.size * (2 + 3 * _BASE_ORDER) * m
    if cost > MAX_EVAL_ELEMENTS:
        raise ValueError(f"adaptive Lp integration pass needs {cost} evaluations (limit "
                         f"{MAX_EVAL_ELEMENTS}); size is beyond the exact-engine scale")

    # the first pass runs in chunks that bound its memory; a grid's plan
    # only exists where that is one chunk
    plan = _grid_plan(grid, cost, col, lo, hi, stack)
    chunk = max(1, _CHUNK_ELEMENTS // ((2 + 3 * _BASE_ORDER) * m))
    *store, used = zip(*(_new_pieces(col[s:s + chunk], lo[s:s + chunk], hi[s:s + chunk], stack, p,
                                     0, rel_tol, plan) for s in range(0, max(col.size, 1), chunk)))
    (val, err, bnd, lvl), elements = map(np.concatenate, store), sum(used)
    # every piece made stays in the store; a bisected one holds zeros
    while True:
        target = rel_tol * max(closed + float(val.sum()), 1e-300)
        # a near-zero value against a sizable sup bound means the nodes may
        # have missed a narrow peak, and orders that differ by more than half
        # the value have not converged; such a piece carries half its bound
        missed = ((val < 1e-3 * bnd) | (err > 0.5 * val)) & (bnd > 0.01 * target)
        eff = np.where(missed, np.maximum(err, 0.5 * bnd), err)
        if float(eff.sum()) <= target:
            break
        if val.size >= PIECE_BUDGET:
            diag["budget_exceeded"] = True
            break
        # the worst pieces in (-eff, slot) order, each taken while the
        # error from it on, over all pieces, exceeds half the target.
        # Summing what is left, not what is taken, keeps the choice exact
        # when half the target is below the rounding unit of the total.
        # A top-level piece whose midpoint rounds to an end cannot be
        # bisected, so it is never taken and its error stays in the sum.
        mid = 0.5 * (lo + hi)
        pick = np.where((lvl == _MAX_LEVEL) & ((mid == lo) | (mid == hi)), 0.0, eff)
        k = min(_ROUND_PIECES, val.size)
        order = np.argpartition(-pick, k - 1)
        top = order[:k][np.lexsort((order[:k], -pick[order[:k]]))]
        left = np.cumsum(pick[top][::-1])[::-1] + float(np.sum(pick[order[k:]]))
        par = top[(left > 0.5 * target) & (pick[top] > 0.0)]
        if par.size == 0:
            break
        # a piece below the top level moves one level up in place, its order
        # 2n becoming order n (a placeholder goes to level 0); one at the top
        # level is bisected.  Pieces below the top level are all first-pass
        # pieces, as bisection makes top-level ones.
        up, par = par[lvl[par] < _MAX_LEVEL], par[lvl[par] == _MAX_LEVEL]
        for level in np.unique(lvl[up]).tolist():
            g = np.sort(up[lvl[up] == level])
            val[g], err[g], used = _eval_pieces(col[g], lo[g], hi[g], stack, p, level + 1,
                                                None if level < 0 else val[g], plan, g)
            lvl[g] += 1
            elements += used
        if par.size:
            new = np.tile(col[par], 2), np.append(lo[par], mid[par]), np.append(mid[par], hi[par])
            val[par] = err[par] = bnd[par] = 0.0
            *fresh, used = _new_pieces(*new, stack, p, _MAX_LEVEL)
            col, lo, hi, val, err, bnd, lvl = (np.concatenate(x) for x in zip(
                (col, lo, hi, val, err, bnd, lvl), (*new, *fresh)))
            elements += used

    diag.update(boxes=val.size, elements=elements)
    # a floor of four rounding units of the sums, as converged orders can
    # agree below them
    err_j = math.fsum(eff) + 4 * 2.0 ** -52 * (math.fsum(np.abs(val)) + closed)
    return math.fsum(np.append(val, closed)), scale, err_j, diag
