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
  A - s t crosses a cell edge, are cut out cell by cell.  Everything is
  scaled by sup |local discrepancy| so any large p stays in range.
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


def _inner_stack(q, a_cnt, t_lo, t_hi, p, scale, reduce=True):
    """sum_k int_{t_lo[k]}^{t_hi[k]} (|A_k - q t| / scale)^p dt, vectorized.

    q: (B, S) products of the outer coordinates; a_cnt: (B, m) counting
    terms of the inner cell stack; t_lo/t_hi: (m,), or (B, 1, m) for
    bounds that differ per row.  The antiderivative of each one-signed
    piece is a pure power, evaluated through log1p/expm1 so nearly-
    cancelling endpoint powers stay accurate.  With ``reduce=False`` the
    per-cell integrals (B, S, m) are returned unsummed.
    """
    q1 = p + 1.0
    qe = q[:, :, None]
    ae = a_cnt[:, None, :]
    tlen = t_hi - t_lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        # capped so that inf * 0 cannot make a NaN: when q * q1 underflows,
        # a cell that is not thin has |v| below 1e-296, whose powers are 0
        inv = np.minimum(scale / (qe * q1), _DBL_MAX)
        delta = np.multiply(qe, tlen)
        delta /= scale
        vhi = np.multiply(qe, t_lo)
        np.subtract(ae, vhi, out=vhi)
        vhi /= scale
        vlo = np.subtract(vhi, delta)
        pos = vlo >= 0.0
        straddle = vhi > 0.0
        straddle &= ~pos
        # the endpoint value of larger magnitude off the straddle cells;
        # -vlo is exactly delta - vhi under IEEE rounding
        out = np.negative(vlo)
        np.copyto(out, vhi, where=pos)
        cross = straddle.any()
        if cross:
            s_val = np.broadcast_to(inv, out.shape)[straddle] * (
                np.power(np.maximum(vhi[straddle], 0.0), q1)
                + np.power(np.maximum(-vlo[straddle], 0.0), q1)
            )
        den = np.maximum(out, 1e-300, out=vlo)
        thin = np.less_equal(delta, np.multiply(den, 1e-12, out=vhi))
        thin &= ~straddle
        # the common case: the cell sits entirely on one side of the zero
        # crossing, so the power antiderivative nearly cancels between the
        # endpoints and goes through log1p/expm1 for accuracy.  It runs on
        # the whole block in place; the few straddle and thin cells are
        # overwritten afterwards.
        ratio = np.divide(delta, den, out=delta)
        np.clip(ratio, 0.0, 1.0, out=ratio)
        np.negative(ratio, out=ratio)
        np.log1p(ratio, out=ratio)
        ratio *= q1
        np.expm1(ratio, out=ratio)
        np.negative(ratio, out=ratio)
        np.power(out, q1, out=out)
        out *= inv
        out *= ratio
        if cross:
            out[straddle] = s_val
        if thin.any():
            b, s, k = np.nonzero(thin)
            t_mid = np.broadcast_to(t_lo + t_hi, out.shape)[b, s, k]
            mid = np.abs(a_cnt[b, k] - q[b, s] * t_mid * 0.5) / scale
            out[b, s, k] = np.broadcast_to(tlen, out.shape)[b, s, k] * np.power(mid, p)
    return out.sum(axis=2) if reduce else out


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


def _new_pieces(col, lo, hi, corners, stack, level, skip_tol=0.0):
    """Value, error, sup bound and level of new pieces; elements used.

    Each cell's integral is convex in s, so its max over a piece sits at
    an endpoint, and the summed max times the piece's mass bounds the
    piece.  With ``skip_tol`` (the first pass) the summed endpoint min is
    a cheap, non-rigorous size hint; a piece whose bound is a negligible
    share of it is a placeholder at level -1, carrying half its bound as
    value and as error, which keeps the truth within the error.  Together
    these placeholders stay a few percent of the target.
    """
    a_cols, t_lo, t_hi, p, scale = stack
    ends = np.stack([lo, hi], axis=1)
    mass = np.diff(_product_law(ends, corners[col], cumulative=True), axis=1)[:, 0]
    per_cell = _inner_stack(ends, a_cols[col], t_lo, t_hi, p, scale, reduce=False)
    bounds = per_cell.max(axis=1).sum(axis=1) * mass
    hint = float((per_cell.min(axis=1).sum(axis=1) * mass).sum())
    go = bounds > 0.04 * skip_tol * hint / max(col.size, 1)
    vals, errs, levels = 0.5 * bounds, 0.5 * bounds, np.where(go, level, -1)
    vals[go], errs[go], used = _eval_pieces(col[go], lo[go], hi[go], corners, stack, level)
    return vals, errs, bounds, levels, per_cell.size + used


def _eval_pieces(col, lo, hi, corners, stack, level, low=None):
    """Order-2n Gauss value of every piece at ``level``, its difference
    from order n, and the elements used; given the order-n values
    ``low``, only order 2n is evaluated."""
    a_cols, t_lo, t_hi, p, scale = stack
    n = _BASE_ORDER << level
    a = a_cols[col]
    q, wt = _gauss_nodes(lo, hi, level, low is None)
    f = _inner_stack(q, a, t_lo, t_hi, p, scale, reduce=False)
    # a cell whose kink A/t_hi or A/t_lo lies inside the piece leaves the
    # stack sum and is integrated alone on the sub-pieces cut there
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kinks = np.stack([a / t_hi, a / t_lo], axis=2)
    inside = (kinks > lo[:, None, None]) & (kinks < hi[:, None, None])
    rows, cells = np.nonzero(inside.any(axis=2))
    f[rows, :, cells] = 0.0
    part = wt * _product_law(q, corners[col]) * f.sum(axis=2)
    cuts = np.clip(kinks[rows, cells], lo[rows, None], hi[rows, None])
    edges = np.concatenate([lo[rows, None], cuts, hi[rows, None]], axis=1)
    r3, c3 = np.repeat(rows, 3), np.repeat(cells, 3)
    q, wt = _gauss_nodes(edges[:, :-1].reshape(-1), edges[:, 1:].reshape(-1), level, low is None)
    sub = wt * _product_law(q, corners[col[r3]]) * _inner_stack(
        q, a[r3, c3][:, None], t_lo[c3][:, None, None], t_hi[c3][:, None, None], p, scale)
    part = np.concatenate([part, sub])
    rows = np.concatenate([np.arange(col.size), r3])
    high = part[:, -2 * n:].sum(axis=1)
    vals = np.bincount(rows, high, minlength=col.size)
    errs = np.abs(vals - low) if low is not None else np.bincount(
        rows, np.abs(high - part[:, :n].sum(axis=1)), minlength=col.size)
    return vals, errs, f.size + q.size


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
    elements evaluated.
    """
    d = grid.dim
    diag = {"engine": "adaptive", "boxes": 0, "elements": 0, "budget_exceeded": False}
    scale = grid.sup_abs_discrepancy()
    m = grid.counts.shape[-1]
    a_cols = grid.count_fractions().reshape(-1, m)
    t_lo = np.ascontiguousarray(grid.cell_lo(d - 1))
    t_hi = np.ascontiguousarray(grid.cell_hi(d - 1))
    if d == 1:
        f = _inner_stack(np.ones((1, 1)), a_cols, t_lo, t_hi, p, scale)
        diag.update(engine="exact-1d", boxes=1, elements=m)
        return float(f[0, 0]), scale, 0.0, diag

    lo_axes = [grid.cell_lo(i) for i in range(d - 1)]
    hi_axes = [grid.cell_hi(i) for i in range(d - 1)]
    # a column with no point below it integrates (prod t / scale)^p, a
    # product of one-axis powers; in logs, as large p underflows them.  A
    # NaN from -inf - -inf near p = 1e308 is a term below q1^-d, so 0
    q1 = p + 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logs = [q1 * np.log(h) + np.log(-np.expm1(q1 * np.log(low / h)))
                for low, h in zip(lo_axes, hi_axes)]
        occupied = a_cols.any(axis=1)
        log_closed = functools.reduce(np.add.outer, logs).reshape(-1)[~occupied]
        log_closed = log_closed - d * math.log(q1) - p * math.log(scale)
    closed = math.fsum(np.exp(np.nan_to_num(log_closed, nan=-np.inf)))

    corners = np.stack([functools.reduce(np.multiply.outer, [
        (lo_axes if j >> i & 1 else hi_axes)[i] for i in range(d - 1)]).reshape(-1)
        for j in range(1 << (d - 1))], axis=1)
    brk = np.sort(corners[occupied], axis=1)
    col = np.repeat(np.nonzero(occupied)[0], brk.shape[1] - 1)
    lo, hi = brk[:, :-1].reshape(-1), brk[:, 1:].reshape(-1)
    cost = col.size * (2 + 3 * _BASE_ORDER) * m
    if cost > MAX_EVAL_ELEMENTS:
        raise ValueError(f"adaptive Lp integration pass needs {cost} evaluations (limit "
                         f"{MAX_EVAL_ELEMENTS}); size is beyond the exact-engine scale")

    # the first pass runs in chunks that bound its memory
    stack = (a_cols, t_lo, t_hi, p, scale)
    chunk = max(1, _CHUNK_ELEMENTS // ((2 + 3 * _BASE_ORDER) * m))
    *store, used = zip(*(_new_pieces(col[s:s + chunk], lo[s:s + chunk], hi[s:s + chunk], corners,
                                     stack, 0, rel_tol) for s in range(0, max(col.size, 1), chunk)))
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
        # level is bisected
        up, par = par[lvl[par] < _MAX_LEVEL], par[lvl[par] == _MAX_LEVEL]
        for level in np.unique(lvl[up]).tolist():
            g = up[lvl[up] == level]
            val[g], err[g], used = _eval_pieces(col[g], lo[g], hi[g], corners, stack, level + 1,
                                                None if level < 0 else val[g])
            lvl[g] += 1
            elements += used
        if par.size:
            new = np.tile(col[par], 2), np.append(lo[par], mid[par]), np.append(mid[par], hi[par])
            val[par] = err[par] = bnd[par] = 0.0
            *fresh, used = _new_pieces(*new, corners, stack, _MAX_LEVEL)
            col, lo, hi, val, err, bnd, lvl = (np.concatenate(x) for x in zip(
                (col, lo, hi, val, err, bnd, lvl), (*new, *fresh)))
            elements += used

    diag.update(boxes=val.size, elements=elements)
    # a floor of four rounding units of the sums, as converged orders can
    # agree below them
    err_j = math.fsum(eff) + 4 * 2.0 ** -52 * (math.fsum(np.abs(val)) + closed)
    return math.fsum(np.append(val, closed)), scale, err_j, diag
