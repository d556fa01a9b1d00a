"""Integration engines over the cell decomposition.

Two routes, used by the norm modules:

* ``lp_moment_integral``: exact binomial/moment evaluation of
  int (A - prod t)^p for even integer p.  No quadrature error, but the
  alternating sum loses digits as p grows, so callers check the
  reported amplification factor.

* ``lp_adaptive_integral``: int |A - prod t|^p for arbitrary real
  p >= 1.  The last axis is integrated in closed form (the
  antiderivative of |A - Q t|^p is elementary in t), which removes the
  kink of the absolute value; the remaining axes use tensor
  Gauss-Legendre of orders 3 and 6 with worst-first dyadic subdivision,
  the order difference serving as the error estimate (an estimate, not
  a bound).  Everything is scaled by the sup of |local discrepancy| so
  arbitrarily large p stays inside double range.
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
    terms of the inner cell stack; t_lo/t_hi: (m,).  The antiderivative
    of each one-signed piece is a pure power, evaluated through
    log1p/expm1 so nearly-cancelling endpoint powers stay accurate.
    With ``reduce=False`` the per-cell integrals (B, S, m) are returned
    unsummed.
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
            mid = np.abs(a_cnt[b, k] - q[b, s] * (t_lo + t_hi)[k] * 0.5) / scale
            out[b, s, k] = tlen[k] * np.power(mid, p)
    return out.sum(axis=2) if reduce else out


def _outer_tensor(lo, hi, order):
    """Tensor GL nodes as coordinate products plus weights.

    lo, hi: (B, douter).  Returns q (B, order**douter) of node products
    and w (B, order**douter) of weights including the box volume.
    """
    b = lo.shape[0]
    x, w = _gl01(order)
    q = np.ones((b, 1))
    wt = np.ones((b, 1))
    for i in range(lo.shape[1]):
        span = hi[:, i] - lo[:, i]
        nodes = lo[:, i, None] + span[:, None] * x
        q = (q[:, :, None] * nodes[:, None, :]).reshape(b, -1)
        wt = (wt[:, :, None] * (span[:, None] * w)[:, None, :]).reshape(b, -1)
    return q, wt


# Tensor Gauss-Legendre order pair for the outer dimensions.
_GL_LOW = 3
_GL_HIGH = 6


def _eval_lp_boxes(cols, lo, hi, a_cols, t_lo, t_hi, p, scale, skip_tol=0.0):
    """Quadrature value, order-difference error, sup bound per outer box.

    The inner per-cell integral is convex in the outer product q
    (abs-affine composed with a convex power), so its max over
    [qmin, qmax] sits at an endpoint; vol times the summed max is a true
    bound on the box integral.  With ``skip_tol`` (the first pass) the
    summed endpoint min gives a cheap, non-rigorous size hint, and boxes
    whose bound is a negligible share of it are not quadratured: their
    value and error are both bound / 2, so the value is within the error
    of the truth, and the refinement loop splits them like any other box
    if the error budget ever picks them.  The combined placeholder error
    stays a few percent of the target.
    """
    m = a_cols.shape[1]
    qq = np.stack([lo.prod(axis=1), hi.prod(axis=1)], axis=1)
    per_cell = _inner_stack(qq, a_cols[cols], t_lo, t_hi, p, scale, reduce=False)
    vol = (hi - lo).prod(axis=1)
    bounds = per_cell.max(axis=1).sum(axis=1) * vol
    vals = 0.5 * bounds
    errs = 0.5 * bounds
    idx = np.arange(cols.shape[0])
    if skip_tol > 0.0:
        hint = float((per_cell.min(axis=1).sum(axis=1) * vol).sum())
        skip_below = 0.04 * skip_tol * hint / cols.shape[0]
        if skip_below > 0.0:
            idx = np.nonzero(bounds > skip_below)[0]
    n_low = _GL_LOW ** lo.shape[1]
    chunk = max(1, _CHUNK_ELEMENTS // max(1, (n_low + _GL_HIGH ** lo.shape[1]) * m))
    for s in range(0, idx.size, chunk):
        sel = idx[s:s + chunk]
        # both orders' nodes go through one kernel call
        q_low, w_low = _outer_tensor(lo[sel], hi[sel], _GL_LOW)
        q_high, w_high = _outer_tensor(lo[sel], hi[sel], _GL_HIGH)
        f = _inner_stack(np.concatenate([q_low, q_high], axis=1), a_cols[cols[sel]],
                         t_lo, t_hi, p, scale)
        low = (w_low * f[:, :n_low]).sum(axis=1)
        high = (w_high * f[:, n_low:]).sum(axis=1)
        vals[sel] = high
        errs[sel] = np.abs(high - low)
    return vals, errs, bounds


def _effective_err(val, err, bnd, target):
    """The error a box is ranked and counted by.

    A near-zero value against a sizable sup bound means the nodes may
    have missed a narrow peak; such a box carries half its bound instead,
    which forces its refinement.
    """
    missed = (val < 1e-3 * bnd) & (bnd > 0.01 * max(target, 1e-300))
    return np.where(missed, np.maximum(err, 0.5 * bnd), err)


# Boxes picked per refinement round, at most.
_ROUND_BOXES = 128


def lp_adaptive_integral(grid: CellGrid, p: float, rel_tol: float,
                         total_budget: int = 1 << 22):
    """int (|A - prod t| / scale)^p over the cube, scale = sup |disc|.

    Returns (integral, scale, err_estimate, diagnostics).  d = 1 is
    exact (no outer quadrature at all).  The outer boxes start as one
    per cell column and are refined worst-first until the summed error
    estimate meets ``rel_tol`` times the integral, or until
    ``total_budget`` boxes have been made; running out is reported
    through the diagnostics, never silently.  A column the first pass
    skips as negligible carries half its sup bound as value and as
    error, and is split like any other box if it is ever picked.
    """
    d = grid.dim
    diag = {"engine": "adaptive", "boxes": 0, "budget_exceeded": False}
    scale = grid.sup_abs_discrepancy()
    if scale == 0.0:
        return 0.0, 0.0, 0.0, diag
    m = grid.counts.shape[-1]
    a_cols = grid.count_fractions().reshape(-1, m)
    t_lo = np.ascontiguousarray(grid.cell_lo(d - 1))
    t_hi = np.ascontiguousarray(grid.cell_hi(d - 1))
    if d == 1:
        f = _inner_stack(np.ones((1, 1)), a_cols, t_lo, t_hi, p, scale)
        diag["engine"] = "exact-1d"
        diag["boxes"] = 1
        return float(f[0, 0]), scale, 0.0, diag

    lo_axes = [grid.cell_lo(i) for i in range(d - 1)]
    hi_axes = [grid.cell_hi(i) for i in range(d - 1)]
    lo = np.stack([g.reshape(-1) for g in np.meshgrid(*lo_axes, indexing="ij")], axis=1)
    hi = np.stack([g.reshape(-1) for g in np.meshgrid(*hi_axes, indexing="ij")], axis=1)
    n = lo.shape[0]
    cost = n * (_GL_HIGH ** (d - 1) + _GL_LOW ** (d - 1)) * m
    if cost > MAX_EVAL_ELEMENTS:
        raise ValueError(
            f"adaptive Lp integration pass needs {cost} evaluations "
            f"(limit {MAX_EVAL_ELEMENTS}); size is beyond the exact-engine scale"
        )

    # the box store: slots [0, n) hold the live boxes; capacity doubles
    col = np.arange(n)
    val, err, bnd = _eval_lp_boxes(col, lo, hi, a_cols, t_lo, t_hi, p, scale,
                                   skip_tol=rel_tol)
    eff = _effective_err(val, err, bnd, rel_tol * max(float(val.sum()), 1e-300))
    n_boxes = n
    while True:
        target = rel_tol * max(float(np.sum(val[:n])), 1e-300)
        total_eff = float(np.sum(eff[:n]))
        if total_eff <= target:
            break
        if n_boxes >= total_budget:
            diag["budget_exceeded"] = True
            break
        # the worst boxes in (-eff, slot) order, each taken while the
        # error from it on, over all boxes, exceeds half the target.
        # Summing what is left, not what is taken, keeps the choice exact
        # when half the target is below the rounding unit of the total.
        k = min(_ROUND_BOXES, n)
        order = np.argpartition(-eff[:n], k - 1)
        top = order[:k][np.lexsort((order[:k], -eff[order[:k]]))]
        left = np.cumsum(eff[top][::-1])[::-1] + float(np.sum(eff[order[k:]]))
        par = top[(left > 0.5 * target) & (eff[top] > 0.0)]
        if par.size == 0:
            break
        n_par = par.size
        while n + n_par > val.shape[0]:
            col, lo, hi, val, eff = (np.concatenate([a, np.empty_like(a)])
                                     for a in (col, lo, hi, val, eff))
        # halve each parent's longest axis: the lower child takes the
        # parent's slot, the upper one is appended
        rows = np.arange(n_par)
        ax = np.argmax(hi[par] - lo[par], axis=1)
        mid = 0.5 * (lo[par, ax] + hi[par, ax])
        c_lo = np.concatenate([lo[par], lo[par]])
        c_hi = np.concatenate([hi[par], hi[par]])
        c_hi[rows, ax] = mid
        c_lo[n_par + rows, ax] = mid
        c_col = np.concatenate([col[par], col[par]])
        v, e, b = _eval_lp_boxes(c_col, c_lo, c_hi, a_cols, t_lo, t_hi, p, scale)
        slots = np.concatenate([par, np.arange(n, n + n_par)])
        col[slots], lo[slots], hi[slots] = c_col, c_lo, c_hi
        val[slots] = v
        eff[slots] = _effective_err(v, e, b, target)
        n += n_par
        n_boxes += 2 * n_par

    diag["boxes"] = n_boxes
    return math.fsum(val[:n]), scale, math.fsum(eff[:n]), diag
