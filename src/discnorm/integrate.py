"""Integration engines over the cell decomposition.

Three routes, used by the norm modules:

* ``lp_moment_integral``: exact binomial/moment evaluation of
  int (A - prod t)^p for even integer p.  No quadrature error, but the
  alternating sum loses digits as p grows, so callers check the
  reported amplification factor.

* ``lp_adaptive_integral``: int |A - prod t|^p for arbitrary real
  p >= 1.  The last axis is integrated in closed form (the
  antiderivative of |A - Q t|^p is elementary in t), which removes the
  kink of the absolute value; the remaining axes use tensor
  Gauss-Legendre of orders 4 and 8 with worst-first dyadic subdivision,
  the order difference serving as the error estimate.  Everything is
  scaled by the sup of |local discrepancy| so arbitrarily large p stays
  inside double range.

* ``integrate_of_delta``: plain adaptive tensor quadrature of
  fn(local discrepancy) over all d axes.  Slower and kink-limited;
  kept as an independent cross-check route for the tests.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .cells import CellGrid

_GL_CACHE: dict = {}

# Evaluation-cost guard for the adaptive engines (elements per full pass).
MAX_EVAL_ELEMENTS = 400_000_000
# Batch memory cap (array elements per evaluation chunk).
_CHUNK_ELEMENTS = 24_000_000
_DBL_MAX = np.finfo(float).max


class NumericalError(RuntimeError):
    """Raised when an iteration fails to bracket or converge structurally."""


def _gl01(n: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = ((x + 1.0) / 2.0, w / 2.0)
    return _GL_CACHE[n]


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


def _endpoint_cells(cols, lo, hi, a_cols, t_lo, t_hi, p, scale):
    """Per-cell inner integrals at each box's smallest and largest q.

    The inner per-cell integral is convex in the outer product q
    (abs-affine composed with a convex power), so its max over
    [qmin, qmax] sits at an endpoint; vol times the summed max is a true
    bound on the box integral.  Returns the (B, 2, m) endpoint values
    and the (B,) box volumes.
    """
    qq = np.stack([lo.prod(axis=1), hi.prod(axis=1)], axis=1)
    per_cell = _inner_stack(qq, a_cols[cols], t_lo, t_hi, p, scale, reduce=False)
    return per_cell, (hi - lo).prod(axis=1)


def _eval_lp_boxes(cols, lo, hi, a_cols, t_lo, t_hi, p, scale, skip_below=0.0,
                   ends=None):
    """Quadrature value, order-difference error, sup bound per outer box.

    Boxes whose bound falls below ``skip_below`` are not quadratured:
    their value is bound / 2, which is within bound / 2 of the truth,
    and they come back flagged unevaluated so the refinement loop can
    activate them later if the error budget ever demands it.  ``ends``
    is the ``_endpoint_cells`` result when the caller already has it.
    """
    m = a_cols.shape[1]
    per_cell, vol = ends if ends is not None else _endpoint_cells(
        cols, lo, hi, a_cols, t_lo, t_hi, p, scale)
    bounds = per_cell.max(axis=1).sum(axis=1) * vol
    vals = 0.5 * bounds
    errs = 0.5 * bounds
    if skip_below > 0.0:
        evaluated = bounds > skip_below
    else:
        evaluated = np.ones(cols.shape[0], dtype=bool)
    idx = np.nonzero(evaluated)[0]
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
    return vals, errs, bounds, evaluated


def lp_adaptive_integral(grid: CellGrid, p: float, rel_tol: float,
                         col_budget: int = 1 << 20, total_budget: int = 1 << 22):
    """int (|A - prod t| / scale)^p over the cube, scale = sup |disc|.

    Returns (integral, scale, err_estimate, diagnostics).  d = 1 is
    exact (no outer quadrature at all).  The subdivision budget is per
    starting column with a global cap; exhaustion is reported through
    the diagnostics, never silently.
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
    col_lo = np.stack([g.reshape(-1) for g in np.meshgrid(*lo_axes, indexing="ij")], axis=1)
    col_hi = np.stack([g.reshape(-1) for g in np.meshgrid(*hi_axes, indexing="ij")], axis=1)
    n_cols = col_lo.shape[0]
    cost = n_cols * (_GL_HIGH ** (d - 1) + _GL_LOW ** (d - 1)) * m
    if cost > MAX_EVAL_ELEMENTS:
        raise ValueError(
            f"adaptive Lp integration pass needs {cost} evaluations "
            f"(limit {MAX_EVAL_ELEMENTS}); size is beyond the exact-engine scale"
        )

    cols0 = np.arange(n_cols)
    ends = _endpoint_cells(cols0, col_lo, col_hi, a_cols, t_lo, t_hi, p, scale)
    # the summed endpoint min is a cheap, non-rigorous size hint: columns
    # with a negligible share of it are carried by their bound alone; the
    # combined placeholder error stays a few percent of the target and
    # the loop can always activate them later
    hint = float((ends[0].min(axis=1).sum(axis=1) * ends[1]).sum())
    skip0 = 0.04 * rel_tol * hint / n_cols
    vals0, errs0, bnds0, ev0 = _eval_lp_boxes(
        cols0, col_lo, col_hi, a_cols, t_lo, t_hi, p, scale, skip_below=skip0, ends=ends)

    # box store, worst-first refinement
    store_col = list(cols0)
    store_lo = [col_lo[i].copy() for i in range(n_cols)]
    store_hi = [col_hi[i].copy() for i in range(n_cols)]
    store_val = list(map(float, vals0))
    store_err = list(map(float, errs0))
    store_ev = list(map(bool, ev0))
    alive = [True] * n_cols
    col_boxes = dict.fromkeys(range(n_cols), 1)

    def eff_err(val, err, bnd, target):
        # a near-zero value against a sizable sup bound means the nodes
        # may have missed a narrow peak; force refinement via the bound
        if val < 1e-3 * bnd and bnd > 0.01 * max(target, 1e-300):
            return max(err, 0.5 * bnd)
        return err

    total_val = float(vals0.sum())
    target = rel_tol * max(total_val, 1e-300)
    heap = []
    eff = [0.0] * n_cols
    for i in range(n_cols):
        eff[i] = eff_err(store_val[i], store_err[i], float(bnds0[i]), target)
        heapq.heappush(heap, (-eff[i], i))
    total_eff = float(sum(eff))
    n_boxes = n_cols
    rounds = 0

    while heap:
        target = rel_tol * max(total_val, 1e-300)
        if total_eff <= target:
            break
        if n_boxes >= total_budget:
            diag["budget_exceeded"] = True
            break
        parents = []
        activate = []
        want = max(total_eff - 0.5 * target, 0.0)
        got = 0.0
        while heap and len(parents) + len(activate) < 128 and got < want:
            negerr, i = heapq.heappop(heap)
            if not alive[i]:
                continue
            if -negerr <= 0.0:
                heapq.heappush(heap, (negerr, i))
                break
            if not store_ev[i]:
                # placeholder carried by its bound: evaluate, don't split
                activate.append(i)
                got += -negerr
                continue
            if col_boxes.get(store_col[i], 0) >= col_budget:
                diag["budget_exceeded"] = True
                continue
            parents.append(i)
            got += -negerr
        if activate:
            acol = np.array([store_col[i] for i in activate])
            alo = np.array([store_lo[i] for i in activate])
            ahi = np.array([store_hi[i] for i in activate])
            avals, aerrs, abnds, _ = _eval_lp_boxes(
                acol, alo, ahi, a_cols, t_lo, t_hi, p, scale)
            for j, i in enumerate(activate):
                total_val -= store_val[i]
                total_eff -= eff[i]
                store_val[i] = float(avals[j])
                store_err[i] = float(aerrs[j])
                store_ev[i] = True
                e = eff_err(store_val[i], store_err[i], float(abnds[j]), target)
                eff[i] = e
                heapq.heappush(heap, (-e, i))
                total_val += store_val[i]
                total_eff += e
        if not parents:
            if activate:
                rounds += 1
                continue
            break
        child_col, child_lo, child_hi = [], [], []
        for i in parents:
            alive[i] = False
            total_val -= store_val[i]
            total_eff -= eff[i]
            lo_i, hi_i = store_lo[i], store_hi[i]
            ax = int(np.argmax(hi_i - lo_i))
            mid = 0.5 * (lo_i[ax] + hi_i[ax])
            for half in range(2):
                l2 = lo_i.copy()
                h2 = hi_i.copy()
                if half == 0:
                    h2[ax] = mid
                else:
                    l2[ax] = mid
                child_col.append(store_col[i])
                child_lo.append(l2)
                child_hi.append(h2)
            col_boxes[store_col[i]] = col_boxes.get(store_col[i], 0) + 1
        ccol = np.array(child_col)
        clo = np.array(child_lo)
        chi = np.array(child_hi)
        cval, cerr, cbnd, _ = _eval_lp_boxes(ccol, clo, chi, a_cols, t_lo, t_hi, p, scale)
        for j in range(len(ccol)):
            idx = len(store_col)
            store_col.append(int(ccol[j]))
            store_lo.append(clo[j])
            store_hi.append(chi[j])
            store_val.append(float(cval[j]))
            store_err.append(float(cerr[j]))
            store_ev.append(True)
            alive.append(True)
            e = eff_err(float(cval[j]), float(cerr[j]), float(cbnd[j]), target)
            eff.append(e)
            heapq.heappush(heap, (-e, idx))
            total_val += float(cval[j])
            total_eff += e
        n_boxes += len(ccol)
        rounds += 1
        if rounds % 64 == 0:
            total_val = math.fsum(store_val[i] for i in range(len(store_val)) if alive[i])
            total_eff = math.fsum(eff[i] for i in range(len(eff)) if alive[i])

    live = [i for i in range(len(store_val)) if alive[i]]
    integral = math.fsum(store_val[i] for i in live)
    err = math.fsum(eff[i] for i in live)
    diag["boxes"] = n_boxes
    return integral, scale, err, diag


def integrate_of_delta(grid: CellGrid, fn, rel_tol: float = 1e-6,
                       total_budget: int = 1 << 20):
    """Adaptive tensor quadrature of fn(local discrepancy) over the cube.

    fn must be a vectorized map on ndarray values of A - prod t.  Boxes
    whose discrepancy changes sign are split before the order-difference
    estimate is trusted.  Cross-check engine: all axes quadratured, no
    closed-form help, so only moderate tolerances are practical.
    """
    d = grid.dim
    afrac = grid.count_fractions().reshape(-1)
    lo_axes = [grid.cell_lo(i) for i in range(d)]
    hi_axes = [grid.cell_hi(i) for i in range(d)]
    cell_lo = np.stack([g.reshape(-1) for g in np.meshgrid(*lo_axes, indexing="ij")], axis=1)
    cell_hi = np.stack([g.reshape(-1) for g in np.meshgrid(*hi_axes, indexing="ij")], axis=1)
    n_cells = cell_lo.shape[0]
    if n_cells * (8 ** d) > MAX_EVAL_ELEMENTS:
        raise ValueError("cell count too large for the cross-check quadrature engine")

    def evaluate(acnt, lo, hi):
        b = lo.shape[0]
        out = []
        for order in (4, 8):
            q, wt = _outer_tensor(lo, hi, order)
            vals = fn(acnt[:, None] - q)
            out.append((wt * vals).sum(axis=1))
        i4, i8 = out
        straddle = ((acnt - lo.prod(axis=1)) > 0.0) & ((acnt - hi.prod(axis=1)) < 0.0)
        return i8, np.abs(i8 - i4), straddle

    acnt0 = afrac
    v0, e0, s0 = evaluate(acnt0, cell_lo, cell_hi)
    store_a = list(acnt0)
    store_lo = [cell_lo[i] for i in range(n_cells)]
    store_hi = [cell_hi[i] for i in range(n_cells)]
    store_val = list(map(float, v0))
    store_err = list(map(float, e0))
    alive = [True] * n_cells
    heap = []
    for i in range(n_cells):
        err = store_err[i] if not s0[i] else max(store_err[i], 1e-2 * abs(store_val[i]) + 1e-300)
        store_err[i] = err
        heapq.heappush(heap, (-err, i))
    total_val = math.fsum(store_val)
    total_err = math.fsum(store_err)
    n_boxes = n_cells
    exceeded = False

    while heap:
        target = rel_tol * max(abs(total_val), 1e-300)
        if total_err <= target:
            break
        if n_boxes >= total_budget:
            exceeded = True
            break
        parents = []
        while heap and len(parents) < 64:
            negerr, i = heapq.heappop(heap)
            if not alive[i]:
                continue
            if -negerr <= 0.25 * target / max(1, n_boxes):
                heapq.heappush(heap, (negerr, i))
                break
            parents.append(i)
        if not parents:
            break
        ca, clo, chi = [], [], []
        for i in parents:
            alive[i] = False
            total_val -= store_val[i]
            total_err -= store_err[i]
            lo_i, hi_i = store_lo[i], store_hi[i]
            ax = int(np.argmax(hi_i - lo_i))
            mid = 0.5 * (lo_i[ax] + hi_i[ax])
            for half in range(2):
                l2 = lo_i.copy()
                h2 = hi_i.copy()
                (h2 if half == 0 else l2)[ax] = mid
                ca.append(store_a[i])
                clo.append(l2)
                chi.append(h2)
        ca = np.array(ca)
        clo = np.array(clo)
        chi = np.array(chi)
        cv, ce, cs = evaluate(ca, clo, chi)
        for j in range(len(ca)):
            idx = len(store_val)
            err = float(ce[j])
            if cs[j]:
                err = max(err, 1e-3 * abs(float(cv[j])))
            store_a.append(float(ca[j]))
            store_lo.append(clo[j])
            store_hi.append(chi[j])
            store_val.append(float(cv[j]))
            store_err.append(err)
            alive.append(True)
            heapq.heappush(heap, (-err, idx))
            total_val += float(cv[j])
            total_err += err
        n_boxes += len(ca)

    live = [i for i in range(len(store_val)) if alive[i]]
    integral = math.fsum(store_val[i] for i in live)
    err = math.fsum(store_err[i] for i in live)
    return integral, err, {"boxes": n_boxes, "budget_exceeded": exceeded}
