"""The inner-stack kernel and the refinement driver of the adaptive L_p engine."""

import heapq
import math

import numpy as np
import pytest

from discnorm import integrate
from discnorm.cells import build_cell_grid
from discnorm.integrate import _GL_HIGH, _inner_stack, _outer_tensor, lp_adaptive_integral
from discnorm.pointset import generate_halton, generate_uniform


def _inner_stack_masked(q, a_cnt, t_lo, t_hi, p, scale, reduce=True):
    """The kernel as it was before it ran in place: every branch gathers
    its own cells through a boolean mask and scatters them back.  Kept as
    a frozen oracle; the in-place kernel must match it bit for bit."""
    q1 = p + 1.0
    qe = q[:, :, None]
    ae = a_cnt[:, None, :]
    tlen = t_hi - t_lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        delta = qe * tlen / scale
        vhi = (ae - qe * t_lo) / scale
        vlo = vhi - delta
        vhi = np.broadcast_to(vhi, vlo.shape)
        straddle = (vlo < 0.0) & (vhi > 0.0)
        big = np.where(vlo >= 0.0, vhi, delta - vhi)
        thin = (delta <= 1e-12 * np.maximum(big, 1e-300)) & ~straddle
        out = np.empty(vlo.shape)
        inv = np.broadcast_to(scale / (qe * q1), vlo.shape)
        one = ~(straddle | thin)
        big_o = big[one]
        ratio = np.clip(delta[one] / np.maximum(big_o, 1e-300), 0.0, 1.0)
        out[one] = inv[one] * np.power(big_o, q1) * (-np.expm1(q1 * np.log1p(-ratio)))
        if straddle.any():
            out[straddle] = inv[straddle] * (
                np.power(np.maximum(vhi[straddle], 0.0), q1)
                + np.power(np.maximum(-vlo[straddle], 0.0), q1)
            )
        if thin.any():
            mid = np.broadcast_to(np.abs(ae - qe * (t_lo + t_hi) * 0.5) / scale, vlo.shape)
            out[thin] = np.broadcast_to(tlen, vlo.shape)[thin] * np.power(mid[thin], p)
    return out.sum(axis=2) if reduce else out


def _kernel_inputs(pts):
    """Kernel arguments of the first adaptive pass over every column.

    q holds each column's endpoint products (the origin column's lower
    one is 0, which makes its cells thin) and its Gauss nodes; d = 1 has
    the single q = 1 row.
    """
    grid = build_cell_grid(pts)
    d = grid.dim
    m = grid.counts.shape[-1]
    a = grid.count_fractions().reshape(-1, m)
    t_lo = np.ascontiguousarray(grid.cell_lo(d - 1))
    t_hi = np.ascontiguousarray(grid.cell_hi(d - 1))
    if d == 1:
        q = np.ones((1, 1))
    else:
        def columns(edge):
            axes = np.meshgrid(*[edge(i) for i in range(d - 1)], indexing="ij")
            return np.stack([g.reshape(-1) for g in axes], axis=1)

        lo, hi = columns(grid.cell_lo), columns(grid.cell_hi)
        nodes, _ = _outer_tensor(lo, hi, _GL_HIGH)
        q = np.concatenate([lo.prod(axis=1)[:, None], hi.prod(axis=1)[:, None], nodes], axis=1)
    return q, a, t_lo, t_hi, grid.sup_abs_discrepancy()


CORPUS = [generate_uniform(9, 1, seed=3), generate_uniform(12, 2, seed=5),
          generate_halton(16, 2), generate_uniform(8, 3, seed=2)]


@pytest.mark.parametrize("p", [1.0, 2.5, 7.0, 33.0, 2.0 ** 21])
def test_kernel_bit_identical_to_masked_oracle(p):
    kinds = np.zeros(3, dtype=int)
    for pts in CORPUS:
        q, a, t_lo, t_hi, scale = _kernel_inputs(pts)
        got = _inner_stack(q, a, t_lo, t_hi, p, scale, reduce=False)
        want = _inner_stack_masked(q, a, t_lo, t_hi, p, scale, reduce=False)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(_inner_stack(q, a, t_lo, t_hi, p, scale),
                              _inner_stack_masked(q, a, t_lo, t_hi, p, scale))
        # which branch each cell takes, so the corpus provably covers all three
        vhi = (a[:, None, :] - q[:, :, None] * t_lo) / scale
        delta = q[:, :, None] * (t_hi - t_lo) / scale
        straddle = (vhi - delta < 0.0) & (vhi > 0.0)
        thin = (delta == 0.0) & ~straddle
        kinds += [(~(straddle | thin)).sum(), straddle.sum(), thin.sum()]
    assert (kinds > 0).all(), kinds


def _lp_adaptive_heap(grid, p, rel_tol, col_budget=1 << 20, total_budget=1 << 22):
    """The refinement driver as it was before it ran on box arrays: per-box
    Python lists, a lazy-deletion heap, running totals resynced by fsum
    every 64 rounds and a per-column budget.  Kept as a frozen oracle for
    d >= 2; the array driver must match it bit for bit.  A first-pass
    column skipped as negligible (value = error = bound / 2) is split like
    any other box when picked; ``diag`` also counts those picks and all
    splits.  It evaluates boxes through ``integrate._eval_lp_boxes``, so a
    patch there reaches both."""
    d = grid.dim
    diag = {"engine": "adaptive", "boxes": 0, "budget_exceeded": False,
            "placeholders_split": 0, "split": 0}
    scale = grid.sup_abs_discrepancy()
    m = grid.counts.shape[-1]
    a_cols = grid.count_fractions().reshape(-1, m)
    t_lo = np.ascontiguousarray(grid.cell_lo(d - 1))
    t_hi = np.ascontiguousarray(grid.cell_hi(d - 1))
    lo_axes = [grid.cell_lo(i) for i in range(d - 1)]
    hi_axes = [grid.cell_hi(i) for i in range(d - 1)]
    col_lo = np.stack([g.reshape(-1) for g in np.meshgrid(*lo_axes, indexing="ij")], axis=1)
    col_hi = np.stack([g.reshape(-1) for g in np.meshgrid(*hi_axes, indexing="ij")], axis=1)
    n_cols = col_lo.shape[0]
    cols0 = np.arange(n_cols)
    vals0, errs0, bnds0 = integrate._eval_lp_boxes(
        cols0, col_lo, col_hi, a_cols, t_lo, t_hi, p, scale, skip_tol=rel_tol)
    placeholder = (vals0 == 0.5 * bnds0) & (errs0 == 0.5 * bnds0)

    store_col = list(cols0)
    store_lo = [col_lo[i].copy() for i in range(n_cols)]
    store_hi = [col_hi[i].copy() for i in range(n_cols)]
    store_val = list(map(float, vals0))
    store_err = list(map(float, errs0))
    store_ph = list(map(bool, placeholder))
    alive = [True] * n_cols
    col_boxes = dict.fromkeys(range(n_cols), 1)

    def eff_err(val, err, bnd, target):
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
        want = max(total_eff - 0.5 * target, 0.0)
        got = 0.0
        while heap and len(parents) < 128 and got < want:
            negerr, i = heapq.heappop(heap)
            if not alive[i]:
                continue
            if -negerr <= 0.0:
                heapq.heappush(heap, (negerr, i))
                break
            if col_boxes.get(store_col[i], 0) >= col_budget:
                diag["budget_exceeded"] = True
                continue
            parents.append(i)
            diag["placeholders_split"] += store_ph[i]
            got += -negerr
        if not parents:
            break
        diag["split"] += len(parents)
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
        cval, cerr, cbnd = integrate._eval_lp_boxes(ccol, clo, chi, a_cols, t_lo, t_hi, p, scale)
        for j in range(len(ccol)):
            idx = len(store_col)
            store_col.append(int(ccol[j]))
            store_lo.append(clo[j])
            store_hi.append(chi[j])
            store_val.append(float(cval[j]))
            store_err.append(float(cerr[j]))
            store_ph.append(False)
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


# (point set, p, rel_tol, total_budget, first-pass skip factor).  A skip
# factor above 1 raises the first pass's placeholder threshold in both
# drivers, so placeholders carry a real share of the error and the loop
# picks and splits them.  At the library's own threshold a search over
# d = 2..4 found them picked only where half the target is below the
# rounding unit of the summed error, where the two drivers' pick rules
# round differently.
DRIVER_CORPUS = [
    (generate_uniform(12, 2, seed=5), 2.5, 1e-8, 1 << 22, 1.0),
    (generate_uniform(12, 2, seed=5), 1.0, 1e-8, 60, 1.0),
    (generate_halton(16, 2), 33.0, 1e-6, 1 << 22, 1.0),
    (generate_uniform(64, 2, seed=0), 33.0, 1e-6, 1 << 22, 1e4),
    (generate_uniform(8, 3, seed=2), 7.0, 1e-8, 1 << 22, 1.0),
    (generate_uniform(10, 3, seed=7), 2.0 ** 21, 1e-6, 1 << 22, 1.0),
    (generate_uniform(8, 3, seed=2), 7.0, 1e-6, 1 << 22, 1e5),
    (generate_uniform(5, 4, seed=4), 2.5, 1e-6, 1 << 22, 1.0),
    (generate_halton(6, 4), 33.0, 1e-8, 2000, 1.0),
    (generate_uniform(5, 4, seed=4), 7.0, 1e-4, 1 << 22, 1e5),
]


def test_array_driver_bit_identical_to_heap_oracle(monkeypatch):
    real_eval = integrate._eval_lp_boxes
    paths = {"placeholders_split": 0, "split": 0, "budget_exceeded": 0}
    for pts, p, tol, budget, factor in DRIVER_CORPUS:
        monkeypatch.setattr(integrate, "_eval_lp_boxes",
                            lambda *a, skip_tol=0.0: real_eval(*a, skip_tol=factor * skip_tol))
        grid = build_cell_grid(pts)
        got, _, got_err, got_diag = lp_adaptive_integral(grid, p, tol, total_budget=budget)
        want, _, want_err, want_diag = _lp_adaptive_heap(grid, p, tol, total_budget=budget)
        assert (got.hex(), got_err.hex(), got_diag["boxes"], got_diag["budget_exceeded"]) == (
            want.hex(), want_err.hex(), want_diag["boxes"], want_diag["budget_exceeded"]), (p, tol)
        for key in paths:
            paths[key] += want_diag[key]
    assert all(paths.values()), paths
