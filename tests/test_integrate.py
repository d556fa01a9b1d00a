"""The inner-stack kernel of the adaptive L_p engine."""

import functools

import numpy as np
import pytest

from discnorm.cells import build_cell_grid
from discnorm.integrate import _gauss_nodes, _inner_stack
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
    """Kernel arguments of the first pass over every column.

    Each piece between two consecutive corner products of a column gives
    a row of its two endpoints and its Gauss nodes.  The origin column's
    lower endpoint is the product 0, which makes its cells thin; d = 1
    has the single q = 1 row.
    """
    grid = build_cell_grid(pts)
    d = grid.dim
    m = grid.counts.shape[-1]
    a = grid.count_fractions().reshape(-1, m)
    t_lo = np.ascontiguousarray(grid.cell_lo(d - 1))
    t_hi = np.ascontiguousarray(grid.cell_hi(d - 1))
    if d == 1:
        return np.ones((1, 1)), a, t_lo, t_hi, grid.sup_abs_discrepancy()
    corners = np.stack([functools.reduce(np.multiply.outer, [
        (grid.cell_lo if j >> i & 1 else grid.cell_hi)(i) for i in range(d - 1)]).reshape(-1)
        for j in range(1 << (d - 1))], axis=1)
    brk = np.sort(corners, axis=1)
    lo, hi = brk[:, :-1].reshape(-1), brk[:, 1:].reshape(-1)
    nodes, _ = _gauss_nodes(lo, hi)
    q = np.concatenate([lo[:, None], hi[:, None], nodes], axis=1)
    return q, np.repeat(a, brk.shape[1] - 1, axis=0), t_lo, t_hi, grid.sup_abs_discrepancy()


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
        # one cell per row with its own bounds, as kink cells are
        # integrated, gives that cell's entries of the full stack
        k = np.arange(q.shape[0]) % a.shape[1]
        one = _inner_stack(q, a[np.arange(q.shape[0]), k][:, None], t_lo[k][:, None, None],
                           t_hi[k][:, None, None], p, scale)
        assert np.array_equal(one.view(np.int64), got[np.arange(q.shape[0]), :, k].view(np.int64))
    assert (kinds > 0).all(), kinds
