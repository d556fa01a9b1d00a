"""The quadrature ladder and the inner-stack kernel of the adaptive L_p
engine, its error estimate and sup bound, its evaluation in row blocks,
and the reuse of its p-independent work across p on one grid."""

import functools
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest

from discnorm import integrate
from discnorm.cells import build_cell_grid
from discnorm.integrate import _MAX_LEVEL, _NODES, _SPANS, lp_adaptive_integral
from discnorm.lp import LpCache, lp_discrepancy
from discnorm.orlicz import OrliczSpec, luxemburg_norm
from discnorm.pointset import PointSet, generate_halton, generate_uniform
from oracles import _inner_stack, cell_stack_sums, patterson_ladder


def test_quadrature_ladder():
    # the ends 0 and 1, weight 0 in every rule, then G3 < K7 < P15 < P31 on
    # [0, 1]: each rule's nodes come first, so the sets are nested, and its
    # weights are positive on them, 0 elsewhere
    nodes, weights = integrate._NODES, integrate._WEIGHTS
    assert nodes.shape == (33,) and weights.shape == (33, 4)
    assert nodes[:2].tolist() == [0.0, 1.0] and (weights[:2] == 0.0).all()
    nodes, weights = nodes[2:], weights[2:]
    sizes, degrees = (3, 7, 15, 31), (5, 11, 23, 47)
    assert np.unique(nodes).size == 31 and ((nodes > 0.0) & (nodes < 1.0)).all()
    for r, n in enumerate(sizes):
        assert (weights[:n, r] > 0.0).all() and (weights[n:, r] == 0.0).all()
    # level 0 evaluates the ends and K7's nodes, each level above the nodes
    # its rule adds
    assert [(s.start, s.stop) for s in integrate._SPANS] == [(0, 9), (9, 17), (17, 33)]
    # exact on x^k up to each rule's degree, and G3, K7 not one further
    with mpmath.workdps(40):
        x = [mpmath.mpf(float(v)) for v in nodes]
        for r, deg in enumerate(degrees):
            w = [mpmath.mpf(float(v)) for v in weights[:, r]]
            for k in range(deg + 2):
                rel = abs(mpmath.fsum(a * b ** k for a, b in zip(w, x)) * (k + 1) - 1)
                if k <= deg:
                    assert rel <= 1e-15, (r, k, rel)
                elif r < 2:
                    assert rel > 1e-7, (r, k, rel)
    # the literals against an mpmath derivation, within 2 ulp
    want_x, want_w = patterson_ladder(40)
    for got, want in zip(nodes, want_x):
        assert abs(mpmath.mpf(float(got)) - want) <= 2 * np.spacing(got)
    for got, want in zip(weights.reshape(-1), (v for row in want_w for v in row)):
        assert abs(mpmath.mpf(float(got)) - want) <= 2 * np.spacing(got)


ESTIMATE_SETS = [generate_uniform(n, d, seed=seed) for n, d in ((8, 2), (6, 3), (4, 4), (3, 5))
                 for seed in range(4)]


def test_error_estimate_covers_tight_rerun_at_every_level(monkeypatch):
    # every level's estimate, |K7 - G3|, |P15 - K7| or |P31 - P15|, against
    # reruns at 1e-12 on small sets at d = 2..5.  Every evaluation asks the
    # grid's plan for its pieces' blocks, and a piece is asked each level
    # once, in order: first-pass pieces and bisected halves alike start at
    # level 0 and reach levels 1 and 2 by adding nodes to their sums
    reached, last = set(), {}
    blocks = integrate._Plan.blocks

    def spy(plan, level, pieces, asked=None):
        at = np.arange(pieces[0].size) if asked is None else asked
        if asked is None:
            last.clear()  # a compute's first pass
        assert all(last.get(i, -1) == level - 1 for i in at.tolist()), level
        last.update(dict.fromkeys(at.tolist(), level))
        reached.update((level, bool(half)) for half in np.unique(at >= plan.pieces[0].size))
        return blocks(plan, level, pieces, asked)

    monkeypatch.setattr(integrate._Plan, "blocks", spy)
    for pts in ESTIMATE_SETS:
        for p in (2.5, 20.0, 150.0):
            want, _, err_tight, _ = lp_adaptive_integral(build_cell_grid(pts), p, 1e-12)
            for tol in (1e-3, 1e-6):
                got, _, err, _ = lp_adaptive_integral(build_cell_grid(pts), p, tol)
                assert abs(got - want) <= err + err_tight, (pts.dim, p, tol, got, want, err)
    assert reached == {(level, half) for level in range(_MAX_LEVEL + 1) for half in (False, True)}


def test_piece_budget_is_a_hard_bound(monkeypatch):
    # 8 first-pass pieces and room for 2 more: a round bisects at most one
    # piece, and the raises go on without the budget
    monkeypatch.setattr(integrate, "PIECE_BUDGET", 10)
    pts = generate_uniform(8, 2, seed=0)
    short = []
    for p in (150.0, 2.5):
        value, _, err, diag = lp_adaptive_integral(build_cell_grid(pts), p, 1e-12)
        assert diag["boxes"] <= integrate.PIECE_BUDGET, (p, diag)
        if err > 1e-12 * value:
            assert diag["budget_exceeded"] is True, (p, err / value, diag)
        short.append(diag["budget_exceeded"])
    assert short == [True, False]


def test_first_pass_check_counts_corner_terms_before_any_corner_product(monkeypatch):
    # one point in d = 10 has one occupied column of 2 cells, so 511 pieces
    # of 9 nodes, each node 2 cells and 512 product-law terms
    monkeypatch.setattr(integrate, "MAX_EVAL_ELEMENTS", 10 ** 6)
    reduce = functools.reduce
    made = []
    monkeypatch.setattr(functools, "reduce", lambda *a: made.append(a) or reduce(*a))
    pts = generate_uniform(1, 10, seed=0)
    with pytest.raises(ValueError, match=r"^adaptive Lp integration pass needs 2363886 "
                                         r"evaluations \(limit 1000000\); size is beyond the "
                                         r"exact-engine scale$"):
        lp_discrepancy(pts, 3.0)
    assert made == []


SUP_SETS = [generate_uniform(8, 3, seed=2), generate_uniform(6, 4, seed=1),
            generate_uniform(12, 2, seed=5), generate_uniform(10, 3, seed=3),
            generate_halton(16, 2)]


@pytest.mark.parametrize("d", range(2, 14))
def test_product_law_against_box_volume_and_density(d):
    # the law of the product of the d - 1 outer coordinates on four seeded
    # boxes [a, b], one with a zero lower bound as a grid's first cell has,
    # over a corner table laid out as the plan's: at and above the largest
    # corner its measure is the box's volume, and on each first-pass piece,
    # between two consecutive corners, it is the integral of the density by
    # composite 20-point Gauss-Legendre on 8 equal parts.  The signed corner
    # sum cancels, so both are held to rounding of prod (a + b).  Up to d = 9
    # every piece is read, then every step-th from the first, at the zero
    # corner, so that at most 2^18 piece-corner pairs are; d > 8 reads the
    # cumulative law's terms lg^k / k! above k = 6
    n, rng = d - 1, np.random.default_rng(d)
    a = rng.uniform(0.0, 0.6, (4, n))
    a[0, 0] = 0.0
    b = a + rng.uniform(0.02, 0.4, (4, n))
    corners = np.stack([np.prod(np.where([j >> i & 1 for i in range(n)], a, b), axis=1)
                        for j in range(1 << n)], axis=1)
    col, size = np.arange(4), np.prod(a + b, axis=1)
    top = integrate._product_law(corners.max(axis=1)[:, None] * [1.0, 1.5, 3.0], corners, col,
                                 cumulative=True)
    assert (np.abs(top - np.prod(b - a, axis=1)[:, None]) <= 1e-15 * size[:, None]).all()
    brk = np.sort(corners, axis=1)
    col = np.repeat(col, (1 << n) - 1)
    lo, hi = brk[:, :-1].reshape(-1), brk[:, 1:].reshape(-1)
    step = -(-lo.size * corners.shape[1] // (1 << 18))
    col, lo, hi = col[::step], lo[::step], hi[::step]
    mass = np.diff(integrate._product_law(np.stack([lo, hi], axis=1), corners, col,
                                          cumulative=True))[:, 0]
    x, w = np.polynomial.legendre.leggauss(20)
    edges = lo[:, None, None] + (hi - lo)[:, None, None] * np.linspace(0.0, 1.0, 9)[:, None]
    mid, half = (edges[:, 1:] + edges[:, :-1]) / 2, (edges[:, 1:] - edges[:, :-1]) / 2
    s = (mid + half * x).reshape(lo.size, -1)
    want = (integrate._product_law(s, corners, col) * (half * w).reshape(lo.size, -1)).sum(axis=1)
    assert (np.abs(mass - want) <= 2e-15 * size[col]).all(), d


def test_sup_bound_holds_on_every_first_pass_piece(monkeypatch):
    # a piece's bound, its mass times the larger of its two end sums, as
    # a compute makes it, against its integral by composite 40-point
    # Gauss-Legendre cut at every kink of its cells, on every first-pass
    # piece: 1,393 pieces, 378 of them with kinks, whose kink sub-pieces'
    # ends the bound needs
    x, w = np.polynomial.legendre.leggauss(40)
    kinked, total, made = 0, 0, []
    sup_bound = integrate._sup_bound
    # the engine gets a copy, as it zeroes a bisected piece's bound
    monkeypatch.setattr(integrate, "_sup_bound",
                        lambda *a: made.append(sup_bound(*a)) or made[-1].copy())
    for pts in SUP_SETS:
        grid = build_cell_grid(pts)
        lp_adaptive_integral(grid, 2.0, 1e-3)
        plan = grid.memo["plan"]
        a_cols, t_lo, t_hi, corners, scale = plan.stack
        col, lo, hi = plan.pieces
        with np.errstate(divide="ignore", invalid="ignore"):
            kinks = np.concatenate([a_cols[col] / t_hi, a_cols[col] / t_lo], axis=1)
        inside = (kinks > lo[:, None]) & (kinks < hi[:, None])
        kinked, total = kinked + int(inside.any(axis=1).sum()), total + col.size
        # the intervals [a, b] of each piece between its ends and kinks
        cuts = [np.unique(np.concatenate([[lo[i], hi[i]], kinks[i, inside[i]]]))
                for i in range(col.size)]
        piece = np.repeat(np.arange(col.size), [c.size - 1 for c in cuts])
        a = np.concatenate([c[:-1] for c in cuts])
        b = np.concatenate([c[1:] for c in cuts])
        s = (a + b)[:, None] / 2 + (b - a)[:, None] / 2 * x
        weight = (b - a)[:, None] / 2 * w * integrate._product_law(s, corners, col[piece])
        for p in (1.0, 2.5, 20.0, 150.0):
            f = _inner_stack(s, a_cols[col[piece]], t_lo, t_hi, p, scale)
            want = np.bincount(piece, (f * weight).sum(axis=1), minlength=col.size)
            # the first bounds of a compute are its first-pass pieces'
            made.clear()
            lp_adaptive_integral(grid, p, 1e-3)
            bound = made[0]
            assert (want <= bound).all(), (pts.dim, p, np.max(want / bound))
    assert (total, kinked) == (1393, 378)


def _exp_log_power(x, y):
    """x^y as the kernel takes it, exp of y times log x."""
    return np.exp(y * np.log(x))


def _masked_kernel(q, a_cnt, t_lo, t_hi, p, scale, law, power):
    """The kernel as it was before it ran in place: every branch gathers
    its own cells through a boolean mask and scatters them back.  Kept as
    a frozen oracle; the in-place kernel must match it bit for bit.  Like
    the kernel it gives each cell's integral times -(p + 1) and ``law``,
    ``law`` (B, S) on all the cells of a row and node.  The main and
    straddle branches take their (p+1)-th powers by ``power``: the
    kernel's exp-of-log form, or ``np.power`` as the kernel did before it
    kept logs."""
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
        weight = np.broadcast_to(np.minimum(scale / qe, np.finfo(float).max) * law[:, :, None],
                                 vlo.shape)
        one = ~(straddle | thin)
        big_o = big[one]
        ratio = np.clip(delta[one] / np.maximum(big_o, 1e-300), 0.0, 1.0)
        out[one] = power(big_o, q1) * weight[one] * np.expm1(q1 * np.log1p(-ratio))
        if straddle.any():
            out[straddle] = -weight[straddle] * (
                power(np.maximum(vhi[straddle], 0.0), q1)
                + power(np.maximum(-vlo[straddle], 0.0), q1)
            )
        if thin.any():
            mid = np.broadcast_to(np.abs(ae - qe * (t_lo + t_hi) * 0.5) / scale, vlo.shape)
            tlaw = tlen * np.broadcast_to(law[:, :, None], vlo.shape)
            out[thin] = tlaw[thin] * np.power(mid[thin], p) * -q1
    return out


def _inner_stack_masked(q, a_cnt, t_lo, t_hi, p, scale, reduce=True, power=_exp_log_power):
    """The masked kernel's integrals with law 1, as ``_inner_stack`` reads
    the kernel's."""
    out = _masked_kernel(q, a_cnt, t_lo, t_hi, p, scale, np.ones(q.shape), power) / -(p + 1.0)
    return out.sum(axis=2) if reduce else out


def _kernel_inputs(pts):
    """Kernel arguments of the first pass over every column, at every level.

    Each piece between two consecutive corner products of a column gives
    a row of its nodes of all levels, its two ends among them.  The origin
    column's lower end is the product 0, which makes its cells thin; d = 1
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
    q = lo[:, None] + (hi - lo)[:, None] * _NODES
    return q, np.repeat(a, brk.shape[1] - 1, axis=0), t_lo, t_hi, grid.sup_abs_discrepancy()


CORPUS = [generate_uniform(9, 1, seed=3), generate_uniform(12, 2, seed=5),
          generate_halton(16, 2), generate_uniform(8, 3, seed=2)]


@pytest.mark.parametrize("p", [1.0, 2.5, 7.0, 33.0, 2.0 ** 21])
def test_kernel_bit_identical_to_masked_oracle(p):
    # the corpus's thin cells all have count 0 at node 0, so a stack at a
    # tiny node adds thin cells whose midpoint values are not 0
    tiny = (np.array([[1e-14, 0.5, 1.0]]), np.array([[0.0, 0.25, 0.5, 0.75]]),
            np.array([0.0, 0.2, 0.5, 0.7]), np.array([0.2, 0.5, 0.7, 1.0]), 0.6)
    kinds = np.zeros(4, dtype=int)
    for q, a, t_lo, t_hi, scale in [*map(_kernel_inputs, CORPUS), tiny]:
        got = _inner_stack(q, a, t_lo, t_hi, p, scale, reduce=False)
        want = _inner_stack_masked(q, a, t_lo, t_hi, p, scale, reduce=False)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(_inner_stack(q, a, t_lo, t_hi, p, scale),
                              _inner_stack_masked(q, a, t_lo, t_hi, p, scale))
        # which branch each cell takes, so the inputs provably cover all three
        vhi = (a[:, None, :] - q[:, :, None] * t_lo) / scale
        delta = q[:, :, None] * (t_hi - t_lo) / scale
        straddle = (vhi - delta < 0.0) & (vhi > 0.0)
        thin = (delta <= 1e-12 * np.maximum(np.maximum(vhi, delta - vhi), 1e-300)) & ~straddle
        kinds += [(~(straddle | thin)).sum(), straddle.sum(), thin.sum(),
                  (thin & (vhi > 0.0)).sum()]
    assert (kinds > 0).all(), kinds


# The sets and p of the kernel's accuracy against the power form, with the
# step of the rows read.
POWER_SETS = [(generate_halton(64, 2), 1), (generate_uniform(128, 2, seed=0), 1),
              (generate_uniform(32, 3, seed=0), 2), (generate_uniform(16, 4, seed=1), 8)]
POWER_LADDER = (1.0, 2.5, 7.3, 40.0, 120.0, 2.0 ** 21)


def test_kernel_within_rounding_of_the_power_form():
    # exp((p+1) L), with L the rounded log|v|, is off from |v|^(p+1) by
    # about |(p+1) L| 2^-53 from the rounding of L and as much from that
    # of the product, and a power is a normal double only while |(p+1) L|
    # < 745.  So each cell's integral, on the first-pass rows of the
    # occupied columns at all 33 nodes, is within 745 ulps of the power
    # form's, or one subnormal unit where it underflows.  The sums per row
    # and node over the cells are within 4 (p+1) ulps, at most 745, about
    # twice the most measured on these sets
    for pts, step in POWER_SETS:
        q, a, t_lo, t_hi, scale = _kernel_inputs(pts)
        occupied = a.any(axis=1)
        q, a = q[occupied][::step], a[occupied][::step]
        for p in POWER_LADDER:
            got = _inner_stack(q, a, t_lo, t_hi, p, scale, reduce=False)
            want = _inner_stack_masked(q, a, t_lo, t_hi, p, scale, reduce=False, power=np.power)
            assert (np.abs(got - want) <= 745 * 2.0 ** -52 * want + 2.0 ** -1074).all(), p
            got, want = got.sum(axis=2), want.sum(axis=2)
            bound = min(4 * (p + 1), 745) * 2.0 ** -52 * want + a.shape[1] * 2.0 ** -1074
            assert (np.abs(got - want) <= bound).all(), (pts.coords.shape, p)


def test_power_form_moves_a_tight_integral_within_the_rounding_floor(monkeypatch):
    # the integral at the tolerance a norm at 1e-12 asks, by the kernel and
    # by the power form, the masked oracle with np.power on each run as a
    # row of one cell: the two take the same pieces and differ by less
    # than the floor of four rounding units in err_j, which therefore
    # covers the kernel's exp-of-log rounding without widening
    def power_apply(cells, p):
        q, a, t_lo, t_hi, scale, law, row = cells
        return _masked_kernel(q[row], a, t_lo[:, :, None], t_hi[:, :, None], p, scale, law[row],
                              np.power)[:, :, 0]

    for pts, _ in POWER_SETS:
        for p in POWER_LADDER:
            tol = min(0.25, p * 1e-12)
            exp_form = lp_adaptive_integral(build_cell_grid(pts), p, tol)
            with monkeypatch.context() as m:
                m.setattr(integrate, "_stack_prep", lambda *args: args)
                m.setattr(integrate, "_stack_apply", power_apply)
                power_form = lp_adaptive_integral(build_cell_grid(pts), p, tol)
            assert exp_form[3] == power_form[3], (pts.coords.shape, p)
            assert abs(exp_form[0] - power_form[0]) <= 4 * 2.0 ** -52 * power_form[0], (
                pts.coords.shape, p)


def _run_sums_match_cells(stack, col, lo, hi):
    """Per piece and node, the sum of each piece's runs against the cell-by-
    cell stack with its kink cells zeroed, at the nodes each level adds;
    returns the pieces' own run offsets, counts and stack prep at the top
    level's nodes."""
    rows, off, at, *runs = integrate._rows(col, lo, hi, stack)
    # each piece's row comes first among its rows, and each of its kink
    # sub-pieces' rows, right after it, is one run
    sub = np.ones(off.size - 1, bool)
    sub[at[:-1]] = False
    assert (rows[0][at[:-1]] == col).all() and (np.diff(off)[sub] == 1).all()
    own = np.concatenate([np.arange(off[i], off[i + 1]) for i in at[:-1]]).astype(int)
    off = np.append(0, np.cumsum(np.diff(off)[at[:-1]]))
    runs = [v[own] for v in runs]
    piece = np.repeat(np.arange(col.size), np.diff(off))
    a_cols, t_lo, t_hi, _, scale = stack
    a, first, last = runs
    for level in range(_MAX_LEVEL + 1):
        q = lo[:, None] + (hi - lo)[:, None] * _NODES[_SPANS[level]]
        prep = integrate._stack_prep(q, a[:, None], t_lo[first][:, None], t_hi[last][:, None],
                                     scale, np.ones(q.shape), piece)
        # frozen, as a plan freezes what it keeps, so that every p reads it
        for v in prep[:3]:
            v.flags.writeable = False
        for p in (1.0, 2.5, 33.0):
            got = np.zeros(q.shape)
            np.add.at(got, piece, integrate._stack_apply(prep, p) / -(p + 1.0))
            want = cell_stack_sums(q, a_cols[col], t_lo, t_hi, lo, hi, p, scale)
            assert (np.abs(got - want) <= 1e-13 * want).all(), (level, p)
    return off, runs[0], prep


def test_run_sums_match_cell_sums():
    found = set()
    for pts in (generate_halton(16, 2), generate_uniform(8, 3, seed=2),
                generate_uniform(6, 4, seed=1)):
        grid = build_cell_grid(pts)
        lp_adaptive_integral(grid, 2.0, 1e-3)
        plan = grid.memo["plan"]
        off, counts, prep = _run_sums_match_cells(plan.stack, *plan.pieces)
        piece = np.repeat(np.arange(off.size - 1), np.diff(off))
        found.add((pts.dim, "straddle", prep[3] is not None))
        # two runs of one piece with one count have kink cells between them
        found.add((pts.dim, "split", bool(((np.diff(piece) == 0) & (np.diff(counts) == 0)).any())))
    assert all(hit for *_, hit in found), sorted(found)
    # three cells of count 1/4: on (0.45, 0.9) each holds a kink, so that
    # piece has no runs; on (0.05, 0.1) the one run stays positive, and on
    # (0.7, 0.8) it straddles the zero, which lies in its first cell
    stack = (np.full((1, 3), 0.25), np.array([0.3, 0.4, 0.5]), np.array([0.4, 0.5, 0.6]),
             np.array([[1.0, 0.0]]), 1.0)
    off, _, prep = _run_sums_match_cells(stack, np.zeros(3, dtype=int), np.array([0.45, 0.05, 0.7]),
                                         np.array([0.9, 0.1, 0.8]))
    assert off.tolist() == [0, 0, 1, 2]
    assert np.unique(prep[3][0] // prep[0].shape[1]).tolist() == [1]


LADDER = (1.0, 2.5, 20.0, 150.0, 2.0 ** 21)
PLAN_SETS = {"d2": generate_uniform(12, 2, seed=5), "d3": generate_uniform(8, 3, seed=2),
             "d4": generate_uniform(6, 4, seed=1), "h2": generate_halton(32, 2)}


def _bits(result):
    value, scale, err, diag = result
    return value.hex(), scale.hex(), err.hex(), diag


def _ladder_matches_fresh_grids(pts):
    """Runs the ladder at a loose and a tight tolerance through one grid,
    each rung against a fresh grid; returns the shared grid."""
    shared = build_cell_grid(pts)
    for tol in (1e-6, 1e-12):
        for p in LADDER:
            got = lp_adaptive_integral(shared, p, p * tol)
            assert _bits(got) == _bits(lp_adaptive_integral(build_cell_grid(pts), p, p * tol)), (
                tol, p)
    return shared


@pytest.mark.parametrize("name", PLAN_SETS)
def test_plan_reuse_is_bit_identical(name, monkeypatch):
    # whether the ladder meets bisections, whose halves the plan does not
    # hold, so that it hands them a fresh pass
    made = []
    blocks = integrate._Plan.blocks

    def spy(plan, level, pieces, asked=None):
        made.append(asked is not None and asked[-1] >= plan.pieces[0].size)
        return blocks(plan, level, pieces, asked)

    monkeypatch.setattr(integrate._Plan, "blocks", spy)
    pts = PLAN_SETS[name]
    shared = _ladder_matches_fresh_grids(pts)
    # from the grid's second compute each level below the top keeps the
    # work of exactly the pieces asked of it, level 0 all of them, and the
    # top level's is never kept
    plan = shared.memo["plan"]
    assert [key for key, work in plan.work.items() if work] == [0, 1]
    assert plan.elements <= integrate._PLAN_ELEMENTS
    assert any(made)
    # the same through one cache, largest p first, against single-p calls
    for tol in (1e-6, 1e-12):
        cache = LpCache(pts, tol)
        for p in LADDER[::-1]:
            got, want = cache.norm(p), lp_discrepancy(pts, p, tol)
            assert (got.value, got.abs_error_estimate, got.diagnostics) == (
                want.value, want.abs_error_estimate, want.diagnostics), (tol, p)
        assert cache.grid.memo["plan"].work[0] is not None


def _fresh_ladder(pts):
    """The ladder at a loose and a tight tolerance, each rung on a fresh grid."""
    return [_bits(lp_adaptive_integral(build_cell_grid(pts), p, p * tol))
            for tol in (1e-6, 1e-12) for p in LADDER]


@pytest.mark.parametrize("name, cap", [("d3", 5_000), ("d3", 15_000), ("d2", 200), ("h2", 1_000)])
def test_plan_stays_within_plan_elements(name, cap, monkeypatch):
    # a grid whose first pass is above the cap keeps no work: 14,580
    # elements on the d = 3 set, 1,404 on d2 and 9,504 on h2; 15,000 hold
    # d3's first pass, its rows (1,818) and level 0 (9,342) but not all of
    # level 1 (17,646), so that an add of the pieces a round asks there is
    # refused and served a fresh pass.  The cap sizes only what a grid
    # keeps, so every rung, shared or fresh, is bit for bit the one at the
    # default cap
    served = []
    blocks = integrate._Plan.blocks

    def spy(plan, level, pieces, asked=None):
        out = blocks(plan, level, pieces, asked)
        own = asked is None or asked[-1] < plan.pieces[0].size
        if plan.rows is not None and level < _MAX_LEVEL and own:
            served.append(isinstance(out[0], list))
        return out

    pts = PLAN_SETS[name]
    want = _fresh_ladder(pts)
    monkeypatch.setattr(integrate, "_PLAN_ELEMENTS", cap)
    monkeypatch.setattr(integrate._Plan, "blocks", spy)
    plan = _ladder_matches_fresh_grids(pts).memo["plan"]
    assert _fresh_ladder(pts) == want
    if cap == 15_000:
        assert plan.elements <= cap and list(plan.work) == [0, 1]
        assert True in served and False in served
    else:
        assert not plan.work and plan.rows is None


LUX_SETS = {"u128x2": generate_uniform(128, 2, 0), "h64x2": generate_halton(64, 2)}


@pytest.mark.parametrize("name", LUX_SETS)
def test_a_luxemburg_norm_makes_its_pieces_rows_once(name, monkeypatch):
    # the plan keeps the rows of all its pieces at the grid's second
    # compute and gathers every later block of its own pieces from them,
    # kept adds and top-level raises alike: past the first compute, _rows
    # runs on the plan's pieces only to make that table, once per group
    pts = LUX_SETS[name]
    calls, rows = [], integrate._rows

    def spy(col, lo, hi, stack):
        plan = cache.grid.memo["plan"]
        own = set(zip(*(v.tolist() for v in plan.pieces)))
        calls.append((plan.computes, col.size,
                      all(row in own for row in zip(col.tolist(), lo.tolist(), hi.tolist()))))
        return rows(col, lo, hi, stack)

    cache = LpCache(pts, 1e-9)
    monkeypatch.setattr(integrate, "_rows", spy)
    luxemburg_norm(pts, OrliczSpec(2.0), rel_tol=1e-8, cache=cache)
    plan = cache.grid.memo["plan"]
    later = [call for call in calls if call[0] > 1]
    assert plan.computes > 10 and plan.rows is not None
    assert later == [(2, plan.pieces[0].size, True)], later
    assert all(own for *_, own in calls)


def test_a_kept_level_is_read_once_per_compute(monkeypatch):
    # a whole read of a kept level gives node sums for every piece it
    # holds, so a later ask at that level in the same compute takes its
    # pieces from them, unless new pieces joined it in between
    asks, reads, state = [], [], {}
    blocks, eval_pieces = integrate._Plan.blocks, integrate._eval_pieces

    def blocks_spy(plan, level, pieces, asked=None):
        out = blocks(plan, level, pieces, asked)
        state["at"] = plan.computes, level, out[1]
        if isinstance(out[0], list):
            asks.append(state["at"])
        return out

    def eval_spy(blocks, n, p, level, scale):
        if isinstance(blocks, list):
            reads.append(state["at"])
        return eval_pieces(blocks, n, p, level, scale)

    monkeypatch.setattr(integrate._Plan, "blocks", blocks_spy)
    monkeypatch.setattr(integrate, "_eval_pieces", eval_spy)
    pts, cache = LUX_SETS["h64x2"], LpCache(LUX_SETS["h64x2"], 1e-9)
    luxemburg_norm(pts, OrliczSpec(2.0), rel_tol=1e-8, cache=cache)
    assert len(set(reads)) == len(reads) and set(reads) == set(asks)
    # some level-1 asks, in a later round, were served without a read
    assert len(reads) < len(asks) and any(level == 1 for _, level, _ in asks)
    assert cache.grid.memo["plan"].computes > 10


def _kept_node_sums(plan, p):
    """Each kept level's node sums at p from its kept blocks, and from a
    fresh pass's default blocks over the same pieces in the same order."""
    out = []
    for level, work in plan.work.items():
        place = plan.place[level]
        held = np.argsort(place)[np.count_nonzero(place < 0):]
        fresh = integrate._level_blocks(*(v[held] for v in plan.pieces), plan.stack, level)
        out.append([integrate._eval_pieces(b, held.size, p, level, plan.stack[-1])[1]
                    for b in (work, fresh)])
    return out


@pytest.mark.parametrize("block", [None, 1])
def test_merged_kept_blocks_give_the_default_node_sums(block, monkeypatch):
    # on a ladder whose level-1 work grows over many computes, the pieces
    # that join it are merged onto its last block (at the default size; at
    # one element per block each block keeps one piece), and every kept
    # level gives the node sums of a fresh pass bit for bit, as every rung
    # gives a fresh grid's results
    if block:
        monkeypatch.setattr(integrate, "_BLOCK_ELEMENTS", block)
    pts = PLAN_SETS["d3"]
    shared, held = build_cell_grid(pts), []
    for p in (1.0 + 0.5 * i for i in range(20)):
        got = lp_adaptive_integral(shared, p, p * 1e-8)
        assert _bits(got) == _bits(lp_adaptive_integral(build_cell_grid(pts), p, p * 1e-8)), p
        work = shared.memo["plan"].work.get(1)
        held.append(work[-1][0].stop if work else 0)
    plan = shared.memo["plan"]
    grew = np.count_nonzero(np.diff(held) > 0)
    assert grew >= 8 and list(plan.work) == [0, 1], held
    sizes = [b[0].stop - b[0].start for b in plan.work[1]]
    assert (sizes == [1] * held[-1]) if block else (len(sizes) < grew), sizes
    for p in (1.0, 13.0, 150.0):
        for kept, fresh in _kept_node_sums(plan, p):
            assert np.array_equal(kept.view(np.int64), fresh.view(np.int64)), p


def _frozen(block):
    for v in block[-1][:3]:
        v.flags.writeable = False
    return block


def test_merged_blocks_give_their_node_sums(monkeypatch):
    # _merge puts one block's pieces after another's, shifting its run
    # offsets and the flat indices of its straddle and thin elements.  One
    # piece per block, with thin elements (its end at s = 0), a straddle or
    # neither: every fold of the blocks gives their node sums bit for bit
    stack = (np.full((1, 3), 0.25), np.array([0.3, 0.4, 0.5]), np.array([0.4, 0.5, 0.6]),
             np.array([[1.0, 0.0]]), 1.0)
    pieces = (np.zeros(5, int), np.array([0.05, 0.0, 0.7, 0.72, 0.0]),
              np.array([0.1, 0.05, 0.8, 0.78, 0.02]))
    monkeypatch.setattr(integrate, "_BLOCK_ELEMENTS", 1)
    seen = set()
    for level in range(_MAX_LEVEL + 1):
        blocks = [_frozen(b) for b in integrate._level_blocks(*pieces, stack, level)]
        merged = blocks[:1]
        for k in range(1, 5):
            seen.update((i, merged[0][-1][i] is None, blocks[k][-1][i] is None) for i in (3, 4))
            merged = [_frozen(integrate._merge(merged[0], blocks[k])), *blocks[k + 1:]]
            for p in (1.0, 2.5, 40.0):
                want, got = (integrate._eval_pieces(b, 5, p, level, 1.0)[1] for b in (blocks, merged))
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (level, k, p)
    # each set was merged empty onto full, full onto empty and full onto full
    assert {(i, x, y) for i in (3, 4) for x, y in [(True, False), (False, True), (False, False)]
            } <= seen, seen


def _single_and_shared(pts, tol):
    """The ladder as single-p calls on fresh grids and through one grid."""
    shared = build_cell_grid(pts)
    return ([_bits(lp_adaptive_integral(build_cell_grid(pts), p, p * tol)) for p in LADDER],
            [_bits(lp_adaptive_integral(shared, p, p * tol)) for p in LADDER],
            shared.memo["plan"].pieces[0].size)


@pytest.mark.parametrize("name", PLAN_SETS)
def test_row_blocks_do_not_change_results(name, monkeypatch):
    # one piece per block against the default blocks: values, errors and
    # work counts bit for bit, on fresh grids and on a grid's plan, whose
    # blocks are read whole, also where a round asks a p-dependent subset
    # of its pieces
    taken = set()
    blocks, stack_apply = integrate._Plan.blocks, integrate._stack_apply

    def blocks_spy(plan, level, pieces, asked=None):
        out = blocks(plan, level, pieces, asked)
        if not isinstance(out[2], slice):
            taken.add(True)
        return out

    def apply_spy(cells, p):
        # only a plan's own blocks are frozen, so read without overwriting
        if not cells[0].flags.writeable:
            taken.add(False)
        return stack_apply(cells, p)

    monkeypatch.setattr(integrate._Plan, "blocks", blocks_spy)
    monkeypatch.setattr(integrate, "_stack_apply", apply_spy)
    pts = PLAN_SETS[name]
    want = [_single_and_shared(pts, tol) for tol in (1e-6, 1e-12)]
    monkeypatch.setattr(integrate, "_BLOCK_ELEMENTS", 1)
    assert [_single_and_shared(pts, tol) for tol in (1e-6, 1e-12)] == want
    assert taken == {False, True}
    # some rung bisects: it makes more pieces than the first pass
    assert any(diag["boxes"] > first for single, _, first in want for *_, diag in single)


@pytest.mark.parametrize("name", PLAN_SETS)
def test_one_piece_blocks_give_the_default_node_sums(name, monkeypatch):
    # blocks are cut at piece boundaries: at _BLOCK_ELEMENTS = 1 each holds
    # exactly one piece with all its runs, its kink sub-pieces' included,
    # and every level's node sums equal the default blocks' bit for bit
    grid = build_cell_grid(PLAN_SETS[name])
    lp_adaptive_integral(grid, 2.5, 1e-3)
    pieces, stack = grid.memo["plan"].pieces, grid.memo["plan"].stack
    n = pieces[0].size
    _, off, at, *_ = integrate._rows(*pieces, stack)
    # each piece's runs, its own and one per kink sub-piece, which some have
    runs = off[at[1:]] - off[at[:-1]]
    assert (np.diff(at) > 1).any()

    def node_sums(level, p):
        blocks = integrate._level_blocks(*pieces, stack, level)
        return integrate._eval_pieces(blocks, n, p, level, stack[-1])[1]

    ladder = [(level, p) for level in range(_MAX_LEVEL + 1) for p in (1.0, 20.0)]
    want = [node_sums(level, p) for level, p in ladder]
    monkeypatch.setattr(integrate, "_BLOCK_ELEMENTS", 1)
    for level in range(_MAX_LEVEL + 1):
        blocks = list(integrate._level_blocks(*pieces, stack, level))
        assert [b[0] for b in blocks] == [slice(i, i + 1) for i in range(n)]
        assert [b[1].tolist() for b in blocks] == [[0, r] for r in runs.tolist()]
    for (level, p), nodes in zip(ladder, want):
        assert np.array_equal(node_sums(level, p).view(np.int64), nodes.view(np.int64)), (level, p)


def test_threads_read_kept_work_into_their_own_scratch():
    # the kernel works on a plan's frozen blocks in scratch arrays kept per
    # thread, so two threads reading kept work at once, each its own grid
    # of one set at different p, give the values one thread gives; with one
    # scratch shared by both, most rounds here read wrong values
    pts = generate_halton(64, 2)
    ladders = [[1.0 + 0.5 * i for i in range(16)], [9.25 - 0.5 * i for i in range(16)]]

    def run(ladder, out):
        cache = LpCache(pts, 1e-9)
        out.extend(cache.norm(p).value for p in ladder)

    want = [[], []]
    for ladder, out in zip(ladders, want):
        run(ladder, out)
    # switch threads often, so that one's kernel runs between the other's
    # kernel and its sums
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            got = [[], []]
            threads = [threading.Thread(target=run, args=args) for args in zip(ladders, got)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert got == want
    finally:
        sys.setswitchinterval(interval)


def test_single_p_call_keeps_no_work():
    # one compute asks each work of a piece at most once, so no asked count
    # exceeds the pieces a work would hold, bisections included
    for pts in PLAN_SETS.values():
        for p in (2.5, 150.0):
            grid = build_cell_grid(pts)
            lp_adaptive_integral(grid, p, 1e-12)
            assert grid.memo["plan"].work == {}, p


@pytest.mark.parametrize("name", ["d3", "h2"])
def test_kept_blocks_are_frozen(name):
    # the plan freezes the arrays of every block it keeps, which the kernel
    # would otherwise overwrite, and a compute it serves leaves them as
    # they were
    grid = build_cell_grid(PLAN_SETS[name])
    for p in LADDER:
        lp_adaptive_integral(grid, p, p * 1e-6)
    work = grid.memo["plan"].work
    assert work[0]
    arrays = [a for blocks in work.values() if blocks for block in blocks for a in block[-1][:2]]
    assert not any(a.flags.writeable for a in arrays)
    before = [a.tobytes() for a in arrays]
    lp_adaptive_integral(grid, 3.0, 1e-9)
    assert [a.tobytes() for a in arrays] == before


def test_single_p_peak_memory():
    # the kernel runs in row blocks, so a single-p call holds no whole pass;
    # on the (16,4) set most of that pass is kink sub-pieces.  The product
    # law adds its 2^(d-1) corners one at a time, so a few points in high d
    # hold no (rows, nodes, corners) array either
    for pts, tol, bound in [(generate_uniform(32, 3, 0), 1e-9, 6e6),
                            (generate_uniform(16, 4, 0), 1e-6, 16e6),
                            (PointSet(np.full((1, 11), 0.5)), 1e-9, 8e6),
                            (generate_uniform(2, 9, 0), 1e-9, 16e6)]:
        tracemalloc.start()
        try:
            lp_discrepancy(pts, 2.5, rel_tol=tol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (pts.coords.shape, peak)


def test_plan_ladder_peak_memory():
    # a grid keeps its plan as the blocks a fresh pass makes, so the
    # computes that make and read it hold no whole-pass copy besides it;
    # after a warm-up, so that lazy imports are not counted
    pts = generate_uniform(32, 3, 8)
    lp_discrepancy(pts, 2.5, rel_tol=1e-5)
    tracemalloc.start()
    try:
        cache = LpCache(pts, rel_tol=1e-5)
        for p in (1.0, 2.5, 3.5, 5.0, 7.5, 9.0, 13.0, 20.0):
            cache.norm(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cache.grid.memo["plan"].work[0] is not None
    assert peak <= 14e6, peak


def test_luxemburg_plan_peak_memory():
    # a Luxemburg norm reads many p through one cache; its plan keeps no
    # top-level work, the largest, which few of those p refine to
    pts = generate_halton(64, 2)
    luxemburg_norm(pts, OrliczSpec(2.0), rel_tol=1e-8, cache=LpCache(pts, 1e-9))
    tracemalloc.start()
    try:
        cache = LpCache(pts, 1e-9)
        luxemburg_norm(pts, OrliczSpec(2.0), rel_tol=1e-8, cache=cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cache.grid.memo["plan"].work[1] is not None
    assert peak <= 5.0e6, peak
