"""Cross-check routes kept for the tests only.

They compute the same quantities as the library by independent means:
``integrate_of_delta`` quadratures fn(local discrepancy) over all d axes
with no closed-form help, ``modular_by_quadrature`` uses it for the
Orlicz modular, ``luxemburg_norm_piecewise`` solves the Luxemburg
norm of a piecewise-constant function, whose modular is an exact sum,
``lp_mpmath`` computes L_p norms in d = 1, 2 in extended precision,
``count_in_box`` and ``local_discrepancy`` count points directly,
``star_discrepancy_lower_mc`` bounds the star discrepancy from below
at random anchors,
``young_eval`` sums the Young series pointwise, ``_inner_stack`` runs
the adaptive engine's kernel on whole cell stacks, ``cell_stack_sums``
sums those stacks cell by cell, and ``patterson_ladder`` derives the
engine's quadrature rules in mpmath.
"""

from __future__ import annotations

import functools
import heapq
import math

import mpmath
import numpy as np

from discnorm.cells import CellGrid, build_cell_grid
from discnorm.integrate import MAX_EVAL_ELEMENTS, NumericalError, _stack_apply, _stack_prep
from discnorm.lp import NormResult
from discnorm.orlicz import OrliczSpec, _luxemburg_root
from discnorm.pointset import PointSet

# Term cap of the pointwise Young series; hitting it raises.
_YOUNG_TERM_CAP = 4096


def count_in_box(ps: PointSet, t) -> int:
    """Number of points inside the anchored half-open box [0, t).

    Strict inequality in every coordinate: a point sitting exactly on
    the upper face is outside.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.shape != (ps.dim,):
        raise ValueError(f"t must have shape ({ps.dim},)")
    if (t < 0.0).any() or (t > 1.0).any():
        raise ValueError("t must lie in [0, 1]^d")
    return int((ps.coords < t).all(axis=1).sum())


def local_discrepancy(ps: PointSet, t) -> float:
    """count([0,t))/N - Vol([0,t)); for N = 0 this is -Vol([0,t))."""
    return count_in_box(ps, t) / max(ps.n_points, 1) - float(np.prod(t))


def star_discrepancy_lower_mc(points: PointSet, samples: int = 100_000,
                              seed: int = 0) -> float:
    """Monte Carlo lower bound: max |local discrepancy| over random anchors."""
    d = points.dim
    n = points.n_points
    rng = np.random.Generator(np.random.PCG64(seed))
    best = 0.0
    chunk = max(1, min(samples, 4_000_000 // max(n, 1)))
    left = samples
    coords = points.coords
    while left > 0:
        b = min(chunk, left)
        t = rng.random((b, d))
        cnt = (coords[None, :, :] < t[:, None, :]).all(axis=2).sum(axis=1)
        disc = np.abs(cnt / max(n, 1) - t.prod(axis=1))
        best = max(best, float(disc.max()))
        left -= b
    return best


def young_eval(spec: OrliczSpec, x):
    """psi(x) for x >= 0 by its series, vectorised in x; overflow gives inf."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 0):
        raise ValueError("young_eval needs x >= 0")
    if spec.weight is None:
        with np.errstate(over="ignore"):
            out = np.expm1(arr ** spec.alpha)
    else:
        out = np.zeros_like(arr)
        pos = arr > 0.0
        with np.errstate(divide="ignore", over="ignore"):
            logx = np.where(pos, np.log(np.maximum(arr, 1e-320)), -np.inf)
            prev = np.full_like(arr, np.inf)
            for ell in range(1, _YOUNG_TERM_CAP + 1):
                p = spec.alpha * ell
                logterm = p * logx - spec.log_denom(ell)
                term = np.where(logterm > 709.0, np.inf, np.exp(logterm))
                out = out + term
                done = (~pos) | np.isinf(out) | (
                    (term <= 1e-17 * np.maximum(out, 1e-300)) & (logterm < prev)
                )
                if bool(np.all(done)):
                    break
                prev = logterm
            else:
                raise NumericalError("Young series did not converge within the term cap")
    return float(out[0]) if scalar else out.reshape(np.shape(x))


@functools.cache
def _gl01(n: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


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


def luxemburg_norm_piecewise(volumes, values, spec: OrliczSpec,
                             rel_tol: float = 1e-12) -> NormResult:
    """Luxemburg norm of a nonnegative piecewise-constant function.

    ``volumes`` and ``values`` describe |f|: it equals values[i] on a set
    of measure volumes[i].  The modular is then an exact finite sum, so
    this is the synthetic ground-truth entry used to validate the series
    route on known functions.
    """
    volumes = np.asarray(volumes, dtype=float)
    values = np.asarray(values, dtype=float)
    if volumes.shape != values.shape:
        raise ValueError("volumes and values must have matching shapes")
    if np.any(volumes < 0) or np.any(values < 0):
        raise ValueError("volumes and values must be nonnegative")
    vmax = float(values.max(initial=0.0))
    if vmax == 0.0:
        return NormResult(0.0, 0.0, {"engine": "piecewise"})

    def modular(k):
        with np.errstate(over="ignore"):
            return float(np.sum(volumes * young_eval(spec, values / k)))

    lo, hi, iters = _luxemburg_root(modular, vmax, rel_tol)
    value = 0.5 * (lo + hi)
    return NormResult(value, 0.5 * (hi - lo), {"engine": "piecewise", "iterations": iters})


def modular_by_quadrature(points: PointSet, spec: OrliczSpec, k: float,
                          rel_tol: float = 1e-5):
    """int psi(|local discrepancy| / k) by direct adaptive quadrature.

    Entirely independent of the series identity; retained as the
    cross-check route.  Returns (value, err_estimate).
    """
    grid = build_cell_grid(points)

    def fn(delta):
        return young_eval(spec, np.abs(delta) / k)

    val, err, _ = integrate_of_delta(grid, fn, rel_tol=rel_tol)
    return val, err


def lp_mpmath(points: PointSet, p: float, dps: int = 30) -> float:
    """L_p norm of the local discrepancy in d = 1 or 2, by mpmath.

    With the count a fixed, int |a - s t|^p dt over [t_lo, t_hi] is
    (F(a - s t_lo) - F(a - s t_hi)) / s for F(u) = sign(u) |u|^(p+1) / (p+1).
    d = 1 sums that over the cells at s = 1; d = 2 integrates it over s
    column by column with ``mpmath.quad``, split where a = s t_lo or
    a = s t_hi, so every piece is smooth.
    """
    if points.dim not in (1, 2):
        raise ValueError("lp_mpmath covers d = 1 and d = 2")
    with mpmath.workdps(dps):
        pm = mpmath.mpf(p)
        rows = [[mpmath.mpf(float(v)) for v in row] for row in points.coords]
        n = len(rows)
        zero, one = mpmath.mpf(0), mpmath.mpf(1)

        def cells(ys):
            # (count / n, t_lo, t_hi) of the stack in t over the points ys
            brk = sorted({zero, one, *ys})
            return [(mpmath.mpf(sum(y <= t_lo for y in ys)) / n, t_lo, t_hi)
                    for t_lo, t_hi in zip(brk, brk[1:])]

        def stack(s, cs):
            def antider(u):
                return mpmath.sign(u) * abs(u) ** (pm + 1) / (pm + 1)
            return mpmath.fsum((antider(a - s * t_lo) - antider(a - s * t_hi)) / s
                               for a, t_lo, t_hi in cs)

        if points.dim == 1:
            total = stack(one, cells([r[0] for r in rows]))
        else:
            total = zero
            xs = sorted({zero, one, *(r[0] for r in rows)})
            for s_lo, s_hi in zip(xs, xs[1:]):
                cs = cells([r[1] for r in rows if r[0] <= s_lo])
                cuts = {s_lo, s_hi}
                cuts.update(a / t for a, t_lo, t_hi in cs for t in (t_lo, t_hi)
                            if t > 0 and s_lo < a / t < s_hi)
                total += mpmath.quad(lambda s: stack(s, cs), sorted(cuts))
        return float(total ** (1 / pm))


def _inner_stack(q, a_cnt, t_lo, t_hi, p, scale, reduce=True):
    """sum_k int_{t_lo[k]}^{t_hi[k]} (|A_k - q t| / scale)^p dt by the
    engine's kernel, at nodes q (B, S) on cells of counting terms a_cnt
    (B, m) and bounds t_lo/t_hi (m,), each cell laid out as a run of its
    row's nodes with law 1, and the kernel's output over -(p + 1).  With
    ``reduce=False`` the per-cell integrals (B, S, m) are returned unsummed.
    """
    (b, s), m = q.shape, a_cnt.shape[1]
    lo, hi = (np.tile(t, b)[:, None] for t in (t_lo, t_hi))
    runs = np.repeat(q, m, axis=0)
    f = _stack_apply(_stack_prep(runs, a_cnt.reshape(-1, 1), lo, hi, scale, np.ones_like(runs),
                                 np.arange(b * m)), p)
    f = np.ascontiguousarray((f / -(p + 1.0)).reshape(b, m, s).transpose(0, 2, 1))
    return f.sum(axis=2) if reduce else f


def cell_stack_sums(q, a, t_lo, t_hi, lo, hi, p, scale):
    """Per piece and node, the inner stack summed cell by cell with the
    piece's kink cells zeroed.

    Piece i has nodes q[i] in (lo[i], hi[i]) and cell counts a[i]; a
    cell is a kink cell when its kink a/t_hi or a/t_lo lies strictly
    inside the piece.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        kinks = np.stack([a / t_hi, a / t_lo])
    kink = ((kinks > lo[:, None]) & (kinks < hi[:, None])).any(axis=0)
    f = _inner_stack(q, a, t_lo, t_hi, p, scale, reduce=False)
    f[np.broadcast_to(kink[:, None, :], f.shape)] = 0.0
    return f.sum(axis=2)


def patterson_ladder(dps: int = 40):
    """The nested rules G3, K7, P15, P31 on [0, 1] in mpmath at ``dps``
    digits, in the adaptive engine's order: the 31 nodes as the centre,
    then x and 1 - x for each x < 1/2, each rule's nodes first, and per
    rule its weights on them (0 off its nodes).

    From G3 on, each rule adds the zeros of the monic polynomial E of
    degree n + 1 orthogonal on [-1, 1] to every x^k pi(x), k <= n, where
    pi vanishes on the rule's n nodes (Kronrod 1965; Patterson 1968);
    E is even, so its zeros come from a polynomial in x^2.  The weights
    are those of the interpolatory rule on the nodes.
    """
    with mpmath.workdps(dps + 40):
        def moment(j):
            return mpmath.mpf(2) / (j + 1) if j % 2 == 0 else mpmath.mpf(0)

        half = [mpmath.mpf(0), mpmath.sqrt(mpmath.mpf(3) / 5)]
        nodes = [half[0], -half[1], half[1]]
        rules = []
        while True:
            n = len(nodes)
            vander = mpmath.matrix([[x ** k for x in nodes] for k in range(n)])
            rules.append(mpmath.lu_solve(vander, mpmath.matrix([moment(k) for k in range(n)])))
            if n == 31:
                break
            pi = [mpmath.mpf(1)]  # ascending coefficients
            for x in nodes:
                pi = [a - x * b for a, b in zip([0] + pi, pi + [0])]

            def pi_moment(i):
                return mpmath.fsum(c * moment(a + i) for a, c in enumerate(pi))

            gram = mpmath.matrix([[pi_moment(j + k) for j in range(n + 1)] for k in range(n + 1)])
            c = mpmath.lu_solve(gram, mpmath.matrix([-pi_moment(n + 1 + k) for k in range(n + 1)]))
            ys = mpmath.polyroots([1] + [c[j] for j in range(n - 1, -1, -2)],
                                  maxsteps=500, extraprec=4 * dps)
            new = sorted((mpmath.sqrt(mpmath.re(y)) for y in ys), reverse=True)
            half += new
            nodes += [sign * a for a in new for sign in (-1, 1)]
        # x = (1 + t) / 2 maps [-1, 1] onto [0, 1]; -t comes before t
        out_nodes = [(1 + t) / 2 for t in nodes]
        out_weights = [[rule[i] / 2 if i < len(rule) else mpmath.mpf(0) for rule in rules]
                       for i in range(len(nodes))]
    return out_nodes, out_weights
