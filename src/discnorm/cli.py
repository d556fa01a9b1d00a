"""Command-line interface: point-set generation, discrepancy computation,
bound verification suites, and parameter sweeps.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 verification
failure.  All output is deterministic for identical flags and seeds; JSON
floats use shortest round-trip formatting.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .bounds import (
    _NORM_NEEDS,
    BoundReport,
    NormSpec,
    construction_constants_check,
    hnww_empirical_check,
    initial_alpha_lower,
    initial_phi_lower,
    lemma1_sandwich_check,
    min_const_check,
    stirling_check,
    theorem2_constant,
    theorem2_n_bound,
)
from .integrate import NumericalError
from .lp import LpCache
from .orlicz import WeightFn, alpha_norm, phi_norm
from .pointset import (
    empty_pointset,
    generate_halton,
    generate_uniform,
    load_pointset,
    save_pointset,
)


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    if args.kind == "uniform":
        pts = generate_uniform(args.n, args.d, args.seed)
    else:
        pts = generate_halton(args.n, args.d)
    _write_out(save_pointset(pts), args.out)
    return 0


def _norm_spec(args) -> NormSpec:
    weight = None if args.phi is None else WeightFn.from_json(json.loads(args.phi))
    return NormSpec(args.norm, p=args.p, alpha=args.alpha, weight=weight)


def cmd_disc(args) -> int:
    points = load_pointset(Path(args.infile).read_text(), dim=args.d)
    spec = _norm_spec(args)
    if args.tol is not None and not 0.0 < args.tol <= 1e-2:
        raise ValueError("--tol must lie in (0, 1e-2]")
    res = spec.compute(points, rel_tol=args.tol)
    if args.json:
        print(json.dumps(asdict(res)))
    else:
        print(f"value={res.value!r}")
        print(f"abs_error_estimate={res.abs_error_estimate!r}")
        for key in sorted(res.diagnostics):
            print(f"{key}={res.diagnostics[key]!r}")
    return 0


def _suite_stirling(seed: int) -> list[BoundReport]:
    return [stirling_check(p) for p in range(1, 171)]


def _suite_minconst(seed: int) -> list[BoundReport]:
    return [min_const_check()]


def _suite_construction(seed: int) -> list[BoundReport]:
    base = construction_constants_check(12.75)
    a_sq = 16.0 * 12.75 ** 2
    exact = BoundReport(
        name="construction_a_value",
        lhs=a_sq,
        rhs=2601.0,
        holds=a_sq == 2601.0,
        margin=0.0,
        params={"a": 12.75},
        note="16 a^2 must equal 2601 exactly",
    )
    return [base, exact, construction_constants_check(100.0)]


def _suite_theorem2(seed: int) -> list[BoundReport]:
    reports = []
    c_lim = theorem2_constant(1e6)
    rel = abs(c_lim - 2601.0) / 2601.0
    reports.append(BoundReport(
        name="theorem2_constant_limit", lhs=rel, rhs=1e-3, holds=rel <= 1e-3,
        margin=1e-3 - rel, params={"alpha": 1e6, "value": c_lim},
        note="relative deviation from the large-alpha limit 2601",
    ))
    nb = theorem2_n_bound(2.0, 0.5, 1)
    reports.append(BoundReport(
        name="theorem2_n_bound_value", lhs=float(nb), rhs=14456.0,
        holds=nb == 14456, margin=0.0,
        params={"alpha": 2.0, "eps": 0.5, "d": 1},
        note="frozen reference value",
    ))
    b_loose = theorem2_n_bound(2.0, 0.9, 3)
    b_tight = theorem2_n_bound(2.0, 0.1, 3)
    reports.append(BoundReport(
        name="theorem2_eps_monotone", lhs=float(b_loose), rhs=float(b_tight),
        holds=b_loose < b_tight, margin=float(b_tight - b_loose),
        params={"alpha": 2.0, "d": 3},
    ))
    for alpha in (1.0, 2.0):
        seq = [theorem2_n_bound(alpha, 0.5, d) for d in range(1, 11)]
        ok = all(b <= c for b, c in zip(seq, seq[1:]))
        reports.append(BoundReport(
            name="theorem2_d_monotone", lhs=float(seq[0]), rhs=float(seq[-1]),
            holds=ok, margin=float(seq[-1] - seq[0]), params={"alpha": alpha},
        ))
    return reports


def _suite_initial(seed: int) -> list[BoundReport]:
    reports = []
    w = WeightFn.power(1.0, 1.0)
    for d in range(1, 9):
        val = phi_norm(empty_pointset(d), w).value
        lb = initial_phi_lower(d, w)
        reports.append(BoundReport(
            name="initial_phi_lower", lhs=lb, rhs=val, holds=val >= lb,
            margin=val - lb, params={"d": d, "weight": w.to_json()},
        ))
    for d in (2, 5, 10, 20):
        for alpha in (1.0, 2.0):
            val = alpha_norm(empty_pointset(d), alpha).value
            lb = initial_alpha_lower(d, alpha)
            reports.append(BoundReport(
                name="initial_alpha_lower", lhs=lb, rhs=val, holds=val >= lb,
                margin=val - lb, params={"d": d, "alpha": alpha},
            ))
    return reports


def _suite_lemma1(seed: int) -> list[BoundReport]:
    reports = []
    for i, (n, d) in enumerate([(8, 1), (16, 1), (8, 2), (16, 2)]):
        pts = generate_uniform(n, d, seed + i)
        cache = LpCache(pts)
        for alpha in (1.0, 2.0):
            reports.append(lemma1_sandwich_check(pts, alpha, cache=cache))
        reports.append(lemma1_sandwich_check(
            pts, 2.0, phi=WeightFn.power(1.0, 0.5), cache=cache))
    return reports


def _suite_hnww(seed: int) -> list[BoundReport]:
    return [
        hnww_empirical_check(1, 16, 32, seed),
        hnww_empirical_check(2, 64, 32, seed),
    ]


_SUITES = {
    "stirling": _suite_stirling,
    "lemma1": _suite_lemma1,
    "initial": _suite_initial,
    "theorem2": _suite_theorem2,
    "minconst": _suite_minconst,
    "construction": _suite_construction,
    "hnww": _suite_hnww,
}


def cmd_verify(args) -> int:
    reports = _SUITES[args.suite](args.seed)
    for rep in reports:
        print(json.dumps(rep.to_json()))
    return 0 if all(r.holds for r in reports) else 3


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) not in (2, 3) or parts[2:] not in ([], ["geometric"]):
        raise ValueError(f"bad range {text!r}; expected a:b or a:b:geometric")
    lo, hi = int(parts[0]), int(parts[1])
    if lo > hi:
        raise ValueError(f"range {text!r} is empty: {lo} > {hi}")
    if len(parts) == 2:
        return list(range(lo, hi + 1))
    if lo < 1:
        # doubling from 0 or below never passes hi
        raise ValueError(f"a geometric range must start at 1 or above, got {text!r}")
    out = []
    while lo <= hi:
        out.append(lo)
        lo *= 2
    return out


def cmd_sweep(args) -> int:
    spec = _norm_spec(args)
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    d_values = _parse_range(args.d_range)
    n_values = _parse_range(args.n_range)
    if any(n < 1 for n in n_values):
        raise ValueError("--n-range values must be at least 1")
    lines = ["d,N,min_disc,initial_disc,ratio,bound"]
    for d in sorted(d_values):
        initial = spec.initial(d)
        for n in sorted(n_values):
            best = math.inf
            for t in range(args.trials):
                pts = generate_uniform(n, d, args.seed + 7919 * n + 97 * d + t)
                best = min(best, spec.compute(pts).value)
            ratio = best / initial
            if spec.kind == "star":
                bound = repr(10.0 * math.sqrt(d / n))
            elif spec.kind == "psi-alpha":
                bound = repr(theorem2_n_bound(spec.alpha, 0.5, d))
            else:
                bound = ""
            lines.append(f"{d},{n},{best!r},{initial!r},{ratio!r},{bound}")
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _add_norm_flags(parser: _Parser) -> None:
    """The --norm flag and the parameters its kinds take."""
    parser.add_argument("--norm", required=True, choices=list(_NORM_NEEDS))
    parser.add_argument("--p", type=float, default=None)
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--phi", default=None, help="weight JSON descriptor")


def build_parser() -> _Parser:
    parser = _Parser(prog="discnorm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("gen", help="generate a point set CSV")
    g.add_argument("--kind", choices=["uniform", "halton"], required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("disc", help="compute a discrepancy norm")
    c.add_argument("--in", dest="infile", required=True)
    _add_norm_flags(c)
    c.add_argument("--tol", type=float, default=None)
    c.add_argument("--d", type=int, default=None,
                   help="dimension (required for empty input files)")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_disc)

    v = sub.add_parser("verify", help="run a bound-verification suite")
    v.add_argument("--suite", required=True, choices=sorted(_SUITES))
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("sweep", help="trial-minimum discrepancy sweep CSV")
    _add_norm_flags(s)
    s.add_argument("--d-range", dest="d_range", required=True)
    s.add_argument("--n-range", dest="n_range", required=True)
    s.add_argument("--trials", type=int, default=4)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
