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

from .bounds import NORM_FIELDS, SUITES, NormSpec, sweep_bound
from .integrate import NumericalError
from .orlicz import WeightFn
from .pointset import (check_int, check_real, generate_halton, generate_uniform, load_pointset,
                       save_pointset)


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
    tol = None if args.tol is None else check_real(args.tol, "--tol", 0, 1e-2, "(]")
    res = spec.compute(points, rel_tol=tol)
    if args.json:
        print(json.dumps(asdict(res)))
    else:
        print(f"value={res.value!r}")
        print(f"abs_error_estimate={res.abs_error_estimate!r}")
        for key in sorted(res.diagnostics):
            print(f"{key}={res.diagnostics[key]!r}")
    return 0


def cmd_verify(args) -> int:
    reports = SUITES[args.suite](args.seed)
    for rep in reports:
        print(json.dumps(rep.to_json()))
    return 0 if all(r.holds for r in reports) else 3


def _parse_range(text: str, flag: str):
    """The integers a..b of ``a:b``, or the doubling a, 2a, ... <= b of
    ``a:b:geometric``, for integers 1 <= a <= b."""
    parts = text.split(":")
    try:
        lo, hi = map(int, parts[:2])
        if parts[2:] not in ([], ["geometric"]) or not 1 <= lo <= hi:
            raise ValueError
    except ValueError:
        raise ValueError(f"{flag} must be a:b or a:b:geometric with integers 1 <= a <= b, "
                         f"got {text!r}") from None
    if len(parts) == 2:
        return list(range(lo, hi + 1))
    out = []
    while lo <= hi:
        out.append(lo)
        lo *= 2
    return out


def cmd_sweep(args) -> int:
    spec = _norm_spec(args)
    args.trials = check_int(args.trials, "--trials", 1)
    d_values = _parse_range(args.d_range, "--d-range")
    n_values = _parse_range(args.n_range, "--n-range")
    lines = ["d,N,min_disc,initial_disc,ratio,bound"]
    for d in sorted(d_values):
        initial = spec.initial(d)
        for n in sorted(n_values):
            best = math.inf
            for t in range(args.trials):
                pts = generate_uniform(n, d, args.seed + 7919 * n + 97 * d + t)
                best = min(best, spec.compute(pts).value)
            ratio = best / initial
            bound = sweep_bound(spec, d, n)
            cell = "" if bound is None else repr(bound)
            lines.append(f"{d},{n},{best!r},{initial!r},{ratio!r},{cell}")
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _add_norm_flags(parser: _Parser) -> None:
    """The --norm flag and the parameters its kinds take."""
    parser.add_argument("--norm", required=True, choices=list(NORM_FIELDS))
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
    v.add_argument("--suite", required=True, choices=sorted(SUITES))
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
        # numpy rejects a negative seed only where one reaches it
        args.seed = check_int(getattr(args, "seed", 0), "--seed", 0)
        return args.func(args)
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
