"""Generate the frozen references in bench/refs from the current commit.

    python3 bench/make_refs.py query|sandwich|cli ...

Each entry holds ``ref`` and ``ref_err`` (a tighter computation and its
error; for p = 2 the closed-form Warnock value, for star the independent
cell-grid sup), ``tol`` (the relative tolerance the op asks for) and
``base_err`` (the error this commit reports for the op itself).

The phi-sup ops (``alpha_norm``, ``phi_norm``) report at least 1e-3 of
their value as error whatever tolerance they are given, so for them the
reported error of the tighter run is not used as ``ref_err``: it is the
distance between two tighter runs, on caches at two tolerances.
The CLI goldens also hold the exit code and stdout of every command.  The
references are written once and then left alone: regenerating them on a
later commit would hide a regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pins  # noqa: F401  (before numpy)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from discnorm import cells, lp, orlicz  # noqa: E402

# Tighter settings of the reference computations.
LP_REF_TOL = 1e-11
LUX_REF_TOL = 1e-10
PHI_REF_TOL = 1e-8
SANDWICH_CACHE_REF_TOL = 1e-7
# Cache tolerances of the second tighter run of a phi-sup op.
LP_CHECK_TOL = 1e-9
SANDWICH_CACHE_CHECK_TOL = 1e-6


def entry(ref: float, ref_err: float, tol: float, base) -> dict:
    value = base if isinstance(base, float) else base.value
    base_err = 0.0 if isinstance(base, float) else base.abs_error_estimate
    return {"ref": ref, "ref_err": ref_err, "tol": tol, "base": value, "base_err": base_err}


def warnock_entry(pts, base) -> dict:
    """Warnock's L_2 with a rounding bound on the cancelling three-term sum."""
    x = pts.coords
    n, d = x.shape
    t1 = 3.0 ** (-d)
    t2 = (2.0 / n) * float(np.prod((1.0 - x ** 2) / 2.0, axis=1).sum())
    t3 = float(np.prod(1.0 - np.maximum(x[:, None, :], x[None, :, :]), axis=2).sum()) / n ** 2
    value = lp.warnock_l2(pts)
    err_sq = 64.0 * np.finfo(float).eps * (t1 + t2 + t3) * max(n, d)
    return entry(value, err_sq / (2.0 * value), wl.LP_TOL, base)


def star_entry(pts, base) -> dict:
    return entry(cells.build_cell_grid(pts).sup_abs_discrepancy(), 0.0, wl.EXACT_TOL, base)


def lp_entry(pts, p: float, base) -> dict:
    if p == 2.0:
        return warnock_entry(pts, base)
    tight = lp.lp_discrepancy(pts, p, rel_tol=LP_REF_TOL)
    return entry(tight.value, tight.abs_error_estimate, wl.LP_TOL, base)


def lux_entry(pts, base) -> dict:
    tight = orlicz.luxemburg_norm(pts, orlicz.OrliczSpec(2.0), rel_tol=LUX_REF_TOL,
                                  cache=lp.LpCache(pts, rel_tol=LP_REF_TOL))
    return entry(tight.value, tight.abs_error_estimate, wl.LUX_TOL, base)


def phi_sup_entry(tight, check, tol: float, base) -> dict:
    """A phi-sup reference: ``tight``, with its distance to ``check`` as error."""
    return entry(tight.value, abs(tight.value - check.value), tol, base)


def alpha_entry(pts, base) -> dict:
    def run(cache_tol):
        return orlicz.alpha_norm(pts, 2.0, rel_tol=PHI_REF_TOL,
                                 cache=lp.LpCache(pts, rel_tol=cache_tol))
    return phi_sup_entry(run(LP_REF_TOL), run(LP_CHECK_TOL), wl.ALPHA_TOL, base)


def phi_entry(pts, base) -> dict:
    weight = orlicz.WeightFn.from_json(wl.POWER_WEIGHT)

    def run(cache_tol):
        return orlicz.phi_norm(pts, weight, rel_tol=PHI_REF_TOL,
                               cache=lp.LpCache(pts, rel_tol=cache_tol))
    return phi_sup_entry(run(LP_REF_TOL), run(LP_CHECK_TOL), wl.ALPHA_TOL, base)


def make_query() -> dict:
    inputs = wl.query_inputs()
    out = {}
    for fam, ops in wl.QUERY_OPS.items():
        pts = inputs[fam]
        for op in ops:
            base = wl.query_call(op, pts)
            if op == "star":
                e = star_entry(pts, base)
            elif op == "lux":
                e = lux_entry(pts, base)
            elif op == "alpha":
                e = alpha_entry(pts, base)
            else:
                e = lp_entry(pts, float(op[2:]), base)
            out[f"{op}@{fam}"] = e
            report(f"{op}@{fam}", e)
    return out


def make_sandwich() -> dict:
    out = {}
    weight = orlicz.WeightFn.from_json(wl.POWER_WEIGHT)
    for name, pts in wl.sandwich_inputs().items():
        tight = lp.LpCache(pts, rel_tol=SANDWICH_CACHE_REF_TOL)
        check_cache = lp.LpCache(pts, rel_tol=SANDWICH_CACHE_CHECK_TOL)
        coarse = lp.LpCache(pts, rel_tol=wl.SANDWICH_TOL)
        for check in wl.SANDWICH_CHECKS:
            rep = wl.sandwich_call(check, pts, coarse)
            if check == "power":
                spec = orlicz.OrliczSpec(2.0, weight)

                def base_norm(cache, tol):
                    return orlicz.phi_norm(pts, weight, rel_tol=tol, cache=cache)
            else:
                spec = orlicz.OrliczSpec(float(check[1:]))

                def base_norm(cache, tol, a=spec.alpha):
                    return orlicz.alpha_norm(pts, a, rel_tol=tol, cache=cache)
            lux_t = orlicz.luxemburg_norm(pts, spec, rel_tol=1e-9, cache=tight)
            base_t = base_norm(tight, SANDWICH_CACHE_REF_TOL)
            base_c = base_norm(check_cache, SANDWICH_CACHE_REF_TOL)
            lux_b = orlicz.luxemburg_norm(pts, spec, cache=coarse)
            base_b = base_norm(coarse, 1e-6)
            e = {"holds": rep.holds,
                 "luxemburg": entry(lux_t.value, lux_t.abs_error_estimate, wl.SANDWICH_TOL, lux_b),
                 "base_norm": phi_sup_entry(base_t, base_c, wl.SANDWICH_TOL, base_b)}
            out[f"{check}@{name}"] = e
            report(f"{check}@{name}", e["luxemburg"], e["base_norm"], holds=rep.holds)
    return out


def make_cli() -> dict:
    workdir = ROOT / ".bench_work" / "refs-cli"
    wl.cli_inputs(workdir)
    out = {}
    for cmd in wl.CLI_COMMANDS:
        res = wl.run_cli_subprocess(wl.cli_argv(cmd, workdir), ROOT, workdir)
        g = {"exit": res.code, "stdout": res.stdout}
        if cmd.startswith("disc-"):
            pts = wl.cli_input(3 if cmd in ("disc-lp", "disc-star") else 2)
            fields = dict(line.split("=", 1) for line in res.stdout.splitlines())
            base = lp.NormResult(float(fields["value"]), float(fields["abs_error_estimate"]))
            g.update({"disc-lp": lambda: lp_entry(pts, 2.5, base),
                      "disc-star": lambda: star_entry(pts, base.value),
                      "disc-psi": lambda: lux_entry(pts, base),
                      "disc-alpha": lambda: alpha_entry(pts, base),
                      "disc-phi": lambda: phi_entry(pts, base)}[cmd]())
            report(cmd, g)
        out[cmd] = g
        print(cmd, "exit", res.code, flush=True)
    for cmd in wl.CLI_PROBE:
        out[cmd] = {"exit": 1, "stdout": ""}
    return out


def report(key: str, *entries, holds=True) -> None:
    """Print an entry and flag the ones this commit already misses."""
    bad = [] if holds else ["verdict does not hold"]
    bad += [msg for e in entries if (msg := wl.value_failure(e["base"], e))]
    print(key, " ".join(f"{e['ref']:.12g}±{e['ref_err']:.2g}" for e in entries),
          "FAIL " + "; ".join(bad) if bad else "ok", flush=True)


MAKERS = {"query": make_query, "sandwich": make_sandwich, "cli": make_cli}


def main(names) -> None:
    for name in names:
        data = MAKERS[name]()
        path = wl.REFS / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print("wrote", path, len(data), "entries", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:] or list(MAKERS))
