"""The benchmark's three workloads: their inputs, operations and checks.

Every input is a fixed point set whose references live in ``bench/refs``:
the uniform sets of the query and cli workloads use seed 0, and the
sandwich set of combo c uses seed c.  A round runs every op of a workload
once; ``round()`` returns them in groups that must run in order (the
checks that share one set's cache), and the runner shuffles the groups
with the workload seed.
Every round repeats the same ops on the same inputs, so an op's latency
can be taken over its repeats.  ``warmup()`` names the ops to run once,
untimed, before the first round.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from discnorm import bounds, cli, lp, orlicz, pointset, star

REFS = Path(__file__).resolve().parent / "refs"

# query: CLI default tolerances (disc --norm lp / psi-alpha / alpha-norm).
LP_TOL = 1e-9
LUX_TOL = 1e-8
ALPHA_TOL = 1e-6
# The exact engines are held to agreement at this relative level.
EXACT_TOL = 1e-12
# Input families: name -> (n, d, uniform?); one set each.  Orlicz ops and
# p = 1 run only where one op stays below a few seconds; see bench/README.md.
QUERY_FAMILIES = {"u64x2": (64, 2, True), "u128x2": (128, 2, True),
                  "h64x2": (64, 2, False), "u16x3": (16, 3, True),
                  "u32x3": (32, 3, True)}
QUERY_OPS = {
    "u64x2": ("lp1", "lp2", "lp2.5", "lp3", "lp7", "lp20", "star", "lux", "alpha"),
    "u128x2": ("lp1", "lp2", "lp2.5", "lp3", "lp7", "lp20", "star", "lux"),
    "h64x2": ("lp1", "lp2", "lp2.5", "lp3", "lp7", "lp20", "star", "lux", "alpha"),
    "u16x3": ("lp2", "lp2.5", "lp3", "lp7", "lp20", "star"),
    "u32x3": ("lp2", "lp2.5", "lp3", "lp7", "lp20", "star"),
}

# sandwich: criterion-5 shaped, one set per (n, d) combo.
SANDWICH_COMBOS = tuple((n, d) for n in (8, 16, 32) for d in (1, 2, 3))
SANDWICH_TOL = 1e-5
SANDWICH_ALPHAS = (1.0, 1.5, 2.0, 3.0)
# Per set, in this order, on the set's shared cache.
SANDWICH_CHECKS = tuple(f"a{a:g}" for a in SANDWICH_ALPHAS) + ("power",)
POWER_WEIGHT = {"kind": "power", "C": 1.0, "r": 0.5}

# cli: one subprocess per op.  {in3}/{in2} are the (32,3)/(32,2) input files.
PHI_ARG = json.dumps(POWER_WEIGHT)
CLI_COMMANDS = {
    "gen-uniform": ["gen", "--kind", "uniform", "--n", "64", "--d", "2", "--seed", "0"],
    "gen-halton": ["gen", "--kind", "halton", "--n", "64", "--d", "2"],
    "disc-lp": ["disc", "--in", "{in3}", "--norm", "lp", "--p", "2.5"],
    "disc-star": ["disc", "--in", "{in3}", "--norm", "star"],
    "disc-psi": ["disc", "--in", "{in2}", "--norm", "psi-alpha", "--alpha", "2"],
    "disc-alpha": ["disc", "--in", "{in2}", "--norm", "alpha-norm", "--alpha", "2"],
    "disc-phi": ["disc", "--in", "{in2}", "--norm", "phi", "--phi", PHI_ARG],
    "verify-lemma1": ["verify", "--suite", "lemma1", "--seed", "0"],
    "verify-theorem2": ["verify", "--suite", "theorem2"],
    "verify-initial": ["verify", "--suite", "initial"],
    "verify-hnww": ["verify", "--suite", "hnww", "--seed", "0"],
    "sweep-star": ["sweep", "--norm", "star", "--d-range", "1:3",
                   "--n-range", "4:64:geometric", "--trials", "8", "--seed", "0"],
}
# The bad inputs of the error-path probe: each must exit 1 with an empty
# stdout and no traceback.
CLI_PROBE = {
    "bad-p-inf": ["disc", "--in", "{in2}", "--norm", "lp", "--p", "inf"],
    "bad-phi-list": ["disc", "--in", "{in2}", "--norm", "phi", "--phi", "[1,2]"],
    "bad-phi-type": ["disc", "--in", "{in2}", "--norm", "phi",
                     "--phi", '{"kind":"power","C":"x","r":1}'],
    "bad-p-nan": ["disc", "--in", "{in2}", "--norm", "lp", "--p", "nan"],
    "bad-trials-0": ["sweep", "--norm", "star", "--d-range", "1:2",
                     "--n-range", "4:8", "--trials", "0"],
}
# Relative agreement with the golden stdout for commands without their own
# reference: 1e-3 is the error alpha_norm promises, which verify inherits.
CLI_RTOL = {"gen": 0.0, "verify": 1e-3, "sweep": EXACT_TOL}
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")


@dataclass
class Op:
    """One operation: ``run`` computes, ``check`` returns a failure reason."""

    key: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def value_failure(value: float, ref: dict) -> str | None:
    """Why ``value`` misses its reference, or None.

    Allowed distance: the larger of the requested relative tolerance and
    the error this commit reported for the same op, plus the reference's
    own error.
    """
    if not math.isfinite(value):
        return f"non-finite value {value!r}"
    allowed = max(ref["tol"] * abs(ref["ref"]), ref["base_err"]) + ref["ref_err"]
    off = abs(value - ref["ref"])
    if off > allowed:
        return f"value {value!r} is {off:.3g} from reference {ref['ref']!r} (allowed {allowed:.3g})"
    return None


def load_refs(name: str) -> dict:
    with open(REFS / f"{name}.json") as fh:
        return json.load(fh)


def query_inputs() -> dict:
    """Every query input by family name."""
    return {fam: pointset.generate_uniform(n, d, 0) if uniform else pointset.generate_halton(n, d)
            for fam, (n, d, uniform) in QUERY_FAMILIES.items()}


def query_call(op: str, pts):
    """The query op ``op`` on ``pts``: a NormResult, or a float for star."""
    if op == "star":
        return star.star_discrepancy_exact(pts)
    if op == "lux":
        return orlicz.luxemburg_norm(pts, orlicz.OrliczSpec(2.0), rel_tol=LUX_TOL)
    if op == "alpha":
        return orlicz.alpha_norm(pts, 2.0, rel_tol=ALPHA_TOL)
    return lp.lp_discrepancy(pts, float(op[2:]), rel_tol=LP_TOL)


def sandwich_inputs() -> dict:
    """The set of each combo by name, u{n}x{d}."""
    return {f"u{n}x{d}": pointset.generate_uniform(n, d, c)
            for c, (n, d) in enumerate(SANDWICH_COMBOS)}


def sandwich_call(check: str, pts, cache):
    """One lemma-1 check; ``check`` is a{alpha} or power."""
    if check == "power":
        return bounds.lemma1_sandwich_check(
            pts, 2.0, phi=orlicz.WeightFn.from_json(POWER_WEIGHT), cache=cache)
    return bounds.lemma1_sandwich_check(pts, float(check[1:]), cache=cache)


def cli_argv(cmd: str, workdir: Path) -> list[str]:
    template = CLI_COMMANDS.get(cmd) or CLI_PROBE[cmd]
    fill = {"{in3}": str(workdir / "u32x3.csv"), "{in2}": str(workdir / "u32x2.csv")}
    return [fill.get(a, a) for a in template]


def cli_input(d: int):
    """The uniform (32, d) set the disc commands read."""
    return pointset.generate_uniform(32, d, 0)


def cli_inputs(workdir: Path) -> None:
    """Write the (32,3) and (32,2) input files the disc commands read."""
    workdir.mkdir(parents=True, exist_ok=True)
    for d in (2, 3):
        (workdir / f"u32x{d}.csv").write_text(pointset.save_pointset(cli_input(d)))


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli_subprocess(argv, root: Path, workdir: Path) -> CliResult:
    proc = subprocess.run([sys.executable, "-m", "discnorm", *argv], cwd=workdir,
                          env=cli_env(root), capture_output=True, text=True, timeout=150)
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def run_cli_inprocess(argv) -> CliResult:
    """cli.main in this process; an escaping exception reads as a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught error is what prints a traceback
            err.write(f"Traceback (most recent call last):\n{type(exc).__name__}: {exc}\n")
            code = 1
    return CliResult(code, out.getvalue(), err.getvalue())


def _numbers_failure(got: str, want: str, rtol: float) -> str | None:
    """Compare text with the golden: words exactly, numbers to ``rtol``."""
    if _NUMBER.sub("#", got) != _NUMBER.sub("#", want):
        return "stdout differs from the golden"
    for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        x, y = float(a), float(b)
        if x == y:
            continue
        if not (math.isfinite(x) and abs(x - y) <= rtol * abs(y)):
            return f"stdout number {a} differs from golden {b}"
    return None


def cli_failure(cmd: str, res: CliResult, golden: dict) -> str | None:
    """Why a CLI op failed against its golden, or None."""
    if "Traceback (most recent call last)" in res.stderr:
        return "traceback on stderr: " + res.stderr.strip().splitlines()[-1]
    if res.code != golden["exit"]:
        return f"exit code {res.code}, expected {golden['exit']}"
    if "ref" in golden:
        fields = dict(line.split("=", 1) for line in res.stdout.splitlines() if "=" in line)
        try:
            value = float(fields["value"])
        except (KeyError, ValueError):
            return "no value= line on stdout"
        return value_failure(value, golden)
    if cmd.startswith("verify"):
        for line in res.stdout.splitlines():
            if not json.loads(line)["holds"]:
                return f"verdict does not hold: {line[:120]}"
    rtol = CLI_RTOL.get(cmd.split("-")[0], 0.0) if cmd in CLI_COMMANDS else 0.0
    return _numbers_failure(res.stdout, golden["stdout"], rtol)


def _result_value(res) -> float:
    return float(res if isinstance(res, float) else res.value)


class Query:
    """Uncached single-norm calls at the CLI default tolerances."""

    def setup(self, root: Path, workdir: Path) -> None:
        self.inputs = query_inputs()
        self.refs = load_refs("query")

    def round(self) -> list[list[Op]]:
        return [[self._op(fam, op)] for fam, ops in QUERY_OPS.items() for op in ops]

    def warmup(self) -> list[list[Op]]:
        """Every query op kind once, on the (64,2) uniform set."""
        return [g for g in self.round() if g[0].key.endswith("@u64x2")]

    def _op(self, fam: str, op: str) -> Op:
        key = f"{op}@{fam}"
        pts = self.inputs[fam]
        ref = self.refs[key]
        return Op(key, lambda: query_call(op, pts),
                  lambda res: value_failure(_result_value(res), ref))

    def covered(self, key: str, res) -> bool | None:
        """Whether an L_p result's own error bar covers its reference."""
        if not key.startswith("lp"):
            return None
        ref = self.refs[key]
        return abs(res.value - ref["ref"]) <= res.abs_error_estimate + ref["ref_err"]


class Sandwich:
    """Criterion-5 lemma-1 checks, one shared LpCache per set."""

    def setup(self, root: Path, workdir: Path) -> None:
        self.inputs = sandwich_inputs()
        self.refs = load_refs("sandwich")

    def round(self) -> list[list[Op]]:
        """One group per set: its checks in order, on a fresh shared cache."""
        groups = []
        for name, pts in self.inputs.items():
            cache = lp.LpCache(pts, rel_tol=SANDWICH_TOL)
            groups.append([self._op(check, name, pts, cache) for check in SANDWICH_CHECKS])
        return groups

    def warmup(self) -> list[list[Op]]:
        """Every check once, on the cheapest set, (8,1)."""
        return self.round()[:1]

    def _op(self, check: str, name: str, pts, cache) -> Op:
        key = f"{check}@{name}"
        ref = self.refs[key]

        def verify(rep):
            if not rep.holds:
                return f"verdict does not hold (margin {rep.margin!r})"
            return (value_failure(rep.params["luxemburg"], ref["luxemburg"])
                    or value_failure(rep.params["base_norm"], ref["base_norm"]))

        return Op(key, lambda: sandwich_call(check, pts, cache), verify)

    def covered(self, key: str, res) -> bool | None:
        return None


class Cli:
    """``python -m discnorm`` calls, in subprocesses or, traced, in-process."""

    def __init__(self, inprocess: bool = False):
        self.inprocess = inprocess

    def setup(self, root: Path, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir / "cli"
        cli_inputs(self.workdir)
        self.golden = load_refs("cli")
        self.seen: dict[tuple, str] = {}

    def _run(self, argv) -> CliResult:
        if self.inprocess:
            return run_cli_inprocess(argv)
        return run_cli_subprocess(argv, self.root, self.workdir)

    def round(self) -> list[list[Op]]:
        return [[self.op(cmd)] for cmd in CLI_COMMANDS]

    def warmup(self) -> list[list[Op]]:
        """None needed: every op starts a fresh interpreter."""
        return []

    def probe(self) -> list[Op]:
        return [self.op(cmd) for cmd in CLI_PROBE]

    def op(self, cmd: str) -> Op:
        argv = cli_argv(cmd, self.workdir)
        golden = self.golden[cmd]

        def verify(res: CliResult):
            earlier = self.seen.setdefault(tuple(argv), res.stdout)
            if earlier != res.stdout:
                return "stdout differs from an earlier call with the same flags"
            return cli_failure(cmd, res, golden)

        return Op(cmd, lambda: self._run(argv), verify)

    def covered(self, key: str, res) -> bool | None:
        return None


WORKLOADS = {"query": Query, "sandwich": Sandwich, "cli": Cli}
