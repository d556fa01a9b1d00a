"""discnorm benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload query|sandwich|cli|all --seed N \
        --seconds S --trace 0|1

Each workload is one process running a closed loop with one client: the
next op starts when the last one has finished.  ``--trace 0`` runs a
fixed number of rounds of the workload's ops, set by ``--seconds``, and
prints the end-to-end metrics; ``--trace 1`` runs one round untraced and
traced side by side and prints the per-layer metrics.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run it from the repository root; it reads the package from
``src/`` and writes only under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pins  # noqa: F401  (before numpy)
import numpy as np
import stats
import tracing

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
WORK = ROOT / ".bench_work"
# A timed run sets up once before the first round and this many more
# times, on fresh workloads, after each round; setup_s is the median.
SETUPS_PER_ROUND = 2
# The traced pass takes cli.import_s as the median of this many imports.
IMPORT_REPS = 5
# Whole rounds a timed run makes per 30 s of --seconds, at least one, so
# that every run at one --seconds does the same work.  At 45 s (6, 4 and 6
# rounds) a run takes 47-62 s on the reference machine.
ROUNDS_PER_30S = {"query": 4, "sandwich": 3, "cli": 4}
# A run starts no new op after this many times --seconds.
OVERRUN = 3.0
IMPORT_PROBE = ("import time; t = time.perf_counter(); import discnorm; "
                "print(time.perf_counter() - t)")


def fresh_import_s(env) -> float:
    """Seconds a new interpreter spends in ``import discnorm``."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=WORK,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def setup_s(workload, env) -> float:
    """Set ``workload`` up once; seconds, a fresh ``import discnorm`` included."""
    imp = fresh_import_s(env)
    t0 = time.perf_counter()
    workload.setup(ROOT, WORK)
    return imp + time.perf_counter() - t0


def freeze_heap() -> None:
    """Freeze the benchmark's own objects out of the garbage collector.

    Then the size of the benchmark's heap does not add to the ops' time.
    """
    gc.collect()
    gc.freeze()


def run_op(op, failures: list, tracer=None, op_id=None):
    """Run and check one op; returns (latency, result)."""
    if tracer is not None:
        tracer.op = op_id
    t0 = time.perf_counter()
    try:
        res = op.run()
        why = None
    except Exception as exc:  # a raising op is a failed op, not a crashed benchmark
        res, why = None, f"raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.op = None
    if why is None:
        try:
            why = op.check(res)
        except Exception as exc:  # a result the check cannot read is a wrong result
            why = f"unreadable result: {type(exc).__name__}: {exc}"
    if why is not None:
        failures.append((op.key, why))
    return dt, res


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def report_failures(failures) -> None:
    for key, why in failures[:20]:
        print(f"FAILED {key}: {why}", file=sys.stderr)
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more failures", file=sys.stderr)


def shuffled(groups: list, rng) -> list:
    return [groups[i] for i in rng.permutation(len(groups))]


def op_stream(workload, seed: int):
    """The workload's rounds without end, groups shuffled by ``seed``.

    Yields ops, and None after each round.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    while True:
        for group in shuffled(workload.round(), rng):
            yield from group
        yield None


def op_latencies(timed: list[tuple[str, float]]) -> list[float]:
    """Each timed op's latency as the mean over the repeats of its key.

    Every round repeats the same ops, so the spread among an op's repeats
    is the host's, not the program's; averaging it out keeps the ranks of
    the ops, and so the quantiles, steady from run to run.  The sum, and so
    the throughput, is unchanged.
    """
    by_key: dict[str, list[float]] = {}
    for key, dt in timed:
        by_key.setdefault(key, []).append(dt)
    mean = {key: sum(v) / len(v) for key, v in by_key.items()}
    return [mean[key] for key, _ in timed]


def warm_up(workload, failures: list) -> int:
    """Run the workload's warm-up ops, untimed; returns how many ran.

    The first call of each op kind pays one-off costs, such as lazy
    imports, that would otherwise land on whichever op of that kind the
    seed puts first.  The warm-up ops are checked like every other op.
    """
    ops = [op for group in workload.warmup() for op in group]
    for op in ops:
        run_op(op, failures)
    return len(ops)


def measure(wl, name: str, seed: int, seconds: float) -> dict:
    workload = wl.WORKLOADS[name]()
    env = wl.cli_env(ROOT)
    setups = [setup_s(workload, env)]
    freeze_heap()
    rounds = max(1, round(ROUNDS_PER_30S[name] * seconds / 30.0))
    lat: list[tuple[str, float]] = []
    failures: list = []
    warm = warm_up(workload, failures)
    done, whole = 0, 0
    t_start = time.perf_counter()
    for op in op_stream(workload, seed):
        if op is None:
            done, whole = done + 1, len(lat)
            # Set-ups spread over the run see the host as the ops do.
            setups += [setup_s(wl.WORKLOADS[name](), env) for _ in range(SETUPS_PER_ROUND)]
            gc.collect()
            if done == rounds:
                break
            continue
        if time.perf_counter() - t_start >= OVERRUN * seconds:
            break
        dt, _ = run_op(op, failures)
        lat.append((op.key, dt))
    wall = time.perf_counter() - t_start
    attempted, failed = warm + len(lat), len(failures)
    # A round cut short by OVERRUN is left out: its ops are not the workload's mix.
    ops = op_latencies(lat[:whole] if done else lat)
    report_failures(failures)
    pct, tail_s, n = stats.tail(ops)
    metrics = {
        "ops_per_s": (len(ops) / sum(ops), "1/s"),
        "op_p50_s": (stats.hd_quantile(ops, 0.5), "s"),
        "op_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(name), "MB"),
    }
    print(f"{name}: {attempted} ops in {done} of {rounds} rounds, {wall:.2f} s, seed {seed}; "
          f"{attempted / wall:.4g} ops/s on the wall clock")
    beyond = stats.TAIL_BEYOND if n > stats.TAIL_BEYOND else 0
    for key, (value, unit) in metrics.items():
        extra = f"  (p{pct:.1f} of {n} samples, {beyond} beyond)" if key == "op_tail_s" else ""
        print(f"  {key:12s} {value:.6g} {unit}{extra}")
    attempted_all, failed_all = attempted, failed
    if name == "cli":
        # the error-path probe runs after the timed loop, see bench/README.md
        probe, probe_fail = workload.probe(), []
        for op in probe:
            run_op(op, probe_fail)
        report_failures(probe_fail)
        print(f"  probe        {len(probe_fail)} of {len(probe)} bad-input ops failed: "
              + ", ".join(k for k, _ in probe_fail))
        attempted_all += len(probe)
        failed_all += len(probe_fail)
    print(f"  fail_frac    {failed_all / attempted_all:.6g} ratio "
          f"({failed_all} of {attempted_all} ops)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def trace(wl, name: str, seed: int) -> dict:
    """One round with each group run untraced and traced; per-layer metrics.

    The two runs of a group follow each other, in alternating order, so
    that the host's drift over the round does not read as tracing overhead.
    """
    workload = wl.Cli(inprocess=True) if name == "cli" else wl.WORKLOADS[name]()
    env = wl.cli_env(ROOT)
    import_s = statistics.median(fresh_import_s(env) for _ in range(IMPORT_REPS))

    def groups():  # the first round of op_stream, in fresh ops
        out = shuffled(workload.round(), np.random.Generator(np.random.PCG64(seed)))
        return out + [[op] for op in workload.probe()] if name == "cli" else out

    tracer = tracing.Tracer()
    with tracer:
        workload.setup(ROOT, WORK)
    freeze_heap()
    plain_failures, covered, failures, traced = [], [], [], []
    warm_up(workload, plain_failures)
    walls = {False: 0.0, True: 0.0}
    for k, pair in enumerate(zip(groups(), groups())):
        for is_traced in (False, True) if k % 2 == 0 else (True, False):
            with tracer if is_traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                for op in pair[is_traced]:
                    if is_traced:
                        _, res = run_op(op, failures, tracer, len(traced))
                        traced.append(op)
                        if res is not None and (c := workload.covered(op.key, res)) is not None:
                            covered.append(c)
                    else:
                        run_op(op, plain_failures)
                walls[is_traced] += time.perf_counter() - t0
    tracer.dump(WORK / f"trace-{name}-s{seed}.jsonl")
    report_failures(failures)

    def counted(fails):  # the probe's known failures are reported but not counted
        return [k for k, _ in fails if k not in wl.CLI_PROBE]

    metrics = tracing.layer_metrics(tracer.spans)
    metrics["cli.import_s"] = import_s
    metrics["lp.err_cover_frac"] = sum(covered) / len(covered) if covered else 0.0
    metrics["trace.overhead_frac"] = walls[True] / walls[False] - 1.0
    print(f"{name} (traced): {len(traced)} ops, {len(tracer.spans)} spans, seed {seed}")
    for key, value in metrics.items():
        print(f"  {key:26s} {value:.6g} {tracing.LAYER_METRICS[key]}")
    attempted = len(traced) - (len(wl.CLI_PROBE) if name == "cli" else 0)
    failed = len(counted(failures))
    return {"correct": not failed and not counted(plain_failures),
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": tracing.LAYER_METRICS[k]}
                        for k, v in metrics.items()}}


def run_all(wl, args) -> dict:
    """Each workload in its own process, then one combined summary."""
    results = {}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print("summary:")
    for name, res in results.items():
        for key, m in res["metrics"].items():
            print(f"  {name:9s} {key:26s} {m['value']:.6g} {m['unit']}")
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["query", "sandwich", "cli", "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()
    if not (ROOT / "src" / "discnorm" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'discnorm'}; run from a full checkout",
              file=sys.stderr)
        return 2
    import workloads as wl

    WORK.mkdir(exist_ok=True)
    if args.workload == "all":
        result = run_all(wl, args)
    elif args.trace:
        result = trace(wl, args.workload, args.seed)
    else:
        result = measure(wl, args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
