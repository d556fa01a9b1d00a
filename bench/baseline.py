"""Run the benchmark over several seeds and write the medians as JSON.

    python3 bench/baseline.py --seeds 1-10 --seconds 45 --out bench/baseline.json

For each workload: one timed run per seed (end-to-end metrics: median,
quartiles and spread, the quartile distance over the median) and one
traced run at seed 0 (per-layer metrics), plus the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import pins
import stats

HERE = Path(__file__).resolve().parent
WORKLOADS = ("query", "cli", "sandwich")
TRACE_SEED = 0


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=900)
    res = json.loads(out.stdout.splitlines()[-1])
    res["wall_s"] = time.perf_counter() - t0
    print(f"{workload} seed {seed} trace {trace}: {res['wall_s']:.1f} s, correct {res['correct']}, "
          + " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()), flush=True)
    return res


def summary(runs: list) -> dict:
    out = {}
    for key, m in runs[0]["metrics"].items():
        values = [r["metrics"][key]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[key] = {"unit": m["unit"], "median": statistics.median(values), "q1": q1, "q3": q3,
                    "spread": stats.spread(values)}
    return out


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy"), "nproc": os.cpu_count(), "machine": platform.machine(),
            "thread_pins": pins.PINS}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    result = {"seeds": seeds, "seconds": args.seconds, "trace_seed": TRACE_SEED,
              "environment": environment(), "workloads": {}}
    for name in WORKLOADS:
        runs = [run(name, s, args.seconds, 0) for s in seeds]
        traced = run(name, TRACE_SEED, args.seconds, 1)
        result["workloads"][name] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted_per_run": runs[0]["attempted"],
            "run_wall_s": statistics.median(r["wall_s"] for r in runs),
            "end_to_end": summary(runs),
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        for key, s in result["workloads"][name]["end_to_end"].items():
            print(f"  {name:9s} {key:12s} median {s['median']:.5g} {s['unit']:5s} "
                  f"spread {s['spread']:.3f}", flush=True)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
