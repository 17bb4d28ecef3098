#!/usr/bin/env python3
"""Build and run the WaveMin benchmark.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload serve-warm --seed 3 --seconds 24 --trace 0

builds the library, the `wavemin` daemon and the benchmark program `wmbench` with
dune, then runs one workload and prints its JSON result as the last line.

Steadiness mode runs a workload k times with seeds 1..k and prints, for
every end-to-end metric, the median, the quartiles and the spread (the
quartile distance as a share of the median) next to a third of the
metric's bound from BENCHMARK.json:

    python3 perfbench/run.py --workload all --repeat 10

Run it from the root of the repository.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["suite-cold", "serve-warm", "serve-churn"]
BUILD = os.path.join(ROOT, "_build", "default")
WMBENCH = os.path.join(BUILD, "perfbench", "wmbench.exe")
WAVEMIN = os.path.join(BUILD, "bin", "wavemin.exe")


def build():
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            cmd + ["build", "--root", ROOT, "./perfbench/wmbench.exe", "./bin/wavemin.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        sys.exit(f"run.py: cannot run dune: {e}")
    if done.returncode != 0:
        sys.exit(f"run.py: build failed (exit {done.returncode})")


def wmbench_args(workload, seed, seconds, trace):
    return [WMBENCH, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--wavemin", WAVEMIN]


def steadiness(spec, workloads, repeat, seconds):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in workloads:
        runs = []
        for seed in range(1, repeat + 1):
            out = subprocess.run(wmbench_args(workload, seed, seconds, 0), cwd=ROOT,
                                 stdout=subprocess.PIPE, text=True, check=True).stdout
            runs.append(json.loads(out.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: " + json.dumps(runs[-1]), file=sys.stderr)
        shares = sorted({(r["failed"], r["attempted"]) for r in runs})
        print(f"\n{workload}: {repeat} runs, all correct: {all(r['correct'] for r in runs)}, "
              f"failed/attempted: {', '.join(f'{f}/{a}' for f, a in shares)}")
        print(f"  {'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound/3':>9}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "" if name == "setup_s" else ("ok" if spread < bounds[name] / 3 else "WIDE")
            print(f"  {name:<18}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{spread:>9.4f}{bounds[name] / 3:>9.4f}  {verdict}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="length of the timed phase (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="steadiness mode: run each workload this many times")
    a = p.parse_args()
    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = a.seconds or spec["run_seconds"]
    build()
    if a.repeat == 1:
        sys.exit("run.py: --repeat needs at least 2 runs for quartiles")
    if a.repeat > 0:
        steadiness(spec, WORKLOADS if a.workload == "all" else [a.workload], a.repeat, seconds)
    elif a.workload == "all":
        sys.exit("run.py: --workload all needs --repeat")
    else:
        sys.stdout.flush()
        os.execv(WMBENCH, wmbench_args(a.workload, a.seed, seconds, a.trace))


if __name__ == "__main__":
    main()
