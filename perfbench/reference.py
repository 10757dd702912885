"""Measure anew the reference figures quoted in perfbench/README.md.

    python3 perfbench/reference.py

Each figure is one wall-clock measurement on this machine, with the
program's defaults, except the ternary frontier, which is also timed in a
process with HTPL_THREADS=1 to compare the default pool with one thread.
Prints one line per figure and writes them to perfbench/out/reference.json.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from htpriv import adversary, regions, schemes  # noqa: E402
from htpriv.probcore import Channel  # noqa: E402


def timed(fn, *args):
    t = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t


# the benchmark's frontier rounds use smaller searches; these are the
# README command as documented and the ternary search at 10 seeds per |W|
README_FRONTIER = ["run", "--experiment", "frontier", "--instance",
                   os.path.join(workloads.INSTANCE_DIR, "example1_taci.json"),
                   "--seed", "1", "--param", "w_sizes=2"]


def ternary_s() -> float:
    ctx = workloads.Frontier().setup(1)
    cfg = regions.FrontierConfig(random_seeds=10, rng_seed=1)
    return timed(regions.taci_frontier, ctx["ternary"], ctx["ternary_q"], cfg)


def figures() -> dict:
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    out = {}
    ctx = workloads.Frontier().setup(1)
    out["readme_frontier_s"] = timed(workloads._run_cli, README_FRONTIER,
                                     os.path.join(workloads.OUT_DIR, "reference-frontier.csv"))
    out["ternary_frontier_default_pool_s"] = ternary_s()
    env = dict(os.environ, HTPL_THREADS="1")
    proc = subprocess.run([sys.executable, __file__, "--ternary"], env=env, cwd=ROOT,
                          text=True, stdout=subprocess.PIPE, check=True)
    out["ternary_frontier_one_thread_s"] = float(proc.stdout.strip().splitlines()[-1])

    rng = np.random.default_rng(0)
    p = ctx["binary"].p
    chans = [Channel(rng.dirichlet(np.ones(2), size=2)) for _ in range(2000)]
    t = time.perf_counter()
    for c in chans:
        regions.taci_point(p, c)
    out["taci_point_us"] = 1e6 * (time.perf_counter() - t) / len(chans)

    coupling = workloads.Coupling()
    cctx = coupling.setup(1)
    for i, (pair, chan, _frame) in enumerate(cctx["floor"]):
        out[f"e2_floor_active_{i}_s"] = timed(regions.exponent_e2_solution, 0.0, pair, chan)
    pair = cctx["pairs"]["example1_suv.json"]
    out["e2_floor_inactive_ms"] = 1e3 * timed(
        regions.exponent_e2_solution, 0.0, pair, Channel(coupling.CHANNELS[2][0]))
    for op in coupling.ops(cctx):
        if op.name.startswith("support"):
            out[f"{op.name}_s"] = timed(op.run)

    block = workloads.Blocklength()
    bctx = block.setup(1)
    for n in (5, 6):
        out[f"exact_equivocation_example2_n{n}_s"] = timed(
            adversary.exact_equivocation, bctx["parity"][n], bctx["ex2"], n, 0)
    trials = block.LIKELIHOOD_TRIALS
    out["likelihood_trial_ms"] = 1e3 * timed(
        schemes.run_trials, bctx["lik_cfg"], bctx["ex1"], block.LIKELIHOOD_N, trials, 1) / (2 * trials)
    return out


def main() -> int:
    if sys.argv[1:] == ["--ternary"]:
        print(ternary_s())
        return 0
    out = figures()
    for k, v in out.items():
        print(f"{k:<40} {v:.4g}")
    with open(os.path.join(workloads.OUT_DIR, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
