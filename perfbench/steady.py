"""Steadiness check: run each workload in two sets and compare the sets.

    python3 perfbench/steady.py

Each set runs every workload of BENCHMARK.json ten times, untraced, with
seeds 1..10 and BENCHMARK.json's run_seconds; both sets use the same seeds,
so runs of one seed can also be compared for identical outputs (the first
frontier round's CSV hash, every likelihood error count of the run).  For every end-to-end metric of
BENCHMARK.json and every task metric of a workload, it prints each set's
median and quartiles and the spread (q3 - q1) / median, and it says whether
the sets agree:

* each spread, except that of setup_s, stays within the metric's bound
  (setup_s is about 0.2 s of interpreter start and imports, and drifts with
  the host's speed by up to 2x over a minute, which no median within a run
  removes; its spread is printed, and its median shift is gated);
* the two medians differ by at most the bound, as a share of the first;
* the share of failed operations is the same in both sets.

Exit status 0 when every workload agrees, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# bound of every task metric, which run.py prints but BENCHMARK.json cannot
# hold (its end-to-end metrics must be reported by every workload)
TASK_BOUND = 0.25
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, text=True, stdout=subprocess.PIPE, check=True)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    report = next(json.loads(x[len("report "):]) for x in lines if x.startswith("report "))
    out["metrics"].update(report["phases"])
    out["outputs"] = {k: v["value"] for k, v in report["report"].items() if v["unit"] == ""}
    return out


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def compare(workload: str, sets: list[list[dict]], spec: dict) -> tuple[bool, list[str]]:
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    for name in sets[0][0]["metrics"]:
        if name not in bounds:
            bounds[name] = (TASK_BOUND, "higher" if name.endswith("_per_s") else "lower")
    ok, lines = True, []
    for name, (bound, better) in bounds.items():
        a, b = (summarize([r["metrics"][name]["value"] for r in s]) for s in sets)
        worse = (b["median"] - a["median"]) / a["median"]
        if better == "higher":
            worse = -worse
        spread_ok = name == "setup_s" or max(a["spread"], b["spread"]) <= bound
        good = spread_ok and abs(worse) <= bound
        ok &= good
        lines.append(f"  {name:<26} bound {bound:<5} "
                     f"A {a['median']:.5g} [{a['q1']:.5g}, {a['q3']:.5g}] spread {a['spread']:.3f}  "
                     f"B {b['median']:.5g} [{b['q1']:.5g}, {b['q3']:.5g}] spread {b['spread']:.3f}  "
                     f"B worse by {worse:+.3f}  {'ok' if good else 'NOT STEADY'}")
    shares = [{r["failed"] / r["attempted"] for r in s} for s in sets]
    if len(shares[0] | shares[1]) != 1:
        ok = False
        lines.append(f"  failed shares differ: {sorted(shares[0] | shares[1])}")
    if not all(r["correct"] for s in sets for r in s):
        ok = False
        lines.append("  a run's checks failed")
    for ra, rb in zip(*sets):
        if ra["outputs"] != rb["outputs"]:
            ok = False
            lines.append(f"  outputs of one seed differ between sets: {ra['outputs']} vs {rb['outputs']}")
    return ok, [f"{workload}: {'steady' if ok else 'NOT STEADY'}"] + lines


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    all_ok, summary = True, {}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [[one_run(workload, seed, spec["run_seconds"]) for seed in range(1, RUNS + 1)]
                for _ in range(2)]
        ok, lines = compare(workload, sets, spec)
        all_ok &= ok
        print("\n".join(lines), flush=True)
        summary[workload] = [[{k: r[k] for k in ("failed", "attempted", "metrics")} for r in s]
                             for s in sets]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
