"""htpriv benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload {frontier,coupling,blocklength}
                             --seed N --seconds T --trace {0,1}

Run from the root of a checkout.  Each workload runs in its own worker
process (perfbench/worker.py), driven by one single-threaded loop; the
program's own defaults are left alone (HTPL_THREADS is removed from the
worker's environment, so the frontier pool keeps its default size).

--trace 0: the worker is set up seven times (three set-up-only processes
before the measured one, the measured one, and three after it) and the
median set-up time is reported with the worker's wall time and peak memory.
Set-up time drifts with the host's speed over tens of seconds, so its
samples are spread over the whole run.  --trace 1: an untraced run and a traced run; the
per-layer metrics come from the traced run's spans, and trace.overhead_s is
the difference of the two wall times.

Lines before the last are for people: every metric with its unit (untraced,
also the workload's task metrics), and the checks' verdict.  The last line is
one JSON object with the keys correct, attempted, failed and metrics.  A
worker that fails ends this command with exit status 1 and no JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 175.0
SETUP_EACH_SIDE = 3


class WorkerError(RuntimeError):
    pass


def spawn(args, trace: bool, setup_only: bool, deadline: float) -> dict:
    env = dict(os.environ)
    env.pop("HTPL_THREADS", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as e:
        raise WorkerError(f"worker did not finish within {DEADLINE_S:.0f} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure(args, spec: dict) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        plain = spawn(args, False, False, deadline)
        run = spawn(args, True, False, deadline)
        values = dict(run["layers"], **{"trace.overhead_s": run["wall_s"] - plain["wall_s"]})
        metrics = spec["per_layer"]
    else:
        setups = [spawn(args, False, True, deadline)["setup_s"] for _ in range(SETUP_EACH_SIDE)]
        run = spawn(args, False, False, deadline)
        setups.append(run["setup_s"])
        setups += [spawn(args, False, True, deadline)["setup_s"] for _ in range(SETUP_EACH_SIDE)]
        values = {"setup_s": statistics.median(setups), "wall_s": run["wall_s"],
                  "peak_rss_mb": run["peak_rss_mb"]}
        metrics = spec["end_to_end"]
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        raise WorkerError(f"worker did not report {missing}")
    return run, {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("frontier", "coupling", "blocklength"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        run, metrics = measure(args, spec)
    except (OSError, ValueError, KeyError, WorkerError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  rounds {run['rounds']}  "
          f"trace {args.trace}")
    # task metrics of a traced run would include the tracing overhead
    task = {} if args.trace else dict(run["phases"], **run["report"])
    for name, m in dict(metrics, **task).items():
        print(f"  {name:<52} {m['value']!s:>22} {m['unit']}")
    print(f"  operations attempted {run['attempted']}, failed {run['failed']}; "
          f"checks {'pass' if run['correct'] else 'FAIL'}"
          + "".join(f"; known fault: {f}" for f in run["known_faults"]))
    if not args.trace:
        print("report " + json.dumps({"phases": run["phases"], "report": run["report"]}))
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
