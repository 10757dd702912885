"""Run one workload in this process and print its figures as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds T --t0 T0
                                [--trace] [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time includes interpreter start, imports and input
generation.  Rounds of the workload's operations run until another round
would end after ``--seconds``; at least one round always runs.  Checks run
after the last round and are not timed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_program():
    """Import htpriv from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import htpriv

    if not os.path.abspath(htpriv.__file__).startswith(src + os.sep):
        raise SystemExit(f"htpriv imported from {htpriv.__file__}, not from {src}")
    return htpriv


def run_rounds(ops, seconds: float):
    from workloads import Outcome

    rounds, round_s = [], []
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        outcomes = {}
        for op in ops:
            t = time.perf_counter()
            try:
                value, error = op.run(), None
            except Exception as e:  # noqa: BLE001 - a raising op is a failed op
                value, error = None, f"{type(e).__name__}: {e}"
            outcomes[op.name] = Outcome(value, error, time.perf_counter() - t)
        round_s.append(time.perf_counter() - t_round)
        rounds.append(outcomes)
        if time.perf_counter() - start + round_s[-1] > seconds:
            return rounds, round_s


def phase_metrics(workload, ops, rounds) -> dict:
    out = {}
    for phase in workload.phases:
        members = [op for op in ops if op.phase == phase.name]
        values = []
        for outcomes in rounds:
            secs = sum(outcomes[op.name].seconds for op in members)
            values.append(sum(op.units for op in members) / secs if phase.per_unit else secs)
        out[phase.name] = {"value": statistics.median(values), "unit": phase.unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    htpriv = _import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    ctx = workload.setup(args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(htpriv)
    ops = workload.ops(ctx)
    rounds, round_s = run_rounds(ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    report = workload.check(ctx, rounds)
    failed = [(name, o) for outcomes in rounds for name, o in outcomes.items()
              if o.error or o.failures]
    for name, o in failed[:20]:
        print(f"FAILED {name}: {o.error or '; '.join(o.failures)}", file=sys.stderr)
    result = {
        "setup_s": setup_s,
        "wall_s": statistics.median(round_s),
        "peak_rss_mb": peak_rss_mb,
        "rounds": len(rounds),
        "attempted": len(ops) * len(rounds),
        "failed": len(failed),
        "correct": all(o.known_fault for _, o in failed),
        "known_faults": sorted({o.known_fault for _, o in failed if o.known_fault}),
        "phases": phase_metrics(workload, ops, rounds),
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
    }
    if tracer is not None:
        from spans import layer_metrics

        tracer.dump(os.path.join(workloads.OUT_DIR, f"spans-{args.workload}-{args.seed}.json"))
        result["layers"] = layer_metrics(tracer.spans, len(rounds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
