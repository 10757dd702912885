"""In-memory span tracer for the traced benchmark run.

Only the traced run installs it.  It replaces public functions of the htpriv
modules with timing wrappers in the module namespaces that call them; the
program's files are never edited.  Each call records one span: name, start,
end, parent span and a few attributes.  Spans stay in memory until the run
ends, when they are written out and reduced to per-layer metrics.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from collections import defaultdict

import numpy as np

# (defining module, function name): spans get the name "<module>.<function>".
# probcore helpers are wrapped only where other modules imported them, so a
# span marks a call that crosses into the probcore layer.
TARGETS = (
    ("probcore", "conditional_mutual_information"),
    ("probcore", "conditional_entropy"),
    ("probcore", "is_typical"),
    ("probcore", "empirical_cond_entropy"),
    ("regions", "taci_point"),
    ("regions", "taci_frontier"),
    ("regions", "pareto_filter"),
    ("regions", "solve_coupling"),
    ("regions", "exponent_e1"),
    ("regions", "exponent_e2"),
    ("schemes", "run_trials"),
    ("schemes", "build_codebook"),
    ("schemes", "likelihood_encode"),
    ("schemes", "min_entropy_decode"),
    ("adversary", "exact_equivocation"),
    ("adversary", "exact_causal_distortion"),
    ("adversary", "likelihood_model"),
    ("adversary", "mc_privacy_estimate"),
    ("adversary", "counterexample_curve"),
    ("instances", "load_instance"),
    ("cli", "main"),
)

MODULES = ("probcore", "regions", "schemes", "adversary", "instances", "cli")


def _support_boundary(problem, sol) -> bool:
    """A coupling problem is on the support boundary when its answer is +inf
    or its argmin leaves (nearly) empty a cell that the reference supports
    and that no zero in a target marginal forces to zero."""
    if math.isinf(sol.objective) or sol.coupling is None:
        return True
    ref = np.asarray(problem.reference)
    forced = np.zeros(ref.shape, dtype=bool)
    for axes, target in problem.marginal_constraints:
        shape = [ref.shape[i] if i in axes else 1 for i in range(ref.ndim)]
        forced |= np.asarray(target).transpose(np.argsort(axes)).reshape(shape) <= 0
    return bool(((sol.coupling < 1e-9) & (ref > 0) & ~forced).any())


def _attrs(name: str, args, kwargs, result) -> dict:
    """Attributes the per-layer metrics need, read from a call's arguments
    and result (the class of a coupling solve, the block length of an audit)."""
    if name == "regions.solve_coupling":
        problem = args[0] if args else kwargs["problem"]
        if _support_boundary(problem, result):
            return {"cls": "support_boundary"}
        if problem.entropy_floor is not None and result.multiplier != 0.0:
            return {"cls": "floor_active"}
        return {"cls": "marginal"}
    if name in ("adversary.exact_equivocation", "adversary.exact_causal_distortion"):
        model, pair, n = args[0], args[1], args[2]
        ns = pair.p.axis_size("S")
        nv = pair.p.probs.size // (ns * pair.u_size())
        return {"n": n, "cells": model.num_messages * ns ** n * nv ** n}
    if name == "schemes.run_trials":
        config, trials = args[0], args[3] if len(args) > 3 else kwargs["trials"]
        return {"scheme": config.scheme, "trials": 2 * trials}
    if name == "adversary.mc_privacy_estimate":
        return {"samples": args[4] if len(args) > 4 else kwargs["trials"]}
    if name == "cli.main":
        argv = list(args[0] if args else kwargs.get("argv") or [])
        exp = argv[argv.index("--experiment") + 1] if "--experiment" in argv else argv[0]
        return {"command": exp}
    return {}


class Tracer:
    """Records spans for every wrapped call, from any thread.

    A span opened on a thread with no open span of its own (a worker of the
    frontier pool) takes as parent the innermost open span of the thread that
    installed the tracer, which is the call that handed it the work.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stacks: dict[int, list[int]] = {}
        self._ids = itertools.count()
        self._main = threading.get_ident()
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stacks.setdefault(threading.get_ident(), [])
            if stack:
                parent = stack[-1]
            else:
                main = tracer._stacks.get(tracer._main)
                parent = main[-1] if main else None
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            tracer.spans.append((sid, name, t0, t1, parent, _attrs(name, args, kwargs, result)))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package) -> None:
        """Wrap every target in each htpriv module namespace that holds it."""
        mods = {m: getattr(package, m) for m in MODULES}
        for home, fname in TARGETS:
            original = getattr(mods[home], fname)
            wrapped = self._wrap(f"{home}.{fname}", original)
            for mname, mod in mods.items():
                if home == "probcore" and mname == "probcore":
                    continue
                if mod.__dict__.get(fname) is original:
                    self._restore.append((mod, fname, original))
                    setattr(mod, fname, wrapped)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._restore):
            setattr(mod, fname, original)
        self._restore.clear()

    def dump(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
            fh.write("\n")


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans, rounds: int) -> dict[str, float]:
    """Reduce spans to the per-layer metrics, as per-round figures."""
    children = defaultdict(list)
    for sid, _name, t0, t1, parent, _a in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def calls(name, pred=None):
        return [s for s in by_name[name] if pred is None or pred(s[5])]

    def total(ss):
        return sum(s[3] - s[2] for s in ss)

    def self_time(ss):
        out = 0.0
        for sid, _n, t0, t1, _p, _a in ss:
            kids = [(max(a, t0), min(b, t1)) for a, b in children[sid] if b > t0 and a < t1]
            out += (t1 - t0) - _union_length(kids)
        return out

    def per_call(ss, scale):
        return scale * total(ss) / len(ss) if ss else 0.0

    m: dict[str, float] = {}
    r = float(rounds)
    for fname in ("conditional_mutual_information", "conditional_entropy", "is_typical"):
        ss = calls(f"probcore.{fname}")
        m[f"probcore.{fname}.calls"] = len(ss) / r
        m[f"probcore.{fname}.us_per_call"] = per_call(ss, 1e6)
    m["probcore.empirical_cond_entropy.calls"] = len(calls("probcore.empirical_cond_entropy")) / r

    tp = calls("regions.taci_point")
    m["regions.taci_point.calls"] = len(tp) / r
    m["regions.taci_point.us_per_call"] = per_call(tp, 1e6)
    m["regions.taci_point.self_s"] = self_time(tp) / r
    m["regions.taci_frontier.self_s"] = self_time(calls("regions.taci_frontier")) / r
    m["regions.pareto_filter.s"] = total(calls("regions.pareto_filter")) / r
    for cls, unit, scale in (("marginal", "us_per_call", 1e6),
                             ("floor_active", "s_per_call", 1.0),
                             ("support_boundary", "s_per_call", 1.0)):
        ss = calls("regions.solve_coupling", lambda a, c=cls: a["cls"] == c)
        m[f"regions.solve_coupling.{cls}.calls"] = len(ss) / r
        m[f"regions.solve_coupling.{cls}.{unit}"] = per_call(ss, scale)
    m["regions.exponent_e1.us_per_call"] = per_call(calls("regions.exponent_e1"), 1e6)
    m["regions.exponent_e2.us_per_call"] = per_call(calls("regions.exponent_e2"), 1e6)

    for scheme in ("zero_rate", "timeshare", "likelihood"):
        ss = calls("schemes.run_trials", lambda a, s=scheme: a["scheme"] == s)
        trials = sum(s[5]["trials"] for s in ss)
        m[f"schemes.run_trials.{scheme}.us_per_trial"] = 1e6 * total(ss) / trials if trials else 0.0
    for fname in ("likelihood_encode", "min_entropy_decode"):
        ss = calls(f"schemes.{fname}")
        m[f"schemes.{fname}.calls"] = len(ss) / r
        m[f"schemes.{fname}.us_per_call"] = per_call(ss, 1e6)
    m["schemes.build_codebook.ms"] = 1e3 * total(calls("schemes.build_codebook")) / r

    audits = calls("adversary.exact_equivocation") + calls("adversary.exact_causal_distortion")
    for fname, ns in (("exact_equivocation", (3, 4, 5, 6)), ("exact_causal_distortion", (3, 4, 5))):
        for n in ns:
            ss = calls(f"adversary.{fname}", lambda a, n=n: a["n"] == n)
            m[f"adversary.{fname}.n{n}.s"] = total(ss) / r
    m["adversary.likelihood_model.s"] = total(calls("adversary.likelihood_model")) / r
    m["adversary.counterexample_curve.self_s"] = self_time(calls("adversary.counterexample_curve")) / r
    cells = sum(s[5]["cells"] for s in audits) / r
    m["adversary.table_cells"] = cells
    m["adversary.table_bytes_computed"] = 8.0 * cells
    mc = calls("adversary.mc_privacy_estimate")
    samples = sum(s[5]["samples"] for s in mc)
    m["adversary.mc_privacy_estimate.us_per_sample"] = 1e6 * total(mc) / samples if samples else 0.0

    for command in ("frontier", "simulate", "counterexample"):
        ss = calls("cli.main", lambda a, c=command: a["command"] == c)
        m[f"cli.main.{command}.s"] = total(ss) / r
    m["instances.load_instance.ms"] = per_call(calls("instances.load_instance"), 1e3)
    return m
