"""Experiment driver.

Usage:
    htpriv run --experiment NAME [--instance FILE] --out FILE [--seed N]
               [--param key=value ...]
    htpriv validate --instance FILE

Experiments: example1, example2, frontier, zero_rate, simulate,
counterexample.  Output is a CSV (UTF-8, LF line endings) whose first line is
a versioned schema comment; the data is byte-identical for identical
(config, seed).  Exit status 0 on success, 1 on runtime failure (with a
single machine-parsable JSON error line on stderr and no partial CSV left
behind), 2 on usage errors.  Degenerate regimes, such as a simulated scheme
whose typical set is empty or a privacy estimate that fell back to the biased
importance-sampling branch, print one JSON warning line on stderr each.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import adversary, instances, regions, schemes
from .probcore import (
    JointPmf,
    LN2,
    Pmf,
    conditional_entropy,
    has_typical_sequence,
    nats_to_bits,
    pmf_close,
)

EXPERIMENTS = ("example1", "example2", "frontier", "zero_rate", "simulate",
               "counterexample")

_FLOAT_FMT = "{:.12g}"


class ExperimentError(RuntimeError):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return _FLOAT_FMT.format(x)
    return str(x)


def _write_csv(path: str, schema: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# htpriv-csv schema={schema} v1\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _parse_params(items) -> dict:
    out = {}
    for item in items or ():
        if "=" not in item:
            raise ExperimentError(f"--param needs key=value, got {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _run_example1(args, params):
    p_list = _floats(params.get("p", "0.15,0.25,0.35"))
    q_list = _floats(params.get("q", "0,0.1"))
    r_step = float(params.get("r_step", "0.01"))
    rows = []
    for p in p_list:
        for q in q_list:
            r = 0.0
            while r <= 0.5 + 1e-12:
                rr = min(r, 0.5)
                rate, kappa, lam0 = regions.example1_closed_form(p, q, rr)
                rows.append((p, q, rr, rate, kappa, lam0))
                r += r_step
    header = ["p", "q", "r", "rate_bits", "exponent_bits", "equivocation_bits"]
    _write_csv(args.out, "example1", header, rows)


def _run_example2(args, params):
    n_max = int(params.get("n_max", "4"))
    pair = instances.example2_pair()
    joint = instances.example2_taci_joint()
    parity = regions.Channel(np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float))
    tp = regions.taci_point(joint, parity)
    q_joint = regions.attach_channel(pair.q, parity)
    lam1 = conditional_entropy(q_joint, "S", ("W", "Y"))
    rows = [("tuple", 0, nats_to_bits(tp.rate_needed), nats_to_bits(tp.exponent),
             nats_to_bits(tp.equivocation0), nats_to_bits(lam1))]
    for n in range(1, n_max + 1):
        model = adversary.message_map_model(4, n, lambda s: tuple(x % 2 for x in s))
        for hyp in (0, 1):
            eq = adversary.exact_equivocation(model, pair, n, hyp) / n
            rows.append((f"equivocation_n{n}", hyp, "", "", nats_to_bits(eq), ""))
    header = ["record", "hypothesis", "rate_bits", "exponent_bits",
              "equivocation0_bits", "equivocation1_bits"]
    _write_csv(args.out, "example2", header, rows)


def _require_instance(args):
    if not args.instance:
        raise ExperimentError(f"experiment {args.experiment!r} needs --instance")
    if not os.path.exists(args.instance):
        raise ExperimentError(f"instance file not found: {args.instance}")
    return instances.load_instance(args.instance)


def _run_frontier(args, params):
    pair = _require_instance(args)
    names = pair.p.names
    if "Y" not in names or "Z" not in names:
        raise ExperimentError(
            'frontier expects a conditional-independence instance with axes ("S","U","Y","Z")'
        )
    cfg = regions.FrontierConfig(
        random_seeds=int(params.get("random_seeds", "200")),
        structured_seeds=int(params.get("structured_seeds", "201")),
        rng_seed=args.seed,
        w_sizes=tuple(_ints(params["w_sizes"])) if "w_sizes" in params else None,
    )
    q_cond = instances.conditional_s_given_rest(pair.q)
    points = regions.taci_frontier(pair.p, q_cond, cfg)
    rows = [
        (nats_to_bits(pt.rate), nats_to_bits(pt.exponent), nats_to_bits(pt.privacy0),
         nats_to_bits(pt.privacy1), pt.channel_id)
        for pt in points
    ]
    header = ["rate_bits", "exponent_bits", "privacy0", "privacy1", "channel_id"]
    _write_csv(args.out, "frontier", header, rows)


def _run_zero_rate(args, params):
    pair = _require_instance(args)
    q_uv = pair.uv_law(1)
    flat_q = JointPmf((("U", q_uv.shape[0]), ("V", q_uv.shape[1])), q_uv)
    p_v = Pmf(pair.uv_law(0).sum(axis=0))
    exponent = regions.zero_rate_exponent(pair.p.marginal_pmf("U"), p_v, flat_q)
    priv = regions.zero_rate_privacy(pair)
    rows = [(
        nats_to_bits(exponent),
        priv.delta0_max if priv.delta0_max is not None else "",
        priv.delta1_max if priv.delta1_max is not None else "",
        nats_to_bits(priv.lambda0_max),
        nats_to_bits(priv.lambda1_max),
    )]
    header = ["exponent_bits", "delta0_max", "delta1_max", "lambda0_bits", "lambda1_bits"]
    _write_csv(args.out, "zero_rate", header, rows)


def _run_simulate(args, params):
    pair = _require_instance(args)
    scheme = params.get("scheme", "zero_rate")
    n = int(params.get("n", "4"))
    trials = int(params.get("trials", "10000"))
    privacy = params.get("privacy", "none")
    if privacy not in ("none", "exact", "mc"):
        raise ExperimentError(f"privacy must be none, exact or mc, got {privacy!r}")
    cfg = schemes.SchemeConfig(
        scheme=scheme,
        delta=float(params.get("delta", str(schemes.DELTA_DEFAULT))),
        eta=float(params.get("eta", str(schemes.ETA_DEFAULT))),
        rate_nats=float(params.get("rate_nats", "1.0")),
        epsilon_star=float(params.get("epsilon_star", "0.0")),
    )
    # the likelihood encoder tests u-typicality at delta' = delta/2
    typ_delta = cfg.delta_prime if scheme == "likelihood" else cfg.delta
    if not has_typical_sequence(pair.p.marginal_pmf("U").probs, n, typ_delta):
        print(json.dumps({"warning": "empty_typical_set", "n": n, "delta": typ_delta}),
              file=sys.stderr)
    stats = schemes.run_trials(cfg, pair, n, trials, args.seed)
    rows = [(
        "trials", scheme, n, trials, args.seed, stats.type1_errors,
        stats.type2_errors,
        stats.alpha_hat, stats.alpha_interval[0], stats.alpha_interval[1],
        stats.beta_hat, stats.beta_interval[0], stats.beta_interval[1],
        "", "", "", "",
    )]
    if privacy != "none":
        model = adversary.scheme_model_for(cfg, pair, n, args.seed)
        for hyp in (0, 1):
            if privacy == "exact":
                eq = adversary.exact_equivocation(model, pair, n, hyp) / n
                dist = ""
                if pair.distortion is not None:
                    dist = adversary.exact_causal_distortion(model, pair, n, hyp) / n
                row_tail = (hyp, nats_to_bits(eq), dist, True)
            else:
                mc_trials = int(params.get("privacy_trials", "2000"))
                rep = adversary.mc_privacy_estimate(model, pair, n, hyp,
                                                    mc_trials, args.seed)
                if rep.biased:
                    print(json.dumps({"warning": "biased_privacy_estimate", "n": n,
                                      "hypothesis": hyp}), file=sys.stderr)
                dist = rep.causal_distortion_per_letter
                row_tail = (hyp, nats_to_bits(rep.equivocation_per_letter),
                            dist if dist is not None else "", False)
            rows.append(("privacy", scheme, n, "", args.seed, "", "", "", "",
                         "", "", "", "") + row_tail)
    header = ["record", "scheme", "n", "trials", "seed", "type1_errors",
              "type2_errors", "alpha_hat", "alpha_lo", "alpha_hi", "beta_hat",
              "beta_lo", "beta_hi", "hypothesis",
              "equivocation_bits_per_letter", "distortion_per_letter", "exact"]
    _write_csv(args.out, "simulate", header, rows)


def _run_counterexample(args, params):
    pair = _require_instance(args)
    eps = float(params.get("epsilon_star", "0.25"))
    n_list = _ints(params.get("n_list", "2,4,6"))
    delta = float(params.get("delta", "0.1"))
    points = adversary.counterexample_curve(pair, eps, n_list, delta=delta)
    rows = [
        (pt.n, pt.alpha_exact, nats_to_bits(pt.equivocation_per_letter),
         nats_to_bits(pt.weak_converse_level), nats_to_bits(pt.no_message_level))
        for pt in points
    ]
    header = ["n", "alpha_exact", "equivocation_bits_per_letter",
              "weak_converse_bits", "no_message_bits"]
    _write_csv(args.out, "counterexample", header, rows)


_RUNNERS = {
    "example1": _run_example1,
    "example2": _run_example2,
    "frontier": _run_frontier,
    "zero_rate": _run_zero_rate,
    "simulate": _run_simulate,
    "counterexample": _run_counterexample,
}


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_instance(path: str) -> dict:
    """Diagnostics for an instance file; raises on parse errors with context."""
    try:
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
    except json.JSONDecodeError as e:
        raise ExperimentError(
            f"parse error in {path} at line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    diags: dict = {"path": path}
    raw = {}
    for key in ("p_suv", "q_suv"):
        if key not in rec:
            raise ExperimentError(f"{path}: missing field {key!r}")
        entry = rec[key]
        for sub in ("axes", "probs"):
            if sub not in entry:
                raise ExperimentError(f"{path}: field {key!r} missing {sub!r}")
        arr = np.asarray(entry["probs"], dtype=float)
        diags[f"{key}_mass_residual"] = abs(float(arr.sum()) - 1.0)
        diags[f"{key}_min_entry"] = float(arr.min()) if arr.size else float("nan")
        shape = tuple(int(a["size"]) for a in entry["axes"])
        if int(np.prod(shape)) != arr.size:
            raise ExperimentError(
                f"{path}: {key} has {arr.size} probs but axes imply {int(np.prod(shape))}"
            )
        raw[key] = arr.reshape(shape)
    diags["normalized"] = (
        diags["p_suv_mass_residual"] <= 1e-12 and diags["q_suv_mass_residual"] <= 1e-12
        and diags["p_suv_min_entry"] >= -1e-15 and diags["q_suv_min_entry"] >= -1e-15
    )
    p_arr, q_arr = raw["p_suv"], raw["q_suv"]
    if p_arr.shape == q_arr.shape:
        diags["p_abs_cont_q"] = bool(np.all(q_arr[p_arr > 0] > 0) if (p_arr > 0).any() else True)
        diags["q_abs_cont_p"] = bool(np.all(p_arr[q_arr > 0] > 0) if (q_arr > 0).any() else True)
    if diags["normalized"]:
        pair = instances.load_instance(path)
        diags["u_marginals_equal"] = pmf_close(
            pair.p.marginal_pmf("U"), pair.q.marginal_pmf("U")
        )
        v_axes = pair.v_axes
        h_suv = conditional_entropy(pair.p, "S", ("U",) + v_axes)
        h_sv = conditional_entropy(pair.p, "S", v_axes)
        diags["h_p_s_given_uv_bits"] = h_suv / LN2
        diags["h_p_s_given_v_bits"] = h_sv / LN2
        diags["counterexample_assumption"] = bool(h_suv < h_sv - 1e-12)
    return diags


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="htpriv", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a named experiment and write a CSV")
    run.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    run.add_argument("--instance", default=None)
    run.add_argument("--out", required=True)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--param", action="append", default=[],
                     metavar="KEY=VALUE", help="experiment parameter (repeatable)")
    val = sub.add_parser("validate", help="check an instance file and print diagnostics")
    val.add_argument("--instance", required=True)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        try:
            diags = validate_instance(args.instance)
        except (ExperimentError, OSError, ValueError) as e:
            print(json.dumps({"error": type(e).__name__, "message": str(e)}),
                  file=sys.stderr)
            return 1
        for key, value in diags.items():
            print(f"{key}={value}")
        return 0

    params = None
    try:
        params = _parse_params(args.param)
        _RUNNERS[args.experiment](args, params)
    except Exception as e:  # noqa: BLE001 - single reporting point for the CLI
        if os.path.exists(args.out):
            try:
                os.remove(args.out)
            except OSError:
                pass
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
