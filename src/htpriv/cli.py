"""Experiment driver.

Usage:
    htpriv run --experiment NAME [--instance FILE] --out FILE [--seed N]
               [--param key=value ...]
    htpriv validate --instance FILE

Experiments: example1, example2, frontier, zero_rate, simulate,
counterexample.  Output is a CSV (UTF-8, LF line endings) whose first line is
a versioned schema comment; the data is byte-identical for identical
(config, seed).  Each ``--param`` value is parsed once, by its key's parser in
``PARAM_KEYS``; ``instances.read_record`` alone reads the instance file.
Exit status 0 on success, 2 on usage errors, 1 on runtime failure with a
single machine-parsable JSON error line on stderr.  That includes an unknown
key, a value its parser rejects (such as an empty list), a malformed instance
file, and ``--instance`` missing or given to an experiment that reads none;
the error names the key, file or field.  A failed run leaves the file at
``--out`` as it was: the CSV is written to a temp file beside it and moved
into place only when complete.  Degenerate regimes print one strict JSON
warning line on stderr each: a typicality box (``Scheme.boxes``) that holds
no block at some n, a typicality detector whose boxes all hold the alternate
law, or a likelihood codebook left unbinned by a high rate, each read off the
scheme that a ``simulate`` or ``counterexample`` result carries (built once,
in ``run_trials`` or ``counterexample_curve``); a privacy estimate that fell
back to the biased importance-sampling branch; or a zero-rate exponent that
is +inf only because the coupling solver ran out of sweeps.
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
    _typical_freqs,
    Channel,
    JointPmf,
    LN2,
    Pmf,
    cond_entropy_of_array,
    has_typical_sequence,
    nats_to_bits,
    pmf_close,
)


def _positive(parse):
    """``parse``, then reject a value that is not a finite number above 0."""
    def positive(text):
        x = parse(text)
        if not (math.isfinite(x) and x > 0):
            raise ValueError("must be a finite number above 0")
        return x
    return positive


def _list(parse):
    """A parser of comma-separated ``parse`` items; an empty list or an empty
    item is an error, not a silent empty run."""
    def items(text):
        parts = [t.strip() for t in text.split(",")]
        if not all(parts):
            raise ValueError("a comma-separated list may have no empty item")
        return tuple(parse(t) for t in parts)
    return items


def _privacy(text):
    if text not in ("none", "exact", "mc"):
        raise ValueError("must be none, exact or mc")
    return text


# the --param keys each experiment reads and the parser of each; any other key
# is an error.  The frontier keys, and the simulate keys but n, trials, privacy
# and privacy_trials, are config fields that keep the library default when not
# given.  w_channel is written row by row: rows split by ";", entries by ",".
PARAM_KEYS = {
    "example1": {"p": _list(float), "q": _list(float), "r_step": _positive(float)},
    "example2": {"n_max": _positive(int)},
    "frontier": {"random_seeds": int, "w_sizes": _list(int)},
    "zero_rate": {},
    "simulate": {"scheme": str, "n": _positive(int), "trials": _positive(int),
                 "privacy": _privacy, "delta": float, "eta": float, "rate_nats": float,
                 "epsilon_star": float, "privacy_trials": _positive(int),
                 "w_channel": lambda text: Channel([_list(float)(r) for r in text.split(";")])},
    "counterexample": {"epsilon_star": float, "n_list": _list(_positive(int)), "delta": float},
}
EXPERIMENTS = tuple(PARAM_KEYS)
# the SchemeConfig keys each simulated scheme reads; any other is an error
SCHEME_KEYS = {
    "likelihood": {"scheme", "delta", "eta", "rate_nats", "w_channel"},
    "zero_rate": {"scheme", "delta"},
    "timeshare": {"scheme", "delta", "epsilon_star"},
}

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
    """Write the CSV to a sibling temp file and move it onto ``path``; a
    failure removes the temp file only, so ``path`` is never left partial."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(f"# htpriv-csv schema={schema} v1\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(x) for x in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _parse_params(experiment: str, items) -> dict:
    """Each given ``key=value`` parsed once by its key's parser; a value the
    parser rejects is an ExperimentError naming the key and the value."""
    parsers = PARAM_KEYS[experiment]
    out = {}
    for item in items:
        key, eq, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if not eq:
            raise ExperimentError(f"--param needs key=value, got {item!r}")
        if key not in parsers:
            raise ExperimentError(f"experiment {experiment!r} takes no parameter {key!r}; "
                                  f"it accepts {list(parsers)}")
        try:
            out[key] = parsers[key](value)
        except ValueError as e:
            raise ExperimentError(f"parameter {key!r} cannot be {value!r}: {e}") from e
    return out


# ---------------------------------------------------------------------------
# experiments: each takes (instance pair or None, parsed params, seed) and
# returns (header, rows)
# ---------------------------------------------------------------------------

def _run_example1(pair, params, seed):
    rows = []
    r_step = params.get("r_step", 0.01)
    for p in params.get("p", (0.15, 0.25, 0.35)):
        for q in params.get("q", (0.0, 0.1)):
            r = 0.0
            while r <= 0.5 + 1e-12:
                rr = min(r, 0.5)
                rate, kappa, lam0 = regions.example1_closed_form(p, q, rr)
                rows.append((p, q, rr, rate, kappa, lam0))
                r += r_step
    return ["p", "q", "r", "rate_bits", "exponent_bits", "equivocation_bits"], rows


def _run_example2(pair, params, seed):
    pair = instances.example2_pair()
    joint = instances.example2_taci_joint()
    parity = regions.Channel(np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float))
    tp = regions.taci_point(joint, parity)
    # H(S|W,Y) of the alternate law's (S, U, Y, W) array
    lam1 = cond_entropy_of_array(parity.attach(pair.suv[1], 1), (0,), (2, 3))
    rows = [("tuple", 0, nats_to_bits(tp.rate_needed), nats_to_bits(tp.exponent),
             nats_to_bits(tp.equivocation0), nats_to_bits(lam1))]
    for n in range(1, params.get("n_max", 4) + 1):
        model = adversary.message_map_model(4, n, lambda s: tuple(x % 2 for x in s))
        for hyp in (0, 1):
            eq = adversary.exact_equivocation(model, pair, n, hyp) / n
            rows.append((f"equivocation_n{n}", hyp, "", "", nats_to_bits(eq), ""))
    return ["record", "hypothesis", "rate_bits", "exponent_bits",
            "equivocation0_bits", "equivocation1_bits"], rows


def _warn(kind: str, **fields) -> None:
    """One JSON warning line on stderr; a non-finite field raises ValueError
    rather than print a NaN or Infinity that no strict JSON parser reads."""
    print(json.dumps({"warning": kind, **fields}, allow_nan=False), file=sys.stderr)


def _warn_typicality(built, pair, name: str, delta: float) -> None:
    """Read the typicality boxes each built scheme declares: warn once for each
    box that holds no block of the scheme's length n, and once when every box
    of a typicality detector (a scheme with no codebook) holds the alternate
    law's marginal, so that Q-typical blocks pass and beta_n does not decay."""
    for scheme in built:
        for axes, centre, radius in scheme.boxes:
            if not has_typical_sequence(centre, scheme.law.n, radius):
                _warn("empty_typical_set", n=scheme.law.n, delta=radius, box=axes)
    q_uv = pair.uv_law(1)
    q = {"u": q_uv.sum(axis=1), "v": q_uv.sum(axis=0), "uv": q_uv.ravel()}
    if any(scheme.codebook is None and all(_typical_freqs(q[axes], centre, radius)
                                           for axes, centre, radius in scheme.boxes)
           for scheme in built):
        _warn("vacuous_test", scheme=name, delta=delta)


def _run_frontier(pair, params, seed):
    if set(pair.p.names) != {"S", "U", "Y", "Z"}:
        raise ExperimentError('frontier expects a conditional-independence instance '
                              'with axes ("S","U","Y","Z")')
    # the search rebuilds Q from Q_{S|UYZ} and the null law's marginals; both
    # are read in the (S, U, Y, Z) layout, whatever the declared axis order
    q_suyz = pair.q.marginal(("S", "U", "Y", "Z"))
    q_cond = instances.conditional_s_given_rest(q_suyz)
    q_taci = regions.taci_alternate_law(pair.p, q_cond).probs
    if not pmf_close(q_taci, q_suyz.probs):
        raise ExperimentError("frontier needs Q = Q_{S|UYZ} P_{U|Z} P_{Y|Z} P_Z; the instance's Q "
                              f"deviates by {np.abs(q_taci - q_suyz.probs).max():.3g} in one cell")
    points = regions.taci_frontier(pair.p, q_cond, regions.FrontierConfig(rng_seed=seed, **params))
    rows = [
        (nats_to_bits(pt.rate), nats_to_bits(pt.exponent), nats_to_bits(pt.privacy0),
         nats_to_bits(pt.privacy1), pt.channel_id)
        for pt in points
    ]
    return ["rate_bits", "exponent_bits", "privacy0", "privacy1", "channel_id"], rows


def _run_zero_rate(pair, params, seed):
    q_uv = pair.uv_law(1)
    flat_q = JointPmf((("U", q_uv.shape[0]), ("V", q_uv.shape[1])), q_uv)
    p_uv = pair.uv_law(0)
    sol = regions.zero_rate_exponent_solution(Pmf(p_uv.sum(axis=1)), Pmf(p_uv.sum(axis=0)),
                                              flat_q)
    exponent = sol.objective
    if math.isinf(exponent) and sol.stop == "sweep_cap":
        _warn("unproven_infinity", residual=sol.residual)
    priv = regions.zero_rate_privacy(pair)
    rows = [(
        nats_to_bits(exponent),
        priv.delta0_max if priv.delta0_max is not None else "",
        priv.delta1_max if priv.delta1_max is not None else "",
        nats_to_bits(priv.lambda0_max),
        nats_to_bits(priv.lambda1_max),
    )]
    return ["exponent_bits", "delta0_max", "delta1_max", "lambda0_bits", "lambda1_bits"], rows


def _run_simulate(pair, params, seed):
    n, trials = params.pop("n", 4), params.pop("trials", 10000)
    privacy, mc_trials = params.pop("privacy", "none"), params.pop("privacy_trials", 2000)
    # a key of another scheme is named before SchemeConfig checks its value;
    # an unknown scheme is SchemeConfig's error
    scheme = params.setdefault("scheme", "zero_rate")
    extra = sorted(params.keys() - SCHEME_KEYS[scheme]) if scheme in SCHEME_KEYS else []
    if extra:
        raise ExperimentError(f"scheme {scheme!r} takes no parameter {extra[0]!r}; "
                              f"it accepts {sorted(SCHEME_KEYS[scheme])}")
    cfg = schemes.SchemeConfig(**params)
    if cfg.w_channel is not None and cfg.w_channel.input_size != pair.u_size():
        raise ExperimentError(f"w_channel needs {pair.u_size()} rows, one per letter of U; "
                              f"got {cfg.w_channel.input_size} rows")
    stats = schemes.run_trials(cfg, pair, n, trials, seed)
    built = stats.scheme
    _warn_typicality([built], pair, scheme, cfg.delta)
    # with identity binning the message names the codeword: no bin is decoded
    if built.codebook is not None and built.codebook.identity_binning:
        _warn("inactive_binning", n=n, codewords=built.codebook.size, rate_nats=cfg.rate_nats)
    rows = [(
        "trials", scheme, n, trials, seed, stats.type1_errors,
        stats.type2_errors,
        stats.alpha_hat, stats.alpha_interval[0], stats.alpha_interval[1],
        stats.beta_hat, stats.beta_interval[0], stats.beta_interval[1],
        "", "", "", "",
    )]
    if privacy != "none":
        model = adversary.law_model(built.law)
        for hyp in (0, 1):
            if privacy == "exact":
                eq = adversary.exact_equivocation(model, pair, n, hyp) / n
                dist = ""
                if pair.distortion is not None:
                    dist = adversary.exact_causal_distortion(model, pair, n, hyp) / n
                row_tail = (hyp, nats_to_bits(eq), dist, True)
            else:
                rep = adversary.mc_privacy_estimate(model, pair, n, hyp, mc_trials, seed)
                if rep.biased:
                    _warn("biased_privacy_estimate", n=n, hypothesis=hyp)
                dist = rep.causal_distortion_per_letter
                row_tail = (hyp, nats_to_bits(rep.equivocation_per_letter),
                            dist if dist is not None else "", False)
            rows.append(("privacy", scheme, n, "", seed, "", "", "", "",
                         "", "", "", "") + row_tail)
    return ["record", "scheme", "n", "trials", "seed", "type1_errors",
            "type2_errors", "alpha_hat", "alpha_lo", "alpha_hi", "beta_hat",
            "beta_lo", "beta_hi", "hypothesis",
            "equivocation_bits_per_letter", "distortion_per_letter", "exact"], rows


def _run_counterexample(pair, params, seed):
    eps, delta = params.get("epsilon_star", 0.25), params.get("delta", 0.1)
    n_list = params.get("n_list", (2, 4, 6))
    points = adversary.counterexample_curve(pair, eps, n_list, delta=delta)
    _warn_typicality([pt.scheme for pt in points], pair, "timeshare", delta)
    rows = [
        (pt.n, pt.alpha_exact, nats_to_bits(pt.equivocation_per_letter),
         nats_to_bits(pt.weak_converse_level), nats_to_bits(pt.no_message_level))
        for pt in points
    ]
    return ["n", "alpha_exact", "equivocation_bits_per_letter",
            "weak_converse_bits", "no_message_bits"], rows


# experiment -> (runner, whether it reads --instance)
_RUNNERS = {
    "example1": (_run_example1, False),
    "example2": (_run_example2, False),
    "frontier": (_run_frontier, True),
    "zero_rate": (_run_zero_rate, True),
    "simulate": (_run_simulate, True),
    "counterexample": (_run_counterexample, True),
}


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_instance(path: str) -> dict:
    """Diagnostics for an instance file.  A file that ``instances.read_record``
    rejects raises ExperimentError naming the file and the field; the file is
    ``normalized`` when both laws pass the JointPmf check that ``run`` applies,
    and a normalized file is then loaded as ``run`` loads it, so a pair that
    ``run`` rejects raises the same ValueError, naming the file."""
    try:
        rec = instances.read_record(path)
    except ValueError as e:
        raise ExperimentError(str(e)) from e
    diags: dict = {"path": path}
    laws = []
    for key in instances.LAWS:
        arr = rec[key]["probs"]
        diags[f"{key}_mass_residual"] = abs(float(arr.sum()) - 1.0)
        diags[f"{key}_min_entry"] = float(arr.min()) if arr.size else float("nan")
        try:
            laws.append(JointPmf(rec[key]["axes"], arr))
        except ValueError:
            pass
    diags["normalized"] = len(laws) == 2
    p_arr, q_arr = (rec[key]["probs"] for key in instances.LAWS)
    if p_arr.shape == q_arr.shape:
        diags["p_abs_cont_q"] = bool(np.all(q_arr[p_arr > 0] > 0))
        diags["q_abs_cont_p"] = bool(np.all(p_arr[q_arr > 0] > 0))
    if diags["normalized"]:
        pair = instances.load_instance(path)
        diags["u_marginals_equal"] = pair.same_u_marginals()
        h_suv, h_sv, holds = adversary.counterexample_levels(pair)
        diags["h_p_s_given_uv_bits"] = h_suv / LN2
        diags["h_p_s_given_v_bits"] = h_sv / LN2
        diags["counterexample_assumption"] = holds
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

    try:
        params = _parse_params(args.experiment, args.param)
        runner, reads_instance = _RUNNERS[args.experiment]
        if bool(args.instance) != reads_instance:
            raise ExperimentError(f"experiment {args.experiment!r} " + (
                "needs --instance" if reads_instance else "reads no --instance"))
        pair = instances.load_instance(args.instance) if reads_instance else None
        header, rows = runner(pair, params, args.seed)
        _write_csv(args.out, args.experiment, header, rows)
    except Exception as e:  # noqa: BLE001 - single reporting point for the CLI
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
