"""Exact evaluation of coding schemes at finite blocklength.

A :class:`htpriv.schemes.Scheme` is scattered into a dense message law over
every u-block (:class:`SchemeModel`), and any such law can be audited here:
exact block equivocation H(S^n | M, V^n) and the Bayes-optimal
causal-disclosure distortion, both by enumeration in the factored order
(u-block first, then message, then marginalize) so memory stays at
O(|M| |S|^n |V|^n) instead of the full joint.  The exact error
probabilities of a scheme come from the same law and its acceptance test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .probcore import (
    Channel,
    Pmf,
    all_sequences,
    block_index,
    conditional_entropy,
    entropy_of_array,
    inverse_cdf,
)
from .regions import HypothesisPair, bayes_estimator
from .schemes import (
    Codebook,
    MessageLaw,
    Scheme,
    SchemeConfig,
    chunk_rows,
    likelihood_law,
    make_scheme,
    timeshare_law,
    zero_rate_law,
)

__all__ = [
    "SchemeModel",
    "PrivacyReport",
    "CounterexamplePoint",
    "BudgetExceededError",
    "AssumptionViolatedError",
    "all_sequences",
    "law_model",
    "zero_rate_model",
    "quantize_timeshare_model",
    "likelihood_model",
    "constant_model",
    "full_disclosure_model",
    "message_map_model",
    "scheme_model_for",
    "exact_errors",
    "exact_equivocation",
    "exact_causal_distortion",
    "mc_privacy_estimate",
    "counterexample_curve",
]

DEFAULT_BUDGET = 10 ** 8


class BudgetExceededError(RuntimeError):
    """The requested enumeration does not fit the configured cell budget."""


class AssumptionViolatedError(ValueError):
    """An instance violates a standing assumption of the construction."""


@dataclass(frozen=True)
class SchemeModel:
    """Conditional law of the message given the observed block.

    ``law`` has shape (u_size**n, num_messages) with rows summing to 1;
    ``labels`` names each message column (label index 0 need not be special,
    but builders here put the error message first when one exists).
    """

    n: int
    u_size: int
    law: np.ndarray
    labels: tuple

    def __post_init__(self):
        law = np.asarray(self.law, dtype=float)
        if law.shape[0] != self.u_size ** self.n:
            raise ValueError(
                f"law has {law.shape[0]} rows, expected {self.u_size ** self.n}"
            )
        if len(self.labels) != law.shape[1]:
            raise ValueError("one label per message column required")
        rowsum = law.sum(axis=1)
        if np.abs(rowsum - 1.0).max() > 1e-10:
            raise ValueError("message law rows must sum to 1 within 1e-10")
        law.flags.writeable = False
        object.__setattr__(self, "law", law)

    @property
    def num_messages(self) -> int:
        return int(self.law.shape[1])


@dataclass(frozen=True)
class PrivacyReport:
    n: int
    hypothesis: int
    equivocation_per_letter: float            # nats
    causal_distortion_per_letter: float | None
    exact: bool
    equivocation_stderr: float = 0.0
    distortion_stderr: float = 0.0
    biased: bool = False


@dataclass(frozen=True)
class CounterexamplePoint:
    n: int
    alpha_exact: float
    equivocation_per_letter: float            # nats, under the null
    weak_converse_level: float                # H_P(S|U,V), nats
    no_message_level: float                   # H_P(S|V), nats


# ---------------------------------------------------------------------------
# model builders
# ---------------------------------------------------------------------------

def _law_table(law: MessageLaw) -> tuple[SchemeModel, np.ndarray]:
    """Dense law over every u-block, and the message code of each column.

    The error message is column 0; every other code the law lists, even with
    probability 0, gets a column in order of first appearance (block by
    block, pair by pair).
    """
    blocks = all_sequences(law.u_size, law.n)
    parts = [law.pairs(blocks[rows]) for rows in chunk_rows(len(blocks), law.width * law.n)]
    codes = np.concatenate([c for c, _ in parts]).ravel()
    probs = np.concatenate([p for _, p in parts]).ravel()
    uniq, first = np.unique(np.concatenate([[0], codes]), return_index=True)
    order = np.argsort(first)
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    table = np.zeros((blocks.shape[0], order.size))
    np.add.at(table, (np.arange(codes.size) // law.width,
                      column[np.searchsorted(uniq, codes)]), probs)
    col_codes = uniq[order]
    model = SchemeModel(law.n, law.u_size, table, tuple(law.label(c) for c in col_codes))
    return model, col_codes


def law_model(law: MessageLaw) -> SchemeModel:
    """Dense message law of a scheme over every u-block."""
    return _law_table(law)[0]


def zero_rate_model(p_u: Pmf, n: int, delta: float) -> SchemeModel:
    """M = 1(u typical): messages (error, typical)."""
    return law_model(zero_rate_law(p_u, n, delta))


def quantize_timeshare_model(p_u: Pmf, n: int, delta: float,
                             epsilon_star: float) -> SchemeModel:
    """Quantization onto the typical set, time-shared with the error message:
    a typical block is identified exactly with probability 1 - epsilon*."""
    return law_model(timeshare_law(p_u, n, delta, epsilon_star))


def constant_model(u_size: int, n: int) -> SchemeModel:
    """Uninformative message."""
    law = np.ones((u_size ** n, 1))
    return SchemeModel(n, u_size, law, ("const",))


def full_disclosure_model(u_size: int, n: int) -> SchemeModel:
    """M identifies the block exactly."""
    m = u_size ** n
    return SchemeModel(n, u_size, np.eye(m), tuple(("seq", i) for i in range(m)))


def message_map_model(u_size: int, n: int, fn) -> SchemeModel:
    """Deterministic per-block message map; ``fn(seq) -> hashable label``."""
    seqs = all_sequences(u_size, n)
    labels = []
    cols = {}
    col_of = np.empty(seqs.shape[0], dtype=np.int64)
    for i, s in enumerate(seqs):
        lab = fn(tuple(int(x) for x in s))
        if lab not in cols:
            cols[lab] = len(labels)
            labels.append(lab)
        col_of[i] = cols[lab]
    law = np.zeros((seqs.shape[0], len(labels)))
    law[np.arange(seqs.shape[0]), col_of] = 1.0
    return SchemeModel(n, u_size, law, tuple(labels))


def scheme_model_for(config: SchemeConfig, pair: HypothesisPair, n: int,
                     seed: int) -> SchemeModel:
    """Exact message law of a configured scheme, the one the trial runner
    simulates (same codebook seed for the likelihood scheme)."""
    return law_model(make_scheme(config, pair, n, seed).law)


def likelihood_model(cb: Codebook, p_u_given_w: Channel,
                     delta_prime: float) -> SchemeModel:
    """Exact message law induced by the likelihood encoder for a fixed codebook."""
    return law_model(likelihood_law(cb, p_u_given_w, delta_prime))


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------

def _letter_law(pair: HypothesisPair, hypothesis: int) -> np.ndarray:
    """Per-letter joint over (S, U, V-flat)."""
    order = ("S", "U") + pair.v_axes
    arr = pair.law(hypothesis).marginal(order).probs
    ns = arr.shape[0]
    nu = arr.shape[1]
    return arr.reshape(ns, nu, -1)


def _message_block_table(model: SchemeModel, pair: HypothesisPair, hypothesis: int,
                         max_joint_cells: int) -> tuple[np.ndarray, int, int]:
    """Joint mass table P[m, s-block, v-block], shape (|M|, |S|^n, |V|^n).

    The budget bounds the allocated table; the u-block dimension is folded in
    by accumulation and never materialized.
    """
    a = _letter_law(pair, hypothesis)
    ns, nu, nv = a.shape
    n = model.n
    if model.u_size != nu:
        raise ValueError(f"model alphabet {model.u_size} != |U| = {nu}")
    cells = model.num_messages * (ns ** n) * (nv ** n)
    if cells > max_joint_cells:
        raise BudgetExceededError(
            f"{cells:.3g} joint cells exceed the budget {max_joint_cells:.3g}"
        )
    useqs = all_sequences(nu, n)
    out = np.zeros((model.num_messages, (ns ** n) * (nv ** n)))
    for u_idx in range(useqs.shape[0]):
        row = model.law[u_idx]
        nz = np.flatnonzero(row)
        if nz.size == 0:
            continue
        block = reduce(np.kron, (a[:, u, :] for u in useqs[u_idx])).ravel()
        out[nz] += row[nz, None] * block[None, :]
    return out, ns, nv


def exact_equivocation(model: SchemeModel, pair: HypothesisPair, n: int,
                       hypothesis: int,
                       max_joint_cells: int = DEFAULT_BUDGET) -> float:
    """Exact H(S^n | M, V^n) in nats (block total, not per letter)."""
    if n != model.n:
        raise ValueError(f"n={n} but model was built for n={model.n}")
    table, ns, nv = _message_block_table(model, pair, hypothesis, max_joint_cells)
    h_all = entropy_of_array(table)
    mv = table.reshape(table.shape[0], ns ** n, nv ** n).sum(axis=1)
    return h_all - entropy_of_array(mv)


def exact_causal_distortion(model: SchemeModel, pair: HypothesisPair, n: int,
                            hypothesis: int,
                            max_joint_cells: int = DEFAULT_BUDGET) -> float:
    """Exact block minimum of E[sum_i d(S_i, phi_i(M, V^n, S^{i-1}))] over
    deterministic causal estimators; the per-cell minimizer is the Bayes
    action, and estimator i sees past private letters but not S_i itself."""
    if pair.distortion is None:
        raise ValueError("HypothesisPair has no distortion table")
    if n != model.n:
        raise ValueError(f"n={n} but model was built for n={model.n}")
    table, ns, nv = _message_block_table(model, pair, hypothesis, max_joint_cells)
    nm = table.shape[0]
    nvn = nv ** n
    d = pair.distortion
    total = 0.0
    for i in range(1, n + 1):
        # mass over (m, s^{1..i}, v-block); s-block index is MSB-first so the
        # prefix s^{1..i} is the leading digits
        ti = table.reshape(nm, ns ** i, ns ** (n - i), nvn).sum(axis=2)
        groups = ti.reshape(nm, ns ** (i - 1), ns, nvn)
        groups = np.moveaxis(groups, 2, 3).reshape(-1, ns)
        costs = groups @ d
        total += float(costs.min(axis=1).sum())
    return total


def exact_errors(scheme: Scheme, pair: HypothesisPair,
                 max_joint_cells: int = DEFAULT_BUDGET) -> tuple[float, float]:
    """Exact (alpha_n, beta_n) of a scheme, summed over every (u-block,
    message, v-block) triple of its law and acceptance test."""
    law = scheme.law
    n = law.n
    uv = [pair.uv_law(h) for h in (0, 1)]
    nu, nv = uv[0].shape
    if law.u_size != nu:
        raise ValueError(f"scheme alphabet {law.u_size} != |U| = {nu}")
    model, codes = _law_table(law)
    cells = (nu ** n + codes.size) * nv ** n
    if cells > max_joint_cells:
        raise BudgetExceededError(
            f"{cells:.3g} joint cells exceed the budget {max_joint_cells:.3g}"
        )
    vblocks = all_sequences(nv, n)
    nvn = vblocks.shape[0]
    accept = np.zeros((codes.size, nvn))
    for rows in chunk_rows(codes.size, nvn * n):
        part = codes[rows]
        accept[rows] = scheme.accepts(
            np.repeat(part, nvn), np.tile(vblocks, (part.size, 1))).reshape(part.size, nvn)
    accept_given_uv = model.law @ accept                 # (|U|^n, |V|^n)
    alpha = 1.0 - float((reduce(np.kron, [uv[0]] * n) * accept_given_uv).sum())
    beta = float((reduce(np.kron, [uv[1]] * n) * accept_given_uv).sum())
    return alpha, beta


# ---------------------------------------------------------------------------
# Monte Carlo estimates
# ---------------------------------------------------------------------------

def mc_privacy_estimate(model: SchemeModel, pair: HypothesisPair, n: int,
                        hypothesis: int, trials: int, seed: int,
                        max_joint_cells: int = DEFAULT_BUDGET) -> PrivacyReport:
    """Plug-in Monte Carlo estimate of the exact quantities above.

    When the posterior table fits the budget the per-sample posteriors are
    computed exactly and the estimates are unbiased; otherwise posteriors are
    approximated by self-normalized importance sampling over u-blocks and the
    report is flagged as biased.  Estimates, never certified bounds.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(hypothesis,)))
    a = _letter_law(pair, hypothesis)
    ns, nu, nv = a.shape
    flat = a.ravel()
    draws = rng.choice(flat.size, size=(trials, n), p=flat)
    s_seq = draws // (nu * nv)
    u_seq = (draws // nv) % nu
    v_seq = draws % nv
    u_idx = block_index(u_seq, nu)
    v_idx = block_index(v_seq, nv)
    s_idx = block_index(s_seq, ns)
    msgs = inverse_cdf(model.law[u_idx], rng.random(trials))

    cells = model.num_messages * (ns ** n) * (nv ** n)
    biased = cells > max_joint_cells
    if not biased:
        table, _, _ = _message_block_table(model, pair, hypothesis, max_joint_cells)
        tbl = table.reshape(model.num_messages, ns ** n, nv ** n)
        p_mv = tbl.sum(axis=1)
        post = tbl[msgs, s_idx, v_idx] / p_mv[msgs, v_idx]
        eq_samples = -np.log(post)
        dist_samples = None
        if pair.distortion is not None:
            dist_samples = np.zeros(trials)
            d = pair.distortion
            for i in range(1, n + 1):
                ti = tbl.reshape(model.num_messages, ns ** i, ns ** (n - i), nv ** n).sum(axis=2)
                prefix = s_idx // (ns ** (n - i + 1))
                cur = (s_idx // (ns ** (n - i))) % ns
                cond = ti.reshape(model.num_messages, ns ** (i - 1), ns, nv ** n)
                for k in range(trials):
                    posterior = cond[msgs[k], prefix[k], :, v_idx[k]]
                    tot = posterior.sum()
                    if tot <= 0:
                        continue
                    shat, _ = bayes_estimator(posterior / tot, d)
                    dist_samples[k] += d[cur[k], shat]
    else:
        # importance-sample u-blocks from the letterwise prior
        k_is = 512
        p_u_letter = a.sum(axis=(0, 2)) / a.sum()
        eq_samples = np.zeros(trials)
        dist_samples = None  # biased mode reports equivocation only
        for k in range(trials):
            us = rng.choice(nu, size=(k_is, n), p=p_u_letter)
            w = np.ones(k_is)
            for i in range(n):
                w *= a[s_seq[k, i], us[:, i], v_seq[k, i]] / p_u_letter[us[:, i]]
            uids = block_index(us, nu)
            w_m = w * model.law[uids, msgs[k]]
            num = w_m.sum()
            # denominator: P(m, v^n) estimate via prior over (s, u)
            w2 = np.ones(k_is)
            for i in range(n):
                w2 *= a[:, us[:, i], v_seq[k, i]].sum(axis=0) / p_u_letter[us[:, i]]
            den = (w2 * model.law[uids, msgs[k]]).sum()
            eq_samples[k] = -math.log(max(num / max(den, 1e-300), 1e-300))

    eq_mean = float(eq_samples.mean()) / n
    eq_se = float(eq_samples.std(ddof=1) / math.sqrt(trials)) / n if trials > 1 else 0.0
    dist_mean = None
    dist_se = 0.0
    if dist_samples is not None:
        dist_mean = float(dist_samples.mean()) / n
        dist_se = float(dist_samples.std(ddof=1) / math.sqrt(trials)) / n if trials > 1 else 0.0
    return PrivacyReport(
        n=n, hypothesis=hypothesis,
        equivocation_per_letter=eq_mean,
        causal_distortion_per_letter=dist_mean,
        exact=False,
        equivocation_stderr=eq_se,
        distortion_stderr=dist_se,
        biased=biased,
    )


# ---------------------------------------------------------------------------
# strong-converse counterexample
# ---------------------------------------------------------------------------

def counterexample_curve(pair: HypothesisPair, epsilon_star: float,
                         n_list, delta: float = 0.1,
                         max_joint_cells: int = DEFAULT_BUDGET) -> list[CounterexamplePoint]:
    """Exact evaluation of the time-shared quantization scheme.

    Requires an instance with H_P(S|U,V) < H_P(S|V): the message must actually
    reveal something about the private letters for time sharing to buy
    equivocation.  For each n, reports the exact type I error and the exact
    per-letter equivocation under the null.
    """
    v_axes = pair.v_axes
    h_suv = conditional_entropy(pair.p, "S", ("U",) + v_axes)
    h_sv = conditional_entropy(pair.p, "S", v_axes)
    if h_suv >= h_sv - 1e-12:
        raise AssumptionViolatedError(
            f"need H_P(S|U,V) < H_P(S|V); got {h_suv} >= {h_sv} - 1e-12"
        )
    config = SchemeConfig("timeshare", delta=delta, epsilon_star=epsilon_star)
    out = []
    for n in n_list:
        scheme = make_scheme(config, pair, n, seed=0)
        alpha, _ = exact_errors(scheme, pair, max_joint_cells)
        model = law_model(scheme.law)
        eq = exact_equivocation(model, pair, n, 0, max_joint_cells) / n
        out.append(CounterexamplePoint(
            n=n, alpha_exact=alpha, equivocation_per_letter=eq,
            weak_converse_level=h_suv, no_message_level=h_sv,
        ))
    return out
