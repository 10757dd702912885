"""Exact evaluation of coding schemes at finite blocklength.

A :class:`htpriv.schemes.Scheme` is scattered, one chunk of u-blocks at a
time, into a dense message law over every u-block (:class:`SchemeModel`), and
any such law can be audited here.
Each exact quantity is read off the block table P[m, s-block, v-block], made
by contracting the law with the per-letter law one u-letter at a time, last
letter first, with the (s_i, v_i) pairs kept interleaved until the last
three sums, which write the table in its s-block, v-block order: block
equivocation H(S^n | M, V^n), Bayes-optimal causal-disclosure distortion
(one ``probcore.bayes_decision`` per letter, whose Bayes actions the Monte
Carlo estimate looks up) and, with the (U, V) letter law, a scheme's exact
error probabilities under its acceptance test.  At n = 1 the audits equal
the single-letter privacy levels of ``regions``.
Every audit, the error probabilities included, streams the table one chunk
of message columns at a time (at most ``schemes.CHUNK_CELLS`` cells per
step), after checking that the whole table fits the one budget
``MAX_JOINT_CELLS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .probcore import (
    Pmf,
    all_sequences,
    bayes_decision,
    block_digits,
    block_index,
    choice_cdf,
    choice_draws,
    cond_entropy_of_array,
    entropy_of_array,
    inverse_cdf,
)
from .regions import HypothesisPair
from .schemes import (
    Codebook,
    MessageLaw,
    Scheme,
    SchemeConfig,
    chunk_rows,
    likelihood_law,
    make_scheme,
    timeshare_law,
)

__all__ = [
    "SchemeModel",
    "PrivacyReport",
    "CounterexamplePoint",
    "BudgetExceededError",
    "AssumptionViolatedError",
    "law_model",
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
    "counterexample_levels",
    "counterexample_curve",
]

# cells of the whole block table |M| |S|^n |V|^n an exact audit may stream
MAX_JOINT_CELLS = 10 ** 8


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
    equivocation_stderr: float = 0.0
    distortion_stderr: float = 0.0
    biased: bool = False


@dataclass(frozen=True)
class CounterexamplePoint:
    n: int
    alpha_exact: float
    beta_exact: float
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
    block, pair by pair).  The u-blocks are streamed one chunk at a time:
    each chunk's new codes get their columns, and only its distinct (block,
    column) cells are kept until the table is written.
    ``BudgetExceededError`` is raised at the first chunk whose codes make the
    table exceed ``MAX_JOINT_CELLS`` cells.
    """
    rows, column, cells = law.u_size ** law.n, {0: 0}, []
    for chunk in chunk_rows(rows, law.width * law.n):
        blocks = np.arange(chunk.start, min(chunk.stop, rows))
        codes, probs = law.pairs(block_digits(blocks, law.u_size, law.n))
        uniq, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        for code in uniq[np.argsort(first)].tolist():
            column.setdefault(code, len(column))
        if rows * len(column) > MAX_JOINT_CELLS:
            raise BudgetExceededError(f"{rows} u-blocks x {len(column)} messages exceed the "
                                      f"budget {MAX_JOINT_CELLS:.3g}")
        # each (block, code) cell summed in pair order, as one scatter of all pairs would
        key = np.arange(codes.size) // law.width * uniq.size + inverse.ravel()
        cell, slot = np.unique(key, return_inverse=True)
        col = np.array([column[code] for code in uniq.tolist()])
        cells.append((blocks[cell // uniq.size], col[cell % uniq.size],
                      np.bincount(slot, weights=probs.ravel())))
    table = np.zeros((rows, len(column)))
    for block, col, mass in cells:
        table[block, col] = mass
    col_codes = np.array(list(column), dtype=np.int64)
    model = SchemeModel(law.n, law.u_size, table, tuple(law.label(c) for c in col_codes))
    return model, col_codes


def law_model(law: MessageLaw) -> SchemeModel:
    """Dense message law of a scheme over every u-block."""
    return _law_table(law)[0]


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
    cols = {}       # label -> column, in order of first appearance
    col_of = [cols.setdefault(fn(tuple(s)), len(cols)) for s in all_sequences(u_size, n).tolist()]
    law = np.zeros((len(col_of), len(cols)))
    law[np.arange(len(col_of)), col_of] = 1.0
    return SchemeModel(n, u_size, law, tuple(cols))


def scheme_model_for(config: SchemeConfig, pair: HypothesisPair, n: int,
                     seed: int) -> SchemeModel:
    """Exact message law of a configured scheme, the one the trial runner
    simulates (same codebook seed for the likelihood scheme)."""
    return law_model(make_scheme(config, pair, n, seed).law)


def likelihood_model(cb: Codebook, delta_prime: float) -> SchemeModel:
    """Exact message law induced by the likelihood encoder for a fixed codebook."""
    return law_model(likelihood_law(cb, delta_prime))


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------

def _letter_law(model: SchemeModel, pair: HypothesisPair, n: int,
                hypothesis: int) -> np.ndarray:
    """The pair's (S, U, V-flat) letter law ``suv`` of one hypothesis, after
    checking the blocks the model was built for."""
    if n != model.n:
        raise ValueError(f"n={n} but model was built for n={model.n}")
    if model.u_size != pair.u_size():
        raise ValueError(f"model alphabet {model.u_size} != |U| = {pair.u_size()}")
    return pair.suv[hypothesis]


def _contract(law: np.ndarray, letter: np.ndarray, n: int) -> np.ndarray:
    """Joint mass table P[m, s-block, v-block] = sum_u law[u, m]
    prod_i letter[s_i, u_i, v_i], shape (|M|, |S|^n, |V|^n), blocks indexed
    first letter most significant.

    ``law`` is (|U|^n, |M|) and ``letter`` is (|S|, |U|, |V|).  The u-letters
    are summed out one at a time, last letter first.  The letters after the
    third are summed against the (|U|, |S||V|) matrix of letter pairs, so the
    (s_i, v_i) pairs stay interleaved and every inner loop runs over a long
    contiguous axis.  Letters 4..n are then regrouped into an s-block and a
    v-block (one copy, of an array |U|^3 / (|S||V|)^3 the size of the
    table), and u_3, u_2, u_1 are each summed out once per (s_i, v_i),
    straight into s-block, v-block order.  Regrouping at the first letter
    instead copies the array that feeds the table: on the example-2 parity
    law at n = 6 (|U| = 4 < |S||V| = 8) that read 0.6 MB more peak RSS, at
    the same speed.
    """
    ns, nu, nv = letter.shape
    pairs = ns * nv
    by_u = letter.transpose(1, 0, 2).reshape(nu, pairs)      # [u, s |V| + v]
    nm = law.shape[1]
    r = min(3, n)           # the letters summed in s-block, v-block order
    x = law.T
    for k in range(n, r, -1):
        # x[(m, u^{k-1}), u_k, (s, v)_{k+1..n}]
        x = x.reshape(nm * nu ** (k - 1), nu, pairs ** (n - k))
        x = np.einsum("up,xuR->xpR", by_u, x)
    # x[m, u^r, s_{r+1}, v_{r+1}, ..., s_n, v_n] -> x[m, u^r, s_{r+1..n}, v_{r+1..n}]
    j = n - r
    x = x.reshape((nm, nu ** r) + (ns, nv) * j).transpose(
        (0, 1) + tuple(range(2, 2 * j + 2, 2)) + tuple(range(3, 2 * j + 3, 2)))
    x = x.reshape(nm, nu ** r, ns ** j, nv ** j)
    for k in range(r, 0, -1):
        # x[(m, u^{k-1}), u_k, s_{k+1..n}, v_{k+1..n}] -> x[(m, u^{k-1}), s_{k..n}, v_{k..n}]
        x = x.reshape(nm * nu ** (k - 1), nu, ns ** (n - k), nv ** (n - k))
        out = np.empty((x.shape[0], ns, x.shape[2], nv, x.shape[3]))
        for s in range(ns):
            for v in range(nv):
                np.einsum("u,xuSV->xSV", letter[s, :, v], x, out=out[:, s, :, v, :])
        x = out
    return x.reshape(nm, ns ** n, nv ** n)


def _block_tables(law: np.ndarray, letter: np.ndarray, n: int):
    """Check that the whole block table fits ``MAX_JOINT_CELLS``, then lazily
    yield (cols, P[cols]) for one chunk of message columns at a time.

    ``chunk_rows`` sizes the chunks by the largest array one column needs: a
    contraction step's input and output (the last output is the column's
    table), or the n |V|^n letters an acceptance test reads.
    """
    ns, nu, nv = letter.shape
    cells = law.shape[1] * (ns * nv) ** n
    if cells > MAX_JOINT_CELLS:
        raise BudgetExceededError(
            f"{cells:.3g} joint cells exceed the budget {MAX_JOINT_CELLS:.3g}")
    col_cells = max((nu + ns * nv) * max(nu, ns * nv) ** (n - 1), n * nv ** n)
    return ((cols, _contract(law[:, cols], letter, n))
            for cols in chunk_rows(law.shape[1], col_cells))


def _causal_bayes(table: np.ndarray, distortion: np.ndarray, n: int):
    """For each letter i = 1..n, yield (i, action, cost): the Bayes action on
    S_i given (m, s^{i-1}, v-block), shape (|M|, |S|^(i-1), |V|^n), and its
    expected distortion summed over those cells, from one
    ``probcore.bayes_decision`` on the letter's joint.  A message's actions
    depend on its own cells only, so the costs of chunks of messages add up."""
    nm, nsn, nvn = table.shape
    ns = distortion.shape[0]
    for i in range(1, n + 1):
        # the s-block index is first letter most significant, so the prefix
        # s^{1..i} is its leading digits; at i = n no later letter is summed
        joint = table.reshape(nm, ns ** (i - 1), ns, nsn // ns ** i, nvn)
        joint = joint[:, :, :, 0] if i == n else joint.sum(axis=3)
        action, cost = bayes_decision(joint, distortion, 2)
        del joint       # the caller's lookups and the next letter run without it
        yield i, action, cost


def exact_equivocation(model: SchemeModel, pair: HypothesisPair, n: int,
                       hypothesis: int) -> float:
    """Exact H(S^n | M, V^n) in nats (block total, not per letter)."""
    tables = _block_tables(model.law, _letter_law(model, pair, n, hypothesis), n)
    return sum(entropy_of_array(t) - entropy_of_array(t.sum(axis=1)) for _, t in tables)


def exact_causal_distortion(model: SchemeModel, pair: HypothesisPair, n: int,
                            hypothesis: int) -> float:
    """Exact block minimum of E[sum_i d(S_i, phi_i(M, V^n, S^{i-1}))] over
    deterministic causal estimators; the per-cell minimizer is the Bayes
    action, and estimator i sees past private letters but not S_i itself."""
    if pair.distortion is None:
        raise ValueError("HypothesisPair has no distortion table")
    tables = _block_tables(model.law, _letter_law(model, pair, n, hypothesis), n)
    return sum(cost for _, t in tables for _, _, cost in _causal_bayes(t, pair.distortion, n))


def _errors(scheme: Scheme, model: SchemeModel, codes: np.ndarray,
            pair: HypothesisPair) -> tuple[float, float]:
    """Exact (alpha_n, beta_n) of a scheme from its dense law over u-blocks
    and the message code of each law column: the block tables P_h[m, v-block]
    of the two hypotheses' (U, V) letter laws (S trivial), streamed in
    lockstep, weigh the scheme's acceptance test chunk by chunk."""
    n = scheme.law.n
    uv = [pair.uv_law(h) for h in (0, 1)]
    if model.u_size != uv[0].shape[0]:
        raise ValueError(f"scheme alphabet {model.u_size} != |U| = {uv[0].shape[0]}")
    vblocks = all_sequences(uv[0].shape[1], n)
    nvn = vblocks.shape[0]
    accepted = [0.0, 0.0]
    for (cols, p0), (_, p1) in zip(*(_block_tables(model.law, x[None], n) for x in uv)):
        part = codes[cols]
        accept = scheme.accepts(
            np.repeat(part, nvn), np.tile(vblocks, (part.size, 1))).reshape(part.size, nvn)
        accepted[0] += float((p0[:, 0] * accept).sum())
        accepted[1] += float((p1[:, 0] * accept).sum())
    return 1.0 - accepted[0], accepted[1]


def exact_errors(scheme: Scheme, pair: HypothesisPair) -> tuple[float, float]:
    """Exact (alpha_n, beta_n) of a scheme, summed over every (message,
    v-block) pair of its law and acceptance test.  The (message, v-block)
    tables stream one chunk of messages at a time, like the privacy audits,
    under the same ``MAX_JOINT_CELLS`` budget (here |M| |V|^n cells)."""
    return _errors(scheme, *_law_table(scheme.law), pair)


# ---------------------------------------------------------------------------
# Monte Carlo estimates
# ---------------------------------------------------------------------------

def mc_privacy_estimate(model: SchemeModel, pair: HypothesisPair, n: int,
                        hypothesis: int, trials: int, seed: int) -> PrivacyReport:
    """Plug-in Monte Carlo estimate of the exact quantities above.

    When the posterior table fits ``MAX_JOINT_CELLS`` the per-sample
    posteriors are computed exactly and the estimates are unbiased.  Otherwise
    each posterior is a ratio of two Monte Carlo means over drawn u-blocks
    (see below), the report is flagged as biased and carries no distortion,
    and a sample whose message no drawn u-block sends raises
    ``RuntimeError``.  Estimates, never certified bounds.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    a = _letter_law(model, pair, n, hypothesis)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(hypothesis,)))
    ns, nu, nv = a.shape
    # the draw of rng.choice(a.size, size=(trials, n), p=a.ravel())
    draws = choice_draws(choice_cdf(a.ravel()), rng.random((trials, n)))
    s_seq = draws // (nu * nv)
    u_seq = (draws // nv) % nu
    v_seq = draws % nv
    u_idx = block_index(u_seq, nu)
    v_idx = block_index(v_seq, nv)
    s_idx = block_index(s_seq, ns)
    msgs = inverse_cdf(model.law[u_idx], rng.random(trials))

    try:
        tables = _block_tables(model.law, a, n)
    except BudgetExceededError:
        tables = None
    biased = tables is None
    d = pair.distortion
    dist_samples = None if biased or d is None else np.zeros(trials)
    if not biased:
        eq_samples = np.empty(trials)
        for cols, table in tables:
            # the samples whose message lies in this chunk, indexed within it
            k = np.flatnonzero((msgs >= cols.start) & (msgs < cols.stop))
            m, s, v = msgs[k] - cols.start, s_idx[k], v_idx[k]
            eq_samples[k] = -np.log(table[m, s, v] / table.sum(axis=1)[m, v])
            if dist_samples is not None:
                for i, action, _ in _causal_bayes(table, d, n):
                    prefix, cur = s // ns ** (n - i + 1), s // ns ** (n - i) % ns
                    dist_samples[k] += d[cur, action[m, prefix, v]]
    else:
        # biased mode reports equivocation only: P(s | m, v) = prod_i
        # P(s_i | v_i) P(m | s, v) / P(m | v), each conditional message
        # probability the mean of law[u, m] over k_is u-blocks drawn letter by
        # letter from P(u_i | s_i, v_i), respectively P(u_i | v_i); each of
        # the two draws its u-blocks in sample order from its own generator,
        # so the estimate does not depend on the chunk size
        k_is = 512
        gens = (rng, np.random.default_rng(np.random.SeedSequence(
            entropy=seed, spawn_key=(hypothesis, 1))))
        p_sv = a.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):   # (s, v) cells never drawn
            u_given_sv = (a / p_sv[:, None, :]).transpose(0, 2, 1)
            u_given_v = (a.sum(axis=0) / p_sv.sum(axis=0)).T
            log_s_given_v = np.log(p_sv / p_sv.sum(axis=0))
        eq_samples = -log_s_given_v[s_seq, v_seq].sum(axis=1)
        for rows in chunk_rows(trials, k_is * n * nu):
            means = []
            for gen, cond in zip(gens, (u_given_sv[s_seq[rows], v_seq[rows]],
                                        u_given_v[v_seq[rows]])):
                probs = np.repeat(cond[:, None], k_is, axis=1).reshape(-1, nu)
                us = inverse_cdf(probs, gen.random(len(probs))).reshape(-1, k_is, n)
                means.append(model.law[block_index(us, nu), msgs[rows, None]].mean(axis=1))
            if not np.all(means):
                raise RuntimeError(f"no u-block of the {k_is} drawn for a sample sends its "
                                   "message; the biased estimate is undefined")
            eq_samples[rows] += np.log(means[1]) - np.log(means[0])

    def per_letter(samples):
        """Per-letter sample mean and its standard error."""
        se = float(samples.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        return float(samples.mean()) / n, se / n

    eq, eq_se = per_letter(eq_samples)
    dist, dist_se = (None, 0.0) if dist_samples is None else per_letter(dist_samples)
    return PrivacyReport(n=n, hypothesis=hypothesis, equivocation_per_letter=eq,
                         causal_distortion_per_letter=dist, equivocation_stderr=eq_se,
                         distortion_stderr=dist_se, biased=biased)


# ---------------------------------------------------------------------------
# strong-converse counterexample
# ---------------------------------------------------------------------------

def counterexample_levels(pair: HypothesisPair) -> tuple[float, float, bool]:
    """The weak-converse level H_P(S|U,V) and the no-message level H_P(S|V),
    in nats, and whether the counterexample's assumption H_P(S|U,V) <
    H_P(S|V) holds: the message must actually reveal something about the
    private letters for time sharing to buy equivocation."""
    h_suv = cond_entropy_of_array(pair.suv[0], (0,), (1, 2))
    h_sv = cond_entropy_of_array(pair.suv[0], (0,), (2,))
    return h_suv, h_sv, h_suv < h_sv - 1e-12


def counterexample_curve(pair: HypothesisPair, epsilon_star: float,
                         n_list, delta: float) -> list[CounterexamplePoint]:
    """Exact evaluation of the time-shared quantization scheme at typicality
    slack ``delta``.

    Requires an instance that meets ``counterexample_levels``'s assumption.
    For each n, reports the exact type I and type II errors and the exact
    per-letter equivocation under the null.
    """
    h_suv, h_sv, holds = counterexample_levels(pair)
    if not holds:
        raise AssumptionViolatedError(
            f"need H_P(S|U,V) < H_P(S|V); got {h_suv} >= {h_sv} - 1e-12"
        )
    config = SchemeConfig("timeshare", delta=delta, epsilon_star=epsilon_star)
    out = []
    for n in n_list:
        scheme = make_scheme(config, pair, n, seed=0)
        model, codes = _law_table(scheme.law)
        alpha, beta = _errors(scheme, model, codes, pair)
        eq = exact_equivocation(model, pair, n, 0) / n
        out.append(CounterexamplePoint(
            n=n, alpha_exact=alpha, beta_exact=beta, equivocation_per_letter=eq,
            weak_converse_level=h_suv, no_message_level=h_sv,
        ))
    return out
