"""Executable finite-blocklength coding schemes and a seeded trial runner.

Each coding scheme is one :class:`Scheme`: a message law over u-blocks and
an acceptance test on (message, v-block).  The schemes are the stochastic
likelihood encoder with random binning and minimum-empirical-entropy
decoding, the one-bit typicality scheme for the zero-rate regime, and the
time-shared quantization scheme used by the strong-converse counterexample.
The Monte Carlo trial runner here, and the exact error probabilities and
privacy audits in :mod:`htpriv.adversary`, all consume the same ``Scheme``.
The likelihood scheme is fixed by its :class:`Codebook`, which holds the
(U, W) joint P_U P_{W|U} it was drawn for: the codeword law P_W, the
codebook size through I(U;W), the encoder's selection law P(U|W) and the
detector's declared-type gate are all read off that one joint.
Everything is deterministic given seeds.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .probcore import (
    _typical_freqs,
    Channel,
    Pmf,
    block_digits,
    block_index,
    choice_cdf,
    choice_draws,
    inverse_cdf,
    kl_of_arrays,
    type_counts,
    typical_rows,
)
from .regions import HypothesisPair

__all__ = [
    "Codebook",
    "MessageLaw",
    "Scheme",
    "TrialStats",
    "SchemeConfig",
    "CodebookSizeError",
    "DELTA_DEFAULT",
    "ETA_DEFAULT",
    "build_codebook",
    "likelihood_encode",
    "min_entropy_decode",
    "zero_rate_law",
    "timeshare_law",
    "likelihood_law",
    "likelihood_scheme",
    "make_scheme",
    "sample_codes",
    "chunk_rows",
    "run_trials",
    "wilson_interval",
]

DELTA_DEFAULT = 0.05
ETA_DEFAULT = 0.05
MAX_CODEWORDS = 2 ** 24
# bound on the cells one vectorised law, detector, draw or audit call sees.  A
# chunk of 2^18 float64 cells is 2 MiB.  Once run_trials streams its draws the
# audits' chunks set the peak RSS of perfbench's blocklength workload: 81 MB at
# 2^20 cells, 57 MB at 2^18, with the same wall time (2-core host, seed 1).
CHUNK_CELLS = 2 ** 18


class CodebookSizeError(ValueError):
    """Requested codebook exceeds the desk-scale size cap."""


@dataclass(frozen=True)
class Codebook:
    """Random codebook with binning map, drawn for the (U, W) joint ``p_uw``.

    ``p_uw`` is the (|U|, |W|) joint P_U P_{W|U} of the test channel; the
    codeword law P_W, |U|, I(U;W) and log P(U|W) are read off it.
    ``codewords`` has shape (M', n); ``bins[j]`` is the bin of codeword j.
    ``identity_binning`` marks the regime where the rate is large enough that
    no binning is needed and the codeword index itself is sent.
    """

    n: int
    p_uw: np.ndarray
    codewords: np.ndarray
    bins: np.ndarray
    num_bins: int
    identity_binning: bool

    def __post_init__(self):
        p_uw = np.asarray(self.p_uw, dtype=float)
        if p_uw.ndim != 2:
            raise ValueError(f"p_uw must be a (|U|, |W|) joint, got shape {p_uw.shape}")
        object.__setattr__(self, "p_uw", Pmf(p_uw.ravel()).probs.reshape(p_uw.shape))

    @property
    def size(self) -> int:
        return int(self.codewords.shape[0])

    @property
    def p_w(self) -> Pmf:
        return Pmf(self.p_uw.sum(axis=0))

    @property
    def u_size(self) -> int:
        return self.p_uw.shape[0]

    @property
    def mutual_info_uw(self) -> float:
        """I(U;W) in nats."""
        return kl_of_arrays(self.p_uw, self.p_uw.sum(axis=1)[:, None] * self.p_w.probs)

    @property
    def log_u_given_w(self) -> np.ndarray:
        """log P(u | w), shape (|W|, |U|).  A row with P_W(w) = 0 is nan; it
        is never indexed, because no codeword holds such a w."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(self.p_uw.T / self.p_w.probs[:, None])


# ---------------------------------------------------------------------------
# codebook and decoder
# ---------------------------------------------------------------------------

def build_codebook(p_uw: np.ndarray, n: int, eta: float, rate: float, seed: int) -> Codebook:
    """Draw ceil(exp(n (I(U;W) + eta))) i.i.d. codewords from P_W and bin them,
    both read off the (U, W) joint ``p_uw``; more than ``MAX_CODEWORDS``
    raises CodebookSizeError.

    Binning is uniform at rate R - |U||W| log(n+1)/n when the codebook rate
    exceeds R (after the type-counting correction); otherwise the bin map is
    the identity.  Deterministic given ``seed``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not eta > 0:
        raise ValueError("eta must be > 0")
    if not rate >= 0:
        raise ValueError("rate must be >= 0")
    cb = Codebook(n, p_uw, np.zeros((0, n), np.int64), np.zeros(0, np.int64), 0, True)  # undrawn
    p_w, i_uw = cb.p_w, cb.mutual_info_uw
    m_exact = math.exp(n * (i_uw + eta))
    if m_exact > MAX_CODEWORDS:
        raise CodebookSizeError(f"codebook of {m_exact:.3g} codewords exceeds cap {MAX_CODEWORDS}")
    m = max(1, math.ceil(m_exact))
    rng = np.random.default_rng(seed)
    codewords = rng.choice(p_w.support_size, size=(m, n), p=p_w.probs)
    correction = cb.u_size * p_w.support_size * math.log(n + 1) / n
    binned = i_uw + eta + correction > rate
    num_bins = max(1, math.ceil(math.exp(n * (rate - correction)))) if binned else m
    bins = rng.integers(0, num_bins, size=m) if binned else np.arange(m)
    return dataclasses.replace(cb, codewords=codewords, bins=bins, num_bins=num_bins,
                               identity_binning=not binned)


def min_entropy_decode(cb: Codebook, bins: np.ndarray, vblocks: np.ndarray,
                       delta_hat: float) -> np.ndarray:
    """Decode B (bin, v-block) pairs at once.

    For pair p, among the codebook entries in bin ``bins[p]`` whose codeword
    is delta_hat-typical for P_W, return the index minimizing the conditional
    empirical entropy H_e(w(l) | vblocks[p]); among indices within 1e-15 of
    the minimum the smallest wins.  Returns -1 where no candidate survives.
    Under identity binning the sent index is the bin, returned as is.
    """
    bins = np.asarray(bins, dtype=np.int64)
    if cb.identity_binning:
        return bins.copy()
    n, nw = cb.n, cb.p_uw.shape[1]
    # the typical codewords grouped by bin, in index order within a bin
    members = np.flatnonzero(typical_rows(cb.codewords, cb.p_w.probs, delta_hat))
    members = members[np.argsort(cb.bins[members], kind="stable")]
    start = np.searchsorted(cb.bins[members], np.arange(cb.num_bins + 1))
    sizes = np.diff(start)
    width = int(sizes.max(initial=0))
    out = np.full(bins.size, -1, dtype=np.int64)
    if width == 0:
        return out
    nv = int(vblocks.max(initial=0)) + 1
    # p log p of a type cell that holds c of the n letters
    c = np.arange(1, n + 1)
    plogp = np.concatenate([[0.0], c / n * np.log(c / n)])
    slot = np.arange(width)
    # one pair holds width codewords of n letters and their nv * nw type counts
    for rows in chunk_rows(bins.size, width * (n + nv * nw)):
        size = sizes[bins[rows]]
        live = slot < size[:, None]
        cand = members[np.where(live, start[bins[rows], None] + slot, 0)]
        v = vblocks[rows]
        joint = type_counts(v[:, None, :] * nw + cb.codewords[cand], nv * nw)
        h = plogp[type_counts(v, nv)].sum(axis=-1)[:, None] - plogp[joint].sum(axis=-1)
        h = np.where(live, h, np.inf)
        first = (h <= h.min(axis=1, keepdims=True) + 1e-15).argmax(axis=1)
        out[rows] = np.where(size > 0, cand[np.arange(cand.shape[0]), first], -1)
    return out


# ---------------------------------------------------------------------------
# schemes: a message law and an acceptance test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MessageLaw:
    """Conditional law of the message given the u-block at blocklength n.

    ``pairs(ublocks)`` maps a (B, n) array of u-blocks to two (B, width)
    arrays (codes, probs): block b sends message code ``codes[b, k]`` with
    probability ``probs[b, k]``.  Code 0 is the error message; a listed code
    with probability 0 still names a message the scheme can send.
    ``label(code)`` names a message in the audit tables.
    """

    n: int
    u_size: int
    width: int
    pairs: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    label: Callable[[int], object]


@dataclass(frozen=True)
class Scheme:
    """A coding scheme: its message law and a vectorised acceptance test.

    ``accepts(codes, vblocks)`` maps B message codes and a (B, n) array of
    (flattened) v-blocks to B booleans, True where the detector accepts the
    null.  ``boxes`` are the typicality tests the scheme makes on the (u, v)
    letter type, each ``(axes, centre, radius)`` with axes "u", "v" or "uv"
    (cell u |V| + v): the encoder's u box first, then a typicality detector's.
    """

    law: MessageLaw
    accepts: Callable[[np.ndarray, np.ndarray], np.ndarray]
    codebook: Codebook | None = None   # the likelihood scheme's; None for the others
    boxes: tuple[tuple[str, np.ndarray, float], ...] = ()


def chunk_rows(count: int, row_cells: int) -> Iterator[slice]:
    """Lazy slices of ``count`` rows of ``row_cells`` cells each that bound
    the memory of one vectorised call."""
    step = max(1, CHUNK_CELLS // row_cells)
    return (slice(i, i + step) for i in range(0, count, step))


def sample_codes(law: MessageLaw, ublocks: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Draw one message code per u-block by inverting the law's cdf at the
    given uniforms in [0, 1); pairs of probability 0 are never drawn."""
    codes, probs = law.pairs(ublocks)
    return codes[np.arange(len(codes)), inverse_cdf(probs, uniforms)]


def zero_rate_law(p_u: Pmf, n: int, delta: float) -> MessageLaw:
    """One bit: the "typical" message iff the u-block is delta-typical,
    otherwise the error message."""
    def pairs(ublocks):
        typ = typical_rows(ublocks, p_u.probs, delta)
        codes = np.broadcast_to(np.array([0, 1]), (len(ublocks), 2))
        return codes, np.stack([~typ, typ], axis=1).astype(float)

    return MessageLaw(n, p_u.support_size, 2, pairs, ("error", "typical").__getitem__)


def timeshare_law(p_u: Pmf, n: int, delta: float, epsilon_star: float) -> MessageLaw:
    """Quantization onto the typical set, time-shared with the error message:
    a typical block is identified exactly (code 1 + block index) with
    probability 1 - epsilon*; every other outcome is the error message."""
    if not 0.0 <= epsilon_star <= 1.0:
        raise ValueError(f"epsilon_star={epsilon_star} outside [0, 1]")
    nu = p_u.support_size
    if nu ** n >= 2 ** 62:
        raise ValueError(f"{nu}^{n} blocks exceed the message code range")

    def pairs(ublocks):
        typ = typical_rows(ublocks, p_u.probs, delta)
        ident = np.where(typ, 1 + block_index(ublocks, nu), 0)
        codes = np.stack([np.zeros_like(ident), ident], axis=1)
        probs = np.stack([np.where(typ, epsilon_star, 1.0),
                          np.where(typ, 1.0 - epsilon_star, 0.0)], axis=1)
        return codes, probs

    return MessageLaw(n, nu, 2, pairs,
                      lambda code: "error" if code == 0 else ("seq", int(code) - 1))


def likelihood_law(cb: Codebook, delta_prime: float) -> MessageLaw:
    """Stochastic likelihood encoder with binning, one pair per codeword.

    Atypical u-blocks (for P_U), and blocks under which every codeword has
    zero likelihood P(u | w(j)), send the error message; both laws are read
    off the codebook's (U, W) joint.  Otherwise codeword j is chosen with
    probability proportional to the product likelihood of the block under
    it (log domain, max subtracted), and the message is the joint type of
    (u, w(j)) with the bin b of j.  The type is the tuple c of |U||W| letter
    counts (cell u |W| + w), indexed as t = block_index(c, n + 1); the message
    is coded 1 + t * num_bins + b and labelled ("type", c, "bin", b).
    """
    p_u = cb.p_uw.sum(axis=1)
    log_rows = cb.log_u_given_w                   # (|W|, |U|)
    n, (nu, nw) = cb.n, cb.p_uw.shape
    if (n + 1) ** (nu * nw) * cb.num_bins >= 2 ** 62:
        raise CodebookSizeError("joint types x bins exceed the message code range")

    def pairs(ublocks):
        count, size = len(ublocks), cb.size
        codes = np.zeros((count, size), dtype=np.int64)
        probs = np.zeros((count, size))
        probs[:, 0] = 1.0
        rows = np.flatnonzero(typical_rows(ublocks, p_u, delta_prime))
        # log of the unnormalized selection law, sum_i log P(u_i | w_i(j))
        logits = log_rows[cb.codewords, ublocks[rows][:, None, :]].sum(axis=-1)
        live = np.isfinite(logits).any(axis=1)
        rows, logits = rows[live], logits[live]
        sel = np.exp(logits - logits.max(axis=1, keepdims=True))
        sel /= sel.sum(axis=1, keepdims=True)
        counts = type_counts(ublocks[rows][:, None, :] * nw + cb.codewords, nu * nw)
        t = block_index(counts, n + 1)
        codes[rows] = np.where(sel > 0, 1 + t * cb.num_bins + cb.bins, 0)
        probs[rows] = sel
        return codes, probs

    def label(code):
        if code == 0:
            return "error"
        t, b = divmod(int(code) - 1, cb.num_bins)
        return ("type", tuple(block_digits([t], n + 1, nu * nw)[0].tolist()), "bin", b)

    return MessageLaw(n, nu, cb.size, pairs, label)


def likelihood_encode(cb: Codebook, u, delta_prime: float, seed: int):
    """The label of one draw of :func:`likelihood_law` for the block ``u`` (a
    :class:`~htpriv.probcore.SequenceSample`), with the uniform taken from
    ``np.random.default_rng(seed)``: ``"error"`` or ``("type", c, "bin", b)``,
    where c is the tuple of joint-type counts of (u, w(j)), cell u |W| + w."""
    if u.n != cb.n:
        raise ValueError(f"sequence length {u.n} != codebook blocklength {cb.n}")
    law = likelihood_law(cb, delta_prime)
    return law.label(sample_codes(law, u.symbols[None, :],
                                  np.random.default_rng(seed).random(1))[0])


# ---------------------------------------------------------------------------
# configuration and the scheme factory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeConfig:
    """Knobs for one simulated scheme; delta relations follow the coding
    scheme's construction: delta' = delta/2, delta_hat = |U| delta,
    delta_tilde = 2 delta."""

    scheme: str                       # "likelihood" | "zero_rate" | "timeshare"
    delta: float = DELTA_DEFAULT
    eta: float = ETA_DEFAULT
    rate_nats: float = 1.0
    epsilon_star: float = 0.0
    w_channel: Channel | None = None  # likelihood scheme; default W = U

    def __post_init__(self):
        if self.scheme not in ("likelihood", "zero_rate", "timeshare"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta!r}")
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be finite and > 0, got {self.eta!r}")
        if not (math.isfinite(self.rate_nats) and self.rate_nats >= 0):
            raise ValueError(f"rate_nats must be finite and >= 0, got {self.rate_nats!r}")

    @property
    def delta_prime(self) -> float:
        return self.delta / 2.0

    def delta_hat(self, u_size: int) -> float:
        return u_size * self.delta

    @property
    def delta_tilde(self) -> float:
        return 2.0 * self.delta


def likelihood_scheme(cb: Codebook, p_wv: np.ndarray, config: SchemeConfig) -> Scheme:
    """The likelihood scheme on a fixed codebook, with ``p_wv`` the null
    joint of (W, V-flat).  The detector accepts the null iff the message is a
    payload, its declared joint type is within delta of the codebook's P_UW,
    min-entropy decoding in its bin succeeds, and the decoded codeword is
    jointly delta_tilde-typical with v for P_WV.  Each step runs on every
    (message, v-block) pair of a call at once."""
    delta_prime = config.delta_prime
    law = likelihood_law(cb, delta_prime)
    n, nv = cb.n, p_wv.shape[1]

    def accepts(codes, vblocks):
        out = np.zeros(len(codes), dtype=bool)
        rows = np.flatnonzero(codes > 0)
        t, b = np.divmod(codes[rows] - 1, cb.num_bins)
        freqs = block_digits(t, n + 1, cb.p_uw.size) / n
        gate = _typical_freqs(freqs, cb.p_uw.ravel(), config.delta)
        rows, b = rows[gate], b[gate]
        j = min_entropy_decode(cb, b, vblocks[rows], config.delta_hat(cb.u_size))
        rows, j = rows[j >= 0], j[j >= 0]
        out[rows] = typical_rows(cb.codewords[j] * nv + vblocks[rows], p_wv.ravel(),
                                 config.delta_tilde)
        return out

    return Scheme(law, accepts, cb, (("u", cb.p_uw.sum(axis=1), delta_prime),))


def make_scheme(config: SchemeConfig, pair: HypothesisPair, n: int, seed: int) -> Scheme:
    """The configured scheme at blocklength n; ``seed`` draws the likelihood
    scheme's codebook, for P_UW = P_U P_{W|U}, and its detector tests (w, v)
    against P_WV = P_{W|U}^T P_UV."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p_uv = pair.uv_law(0)
    nu, nv = p_uv.shape
    p_u, delta = Pmf(p_uv.sum(axis=1)), config.delta
    if config.scheme == "likelihood":
        w = config.w_channel or Channel(np.eye(nu))
        cb = build_codebook(w.attach(p_u.probs, 0), n, config.eta, config.rate_nats, seed)
        return likelihood_scheme(cb, w.rows.T @ p_uv, config)
    u_box = ("u", p_u.probs, delta)
    if config.scheme == "zero_rate":
        box = ("v", p_uv.sum(axis=0), delta)

        def accepts(codes, vblocks):
            return (codes == 1) & typical_rows(vblocks, *box[1:])

        return Scheme(zero_rate_law(p_u, n, delta), accepts, boxes=(u_box, box))

    box = ("uv", p_uv.ravel(), config.delta_tilde)

    def accepts(codes, vblocks):
        # the kept message identifies the u-block; accept iff (u, v) is
        # jointly delta_tilde-typical for the null joint law
        ublocks = block_digits(np.maximum(codes - 1, 0), nu, n)
        return (codes > 0) & typical_rows(ublocks * nv + vblocks, *box[1:])

    return Scheme(timeshare_law(p_u, n, delta, config.epsilon_star), accepts,
                  boxes=(u_box, box))


# ---------------------------------------------------------------------------
# Monte Carlo trial runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialStats:
    trials: int
    type1_errors: int
    type2_errors: int
    alpha_hat: float
    beta_hat: float
    alpha_interval: tuple[float, float]
    beta_interval: tuple[float, float]


def wilson_interval(successes: int, trials: int):
    """95% Wilson score interval for a binomial proportion."""
    z = 1.959963984540054   # the standard normal quantile at 0.975
    if trials <= 0:
        raise ValueError("trials must be >= 1")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def run_trials(config: SchemeConfig, pair: HypothesisPair, n: int, trials: int,
               seed: int) -> TrialStats:
    """Estimate the two error probabilities of a configured scheme by i.i.d.
    simulation under each hypothesis.  Deterministic given ``seed``: under
    hypothesis h one generator keyed by (seed, h) draws every (u, v) block,
    then one uniform per trial that selects its message.

    The draws are streamed one chunk of trials at a time, so memory does not
    grow with ``trials``; they equal the one-shot stream
    ``rng.choice(|U||V|, size=(trials, n), p=P_h(u, v))`` followed by
    ``rng.random(trials)``, because the message uniforms come from a copy of
    the generator advanced past the trials * n letter uniforms.  Each letter
    is the count of the law's cdf edges at or below its uniform
    (:func:`~htpriv.probcore.choice_draws`), one comparison per letter of
    the (U, V) law, so the draw costs time linear in |U||V|."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    scheme = make_scheme(config, pair, n, seed)
    accepted = []
    for hyp in (0, 1):
        juv = pair.uv_law(hyp)
        nv = juv.shape[1]
        cdf = choice_cdf(juv.ravel())
        key = np.random.SeedSequence(entropy=seed, spawn_key=(hyp, 0))
        letters, messages = np.random.default_rng(key), np.random.default_rng(key)
        messages.bit_generator.advance(trials * n)
        count = 0
        for rows in chunk_rows(trials, scheme.law.width * n):
            size = min(rows.stop, trials) - rows.start
            # the blocks are widened because schemes form products such as
            # u |W| + w that could overflow the draws' small type
            draws = choice_draws(cdf, letters.random((size, n)))
            codes = sample_codes(scheme.law, (draws // nv).astype(np.int64), messages.random(size))
            count += int(scheme.accepts(codes, (draws % nv).astype(np.int64)).sum())
        accepted.append(count)
    t1, t2 = trials - accepted[0], accepted[1]
    return TrialStats(
        trials=trials, type1_errors=t1, type2_errors=t2,
        alpha_hat=t1 / trials, beta_hat=t2 / trials,
        alpha_interval=wilson_interval(t1, trials),
        beta_interval=wilson_interval(t2, trials),
    )
