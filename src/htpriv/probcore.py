"""Exact finite-alphabet probability and information calculus.

Distributions are dense numpy tensors over labeled axes.  All information
quantities are returned in nats; bits appear only at presentation
boundaries (see :func:`nats_to_bits`).  ``0 * log 0`` is taken to be 0 and
``p * log(p/0)`` with ``p > 0`` is ``math.inf`` (an explicit extended-real
value, never an overflow artifact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MASS_TOL",
    "PMF_EQ_TOL",
    "Pmf",
    "JointPmf",
    "Channel",
    "SequenceSample",
    "SupportMismatchError",
    "UnknownAxisError",
    "entropy",
    "kl_divergence",
    "conditional_entropy",
    "mutual_information",
    "conditional_mutual_information",
    "total_variation",
    "binary_entropy",
    "inv_binary_entropy",
    "star",
    "is_typical",
    "joint_type",
    "empirical_cond_entropy",
    "type_counts",
    "typical_rows",
    "has_typical_sequence",
    "inverse_cdf",
    "choice_cdf",
    "choice_draws",
    "block_index",
    "block_digits",
    "all_sequences",
    "entropy_of_array",
    "kl_of_arrays",
    "marginal_of_array",
    "cond_entropy_of_array",
    "pmf_close",
    "nats_to_bits",
    "bits_to_nats",
]

MASS_TOL = 1e-12        # total-mass tolerance for valid distributions
PMF_EQ_TOL = 1e-12      # sup-norm tolerance for distribution equality tests
_TYPICAL_SLACK = 1e-15  # rounding slack on the typicality bound delta

LN2 = math.log(2.0)


class SupportMismatchError(ValueError):
    """Two distributions that must share a support do not."""


class UnknownAxisError(ValueError):
    """An axis label is absent from a joint distribution."""


def nats_to_bits(x: float) -> float:
    return x / LN2 if math.isfinite(x) else x


def bits_to_nats(x: float) -> float:
    return x * LN2 if math.isfinite(x) else x


def _as_prob_array(probs, shape=None) -> np.ndarray:
    a = np.asarray(probs, dtype=float)
    if shape is not None:
        a = a.reshape(shape)
    if np.any(a < -MASS_TOL):
        raise ValueError(f"negative probability entry: min={a.min()}")
    a = np.maximum(a, 0.0)
    total = a.sum()
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"probabilities sum to {total}, not 1 within {MASS_TOL}")
    return a


@dataclass(frozen=True)
class Pmf:
    """Probability mass function on {0, ..., support_size-1}."""

    probs: np.ndarray

    def __post_init__(self):
        a = _as_prob_array(self.probs)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("Pmf requires a nonempty 1-d probability vector")
        a.flags.writeable = False
        object.__setattr__(self, "probs", a)

    @property
    def support_size(self) -> int:
        return int(self.probs.size)

    def __len__(self) -> int:
        return self.support_size


@dataclass(frozen=True)
class JointPmf:
    """Dense joint distribution over an ordered list of named finite axes.

    ``axes`` is a tuple of (name, size) pairs; ``probs`` is stored row-major
    in the declared axis order (that order is the serialization contract).
    """

    axes: tuple[tuple[str, int], ...]
    probs: np.ndarray

    def __post_init__(self):
        axes = tuple((str(n), int(s)) for n, s in self.axes)
        names = [n for n, _ in axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names: {names}")
        shape = tuple(s for _, s in axes)
        a = _as_prob_array(self.probs, shape)
        a.flags.writeable = False
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "probs", a)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.axes)

    def axis_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.axes):
            if n == name:
                return i
        raise UnknownAxisError(f"axis {name!r} not in {self.names}")

    def axis_size(self, name: str) -> int:
        return self.axes[self.axis_index(name)][1]

    def _resolve(self, names) -> tuple[int, ...]:
        if isinstance(names, str):
            names = (names,)
        idx = tuple(self.axis_index(n) for n in names)
        if len(set(idx)) != len(idx):
            raise ValueError(f"repeated axes in {names}")
        return idx

    def marginal_array(self, keep) -> np.ndarray:
        """Marginal tensor over ``keep`` axes, in the order given by ``keep``."""
        return marginal_of_array(self.probs, self._resolve(keep))

    def marginal(self, keep) -> "JointPmf":
        if isinstance(keep, str):
            keep = (keep,)
        arr = self.marginal_array(keep)
        return JointPmf(tuple((n, self.axis_size(n)) for n in keep), arr)

    def marginal_pmf(self, name: str) -> Pmf:
        return Pmf(self.marginal_array((name,)))


@dataclass(frozen=True)
class Channel:
    """Row-stochastic conditional law: rows[i] is a Pmf over outputs given input i."""

    rows: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.rows, dtype=float)
        if a.ndim != 2 or a.size == 0:
            raise ValueError("Channel requires a nonempty 2-d row-stochastic matrix")
        for i, row in enumerate(a):
            try:
                _as_prob_array(row)
            except ValueError as e:
                raise ValueError(f"channel row {i} invalid: {e}") from e
        a = np.maximum(a, 0.0)
        a.flags.writeable = False
        object.__setattr__(self, "rows", a)

    @property
    def input_size(self) -> int:
        return int(self.rows.shape[0])

    @property
    def output_size(self) -> int:
        return int(self.rows.shape[1])

    def row(self, i: int) -> Pmf:
        return Pmf(self.rows[i])


@dataclass(frozen=True)
class SequenceSample:
    """Length-n sequence of alphabet indices."""

    symbols: np.ndarray
    alphabet_size: int

    def __post_init__(self):
        a = np.asarray(self.symbols, dtype=np.int64)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("sequence must be a nonempty 1-d index vector")
        if a.min() < 0 or a.max() >= self.alphabet_size:
            raise ValueError(
                f"symbols out of range [0, {self.alphabet_size}): "
                f"min={a.min()} max={a.max()}"
            )
        a.flags.writeable = False
        object.__setattr__(self, "symbols", a)

    @property
    def n(self) -> int:
        return int(self.symbols.size)


# ---------------------------------------------------------------------------
# information measures
# ---------------------------------------------------------------------------

def marginal_of_array(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Marginal tensor of ``x`` over the axis positions ``axes``, in that order."""
    drop = tuple(i for i in range(x.ndim) if i not in axes)
    m = x.sum(axis=drop)
    kept = tuple(sorted(axes))
    perm = tuple(kept.index(i) for i in axes)
    return m.transpose(perm) if perm != tuple(range(len(axes))) else m


def entropy_of_array(a: np.ndarray) -> float:
    p = a[a > 0]
    return float(-np.dot(p, np.log(p)))


def cond_entropy_of_array(x: np.ndarray, target: tuple[int, ...],
                          given: tuple[int, ...]) -> float:
    """H(target | given) of the tensor ``x``, axes given by position."""
    h_joint = entropy_of_array(marginal_of_array(x, tuple(sorted(target + given))))
    if not given:
        return h_joint
    return h_joint - entropy_of_array(marginal_of_array(x, tuple(sorted(given))))


def kl_of_arrays(p: np.ndarray, q: np.ndarray) -> float:
    """D(p || q) of two same-shape tensors; +inf off absolute continuity."""
    mask = p > 0
    if np.any(q[mask] <= 0):
        return math.inf
    pm = p[mask]
    return float(np.dot(pm, np.log(pm) - np.log(q[mask])))


def entropy(p) -> float:
    """Shannon entropy -sum p log p in nats, with 0 log 0 = 0."""
    if isinstance(p, (Pmf, JointPmf)):
        return entropy_of_array(p.probs)
    return entropy_of_array(_as_prob_array(p))


def kl_divergence(p, q) -> float:
    """D(p || q) in nats; +inf exactly when p is not absolutely continuous wrt q."""
    pa = p.probs if isinstance(p, (Pmf, JointPmf)) else _as_prob_array(p)
    qa = q.probs if isinstance(q, (Pmf, JointPmf)) else _as_prob_array(q)
    if pa.shape != qa.shape:
        raise SupportMismatchError(f"supports differ: {pa.shape} vs {qa.shape}")
    return kl_of_arrays(pa, qa)


def conditional_entropy(j: JointPmf, target, given=()) -> float:
    """H(target | given) in nats."""
    t = j._resolve(target)
    g = j._resolve(given) if given else ()
    if set(t) & set(g):
        raise ValueError("target and given axes must be disjoint")
    return cond_entropy_of_array(j.probs, t, g)


def mutual_information(j: JointPmf, a, b) -> float:
    """I(a ; b) in nats."""
    return conditional_entropy(j, a) - conditional_entropy(j, a, b)


def conditional_mutual_information(j: JointPmf, a, b, given) -> float:
    """I(a ; b | given) in nats."""
    return conditional_entropy(j, a, given) - conditional_entropy(
        j, a, _names_union(j, b, given)
    )


def _names_union(j: JointPmf, a, b):
    if isinstance(a, str):
        a = (a,)
    if isinstance(b, str):
        b = (b,)
    out = tuple(a) + tuple(n for n in b if n not in a)
    return out


def total_variation(p, q) -> float:
    """(1/2) sum |p - q|."""
    pa = p.probs if isinstance(p, (Pmf, JointPmf)) else np.asarray(p, float)
    qa = q.probs if isinstance(q, (Pmf, JointPmf)) else np.asarray(q, float)
    if pa.shape != qa.shape:
        raise SupportMismatchError(f"shapes differ: {pa.shape} vs {qa.shape}")
    return float(0.5 * np.abs(pa - qa).sum())


def pmf_close(p, q) -> bool:
    """Sup-norm equality within ``PMF_EQ_TOL``, used for indicator terms like
    1(P_U = Q_U)."""
    pa = p.probs if isinstance(p, (Pmf, JointPmf)) else np.asarray(p, float)
    qa = q.probs if isinstance(q, (Pmf, JointPmf)) else np.asarray(q, float)
    if pa.shape != qa.shape:
        raise SupportMismatchError(f"shapes differ: {pa.shape} vs {qa.shape}")
    return bool(np.abs(pa - qa).max() <= PMF_EQ_TOL)


# ---------------------------------------------------------------------------
# binary-convolution algebra
# ---------------------------------------------------------------------------

def binary_entropy(t: float) -> float:
    """h_b(t) in bits; domain [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"binary_entropy argument {t} outside [0, 1]")
    if t in (0.0, 1.0):
        return 0.0
    return float(-(1.0 - t) * math.log2(1.0 - t) - t * math.log2(t))


def inv_binary_entropy(y: float) -> float:
    """Left branch of h_b^{-1}: the unique t in [0, 0.5] with h_b(t) = y bits.

    Bisection to 1e-12 on the argument.
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"inv_binary_entropy argument {y} outside [0, 1]")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def star(a: float, b: float) -> float:
    """Binary convolution a * b = (1-a) b + (1-b) a; domain [0, 1] x [0, 1]."""
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError(f"star arguments ({a}, {b}) outside [0, 1]")
    return (1.0 - a) * b + (1.0 - b) * a


# ---------------------------------------------------------------------------
# types and typicality
# ---------------------------------------------------------------------------

def type_counts(seqs: np.ndarray, k: int) -> np.ndarray:
    """Letter counts of each sequence along the last axis of ``seqs`` over the
    alphabet {0, ..., k-1}, shape ``seqs.shape[:-1] + (k,)``, from one bincount."""
    n = seqs.shape[-1]
    rows = seqs.reshape(-1, n)
    counts = np.bincount((rows + k * np.arange(len(rows))[:, None]).ravel(), minlength=k * len(rows))
    return counts.reshape(seqs.shape[:-1] + (k,))


def _typical_freqs(freqs: np.ndarray, probs: np.ndarray, delta: float) -> np.ndarray:
    """|probs(a) - freqs(a)| <= delta for every letter a, along the last axis."""
    return np.abs(freqs - probs).max(axis=-1) <= delta + _TYPICAL_SLACK


def typical_rows(seqs: np.ndarray, probs: np.ndarray, delta: float) -> np.ndarray:
    """Letter-typicality of each sequence along the last axis of ``seqs``:
    |probs(a) - freq(a)| <= delta for every letter a."""
    return _typical_freqs(type_counts(seqs, probs.size) / seqs.shape[-1], probs, delta)


def has_typical_sequence(probs: np.ndarray, n: int, delta: float) -> bool:
    """Whether some length-``n`` sequence passes :func:`typical_rows`, decided
    from the letter counts alone: each count c_a lies between
    ceil(n (p_a - delta)) and floor(n (p_a + delta)), and the counts sum to n."""
    tol = delta + _TYPICAL_SLACK
    lo = np.maximum(np.ceil(n * (probs - tol)), 0)
    hi = np.minimum(np.floor(n * (probs + tol)), n)
    return bool((lo <= hi).all() and lo.sum() <= n <= hi.sum())


def inverse_cdf(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """One index per row of ``probs``, drawn by inverting the row's cdf at the
    matching uniform in [0, 1); entries of probability 0 are never drawn.
    From the same uniform this is the draw of ``Generator.choice(p=row)``."""
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= uniforms[:, None]).sum(axis=1)


def choice_cdf(p) -> np.ndarray:
    """The cdf that ``Generator.choice(len(p), p=p)`` inverts: from the same
    uniforms, ``choice_draws(choice_cdf(p), rng.random(shape))`` is that
    call's draw.  Rejects what ``choice`` rejects: a ``p`` that is
    not 1-d, has a negative or non-finite entry, or does not sum to 1 within
    the square root of the float64 epsilon."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probabilities must be a nonempty 1-d array")
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    if (p < 0).any():
        raise ValueError("probabilities are not non-negative")
    if abs(math.fsum(p) - 1.0) > math.sqrt(np.finfo(np.float64).eps):
        raise ValueError("probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def choice_draws(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The index of each uniform in [0, 1) under a cdf from :func:`choice_cdf`:
    the values of ``cdf.searchsorted(uniforms, side="right")``, so the draw of
    ``Generator.choice`` from the same uniforms.

    The index is the number of cdf edges at or below the uniform.  The last
    edge is exactly 1, above every uniform, so one comparison per interior
    edge is added up, in the smallest unsigned integer type that holds
    ``len(cdf)``; the result has that type, and arithmetic on it that can
    leave its range needs a cast first.  The cost grows linearly with
    ``len(cdf)``: for the few letters of a joint (U, V) or (S, U, V) law it
    is a small fraction of a binary search's, which grows with its logarithm.
    """
    counts = np.zeros(np.shape(uniforms), dtype=np.min_scalar_type(len(cdf)))
    for edge in cdf[:-1]:
        counts += uniforms >= edge
    return counts


def is_typical(x: SequenceSample, p: Pmf, delta: float) -> bool:
    """Letter-typicality: |p(a) - freq(a)| <= delta for every letter a."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if x.alphabet_size != p.support_size:
        raise SupportMismatchError(
            f"alphabet {x.alphabet_size} vs pmf support {p.support_size}"
        )
    return bool(typical_rows(x.symbols, p.probs, delta))


def joint_type(x: SequenceSample, y: SequenceSample) -> JointPmf:
    """Empirical joint distribution of the pair (x, y), axes ("X", "Y")."""
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} vs {y.n}")
    counts = np.zeros((x.alphabet_size, y.alphabet_size))
    np.add.at(counts, (x.symbols, y.symbols), 1.0)
    return JointPmf((("X", x.alphabet_size), ("Y", y.alphabet_size)), counts / x.n)


def empirical_cond_entropy(y: SequenceSample, x: SequenceSample) -> float:
    """H_e(y^n | x^n): conditional entropy of the joint type, in nats."""
    jt = joint_type(x, y)
    return conditional_entropy(jt, "Y", "X")


def block_index(blocks: np.ndarray, alphabet: int) -> np.ndarray:
    """Index of each block along the last axis of ``blocks``, as a base-
    ``alphabet`` number with the first letter most significant."""
    powers = alphabet ** np.arange(blocks.shape[-1] - 1, -1, -1, dtype=np.int64)
    return (blocks * powers).sum(axis=-1)


def block_digits(index: np.ndarray, alphabet: int, n: int) -> np.ndarray:
    """Inverse of :func:`block_index`: the (len(index), n) blocks."""
    powers = alphabet ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return np.asarray(index, dtype=np.int64)[:, None] // powers % alphabet


def all_sequences(alphabet: int, n: int) -> np.ndarray:
    """All alphabet^n sequences as an (alphabet^n, n) array; row index is the
    base-`alphabet` value of the sequence, most significant letter first."""
    return block_digits(np.arange(alphabet ** n), alphabet, n)
