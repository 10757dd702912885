"""Reference computations for the benchmark's correctness checks.

Everything here is plain numpy, written apart from the htpriv package: the
checks compare the program's outputs against these values or against
properties the method must have, never against a stored copy of an earlier
output.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# information measures on raw arrays (axis indices, nats)
# ---------------------------------------------------------------------------

def entropy(arr: np.ndarray) -> float:
    p = np.asarray(arr, dtype=float).ravel()
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def marginal(arr: np.ndarray, keep) -> np.ndarray:
    """Marginal over the axes in ``keep``, in ascending axis order."""
    drop = tuple(i for i in range(arr.ndim) if i not in keep)
    return arr.sum(axis=drop)


def cond_entropy(arr: np.ndarray, target, given=()) -> float:
    h = entropy(marginal(arr, set(target) | set(given)))
    return h - entropy(marginal(arr, set(given))) if given else h


def cond_mutual_info(arr: np.ndarray, a, b, given=()) -> float:
    return cond_entropy(arr, a, given) - cond_entropy(arr, a, tuple(b) + tuple(given))


def kl(x: np.ndarray, ref: np.ndarray) -> float:
    mask = x > 0
    if (ref[mask] <= 0).any():
        return math.inf
    return float((x[mask] * (np.log(x[mask]) - np.log(ref[mask]))).sum())


def h_bits(t: float) -> float:
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return -(t * math.log2(t) + (1 - t) * math.log2(1 - t))


def conv(a: float, b: float) -> float:
    """Binary convolution a * b = a(1-b) + b(1-a)."""
    return a * (1 - b) + b * (1 - a)


# ---------------------------------------------------------------------------
# frontier
# ---------------------------------------------------------------------------

def taci_coords(p_suyz: np.ndarray, rows: np.ndarray) -> tuple[float, float, float]:
    """(I(W;U|Z), I(W;Y|Z), H(S|W,Y,Z)) in nats for a channel U -> W."""
    j = np.einsum("suyz,uw->suyzw", p_suyz, rows)
    return (cond_mutual_info(j, (4,), (1,), (3,)),
            cond_mutual_info(j, (4,), (2,), (3,)),
            cond_entropy(j, (0,), (4, 2, 3)))


def taci_bounds(p_suyz: np.ndarray) -> tuple[float, float, float]:
    """Data-processing limits: I(U;Y|Z), H(S|U,Y,Z), H(S|Y,Z) in nats."""
    return (cond_mutual_info(p_suyz, (1,), (2,), (3,)),
            cond_entropy(p_suyz, (0,), (1, 2, 3)),
            cond_entropy(p_suyz, (0,), (2, 3)))


def cascade_params(p_suyz: np.ndarray) -> tuple[float, float]:
    """Crossovers (p, q) of the binary cascade U -> S -> Y: q = P(S != U),
    p = P(Y != S)."""
    p_su = marginal(p_suyz, (0, 1))
    p_sy = marginal(p_suyz, (0, 2))
    return float(p_sy[0, 1] + p_sy[1, 0]), float(p_su[0, 1] + p_su[1, 0])


def cascade_closed_form(p: float, q: float, r: float) -> tuple[float, float, float]:
    """Boundary of the binary cascade region in bits, from h() and binary
    convolution: rate 1 - h(r), exponent 1 - h(r*q*p), equivocation
    h(p) + h(q*r) - h(p*q*r)."""
    qr = conv(q, r)
    return 1.0 - h_bits(r), 1.0 - h_bits(conv(qr, p)), h_bits(p) + h_bits(qr) - h_bits(conv(p, qr))


def closed_form_gap(coords_bits: np.ndarray, p: float, q: float) -> float:
    """Worst, over r in 0, 0.05, ..., 0.5, of the distance (max coordinate
    gap, bits) from the closed-form point to the nearest front point."""
    worst = 0.0
    for r in np.arange(0.0, 0.501, 0.05):
        target = np.array(cascade_closed_form(p, q, float(r)))
        worst = max(worst, float(np.abs(coords_bits - target).max(axis=1).min()))
    return worst


def dominated_count(coords: np.ndarray, tol: float = 1e-12) -> int:
    """Points (rate, exponent, equivocation) that another point dominates:
    no worse in every coordinate and better by more than ``tol`` in one."""
    r, e, s = coords[:, 0], coords[:, 1], coords[:, 2]
    count = 0
    for i in range(len(coords)):
        weak = (r <= r[i] + 1e-15) & (e >= e[i] - 1e-15) & (s >= s[i] - 1e-15)
        strict = (r < r[i] - tol) | (e > e[i] + tol) | (s > s[i] + tol)
        count += bool((weak & strict).any())
    return count


def hypervolume(coords: np.ndarray, ref) -> float:
    """Volume dominated by the front (rate down, exponent and equivocation
    up) inside the box bounded by the reference point (rate_max, e_min,
    s_min); computed by slicing along the equivocation axis."""
    pts = np.column_stack([ref[0] - coords[:, 0], coords[:, 1] - ref[1], coords[:, 2] - ref[2]])
    pts = pts[(pts > 0).all(axis=1)]
    if not len(pts):
        return 0.0
    levels = np.unique(pts[:, 2])[::-1]
    volume = 0.0
    for k, z in enumerate(levels):
        slab = pts[pts[:, 2] >= z]
        order = np.argsort(-slab[:, 0])
        area, best_y = 0.0, 0.0
        for x, y in slab[order, :2]:
            if y > best_y:
                area += x * (y - best_y)
                best_y = y
        below = levels[k + 1] if k + 1 < len(levels) else 0.0
        volume += area * (z - below)
    return float(volume)


# ---------------------------------------------------------------------------
# coupling
# ---------------------------------------------------------------------------

def ipf(ref: np.ndarray, constraints, sweeps: int = 5000) -> np.ndarray:
    """I-projection of ``ref`` onto marginal constraints (axes in ascending
    order), by iterative proportional fitting."""
    x = ref.copy()
    for _ in range(sweeps):
        for axes, target in constraints:
            cur = marginal(x, axes)
            scale = np.divide(target, cur, out=np.zeros_like(target), where=cur > 0)
            shape = [x.shape[i] if i in axes else 1 for i in range(x.ndim)]
            x = x * scale.reshape(shape)
    return x


def max_marginal_error(x: np.ndarray, constraints) -> float:
    return max(float(np.abs(marginal(x, axes) - t).max()) for axes, t in constraints)


# ---------------------------------------------------------------------------
# finite blocklength
# ---------------------------------------------------------------------------

def all_blocks(alphabet: int, n: int) -> np.ndarray:
    """Every block as a row, most significant letter first."""
    return np.array(list(itertools.product(range(alphabet), repeat=n)), dtype=np.int64)


def typical_rows(blocks: np.ndarray, probs: np.ndarray, delta: float) -> np.ndarray:
    freqs = np.stack([(blocks == a).mean(axis=1) for a in range(len(probs))], axis=1)
    return np.abs(freqs - probs[None, :]).max(axis=1) <= delta + 1e-15


def block_message_table(letter: np.ndarray, law: np.ndarray, n: int) -> np.ndarray:
    """P[m, s-block, v-block] by direct enumeration of the (s, u, v)-block
    joint, one s-block at a time: for fixed s^n the (u^n, v^n) law is the
    Kronecker product of the per-letter slices, then the message law is
    applied over u^n."""
    ns, nu, nv = letter.shape
    out = np.zeros((law.shape[1], ns ** n, nv ** n))
    for si, s in enumerate(all_blocks(ns, n)):
        uv = reduce(np.kron, (letter[x] for x in s))
        out[:, si, :] = law.T @ uv
    return out


def equivocation(table: np.ndarray) -> float:
    """H(S^n | M, V^n) in nats from P[m, s, v]."""
    return entropy(table) - entropy(table.sum(axis=1))


def causal_distortion(table: np.ndarray, d: np.ndarray, ns: int, n: int) -> float:
    """Minimum over causal estimators phi_i(m, v^n, s^{i-1}) of the block
    expected distortion: each (m, v^n, s^{i-1}) cell takes its best guess."""
    nm, _, nvn = table.shape
    total = 0.0
    for i in range(1, n + 1):
        t = table.reshape(nm, ns ** (i - 1), ns, ns ** (n - i), nvn).sum(axis=3)
        cost = np.einsum("mpsv,sk->mpvk", t, d)
        total += float(cost.min(axis=3).sum())
    return total


def zero_rate_law(p_u: np.ndarray, n: int, delta: float) -> np.ndarray:
    """Message law of the one-bit typicality encoder: (error, typical)."""
    typ = typical_rows(all_blocks(len(p_u), n), p_u, delta)
    return np.column_stack([~typ, typ]).astype(float)


def timeshare_law(p_u: np.ndarray, n: int, delta: float, eps: float) -> np.ndarray:
    """Quantization onto the typical set, time-shared with the error message."""
    typ = typical_rows(all_blocks(len(p_u), n), p_u, delta)
    ids = np.flatnonzero(typ)
    law = np.zeros((len(typ), 1 + len(ids)))
    law[:, 0] = 1.0
    law[ids, 0] = eps
    law[ids, 1 + np.arange(len(ids))] = 1.0 - eps
    return law


def _count_matrices(n: int, cells: int):
    if cells == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _count_matrices(n - first, cells - 1):
            yield (first,) + rest


def joint_type_errors(p_uv: np.ndarray, q_uv: np.ndarray, n: int, accept) -> tuple[float, float]:
    """Exact (alpha, beta) of a detector whose acceptance probability depends
    only on the joint type of (u^n, v^n), summed over joint types:
    ``accept(counts) -> probability of accepting the null``."""
    alpha_acc, beta = 0.0, 0.0
    lf = [math.lgamma(k + 1) for k in range(n + 1)]
    lp, lq = np.log(np.where(p_uv > 0, p_uv, 1.0)), np.log(np.where(q_uv > 0, q_uv, 1.0))
    for flat in _count_matrices(n, p_uv.size):
        counts = np.array(flat).reshape(p_uv.shape)
        a = accept(counts)
        if a == 0.0:
            continue
        log_multi = lf[n] - sum(lf[k] for k in flat)
        if not (p_uv[counts > 0] == 0).any():
            alpha_acc += a * math.exp(log_multi + float((counts * lp).sum()))
        if not (q_uv[counts > 0] == 0).any():
            beta += a * math.exp(log_multi + float((counts * lq).sum()))
    return 1.0 - alpha_acc, beta


def within_sigmas(estimate: float, exact: float, trials: int, k: float = 3.0) -> bool:
    sigma = math.sqrt(max(exact * (1.0 - exact), 1e-12) / trials)
    return abs(estimate - exact) <= k * sigma + 1e-9
