"""Brute-force ground truth at tiny scale, for tests and acceptance runs only.

These paths are intentionally naive and share no code with the optimized
implementations they check: exact error probabilities by full enumeration,
constrained-KL minima by dense gridding of the feasible polytope, and the
causal-estimator minimum by per-cell exhaustion over reconstructions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.optimize import linprog

from .adversary import SchemeModel
from .probcore import JointPmf, all_sequences
from .regions import HypothesisPair

__all__ = [
    "OracleBudget",
    "OracleScaleError",
    "exact_error_probabilities",
    "grid_min_kl",
    "exhaustive_causal_estimators",
]


@dataclass(frozen=True)
class OracleBudget:
    max_joint_cells: int = 10 ** 7
    grid_resolution: int = 200      # steps per free direction
    max_grid_points: int = 2 * 10 ** 7


class OracleScaleError(RuntimeError):
    """Instance too large for the deliberately naive oracle."""


# ---------------------------------------------------------------------------
# exact error probabilities
# ---------------------------------------------------------------------------

def exact_error_probabilities(model: SchemeModel, detector, pair: HypothesisPair,
                              n: int, budget: OracleBudget | None = None
                              ) -> tuple[float, float]:
    """Exact (alpha_n, beta_n) for a message law and an acceptance predicate.

    ``detector(label, v_block_tuple) -> True`` means accept the null.  The sums
    run over every (u-block, v-block, message) triple.
    """
    budget = budget or OracleBudget()
    if n != model.n:
        raise ValueError(f"n={n} but model was built for n={model.n}")
    order = ("U",) + pair.v_axes
    p_uv = pair.p.marginal(order).probs.reshape(pair.u_size(), -1)
    q_uv = pair.q.marginal(order).probs.reshape(pair.u_size(), -1)
    nu, nv = p_uv.shape
    cells = (nu ** n) * (nv ** n) * model.num_messages
    if cells > budget.max_joint_cells:
        raise OracleScaleError(f"{cells} cells exceed budget {budget.max_joint_cells}")
    vseqs = all_sequences(nv, n)
    accept = np.zeros((model.num_messages, vseqs.shape[0]), dtype=bool)
    for mi, label in enumerate(model.labels):
        for vi in range(vseqs.shape[0]):
            accept[mi, vi] = bool(detector(label, tuple(int(x) for x in vseqs[vi])))
    pmat = reduce(np.kron, [p_uv] * n)
    qmat = reduce(np.kron, [q_uv] * n)
    accept_prob_given_u = model.law @ accept.astype(float)   # (nu^n, nv^n)
    alpha = 1.0 - float((pmat * accept_prob_given_u).sum())
    beta = float((qmat * accept_prob_given_u).sum())
    return alpha, beta


# ---------------------------------------------------------------------------
# dense-grid constrained KL minimum
# ---------------------------------------------------------------------------

def _constraint_system(shape, constraints):
    rows, rhs = [], []
    for axes, target in constraints:
        target = np.asarray(target, dtype=float)
        for combo in itertools.product(*(range(shape[a]) for a in axes)):
            sel = np.zeros(shape)
            idx = [slice(None)] * len(shape)
            for a, c in zip(axes, combo):
                idx[a] = c
            sel[tuple(idx)] = 1.0
            rows.append(sel.ravel())
            rhs.append(float(target[combo]))
    return np.asarray(rows), np.asarray(rhs)


def grid_min_kl(reference, constraints, entropy_floor=None,
                budget: OracleBudget | None = None) -> float:
    """Minimum of KL(x || reference) over a dense grid of the feasible set.

    The equality constraints are solved exactly (particular solution plus a
    null-space basis); each free direction is gridded over its feasible
    interval at ``grid_resolution`` steps, so every evaluated point satisfies
    the marginal constraints to machine precision and the returned value can
    only overshoot the true minimum.  ``entropy_floor`` filters grid points by
    H(target_axes | given_axes) >= floor.
    """
    budget = budget or OracleBudget()
    ref = reference.probs if isinstance(reference, JointPmf) else np.asarray(reference, float)
    if ref.size > 8:
        raise OracleScaleError(f"{ref.size} cells exceed the 8-cell oracle guard")
    A, b = _constraint_system(ref.shape, constraints)
    # total mass is always constrained (redundant when marginals are given)
    A = np.vstack([A, np.ones((1, ref.size))]) if A.size else np.ones((1, ref.size))
    b = np.concatenate([b, [1.0]]) if b.size else np.asarray([1.0])
    x0, *_ = np.linalg.lstsq(A, b, rcond=None)
    if np.abs(A @ x0 - b).max() > 1e-9:
        return math.inf  # inconsistent constraints: empty feasible set
    _, sv, vh = np.linalg.svd(A)
    rank = int((sv > 1e-12 * sv[0]).sum())
    null = vh[rank:].T
    d = null.shape[1]
    best = math.inf

    def consider(x_flat: np.ndarray):
        nonlocal best
        if (x_flat < -1e-12).any():
            return
        x_ok = np.maximum(x_flat, 0.0)
        if entropy_floor is not None:
            target_axes, given_axes, floor = entropy_floor
            h = _cond_entropy_rows(x_ok[None, :], ref.shape,
                                   tuple(target_axes), tuple(given_axes))[0]
            if h < floor - 1e-9:
                return
        best = min(best, _kl_flat(x_ok, ref.ravel()))

    # the particular solution and, when feasible, the reference itself are
    # legitimate grid points (the grid lattice rarely hits them exactly)
    consider(x0)
    if np.abs(A @ ref.ravel() - b).max() <= 1e-12:
        consider(ref.ravel())
    if d == 0:
        return best
    # feasible interval of each free coordinate via two tiny LPs
    lo = np.empty(d)
    hi = np.empty(d)
    for i in range(d):
        c = np.zeros(d)
        c[i] = 1.0
        r_lo = linprog(c, A_ub=-null, b_ub=x0, bounds=[(None, None)] * d, method="highs")
        r_hi = linprog(-c, A_ub=-null, b_ub=x0, bounds=[(None, None)] * d, method="highs")
        if not (r_lo.success and r_hi.success):
            return math.inf
        lo[i], hi[i] = r_lo.x[i], r_hi.x[i]
    steps = budget.grid_resolution
    if (steps + 1) ** d > budget.max_grid_points:
        raise OracleScaleError(
            f"({steps + 1})^{d} grid points exceed {budget.max_grid_points}"
        )
    axes = [np.linspace(lo[i], hi[i], steps + 1) for i in range(d)]
    refv = ref.ravel()
    chunk, total = 200_000, (steps + 1) ** d
    # grid points in itertools.product order, one chunk of flat indices at a time
    for start in range(0, total, chunk):
        idx = np.unravel_index(np.arange(start, min(start + chunk, total)), (steps + 1,) * d)
        theta = np.stack([axis[i] for axis, i in zip(axes, idx)], axis=1)
        x = x0[None, :] + theta @ null.T
        keep = (x >= -1e-12).all(axis=1)
        if not keep.any():
            continue
        x = np.maximum(x[keep], 0.0)
        if entropy_floor is not None:
            target_axes, given_axes, floor = entropy_floor
            hvals = _cond_entropy_rows(x, ref.shape, tuple(target_axes), tuple(given_axes))
            x = x[hvals >= floor - 1e-9]
            if x.size == 0:
                continue
        vals = _kl_rows(x, refv)
        if vals.size:
            best = min(best, float(vals.min()))
    return best


def _kl_flat(x: np.ndarray, ref: np.ndarray) -> float:
    mask = x > 0
    if np.any(ref[mask] <= 0):
        return math.inf
    return float(np.dot(x[mask], np.log(x[mask]) - np.log(ref[mask])))


def _kl_rows(x: np.ndarray, refv: np.ndarray) -> np.ndarray:
    bad = (x > 0) & (refv[None, :] <= 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = x * (np.log(x) - np.log(refv)[None, :])
    terms = np.where(x > 0, terms, 0.0)
    vals = terms.sum(axis=1)
    vals[bad.any(axis=1)] = math.inf
    return vals


def _cond_entropy_rows(x: np.ndarray, shape, target, given) -> np.ndarray:
    xt = x.reshape((-1,) + tuple(shape))
    joint_axes = tuple(sorted(target + given))
    drop = tuple(1 + i for i in range(len(shape)) if i not in joint_axes)
    mj = xt.sum(axis=drop) if drop else xt
    hj = _entropy_rows(mj.reshape(x.shape[0], -1))
    if not given:
        return hj
    dropg = tuple(1 + i for i in range(len(shape)) if i not in given)
    mg = xt.sum(axis=dropg)
    return hj - _entropy_rows(mg.reshape(x.shape[0], -1))


def _entropy_rows(m: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        t = m * np.log(m)
    t = np.where(m > 0, t, 0.0)
    return -t.sum(axis=1)


# ---------------------------------------------------------------------------
# exhaustive causal estimators
# ---------------------------------------------------------------------------

def exhaustive_causal_estimators(model: SchemeModel, pair: HypothesisPair, n: int,
                                 hypothesis: int = 0) -> float:
    """True minimum block distortion over deterministic causal estimators,
    by direct summation: for every estimator input cell (m, v-block, s-prefix)
    and every candidate reconstruction, accumulate the expected distortion
    over the raw joint law, then keep the cell's best candidate.

    Deliberately loop-based and restricted to n <= 2.
    """
    if pair.distortion is None:
        raise ValueError("HypothesisPair has no distortion table")
    if n > 2:
        raise OracleScaleError("exhaustive estimator search is limited to n <= 2")
    if n != model.n:
        raise ValueError(f"n={n} but model was built for n={model.n}")
    order = ("S", "U") + pair.v_axes
    arr = pair.law(hypothesis).marginal(order).probs
    ns, nu = arr.shape[0], arr.shape[1]
    a = arr.reshape(ns, nu, -1)
    nv = a.shape[2]
    d = pair.distortion
    nshat = d.shape[1]
    sseqs = [tuple(s) for s in all_sequences(ns, n)]
    useqs = [tuple(u) for u in all_sequences(nu, n)]
    vseqs = [tuple(v) for v in all_sequences(nv, n)]
    total = 0.0
    for i in range(1, n + 1):
        for mi in range(model.num_messages):
            for vblock in range(len(vseqs)):
                for prefix in itertools.product(range(ns), repeat=i - 1):
                    best = math.inf
                    for shat in range(nshat):
                        acc = 0.0
                        for sb, sseq in enumerate(sseqs):
                            if tuple(sseq[: i - 1]) != prefix:
                                continue
                            for ub, useq in enumerate(useqs):
                                w = model.law[ub, mi]
                                if w == 0.0:
                                    continue
                                pjoint = w
                                for t in range(n):
                                    pjoint *= a[sseq[t], useq[t], vseqs[vblock][t]]
                                acc += pjoint * d[sseq[i - 1], shat]
                        best = min(best, acc)
                    total += best
    return total
