"""Single-letter trade-off evaluation and optimization.

Covers the achievable-region evaluators for the general test (the kappa*
exponent with its two constrained KL minimizations, plus equivocation and
distortion privacy levels), the testing-against-conditional-independence
region with its auxiliary-channel frontier search, the zero-rate region, and
the binary closed form.

All optimizers return their argmin coupling so callers can re-verify
feasibility and the objective independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .probcore import (
    Channel,
    JointPmf,
    Pmf,
    binary_entropy,
    conditional_entropy,
    cond_entropy_of_array,
    conditional_mutual_information,
    kl_of_arrays,
    marginal_of_array,
    mutual_information,
    pmf_close,
    star,
)

__all__ = [
    "HypothesisPair",
    "TradeoffPoint",
    "TaciPoint",
    "ZeroRatePrivacy",
    "CouplingProblem",
    "CouplingSolution",
    "InfeasibleConstraintsError",
    "FrontierConfig",
    "solve_coupling",
    "exponent_e1",
    "exponent_e1_solution",
    "exponent_e2",
    "exponent_e2_solution",
    "kappa_star",
    "theorem1_point",
    "theorem2_point",
    "taci_point",
    "taci_frontier",
    "example1_closed_form",
    "zero_rate_exponent",
    "zero_rate_exponent_solution",
    "zero_rate_privacy",
    "bayes_estimator",
    "attach_channel",
]


class InfeasibleConstraintsError(ValueError):
    """The marginal constraints are mutually inconsistent."""


# ---------------------------------------------------------------------------
# problem containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypothesisPair:
    """Null/alternate joint laws over (S, U, V...) plus a distortion table.

    Both joints must share axes, which must include "S" and "U"; every other
    axis is treated as part of the detector observation V (so a pair over
    (S, U, Y, Z) models conditional-independence testing with V = (Y, Z)).
    """

    p: JointPmf
    q: JointPmf
    distortion: np.ndarray | None = None
    d_max: float | None = None

    def __post_init__(self):
        if self.p.axes != self.q.axes:
            raise ValueError(f"axes differ: {self.p.axes} vs {self.q.axes}")
        names = self.p.names
        if "S" not in names or "U" not in names:
            raise ValueError(f'axes must include "S" and "U"; got {names}')
        if self.distortion is not None:
            d = np.asarray(self.distortion, dtype=float)
            if d.ndim != 2 or d.shape[0] != self.p.axis_size("S"):
                raise ValueError(f"distortion table shape {d.shape} does not cover S")
            dm = self.d_max if self.d_max is not None else float(d.max())
            if d.min() < 0 or d.max() > dm + 1e-12:
                raise ValueError("distortion entries must lie in [0, d_max]")
            d.flags.writeable = False
            object.__setattr__(self, "distortion", d)
            object.__setattr__(self, "d_max", dm)

    @property
    def v_axes(self) -> tuple[str, ...]:
        return tuple(n for n in self.p.names if n not in ("S", "U"))

    def u_size(self) -> int:
        return self.p.axis_size("U")

    def law(self, hypothesis: int) -> JointPmf:
        return self.p if hypothesis == 0 else self.q

    def uv_law(self, hypothesis: int) -> np.ndarray:
        """Joint of (U, V-flat) under one hypothesis, shape (|U|, |V|)."""
        order = ("U",) + self.v_axes
        return self.law(hypothesis).marginal(order).probs.reshape(self.u_size(), -1)


def attach_channel(joint: JointPmf, channel: Channel) -> JointPmf:
    """Adjoin a last axis W to ``joint`` through a memoryless channel from U."""
    i = joint.axis_index("U")
    if channel.input_size != joint.axes[i][1]:
        raise ValueError(
            f"channel input size {channel.input_size} != |U| = {joint.axes[i][1]}"
        )
    probs = joint.probs
    shape = [1] * probs.ndim + [channel.output_size]
    shape[i] = channel.input_size
    ext = probs[..., None] * channel.rows.reshape(shape)
    return JointPmf(joint.axes + (("W", channel.output_size),), ext)


@dataclass(frozen=True)
class TradeoffPoint:
    """One achievable (rate, exponent, privacy0, privacy1) tuple, in nats."""

    rate: float
    exponent: float
    privacy0: float
    privacy1: float
    privacy_kind: str  # "equivocation" | "distortion"
    feasible: bool = True
    channel: Channel | None = None
    channel_id: str = ""

    def __post_init__(self):
        if self.privacy_kind not in ("equivocation", "distortion"):
            raise ValueError(f"unknown privacy_kind {self.privacy_kind!r}")


@dataclass(frozen=True)
class TaciPoint:
    """Exact region coordinates for one auxiliary channel (nats)."""

    rate_needed: float
    exponent: float
    equivocation0: float


@dataclass(frozen=True)
class ZeroRatePrivacy:
    delta0_max: float | None
    delta1_max: float | None
    lambda0_max: float
    lambda1_max: float


# ---------------------------------------------------------------------------
# constrained KL minimization on the probability simplex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingProblem:
    """min KL(x || reference) over joint pmfs x subject to fixed marginals.

    ``marginal_constraints`` maps axis tuples (positions into the reference
    tensor) to target marginal tensors.  ``entropy_floor`` optionally demands
    H(target_axes | given_axes) >= floor, a convex constraint since
    conditional entropy is concave in the joint law.
    """

    reference: np.ndarray
    marginal_constraints: tuple[tuple[tuple[int, ...], np.ndarray], ...]
    entropy_floor: tuple[tuple[int, ...], tuple[int, ...], float] | None = None


@dataclass(frozen=True)
class CouplingSolution:
    objective: float                 # KL value in nats (may be +inf)
    coupling: np.ndarray | None      # argmin joint law (None iff objective inf)
    residual: float                  # worst marginal-constraint violation
    entropy_slack: float             # H - floor at the solution (0.0 if unconstrained)
    multiplier: float                # entropy-constraint multiplier (0 if inactive)
    # what ended the I-projection behind ``coupling`` (the last one, with a
    # floor): "converged", "empty_slice", "certificate" or "sweep_cap"; only
    # "sweep_cap" leaves an infinite objective unproven
    stop: str


_RESIDUAL_TOL = 1e-11   # worst marginal residual of a feasible answer
_INACTIVE_TOL = 1e-9    # an entropy floor missed by less is inactive
# an I-projection ends once every marginal is within _IPF_TOL, once its
# scalings prove the support infeasible, or after _MAX_SWEEPS sweeps; only in
# the last case is a residual above _RESIDUAL_TOL taken as infeasibility
# without proof
_IPF_TOL, _MAX_SWEEPS = 1e-14, 220000
# the scalings of sweeps _WINDOW_START .. 2 _WINDOW_START - 1, then of each
# following window of doubled length, are tested as a Farkas certificate that
# must clear _FARKAS_TOL times their largest log
_WINDOW_START, _FARKAS_TOL = 64, 1e-9
# a fixed-multiplier solve ends once no coordinate moves more than _STEP_TOL
_STEP_TOL, _MAX_STEPS = 1e-14, 1000


def _sum_to(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Marginal of ``x`` on the positions ``axes``, every other axis kept at size 1."""
    return x.sum(axis=tuple(i for i in range(x.ndim) if i not in axes), keepdims=True)


def _broadcast_constraints(ref: np.ndarray, constraints) -> list:
    """The marginal constraints as (axes, target) pairs with the axes in position
    order and each target shaped to broadcast over ``ref``.

    Raises ValueError on a malformed constraint and
    :class:`InfeasibleConstraintsError` when a target is not a pmf or two
    targets disagree on their shared axes.  The I-projection meets its
    targets only if they carry one mass to within ``_IPF_TOL``, and a pmf
    may miss 1 by up to 1e-9, so a target whose mass differs from the first
    target's by more than ``_IPF_TOL`` is rescaled to that mass.
    """
    cons, masses = [], []
    for axes, tgt in constraints:
        axes, tgt = tuple(axes), np.asarray(tgt, dtype=float)
        if len(set(axes)) != len(axes) or not all(0 <= a < ref.ndim for a in axes):
            raise ValueError(f"constraint axes {axes} are not distinct positions "
                             f"of a {ref.ndim}-axis reference")
        sizes = tuple(ref.shape[a] for a in axes)
        if tgt.shape != sizes:
            raise ValueError(f"constraint on axes {axes} has shape {tgt.shape}, "
                             f"not the reference sizes {sizes}")
        s = float(tgt.sum())
        if abs(s - 1.0) > 1e-9:
            raise InfeasibleConstraintsError(f"constraint on axes {axes} sums to {s}")
        if tgt.min() < -1e-12:
            raise InfeasibleConstraintsError(f"constraint on axes {axes} has negative mass")
        shape = [ref.shape[a] if a in axes else 1 for a in range(ref.ndim)]
        cons.append((tuple(sorted(axes)), tgt.transpose(np.argsort(axes)).reshape(shape)))
        masses.append(s)
    for i, (ai, ti) in enumerate(cons):
        for aj, tj in cons[i + 1:]:
            common = tuple(a for a in ai if a in aj)
            if common and np.abs(_sum_to(ti, common) - _sum_to(tj, common)).max() > 1e-9:
                raise InfeasibleConstraintsError(
                    f"constraints on axes {ai} and {aj} disagree on shared axes {common}"
                )
    return [(axes, tgt * (masses[0] / s) if abs(s - masses[0]) > _IPF_TOL else tgt)
            for (axes, tgt), s in zip(cons, masses)]


def _certifies(support: np.ndarray, cons, windows) -> bool:
    """Whether the potentials phi_k = log(window_k) prove that no x >= 0 on
    ``support`` meets every target.

    Such an x vanishes on each slice whose target is 0 (there the window, a
    product of zero ratios, has log -inf), so on the other cells
    sum_k <phi_k, t_k> = sum x sum_k phi_k <= max sum_k phi_k (Farkas).  A
    window that is not finite on a slice with target mass proves nothing.
    """
    gain, scale, total = 0.0, 0.0, np.zeros(support.shape)
    with np.errstate(divide="ignore"):
        for (_, tgt), win in zip(cons, windows):
            phi, on = np.log(win), tgt > 0
            if not np.isfinite(phi[on]).all():
                return False
            gain += float(tgt[on] @ phi[on])
            scale = max(scale, float(np.abs(phi[on]).max()))
            total = total + phi
    return gain - float(total.max(where=support, initial=-np.inf)) > _FARKAS_TOL * scale


def _ipf(base: np.ndarray, cons) -> tuple[np.ndarray, float, str]:
    """Cyclic I-projection of ``base`` onto broadcast marginal constraints.

    Multiplicative per-block rescaling; the limit is the KL projection of
    ``base`` onto the intersection when it is nonempty within supp(base).
    Stops once a sweep starts within ``_IPF_TOL`` of every target
    ("converged"), or after ``_MAX_SWEEPS`` sweeps ("sweep_cap").  Two stops
    prove the intersection empty.  The first sweep makes every zero that a
    scaling can make, and no later scaling undoes one, so it stops after
    that sweep when a target puts more than ``_RESIDUAL_TOL`` on a slice
    whose marginal is then exactly 0 ("empty_slice").  From sweep
    ``_WINDOW_START`` on, each constraint's ratios are multiplied into a
    window, and at each doubling of the sweep count the windows' logs are
    tested as a Farkas certificate (:func:`_certifies`, "certificate"); on an
    empty intersection the log-scalings grow along such a ray.  The windows
    never touch the point, so a feasible projection is the same with or
    without them.  Returns (point, worst final residual, stop reason).
    """
    x, windows, check = base.copy(), None, 2 * _WINDOW_START
    stop = "sweep_cap"
    for sweep in range(_MAX_SWEEPS):
        if sweep == _WINDOW_START:
            windows = [np.ones_like(tgt) for _, tgt in cons]
        worst = 0.0
        for k, (axes, tgt) in enumerate(cons):
            cur = _sum_to(x, axes)
            worst = max(worst, float(np.abs(cur - tgt).max()))
            ratio = np.divide(tgt, cur, out=np.zeros_like(tgt), where=cur > 0)
            x *= ratio
            if windows is not None:
                windows[k] *= ratio
        if worst < _IPF_TOL:
            stop = "converged"
            break
        # checked once: in every sweep it would slow the long support solves
        if sweep == 0 and any(np.any((tgt > _RESIDUAL_TOL) & (_sum_to(x, axes) == 0))
                              for axes, tgt in cons):
            stop = "empty_slice"
            break
        if sweep + 1 == check:
            if _certifies(base > 0, cons, windows):
                stop = "certificate"
                break
            check *= 2
            for win in windows:
                win.fill(1.0)
    # final residual after the last rescale
    return x, max(float(np.abs(_sum_to(x, axes) - tgt).max()) for axes, tgt in cons), stop


def _grad_neg_cond_entropy(x: np.ndarray, target, given) -> np.ndarray:
    """Gradient of -H(target|given) wrt the joint: log x(target|given), broadcast."""
    m = _sum_to(x, target + given)
    with np.errstate(divide="ignore", invalid="ignore"):
        lc = np.log(m) - (np.log(m.sum(axis=target, keepdims=True)) if given else 0.0)
    return np.where(np.isfinite(lc), lc, 0.0)


def solve_coupling(problem: CouplingProblem) -> CouplingSolution:
    """Solve the constrained KL minimization.

    Each marginal target is checked once and reshaped to broadcast over the
    reference; a target whose mass differs from the first one's by more than
    1e-14 is rescaled to it, and the residual is measured against the
    rescaled targets.  With marginal constraints only the answer is the cyclic
    I-projection of the reference, which converges geometrically and lands
    on the constraint set.

    An entropy floor that the I-projection misses is active.  For a
    multiplier t >= 0 the Lagrangian KL(x || ref) - t H(target|given) is
    minimized over the marginal constraints by repeating one
    majorize-minimize step, the I-projection of
    ref^(1/(1+t)) (x / x(target|given))^(t/(1+t)).  The step never raises the
    Lagrangian, because the Bregman divergence of -H(target|given) is
    KL(x_TG || y_TG) - KL(x_G || y_G) <= KL(x || y).  H at the minimizer
    grows with t, so t is bracketed by doubling and then bisected until H
    meets the floor; the answer is the point on the feasible side, with
    ``multiplier = t`` and ``entropy_slack >= 0``.  If doubling t stops
    raising H the floor is out of reach, and the last point is returned with
    its negative ``entropy_slack``.

    Objective +inf means infeasible support: the constraints force mass
    where the reference is zero.  It is proven when a target puts mass on a
    slice that the first sweep leaves at exactly 0, or by a Farkas
    certificate.  Take potentials phi_k, one per constraint, broadcast like
    its target, and g(phi) = sum_k <phi_k, t_k> - max over cells of
    supp(ref) of sum_k phi_k(cell).  An x >= 0 on supp(ref) that met every
    target t_k would give sum_k <phi_k, t_k> = sum over cells of
    x sum_k phi_k <= max, so g(phi) <= 0; g(phi) > 0 proves the problem
    infeasible.  On an infeasible problem the I-projection's log-scalings
    grow along such a ray, and the solve stops as soon as a window of them
    gives g > 1e-9 max |phi|.  When 220000 sweeps run out instead, +inf is
    read off a residual above 1e-11 and is unproven; ``stop`` tells these
    apart.  Mutually
    inconsistent targets raise :class:`InfeasibleConstraintsError`; a
    repeated or out-of-range axis, or a target of the wrong shape, raises
    ValueError.
    """
    ref = np.asarray(problem.reference, dtype=float)
    cons = _broadcast_constraints(ref, problem.marginal_constraints)

    x, res, stop = _ipf(ref, cons)
    # an empty slice always leaves a residual above the tolerance
    if stop == "certificate" or res > _RESIDUAL_TOL:
        return CouplingSolution(math.inf, None, res, 0.0, 0.0, stop)

    if problem.entropy_floor is None:
        return CouplingSolution(kl_of_arrays(x, ref), x, res, 0.0, 0.0, stop)

    target, given, floor = problem.entropy_floor
    target, given = tuple(target), tuple(given)
    h = cond_entropy_of_array(x, target, given)
    if h >= floor - _INACTIVE_TOL:
        return CouplingSolution(kl_of_arrays(x, ref), x, res, h - floor, 0.0, stop)

    sup = ref > 0
    logref = np.where(sup, np.log(np.where(sup, ref, 1.0)), -np.inf)

    def solve(t: float, x: np.ndarray):
        # majorize-minimize steps for KL(x || ref) - t H(target|given)
        for _ in range(_MAX_STEPS):
            with np.errstate(divide="ignore"):
                logx = np.log(x)
            logbase = (logref + t * (logx - _grad_neg_cond_entropy(x, target, given))) / (1 + t)
            ok = np.isfinite(logbase)
            base = np.where(ok, np.exp(np.where(ok, logbase, 0.0) - logbase[ok].max()), 0.0)
            xn, res, stop = _ipf(base, cons)
            moved = float(np.abs(xn - x).max())
            x = xn
            if moved <= _STEP_TOL:
                break
        return x, res, stop, cond_entropy_of_array(x, target, given)

    lo, h_lo, hi = 0.0, h, 1.0
    while True:
        x_hi, res_hi, stop_hi, h_hi = solve(hi, x)
        if h_hi >= floor or h_hi - h_lo <= 1e-12:  # met, or out of reach
            break
        lo, h_lo, x = hi, h_hi, x_hi
        hi *= 2.0
    # bisect to complementary slackness 1e-12, or until t is resolved to rounding
    while h_hi >= floor and max(hi, 1.0) * (h_hi - floor) > 1e-12 and hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        xm, rm, sm, hm = solve(mid, x_hi)
        if hm >= floor:
            hi, x_hi, res_hi, stop_hi, h_hi = mid, xm, rm, sm, hm
        else:
            lo = mid
    return CouplingSolution(kl_of_arrays(x_hi, ref), x_hi, res_hi, h_hi - floor, hi, stop_hi)


# ---------------------------------------------------------------------------
# exponent terms of the general inner bound
# ---------------------------------------------------------------------------

def _coupling_frame(pair: HypothesisPair, w_channel: Channel):
    """Reference measure and marginals on axes (U, V..., W) for both KL programs."""
    v_axes = pair.v_axes
    order = ("U",) + v_axes
    p_uv = pair.p.marginal(order)
    q_uv = pair.q.marginal(order)
    if w_channel.input_size != pair.u_size():
        raise ValueError(
            f"auxiliary channel input size {w_channel.input_size} != |U| = {pair.u_size()}"
        )
    p_joint = attach_channel(p_uv, w_channel)   # (U, V..., W)
    ref = attach_channel(q_uv, w_channel).probs
    nv = len(v_axes)
    u_ax, w_ax = 0, 1 + nv
    v_ax = tuple(range(1, 1 + nv))
    return p_joint, ref, u_ax, v_ax, w_ax


def exponent_e1_solution(pair: HypothesisPair, w_channel: Channel) -> CouplingSolution:
    """First exponent term: min KL against the alternate law tilted through the
    channel, over joint laws matching the (U, W) and (V, W) marginals of the null."""
    p_joint, ref, u_ax, v_ax, w_ax = _coupling_frame(pair, w_channel)
    cons = (
        ((u_ax, w_ax), marginal_of_array(p_joint.probs, (u_ax, w_ax))),
        (v_ax + (w_ax,), marginal_of_array(p_joint.probs, v_ax + (w_ax,))),
    )
    return solve_coupling(CouplingProblem(ref, cons))


def exponent_e1(pair: HypothesisPair, w_channel: Channel) -> float:
    return exponent_e1_solution(pair, w_channel).objective


def exponent_e2_solution(rate: float, pair: HypothesisPair,
                         w_channel: Channel) -> tuple[float, CouplingSolution | None]:
    """Second exponent term (binning error): +inf unless I_P(U;W) > rate, else the
    KL minimum over the relaxed set plus the rate penalty (rate - I_P(U;W|V))."""
    if rate < 0:
        raise ValueError("rate must be >= 0")
    p_joint, ref, u_ax, v_ax, w_ax = _coupling_frame(pair, w_channel)
    names = p_joint.names
    i_uw = mutual_information(p_joint, "U", "W")
    if i_uw <= rate:
        return math.inf, None
    v_names = tuple(names[a] for a in v_ax)
    i_uw_given_v = conditional_mutual_information(p_joint, "U", "W", v_names)
    floor = conditional_entropy(p_joint, "W", v_names)
    cons = (
        ((u_ax, w_ax), marginal_of_array(p_joint.probs, (u_ax, w_ax))),
        (v_ax, marginal_of_array(p_joint.probs, v_ax)),
    )
    sol = solve_coupling(
        CouplingProblem(ref, cons, entropy_floor=((w_ax,), v_ax, floor))
    )
    if math.isinf(sol.objective):
        return math.inf, sol
    return sol.objective + (rate - i_uw_given_v), sol


def exponent_e2(rate: float, pair: HypothesisPair, w_channel: Channel) -> float:
    return exponent_e2_solution(rate, pair, w_channel)[0]


def kappa_star(rate: float, pair: HypothesisPair, w_channel: Channel) -> float:
    """min(E1, E2(rate)); nondecreasing in rate."""
    return min(exponent_e1(pair, w_channel), exponent_e2(rate, pair, w_channel))


# ---------------------------------------------------------------------------
# achievable points (general inner bound)
# ---------------------------------------------------------------------------

def _min_expected_distortion(joint: JointPmf, cond_axes, pair: HypothesisPair) -> float:
    """min over deterministic estimators of E d(S, phi(cond_axes)); the inner
    argmin for each conditioning cell is the Bayes estimator."""
    if pair.distortion is None:
        raise ValueError("HypothesisPair has no distortion table")
    if isinstance(cond_axes, str):
        cond_axes = (cond_axes,)
    m = joint.marginal_array(("S",) + tuple(cond_axes))
    flat = m.reshape(m.shape[0], -1)          # (|S|, cells)
    costs = pair.distortion.T @ flat          # (|S_hat|, cells)
    return float(costs.min(axis=0).sum())


def _privacy1_split(pair: HypothesisPair, q_joint: JointPmf, v_axes, kind: str) -> float:
    """Alternate-hypothesis privacy: the (W,V)-aware level when the U-marginals
    of the two hypotheses coincide, the V-only level otherwise."""
    same_u = pmf_close(pair.p.marginal_pmf("U"), pair.q.marginal_pmf("U"))
    if kind == "equivocation":
        if same_u:
            return conditional_entropy(q_joint, "S", ("W",) + tuple(v_axes))
        return conditional_entropy(q_joint, "S", tuple(v_axes))
    if same_u:
        return _min_expected_distortion(q_joint, ("W",) + tuple(v_axes), pair)
    return _min_expected_distortion(q_joint, tuple(v_axes), pair)


def _theorem_point(pair: HypothesisPair, w_channel: Channel, rate: float,
                   kind: str) -> TradeoffPoint:
    v_axes = pair.v_axes
    p_joint = attach_channel(pair.p, w_channel)
    q_joint = attach_channel(pair.q, w_channel)
    needed = conditional_mutual_information(p_joint, "W", "U", v_axes)
    feasible = rate >= needed - 1e-12
    exponent = kappa_star(rate, pair, w_channel)
    if kind == "equivocation":
        privacy0 = conditional_entropy(p_joint, "S", ("W",) + v_axes)
    else:
        privacy0 = _min_expected_distortion(p_joint, ("W",) + v_axes, pair)
    privacy1 = _privacy1_split(pair, q_joint, v_axes, kind)
    return TradeoffPoint(rate, exponent, privacy0, privacy1, kind,
                         feasible=feasible, channel=w_channel)


def theorem1_point(pair: HypothesisPair, w_channel: Channel, rate: float) -> TradeoffPoint:
    """Equivocation-privacy achievable point at the given rate (nats)."""
    return _theorem_point(pair, w_channel, rate, "equivocation")


def theorem2_point(pair: HypothesisPair, w_channel: Channel, rate: float) -> TradeoffPoint:
    """Distortion-privacy achievable point at the given rate."""
    return _theorem_point(pair, w_channel, rate, "distortion")


# ---------------------------------------------------------------------------
# testing against conditional independence
# ---------------------------------------------------------------------------

def _require_taci_axes(p_suyz: JointPmf):
    for name in ("S", "U", "Y", "Z"):
        p_suyz.axis_index(name)


def taci_point(p_suyz: JointPmf, w_channel: Channel) -> TaciPoint:
    """Region coordinates for one auxiliary channel: required rate I(W;U|Z),
    exponent I(W;Y|Z), null-hypothesis equivocation H(S|W,Y,Z).  All nats."""
    _require_taci_axes(p_suyz)
    j = attach_channel(p_suyz, w_channel)
    return TaciPoint(
        rate_needed=conditional_mutual_information(j, "W", "U", "Z"),
        exponent=conditional_mutual_information(j, "W", "Y", "Z"),
        equivocation0=conditional_entropy(j, "S", ("W", "Y", "Z")),
    )


def taci_alternate_law(p_suyz: JointPmf, q_s_given_uyz: np.ndarray) -> JointPmf:
    """Alternate joint Q_SUYZ = Q_{S|UYZ} P_{U|Z} P_{Y|Z} P_Z (conditional
    independence of U and Y given Z), from the null law's marginals."""
    _require_taci_axes(p_suyz)
    p_uyz = p_suyz.marginal_array(("U", "Y", "Z"))
    p_uz = p_uyz.sum(axis=1)
    p_yz = p_uyz.sum(axis=0)
    p_z = p_yz.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        q_uyz = np.einsum("uz,yz->uyz", p_uz, p_yz)
        q_uyz = np.divide(q_uyz, p_z[None, None, :], out=np.zeros_like(q_uyz),
                          where=p_z[None, None, :] > 0)
    cond = np.asarray(q_s_given_uyz, dtype=float)
    ns = cond.shape[-1]
    if cond.shape != p_uyz.shape + (ns,):
        raise ValueError(
            f"q_s_given_uyz shape {cond.shape} does not match (U,Y,Z,S) sizes"
        )
    q = np.einsum("uyz,uyzs->suyz", q_uyz, cond)
    names = ("S", "U", "Y", "Z")
    sizes = (ns,) + p_uyz.shape
    return JointPmf(tuple(zip(names, sizes)), q)


@dataclass(frozen=True)
class FrontierConfig:
    """Search configuration for the auxiliary-channel frontier sweep: the
    number of hill-climbed random channels per |W|, the seed of their draws,
    and the |W| values searched.  Each |W| is also seeded with
    ``_INTERPOLATIONS`` structured channels, and a binary source with
    |W| = 2 with a fixed crossover grid of ``_PAIR_GRID`` points per axis.
    A negative ``random_seeds`` and |W| < 1 raise ValueError."""

    random_seeds: int = 200
    rng_seed: int = 0
    w_sizes: tuple[int, ...] | None = None   # default 1 .. |U|+2

    def __post_init__(self):
        if self.random_seeds < 0:
            raise ValueError(f"random_seeds must be >= 0, got {self.random_seeds}")
        if self.w_sizes is not None and (not self.w_sizes or min(self.w_sizes) < 1):
            raise ValueError(f"w_sizes must be None or non-empty with entries >= 1, "
                             f"got {self.w_sizes}")


# structured channels per |W|: interpolations from a labeling to the uniform row
_INTERPOLATIONS = 201
# per-axis crossover grid for binary-output channels on a binary source
_PAIR_GRID = 51


# hill climbing: a coordinate step starts at _IMPROVE_STEP and shrinks by
# _IMPROVE_SHRINK after a pass with no gain, until it drops below
# _IMPROVE_FLOOR or _IMPROVE_MAX_PASSES passes have run
_IMPROVE_STEP, _IMPROVE_SHRINK, _IMPROVE_FLOOR, _IMPROVE_MAX_PASSES = 0.01, 0.5, 1e-4, 200


def _structured_channels(nu: int, nw: int) -> list[np.ndarray]:
    """Deterministic seed family: interpolations between a per-symbol labeling
    and the uniform row (sweeping disclosure from full to none), plus, for
    binary-output channels on a binary source, a dense crossover grid."""
    out: list[np.ndarray] = []
    det = np.zeros((nu, nw))
    for u in range(nu):
        det[u, u % nw] = 1.0
    uni = np.full((nu, nw), 1.0 / nw)
    for t in np.linspace(0.0, 1.0, _INTERPOLATIONS):
        out.append((1.0 - t) * det + t * uni)
    if nu == 2 and nw == 2:
        grid = np.linspace(0.0, 1.0, _PAIR_GRID)
        for a in grid:
            for b in grid:
                out.append(np.array([[1.0 - a, a], [b, 1.0 - b]]))
    return out


def pareto_filter(points: list[TradeoffPoint]) -> list[TradeoffPoint]:
    if not points:
        return []
    coords = np.array([(p.rate, p.exponent, p.privacy0) for p in points])
    n = len(points)
    keep = np.ones(n, dtype=bool)
    eps = 1e-15
    for i in range(n):
        if not keep[i]:
            continue
        r, e, s = coords[i]
        leq_rate = coords[:, 0] <= r + eps
        geq_exp = coords[:, 1] >= e - eps
        geq_priv = coords[:, 2] >= s - eps
        strict = (coords[:, 0] < r - eps) | (coords[:, 1] > e + eps) | (coords[:, 2] > s + eps)
        dominating = leq_rate & geq_exp & geq_priv & strict
        dominating[i] = False
        if dominating.any():
            keep[i] = False
            continue
        # drop exact duplicates beyond the first occurrence
        dup = (np.abs(coords[:i, 0] - r) < eps) & (np.abs(coords[:i, 1] - e) < eps) \
            & (np.abs(coords[:i, 2] - s) < eps)
        if dup.any():
            keep[i] = keep[i] and not keep[:i][dup].any()
    return [p for p, k in zip(points, keep) if k]


def taci_frontier(p_suyz: JointPmf, q_s_given_uyz: np.ndarray,
                  config: FrontierConfig | None = None) -> list[TradeoffPoint]:
    """Pareto-nondominated achievable points over sampled auxiliary channels.

    Searches |W| in {1, ..., |U|+2} (the cardinality bound) unless
    ``config.w_sizes`` names the sizes, seeding each size with the
    ``_INTERPOLATIONS`` structured channels (and the crossover grid when
    |U| = |W| = 2) plus ``config.random_seeds`` random channels, each of
    which hill-climbs a random linear scalarization of (-rate, exponent,
    equivocation) coordinate by coordinate.  So the front is never empty.
    Every emitted point stores its channel, so it can be reproduced exactly
    by :func:`taci_point`.
    """
    cfg = config or FrontierConfig()
    _require_taci_axes(p_suyz)
    nu = p_suyz.axis_size("U")
    q_joint = taci_alternate_law(p_suyz, q_s_given_uyz)
    lambda_min = conditional_entropy(q_joint, "S", ("U", "Y", "Z"))
    w_sizes = tuple(range(1, nu + 3)) if cfg.w_sizes is None else cfg.w_sizes
    rng = np.random.default_rng(cfg.rng_seed)

    def evaluate(rows: np.ndarray) -> TradeoffPoint:
        chan = Channel(rows)
        tp = taci_point(p_suyz, chan)
        return TradeoffPoint(tp.rate_needed, tp.exponent, tp.equivocation0,
                             lambda_min, "equivocation", channel=chan)

    def scalarized(point: TradeoffPoint, w: np.ndarray) -> float:
        return -w[0] * point.rate + w[1] * point.exponent + w[2] * point.privacy0

    def improve(rows: np.ndarray, weights: np.ndarray) -> list[TradeoffPoint]:
        # hill-climb a random scalarization of the three objectives
        nw = rows.shape[1]
        point = evaluate(rows)
        out = [point]
        if weights.sum() <= 0:
            return out
        best, best_rows = point, rows
        step = _IMPROVE_STEP
        passes = 0
        while step >= _IMPROVE_FLOOR and passes < _IMPROVE_MAX_PASSES:
            passes += 1
            improved = False
            for u in range(nu):
                for w in range(nw):
                    for sign in (+1.0, -1.0):
                        trial = best_rows.copy()
                        trial[u, w] = max(trial[u, w] + sign * step, 0.0)
                        s = trial[u].sum()
                        if s <= 0:
                            continue
                        trial[u] /= s
                        cand = evaluate(trial)
                        if scalarized(cand, weights) > scalarized(best, weights) + 1e-12:
                            best, best_rows = cand, trial
                            improved = True
            if not improved:
                step *= _IMPROVE_SHRINK
        out.append(best)
        return out

    # structured seeds first, then hill climbs in draw order: this fixes the channel ids
    structured: list[np.ndarray] = []
    random_jobs: list[tuple[np.ndarray, np.ndarray]] = []
    for nw in w_sizes:
        structured.extend(_structured_channels(nu, nw))
        for _ in range(cfg.random_seeds):
            rows = rng.gamma(1.0, 1.0, size=(nu, nw))
            rows /= rows.sum(axis=1, keepdims=True)
            random_jobs.append((rows, rng.random(3)))

    candidates: list[TradeoffPoint] = [evaluate(rows) for rows in structured]
    for job in random_jobs:
        candidates.extend(improve(*job))

    front = pareto_filter(candidates)
    return [replace(p, channel_id=f"ch{idx:04d}") for idx, p in enumerate(front)]


# ---------------------------------------------------------------------------
# binary closed form
# ---------------------------------------------------------------------------

def example1_closed_form(p: float, q: float, r: float) -> tuple[float, float, float]:
    """Boundary curve of the binary cascade instance, in bits:
    rate 1 - h(r), exponent 1 - h((r*q)*p), equivocation h(p)+h(q*r)-h(p*(q*r))."""
    for name, val in (("p", p), ("q", q)):
        if not 0.0 <= val <= 1.0:
            raise ValueError(f"{name}={val} outside [0, 1]")
    if not 0.0 <= r <= 0.5:
        raise ValueError(f"r={r} outside [0, 0.5]")
    rate = 1.0 - binary_entropy(r)
    exponent = 1.0 - binary_entropy(star(star(r, q), p))
    qr = star(q, r)
    equivocation = binary_entropy(p) + binary_entropy(qr) - binary_entropy(star(p, qr))
    return rate, exponent, equivocation


# ---------------------------------------------------------------------------
# zero-rate regime
# ---------------------------------------------------------------------------

def zero_rate_exponent_solution(p_u: Pmf, p_v: Pmf, q_uv: JointPmf) -> CouplingSolution:
    """min KL(coupling || Q_UV) over couplings with marginals (P_U, P_V)."""
    ref = q_uv.probs
    if ref.shape != (p_u.support_size, p_v.support_size):
        raise ValueError(
            f"q_uv shape {ref.shape} does not match marginals "
            f"({p_u.support_size}, {p_v.support_size})"
        )
    cons = (((0,), p_u.probs), ((1,), p_v.probs))
    return solve_coupling(CouplingProblem(ref, cons))


def zero_rate_exponent(p_u: Pmf, p_v: Pmf, q_uv: JointPmf) -> float:
    return zero_rate_exponent_solution(p_u, p_v, q_uv).objective


def zero_rate_privacy(pair: HypothesisPair) -> ZeroRatePrivacy:
    """Maximal zero-rate privacy levels: per-letter Bayes distortions given V
    alone and the conditional equivocations H(S|V) under each hypothesis."""
    v_axes = pair.v_axes
    deltas = [None, None]
    if pair.distortion is not None:
        deltas = [
            _min_expected_distortion(pair.law(h), v_axes, pair) for h in (0, 1)
        ]
    return ZeroRatePrivacy(
        delta0_max=deltas[0],
        delta1_max=deltas[1],
        lambda0_max=conditional_entropy(pair.p, "S", v_axes),
        lambda1_max=conditional_entropy(pair.q, "S", v_axes),
    )


def bayes_estimator(posterior, distortion) -> tuple[int, float]:
    """argmin over reconstructions of the posterior-expected distortion.

    Ties break toward the smallest index (np.argmin's convention).
    """
    post = posterior.probs if isinstance(posterior, Pmf) else np.asarray(posterior, float)
    d = np.asarray(distortion, dtype=float)
    if d.ndim != 2 or d.shape[0] != post.size:
        raise ValueError(f"distortion table {d.shape} does not cover posterior of size {post.size}")
    costs = post @ d
    idx = int(np.argmin(costs))
    return idx, float(costs[idx])
