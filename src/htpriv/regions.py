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
from dataclasses import dataclass, field, replace

import numpy as np

from .probcore import (
    Channel,
    JointPmf,
    Pmf,
    bayes_decision,
    binary_entropy,
    cond_entropy_of_array,
    kl_of_arrays,
    marginal_of_array,
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

    ``suv[h]`` is the law of hypothesis h laid out once as a read-only
    (|S|, |U|, |V|) array, V flattened in declared axis order; the general
    inner bound, the zero-rate and counterexample levels and the block
    audits of ``adversary`` read it by axis position.
    """

    p: JointPmf
    q: JointPmf
    distortion: np.ndarray | None = None
    d_max: float | None = None
    suv: np.ndarray = field(init=False, repr=False, compare=False)

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
            if not np.isfinite(d).all():
                raise ValueError("distortion entries must be finite")
            if not math.isfinite(dm):
                raise ValueError(f"d_max must be finite, got {dm}")
            if d.min() < 0 or d.max() > dm + 1e-12:
                raise ValueError("distortion entries must lie in [0, d_max]")
            d.flags.writeable = False
            object.__setattr__(self, "distortion", d)
            object.__setattr__(self, "d_max", dm)
        suv = np.stack([law.marginal_array(("S", "U") + self.v_axes) for law in (self.p, self.q)])
        suv = suv.reshape(2, self.p.axis_size("S"), self.u_size(), -1)
        suv.flags.writeable = False
        object.__setattr__(self, "suv", suv)

    @property
    def v_axes(self) -> tuple[str, ...]:
        return tuple(n for n in self.p.names if n not in ("S", "U"))

    def u_size(self) -> int:
        return self.p.axis_size("U")

    def law(self, hypothesis: int) -> JointPmf:
        return self.p if hypothesis == 0 else self.q

    def uv_law(self, hypothesis: int) -> np.ndarray:
        """Joint of (U, V-flat) under one hypothesis, shape (|U|, |V|)."""
        return self.suv[hypothesis].sum(axis=0)

    def same_u_marginals(self) -> bool:
        """Whether P_U = Q_U within ``probcore.PMF_EQ_TOL``."""
        return pmf_close(*self.suv.sum(axis=(1, 3)))


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


@dataclass(frozen=True, slots=True)
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
    sweeps: int = 0                  # I-projection sweeps summed over the solve
    steps: int = 0                   # majorize-minimize steps (0 without an active floor)


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
        if not abs(s - 1.0) <= 1e-9:   # NaN mass too
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


class _Plan:
    """The checked constraints of one solve, laid out so that an I-projection
    sweep allocates nothing.

    Per constraint it holds the summed axes, the broadcast target and views
    of the same shape into one flat buffer each for the marginal, the
    deviation from the target, the positivity mask, the ratio and the
    scaling window.  :func:`solve_coupling` builds one and every
    majorize-minimize step reuses it; ``sweeps`` counts the sweeps run on it.

    Raises ValueError when there is no constraint or the reference is not a
    pmf (finite, nonnegative, of mass 1 within 1e-9), and whatever
    :func:`_broadcast_constraints` raises.
    """

    def __init__(self, reference, constraints):
        ref = np.asarray(reference, dtype=float)
        if len(constraints) == 0:
            raise ValueError("a coupling problem needs at least one marginal constraint")
        # a NaN or infinite cell makes the mass NaN or infinite
        mass = float(ref.sum())
        if not (abs(mass - 1.0) <= 1e-9 and ref.min() >= 0):
            raise ValueError(f"the reference is not a pmf: mass {mass}, least cell "
                             f"{ref.min(initial=math.inf)}")
        self.ref, self.cons, self.sweeps = ref, _broadcast_constraints(ref, constraints), 0
        ends = np.cumsum([tgt.size for _, tgt in self.cons])
        cur, self.dev, self.ratio, self.window = (np.empty(ends[-1]) for _ in range(4))
        pos = np.empty(ends[-1], dtype=bool)

        def views(buf):
            return [part.reshape(tgt.shape)
                    for part, (_, tgt) in zip(np.split(buf, ends[:-1]), self.cons)]

        self.windows = views(self.window)
        self.slots = [(tuple(i for i in range(ref.ndim) if i not in axes), tgt, *bufs)
                      for (axes, tgt), *bufs in zip(self.cons, views(cur), views(self.dev),
                                                    views(pos), views(self.ratio))]

    def measure(self, x: np.ndarray) -> None:
        """Each marginal of ``x`` into its marginal buffer, and its deviation
        from the target into ``dev``."""
        for drop, tgt, cur, dev, _, _ in self.slots:
            np.add.reduce(x, axis=drop, keepdims=True, out=cur)
            np.subtract(cur, tgt, out=dev)


def _ipf(base: np.ndarray, plan: _Plan) -> tuple[np.ndarray, float, str]:
    """Cyclic I-projection of ``base`` onto the constraints of ``plan``.

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
    without them.

    A sweep writes every marginal, deviation, mask and ratio into the plan's
    buffers, so it allocates nothing.  Per constraint it makes the calls of
    ``cur = x.sum(drop, keepdims=True)``, ``np.divide(tgt, cur, where=cur >
    0)`` and ``x *= ratio``, in constraint order, so the point is bit for
    bit the one such a loop gives.  Adds the sweeps run to ``plan.sweeps``.
    Returns (point, worst final residual, stop reason).
    """
    x, check, stop = base.copy(), 2 * _WINDOW_START, "sweep_cap"
    reduce, subtract, greater, divide, multiply = (
        np.add.reduce, np.subtract, np.greater, np.divide, np.multiply)
    slots, dev, ratio, window = plan.slots, plan.dev, plan.ratio, plan.window
    for sweep in range(_MAX_SWEEPS):
        ratio.fill(0.0)
        for drop, tgt, cur, d, pos, r in slots:
            reduce(x, drop, None, cur, True)   # x.sum(drop, keepdims=True), into cur
            subtract(cur, tgt, d)
            greater(cur, 0.0, pos)
            divide(tgt, cur, r, where=pos)
            multiply(x, r, x)
        if sweep >= _WINDOW_START:
            if sweep == _WINDOW_START:
                window.fill(1.0)
            multiply(window, ratio, window)
        if np.maximum.reduce(np.abs(dev, dev)) < _IPF_TOL:
            stop = "converged"
            break
        # checked once: in every sweep it would slow the long support solves
        if sweep == 0:
            plan.measure(x)
            if any(np.any((tgt > _RESIDUAL_TOL) & (cur == 0)) for _, tgt, cur, *_ in slots):
                stop = "empty_slice"
                break
        if sweep + 1 == check:
            if _certifies(base > 0, plan.cons, plan.windows):
                stop = "certificate"
                break
            check *= 2
            window.fill(1.0)
    plan.sweeps += sweep + 1
    # final residual after the last rescale
    plan.measure(x)
    return x, float(np.abs(dev).max()), stop


def _grad_neg_cond_entropy(x: np.ndarray, target, given) -> np.ndarray:
    """Gradient of -H(target|given) wrt the joint: log x(target|given), broadcast."""
    m = _sum_to(x, target + given)
    with np.errstate(divide="ignore", invalid="ignore"):
        lc = np.log(m) - (np.log(m.sum(axis=target, keepdims=True)) if given else 0.0)
    return np.where(np.isfinite(lc), lc, 0.0)


def _entropy_floor(spec, ndim: int) -> tuple[tuple[int, ...], tuple[int, ...], float] | None:
    """The entropy floor ``spec`` as (target, given, floor) with tuple axes, or
    None without one.  Raises ValueError unless the target is nonempty, the
    target and given axes are distinct positions of an ``ndim``-axis
    reference, and the floor is finite."""
    if spec is None:
        return None
    target, given, floor = spec
    target, given = tuple(target), tuple(given)
    axes = target + given
    if (not target or len(set(axes)) != len(axes) or not all(0 <= a < ndim for a in axes)
            or not math.isfinite(floor)):
        raise ValueError(f"entropy_floor {spec} needs a nonempty target, target and given "
                         f"axes that are distinct positions of a {ndim}-axis reference, "
                         f"and a finite floor")
    return target, given, floor


def solve_coupling(problem: CouplingProblem) -> CouplingSolution:
    """Solve the constrained KL minimization.

    The reference and each marginal target are checked once, and the
    targets are reshaped to broadcast over the reference, in one
    :class:`_Plan` that every I-projection of the solve reuses; a target
    whose mass differs from the first one's by more than 1e-14 is rescaled
    to it, and the residual is measured against the rescaled targets.  With
    marginal constraints only the answer is the cyclic I-projection of the
    reference, which converges geometrically and lands on the constraint
    set.  ``sweeps`` on the solution counts the sweeps of every
    I-projection of the solve, and ``steps`` its majorize-minimize steps.

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
    apart.  Mutually inconsistent targets, or one that is not a pmf, raise
    :class:`InfeasibleConstraintsError`; no constraint at all, a reference
    that is not a pmf (finite, nonnegative, of mass 1 within 1e-9), a
    repeated or out-of-range axis, a target of the wrong shape, or an
    entropy floor whose target is empty, whose axes are not distinct
    positions of the reference, or whose floor is not finite raises
    ValueError.
    """
    plan = _Plan(problem.reference, problem.marginal_constraints)
    ref = plan.ref
    floor_spec = _entropy_floor(problem.entropy_floor, ref.ndim)

    x, res, stop = _ipf(ref, plan)
    # an empty slice always leaves a residual above the tolerance
    if stop == "certificate" or res > _RESIDUAL_TOL:
        return CouplingSolution(math.inf, None, res, 0.0, 0.0, stop, plan.sweeps)

    if floor_spec is None:
        return CouplingSolution(kl_of_arrays(x, ref), x, res, 0.0, 0.0, stop, plan.sweeps)

    target, given, floor = floor_spec
    h = cond_entropy_of_array(x, target, given)
    if h >= floor - _INACTIVE_TOL:
        return CouplingSolution(kl_of_arrays(x, ref), x, res, h - floor, 0.0, stop, plan.sweeps)

    sup = ref > 0
    logref = np.where(sup, np.log(np.where(sup, ref, 1.0)), -np.inf)
    steps = 0

    def solve(t: float, x: np.ndarray):
        # majorize-minimize steps for KL(x || ref) - t H(target|given)
        nonlocal steps
        for _ in range(_MAX_STEPS):
            steps += 1
            with np.errstate(divide="ignore"):
                logx = np.log(x)
            logbase = (logref + t * (logx - _grad_neg_cond_entropy(x, target, given))) / (1 + t)
            ok = np.isfinite(logbase)
            base = np.where(ok, np.exp(np.where(ok, logbase, 0.0) - logbase[ok].max()), 0.0)
            xn, res, stop = _ipf(base, plan)
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
    return CouplingSolution(kl_of_arrays(x_hi, ref), x_hi, res_hi, h_hi - floor, hi, stop_hi,
                            plan.sweeps, steps)


# ---------------------------------------------------------------------------
# exponent terms of the general inner bound
# ---------------------------------------------------------------------------

def _coupling_frame(pair: HypothesisPair, w_channel: Channel) -> tuple[np.ndarray, np.ndarray]:
    """The (U, V, W) laws of the null and of the reference for both KL
    programs: each hypothesis's (U, V) law, S summed out, through the channel."""
    return tuple(w_channel.attach(pair.uv_law(h), 0) for h in (0, 1))


def exponent_e1_solution(pair: HypothesisPair, w_channel: Channel) -> CouplingSolution:
    """First exponent term: min KL against the alternate law tilted through the
    channel, over joint laws matching the (U, W) and (V, W) marginals of the null."""
    p_uvw, ref = _coupling_frame(pair, w_channel)
    cons = tuple((axes, marginal_of_array(p_uvw, axes)) for axes in ((0, 2), (1, 2)))
    return solve_coupling(CouplingProblem(ref, cons))


def exponent_e1(pair: HypothesisPair, w_channel: Channel) -> float:
    return exponent_e1_solution(pair, w_channel).objective


def exponent_e2_solution(rate: float, pair: HypothesisPair,
                         w_channel: Channel) -> tuple[float, CouplingSolution | None]:
    """Second exponent term (binning error): +inf unless I_P(U;W) > rate, else the
    KL minimum over the relaxed set plus the rate penalty (rate - I_P(U;W|V)).
    A rate that is not >= 0, NaN included, raises ValueError; rate +inf gives +inf."""
    if not rate >= 0:   # NaN too
        raise ValueError(f"rate must be >= 0, got {rate}")
    p_uvw, ref = _coupling_frame(pair, w_channel)
    i_uw = cond_entropy_of_array(p_uvw, (0,), ()) - cond_entropy_of_array(p_uvw, (0,), (2,))
    if i_uw <= rate:
        return math.inf, None
    i_uw_given_v = (cond_entropy_of_array(p_uvw, (0,), (1,))
                    - cond_entropy_of_array(p_uvw, (0,), (1, 2)))
    floor = cond_entropy_of_array(p_uvw, (2,), (1,))
    cons = tuple((axes, marginal_of_array(p_uvw, axes)) for axes in ((0, 2), (1,)))
    sol = solve_coupling(CouplingProblem(ref, cons, entropy_floor=((2,), (1,), floor)))
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

def _privacy_level(x: np.ndarray, cond: tuple[int, ...], pair: HypothesisPair,
                   kind: str) -> float:
    """Single-letter privacy of S, axis 0 of the law ``x``, given its axes
    at positions ``cond``: the equivocation H(S | cond), or the Bayes
    distortion min over deterministic estimators of E d(S, phi(cond))."""
    if kind == "equivocation":
        return cond_entropy_of_array(x, (0,), cond)
    if pair.distortion is None:
        raise ValueError("HypothesisPair has no distortion table")
    return bayes_decision(marginal_of_array(x, (0,) + cond), pair.distortion, 0)[1]


def _theorem_point(pair: HypothesisPair, w_channel: Channel, rate: float,
                   kind: str) -> TradeoffPoint:
    # (S, U, V, W) under each hypothesis
    p_suvw, q_suvw = (w_channel.attach(law, 1) for law in pair.suv)
    needed = (cond_entropy_of_array(p_suvw, (3,), (2,))
              - cond_entropy_of_array(p_suvw, (3,), (1, 2)))
    feasible = rate >= needed - 1e-12
    exponent = kappa_star(rate, pair, w_channel)
    privacy0 = _privacy_level(p_suvw, (3, 2), pair, kind)
    # the alternate hypothesis sees W only when the U-marginals coincide
    privacy1 = _privacy_level(q_suvw, (3, 2) if pair.same_u_marginals() else (2,), pair, kind)
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

def _taci_array(p_suyz: JointPmf) -> np.ndarray:
    """The law laid out as an (S, U, Y, Z) array, whatever the declared axis
    order; a missing axis raises UnknownAxisError."""
    return p_suyz.marginal_array(("S", "U", "Y", "Z"))


def _taci_coords(x_suyz: np.ndarray, w_channel: Channel) -> TaciPoint:
    """:func:`taci_point` of the law already laid out as an (S, U, Y, Z) array."""
    # (S, U, Y, Z, W)
    x = w_channel.attach(x_suyz, 1)
    h_w_z = cond_entropy_of_array(x, (4,), (3,))
    return TaciPoint(
        rate_needed=h_w_z - cond_entropy_of_array(x, (4,), (1, 3)),
        exponent=h_w_z - cond_entropy_of_array(x, (4,), (2, 3)),
        equivocation0=cond_entropy_of_array(x, (0,), (2, 3, 4)),
    )


def taci_point(p_suyz: JointPmf, w_channel: Channel) -> TaciPoint:
    """Region coordinates for one auxiliary channel: required rate I(W;U|Z),
    exponent I(W;Y|Z), null-hypothesis equivocation H(S|W,Y,Z).  All nats."""
    return _taci_coords(_taci_array(p_suyz), w_channel)


def taci_alternate_law(p_suyz: JointPmf, q_s_given_uyz: np.ndarray) -> JointPmf:
    """Alternate joint Q_SUYZ = Q_{S|UYZ} P_{U|Z} P_{Y|Z} P_Z (conditional
    independence of U and Y given Z), from the null law's marginals.
    ``q_s_given_uyz`` is indexed (U, Y, Z, S) over the null law's alphabets."""
    p = _taci_array(p_suyz)
    p_uyz = p.sum(axis=0)
    p_uz = p_uyz.sum(axis=1)
    p_yz = p_uyz.sum(axis=0)
    p_z = p_yz.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        q_uyz = np.einsum("uz,yz->uyz", p_uz, p_yz)
        q_uyz = np.divide(q_uyz, p_z[None, None, :], out=np.zeros_like(q_uyz),
                          where=p_z[None, None, :] > 0)
    cond = np.asarray(q_s_given_uyz, dtype=float)
    ns = p.shape[0]
    if cond.shape[:-1] != p_uyz.shape:
        raise ValueError(
            f"q_s_given_uyz shape {cond.shape} does not match (U,Y,Z,S) sizes"
        )
    if cond.shape[-1] != ns:
        raise ValueError(f"q_s_given_uyz is over {cond.shape[-1]} letters of S, "
                         f"the null law over |S| = {ns}")
    q = np.einsum("uyz,uyzs->suyz", q_uyz, cond)
    return JointPmf(tuple(zip(("S", "U", "Y", "Z"), p.shape)), q)


@dataclass(frozen=True)
class FrontierConfig:
    """Search configuration for the auxiliary-channel frontier sweep: the
    number of hill-climbed random channels per |W|, the seed of their draws,
    and the |W| values searched.  Each |W| is also seeded with
    ``_INTERPOLATIONS`` structured channels, and a binary source with
    |W| = 2 with a fixed crossover grid of ``_PAIR_GRID`` points per axis.
    A negative ``random_seeds``, |W| < 1 and a repeated |W| raise ValueError."""

    random_seeds: int = 200
    rng_seed: int = 0
    w_sizes: tuple[int, ...] | None = None   # default 1 .. |U|+2

    def __post_init__(self):
        if self.random_seeds < 0:
            raise ValueError(f"random_seeds must be >= 0, got {self.random_seeds}")
        if self.w_sizes is not None and (not self.w_sizes or min(self.w_sizes) < 1
                                         or len(set(self.w_sizes)) != len(self.w_sizes)):
            raise ValueError(f"w_sizes must be None or non-empty with distinct entries "
                             f">= 1, got {self.w_sizes}")


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
    p = _taci_array(p_suyz)
    nu = p.shape[1]
    q = taci_alternate_law(p_suyz, q_s_given_uyz)
    lambda_min = cond_entropy_of_array(q.probs, (0,), (1, 2, 3))
    w_sizes = tuple(range(1, nu + 3)) if cfg.w_sizes is None else cfg.w_sizes
    rng = np.random.default_rng(cfg.rng_seed)

    def evaluate(rows: np.ndarray) -> TradeoffPoint:
        chan = Channel(rows)
        tp = _taci_coords(p, chan)
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
    def levels(kind):
        return [_privacy_level(pair.suv[h], (2,), pair, kind) for h in (0, 1)]

    deltas = levels("distortion") if pair.distortion is not None else [None, None]
    lambdas = levels("equivocation")
    return ZeroRatePrivacy(delta0_max=deltas[0], delta1_max=deltas[1],
                           lambda0_max=lambdas[0], lambda1_max=lambdas[1])
