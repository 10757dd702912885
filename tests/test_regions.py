"""Trade-off evaluators: analytic identities, grid-oracle cross-checks,
and optimizer certificates."""

import itertools
import math
import re
import time

import numpy as np
import pytest

from htpriv import instances, oracle
from htpriv.probcore import (
    Channel,
    JointPmf,
    Pmf,
    binary_entropy,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    kl_of_arrays,
    marginal_of_array,
    mutual_information,
)
from htpriv.regions import (
    CouplingProblem,
    FrontierConfig,
    HypothesisPair,
    InfeasibleConstraintsError,
    attach_channel,
    bayes_estimator,
    example1_closed_form,
    exponent_e1,
    exponent_e1_solution,
    exponent_e2,
    exponent_e2_solution,
    kappa_star,
    solve_coupling,
    taci_frontier,
    taci_point,
    theorem1_point,
    theorem2_point,
    zero_rate_exponent,
    zero_rate_privacy,
)
from htpriv.regions import _broadcast_constraints, _ipf

from conftest import MASTER_SEED, random_channel, random_joint, random_pmf, random_suv_joint

LN2 = math.log(2.0)


def random_taci_joint(rng, ns=2, nu=3, ny=3, nz=2) -> JointPmf:
    """Random null law P_SUYZ = P_Z P_{U|Z} P_{Y|UZ} P_{S|UYZ}."""
    p_z = rng.gamma(1, 1, nz); p_z /= p_z.sum()
    p_u_z = rng.gamma(1, 1, (nz, nu)); p_u_z /= p_u_z.sum(1, keepdims=True)
    p_y_uz = rng.gamma(1, 1, (nu, nz, ny)); p_y_uz /= p_y_uz.sum(2, keepdims=True)
    p_s_uyz = rng.gamma(1, 1, (nu, ny, nz, ns)); p_s_uyz /= p_s_uyz.sum(3, keepdims=True)
    probs = np.einsum("z,zu,uzy,uyzs->suyz", p_z, p_u_z, p_y_uz, p_s_uyz)
    return JointPmf((("S", ns), ("U", nu), ("Y", ny), ("Z", nz)), probs)


def taci_pair(p_suyz: JointPmf, rng) -> HypothesisPair:
    """Alternate law with U and Y conditionally independent given Z."""
    ns = p_suyz.axis_size("S")
    q_cond = rng.gamma(1, 1, (p_suyz.axis_size("U"), p_suyz.axis_size("Y"),
                              p_suyz.axis_size("Z"), ns))
    q_cond /= q_cond.sum(-1, keepdims=True)
    from htpriv.regions import taci_alternate_law
    q = taci_alternate_law(p_suyz, q_cond)
    return HypothesisPair(p_suyz, q, distortion=instances.hamming(ns))


class TestExponentE1:
    def test_zero_when_alternate_equals_null(self, rng):
        j = random_suv_joint(rng)
        pair = HypothesisPair(j, j)
        chan = random_channel(rng, 2, 2)
        assert exponent_e1(pair, chan) == pytest.approx(0.0, abs=1e-10)

    def test_taci_identity(self):
        # E1 reduces to I_P(Y;W|Z) when the alternate law factorizes as
        # P_{U|Z} P_{Y|Z} P_Z (conditional independence)
        rng = np.random.default_rng(MASTER_SEED + 10)
        for _ in range(4):
            p = random_taci_joint(rng)
            pair = taci_pair(p, rng)
            chan = random_channel(rng, 3, 2)
            j = attach_channel(p, chan)
            target = conditional_mutual_information(j, "Y", "W", "Z")
            assert exponent_e1(pair, chan) == pytest.approx(target, abs=1e-9)

    def test_matches_grid_oracle_2x2x2(self):
        rng = np.random.default_rng(MASTER_SEED + 11)
        for _ in range(3):
            pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng))
            chan = random_channel(rng, 2, 2)
            sol = exponent_e1_solution(pair, chan)
            p_joint = attach_channel(pair.p.marginal(("U", "V")), chan)
            ref = attach_channel(pair.q.marginal(("U", "V")), chan).probs
            cons = [
                ((0, 2), p_joint.marginal_array(("U", "W"))),
                ((1, 2), p_joint.marginal_array(("V", "W"))),
            ]
            grid = oracle.grid_min_kl(ref, cons)
            assert grid >= sol.objective - 1e-9
            assert grid <= sol.objective + 2e-3

    def test_infinite_on_support_violation(self, rng):
        # null puts mass on a U letter the alternate never emits
        pj = random_suv_joint(rng).probs
        qj = pj.copy()
        qj[:, 1, :] = 0.0
        qj /= qj.sum()
        axes = (("S", 2), ("U", 2), ("V", 2))
        pair = HypothesisPair(JointPmf(axes, pj), JointPmf(axes, qj))
        chan = Channel(np.eye(2))
        start = time.perf_counter()
        assert exponent_e1(pair, chan) == math.inf
        assert time.perf_counter() - start < 1.0

    def test_inconsistent_constraints_error(self):
        ref = np.full((2, 2), 0.25)
        cons = (((0,), np.array([0.7, 0.3])), ((1,), np.array([0.2, 0.8])))
        bad = (((0,), np.array([0.7, 0.3])), ((0,), np.array([0.6, 0.4])))
        solve_coupling(CouplingProblem(ref, cons))  # fine
        with pytest.raises(InfeasibleConstraintsError):
            solve_coupling(CouplingProblem(ref, bad))


class TestExponentE2:
    def test_infinite_above_mutual_information(self, rng):
        pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng))
        chan = random_channel(rng, 2, 2)
        p_joint = attach_channel(pair.p.marginal(("U", "V")), chan)
        i_uw = mutual_information(p_joint, "U", "W")
        assert exponent_e2(i_uw + 0.01, pair, chan) == math.inf
        assert exponent_e2(i_uw, pair, chan) == math.inf

    def test_zero_rate_equal_laws_vs_grid(self):
        rng = np.random.default_rng(MASTER_SEED + 12)
        j = random_suv_joint(rng)
        pair = HypothesisPair(j, j)
        chan = random_channel(rng, 2, 2)
        val, sol = exponent_e2_solution(0.0, pair, chan)
        p_joint = attach_channel(pair.p.marginal(("U", "V")), chan)
        i_uwv = conditional_mutual_information(p_joint, "U", "W", "V")
        # additive term is -I_P(U;W|V) <= 0, KL part >= 0
        assert val <= 1e-9
        assert sol.objective >= -1e-12
        ref = attach_channel(pair.q.marginal(("U", "V")), chan).probs
        floor = conditional_entropy(p_joint, "W", "V")
        cons = [
            ((0, 2), p_joint.marginal_array(("U", "W"))),
            ((1,), p_joint.marginal_pmf("V").probs),
        ]
        grid = oracle.grid_min_kl(ref, cons, entropy_floor=((2,), (1,), floor))
        assert grid >= sol.objective - 1e-9
        assert grid <= sol.objective + 2e-3
        assert val == pytest.approx(sol.objective - i_uwv, abs=1e-12)

    def test_entropy_active_case_vs_grid(self):
        # seeds chosen so the conditional-entropy constraint binds
        rng = np.random.default_rng(11)
        found_active = 0
        for _ in range(8):
            p = random_suv_joint(rng)
            q = random_suv_joint(rng)
            chan = random_channel(rng, 2, 2)
            pair = HypothesisPair(p, q)
            val, sol = exponent_e2_solution(0.0, pair, chan)
            if sol is None or sol.multiplier == 0.0:
                continue
            found_active += 1
            assert sol.entropy_slack >= -1e-8
            assert sol.residual < 1e-9
            p_joint = attach_channel(pair.p.marginal(("U", "V")), chan)
            ref = attach_channel(pair.q.marginal(("U", "V")), chan).probs
            floor = conditional_entropy(p_joint, "W", "V")
            cons = [
                ((0, 2), p_joint.marginal_array(("U", "W"))),
                ((1,), p_joint.marginal_pmf("V").probs),
            ]
            grid = oracle.grid_min_kl(ref, cons, entropy_floor=((2,), (1,), floor))
            assert grid >= sol.objective - 1e-6
            if found_active >= 2:
                break
        assert found_active >= 1

    @pytest.mark.filterwarnings("ignore:delta_grad == 0.0")
    def test_entropy_active_case_vs_scipy(self):
        # third route: null-space-reduced convex program via trust-constr
        from scipy.optimize import LinearConstraint, NonlinearConstraint, minimize
        rng = np.random.default_rng(11)
        found = 0
        for _ in range(12):
            pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng))
            chan = random_channel(rng, 2, 2)
            _, sol = exponent_e2_solution(0.0, pair, chan)
            if sol is None or sol.multiplier == 0.0:
                continue
            found += 1
            p_joint = attach_channel(pair.p.marginal(("U", "V")), chan)
            ref = attach_channel(pair.q.marginal(("U", "V")), chan).probs
            floor = conditional_entropy(p_joint, "W", "V")
            p_uw = p_joint.marginal_array(("U", "W"))
            p_v = p_joint.marginal_pmf("V").probs
            rows, rhs = [], []
            for u in range(2):
                for w in range(2):
                    sel = np.zeros((2, 2, 2)); sel[u, :, w] = 1
                    rows.append(sel.ravel()); rhs.append(p_uw[u, w])
            for v in range(2):
                sel = np.zeros((2, 2, 2)); sel[:, v, :] = 1
                rows.append(sel.ravel()); rhs.append(p_v[v])
            A = np.array(rows); b = np.array(rhs)
            x0, *_ = np.linalg.lstsq(A, b, rcond=None)
            _, sv, vh = np.linalg.svd(A)
            null = vh[int((sv > 1e-12 * sv[0]).sum()):].T
            refv = ref.ravel()

            def f(theta):
                x = np.maximum(x0 + null @ theta, 1e-300)
                return float(np.sum(x * (np.log(x) - np.log(refv))))

            def hcon(theta):
                x = np.maximum(x0 + null @ theta, 0).reshape(2, 2, 2)
                m = x.sum(axis=0)
                mv = m.sum(axis=1)
                hj = -np.sum(m[m > 0] * np.log(m[m > 0]))
                hv = -np.sum(mv[mv > 0] * np.log(mv[mv > 0]))
                return hj - hv

            best = math.inf
            for s in range(4):
                r2 = np.random.default_rng(s)
                res = minimize(
                    f, 0.01 * r2.standard_normal(null.shape[1]),
                    method="trust-constr",
                    constraints=[LinearConstraint(null, -x0 + 1e-12, np.inf),
                                 NonlinearConstraint(hcon, floor, np.inf)],
                    options={"maxiter": 2000, "gtol": 1e-12, "xtol": 1e-14},
                )
                if res.fun < best and hcon(res.x) >= floor - 1e-8:
                    best = res.fun
            assert sol.objective == pytest.approx(best, abs=2e-6)
            if found >= 2:
                break
        assert found >= 1

    def test_degenerate_w_reduces_to_zero_rate(self, rng):
        pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng))
        chan = Channel(np.ones((2, 1)))  # |W| = 1
        rate = 0.3
        # I(U;W) = 0 <= rate, so the binning branch is off
        assert exponent_e2(rate, pair, chan) == math.inf
        # at rate below I(U;W) the case cannot arise for constant W; instead
        # check the KL part against the zero-rate program directly
        p_u = pair.p.marginal_pmf("U")
        p_v = pair.p.marginal_pmf("V")
        q_uv = pair.q.marginal(("U", "V"))
        zr = zero_rate_exponent(p_u, p_v, q_uv)
        p_joint = attach_channel(pair.p.marginal(("U", "V")), chan)
        ref = attach_channel(pair.q.marginal(("U", "V")), chan).probs
        floor = conditional_entropy(p_joint, "W", "V")
        cons = (
            ((0, 2), p_joint.marginal_array(("U", "W"))),
            ((1,), p_joint.marginal_pmf("V").probs),
        )
        sol = solve_coupling(CouplingProblem(ref, cons,
                                             entropy_floor=((2,), (1,), floor)))
        assert sol.objective == pytest.approx(zr, abs=1e-8)


class TestKappaStar:
    def test_equals_e1_at_large_rate(self, rng):
        pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng))
        chan = random_channel(rng, 2, 2)
        p_joint = attach_channel(pair.p.marginal(("U", "V")), chan)
        i_uw = mutual_information(p_joint, "U", "W")
        assert kappa_star(i_uw + 0.1, pair, chan) == pytest.approx(
            exponent_e1(pair, chan), abs=1e-12
        )

    def test_zero_when_e1_zero(self, rng):
        j = random_suv_joint(rng)
        pair = HypothesisPair(j, j)
        chan = random_channel(rng, 2, 2)
        assert kappa_star(10.0, pair, chan) == pytest.approx(0.0, abs=1e-10)

    def test_monotone_in_rate(self):
        rng = np.random.default_rng(MASTER_SEED + 13)
        pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng))
        chan = random_channel(rng, 2, 2)
        rates = [0.0, 0.05, 0.2, 0.5, 1.0]
        vals = [kappa_star(r, pair, chan) for r in rates]
        finite = [v for v in vals if math.isfinite(v)]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-9
        assert all(v <= exponent_e1(pair, chan) + 1e-12 for v in finite)


class TestTheoremPoints:
    def test_uninformative_auxiliary(self, rng):
        pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng),
                              distortion=instances.hamming(2))
        chan = Channel(np.ones((2, 1)))
        pt = theorem1_point(pair, chan, rate=0.5)
        assert pt.feasible
        assert pt.privacy0 == pytest.approx(
            conditional_entropy(pair.p, "S", "V"), abs=1e-12
        )

    def test_privacy1_indicator_split(self, rng):
        pair = instances.zero_rate_binary_pair()  # P_U != Q_U
        chan = random_channel(rng, 2, 2)
        pt = theorem1_point(pair, chan, rate=1.0)
        assert pt.privacy1 == pytest.approx(
            conditional_entropy(pair.q, "S", "V"), abs=1e-12
        )

    def test_uniform_posterior_hamming_distortion(self):
        # S uniform and independent of (U, V) under the null
        probs = np.full((2, 2, 2), 0.125)
        j = JointPmf((("S", 2), ("U", 2), ("V", 2)), probs)
        pair = HypothesisPair(j, j, distortion=instances.hamming(2))
        chan = Channel(np.eye(2))
        pt = theorem2_point(pair, chan, rate=2.0)
        assert pt.privacy0 == pytest.approx(0.5, abs=1e-12)

    def test_infeasible_rate_is_tagged(self, rng):
        pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng))
        chan = Channel(np.eye(2))
        p_joint = attach_channel(pair.p, chan)
        needed = conditional_mutual_information(p_joint, "W", "U", ("V",))
        pt = theorem1_point(pair, chan, rate=needed / 2)
        assert not pt.feasible

    def test_point_with_two_sided_observation(self):
        # pair over (S, U, Y, Z): V = (Y, Z) throughout the point evaluation
        rng = np.random.default_rng(MASTER_SEED + 30)
        probs = rng.gamma(1, 1, (2, 2, 2, 2)); probs /= probs.sum()
        q_probs = rng.gamma(1, 1, (2, 2, 2, 2)); q_probs /= q_probs.sum()
        axes = (("S", 2), ("U", 2), ("Y", 2), ("Z", 2))
        pair = HypothesisPair(JointPmf(axes, probs), JointPmf(axes, q_probs),
                              distortion=instances.hamming(2))
        chan = random_channel(rng, 2, 2)
        pt = theorem1_point(pair, chan, rate=1.0)
        p_joint = attach_channel(pair.p, chan)
        assert pt.privacy0 == pytest.approx(
            conditional_entropy(p_joint, "S", ("W", "Y", "Z")), abs=1e-12
        )
        assert pt.privacy1 == pytest.approx(
            conditional_entropy(pair.q, "S", ("Y", "Z")), abs=1e-12
        )

    def test_privacy0_bounded_by_prior_entropy(self):
        rng = np.random.default_rng(MASTER_SEED + 14)
        for _ in range(20):
            pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng))
            chan = random_channel(rng, 2, 2)
            pt = theorem1_point(pair, chan, rate=1.0)
            assert pt.privacy0 <= entropy(pair.p.marginal_pmf("S")) + 1e-12
            p_joint = attach_channel(pair.p, chan)
            indep = conditional_entropy(p_joint, "S", ("W", "V"))
            assert pt.privacy0 == pytest.approx(indep, abs=1e-10)


class TestTaciPoint:
    def test_example2_full_tuple(self):
        joint = instances.example2_taci_joint()
        parity = Channel(np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float))
        tp = taci_point(joint, parity)
        assert tp.rate_needed == pytest.approx(LN2, abs=1e-12)
        assert tp.exponent == pytest.approx(LN2, abs=1e-12)
        assert tp.equivocation0 == pytest.approx(2 * LN2, abs=1e-12)

    def test_full_disclosure(self):
        rng = np.random.default_rng(MASTER_SEED + 15)
        p = random_taci_joint(rng, nu=3)
        chan = Channel(np.eye(3))
        tp = taci_point(p, chan)
        assert tp.rate_needed == pytest.approx(
            conditional_entropy(p, "U", "Z"), abs=1e-10
        )
        assert tp.exponent == pytest.approx(
            conditional_mutual_information(p, "U", "Y", "Z"), abs=1e-10
        )
        assert tp.equivocation0 == pytest.approx(
            conditional_entropy(p, "S", ("U", "Y", "Z")), abs=1e-10
        )

    def test_constant_w(self):
        rng = np.random.default_rng(MASTER_SEED + 16)
        p = random_taci_joint(rng, nu=3)
        chan = Channel(np.ones((3, 1)))
        tp = taci_point(p, chan)
        assert tp.rate_needed == pytest.approx(0.0, abs=1e-12)
        assert tp.exponent == pytest.approx(0.0, abs=1e-12)
        assert tp.equivocation0 == pytest.approx(
            conditional_entropy(p, "S", ("Y", "Z")), abs=1e-10
        )

    def test_exponent_never_exceeds_rate(self):
        rng = np.random.default_rng(MASTER_SEED + 17)
        for _ in range(30):
            p = random_taci_joint(rng)
            chan = random_channel(rng, 3, int(rng.integers(1, 5)))
            tp = taci_point(p, chan)
            assert tp.exponent <= tp.rate_needed + 1e-10


class TestTaciFrontier:
    def _example1_taci(self, p, q):
        pair = instances.example1_pair(p, q)
        probs = pair.p.probs[..., None]
        joint = JointPmf((("S", 2), ("U", 2), ("Y", 2), ("Z", 1)), probs)
        q_cond = instances.conditional_s_given_rest(
            JointPmf((("S", 2), ("U", 2), ("Y", 2), ("Z", 1)),
                     pair.q.probs[..., None])
        )
        return joint, q_cond

    def test_matches_closed_form_at_q_zero(self):
        joint, q_cond = self._example1_taci(0.25, 0.0)
        cfg = FrontierConfig(random_seeds=40, rng_seed=MASTER_SEED, w_sizes=(2,))
        pts = taci_frontier(joint, q_cond, cfg)
        for r in np.arange(0.0, 0.501, 0.05):
            rate, kappa, lam = example1_closed_form(0.25, 0.0, float(r))
            best = min(
                max(abs(p.rate / LN2 - rate), abs(p.exponent / LN2 - kappa),
                    abs(p.privacy0 / LN2 - lam))
                for p in pts
            )
            assert best < 1e-3, f"r={r}: nearest frontier point off by {best}"

    def test_frontier_points_reproducible(self):
        joint, q_cond = self._example1_taci(0.25, 0.1)
        cfg = FrontierConfig(random_seeds=10, rng_seed=MASTER_SEED, w_sizes=(2,))
        pts = taci_frontier(joint, q_cond, cfg)
        assert pts
        for p in pts[:20]:
            tp = taci_point(joint, p.channel)
            assert tp.rate_needed == pytest.approx(p.rate, abs=1e-10)
            assert tp.exponent == pytest.approx(p.exponent, abs=1e-10)
            assert tp.equivocation0 == pytest.approx(p.privacy0, abs=1e-10)

    def test_degenerate_y_gives_zero_exponents(self):
        rng = np.random.default_rng(MASTER_SEED + 18)
        # Y independent of U (and of everything else)
        p_su = rng.gamma(1, 1, (2, 2)); p_su /= p_su.sum()
        p_y = np.array([0.3, 0.7])
        probs = np.einsum("su,y->suy", p_su, p_y)[..., None]
        joint = JointPmf((("S", 2), ("U", 2), ("Y", 2), ("Z", 1)), probs)
        q_cond = np.full((2, 2, 1, 2), 0.5)
        cfg = FrontierConfig(random_seeds=20, rng_seed=MASTER_SEED, w_sizes=(1, 2))
        pts = taci_frontier(joint, q_cond, cfg)
        assert pts
        assert all(abs(p.exponent) < 1e-9 for p in pts)

    def test_dominance_agrees_with_channel_grid(self):
        rng = np.random.default_rng(MASTER_SEED + 19)
        joint = random_taci_joint(rng, ns=2, nu=2, ny=2, nz=1)
        q_cond = rng.gamma(1, 1, (2, 2, 1, 2))
        q_cond /= q_cond.sum(-1, keepdims=True)
        cfg = FrontierConfig(random_seeds=60, rng_seed=MASTER_SEED, w_sizes=(2,))
        pts = taci_frontier(joint, q_cond, cfg)
        # no exhaustively-gridded |W|=2 channel may dominate a frontier point
        grid = np.arange(0.0, 1.0001, 0.02)
        for a in grid:
            for b in grid:
                tp = taci_point(joint, Channel(np.array([[1 - a, a], [b, 1 - b]])))
                for p in pts:
                    strictly_better = (
                        tp.rate_needed < p.rate - 1e-6
                        and tp.exponent > p.exponent + 1e-6
                        and tp.equivocation0 > p.privacy0 + 1e-6
                    )
                    assert not strictly_better

    def test_no_sizes_is_value_error(self):
        # None asks for the default sizes; an empty tuple asks for no search
        with pytest.raises(ValueError, match="w_sizes"):
            FrontierConfig(w_sizes=())

    def test_trivial_channel_gives_one_point(self):
        # |W| = 1 discloses nothing: every structured seed is the same point
        joint, q_cond = self._example1_taci(0.25, 0.0)
        cfg = FrontierConfig(random_seeds=0, rng_seed=0, w_sizes=(1,))
        (pt,) = taci_frontier(joint, q_cond, cfg)
        assert (pt.rate, pt.exponent) == (0.0, 0.0)
        assert pt.privacy0 == pytest.approx(
            conditional_entropy(joint, "S", ("Y", "Z")), abs=1e-15)


class TestExample1ClosedForm:
    def test_r_zero(self):
        rate, kappa, lam = example1_closed_form(0.25, 0.0, 0.0)
        assert rate == pytest.approx(1.0)
        assert kappa == pytest.approx(1.0 - binary_entropy(0.25), abs=1e-15)
        assert lam == pytest.approx(0.0, abs=1e-15)

    def test_r_half(self):
        rate, kappa, lam = example1_closed_form(0.25, 0.0, 0.5)
        assert rate == pytest.approx(0.0, abs=1e-15)
        assert kappa == pytest.approx(0.0, abs=1e-15)
        assert lam == pytest.approx(binary_entropy(0.25), abs=1e-15)

    def test_kappa_vanishes_at_r_half_for_any_pq(self):
        for p in (0.1, 0.3):
            for q in (0.0, 0.2):
                _, kappa, _ = example1_closed_form(p, q, 0.5)
                assert kappa == pytest.approx(0.0, abs=1e-12)


class TestZeroRate:
    def test_product_alternate_gives_zero(self, rng):
        p_u = Pmf([0.3, 0.7])
        p_v = Pmf([0.6, 0.4])
        q_uv = JointPmf((("U", 2), ("V", 2)), np.outer([0.3, 0.7], [0.6, 0.4]))
        assert zero_rate_exponent(p_u, p_v, q_uv) == pytest.approx(0.0, abs=1e-9)

    def test_against_grid_oracle(self):
        rng = np.random.default_rng(MASTER_SEED + 20)
        for _ in range(4):
            p_u = Pmf(np.diff(np.sort(np.concatenate([[0, 1], rng.random(1)]))))
            p_v = Pmf(np.diff(np.sort(np.concatenate([[0, 1], rng.random(1)]))))
            q = random_joint(rng, (2, 2), names=("U", "V"))
            val = zero_rate_exponent(p_u, p_v, q)
            grid = oracle.grid_min_kl(q, [((0,), p_u.probs), ((1,), p_v.probs)])
            assert grid >= val - 1e-9
            assert grid <= val + 2e-3

    def test_point_mass_reduction(self):
        # P_U concentrated at u0 forces the coupling row P_V at u0
        p_u = Pmf([1.0, 0.0])
        p_v = Pmf([0.25, 0.75])
        q = JointPmf((("U", 2), ("V", 2)), np.array([[0.1, 0.3], [0.4, 0.2]]))
        expected = 0.25 * math.log(0.25 / 0.1) + 0.75 * math.log(0.75 / 0.3)
        assert zero_rate_exponent(p_u, p_v, q) == pytest.approx(expected, abs=1e-9)

    def test_privacy_levels(self):
        # S = V with Hamming loss: the detector can reconstruct S exactly
        probs = np.zeros((2, 2, 2))
        for u, v in itertools.product(range(2), range(2)):
            probs[v, u, v] = 0.25
        j = JointPmf((("S", 2), ("U", 2), ("V", 2)), probs)
        pair = HypothesisPair(j, j, distortion=instances.hamming(2))
        zp = zero_rate_privacy(pair)
        assert zp.delta0_max == pytest.approx(0.0, abs=1e-12)
        assert zp.lambda0_max == pytest.approx(0.0, abs=1e-12)

    def test_privacy_uninformative(self):
        probs = np.full((2, 2, 2), 0.125)
        j = JointPmf((("S", 2), ("U", 2), ("V", 2)), probs)
        pair = HypothesisPair(j, j, distortion=instances.hamming(2))
        zp = zero_rate_privacy(pair)
        assert zp.delta0_max == pytest.approx(0.5, abs=1e-12)
        assert zp.lambda0_max == pytest.approx(LN2, abs=1e-12)

    def test_example2_alternate_equivocation(self):
        pair = instances.example2_pair()
        zp = zero_rate_privacy(pair)
        assert zp.lambda1_max == pytest.approx(2 * LN2, abs=1e-12)

    def test_support_violation_gives_infinite_exponent(self):
        # the alternate law cannot produce u = 1 at all, but the null marginal
        # demands mass there: no coupling is absolutely continuous
        p_u = Pmf([0.3, 0.7])
        p_v = Pmf([0.5, 0.5])
        q = JointPmf((("U", 2), ("V", 2)), np.array([[0.5, 0.5], [0.0, 0.0]]))
        start = time.perf_counter()
        assert zero_rate_exponent(p_u, p_v, q) == math.inf
        assert time.perf_counter() - start < 1.0


class TestBayesEstimator:
    def test_hamming_majority(self):
        idx, val = bayes_estimator(Pmf([0.9, 0.1]), instances.hamming(2))
        assert (idx, val) == (0, pytest.approx(0.1))

    def test_tie_breaks_to_smallest_index(self):
        idx, val = bayes_estimator(Pmf([0.5, 0.5]), instances.hamming(2))
        assert idx == 0
        assert val == pytest.approx(0.5)

    def test_asymmetric_matches_enumeration(self):
        rng = np.random.default_rng(MASTER_SEED + 21)
        table = rng.random((3, 3))
        post = rng.gamma(1, 1, 3)
        post /= post.sum()
        idx, val = bayes_estimator(Pmf(post), table)
        brute = [(sum(post[s] * table[s, k] for s in range(3)), k) for k in range(3)]
        best_val, best_k = min(brute)
        assert idx == best_k
        assert val == pytest.approx(best_val, abs=1e-12)


class TestOptimizerCertificates:
    def test_coupling_shipment(self):
        rng = np.random.default_rng(MASTER_SEED + 22)
        for _ in range(10):
            pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng))
            chan = random_channel(rng, 2, 2)
            sol = exponent_e1_solution(pair, chan)
            assert sol.coupling is not None
            assert sol.residual < 1e-9
            # objective re-evaluation from the shipped coupling
            ref = attach_channel(pair.q.marginal(("U", "V")), chan).probs
            mask = sol.coupling > 0
            re_obj = float(np.sum(sol.coupling[mask]
                                  * (np.log(sol.coupling[mask]) - np.log(ref[mask]))))
            assert abs(re_obj - sol.objective) < 1e-10

    @staticmethod
    def restarted(problem, x0) -> float:
        """KL to the reference of the I-projection started from ``x0``."""
        ref = problem.reference
        x, _, _ = _ipf(x0, _broadcast_constraints(ref, problem.marginal_constraints))
        return kl_of_arrays(x, ref)

    def test_restart_agreement(self):
        # convex programs: multiplicative-family restarts land on the same value
        rng = np.random.default_rng(MASTER_SEED + 23)
        pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng))
        chan = random_channel(rng, 2, 2)
        p_joint = attach_channel(pair.p.marginal(("U", "V")), chan)
        ref = attach_channel(pair.q.marginal(("U", "V")), chan).probs
        cons = (
            ((0, 2), p_joint.marginal_array(("U", "W"))),
            ((1, 2), p_joint.marginal_array(("V", "W"))),
        )
        problem = CouplingProblem(ref, cons)
        base = solve_coupling(problem).objective
        for k in range(5):
            r2 = np.random.default_rng(MASTER_SEED + 100 + k)
            tilt_uw = np.exp(r2.normal(0, 0.5, size=(2, 2)))
            tilt_vw = np.exp(r2.normal(0, 0.5, size=(2, 2)))
            x0 = ref * tilt_uw[:, None, :] * tilt_vw[None, :, :]
            x0 /= x0.sum()
            val = self.restarted(problem, x0)
            assert val == pytest.approx(base, abs=1e-7)

    def test_zero_rate_restart_agreement(self):
        rng = np.random.default_rng(MASTER_SEED + 24)
        p_u = Pmf([0.35, 0.65])
        p_v = Pmf([0.55, 0.45])
        q = random_joint(rng, (2, 2), names=("U", "V"))
        problem = CouplingProblem(q.probs, (((0,), p_u.probs), ((1,), p_v.probs)))
        base = solve_coupling(problem).objective
        for k in range(5):
            r2 = np.random.default_rng(MASTER_SEED + 200 + k)
            x0 = q.probs * np.exp(r2.normal(0, 0.5, 2))[:, None] \
                * np.exp(r2.normal(0, 0.5, 2))[None, :]
            x0 /= x0.sum()
            val = self.restarted(problem, x0)
            assert val == pytest.approx(base, abs=1e-7)


def slice_indicators(shape, cons):
    """(0/1 indicator of the slice, target mass) for each slice of each
    marginal constraint on a tensor of ``shape``."""
    for axes, target in cons:
        for cell in np.ndindex(np.shape(target)):
            index = [slice(None)] * len(shape)
            for axis, i in zip(axes, cell):
                index[axis] = i
            indicator = np.zeros(shape)
            indicator[tuple(index)] = 1.0
            yield indicator, target[cell]


def two_marginals(ref, rows, cols) -> CouplingProblem:
    return CouplingProblem(np.array(ref, dtype=float),
                           (((0,), np.array(rows, dtype=float)), ((1,), np.array(cols, dtype=float))))


class TestInfeasibilityCertificate:
    """An infinite objective is proven by an empty slice after the first
    sweep or by a Farkas certificate from the I-projection's scalings; only
    the sweep cap leaves it unproven, and ``stop`` says which ended a solve."""

    # the diagonal support forces equal marginals, and no marginal reaches 0
    DIAGONAL = ([[0.5, 0.0], [0.0, 0.5]], [0.5, 0.5], [0.2, 0.8])
    # the one coupling with these marginals lies on the support boundary
    BOUNDARY = ([[0.4, 0.3], [0.3, 0.0]], [0.5, 0.5], [0.5, 0.5])

    @pytest.mark.parametrize("problem, stop", [
        (([[0.4, 0.1], [0.2, 0.3]], [0.3, 0.7], [0.6, 0.4]), "converged"),
        (([[0.5, 0.5], [0.0, 0.0]], [0.3, 0.7], [0.5, 0.5]), "empty_slice"),
        (DIAGONAL, "certificate"),
    ], ids=["converged", "empty_slice", "certificate"])
    def test_stop_reason(self, problem, stop):
        start = time.perf_counter()
        sol = solve_coupling(two_marginals(*problem))
        assert time.perf_counter() - start < 1.0
        assert sol.stop == stop
        assert math.isinf(sol.objective) == (stop != "converged")

    def test_diagonal_support_keeps_its_residual(self):
        # the point after the last sweep is diag(0.2, 0.8), 0.3 off each row
        sol = solve_coupling(two_marginals(*self.DIAGONAL))
        assert (sol.objective, sol.coupling, sol.residual) == (math.inf, None, 0.30000000000000004)

    def test_sweep_cap_is_the_unproven_infinity(self, monkeypatch):
        # the I-projection converges sublinearly to the boundary coupling, and
        # the windows at 128 and 256 sweeps certify nothing
        monkeypatch.setattr("htpriv.regions._MAX_SWEEPS", 300)
        sol = solve_coupling(two_marginals(*self.BOUNDARY))
        assert (sol.objective, sol.stop) == (math.inf, "sweep_cap")
        assert sol.residual > 1e-11

    def test_e1_on_a_diagonal_alternate_is_certified(self):
        # the alternate law has U = V, so every coupling's (U, W) and (V, W)
        # marginals agree, while the null's differ; no slice is ever empty
        rng = np.random.default_rng(MASTER_SEED + 25)
        p = random_suv_joint(rng)
        q = random_suv_joint(rng).probs * np.eye(2)
        pair = HypothesisPair(p, JointPmf(p.axes, q / q.sum()))
        start = time.perf_counter()
        sol = exponent_e1_solution(pair, random_channel(rng, 2, 2))
        assert time.perf_counter() - start < 1.0
        assert (sol.objective, sol.coupling, sol.stop) == (math.inf, None, "certificate")

    SHAPES = ((2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 2), (3, 2, 2))
    # E1, single letters, a chain and E2
    AXES_3D = (((0, 2), (1, 2)), ((0,), (1,), (2,)), ((0, 1), (1, 2)), ((0, 2), (1,)))

    def random_problem(self, rng):
        """A reference with about a third of its cells zeroed, and the
        marginals of a law on its support (feasible) or on every cell."""
        shape = self.SHAPES[rng.integers(len(self.SHAPES))]
        ref = rng.gamma(1, 1, shape) * (rng.random(shape) > 0.35)
        ref.flat[rng.integers(ref.size)] += 1.0
        law = rng.gamma(1, 1, shape) * ((ref > 0) if rng.random() < 0.4 else 1.0)
        axes = ((0,), (1,)) if len(shape) == 2 else self.AXES_3D[rng.integers(len(self.AXES_3D))]
        cons = tuple((a, marginal_of_array(law / law.sum(), a)) for a in axes)
        return ref / ref.sum(), cons

    @staticmethod
    def lp_feasible(ref, cons) -> bool:
        """Whether some x >= 0 on supp(ref) meets every target."""
        from scipy.optimize import linprog

        sup = ref > 0
        rows, masses = zip(*((ind[sup], m) for ind, m in slice_indicators(ref.shape, cons)))
        lp = linprog(np.zeros(int(sup.sum())), A_eq=np.array(rows), b_eq=np.array(masses),
                     bounds=(0, None))
        assert lp.status in (0, 2)   # solved, or proven infeasible
        return lp.status == 0

    def test_random_verdicts_agree_with_an_lp(self):
        rng = np.random.default_rng(MASTER_SEED + 26)
        stops = []
        for _ in range(200):
            ref, cons = self.random_problem(rng)
            sol = solve_coupling(CouplingProblem(ref, cons))
            feasible = self.lp_feasible(ref, cons)
            assert sol.stop in (("converged",) if feasible else ("empty_slice", "certificate"))
            assert math.isinf(sol.objective) != feasible
            stops.append(sol.stop)
        # enough of each kind that the check means something
        assert min(stops.count(s) for s in ("converged", "empty_slice", "certificate")) >= 30


def _seed11_draws(count=12):
    """(pair, channel) draws of generator seed 11, in the order TestExponentE2
    and the coupling benchmark take them."""
    rng = np.random.default_rng(11)
    return [(HypothesisPair(random_suv_joint(rng), random_suv_joint(rng)),
             random_channel(rng, 2, 2)) for _ in range(count)]


class TestEntropyFloorCertificates:
    """KKT certificate of a floor-active E2 solve on axes (U, V, W): the floor
    H(W|V) >= H_P(W|V) met, a positive multiplier t, complementary slackness,
    and stationarity of KL(x || ref) - t H(W|V) over the marginal constraints."""

    # the draws of seed 11, of the first 12, whose entropy floor binds; 4 and 5
    # are the coupling benchmark's floor problems and TestExponentE2's first two
    ACTIVE_DRAWS = (4, 5, 7, 10, 11)

    @staticmethod
    def stationarity_residual(x, ref, cons, t):
        """Largest least-squares residual of log(x/ref) + t log x(W|V) on
        supp(x) against the span of the marginal-constraint indicators."""
        sup = x > 0
        x_vw = x.sum(axis=0)
        log_w_given_v = np.log(x_vw / x_vw.sum(axis=1, keepdims=True))[None, :, :]
        grad = (np.log(np.where(sup, x, 1.0)) - np.log(np.where(sup, ref, 1.0))
                + t * log_w_given_v)[sup]
        span = np.array([indicator[sup] for indicator, _ in slice_indicators(x.shape, cons)]).T
        coef, *_ = np.linalg.lstsq(span, grad, rcond=None)
        return float(np.abs(span @ coef - grad).max())

    @pytest.mark.parametrize("draw", ACTIVE_DRAWS)
    def test_kkt_certificate(self, draw):
        pair, chan = _seed11_draws()[draw]
        _, sol = exponent_e2_solution(0.0, pair, chan)
        assert sol.stop == "converged"
        assert sol.entropy_slack >= 0
        assert sol.multiplier > 0
        assert sol.multiplier * sol.entropy_slack <= 1e-10
        p_joint = attach_channel(pair.p.marginal(("U", "V")), chan)
        ref = attach_channel(pair.q.marginal(("U", "V")), chan).probs
        cons = [((0, 2), p_joint.marginal_array(("U", "W"))),
                ((1,), p_joint.marginal_pmf("V").probs)]
        assert self.stationarity_residual(sol.coupling, ref, cons, sol.multiplier) <= 1e-6

    @pytest.mark.filterwarnings("error")
    def test_unreachable_floor_stops_below_it(self):
        # H(W|V) <= log 2 for binary W, so a floor of log 2 + 0.1 cannot be met
        rng = np.random.default_rng(3)
        ref = rng.gamma(1, 1, (2, 2, 2))
        ref /= ref.sum()
        other = rng.gamma(1, 1, (2, 2, 2))
        other /= other.sum()
        cons = (((0, 2), other.sum(axis=1)), ((1,), other.sum(axis=(0, 2))))
        problem = CouplingProblem(ref, cons, entropy_floor=((2,), (1,), LN2 + 0.1))
        start = time.perf_counter()
        sol = solve_coupling(problem)
        assert time.perf_counter() - start < 5.0
        assert math.isfinite(sol.objective)
        assert sol.entropy_slack < 0
        assert sol.residual < 1e-9


class TestConstraintForm:
    """solve_coupling takes marginal constraints with axes in any order, and
    rejects malformed ones with a ValueError that names their axes."""

    @pytest.mark.parametrize("axes, target", [
        ((0,), np.array([0.2, 0.3, 0.5])),        # target longer than the axis
        ((0, 0), np.full((2, 2), 0.25)),          # repeated axis
        ((2,), np.array([0.5, 0.5])),             # axis outside the reference
    ], ids=["wrong_shape", "repeated_axis", "axis_out_of_range"])
    def test_malformed_constraint_is_value_error(self, axes, target):
        ref = np.full((2, 2), 0.25)
        problem = CouplingProblem(ref, ((axes, target),))
        with pytest.raises(ValueError, match=re.escape(f"axes {axes}")):
            solve_coupling(problem)

    @staticmethod
    def mixed_order_problem():
        rng = np.random.default_rng(MASTER_SEED + 30)
        ref = random_joint(rng, (2, 2, 3)).probs
        t = random_joint(rng, (2, 3)).probs        # target on axes (0, 2)
        p1 = random_pmf(rng, 2).probs
        return ref, t, p1

    def test_axis_order_gives_the_same_coupling(self):
        ref, t, p1 = self.mixed_order_problem()
        in_order = solve_coupling(CouplingProblem(ref, (((0, 2), t), ((1,), p1))))
        reversed_ = solve_coupling(CouplingProblem(ref, (((2, 0), t.T), ((1,), p1))))
        assert np.array_equal(in_order.coupling, reversed_.coupling)
        assert in_order.objective == reversed_.objective
        assert in_order.residual == reversed_.residual
        assert np.abs(in_order.coupling.sum(axis=1) - t).max() < 1e-12

    def test_mixed_order_overlap_is_checked(self):
        ref, t, p1 = self.mixed_order_problem()
        # (V1, V0) targets: consistent with t on axis 0, then not
        good = np.outer(p1, t.sum(axis=1))
        sol = solve_coupling(CouplingProblem(ref, (((2, 0), t.T), ((1, 0), good))))
        assert sol.residual < 1e-11
        bad = np.outer(p1, t.sum(axis=1)[::-1])
        with pytest.raises(InfeasibleConstraintsError, match=r"shared axes \(0,\)"):
            solve_coupling(CouplingProblem(ref, (((2, 0), t.T), ((1, 0), bad))))

    def test_target_masses_that_disagree_converge(self):
        # both masses pass the 1e-9 pmf check but differ by 1e-12; without
        # the rescale the I-projection runs all 220000 sweeps (about 7 s)
        problem = CouplingProblem(np.full((2, 2), 0.25), (
            ((0,), np.array([0.3, 0.7])), ((1,), np.array([0.5, 0.5 + 1e-12]))))
        start = time.perf_counter()
        sol = solve_coupling(problem)
        assert time.perf_counter() - start < 1.0
        assert sol.stop == "converged" and sol.residual < 1e-14
        # the product of the marginals, at KL log 4 - H(0.3, 0.7) - log 2
        want = math.log(2.0) - entropy(np.array([0.3, 0.7]))
        assert sol.objective == pytest.approx(want, abs=1e-12)
        assert np.abs(sol.coupling.sum(axis=1) - [0.3, 0.7]).max() < 1e-12
