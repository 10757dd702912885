"""Brute-force oracle: self-checks and cross-checks against the fast paths."""

import itertools
import math

import numpy as np
import pytest

from htpriv import instances
from htpriv.adversary import (
    constant_model,
    exact_causal_distortion,
    full_disclosure_model,
    law_model,
)
from htpriv.oracle import (
    OracleBudget,
    OracleScaleError,
    exact_error_probabilities,
    exhaustive_causal_estimators,
    grid_min_kl,
)
from htpriv.probcore import JointPmf, Pmf
from htpriv.regions import HypothesisPair
from htpriv.schemes import zero_rate_law

from conftest import MASTER_SEED, random_joint, random_suv_joint


class TestExactErrorProbabilities:
    def test_always_accept(self):
        rng = np.random.default_rng(MASTER_SEED + 60)
        pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng))
        model = constant_model(2, 3)
        alpha, beta = exact_error_probabilities(model, lambda m, v: True, pair, 3)
        assert alpha == pytest.approx(0.0, abs=1e-12)
        assert beta == pytest.approx(1.0, abs=1e-12)

    def test_always_reject(self):
        rng = np.random.default_rng(MASTER_SEED + 61)
        pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng))
        model = constant_model(2, 3)
        alpha, beta = exact_error_probabilities(model, lambda m, v: False, pair, 3)
        assert alpha == pytest.approx(1.0, abs=1e-12)
        assert beta == pytest.approx(0.0, abs=1e-12)

    def test_zero_rate_hand_sum(self):
        # independent check: direct double sum over the 16 x 16 block grid
        pair = instances.zero_rate_binary_pair()
        n, delta = 4, 0.2
        p_u = pair.p.marginal_pmf("U")
        p_v = Pmf(pair.p.marginal(("U", "V")).probs.sum(axis=0))
        model = law_model(zero_rate_law(p_u, n, delta))

        def typical(seq, probs):
            freq = np.bincount(np.asarray(seq), minlength=2) / len(seq)
            return np.abs(freq - probs).max() <= delta + 1e-15

        def accepts(label, vblock):
            return label == "typical" and typical(vblock, p_v.probs)

        alpha, beta = exact_error_probabilities(model, accepts, pair, n)

        p_uv = pair.p.marginal(("U", "V")).probs
        q_uv = pair.q.marginal(("U", "V")).probs
        alpha_hand, beta_hand = 1.0, 0.0
        for ub in itertools.product(range(2), repeat=n):
            for vb in itertools.product(range(2), repeat=n):
                accept = typical(ub, p_u.probs) and typical(vb, p_v.probs)
                if not accept:
                    continue
                wp = math.prod(p_uv[u, v] for u, v in zip(ub, vb))
                wq = math.prod(q_uv[u, v] for u, v in zip(ub, vb))
                alpha_hand -= wp
                beta_hand += wq
        assert alpha == pytest.approx(alpha_hand, abs=1e-12)
        assert beta == pytest.approx(beta_hand, abs=1e-12)

    def test_budget_guard(self):
        rng = np.random.default_rng(MASTER_SEED + 62)
        pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng))
        model = constant_model(2, 3)
        with pytest.raises(OracleScaleError):
            exact_error_probabilities(model, lambda m, v: True, pair, 3,
                                      budget=OracleBudget(max_joint_cells=4))


class TestGridMinKl:
    def test_unconstrained_minimum_is_reference(self):
        rng = np.random.default_rng(MASTER_SEED + 63)
        ref = random_joint(rng, (2, 2), names=("U", "V"))
        val = grid_min_kl(ref, [])
        assert val == pytest.approx(0.0, abs=1e-6)

    def test_product_constraints_with_product_reference(self):
        p_u = np.array([0.3, 0.7])
        p_v = np.array([0.6, 0.4])
        ref = JointPmf((("U", 2), ("V", 2)), np.outer(p_u, p_v))
        val = grid_min_kl(ref, [((0,), p_u), ((1,), p_v)])
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_coupling_brackets_optimizer(self):
        from htpriv.regions import zero_rate_exponent
        rng = np.random.default_rng(MASTER_SEED + 64)
        for _ in range(5):
            p_u = Pmf(np.diff(np.sort(np.concatenate([[0, 1], rng.random(1)]))))
            p_v = Pmf(np.diff(np.sort(np.concatenate([[0, 1], rng.random(1)]))))
            q = random_joint(rng, (2, 2), names=("U", "V"))
            opt = zero_rate_exponent(p_u, p_v, q)
            grid = grid_min_kl(q, [((0,), p_u.probs), ((1,), p_v.probs)])
            assert grid >= opt - 1e-9
            assert grid <= opt + 2e-3

    def test_dimension_guard(self):
        ref = np.full((3, 3), 1.0 / 9)
        with pytest.raises(OracleScaleError):
            grid_min_kl(ref, [])

    def test_infeasible_support_returns_inf(self):
        ref = JointPmf((("U", 2), ("V", 2)),
                       np.array([[0.5, 0.0], [0.0, 0.5]]))
        # force mass on the zero anti-diagonal
        val = grid_min_kl(ref, [((0,), np.array([1.0, 0.0])),
                                ((1,), np.array([0.0, 1.0]))])
        assert val == math.inf


class TestExhaustiveCausalEstimators:
    def test_full_disclosure_of_private_part(self):
        pair = instances.example1_pair(0.25, 0.0)  # S = U
        model = full_disclosure_model(2, 2)
        assert exhaustive_causal_estimators(model, pair, 2) == pytest.approx(0.0, abs=1e-12)

    def test_independent_uniform(self):
        probs = np.full((2, 2, 2), 0.125)
        j = JointPmf((("S", 2), ("U", 2), ("V", 2)), probs)
        pair = HypothesisPair(j, j, distortion=instances.hamming(2))
        model = full_disclosure_model(2, 2)
        assert exhaustive_causal_estimators(model, pair, 2) == pytest.approx(1.0, abs=1e-12)

    def test_matches_adversary_on_random_toys(self):
        rng = np.random.default_rng(MASTER_SEED + 65)
        for _ in range(3):
            pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng),
                                  distortion=instances.hamming(2))
            model = law_model(zero_rate_law(pair.p.marginal_pmf("U"), 2, delta=0.3))
            brute = exhaustive_causal_estimators(model, pair, 2)
            fast = exact_causal_distortion(model, pair, 2, 0)
            assert brute == pytest.approx(fast, abs=1e-12)

    def test_scale_guard(self):
        pair = instances.example1_pair(0.25, 0.0)
        model = full_disclosure_model(2, 3)
        with pytest.raises(OracleScaleError):
            exhaustive_causal_estimators(model, pair, 3)
