"""Exact finite-n privacy audits: factorization identities, oracle agreement,
and the time-sharing counterexample."""

import dataclasses
import hashlib
import math
import os
import time
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from htpriv import adversary, instances, schemes
from htpriv.adversary import (
    AssumptionViolatedError,
    BudgetExceededError,
    PrivacyReport,
    SchemeModel,
    _block_tables,
    _causal_bayes,
    _contract,
    _errors,
    _law_table,
    _letter_law,
    constant_model,
    counterexample_curve,
    exact_causal_distortion,
    exact_errors,
    exact_equivocation,
    full_disclosure_model,
    law_model,
    likelihood_model,
    mc_privacy_estimate,
    message_map_model,
    quantize_timeshare_model,
    scheme_model_for,
)
from htpriv.probcore import (
    Channel, JointPmf, Pmf, all_sequences, block_index, conditional_entropy, inverse_cdf,
    pmf_close,
)
from htpriv.regions import HypothesisPair, theorem1_point, theorem2_point, zero_rate_privacy
from htpriv.schemes import SchemeConfig, build_codebook, make_scheme, zero_rate_law

from conftest import MASTER_SEED, random_joint, random_suv_joint

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LN2 = math.log(2.0)


def uniform_independent_pair(ns=2, nu=2, nv=2) -> HypothesisPair:
    probs = np.full((ns, nu, nv), 1.0 / (ns * nu * nv))
    j = JointPmf((("S", ns), ("U", nu), ("V", nv)), probs)
    return HypothesisPair(j, j, distortion=instances.hamming(ns))


def random_message_law(rng, rows, messages) -> np.ndarray:
    return rng.dirichlet(np.ones(messages), size=rows)


def kron_block_table(law, letter, n) -> np.ndarray:
    """Reference P[m, s-block, v-block]: one Kronecker product of the
    per-letter (S, V) slices per u-block, accumulated over u-blocks."""
    ns, nu, nv = letter.shape
    out = np.zeros((law.shape[1], (ns * nv) ** n))
    for u_idx, useq in enumerate(all_sequences(nu, n)):
        block = reduce(np.kron, (letter[:, u, :] for u in useq)).ravel()
        out += law[u_idx][:, None] * block[None, :]
    return out.reshape(law.shape[1], ns ** n, nv ** n)


class TestBlockTable:
    # (|S|, |U|, |V|): |U| above |S||V|, below it, a trivial S axis as in the
    # exact error probabilities, a trivial V axis and both; |S| != |V| where
    # both exceed 1, so that swapped s- and v-digits of a block show
    @pytest.mark.parametrize("shape", [(2, 5, 2), (3, 2, 2), (1, 3, 2), (3, 2, 1), (1, 2, 1)],
                             ids=["u_above_sv", "u_below_sv", "trivial_s", "trivial_v",
                                  "trivial_s_and_v"])
    def test_contraction_matches_kronecker_loop(self, shape, monkeypatch):
        # one message column per chunk: the stream is three chunks, in order
        monkeypatch.setattr(schemes, "CHUNK_CELLS", 1)
        rng = np.random.default_rng(MASTER_SEED + 60)
        pair = HypothesisPair(random_joint(rng, shape, names=("S", "U", "V")),
                              random_joint(rng, shape, names=("S", "U", "V")))
        # n = 5 regroups two letters before the three sums in block order
        for n in (1, 2, 3, 4, 5):
            law = random_message_law(rng, shape[1] ** n, 3)
            for hyp in (0, 1):
                letter = pair.law(hyp).probs
                chunks = list(_block_tables(law, letter, n))
                assert [c for c, _ in chunks] == [slice(0, 1), slice(1, 2), slice(2, 3)]
                got = np.concatenate([t for _, t in chunks])
                np.testing.assert_allclose(got, kron_block_table(law, letter, n),
                                           rtol=0, atol=1e-12)


class TestCausalBayesKernel:
    def test_tied_actions_resolve_to_the_first_minimizer(self):
        rng = np.random.default_rng(MASTER_SEED + 62)
        ns, nv, n = 3, 2, 3
        table = rng.random((2, ns ** n, nv ** n))
        table /= table.sum()
        # columns 1 and 2 repeat column 0 and column 3 repeats column 4, so
        # every cell ties; column 5 costs 1 everywhere and never wins alone
        base = rng.random((ns, 2))
        d = np.stack([base[:, 0]] * 3 + [base[:, 1]] * 2 + [np.ones(ns)], axis=1)
        seen = set()
        for i, action, cost in _causal_bayes(table, d, n):
            joint = table.reshape(2, ns ** (i - 1), ns, -1, nv ** n).sum(axis=3)
            costs = np.einsum("mpsv,sa->ampv", joint, d)
            np.testing.assert_array_equal(action, costs.argmin(axis=0))
            assert cost == pytest.approx(float(costs.min(axis=0).sum()), rel=1e-12)
            seen |= set(np.unique(action).tolist())
        # both tied groups win somewhere, each only through its first column
        assert seen == {0, 3}
        # all actions tie in every cell: the first one is taken everywhere
        for _, action, _ in _causal_bayes(table, np.zeros((ns, 4)), n):
            assert not action.any()


class TestSingleLetterEqualsBlockAudit:
    """Each single-letter privacy level is the block audit at n = 1: the
    theorem points' message is W drawn from P(W|U) (or no message, for the
    alternate hypothesis when the U-marginals differ), the zero-rate levels
    have no message at all."""

    @pytest.mark.parametrize("name", sorted(os.listdir(os.path.join(ROOT, "instances"))))
    @pytest.mark.parametrize("w_size", [2, 3])
    def test_n1_audit_matches_single_letter(self, name, w_size):
        pair = instances.load_instance(os.path.join(ROOT, "instances", name))
        nu = pair.u_size()
        rng = np.random.default_rng(MASTER_SEED + 70 + w_size)
        w = Channel(rng.dirichlet(np.ones(w_size), size=nu))
        w_model = SchemeModel(1, nu, w.rows, tuple(range(w_size)))
        silent = constant_model(nu, 1)
        same_u = pmf_close(pair.p.marginal_pmf("U"), pair.q.marginal_pmf("U"))
        audits = (exact_equivocation, exact_causal_distortion)
        for point_of, audit in zip((theorem1_point, theorem2_point), audits):
            point = point_of(pair, w, 1.0)
            assert point.privacy0 == pytest.approx(audit(w_model, pair, 1, 0), abs=1e-12)
            block1 = audit(w_model if same_u else silent, pair, 1, 1)
            assert point.privacy1 == pytest.approx(block1, abs=1e-12)
        zr = zero_rate_privacy(pair)
        for h, (lam, dist) in enumerate([(zr.lambda0_max, zr.delta0_max),
                                         (zr.lambda1_max, zr.delta1_max)]):
            assert lam == pytest.approx(exact_equivocation(silent, pair, 1, h), abs=1e-12)
            assert dist == pytest.approx(exact_causal_distortion(silent, pair, 1, h), abs=1e-12)


class TestExactEquivocation:
    def test_constant_message_gives_conditional_entropy(self):
        rng = np.random.default_rng(MASTER_SEED + 50)
        pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng))
        for n in (1, 2, 3):
            model = constant_model(2, n)
            got = exact_equivocation(model, pair, n, 0)
            assert got == pytest.approx(
                n * conditional_entropy(pair.p, "S", "V"), abs=1e-10
            )

    def test_full_disclosure_factorizes(self):
        rng = np.random.default_rng(MASTER_SEED + 51)
        pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng))
        for n in (1, 2, 3):
            model = full_disclosure_model(2, n)
            got = exact_equivocation(model, pair, n, 1)
            assert got == pytest.approx(
                n * conditional_entropy(pair.q, "S", ("U", "V")), abs=1e-10
            )

    def test_parity_disclosure_keeps_two_bits(self):
        pair = instances.example2_pair()
        for n in (1, 2, 3):
            model = message_map_model(4, n, lambda s: tuple(x % 2 for x in s))
            for hyp in (0, 1):
                got = exact_equivocation(model, pair, n, hyp)
                assert got == pytest.approx(2 * n * LN2, abs=1e-10)

    def test_budget_guard(self, monkeypatch):
        pair = uniform_independent_pair()
        model = constant_model(2, 3)
        monkeypatch.setattr(adversary, "MAX_JOINT_CELLS", 10)
        with pytest.raises(BudgetExceededError):
            exact_equivocation(model, pair, 3, 0)

    def test_never_exceeds_no_message_entropy(self):
        rng = np.random.default_rng(MASTER_SEED + 52)
        for _ in range(10):
            pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng))
            n = int(rng.integers(1, 4))
            model = law_model(zero_rate_law(pair.p.marginal_pmf("U"), n, delta=0.2))
            eq = exact_equivocation(model, pair, n, 0)
            cap = n * conditional_entropy(pair.p, "S", "V")
            assert eq <= cap + 1e-10

    def test_refining_message_never_raises_equivocation(self):
        rng = np.random.default_rng(MASTER_SEED + 53)
        pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng))
        n = 2
        coarse = message_map_model(2, n, lambda s: s[0])          # first letter
        fine = message_map_model(2, n, lambda s: s)               # whole block
        eq_coarse = exact_equivocation(coarse, pair, n, 0)
        eq_fine = exact_equivocation(fine, pair, n, 0)
        assert eq_fine <= eq_coarse + 1e-12


class TestExactCausalDistortion:
    def test_uninformative_everything_uniform(self):
        pair = uniform_independent_pair()
        for n in (1, 2, 3):
            model = full_disclosure_model(2, n)
            got = exact_causal_distortion(model, pair, n, 0)
            assert got == pytest.approx(n * 0.5, abs=1e-12)

    def test_full_disclosure_of_private_part(self):
        # S = U, so identifying the block reveals the private sequence
        pair = instances.example1_pair(0.25, 0.0)
        for n in (1, 2):
            model = full_disclosure_model(2, n)
            got = exact_causal_distortion(model, pair, n, 0)
            assert got == pytest.approx(0.0, abs=1e-12)

    def test_causal_side_information_helps(self):
        # correlated consecutive letters would need memory; with i.i.d. letters
        # past symbols cannot help, so the value matches the single-letter rate
        rng = np.random.default_rng(MASTER_SEED + 54)
        pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng),
                              distortion=instances.hamming(2))
        model = constant_model(2, 2)
        got = exact_causal_distortion(model, pair, 2, 0)
        single = exact_causal_distortion(constant_model(2, 1), pair, 1, 0)
        assert got == pytest.approx(2 * single, abs=1e-10)

    def test_bounded_by_v_only_estimate(self):
        rng = np.random.default_rng(MASTER_SEED + 55)
        for _ in range(5):
            pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng),
                                  distortion=instances.hamming(2))
            n = 2
            model = law_model(zero_rate_law(pair.p.marginal_pmf("U"), n, delta=0.3))
            got = exact_causal_distortion(model, pair, n, 0)
            cap = zero_rate_privacy(pair).delta0_max
            assert got <= n * cap + 1e-10


class TestLikelihoodModel:
    def test_rows_normalize_and_error_handling(self):
        rng = np.random.default_rng(MASTER_SEED + 56)
        pair = instances.example1_pair(0.2, 0.0)
        p_u = pair.p.marginal_pmf("U")
        wch = Channel([[0.85, 0.15], [0.15, 0.85]])
        cb = build_codebook(p_u.probs[:, None] * wch.rows, n=3, eta=0.05, rate=2.0, seed=2)
        model = likelihood_model(cb, delta_prime=0.4)
        assert model.labels[0] == "error"
        np.testing.assert_allclose(model.law.sum(axis=1), 1.0, atol=1e-12)
        # equivocation under this model stays within the information bounds
        eq = exact_equivocation(model, pair, 3, 0)
        h_sv = 3 * conditional_entropy(pair.p, "S", "V")
        h_suv = 3 * conditional_entropy(pair.p, "S", ("U", "V"))
        assert h_suv - 1e-9 <= eq <= h_sv + 1e-9


def loop_mc_report(model, pair, n, hypothesis, trials, seed) -> PrivacyReport:
    """Exact-branch Monte Carlo report with one Bayes estimate per sample and
    letter: the same draws as the program, the same block table."""
    letter = pair.law(hypothesis).probs
    ns, nu, nv = letter.shape
    nm = model.num_messages
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(hypothesis,)))
    draws = rng.choice(letter.size, size=(trials, n), p=letter.ravel())
    s_idx = block_index(draws // (nu * nv), ns)
    u_idx = block_index(draws // nv % nu, nu)
    v_idx = block_index(draws % nv, nv)
    msgs = inverse_cdf(model.law[u_idx], rng.random(trials))
    table = _contract(model.law, letter, n)
    eq = -np.log(table[msgs, s_idx, v_idx] / table.sum(axis=1)[msgs, v_idx])
    d = pair.distortion
    dist = np.zeros(trials)
    for i in range(1, n + 1):
        ti = table.reshape(nm, ns ** i, ns ** (n - i), nv ** n).sum(axis=2)
        cond = ti.reshape(nm, ns ** (i - 1), ns, nv ** n)
        prefix = s_idx // ns ** (n - i + 1)
        cur = s_idx // ns ** (n - i) % ns
        for k in range(trials):
            posterior = cond[msgs[k], prefix[k], :, v_idx[k]]
            shat = np.argmin(posterior @ d)
            dist[k] += d[cur[k], shat]
    se = lambda x: float(x.std(ddof=1) / math.sqrt(trials)) / n
    return PrivacyReport(n=n, hypothesis=hypothesis,
                         equivocation_per_letter=float(eq.mean()) / n,
                         causal_distortion_per_letter=float(dist.mean()) / n,
                         equivocation_stderr=se(eq), distortion_stderr=se(dist))


class TestMcEstimate:
    @pytest.mark.parametrize("distortion", [
        instances.hamming(3),
        np.array([[0.0, 1.3, 0.4], [2.0, 0.0, 0.7], [0.5, 0.9, 0.0]]),
    ], ids=["hamming", "asymmetric"])
    def test_exact_branch_matches_per_sample_bayes_loop(self, distortion):
        rng = np.random.default_rng(MASTER_SEED + 58)
        shape, n = (3, 2, 2), 3
        pair = HypothesisPair(random_joint(rng, shape, names=("S", "U", "V")),
                              random_joint(rng, shape, names=("S", "U", "V")),
                              distortion=distortion)
        model = SchemeModel(n, 2, random_message_law(rng, 2 ** n, 3), ("a", "b", "c"))
        for hyp in (0, 1):
            rep = mc_privacy_estimate(model, pair, n, hyp, trials=300, seed=9)
            assert rep == loop_mc_report(model, pair, n, hyp, trials=300, seed=9)

    def test_block_length_must_match_model(self, monkeypatch):
        pair = instances.example2_pair()
        model = message_map_model(4, 4, lambda s: tuple(x % 2 for x in s))
        for budget in (10 ** 8, 4):        # exact branch, biased branch
            monkeypatch.setattr(adversary, "MAX_JOINT_CELLS", budget)
            with pytest.raises(ValueError, match="model was built for n=4"):
                mc_privacy_estimate(model, pair, 3, 0, trials=50, seed=1)

    def test_matches_exact_within_3_sigma(self):
        rng = np.random.default_rng(MASTER_SEED + 57)
        pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng),
                              distortion=instances.hamming(2))
        n = 2
        model = law_model(zero_rate_law(pair.p.marginal_pmf("U"), n, delta=0.3))
        exact = exact_equivocation(model, pair, n, 0) / n
        rep = mc_privacy_estimate(model, pair, n, 0, trials=4000, seed=8)
        assert not rep.biased
        assert abs(rep.equivocation_per_letter - exact) <= 3 * rep.equivocation_stderr + 1e-3
        exact_d = exact_causal_distortion(model, pair, n, 0) / n
        assert abs(rep.causal_distortion_per_letter - exact_d) <= \
            3 * rep.distortion_stderr + 1e-3

    def test_zero_trials_rejected(self):
        pair = uniform_independent_pair()
        model = constant_model(2, 1)
        with pytest.raises(ValueError):
            mc_privacy_estimate(model, pair, 1, 0, trials=0, seed=0)

    def test_reproducible(self):
        pair = uniform_independent_pair()
        model = constant_model(2, 2)
        a = mc_privacy_estimate(model, pair, 2, 0, trials=500, seed=4)
        b = mc_privacy_estimate(model, pair, 2, 0, trials=500, seed=4)
        assert a == b


class TestCounterexample:
    def test_requires_entropy_gap(self):
        pair = uniform_independent_pair()  # H(S|U,V) = H(S|V)
        with pytest.raises(AssumptionViolatedError):
            counterexample_curve(pair, 0.25, [2], delta=0.1)

    def test_full_timeshare_hits_no_message_level(self):
        pair = instances.counterexample_pair()
        pts = counterexample_curve(pair, 1.0, [2, 4], delta=0.2)
        for pt in pts:
            assert pt.equivocation_per_letter == pytest.approx(
                conditional_entropy(pair.p, "S", "V"), abs=1e-10
            )
            assert pt.alpha_exact == pytest.approx(1.0, abs=1e-12)

    def test_no_timeshare_approaches_weak_converse_level(self):
        pair = instances.counterexample_pair()
        pts = counterexample_curve(pair, 0.0, [2, 4, 6], delta=0.2)
        gaps = [pt.equivocation_per_letter - pt.weak_converse_level for pt in pts]
        assert all(g >= -1e-12 for g in gaps)
        assert gaps[-1] < gaps[0]

    def test_positive_timeshare_boosts_equivocation(self):
        pair = instances.counterexample_pair()
        eps = 0.25
        (pt,) = counterexample_curve(pair, eps, [6], delta=0.2)
        margin = 0.1 * eps * (pt.no_message_level - pt.weak_converse_level)
        assert pt.equivocation_per_letter > pt.weak_converse_level + margin

    def test_points_carry_the_scheme_they_evaluated(self):
        pair = instances.counterexample_pair()
        ns = (2, 4, 6)
        for n, pt in zip(ns, counterexample_curve(pair, 0.25, ns, delta=0.2)):
            assert pt.scheme.law.n == n and "scheme" not in repr(pt)
            assert exact_errors(pt.scheme, pair) == (pt.alpha_exact, pt.beta_exact)

    def test_beta_is_the_exact_type_two_error(self):
        # the curve's beta_n is exact_errors' beta of the same scheme, and the
        # brute-force oracle's
        from htpriv.oracle import exact_error_probabilities
        pair = instances.load_instance(
            os.path.join(ROOT, "instances", "counterexample_binary.json"))
        cfg = SchemeConfig("timeshare", delta=0.2, epsilon_star=0.25)
        ns = (1, 2, 3, 4, 5, 6)
        for n, pt in zip(ns, counterexample_curve(pair, 0.25, ns, delta=0.2)):
            scheme = make_scheme(cfg, pair, n, seed=0)
            assert pt.n == n and pt.beta_exact == exact_errors(scheme, pair)[1]
            _, beta = exact_error_probabilities(
                law_model(scheme.law), _acceptance_predicate(cfg, pair, n, 0), pair, n)
            assert pt.beta_exact == pytest.approx(beta, abs=1e-12)


class TestZeroRateEquivocationGap:
    def test_gap_nonincreasing_when_u_marginals_match(self):
        # same-marginal regime: conditioning on the typicality bit perturbs the
        # (S, V) block law by an exponentially shrinking amount
        for q in (0.0, 0.1):
            pair = instances.example1_pair(0.25, q)
            h_sv = conditional_entropy(pair.p, "S", "V")
            gaps = []
            for n in (2, 4, 6):
                model = law_model(zero_rate_law(pair.p.marginal_pmf("U"), n, delta=0.15))
                eq = exact_equivocation(model, pair, n, 0) / n
                gaps.append(abs(h_sv - eq))
            assert gaps[0] >= gaps[1] - 1e-12
            assert gaps[1] >= gaps[2] - 1e-12


def _typical(freq, probs, delta) -> bool:
    return bool(np.abs(np.asarray(freq) - np.asarray(probs)).max() <= delta + 1e-15)


def _acceptance_predicate(cfg, pair, n, seed):
    """The scheme's detector on message labels, written apart from the
    program's acceptance tests, for the brute-force oracle."""
    p_uv = pair.p.marginal(("U", "V")).probs
    nu, nv = p_uv.shape
    d = cfg.delta

    def joint_freq(a, b, shape):
        counts = np.zeros(shape)
        np.add.at(counts, (np.asarray(a), np.asarray(b)), 1.0)
        return counts / n

    if cfg.scheme == "zero_rate":
        return lambda label, v: label == "typical" and _typical(
            np.bincount(v, minlength=nv) / n, p_uv.sum(axis=0), d)
    if cfg.scheme == "timeshare":
        ublocks = all_sequences(nu, n)
        return lambda label, v: label != "error" and _typical(
            joint_freq(ublocks[label[1]], v, (nu, nv)), p_uv, 2 * d)

    # the scheme's codebook; its laws are rebuilt here from the test channel
    cb = make_scheme(cfg, pair, n, seed).codebook
    rows = np.eye(nu) if cfg.w_channel is None else cfg.w_channel.rows
    p_uw, p_wv = p_uv.sum(axis=1)[:, None] * rows, rows.T @ p_uv
    nw = rows.shape[1]

    def cond_entropy_w_given_v(w, v):
        joint = joint_freq(w, v, (nw, nv))
        h = lambda p: -sum(x * math.log(x) for x in np.ravel(p) if x > 0)
        return h(joint) - h(joint.sum(axis=0))

    def accepts(label, v):
        if label == "error":
            return False
        _, counts, _, b = label
        if not _typical(np.reshape(counts, (nu, nw)) / n, p_uw, d):
            return False
        if cb.identity_binning:
            j = b
        else:
            j, best = None, math.inf
            for cand in range(cb.size):
                w = cb.codewords[cand]
                if cb.bins[cand] != b or not _typical(
                        np.bincount(w, minlength=nw) / n, p_uw.sum(axis=0), nu * d):
                    continue
                h = cond_entropy_w_given_v(w, v)
                if h < best - 1e-15:
                    j, best = cand, h
            if j is None:
                return False
        return _typical(joint_freq(cb.codewords[j], v, (nw, nv)), p_wv, 2 * d)

    return accepts


class TestSchemeModelFor:
    NOISY = Channel([[0.9, 0.1], [0.1, 0.9]])
    CASES = {
        "zero_rate": (instances.zero_rate_binary_pair, dict(scheme="zero_rate", delta=0.15)),
        "timeshare": (instances.counterexample_pair,
                      dict(scheme="timeshare", delta=0.2, epsilon_star=0.25)),
        "likelihood_noisy": (lambda: instances.example1_pair(0.2, 0.0),
                             dict(scheme="likelihood", delta=0.3, w_channel=NOISY)),
        # W = U: a typical block no codeword reproduces has all-zero likelihoods
        "likelihood_identity": (lambda: instances.example1_pair(0.2, 0.0),
                                dict(scheme="likelihood", delta=0.3)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_run_trials_error_rates(self, case):
        # one Scheme: its exact (alpha, beta) agree with the brute-force oracle
        # on its message law, and the trial runner samples the same errors
        from htpriv.oracle import exact_error_probabilities
        from htpriv.schemes import SchemeConfig, make_scheme, run_trials
        from htpriv.adversary import exact_errors, scheme_model_for
        make_pair, kwargs = self.CASES[case]
        pair, cfg, n, seed = make_pair(), SchemeConfig(**kwargs), 4, 21
        scheme = make_scheme(cfg, pair, n, seed)
        model = scheme_model_for(cfg, pair, n, seed)
        if case == "likelihood_identity":
            typical = np.abs(all_sequences(2, n).mean(axis=1) - 0.5) <= cfg.delta_prime
            assert (model.law[typical, 0] == 1.0).any()
        exact = exact_errors(scheme, pair)
        oracle = exact_error_probabilities(
            model, _acceptance_predicate(cfg, pair, n, seed), pair, n)
        assert exact == pytest.approx(oracle, abs=1e-12)
        stats = run_trials(cfg, pair, n, 20_000, seed)
        for est, p in ((stats.alpha_hat, exact[0]), (stats.beta_hat, exact[1])):
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / stats.trials)
            assert abs(est - p) <= 4 * sigma

    @pytest.mark.parametrize("kwargs", [
        dict(scheme="zero_rate", delta=0.5),
        dict(scheme="timeshare", delta=0.5, epsilon_star=0.25),
        dict(scheme="likelihood", delta=0.9, w_channel=NOISY),
    ], ids=["zero_rate", "timeshare", "likelihood"])
    def test_single_letter_errors_match_oracle(self, kwargs):
        # an unbalanced U marginal, so at n=1 one letter is typical and the
        # other is not (the shipped instances make every letter atypical)
        from htpriv.oracle import exact_error_probabilities
        from htpriv.schemes import SchemeConfig, make_scheme
        from htpriv.adversary import exact_errors
        rng = np.random.default_rng(MASTER_SEED + 61)
        pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng))
        cfg = SchemeConfig(**kwargs)
        scheme = make_scheme(cfg, pair, 1, 21)
        exact = exact_errors(scheme, pair)
        assert abs(exact[0] + exact[1] - 1) > 0.05       # alpha and beta are told apart
        oracle = exact_error_probabilities(
            law_model(scheme.law), _acceptance_predicate(cfg, pair, 1, 21), pair, 1)
        assert exact == pytest.approx(oracle, abs=1e-12)

    def test_likelihood_model_seed_matches_setup(self):
        # the audited law is the likelihood law of the codebook the scheme
        # draws with the same seed
        pair = instances.example1_pair(0.2, 0.0)
        wch = Channel([[0.9, 0.1], [0.1, 0.9]])
        cfg = SchemeConfig(scheme="likelihood", delta=0.3, rate_nats=1.0,
                           w_channel=wch)
        model = scheme_model_for(cfg, pair, 5, seed=5)
        cb = make_scheme(cfg, pair, 5, seed=5).codebook
        assert model.n == cb.n == 5
        np.testing.assert_allclose(model.law.sum(axis=1), 1.0, atol=1e-12)
        want = likelihood_model(cb, cfg.delta_prime)
        assert model.labels == want.labels and model.num_messages > 1
        np.testing.assert_array_equal(model.law, want.law)


class TestMultiAxisObservation:
    def _taci_pair(self):
        rng = np.random.default_rng(MASTER_SEED + 70)
        probs = rng.gamma(1, 1, (2, 2, 2, 2))
        probs /= probs.sum()
        p = JointPmf((("S", 2), ("U", 2), ("Y", 2), ("Z", 2)), probs)
        q_probs = rng.gamma(1, 1, (2, 2, 2, 2))
        q_probs /= q_probs.sum()
        q = JointPmf((("S", 2), ("U", 2), ("Y", 2), ("Z", 2)), q_probs)
        return HypothesisPair(p, q, distortion=instances.hamming(2))

    def test_equivocation_with_two_sided_observation(self):
        # V = (Y, Z): the flattened observation must reproduce the
        # letterwise factorization for a constant message
        pair = self._taci_pair()
        for n in (1, 2):
            model = constant_model(2, n)
            eq = exact_equivocation(model, pair, n, 0)
            assert eq == pytest.approx(
                n * conditional_entropy(pair.p, "S", ("Y", "Z")), abs=1e-10
            )

    def test_causal_distortion_with_two_sided_observation(self):
        pair = self._taci_pair()
        model = full_disclosure_model(2, 2)
        got = exact_causal_distortion(model, pair, 2, 0)
        # with the block disclosed, each letter costs the Bayes risk given
        # (U, Y, Z); past private letters add nothing for i.i.d. sources
        joint = pair.p.marginal_array(("S", "U", "Y", "Z"))
        flat = joint.reshape(2, -1)
        per_letter = (pair.distortion.T @ flat).min(axis=0).sum()
        assert got == pytest.approx(2 * per_letter, abs=1e-10)


class TestMcBiasedBranch:
    def test_budget_forces_flagged_estimate(self, monkeypatch):
        rng = np.random.default_rng(MASTER_SEED + 71)
        pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng))
        n = 2
        model = law_model(zero_rate_law(pair.p.marginal_pmf("U"), n, delta=0.3))
        with monkeypatch.context() as mp:
            mp.setattr(adversary, "MAX_JOINT_CELLS", 4)
            rep = mc_privacy_estimate(model, pair, n, 0, trials=400, seed=3)
        assert rep.biased
        assert rep.causal_distortion_per_letter is None
        exact = exact_equivocation(model, pair, n, 0) / n
        # importance-sampled posterior: consistent but only loosely bounded
        assert abs(rep.equivocation_per_letter - exact) < 0.2

    @pytest.mark.parametrize("n", [8, 10])
    def test_agrees_with_exact_when_s_pins_u(self, n, monkeypatch):
        # S pins U here, so a u-block drawn without regard to s^n almost
        # never matches it; the numerator draws come from P(u_i | s_i, v_i)
        pair = instances.zero_rate_binary_pair()
        model = law_model(zero_rate_law(pair.p.marginal_pmf("U"), n, delta=0.15))
        with monkeypatch.context() as mp:
            mp.setattr(adversary, "MAX_JOINT_CELLS", 4)
            rep = mc_privacy_estimate(model, pair, n, 0, trials=200, seed=1)
        assert rep.biased
        exact = exact_equivocation(model, pair, n, 0) / n
        assert abs(rep.equivocation_per_letter - exact) <= 4 * rep.equivocation_stderr

    def test_independent_of_chunk_size(self, monkeypatch):
        # at 2^12 cells a chunk holds one sample, at 2^20 it holds 128
        pair = instances.zero_rate_binary_pair()
        model = law_model(zero_rate_law(pair.p.marginal_pmf("U"), 8, delta=0.15))
        monkeypatch.setattr(adversary, "MAX_JOINT_CELLS", 4)
        reports = []
        for cells in (2 ** 12, 2 ** 20):
            monkeypatch.setattr(schemes, "CHUNK_CELLS", cells)
            reports.append(mc_privacy_estimate(model, pair, 8, 0, trials=200, seed=1))
        assert reports[0].biased
        assert reports[0] == reports[1]

    def test_message_no_draw_sends_raises(self, monkeypatch):
        # S = U and full disclosure: P(m | v^10) = 2^-10, so the 512 draws from
        # P(u | v) almost never send m, and no number is made up for it
        probs = np.zeros((2, 2, 2))
        probs[0, 0], probs[1, 1] = 0.25, 0.25
        j = JointPmf((("S", 2), ("U", 2), ("V", 2)), probs)
        monkeypatch.setattr(adversary, "MAX_JOINT_CELLS", 4)
        with pytest.raises(RuntimeError, match="biased estimate is undefined"):
            mc_privacy_estimate(full_disclosure_model(2, 10), HypothesisPair(j, j), 10, 0,
                                trials=20, seed=1)


class TestModelBuilders:
    def test_zero_rate_model_rows(self):
        model = law_model(zero_rate_law(Pmf([0.5, 0.5]), 2, delta=0.0))
        # typical at delta 0: exactly the balanced sequences 01, 10
        law = model.law
        assert law[0b01, 1] == 1.0 and law[0b10, 1] == 1.0
        assert law[0b00, 0] == 1.0 and law[0b11, 0] == 1.0

    def test_quantize_timeshare_split(self):
        model = quantize_timeshare_model(Pmf([0.5, 0.5]), 2, delta=0.0,
                                         epsilon_star=0.3)
        row = model.law[0b01]
        assert row[0] == pytest.approx(0.3)
        assert row.sum() == pytest.approx(1.0)

    def test_message_map_model_invalid_rows_rejected(self):
        with pytest.raises(ValueError):
            SchemeModel(1, 2, np.array([[0.5, 0.4], [0.5, 0.5]]), ("a", "b"))


def loop_law_table(law):
    """Reference for ``_law_table``: one u-block at a time, each pair added
    to its message's cell in pair order, a new code getting the next column."""
    column, cells = {0: 0}, {}
    for block in range(law.u_size ** law.n):
        codes, probs = law.pairs(all_sequences(law.u_size, law.n)[block][None])
        for code, prob in zip(codes[0].tolist(), probs[0].tolist()):
            col = column.setdefault(code, len(column))
            cells[block, col] = cells.get((block, col), 0.0) + prob
    table = np.zeros((law.u_size ** law.n, len(column)))
    for (block, col), mass in cells.items():
        table[block, col] = mass
    return table, np.array(list(column), dtype=np.int64)


class TestLawTable:
    NOISY = Channel([[0.9, 0.1], [0.1, 0.9]])
    CASES = {
        "zero_rate": (instances.zero_rate_binary_pair, dict(scheme="zero_rate", delta=0.15), 6),
        "zero_rate_four_letters": (instances.example2_pair,
                                   dict(scheme="zero_rate", delta=0.2), 4),
        "timeshare": (instances.counterexample_pair,
                      dict(scheme="timeshare", delta=0.2, epsilon_star=0.25), 6),
        "likelihood_noisy": (lambda: instances.example1_pair(0.2, 0.0),
                             dict(scheme="likelihood", delta=0.3, w_channel=NOISY), 6),
        "likelihood_copy": (instances.zero_rate_binary_pair,
                            dict(scheme="likelihood", delta=0.3), 6),
    }

    @pytest.mark.parametrize("blocks_per_chunk", [None, 1, 3])
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_block_by_block_reference(self, case, blocks_per_chunk, monkeypatch):
        make_pair, kwargs, n = self.CASES[case]
        law = make_scheme(SchemeConfig(**kwargs), make_pair(), n, seed=3).law
        if blocks_per_chunk is not None:
            monkeypatch.setattr(schemes, "CHUNK_CELLS", blocks_per_chunk * law.width * n)
        model, codes = _law_table(law)
        table, want_codes = loop_law_table(law)
        assert model.num_messages > 1
        np.testing.assert_array_equal(codes, want_codes)
        assert model.labels == tuple(law.label(c) for c in want_codes)
        assert model.law.tobytes() == table.tobytes()

    def test_likelihood_law_peak_memory(self):
        # 1024 u-blocks by 1689 codewords: every (code, probability) pair of
        # the law at once, and their scatter, peaked at 109 MiB; the table
        # itself is 1024 x 7 cells
        pair = instances.zero_rate_binary_pair()
        law = make_scheme(SchemeConfig(scheme="likelihood", delta=0.3), pair, 10, seed=0).law
        assert law.width == 1689
        tracemalloc.start()
        try:
            model, _ = _law_table(law)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.num_messages == 7
        assert peak < 16 * 2 ** 20

    def test_budget_error_before_the_table(self, monkeypatch):
        law = zero_rate_law(Pmf([0.5, 0.5]), 6, delta=0.15)       # 64 blocks, 2 messages
        monkeypatch.setattr(adversary, "MAX_JOINT_CELLS", 128)
        assert law_model(law).num_messages == 2
        monkeypatch.setattr(adversary, "MAX_JOINT_CELLS", 127)
        with pytest.raises(BudgetExceededError, match="64 u-blocks x 2 messages"):
            law_model(law)

    def test_budget_error_at_the_first_chunk(self):
        # 2^30 u-blocks cannot fit even one column: the first chunk of blocks
        # is the only one enumerated
        law = zero_rate_law(Pmf([0.5, 0.5]), 30, delta=0.1)
        sizes = []
        counted = dataclasses.replace(law, pairs=lambda b: sizes.append(len(b)) or law.pairs(b))
        with pytest.raises(BudgetExceededError, match=f"{2 ** 30} u-blocks"):
            law_model(counted)
        assert len(sizes) == 1 and sizes[0] < 2 ** 14


def parity_with_silent_messages(n: int) -> SchemeModel:
    """Parity disclosure on example 2 with three never-sent messages in
    columns 3..5, so a chunk of three messages receives no samples."""
    law = message_map_model(4, n, lambda s: tuple(x % 2 for x in s)).law
    law = np.hstack([law[:, :3], np.zeros((law.shape[0], 3)), law[:, 3:]])
    return SchemeModel(n, 4, law, tuple(range(law.shape[1])))


class TestChunkedAudits:
    """Every exact audit holds one chunk of message columns of the block
    table at a time; the chunk size must not change what it reports."""

    @staticmethod
    def cases():
        lik_cfg = SchemeConfig(scheme="likelihood", delta=0.3, eta=0.05, rate_nats=1.0,
                               w_channel=Channel([[0.9, 0.1], [0.1, 0.9]]))
        ex1 = instances.example1_pair(0.2, 0.0)
        lik = make_scheme(lik_cfg, ex1, 5, seed=1)
        # (scheme or None, model, pair, n, messages per chunk): chunks 3,3,3,2 and 7,7,5
        return [(None, parity_with_silent_messages(3), instances.example2_pair(), 3, 3),
                (lik, _law_table(lik.law)[0], ex1, 5, 7)]

    @staticmethod
    def force_chunks(monkeypatch, law, letter, n, per_chunk):
        """Set ``CHUNK_CELLS`` so that ``_block_tables`` streams ``per_chunk``
        message columns at a time, and check that it does, in at least three
        chunks with a shorter last one."""
        ns, nu, nv = letter.shape
        # the per-column cells _block_tables sizes its chunks by
        cells = max((nu + ns * nv) * max(nu, ns * nv) ** (n - 1), n * nv ** n)
        assert [t.shape[0] for _, t in _block_tables(law, letter, n)] == [law.shape[1]]
        monkeypatch.setattr(schemes, "CHUNK_CELLS", per_chunk * cells)
        sizes = [t.shape[0] for _, t in _block_tables(law, letter, n)]
        assert len(sizes) >= 3 and sizes[0] == per_chunk and sizes[-1] < per_chunk

    def test_chunked_audits_match_one_chunk(self, monkeypatch):
        for scheme, model, pair, n, per_chunk in self.cases():
            whole = [(exact_causal_distortion(model, pair, n, h),
                      mc_privacy_estimate(model, pair, n, h, trials=400, seed=6))
                     for h in (0, 1)]
            with monkeypatch.context() as mp:
                self.force_chunks(mp, model.law, _letter_law(model, pair, n, 0), n, per_chunk)
                for h, (dist, rep) in zip((0, 1), whole):
                    assert abs(exact_causal_distortion(model, pair, n, h) - dist) <= 1e-12
                    assert mc_privacy_estimate(model, pair, n, h, trials=400, seed=6) == rep
            if scheme is not None:
                errors = exact_errors(scheme, pair)
                with monkeypatch.context() as mp:
                    self.force_chunks(mp, model.law, pair.uv_law(0)[None], n, per_chunk)
                    assert exact_errors(scheme, pair) == pytest.approx(errors, rel=0, abs=1e-12)

    def test_biased_exactly_when_whole_table_exceeds_budget(self, monkeypatch):
        for _, model, pair, n, per_chunk in self.cases():
            letter = _letter_law(model, pair, n, 0)
            cells = model.num_messages * letter[:, 0].size ** n
            with monkeypatch.context() as mp:
                self.force_chunks(mp, model.law, letter, n, per_chunk)
                mp.setattr(adversary, "MAX_JOINT_CELLS", cells)
                rep = mc_privacy_estimate(model, pair, n, 0, trials=50, seed=2)
                assert not rep.biased and rep.causal_distortion_per_letter is not None
                assert exact_causal_distortion(model, pair, n, 0) >= 0
                # one cell short: every chunk fits, the whole table does not
                mp.setattr(adversary, "MAX_JOINT_CELLS", cells - 1)
                rep = mc_privacy_estimate(model, pair, n, 0, trials=50, seed=2)
                assert rep.biased and rep.causal_distortion_per_letter is None
                with pytest.raises(BudgetExceededError):
                    exact_causal_distortion(model, pair, n, 0)

    @staticmethod
    def traced_peak(fn) -> int:
        tracemalloc.start()          # numpy reports its buffers to tracemalloc
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_below_half_the_whole_table(self, monkeypatch):
        pair, n = instances.example2_pair(), 5
        model = message_map_model(4, n, lambda s: tuple(x % 2 for x in s))
        cells = pair.law(0).probs[:, 0].size ** n
        table_bytes = 8 * model.num_messages * cells          # 32 messages, 8 MiB
        monkeypatch.setattr(schemes, "CHUNK_CELLS", 2 * cells)
        for audit in (lambda: exact_causal_distortion(model, pair, n, 0),
                      lambda: mc_privacy_estimate(model, pair, n, 0, trials=1000, seed=5)):
            assert self.traced_peak(audit) < table_bytes / 2

    def test_bayes_step_keeps_about_one_table_beside_its_input(self):
        # no (|A|, ...) cost tensor: per letter one joint, the best and the
        # candidate cost and the actions, each at most 1/|S| of the table
        pair, n = instances.example2_pair(), 5
        model = message_map_model(4, n, lambda s: tuple(x % 2 for x in s))
        (_, table), = _block_tables(model.law[:, :4], _letter_law(model, pair, n, 0), n)
        assert pair.distortion.shape[1] == 4                # |A| / |S| = 1
        peak = self.traced_peak(lambda: [i for i, _, _ in _causal_bayes(table, pair.distortion, n)])
        assert peak < 1.5 * table.nbytes

    def test_error_peak_memory_below_half_a_message_by_vblock_table(self, monkeypatch):
        # timeshare at n=10: 913 messages by 2^10 v-blocks, 7.13 MiB per P_h[m, v]
        pair, n = instances.counterexample_pair(), 10
        scheme = make_scheme(SchemeConfig("timeshare", delta=0.2, epsilon_star=0.25), pair, n, 0)
        # the dense law over u-blocks is as large (|U| = |V|), so it is built untraced
        model, codes = _law_table(scheme.law)
        table_bytes = 8 * model.num_messages * 2 ** n
        monkeypatch.setattr(schemes, "CHUNK_CELLS", 2 ** 14)
        assert self.traced_peak(lambda: _errors(scheme, model, codes, pair)) < table_bytes / 2


class TestAuditDigest:
    """One SHA-256 over the repr of exact audits, Monte Carlo estimates and
    trial counts on the shipped instances at small n.  Every float repr is
    exact, so any change to how these are computed that moves a bit fails
    here, beside the README CSV digests."""

    SHA256 = "9b9e6f477eb70139dc4a9fed8f29fe9e89c8788550abc59622f46b541e56e8a5"

    @staticmethod
    def results():
        def load(name):
            return instances.load_instance(os.path.join(ROOT, "instances", name))

        ex2, zr, ce, ex1 = (load("example2_tai.json"), load("zero_rate_binary.json"),
                            load("counterexample_binary.json"), load("example1_suv.json"))
        parity = message_map_model(4, 4, lambda s: tuple(x % 2 for x in s))
        lik_cfg = SchemeConfig(scheme="likelihood", delta=0.3, rate_nats=1.0,
                               w_channel=Channel([[0.9, 0.1], [0.1, 0.9]]))
        zr_cfg = SchemeConfig(scheme="zero_rate", delta=0.15)
        ts_cfg = SchemeConfig(scheme="timeshare", delta=0.2, epsilon_star=0.25)
        lik = make_scheme(lik_cfg, ex1, 5, seed=2)
        lik_model = _law_table(lik.law)[0]
        zr_model = scheme_model_for(zr_cfg, zr, 6, seed=0)
        out = []
        for model, pair, n in ((parity, ex2, 4), (zr_model, zr, 6), (lik_model, ex1, 5)):
            for h in (0, 1):
                out += [exact_equivocation(model, pair, n, h),
                        exact_causal_distortion(model, pair, n, h),
                        mc_privacy_estimate(model, pair, n, h, trials=500, seed=3)]
        out += [exact_errors(lik, ex1), exact_errors(make_scheme(zr_cfg, zr, 6, 0), zr),
                exact_errors(make_scheme(ts_cfg, ce, 6, 0), ce)]
        out += [schemes.run_trials(zr_cfg, zr, 12, 20_000, 13),
                schemes.run_trials(ts_cfg, ce, 12, 20_000, 13),
                schemes.run_trials(lik_cfg, ex1, 5, 300, 2)]
        return out

    def test_results_are_bit_identical(self):
        start = time.perf_counter()
        text = "\n".join(repr(r) for r in self.results())
        assert time.perf_counter() - start < 2.0
        assert hashlib.sha256(text.encode()).hexdigest() == self.SHA256
