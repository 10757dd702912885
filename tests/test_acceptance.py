"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured margins (run with `pytest -s tests/test_acceptance.py` to see
them).  Tolerances are pinned here and nowhere else."""

import math
import time
from functools import reduce

import numpy as np

from htpriv import instances
from htpriv.adversary import (
    counterexample_curve,
    exact_causal_distortion,
    exact_equivocation,
    law_model,
    message_map_model,
    quantize_timeshare_model,
)
from htpriv.oracle import exact_error_probabilities, exhaustive_causal_estimators, grid_min_kl
from htpriv.probcore import (
    Channel,
    JointPmf,
    Pmf,
    all_sequences,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    kl_divergence,
    total_variation,
)
from htpriv.regions import (
    FrontierConfig,
    HypothesisPair,
    attach_channel,
    example1_closed_form,
    exponent_e1,
    exponent_e1_solution,
    kappa_star,
    taci_alternate_law,
    taci_frontier,
    taci_point,
    zero_rate_exponent,
)
from htpriv.schemes import SchemeConfig, run_trials, zero_rate_law

from conftest import MASTER_SEED, random_channel, random_suv_joint

LN2 = math.log(2.0)


def _report(num, label, detail):
    print(f"ACCEPTANCE {num} PASS [{label}]: {detail}")


# ---------------------------------------------------------------------------
# 1. closed form vs numeric frontier
# ---------------------------------------------------------------------------

def test_acceptance_1_example1_frontier_matches_closed_form():
    t0 = time.time()
    worst = 0.0
    for p in (0.15, 0.25, 0.35):
        pair = instances.example1_pair(p, 0.0)
        joint = JointPmf((("S", 2), ("U", 2), ("Y", 2), ("Z", 1)),
                         pair.p.probs[..., None])
        q_cond = instances.conditional_s_given_rest(
            JointPmf((("S", 2), ("U", 2), ("Y", 2), ("Z", 1)), pair.q.probs[..., None])
        )
        cfg = FrontierConfig(random_seeds=60, rng_seed=MASTER_SEED, w_sizes=(2,))
        pts = taci_frontier(joint, q_cond, cfg)
        for r in np.arange(0.0, 0.501, 0.05):
            rate, kappa, lam = example1_closed_form(p, 0.0, float(r))
            gap = min(
                max(abs(pt.rate / LN2 - rate), abs(pt.exponent / LN2 - kappa),
                    abs(pt.privacy0 / LN2 - lam))
                for pt in pts
            )
            assert gap < 1e-3, f"p={p}, r={r}: nearest frontier point off by {gap}"
            worst = max(worst, gap)
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"frontier sweep took {elapsed:.1f}s (budget 120s)"
    _report(1, "example-1 frontier", f"max coord gap {worst:.2e} bits, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. conditional-independence analytic identity
# ---------------------------------------------------------------------------

def test_acceptance_2_taci_identity():
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(10):
        ns = int(rng.integers(2, 3))
        nu, ny, nz = (int(rng.integers(2, 4)) for _ in range(3))
        p_z = rng.gamma(1, 1, nz); p_z /= p_z.sum()
        p_u_z = rng.gamma(1, 1, (nz, nu)); p_u_z /= p_u_z.sum(1, keepdims=True)
        p_y_uz = rng.gamma(1, 1, (nu, nz, ny)); p_y_uz /= p_y_uz.sum(2, keepdims=True)
        p_s = rng.gamma(1, 1, (nu, ny, nz, ns)); p_s /= p_s.sum(3, keepdims=True)
        probs = np.einsum("z,zu,uzy,uyzs->suyz", p_z, p_u_z, p_y_uz, p_s)
        p_joint = JointPmf((("S", ns), ("U", nu), ("Y", ny), ("Z", nz)), probs)
        q_cond = rng.gamma(1, 1, (nu, ny, nz, ns))
        q_cond /= q_cond.sum(-1, keepdims=True)
        q_joint = taci_alternate_law(p_joint, q_cond)
        pair = HypothesisPair(p_joint, q_joint)
        chan = random_channel(rng, nu, int(rng.integers(2, nu + 3)))
        value = exponent_e1(pair, chan)
        target = conditional_mutual_information(attach_channel(p_joint, chan),
                                                "Y", "W", "Z")
        gap = abs(value - target)
        assert gap < 1e-6, f"identity off by {gap}"
        worst = max(worst, gap)
    _report(2, "conditional-independence identity", f"max |E1 - I(Y;W|Z)| = {worst:.2e} nats")


# ---------------------------------------------------------------------------
# 3. zero-rate exponent vs grid oracle
# ---------------------------------------------------------------------------

def test_acceptance_3_zero_rate_vs_grid():
    rng = np.random.default_rng(MASTER_SEED + 1)
    worst = 0.0
    for _ in range(10):
        p_u = Pmf(np.diff(np.sort(np.concatenate([[0, 1], rng.uniform(0.1, 0.9, 1)]))))
        p_v = Pmf(np.diff(np.sort(np.concatenate([[0, 1], rng.uniform(0.1, 0.9, 1)]))))
        t = rng.gamma(1, 1, (2, 2)); t /= t.sum()
        q_uv = JointPmf((("U", 2), ("V", 2)), t)
        opt = zero_rate_exponent(p_u, p_v, q_uv)
        grid = grid_min_kl(q_uv, [((0,), p_u.probs), ((1,), p_v.probs)])
        assert grid >= opt - 1e-9
        assert grid <= opt + 2e-3
        worst = max(worst, grid - opt)
    # product alternate: exponent exactly zero
    p_u = Pmf([0.3, 0.7]); p_v = Pmf([0.55, 0.45])
    q_prod = JointPmf((("U", 2), ("V", 2)), np.outer(p_u.probs, p_v.probs))
    zero = zero_rate_exponent(p_u, p_v, q_prod)
    assert abs(zero) < 1e-9
    _report(3, "zero-rate exponent", f"max grid-opt gap {worst:.2e} nats; product case {zero:.1e}")


# ---------------------------------------------------------------------------
# 4. exact finite-n consistency of the typicality scheme
# ---------------------------------------------------------------------------

def _pinned_zero_rate_pair():
    """Near-deterministic null marginals: at delta = 0.05 the typical windows
    pin the all-ones block for every n <= 9, so the exact type II error is
    geometric and the per-n exponent is constant (the nondecreasing boundary
    case; strict increase is impossible because the acceptance events are
    supermultiplicative across blocklengths)."""
    p_u = np.array([0.05, 0.95])
    p_v = np.array([0.05, 0.95])
    pj = np.zeros((2, 2, 2))
    for u in range(2):
        for v in range(2):
            pj[u, u, v] = p_u[u] * p_v[v]
    q_uv = np.array([[0.08, 0.07], [0.30, 0.55]])
    qj = np.zeros((2, 2, 2))
    for u in range(2):
        for v in range(2):
            qj[u, u, v] = q_uv[u, v]
    axes = (("S", 2), ("U", 2), ("V", 2))
    return HypothesisPair(JointPmf(axes, pj), JointPmf(axes, qj),
                          distortion=instances.hamming(2)), q_uv


def test_acceptance_4_finite_n_consistency():
    pair, q_uv = _pinned_zero_rate_pair()
    delta = 0.05
    p_u = pair.p.marginal_pmf("U")
    p_v = Pmf(pair.p.marginal(("U", "V")).probs.sum(axis=0))
    kstar = zero_rate_exponent(p_u, p_v, pair.q.marginal(("U", "V")))
    prev_rate = -math.inf
    details = []
    for n in (2, 4, 6):
        model = law_model(zero_rate_law(p_u, n, delta))

        def accepts(label, vblock, n=n):
            if label != "typical":
                return False
            freq = np.bincount(np.asarray(vblock), minlength=2) / n
            return bool(np.abs(freq - p_v.probs).max() <= delta + 1e-15)

        alpha, beta = exact_error_probabilities(model, accepts, pair, n)
        stats = run_trials(SchemeConfig(scheme="zero_rate", delta=delta),
                           pair, n, 100_000, seed=MASTER_SEED)
        for est, exact in ((stats.alpha_hat, alpha), (stats.beta_hat, beta)):
            sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / stats.trials)
            assert abs(est - exact) <= 3 * sigma, \
                f"n={n}: estimate {est} vs exact {exact} beyond 3 sigma"
        rate = -math.log(beta) / n
        assert rate >= prev_rate - 1e-12, f"-log(beta)/n decreased at n={n}"
        prev_rate = rate
        # independent slack: best divergence over delta-feasible joint types,
        # realizable at this blocklength (the O(delta) term of the bound)
        best = math.inf
        for k in range(n + 1):
            for l in range(n + 1 - k):
                for m in range(n + 1 - k - l):
                    t = np.array([[k, l], [m, n - k - l - m]]) / n
                    if abs(t.sum(1)[0] - p_u.probs[0]) > delta + 1e-12:
                        continue
                    if abs(t.sum(0)[0] - p_v.probs[0]) > delta + 1e-12:
                        continue
                    mask = t > 0
                    if np.any(q_uv[mask] <= 0):
                        continue
                    best = min(best, float(
                        np.sum(t[mask] * (np.log(t[mask]) - np.log(q_uv[mask])))))
        slack = max(0.0, best - kstar)
        bound = kstar + 4 * math.log(n + 1) / n + slack
        assert rate <= bound + 1e-9, f"n={n}: rate {rate} above bound {bound}"
        details.append(f"n={n}: rate={rate:.4f} bound={bound:.4f}")
    _report(4, "finite-n consistency", "; ".join(details) + f"; kappa*={kstar:.4f}")


# ---------------------------------------------------------------------------
# 5. perfect-privacy reproduction
# ---------------------------------------------------------------------------

def test_acceptance_5_perfect_privacy():
    pair = instances.example2_pair()
    parity = Channel(np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float))
    tp = taci_point(instances.example2_taci_joint(), parity)
    assert abs(tp.exponent - LN2) < 1e-12
    worst = 0.0
    for n in range(1, 7):
        model = message_map_model(4, n, lambda s: tuple(x % 2 for x in s))
        for hyp in (0, 1):
            eq = exact_equivocation(model, pair, n, hyp) / n
            gap = abs(eq - 2 * LN2)
            assert gap < 1e-10, f"n={n} hyp={hyp}: equivocation off by {gap}"
            worst = max(worst, gap)
    _report(5, "perfect privacy", f"exponent 1 bit; max per-letter gap {worst:.1e} nats (n<=6)")


# ---------------------------------------------------------------------------
# 6. strong-converse counterexample
# ---------------------------------------------------------------------------

def test_acceptance_6_strong_converse_counterexample():
    pair = instances.counterexample_pair()
    eps, n, delta = 0.25, 6, 0.2
    (pt,) = counterexample_curve(pair, eps, [n], delta=delta)
    # independent analytic value for the exact type I error, through the
    # brute-force error-probability oracle on the same message law
    p_u = pair.p.marginal_pmf("U")
    p_uv = pair.p.marginal(("U", "V")).probs
    model = quantize_timeshare_model(p_u, n, delta, eps)
    useqs = all_sequences(2, n)

    def accepts(label, vblock):
        if label == "error":
            return False
        u_idx = label[1]
        counts = np.zeros((2, 2))
        np.add.at(counts, (useqs[u_idx], np.asarray(vblock)), 1.0)
        return bool(np.abs(counts / n - p_uv).max() <= 2 * delta + 1e-15)

    alpha_oracle, _ = exact_error_probabilities(model, accepts, pair, n)
    assert abs(pt.alpha_exact - alpha_oracle) < 1e-9
    gap = pt.no_message_level - pt.weak_converse_level
    floor = pt.weak_converse_level + 0.1 * eps * gap
    assert pt.equivocation_per_letter > floor, \
        f"equivocation {pt.equivocation_per_letter} not above {floor}"
    _report(6, "strong-converse counterexample",
            f"alpha={pt.alpha_exact:.6f} (|diff|<{abs(pt.alpha_exact - alpha_oracle):.1e}); "
            f"equivocation exceeds weak-converse level by "
            f"{(pt.equivocation_per_letter - pt.weak_converse_level) / LN2:.4f} bits")


# ---------------------------------------------------------------------------
# 7. empirical decay of typicality-conditioned laws
# ---------------------------------------------------------------------------

def test_acceptance_7_conditioned_law_decay():
    pair, _ = _pinned_zero_rate_pair()   # P_U != Q_U
    delta = 0.05
    q = pair.q.marginal(("S", "U", "V")).probs
    p_u0 = pair.p.marginal_pmf("U").probs[0]
    tvs = []
    for n in range(2, 9):
        useqs = all_sequences(2, n)
        freqs = (useqs == 0).sum(axis=1) / n
        atypical = np.abs(freqs - p_u0) > delta + 1e-15
        total = np.zeros(2 ** n * 2 ** n)
        cond = np.zeros_like(total)
        for ui in range(useqs.shape[0]):
            block = reduce(np.kron, (q[:, u, :] for u in useqs[ui])).ravel()
            total += block
            if atypical[ui]:
                cond += block
        mass = cond.sum()
        assert mass > 0
        tvs.append(0.5 * float(np.abs(total - cond / mass).sum()))
    for a, b in zip(tvs, tvs[1:]):
        assert b <= a + 1e-12, f"TV increased: {a} -> {b}"
    c_fit = -float(np.polyfit(np.arange(2, 9), np.log(tvs), 1)[0])
    assert c_fit > 0
    c_cert = min(-math.log(t) / n for t, n in zip(tvs, range(2, 9)))
    assert c_cert > 0
    for n, t in zip(range(2, 9), tvs):
        assert t <= math.exp(-n * c_cert) + 1e-12
    _report(7, "conditioned-law decay",
            f"TV {tvs[0]:.4f} -> {tvs[-1]:.4f} over n=2..8; fitted c={c_fit:.4f}")


# ---------------------------------------------------------------------------
# 8. causal-distortion oracle equivalence
# ---------------------------------------------------------------------------

def test_acceptance_8_causal_distortion_oracle():
    rng = np.random.default_rng(MASTER_SEED + 2)
    worst = 0.0
    for _ in range(5):
        pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng),
                              distortion=instances.hamming(2))
        delta = float(rng.uniform(0.1, 0.4))
        model = law_model(zero_rate_law(pair.p.marginal_pmf("U"), 2, delta))
        fast = exact_causal_distortion(model, pair, 2, 0)
        brute = exhaustive_causal_estimators(model, pair, 2)
        gap = abs(fast - brute)
        assert gap < 1e-12
        worst = max(worst, gap)
    _report(8, "causal-distortion oracle", f"max |fast - exhaustive| = {worst:.1e}")


# ---------------------------------------------------------------------------
# 9. consolidated property battery
# ---------------------------------------------------------------------------

def test_acceptance_9_property_battery():
    rng = np.random.default_rng(MASTER_SEED + 3)
    checked = {"chain": 0, "pinsker": 0, "coupling": 0, "kappa": 0, "taci": 0}
    for case in range(100):
        shape = tuple(int(x) for x in rng.integers(2, 4, size=2))
        t = rng.gamma(1, 1, shape); t /= t.sum()
        j = JointPmf((("X", shape[0]), ("Y", shape[1])), t)
        # chain rule and information identities
        assert abs(entropy(j) - entropy(j.marginal_pmf("X"))
                   - conditional_entropy(j, "Y", "X")) < 1e-10
        checked["chain"] += 1
        # Pinsker direction
        a = rng.gamma(1, 1, 3); a /= a.sum()
        b = rng.gamma(1, 1, 3); b /= b.sum()
        assert kl_divergence(Pmf(a), Pmf(b)) >= \
            2 * total_variation(Pmf(a), Pmf(b)) ** 2 - 1e-12
        checked["pinsker"] += 1
        if case < 10:
            pair = HypothesisPair(random_suv_joint(rng), random_suv_joint(rng))
            chan = random_channel(rng, 2, 2)
            sol = exponent_e1_solution(pair, chan)
            assert sol.residual < 1e-9
            checked["coupling"] += 1
            r1, r2 = sorted(rng.uniform(0.0, 1.0, 2))
            k1, k2 = kappa_star(r1, pair, chan), kappa_star(r2, pair, chan)
            assert k2 >= k1 - 1e-9
            assert min(k1, k2) <= exponent_e1(pair, chan) + 1e-12
            checked["kappa"] += 1
        if case < 30:
            nz = int(rng.integers(1, 3))
            p_z = rng.gamma(1, 1, nz); p_z /= p_z.sum()
            p_u_z = rng.gamma(1, 1, (nz, 2)); p_u_z /= p_u_z.sum(1, keepdims=True)
            p_y_uz = rng.gamma(1, 1, (2, nz, 2)); p_y_uz /= p_y_uz.sum(2, keepdims=True)
            p_s = rng.gamma(1, 1, (2, 2, nz, 2)); p_s /= p_s.sum(3, keepdims=True)
            probs = np.einsum("z,zu,uzy,uyzs->suyz", p_z, p_u_z, p_y_uz, p_s)
            joint = JointPmf((("S", 2), ("U", 2), ("Y", 2), ("Z", nz)), probs)
            tp = taci_point(joint, random_channel(rng, 2, 2))
            assert tp.exponent <= tp.rate_needed + 1e-10
            checked["taci"] += 1
    _report(9, "property battery", ", ".join(f"{k}:{v}" for k, v in checked.items()))
