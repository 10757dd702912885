"""Coding schemes: construction contracts, hand-checked toys, determinism."""

import math
import tracemalloc

import numpy as np
import pytest

from htpriv import instances, schemes
from htpriv.probcore import (
    Channel,
    JointPmf,
    Pmf,
    SequenceSample,
    empirical_cond_entropy,
    is_typical,
    type_counts,
)
from htpriv.regions import HypothesisPair
from htpriv.schemes import (
    Codebook,
    CodebookSizeError,
    LikelihoodSetup,
    SchemeConfig,
    TrialStats,
    build_codebook,
    likelihood_encode,
    likelihood_law,
    likelihood_scheme,
    make_scheme,
    min_entropy_decode,
    run_trials,
    sample_codes,
    timeshare_law,
    wilson_interval,
    zero_rate_law,
)

from conftest import MASTER_SEED


def toy_codebook(codewords, bins=None, p_w=(0.5, 0.5), n=None, u_size=2,
                 identity=False) -> Codebook:
    cw = np.asarray(codewords, dtype=np.int64)
    n = n or cw.shape[1]
    bins = np.asarray(bins if bins is not None else np.zeros(cw.shape[0]), dtype=np.int64)
    return Codebook(n=n, p_w=Pmf(p_w), codewords=cw,
                    bins=bins, num_bins=int(bins.max()) + 1,
                    identity_binning=identity, u_size=u_size)


def sent(law, block) -> dict:
    """The messages a law sends for one block, by label, with their probabilities."""
    codes, probs = law.pairs(np.asarray([block]))
    return {law.label(c): p for c, p in zip(codes[0], probs[0]) if p > 0}


def uniform_pair() -> HypothesisPair:
    j = JointPmf((("S", 2), ("U", 2), ("V", 2)), np.full((2, 2, 2), 0.125))
    return HypothesisPair(j, j)


class TestBuildCodebook:
    def test_size_formula_n1(self):
        cb = build_codebook(Pmf([0.5, 0.5]), n=1, eta=0.05, rate=5.0, seed=1,
                            mutual_info_uw=math.log(2), u_size=2)
        assert cb.size == math.ceil(math.exp(math.log(2) + 0.05))

    def test_identity_binning_at_high_rate(self):
        cb = build_codebook(Pmf([0.5, 0.5]), n=4, eta=0.05, rate=10.0, seed=1,
                            mutual_info_uw=0.3, u_size=2)
        assert cb.identity_binning
        np.testing.assert_array_equal(cb.bins, np.arange(cb.size))

    def test_uniform_binning_at_low_rate(self):
        cb = build_codebook(Pmf([0.5, 0.5]), n=8, eta=0.05, rate=0.2, seed=1,
                            mutual_info_uw=math.log(2), u_size=2)
        assert not cb.identity_binning
        assert cb.bins.max() < cb.num_bins

    def test_determinism(self):
        kw = dict(n=6, eta=0.05, rate=0.5, mutual_info_uw=math.log(2), u_size=2)
        a = build_codebook(Pmf([0.3, 0.7]), seed=7, **kw)
        b = build_codebook(Pmf([0.3, 0.7]), seed=7, **kw)
        np.testing.assert_array_equal(a.codewords, b.codewords)
        np.testing.assert_array_equal(a.bins, b.bins)

    def test_size_cap(self):
        with pytest.raises(CodebookSizeError):
            build_codebook(Pmf([0.5, 0.5]), n=100, eta=0.05, rate=1.0, seed=0,
                           mutual_info_uw=math.log(2), u_size=2)

    def test_size_cap_is_the_module_constant(self, monkeypatch):
        # exp(4 (log 2 + 0.05)) is about 19.5 codewords
        kw = dict(n=4, eta=0.05, rate=1.0, seed=0, mutual_info_uw=math.log(2), u_size=2)
        assert build_codebook(Pmf([0.5, 0.5]), **kw).size == 20
        monkeypatch.setattr(schemes, "MAX_CODEWORDS", 19)
        with pytest.raises(CodebookSizeError, match="cap 19"):
            build_codebook(Pmf([0.5, 0.5]), **kw)


class TestLikelihoodEncode:
    def test_single_codeword_always_selected(self):
        cb = toy_codebook([[0, 1]])
        chan = Channel([[0.8, 0.2], [0.2, 0.8]])
        u = SequenceSample([0, 1], 2)
        label = likelihood_encode(cb, u, chan, delta_prime=0.5, seed=3)
        assert label != "error"
        assert label[3] == 0

    def test_zero_likelihood_codeword_excluded(self):
        cb = toy_codebook([[0, 0], [1, 1]])
        chan = Channel([[1.0, 0.0], [0.0, 1.0]])  # P(u|w) = 1(u = w)
        u = SequenceSample([1, 1], 2)
        for seed in range(5):
            label = likelihood_encode(cb, u, chan, delta_prime=1.0, seed=seed)
            # codeword 0 has zero likelihood; joint type of (u, w(1)) is all-(1,1)
            assert label[:2] == ("type", (0, 0, 0, 2))

    def test_atypical_input_gives_error_message(self):
        cb = toy_codebook([[0, 1], [1, 0]])
        chan = Channel([[0.8, 0.2], [0.2, 0.8]])
        u = SequenceSample([1, 1], 2)  # freq (0, 1) vs p_u = (0.5, 0.5)
        assert likelihood_encode(cb, u, chan, delta_prime=0.1, seed=0) == "error"

    def test_selection_probabilities_match_hand_products(self):
        # two codewords, hand-computed likelihood products
        cb = toy_codebook([[0, 0], [0, 1]])
        chan = Channel([[0.8, 0.2], [0.4, 0.6]])
        u = SequenceSample([0, 1], 2)
        lik = np.array([0.8 * 0.2, 0.8 * 0.6])
        _, probs = likelihood_law(cb, chan, delta_prime=0.6).pairs(u.symbols[None, :])
        np.testing.assert_allclose(probs[0], lik / lik.sum(), rtol=1e-12)
        probs = probs[0]
        # empirical selection frequency over seeds follows those probabilities
        picks = []
        for seed in range(4000):
            _, counts, _, _ = likelihood_encode(cb, u, chan, delta_prime=0.6, seed=seed)
            picks.append(1 if counts[1 * 2 + 1] == 1 else 0)   # cell (u, w) = (1, 1)
        freq = np.mean(picks)
        sigma = math.sqrt(probs[1] * (1 - probs[1]) / 4000)
        assert abs(freq - probs[1]) < 4 * sigma

    def test_degenerate_encoder_sends_error_message(self):
        # every codeword has zero likelihood: the encoder and its law both
        # send the error message
        cb = toy_codebook([[0, 0], [0, 0]])
        chan = Channel([[0.0, 1.0], [0.5, 0.5]])  # u=0 impossible under w=0
        u = SequenceSample([0, 0], 2)
        assert likelihood_encode(cb, u, chan, delta_prime=1.0, seed=0) == "error"
        assert sent(likelihood_law(cb, chan, delta_prime=1.0), [0, 0]) == {"error": 1.0}


def loop_min_entropy_decode(cb, b, v, nv, delta_hat):
    """The per-codeword decoder the batched one replaced, for one bin and one
    v-block: the first strictly better entropy (by more than 1e-15) wins."""
    if cb.identity_binning:
        return b
    best, best_h = -1, math.inf
    for l in np.flatnonzero(cb.bins == b):
        w = SequenceSample(cb.codewords[l], cb.p_w.support_size)
        if not is_typical(w, cb.p_w, delta_hat):
            continue
        h = empirical_cond_entropy(w, SequenceSample(v, nv))
        if h < best_h - 1e-15:
            best, best_h = int(l), h
    return best


def decode_one(cb, b, v, delta_hat) -> int:
    return int(min_entropy_decode(cb, np.array([b]), np.array([v]), delta_hat)[0])


class TestMinEntropyDecode:
    def test_single_typical_candidate(self):
        cb = toy_codebook([[0, 1], [1, 1]], bins=[0, 0])
        # codeword 1 = (1,1) is atypical for p_w = (1/2, 1/2) at delta 0.1
        assert decode_one(cb, 0, [0, 1], delta_hat=0.1) == 0

    def test_matched_codeword_wins(self):
        # w(1) = v symbolwise: H_e = 0; w(0) is empirically independent of v
        cb = toy_codebook([[0, 0, 1, 1], [0, 1, 0, 1]], bins=[0, 0])
        assert decode_one(cb, 0, [0, 1, 0, 1], delta_hat=0.5) == 1

    def test_argmin_matches_enumeration(self):
        rng = np.random.default_rng(MASTER_SEED + 40)
        cw = rng.integers(0, 2, size=(3, 6))
        cb = toy_codebook(cw, bins=[0, 0, 0])
        v = rng.integers(0, 2, size=6)
        got = decode_one(cb, 0, v, delta_hat=1.0)
        hs = [empirical_cond_entropy(SequenceSample(w, 2), SequenceSample(v, 2)) for w in cw]
        assert got == int(np.argmin(hs))

    def test_empty_bin_fails(self):
        cb = toy_codebook([[1, 1]], bins=[0])
        assert decode_one(cb, 0, [0, 1], delta_hat=0.1) == -1

    def test_identity_mode_returns_index(self):
        cb = toy_codebook([[0, 1], [1, 0]], bins=[0, 1], identity=True)
        assert decode_one(cb, 1, [0, 0], delta_hat=0.0) == 1

    def test_exact_tie_first_index_wins(self):
        # w = v and w = 1 - v both give H_e(w | v) = 0, and so does a repeat
        v = [0, 1, 0, 1]
        for cw, want in (([[1, 0, 1, 0], [0, 1, 0, 1]], 0),
                         ([[0, 0, 1, 1], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]], 1)):
            assert decode_one(toy_codebook(cw, bins=[0] * len(cw)), 0, v, delta_hat=0.5) == want

    def test_matches_per_codeword_loop_on_random_codebooks(self):
        # multi-member and empty bins, atypical codewords, repeated codewords
        # (exact entropy ties), identity binning, and |V| up to 3
        rng = np.random.default_rng(MASTER_SEED + 41)
        seen = set()
        for case in range(150):
            n, nw, nv = int(rng.integers(2, 8)), int(rng.integers(2, 4)), int(rng.integers(2, 4))
            pool = rng.integers(0, nw, size=(int(rng.integers(1, 6)), n))
            cw = pool[rng.integers(0, len(pool), size=int(rng.integers(1, 13)))]
            num_bins = int(rng.integers(1, 5))
            identity = case % 10 == 0
            bins = np.arange(len(cw)) if identity else rng.integers(0, num_bins, size=len(cw))
            p_w = rng.dirichlet(np.ones(nw))
            cb = Codebook(n=n, p_w=Pmf(p_w), codewords=cw, bins=bins,
                          num_bins=len(cw) if identity else num_bins,
                          identity_binning=identity, u_size=2)
            delta_hat = float(rng.choice([0.0, 0.15, 0.3, 1.0]))
            qbins = rng.integers(0, cb.num_bins, size=20)
            vblocks = rng.integers(0, nv, size=(20, n))
            got = min_entropy_decode(cb, qbins, vblocks, delta_hat)
            want = [loop_min_entropy_decode(cb, b, v, nv, delta_hat)
                    for b, v in zip(qbins, vblocks)]
            assert got.tolist() == want
            seen.update(("identity" if identity else "fail" if w < 0 else "ok") for w in want)
            if not identity and (np.bincount(bins, minlength=num_bins) == 0).any():
                seen.add("empty_bin")
            if not identity and not all(is_typical(SequenceSample(w, nw), cb.p_w, delta_hat)
                                        for w in cw):
                seen.add("atypical")
        assert seen == {"identity", "fail", "ok", "empty_bin", "atypical"}


def random_likelihood_setup(rng, n, nu, nw) -> LikelihoodSetup:
    """A random codebook over |W| letters (identity binning one time in four)
    with random P(U|W), P_UW and P_WV (|V| = 2)."""
    size = int(rng.integers(1, 9))
    identity = rng.random() < 0.25
    bins = np.arange(size) if identity else rng.integers(0, 3, size=size)
    cb = Codebook(n=n, p_w=Pmf(rng.dirichlet(np.ones(nw))),
                  codewords=rng.integers(0, nw, size=(size, n)), bins=bins,
                  num_bins=size if identity else 3, identity_binning=identity,
                  u_size=nu)
    return LikelihoodSetup(cb, Channel(rng.dirichlet(np.ones(nu), size=nw)),
                           rng.dirichlet(np.ones(nu * nw)).reshape(nu, nw),
                           rng.dirichlet(np.ones(nw * 2)).reshape(nw, 2))


def loop_accepts(setup, delta, code, v) -> tuple[bool, bool]:
    """(declared-type gate, detector decision) of one message, one step at a
    time: the code's base-(n+1) digits are the joint-type counts."""
    cb = setup.codebook
    n, nv = cb.n, setup.p_wv.shape[1]
    if code == 0:
        return False, False
    t, b = divmod(int(code) - 1, cb.num_bins)
    counts = []
    for _ in range(setup.p_uw.size):
        t, c = divmod(t, n + 1)
        counts.insert(0, c)
    gate = np.abs(np.array(counts) / n - setup.p_uw.ravel()).max() <= delta + 1e-15
    if not gate:
        return False, False
    j = loop_min_entropy_decode(cb, b, v, nv, cb.u_size * delta)
    if j < 0:
        return True, False
    joint = np.zeros(setup.p_wv.shape)
    for w_i, v_i in zip(cb.codewords[j], v):
        joint[w_i, v_i] += 1
    return True, bool(np.abs(joint / n - setup.p_wv).max() <= 2 * delta + 1e-15)


class TestTypeCoding:
    """A likelihood message is the joint type of (u, w(j)) and the bin of j;
    its code is 1 + block_index(counts, n + 1) * num_bins + bin."""

    def test_label_counts_are_joint_types(self):
        rng = np.random.default_rng(MASTER_SEED + 60)
        sent_codes = 0
        for _ in range(60):
            n, nu, nw = int(rng.integers(1, 8)), int(rng.integers(2, 4)), int(rng.integers(2, 4))
            setup = random_likelihood_setup(rng, n, nu, nw)
            cb = setup.codebook
            law = likelihood_law(cb, setup.reverse_channel, delta_prime=1.0)
            ublocks = rng.integers(0, nu, size=(10, n))
            codes, probs = law.pairs(ublocks)
            for u, row_codes, row_probs in zip(ublocks, codes, probs):
                for j in np.flatnonzero(row_probs > 0):
                    want = tuple(type_counts(u * nw + cb.codewords[j], nu * nw).tolist())
                    assert law.label(row_codes[j]) == ("type", want, "bin", int(cb.bins[j]))
                    sent_codes += 1
        assert sent_codes > 1000

    def test_code_range_is_checked(self):
        cb = toy_codebook(np.zeros((1, 30), dtype=int), bins=[0])
        # (30 + 1)^4 types fit; |U| = 12 letters give 31^24 >= 2^62
        likelihood_law(cb, Channel([[0.5, 0.5], [0.5, 0.5]]), delta_prime=0.1)
        wide = toy_codebook(np.zeros((1, 30), dtype=int), bins=[0], u_size=12)
        with pytest.raises(CodebookSizeError):
            likelihood_law(wide, Channel(np.full((2, 12), 1 / 12)), delta_prime=0.1)

    def test_gate_matches_per_message_loop(self):
        rng = np.random.default_rng(MASTER_SEED + 61)
        outcomes = set()
        for _ in range(40):
            n, nu, nw = int(rng.integers(1, 7)), int(rng.integers(2, 4)), int(rng.integers(2, 4))
            setup = random_likelihood_setup(rng, n, nu, nw)
            cb = setup.codebook
            delta = float(rng.choice([0.0, 0.2, 0.4, 1.0]))
            scheme = likelihood_scheme(setup, SchemeConfig(scheme="likelihood", delta=delta))
            # codes the encoder sends, and arbitrary codes over the whole range
            drawn = sample_codes(scheme.law, rng.integers(0, nu, size=(15, n)), rng.random(15))
            anywhere = rng.integers(0, (n + 1) ** (nu * nw) * cb.num_bins + 1, size=15)
            codes = np.concatenate([drawn, anywhere])
            vblocks = rng.integers(0, 2, size=(len(codes), n))
            got = scheme.accepts(codes, vblocks)
            want = [loop_accepts(setup, delta, c, v) for c, v in zip(codes, vblocks)]
            assert got.tolist() == [decision for _, decision in want]
            outcomes.update(want)
        assert outcomes == {(False, False), (True, False), (True, True)}


class TestDetect:
    """The likelihood scheme's detector on a one-codeword toy codebook."""

    DIAG = np.array([[0.5, 0.0], [0.0, 0.5]])
    P_WV = DIAG
    ANTI = np.array([[0.0, 0.5], [0.5, 0.0]])

    def scheme(self, codeword, p_uw, delta):
        cb = toy_codebook([codeword], bins=[0], identity=True)
        setup = LikelihoodSetup(cb, Channel(np.eye(2)), p_uw, self.P_WV)
        return likelihood_scheme(setup, SchemeConfig(scheme="likelihood", delta=delta))

    @staticmethod
    def accepts(scheme, code, vblock) -> bool:
        return bool(scheme.accepts(np.array([code]), np.array([vblock]))[0])

    @staticmethod
    def encode(scheme, ublock) -> int:
        codes, probs = scheme.law.pairs(np.array([ublock]))
        (code,) = codes[0][probs[0] == 1.0]
        return int(code)

    def test_error_message_rejects(self):
        s = self.scheme([0, 1], self.DIAG, delta=0.25)
        assert not self.accepts(s, 0, [0, 1])

    def test_exact_joint_type_accepts_at_zero(self):
        s = self.scheme([0, 1], self.DIAG, delta=0.0)
        code = self.encode(s, [0, 1])
        assert s.law.label(code) == ("type", (1, 0, 0, 1), "bin", 0)
        assert self.accepts(s, code, [0, 1])

    def test_empirically_independent_pair_rejects(self):
        # P_WV strongly correlated; (w, v) built to look independent
        s = self.scheme([0, 0, 1, 1], self.DIAG, delta=0.1)   # delta_tilde = 0.2
        code = self.encode(s, [0, 0, 1, 1])
        assert self.accepts(s, code, [0, 0, 1, 1])
        assert not self.accepts(s, code, [0, 1, 0, 1])

    def test_failed_gate_rejects(self):
        # same message and (w, v) pair; only the declared-type gate differs
        code = self.encode(self.scheme([0, 1], self.DIAG, delta=0.25), [0, 1])
        assert self.accepts(self.scheme([0, 1], self.DIAG, delta=0.25), code, [0, 1])
        assert not self.accepts(self.scheme([0, 1], self.ANTI, delta=0.25), code, [0, 1])

    def test_type_gate_helper(self):
        code = self.encode(self.scheme([0, 1], self.DIAG, delta=0.0), [0, 1])
        assert self.accepts(self.scheme([0, 1], self.DIAG, delta=0.0), code, [0, 1])
        assert not self.accepts(self.scheme([0, 1], self.ANTI, delta=0.05), code, [0, 1])


class TestZeroRateScheme:
    def test_exact_type_sends_flag(self):
        law = zero_rate_law(Pmf([0.5, 0.5]), 4, delta=0.0)
        assert sent(law, [0, 1, 0, 1]) == {"typical": 1.0}

    def test_error_bit_forces_reject(self):
        s = make_scheme(SchemeConfig(scheme="zero_rate", delta=1.0), uniform_pair(), 2, seed=0)
        v = np.array([[0, 1]])
        assert s.accepts(np.array([1]), v)[0]
        assert not s.accepts(np.array([0]), v)[0]

    def test_frequency_gap(self):
        law = zero_rate_law(Pmf([0.5, 0.5]), 4, delta=0.1)
        assert sent(law, [0, 0, 0, 0]) == {"error": 1.0}


class TestTimeshare:
    P_U = Pmf([0.5, 0.5])

    def test_zero_epsilon_is_identity(self):
        law = timeshare_law(self.P_U, 2, delta=0.0, epsilon_star=0.0)
        assert sent(law, [0, 1]) == {("seq", 0b01): 1.0}
        assert sent(law, [1, 1]) == {"error": 1.0}

    def test_unit_epsilon_always_error(self):
        law = timeshare_law(self.P_U, 2, delta=0.0, epsilon_star=1.0)
        blocks = np.tile([0, 1], (20, 1))
        uniforms = np.random.default_rng(MASTER_SEED).random(20)
        assert (sample_codes(law, blocks, uniforms) == 0).all()

    def test_error_frequency_binomial(self):
        law = timeshare_law(self.P_U, 2, delta=0.0, epsilon_star=0.2)
        assert sent(law, [1, 0]) == {"error": 0.2, ("seq", 0b10): 0.8}
        blocks = np.tile([1, 0], (100_000, 1))
        uniforms = np.random.default_rng(MASTER_SEED).random(100_000)
        hits = int((sample_codes(law, blocks, uniforms) == 0).sum())
        assert abs(hits / 100_000 - 0.2) < 0.004


class TestRunTrials:
    def test_degenerate_always_accept(self):
        # equal laws and delta = 1: every sequence typical, detector accepts
        pair = instances.example1_pair(0.25, 0.0)
        pair = type(pair)(pair.p, pair.p, distortion=pair.distortion)
        cfg = SchemeConfig(scheme="zero_rate", delta=1.0)
        stats = run_trials(cfg, pair, n=4, trials=2000, seed=5)
        assert stats.alpha_hat == 0.0
        assert stats.beta_hat == 1.0

    def test_determinism(self):
        pair = instances.zero_rate_binary_pair()
        cfg = SchemeConfig(scheme="zero_rate", delta=0.1)
        a = run_trials(cfg, pair, n=6, trials=4000, seed=11)
        b = run_trials(cfg, pair, n=6, trials=4000, seed=11)
        assert a == b

    def test_zero_rate_matches_oracle_3sigma(self):
        from htpriv import adversary, oracle
        pair = instances.zero_rate_binary_pair()
        delta = 0.15
        n = 6
        model = adversary.zero_rate_model(pair.p.marginal_pmf("U"), n, delta)
        p_v = Pmf(pair.p.marginal(("U", "V")).probs.sum(axis=0))

        def accepts(label, vblock):
            if label != "typical":
                return False
            return bool(
                np.abs(np.bincount(np.asarray(vblock), minlength=2) / n
                       - p_v.probs).max() <= delta + 1e-15
            )

        alpha, beta = oracle.exact_error_probabilities(model, accepts, pair, n)
        cfg = SchemeConfig(scheme="zero_rate", delta=delta)
        stats = run_trials(cfg, pair, n=n, trials=100_000, seed=13)
        for est, exact in ((stats.alpha_hat, alpha), (stats.beta_hat, beta)):
            sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / stats.trials)
            assert abs(est - exact) <= 3 * sigma + 1e-9

    def test_likelihood_scheme_runs_and_detects(self):
        pair = instances.example1_pair(0.2, 0.0)
        # noisy auxiliary channel so every codeword keeps positive likelihood
        wch = Channel([[0.9, 0.1], [0.1, 0.9]])
        cfg = SchemeConfig(scheme="likelihood", delta=0.3, eta=0.05,
                           rate_nats=1.0, w_channel=wch)
        stats = run_trials(cfg, pair, n=8, trials=400, seed=3)
        # correlated null vs independent alternate: the test must do far better
        # than blind guessing on at least one error type
        assert stats.alpha_hat < 0.5
        assert stats.beta_hat < 0.9

    def test_timeshare_alpha_approaches_epsilon(self):
        pair = instances.counterexample_pair()
        cfg = SchemeConfig(scheme="timeshare", delta=0.25, epsilon_star=0.3)
        stats = run_trials(cfg, pair, n=10, trials=20_000, seed=9)
        # alpha >= epsilon* - typicality slack
        assert stats.alpha_hat > 0.25
        assert stats.alpha_hat < 0.6


def one_shot_trials(config, pair, n, trials, seed) -> TrialStats:
    """The trial runner with every draw made at once: under hypothesis h one
    ``choice`` call draws every letter of every trial, then one uniform per
    trial selects its message, and the scheme runs on all trials in one call."""
    scheme = make_scheme(config, pair, n, seed)
    accepted = []
    for hyp in (0, 1):
        juv = pair.uv_law(hyp)
        nv = juv.shape[1]
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(hyp, 0)))
        flat = rng.choice(juv.size, size=(trials, n), p=juv.ravel())
        codes = sample_codes(scheme.law, flat // nv, rng.random(trials))
        accepted.append(int(scheme.accepts(codes, flat % nv).sum()))
    t1, t2 = trials - accepted[0], accepted[1]
    return TrialStats(trials, t1, t2, t1 / trials, t2 / trials,
                      wilson_interval(t1, trials), wilson_interval(t2, trials))


# the typicality runs span several chunks at every chunk size tested (at most
# 2^20 / (2 * 8) = 65536 trials a chunk), the likelihood run at 2^10 cells only
STREAM_CASES = {
    "zero_rate": (SchemeConfig(scheme="zero_rate", delta=0.15),
                  instances.zero_rate_binary_pair(), 8, 70_000),
    "timeshare": (SchemeConfig(scheme="timeshare", delta=0.2, epsilon_star=0.25),
                  instances.counterexample_pair(), 8, 70_000),
    "likelihood": (SchemeConfig(scheme="likelihood", delta=0.3, rate_nats=1.0,
                                w_channel=Channel([[0.9, 0.1], [0.1, 0.9]])),
                   instances.example1_pair(0.2, 0.0), 6, 300),
}


class TestStreamedDraws:
    @pytest.mark.parametrize("cells", [2 ** 10, 2 ** 18, 2 ** 20])
    @pytest.mark.parametrize("scheme", list(STREAM_CASES))
    def test_equals_one_shot_stream(self, monkeypatch, scheme, cells):
        config, pair, n, trials = STREAM_CASES[scheme]
        monkeypatch.setattr(schemes, "CHUNK_CELLS", cells)
        for seed in (1, 7, 13):
            assert run_trials(config, pair, n, trials, seed) == \
                one_shot_trials(config, pair, n, trials, seed)

    @staticmethod
    def suv_pair(p_uv, q_uv) -> HypothesisPair:
        """A pair whose (U, V) laws are the given ones, with S a noisy copy of U."""
        nu, nv = np.shape(p_uv)
        s0 = np.linspace(0.2, 0.8, nu)
        s_given_u = np.stack([s0, 1.0 - s0], axis=1)

        def joint(uv):
            probs = np.einsum("us,uv->suv", s_given_u, np.asarray(uv, dtype=float))
            return JointPmf((("S", 2), ("U", nu), ("V", nv)), probs)

        return HypothesisPair(joint(p_uv), joint(q_uv))

    @pytest.mark.parametrize("laws", [
        # |U| = 2, |V| = 8: 16 letters, and a swap of |U| and |V| would show
        (np.arange(1, 17).reshape(2, 8) / 136, np.arange(16, 0, -1).reshape(2, 8) / 136),
        # zero-probability letters inside the cdf and at its end
        ([[0.2, 0.0, 0.3], [0.0, 0.5, 0.0]], [[0.1, 0.0, 0.2], [0.0, 0.7, 0.0]]),
    ], ids=["sixteen_letters", "zero_letters"])
    @pytest.mark.parametrize("config", [SchemeConfig(scheme="zero_rate", delta=0.2),
                                        SchemeConfig(scheme="timeshare", delta=0.25,
                                                     epsilon_star=0.25)],
                             ids=["zero_rate", "timeshare"])
    def test_draws_equal_choice(self, monkeypatch, laws, config):
        pair = self.suv_pair(*laws)
        monkeypatch.setattr(schemes, "CHUNK_CELLS", 2 ** 10)
        for seed in (1, 7):
            got = run_trials(config, pair, 5, 3000, seed)
            assert got == one_shot_trials(config, pair, 5, 3000, seed)
            assert 0 < got.type1_errors < got.trials

    @pytest.mark.parametrize("scheme, pair, config", [
        ("zero_rate", instances.zero_rate_binary_pair(),
         SchemeConfig(scheme="zero_rate", delta=0.15)),
        ("timeshare", instances.counterexample_pair(),
         SchemeConfig(scheme="timeshare", delta=0.2, epsilon_star=0.25)),
    ], ids=["zero_rate", "timeshare"])
    def test_memory_does_not_grow_with_trials(self, scheme, pair, config):
        # the one-shot draws of 100000 trials at n=16 peak near 38 MiB
        run_trials(config, pair, 16, 10, seed=13)        # warm up lazy imports
        tracemalloc.start()
        try:
            run_trials(config, pair, 16, 100_000, seed=13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestTimeshareContainment:
    def test_exact_beta_shrinks_with_epsilon(self):
        # the acceptance region under epsilon* > 0 is a subset of the base
        # scheme's, so the exact type II error can only go down
        from htpriv import adversary, oracle
        pair = instances.counterexample_pair()
        n, delta = 4, 0.2
        p_u = pair.p.marginal_pmf("U")
        p_uv = pair.p.marginal(("U", "V")).probs
        useqs = adversary.all_sequences(2, n)

        def accepts(label, vblock):
            if label == "error":
                return False
            counts = np.zeros((2, 2))
            np.add.at(counts, (useqs[label[1]], np.asarray(vblock)), 1.0)
            return bool(np.abs(counts / n - p_uv).max() <= 2 * delta + 1e-15)

        betas = []
        for eps in (0.0, 0.3, 0.7):
            model = adversary.quantize_timeshare_model(p_u, n, delta, eps)
            _, beta = oracle.exact_error_probabilities(model, accepts, pair, n)
            betas.append(beta)
        assert betas[1] <= betas[0] + 1e-15
        assert betas[2] <= betas[1] + 1e-15
        assert betas[1] == pytest.approx(0.7 * betas[0], abs=1e-12)


class TestWilson:
    def test_interval_contains_hat(self):
        lo, hi = wilson_interval(37, 1000)
        assert lo < 0.037 < hi

    def test_extremes(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi > 0
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and lo < 1
