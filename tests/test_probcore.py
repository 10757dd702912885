"""Information-calculus primitives: frozen examples plus randomized invariants."""

import json
import math

import numpy as np
import pytest

from htpriv.instances import load_instance, save_instance
from htpriv.probcore import (
    Channel,
    JointPmf,
    Pmf,
    SequenceSample,
    SupportMismatchError,
    binary_entropy,
    choice_cdf,
    choice_draws,
    conditional_entropy,
    conditional_mutual_information,
    all_sequences,
    empirical_cond_entropy,
    entropy,
    has_typical_sequence,
    inv_binary_entropy,
    is_typical,
    joint_type,
    kl_divergence,
    mutual_information,
    pmf_close,
    star,
    total_variation,
    type_counts,
    typical_rows,
)
from htpriv.regions import HypothesisPair

from conftest import MASTER_SEED, PROPERTY_CASES, random_joint, random_pmf

# hand evaluation of -(1/4) ln(1/4) - (3/4) ln(3/4)
H_QUARTER = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))


class TestEntropy:
    def test_uniform_maximizer(self):
        assert entropy(Pmf([0.25] * 4)) == pytest.approx(math.log(4), abs=1e-14)

    def test_point_mass(self):
        assert entropy(Pmf([1.0, 0.0])) == 0.0

    def test_two_term_sum(self):
        assert entropy(Pmf([0.25, 0.75])) == pytest.approx(H_QUARTER, abs=1e-14)


class TestKlDivergence:
    def test_self_divergence(self):
        p = Pmf([0.3, 0.2, 0.5])
        assert kl_divergence(p, p) == 0.0

    def test_single_surviving_term(self):
        assert kl_divergence(Pmf([1, 0]), Pmf([0.5, 0.5])) == pytest.approx(math.log(2))

    def test_absolute_continuity_violation(self):
        assert kl_divergence(Pmf([0.5, 0.5]), Pmf([1.0, 0.0])) == math.inf

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatchError):
            kl_divergence(Pmf([0.5, 0.5]), Pmf([0.3, 0.3, 0.4]))


class TestConditionalQuantities:
    def test_independent_product(self):
        j = JointPmf((("X", 2), ("Y", 3)),
                     np.outer([0.4, 0.6], [0.2, 0.3, 0.5]))
        assert mutual_information(j, "X", "Y") == pytest.approx(0.0, abs=1e-14)

    def test_deterministic_copy(self):
        j = JointPmf((("X", 2), ("Y", 2)), np.diag([0.3, 0.7]))
        assert conditional_entropy(j, "X", "Y") == pytest.approx(0.0, abs=1e-14)

    def test_parity_disclosure_one_bit(self):
        # 4-ary U uniform with W = U mod 2 adjoined: I(U;W) is exactly one bit
        probs = np.zeros((4, 2))
        for u in range(4):
            probs[u, u % 2] = 0.25
        j = JointPmf((("U", 4), ("W", 2)), probs)
        assert mutual_information(j, "U", "W") == pytest.approx(math.log(2), abs=1e-12)

    def test_unknown_axis(self):
        j = JointPmf((("X", 2), ("Y", 2)), np.full((2, 2), 0.25))
        with pytest.raises(ValueError):
            conditional_entropy(j, "Q", "Y")


class TestTotalVariation:
    def test_identical(self):
        p = Pmf([0.5, 0.5])
        assert total_variation(p, p) == 0.0

    def test_disjoint(self):
        assert total_variation(Pmf([1, 0]), Pmf([0, 1])) == 1.0

    def test_hand_sum(self):
        assert total_variation(Pmf([0.6, 0.4]), Pmf([0.5, 0.5])) == pytest.approx(0.1)


class TestBinaryAlgebra:
    def test_hb_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_star_fixed_point(self):
        for b in (0.0, 0.1, 0.5, 0.77, 1.0):
            assert star(0.5, b) == pytest.approx(0.5, abs=1e-15)

    def test_star_direct(self):
        assert star(0.1, 0.2) == pytest.approx(0.26, abs=1e-15)

    def test_star_commutative_and_zero(self):
        rng = np.random.default_rng(MASTER_SEED)
        for _ in range(PROPERTY_CASES):
            a, b = rng.random(2)
            assert star(a, b) == pytest.approx(star(b, a), abs=1e-15)
            assert star(a, 0.0) == pytest.approx(a, abs=1e-15)

    def test_inverse_roundtrip_grid(self):
        for y in np.linspace(0.0, 1.0, 101):
            assert binary_entropy(inv_binary_entropy(y)) == pytest.approx(y, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)
        with pytest.raises(ValueError):
            inv_binary_entropy(-0.1)
        with pytest.raises(ValueError):
            star(1.2, 0.5)


class TestTypicality:
    def test_exact_type_is_typical_at_zero(self):
        x = SequenceSample([0, 0, 1, 1], 2)
        assert is_typical(x, Pmf([0.5, 0.5]), 0.0)

    def test_function_has_zero_empirical_cond_entropy(self):
        x = SequenceSample([0, 1, 0, 1, 1], 2)
        y = SequenceSample([1, 0, 1, 0, 0], 2)  # y = 1 - x
        assert empirical_cond_entropy(y, x) == pytest.approx(0.0, abs=1e-14)

    def test_frequency_gap_detected(self):
        x = SequenceSample([0, 0, 0, 1], 2)
        assert not is_typical(x, Pmf([0.5, 0.5]), 0.1)

    def test_typical_set_emptiness_matches_enumeration(self):
        rng = np.random.default_rng(MASTER_SEED + 9)
        # exact types at delta 0, and delta below the 1/n type resolution
        cases = [([0.25, 0.75], 4, 0.0), ([0.5, 0.5], 3, 0.05), ([0.5, 0.5], 6, 0.15)]
        for _ in range(PROPERTY_CASES // 2):
            k, n = int(rng.integers(2, 5)), int(rng.integers(1, 7))
            probs = random_pmf(rng, k).probs
            cases += [(probs, n, d) for d in (0.0, rng.uniform(0, 1 / n), 1 / n)]
        seen = set()
        for probs, n, delta in cases:
            probs = np.asarray(probs)
            want = bool(typical_rows(all_sequences(probs.size, n), probs, delta).any())
            assert has_typical_sequence(probs, n, delta) == want, (probs, n, delta)
            seen.add(want)
        assert seen == {True, False}

    def test_type_counts_match_per_row_bincount(self):
        rng = np.random.default_rng(MASTER_SEED + 10)
        seqs = rng.integers(0, 3, size=(4, 5, 7))
        counts = type_counts(seqs, 4)
        assert counts.shape == (4, 5, 4)
        for idx in np.ndindex(4, 5):
            np.testing.assert_array_equal(counts[idx], np.bincount(seqs[idx], minlength=4))
        assert type_counts(seqs[:0], 4).shape == (0, 5, 4)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            joint_type(SequenceSample([0, 1], 2), SequenceSample([0, 1, 0], 2))


class TestChoiceCdf:
    def test_inverts_to_the_choice_draw(self):
        # with zero entries, which choice never draws
        rng = np.random.default_rng(MASTER_SEED + 11)
        for k in (1, 2, 5, 9):
            p = random_pmf(rng, k).probs.copy()
            p[rng.random(k) < 0.3] = 0.0
            p = p / p.sum() if p.sum() > 0 else np.eye(k)[0]
            seed = int(rng.integers(2 ** 32))
            want = np.random.default_rng(seed).choice(k, size=(40, 7), p=p)
            got = choice_cdf(p).searchsorted(np.random.default_rng(seed).random((40, 7)),
                                             side="right")
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("p", [
        np.arange(1, 17) / 136,                              # 16 letters
        [0.2, 0.0, 0.0, 0.3, 0.5],                           # repeated edges inside
        [0.25, 0.0, 0.75, 0.0, 0.0],                         # and at the end
        [0.0, 0.0, 1.0, 0.0],
    ], ids=["sixteen", "zeros_inside", "zeros_at_end", "point_mass"])
    def test_comparison_draws_equal_choice(self, p):
        p = np.asarray(p, dtype=float)
        for seed in (1, 2, 3):
            want = np.random.default_rng(seed).choice(p.size, size=(300, 9), p=p)
            got = choice_draws(choice_cdf(p), np.random.default_rng(seed).random((300, 9)))
            np.testing.assert_array_equal(got, want)
            assert got.dtype == np.min_scalar_type(p.size)
        # uniforms on the edges themselves count the edge, as searchsorted does
        cdf = choice_cdf(p)
        edges = np.concatenate([[0.0], cdf[:-1], np.nextafter(cdf[:-1], 0.0)])
        edges = edges[edges < 1.0]
        np.testing.assert_array_equal(choice_draws(cdf, edges),
                                      cdf.searchsorted(edges, side="right"))

    @pytest.mark.parametrize("p", [[0.5, -0.1, 0.6], [0.5, np.nan, 0.5], [np.inf, 0.0],
                                   [0.5, 0.49], [[0.5, 0.5]], []],
                             ids=["negative", "nan", "inf", "sum", "2d", "empty"])
    def test_rejects_what_choice_rejects(self, p):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(max(np.size(p), 1), p=p)
        with pytest.raises(ValueError):
            choice_cdf(p)

    def test_accepts_sum_within_choice_tolerance(self):
        p = np.array([0.5, 0.5 + 1e-9])
        np.random.default_rng(0).choice(2, p=p)
        assert choice_cdf(p)[-1] == 1.0


class TestRandomizedInvariants:
    def test_chain_rule(self):
        rng = np.random.default_rng(MASTER_SEED)
        for _ in range(PROPERTY_CASES):
            shape = tuple(rng.integers(2, 5, size=2))
            j = random_joint(rng, shape, names=("X", "Y"))
            lhs = entropy(j)
            rhs = entropy(j.marginal_pmf("X")) + conditional_entropy(j, "Y", "X")
            assert abs(lhs - rhs) < 1e-10

    def test_mutual_information_identity_and_sign(self):
        rng = np.random.default_rng(MASTER_SEED + 1)
        for _ in range(PROPERTY_CASES):
            shape = tuple(rng.integers(2, 5, size=2))
            j = random_joint(rng, shape, names=("X", "Y"))
            i_xy = mutual_information(j, "X", "Y")
            assert i_xy >= -1e-12
            alt = entropy(j.marginal_pmf("X")) - conditional_entropy(j, "X", "Y")
            assert abs(i_xy - alt) < 1e-10

    def test_pinsker_direction(self):
        rng = np.random.default_rng(MASTER_SEED + 2)
        for _ in range(PROPERTY_CASES):
            k = int(rng.integers(2, 6))
            p, q = random_pmf(rng, k), random_pmf(rng, k)
            assert kl_divergence(p, q) >= 2.0 * total_variation(p, q) ** 2 - 1e-12

    def test_entropy_difference_tv_bound(self):
        # |H(p) - H(q)| <= -2 rho log(2 rho / |X|) whenever rho <= 1/4
        rng = np.random.default_rng(MASTER_SEED + 3)
        checked = 0
        while checked < PROPERTY_CASES:
            k = int(rng.integers(2, 6))
            p = random_pmf(rng, k)
            noise = rng.normal(0, 0.02, size=k)
            noise -= noise.mean()
            q_probs = np.maximum(p.probs + noise, 1e-9)
            q = Pmf(q_probs / q_probs.sum())
            rho = total_variation(p, q)
            if not 0 < rho <= 0.25:
                continue
            bound = -2.0 * rho * math.log(2.0 * rho / k)
            assert abs(entropy(p) - entropy(q)) <= bound + 1e-12
            checked += 1

    def test_conditional_mi_chain(self):
        rng = np.random.default_rng(MASTER_SEED + 4)
        for _ in range(PROPERTY_CASES // 2):
            j = random_joint(rng, (2, 3, 2), names=("X", "Y", "Z"))
            # I(X;Y,Z) = I(X;Z) + I(X;Y|Z)
            lhs = mutual_information(j, "X", ("Y", "Z"))
            rhs = mutual_information(j, "X", "Z") + conditional_mutual_information(
                j, "X", "Y", "Z"
            )
            assert abs(lhs - rhs) < 1e-10

    def test_type_class_members_always_typical(self):
        rng = np.random.default_rng(MASTER_SEED + 5)
        for _ in range(PROPERTY_CASES // 2):
            n = int(rng.integers(2, 9))
            counts = rng.multinomial(n, [0.5, 0.5])
            seq = np.repeat(np.arange(2), counts)
            rng.shuffle(seq)
            x = SequenceSample(seq, 2)
            type_pmf = Pmf(counts / n)
            for delta in (0.0, 0.01, 0.3):
                assert is_typical(x, type_pmf, delta)

    def test_total_variation_triangle(self):
        rng = np.random.default_rng(MASTER_SEED + 6)
        for _ in range(PROPERTY_CASES // 2):
            k = int(rng.integers(2, 6))
            p, q, r = (random_pmf(rng, k) for _ in range(3))
            assert total_variation(p, r) <= (
                total_variation(p, q) + total_variation(q, r) + 1e-14
            )


class TestSerialization:
    # the laws of an instance file: save_instance writes them, load_instance reads them
    def test_json_roundtrip_preserves_axis_order(self, tmp_path):
        rng = np.random.default_rng(MASTER_SEED + 7)
        p, q = (random_joint(rng, (3, 2, 2), names=("U", "S", "V")) for _ in range(2))
        path = str(tmp_path / "inst.json")
        save_instance(HypothesisPair(p, q), path)
        back = load_instance(path)
        for got, want in ((back.p, p), (back.q, q)):
            assert got.axes == want.axes
            np.testing.assert_array_equal(got.probs, want.probs)

    def test_json_schema_fields(self, tmp_path):
        law = JointPmf((("S", 2), ("U", 1)), [[0.25], [0.75]])
        path = tmp_path / "inst.json"
        save_instance(HypothesisPair(law, law), str(path))
        rec = json.loads(path.read_text(encoding="utf-8"))
        for key in ("p_suv", "q_suv"):
            assert rec[key]["axes"] == [{"name": "S", "size": 2}, {"name": "U", "size": 1}]
            assert rec[key]["probs"] == [0.25, 0.75]


class TestValidation:
    def test_mass_check(self):
        with pytest.raises(ValueError):
            Pmf([0.5, 0.4])

    def test_negative_entry(self):
        with pytest.raises(ValueError):
            Pmf([1.1, -0.1])

    def test_channel_rows(self):
        with pytest.raises(ValueError):
            Channel([[0.5, 0.4], [0.5, 0.5]])

    def test_sequence_range(self):
        with pytest.raises(ValueError):
            SequenceSample([0, 2], 2)

    def test_pmf_close_tolerance(self):
        assert pmf_close(Pmf([0.5, 0.5]), Pmf([0.5 + 5e-13, 0.5 - 5e-13]))
        assert not pmf_close(Pmf([0.5, 0.5]), Pmf([0.51, 0.49]))
