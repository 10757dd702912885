"""Walkthrough: simulating the coding schemes at finite blocklength.

Builds the likelihood ``Scheme`` (its codebook is drawn for the (U, W) joint
P_U P_{W|U} and carries it), traces one likelihood-encode / bin / decode /
detect round trip through it, then runs seeded Monte
Carlo trials of the zero-rate scheme and checks them against its exact error
probabilities and the brute-force oracle.

Run:  python demos/finite_blocklength.py
"""

import math

import numpy as np

from htpriv import instances
from htpriv.adversary import exact_errors, scheme_model_for
from htpriv.oracle import exact_error_probabilities
from htpriv.probcore import Channel, Pmf
from htpriv.regions import zero_rate_exponent
from htpriv.schemes import (
    SchemeConfig,
    make_scheme,
    min_entropy_decode,
    run_trials,
    sample_codes,
)

# ---------------------------------------------------------------------------
# 1. one round trip through the likelihood encoder
# ---------------------------------------------------------------------------
pair = instances.example1_pair(0.2, 0.0)
wch = Channel([[0.9, 0.1], [0.1, 0.9]])            # auxiliary channel from U

# delta = 0.3: encoder typicality delta' = 0.15, declared-type gate 0.3,
# decoder delta_hat = |U| delta = 0.6, detector delta_tilde = 2 delta = 0.6
n = 10
scheme = make_scheme(SchemeConfig(scheme="likelihood", delta=0.3, eta=0.05, rate_nats=1.0,
                                  w_channel=wch), pair, n, seed=42)
cb = scheme.codebook
print(f"codebook: {cb.size} codewords of length {n} for I(U;W) = {cb.mutual_info_uw:.4f} nats, "
      f"{'identity binning' if cb.identity_binning else f'{cb.num_bins} bins'}")

rng = np.random.default_rng(1)
p_uv = pair.p.marginal(("U", "V")).probs
flat = rng.choice(4, size=(1, n), p=p_uv.ravel())
u, v = flat // 2, flat % 2
code = sample_codes(scheme.law, u, np.random.default_rng(7).random(1))
label = scheme.law.label(code[0])
print(f"message: {label}")
if label != "error":
    _, counts, _, b = label
    print(f"joint type counts of (u, w), rows u and columns w:\n{np.reshape(counts, (2, 2))}")
    # batched decoder: one (bin, v-block) pair here; -1 means no candidate
    jhat = min_entropy_decode(cb, np.array([b]), v, delta_hat=0.6)[0]
    decision = 0 if scheme.accepts(code, v)[0] else 1
    print(f"decoded index={jhat}, decision H^={decision}")

# ---------------------------------------------------------------------------
# 2. the zero-rate scheme is a single typicality bit
# ---------------------------------------------------------------------------
zr = instances.zero_rate_binary_pair()
p_u0 = zr.p.marginal_pmf("U")
p_v0 = Pmf(zr.p.marginal(("U", "V")).probs.sum(axis=0))
u6 = np.array([[1, 0, 1, 1, 0, 1]])
bit_scheme = make_scheme(SchemeConfig(scheme="zero_rate", delta=0.2), zr, 6, seed=0)
codes, probs = bit_scheme.law.pairs(u6)
bit = int(codes[0][probs[0] == 1.0][0])
print(f"\nzero-rate: sent {bit_scheme.law.label(bit)!r}; "
      f"accepts on a matching block: {bool(bit_scheme.accepts(np.array([bit]), u6)[0])}")

# ---------------------------------------------------------------------------
# 3. Monte Carlo trials vs the exact error probabilities
# ---------------------------------------------------------------------------
cfg = SchemeConfig(scheme="zero_rate", delta=0.15)
n = 6
stats = run_trials(cfg, zr, n, trials=100_000, seed=5)
alpha, beta = exact_errors(make_scheme(cfg, zr, n, seed=5), zr)


def accepts(label, vblock):
    if label != "typical":
        return False
    freq = np.bincount(np.asarray(vblock), minlength=2) / n
    return bool(np.abs(freq - p_v0.probs).max() <= cfg.delta + 1e-15)


oracle = exact_error_probabilities(scheme_model_for(cfg, zr, n, seed=5), accepts, zr, n)
print(f"\nn={n}, 1e5 trials (brute-force oracle agrees to "
      f"{max(abs(alpha - oracle[0]), abs(beta - oracle[1])):.1e}):")
print(f"alpha: exact {alpha:.5f}  estimate {stats.alpha_hat:.5f}  "
      f"95% CI {stats.alpha_interval}")
print(f"beta:  exact {beta:.5f}  estimate {stats.beta_hat:.5f}  "
      f"95% CI {stats.beta_interval}")

kstar = zero_rate_exponent(p_u0, p_v0, zr.q.marginal(("U", "V")))
print(f"finite-n exponent -log(beta)/n = {-math.log(beta) / n:.4f} nats; "
      f"single-letter limit {kstar:.4f} nats")
