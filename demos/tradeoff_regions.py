"""Walkthrough: evaluating rate / error-exponent / privacy trade-off regions.

Covers the closed-form boundary of the binary cascade instance, the
auxiliary-channel frontier search that reproduces it numerically, achievable
points of the general inner bound, and the zero-rate region.

Run:  python demos/tradeoff_regions.py
"""

import math

import numpy as np

from htpriv import instances
from htpriv.probcore import Channel, JointPmf, Pmf
from htpriv.regions import (
    FrontierConfig,
    example1_closed_form,
    exponent_e1,
    kappa_star,
    taci_frontier,
    taci_point,
    theorem1_point,
    theorem2_point,
    zero_rate_exponent,
    zero_rate_privacy,
)

LN2 = math.log(2.0)

# ---------------------------------------------------------------------------
# 1. the closed-form boundary curve of the binary cascade instance
# ---------------------------------------------------------------------------
# Null: U fair coin, S = U + Ber(q), V = S + Ber(p).  Alternate: V independent.
# The boundary is parameterized by the crossover r of a binary symmetric
# auxiliary channel from U.

print("== closed-form boundary (p = 0.25, q = 0), all units bits ==")
print(f"{'r':>5} {'rate':>8} {'exponent':>9} {'equivocation':>13}")
for r in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
    rate, kappa, lam = example1_closed_form(0.25, 0.0, r)
    print(f"{r:5.2f} {rate:8.4f} {kappa:9.4f} {lam:13.4f}")

# At r = 0 the channel discloses U exactly: full rate, best exponent, zero
# equivocation.  At r = 0.5 nothing is sent: zero rate and exponent, maximal
# equivocation h(p).

# ---------------------------------------------------------------------------
# 2. the numeric frontier search reproduces the curve
# ---------------------------------------------------------------------------
pair = instances.example1_pair(0.25, 0.0)
joint = JointPmf((("S", 2), ("U", 2), ("Y", 2), ("Z", 1)), pair.p.probs[..., None])
q_cond = instances.conditional_s_given_rest(
    JointPmf((("S", 2), ("U", 2), ("Y", 2), ("Z", 1)), pair.q.probs[..., None])
)
cfg = FrontierConfig(random_seeds=40, rng_seed=0, w_sizes=(2,))
points = taci_frontier(joint, q_cond, cfg)
print(f"\n== frontier search: {len(points)} nondominated points ==")
for r in (0.0, 0.25, 0.5):
    target = example1_closed_form(0.25, 0.0, r)
    best = min(points, key=lambda pt: abs(pt.rate / LN2 - target[0]))
    print(f"r={r:4.2f}: closed form ({target[0]:.4f}, {target[1]:.4f}, {target[2]:.4f})"
          f"  frontier ({best.rate / LN2:.4f}, {best.exponent / LN2:.4f},"
          f" {best.privacy0 / LN2:.4f})")

# Each frontier point carries its channel, so it can be reproduced exactly:
pt = points[len(points) // 2]
rep = taci_point(joint, pt.channel)
print(f"reproduction check: |rate diff| = {abs(rep.rate_needed - pt.rate):.2e} nats")

# ---------------------------------------------------------------------------
# 3. achievable points of the general inner bound
# ---------------------------------------------------------------------------
# For a general pair of laws, kappa* is the smaller of two constrained KL
# minimizations; the equivocation and distortion levels come with it.

rng = np.random.default_rng(7)
ps = rng.gamma(1.0, 1.0, (2, 2, 2)); ps /= ps.sum()
qs = rng.gamma(1.0, 1.0, (2, 2, 2)); qs /= qs.sum()
axes = (("S", 2), ("U", 2), ("V", 2))
from htpriv.regions import HypothesisPair
generic = HypothesisPair(JointPmf(axes, ps), JointPmf(axes, qs),
                         distortion=instances.hamming(2))
chan = Channel([[0.85, 0.15], [0.2, 0.8]])

print("\n== general inner bound at three rates (nats) ==")
for rate in (0.1, 0.3, 0.8):
    pt = theorem1_point(generic, chan, rate)
    tag = "feasible" if pt.feasible else "needs more rate"
    print(f"R={rate:.1f}: kappa*={pt.exponent:.4f}  H(S|W,V)={pt.privacy0:.4f}"
          f"  H1 level={pt.privacy1:.4f}  [{tag}]")
pt2 = theorem2_point(generic, chan, 0.8)
print(f"distortion flavor at R=0.8: Bayes distortion {pt2.privacy0:.4f} "
      f"(Hamming units)")
print(f"kappa* is monotone: {kappa_star(0.1, generic, chan):.4f} <= "
      f"{kappa_star(0.8, generic, chan):.4f}")

# ---------------------------------------------------------------------------
# 4. the zero-rate region
# ---------------------------------------------------------------------------
# With sub-exponential message sets, only the typicality bit matters: the
# exponent is the KL minimum over couplings of the null marginals against the
# alternate joint, and privacy is what the detector's own observation leaves.

zr_pair = instances.zero_rate_binary_pair()
p_u = zr_pair.p.marginal_pmf("U")
p_v = Pmf(zr_pair.p.marginal(("U", "V")).probs.sum(axis=0))
exponent = zero_rate_exponent(p_u, p_v, zr_pair.q.marginal(("U", "V")))
priv = zero_rate_privacy(zr_pair)
print("\n== zero-rate region ==")
print(f"exponent = {exponent:.4f} nats = {exponent / LN2:.4f} bits")
print(f"equivocation caps: H0 {priv.lambda0_max / LN2:.4f} bits, "
      f"H1 {priv.lambda1_max / LN2:.4f} bits")
print(f"distortion caps:   H0 {priv.delta0_max:.4f}, H1 {priv.delta1_max:.4f} (Hamming)")

# sanity: E1 with a constant auxiliary channel reduces to the same program
const = Channel(np.ones((2, 1)))
print(f"E1 with constant W: {exponent_e1(zr_pair, const):.4f} "
      f"(= zero-rate exponent {exponent:.4f})")
