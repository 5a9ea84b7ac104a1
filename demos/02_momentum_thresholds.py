"""Walkthrough: when does momentum preserve a rare gradient?

A periodic stream emits a rare value C every N steps and a repeating
value u otherwise, with opposite signs (the destructive case). Plain
momentum follows C only when |C/u| clears an accumulation bound; the
boost operator lowers that bound by a factor between rho and rho^2.

Run: python3 demos/02_momentum_thresholds.py
"""

import numpy as np

from gradqueue import (
    LemmaParams,
    SparseSignalSpec,
    lemma1_closed,
    lemma3_closed,
    simulate_gq_momentum,
    simulate_momentum,
    threshold_boosted,
    threshold_plain,
)

beta, rho, N, L = 0.9, 3.0, 9, 3
params = LemmaParams(beta=beta, rho=rho, L=L)

plain_bound = threshold_plain(N, beta)
boosted_bound = threshold_boosted(N, params)
print(f"|C/u| bound, plain momentum : {plain_bound:.4f}")
print(f"|C/u| bound, boosted        : {boosted_bound:.4f}")
print(f"improvement factor          : {plain_bound / boosted_bound:.2f}"
      f"  (rho={rho}, rho^2={rho**2})")

# pick C inside the band: plain momentum loses the rare signal, the
# boosted run keeps it
C = 2.0
spec = SparseSignalSpec(C=C, u=-1.0, N=N)
steps = 5 * N
plain = simulate_momentum(spec, beta, steps)
boosted = simulate_gq_momentum(spec, params, steps)

print(f"\nC = {C} (between the bounds); momentum at period ends:")
print("  period   plain      boosted")
for k in range(1, 6):
    print(f"  {k:4d}   {plain[k * N - 1]:+8.4f}   {boosted[k * N - 1]:+8.4f}")
print("plain carries the sign of u, boosted the sign of C.")

# closed forms reproduce the simulated period-end values exactly
k = 3
c1 = lemma1_closed(spec, beta, k)
c3 = lemma3_closed(spec, params, k)
print(f"\nclosed forms at k={k}: plain {c1:+.6f} (sim {plain[k * N - 1]:+.6f}),"
      f" boosted {c3:+.6f} (sim {boosted[k * N - 1]:+.6f})")
