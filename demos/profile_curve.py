"""Trace the per-window bound curve for one (n, k) pair.

The admissible larger inner product a runs over a closed window; the smaller
one is forced to (k a - 1)/(k - 1).  At each a the library evaluates all five
candidate polynomials and keeps the smallest in-domain value.  This script
samples that curve coarsely, shows which candidate wins where, and then
compares the coarse maximum with the window maximum, which the library
finds in closed form without sampling.
"""
import math

from twodist.lrs import interval, phi, profile

N, K = 25, 3
lo, hi = interval(K)
print(f"window for k={K}: [{lo:.6f}, {hi:.6f}], dimension n={N}")
print()

samples = profile(N, K, 41)
print(f"{'a':>12} {'q':>14}  winner")
for s in samples:
    q = "inf" if math.isinf(s.q) else f"{s.q:14.4f}"
    winner = "/".join(map(str, s.winning)) if s.winning else "-"
    print(f"{s.a:>12.6f} {q:>14}  {winner}")

coarse = max(s.q for s in samples)
window_max = phi(N, K)
print()
print(f"coarse maximum over 41 samples: {coarse:.6f}")
print(f"window maximum:                 {window_max:.6f}")
print(f"floored bound for this window:  {math.floor(window_max + 1e-9)}")

# The winning index changes along the window: different ratio regimes are
# covered by different candidates, and ties show up as multiple indices.
switches = sum(
    1 for s0, s1 in zip(samples, samples[1:]) if set(s0.winning) != set(s1.winning)
)
print(f"winner changes along the window: {switches}")
