"""Inspect the five candidate bounds for a hand-picked inner-product pair.

Given a dimension n and two admissible inner products a > b, each candidate
polynomial vanishes at a and b and forces a specific subset of its expansion
coefficients to zero.  A candidate only counts when its whole expansion is
admissible (nonnegative coefficients, positive constant term); the bound is
the smallest admissible value.
"""
import numpy as np

from twodist.bound_polys import (
    CANDIDATE_INDICES,
    InnerProductPair,
    best_bound,
    build_candidate,
    delsarte_check,
)

pair = InnerProductPair(23, 0.2, -0.2)
print(f"n = {pair.n}, a = {pair.a}, b = {pair.b}")
print()

for i in CANDIDATE_INDICES:
    cand = build_candidate(i, pair)
    if cand.expansion is None:
        print(f"candidate {i}: construction undefined for this pair")
        continue
    coeffs = ", ".join(f"{c:+.6f}" for c in cand.expansion.coeffs)
    status = "in domain" if cand.in_domain else "out of domain"
    print(f"candidate {i}: degree {cand.expansion.degree}, f = [{coeffs}]  ({status})")
    if np.isfinite(cand.value):
        print(f"             value = {cand.value:.6f}")

value, winning = best_bound(pair)
print()
print(f"best bound: {value:.6f}, attained by candidate(s) {list(winning)}")

# The winner's expansion is a self-contained certificate: nonnegative
# coefficients, positive constant term, and nonpositive values at a and b.
cand = build_candidate(winning[0], pair)
result = delsarte_check(cand.expansion, [pair.a, pair.b])
print(f"certificate check: ok = {result.ok}, integer cardinality bound = {result.bound}")

# A pair where the sum a + b is positive knocks the quadratic candidate out
# of its domain; here a quartic candidate still applies and carries the bound.
steep = InnerProductPair(10, 7.0 / 18, -2.0 / 9)
value, winning = best_bound(steep)
print()
print(f"n = {steep.n}, a = {steep.a:.6f}, b = {steep.b:.6f}")
print(f"best bound: {value:.6f}, attained by candidate(s) {list(winning)}")
