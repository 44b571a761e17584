#!/usr/bin/env python3
"""Walk through the whole pipeline once at level 11, printing what each
stage produces: the Manin-symbol presentation, Hecke eigenvalues, the
Eisenstein filtration, and the valuation of a theta element."""

from eistheta.eisenstein import alpha_check, build_context, g_p_dimension, theta_valuation
from eistheta.modsym import build_space, hecke, theta_element

N, p = 11, 5

# The space is presented on the N+1 points of P^1(Z/N); the two-term
# relations fold pairs of symbols together, the three-term relations
# form a graph whose spanning tree leaves a free lattice of rank 2g + 1,
# one basis vector per edge off the tree, containing the cuspidal part
# of rank 2g.
space = build_space(N)
print(f"level {N}: {len(space.generators)} Manin symbols, "
      f"rank {space.qmap.ncols} quotient, genus {space.genus}")

# X_0(11) is an elliptic curve, so every Hecke operator acts on the
# 2-dimensional cuspidal lattice by the scalar a_ell of 11a1.
for ell in (2, 3, 5, 11):
    m = hecke(space, ell)
    print(f"  T_{ell} on the cuspidal lattice: {m.entries}")

# The Eisenstein generators are T_ell - (ell + 1) and U_N - 1; W_n is
# the image lattice after applying them n times to the plus part.
ctx = build_context(space, p)
print(f"\nEisenstein filtration at p = {p} (Sturm bound {ctx.sturm_bound}):")
for n, sd in enumerate(ctx.snf_of_W):
    print(f"  W_{n}: elementary divisors {sd.diag}, "
          f"p-exponent of the quotient e_{n} = {ctx.e[n]}")
print(f"multiplicity g_p = {g_p_dimension(ctx)}")

# D = 12 is the first even twist: 11 splits in Q(sqrt 3).  Its theta
# element lands in I * M^+ but not I^2 * M^+ — valuation exactly 1,
# matching the unit criterion being false (the fundamental unit
# 2 + sqrt(3) is not a 5th power modulo a prime above 11).
theta = theta_element(space, 12)
print(f"\ntheta(12) in cuspidal coordinates: {theta.coords}")
print(f"eisenstein valuation of theta(12): {theta_valuation(ctx, theta)}")

# The filtration quotient M^+/W_1 has p-part of order exactly p, and
# {0, b/d} maps to a fixed multiple of the discrete log of d there.
samples = [(1, d) for d in (2, 3, 7, 9, 13, 17)]
print(f"alpha map linear in log(d) over {len(samples)} samples: "
      f"{alpha_check(ctx, samples)}")
