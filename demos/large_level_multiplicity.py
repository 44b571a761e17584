#!/usr/bin/env python3
"""Compare the exact and mod-p routes to the Eisenstein multiplicity.

The exact route builds saturated lattices over Z and reads g_p off
Smith normal forms; it is the reference but its cost grows fast with
the level.  The mod-p route reduces the symbol quotient modulo p
(legitimate because it only has 2- and 3-torsion) and cuts the plus
part down one Hecke operator at a time, which reaches four-digit
levels in seconds."""

import time

from eistheta.eisenstein import build_context, g_p_dimension
from eistheta.modp import g_p_dimension_modp
from eistheta.modsym import build_space

print("small levels, both routes:")
for N, p in ((11, 5), (31, 5), (41, 5), (211, 5)):
    t0 = time.time()
    exact = g_p_dimension(build_context(build_space(N), p))
    t_exact = time.time() - t0
    t0 = time.time()
    quick = g_p_dimension_modp(N, p)
    t_mod = time.time() - t0
    print(f"  N = {N:4d}: exact {exact} ({t_exact:6.2f}s)   "
          f"mod-p {quick} ({t_mod:5.2f}s)   agree: {exact == quick}")

# 1871 = 2 * 5 * 11 * 17 + 1 with 5 || 1870: the smallest of the
# four-digit levels where the multiplicity is known to stay at 2.
print("\nlarge level, mod-p route only:")
t0 = time.time()
g = g_p_dimension_modp(1871, 5)
print(f"  N = 1871: g_p = {g} in {time.time() - t0:.1f}s")
print("  (4621 and 9931 run the same way; the fixture command of the")
print("   CLI checks all of them: eistheta fixtures --large)")
