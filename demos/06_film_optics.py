"""Free-carrier absorption in a doped oxide film.

Computes the Drude index of ZnO from measured transport numbers and checks
the lambda^3 scaling of the intraband extinction.
Run:  python demos/06_film_optics.py
"""

import math

from cavitycharge import drude_index

# why a lossy film kills a cavity: a 10 nm film with kappa = 0.04 costs
# ~0.65% per round trip (double pass, power exp(-4 pi kappa z / lambda)),
# capping the finesse near 1000
loss = 1 - math.exp(-4.0 * math.pi * 0.04 * 20e-9 / 1550e-9)
print(f"10 nm film at kappa = 0.04: round-trip loss {loss:.2e} "
      f"-> finesse cap ~ {2 * math.pi / loss:.0f}\n")

# Drude index from Hall transport: 2e19 cm^-3 carriers, 37 cm^2/(V s)
for lam_nm in (1310, 1550, 1650):
    idx = drude_index(2e25, 37e-4, lam_nm * 1e-9)
    print(f"  {lam_nm} nm: n = {idx.real:.3f}, kappa = {idx.imag:.2e}")
print("(an as-deposited conductive film: free carriers dominate the NIR loss)\n")

# in the low-damping, low-carrier regime kappa grows as lambda^3
# (100x fewer carriers, 10x the mobility)
lam = 1650e-9
ratio = drude_index(2e23, 370e-4, 2 * lam).imag / drude_index(2e23, 370e-4, lam).imag
print(f"kappa(3300 nm)/kappa(1650 nm) = {ratio:.2f} (expect 8)")
