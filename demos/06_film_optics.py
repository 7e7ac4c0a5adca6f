"""Free-carrier absorption in a doped oxide film.

Builds a Drude model from measured transport numbers and checks the
lambda^3 scaling of the intraband extinction.
Run:  python demos/06_film_optics.py
"""

import numpy as np

from cavitycharge import drude_from_transport, drude_index, lambda_cubed_ratio, power_attenuation

# why a lossy film kills a cavity: a 10 nm film with kappa = 0.04 costs
# ~0.65% per round trip (double pass), capping the finesse near 1000
loss = 1 - power_attenuation(kappa=0.04, wavelength_m=1550e-9, z_m=20e-9)
print(f"10 nm film at kappa = 0.04: round-trip loss {loss:.2e} "
      f"-> finesse cap ~ {2 * np.pi / loss:.0f}\n")

# Drude model from Hall transport: 2e19 cm^-3 carriers, 37 cm^2/(V s)
model = drude_from_transport(
    carrier_density_per_m3=2e25,
    mobility_m2_per_vs=37e-4,
    eps_inf=3.6,
    effective_mass_ratio=0.24,
)
print(f"plasma frequency {model.plasma_frequency:.2e} rad/s, "
      f"damping {model.damping:.2e} rad/s")
for lam_nm in (1310, 1550, 1650):
    idx = drude_index(model, lam_nm * 1e-9)
    print(f"  {lam_nm} nm: n = {idx.n:.3f}, kappa = {idx.kappa:.2e}")
print("(an as-deposited conductive film: free carriers dominate the NIR loss)\n")

# in the low-damping, low-carrier regime kappa grows as lambda^3
clean = drude_from_transport(2e23, 370e-4)   # 100x fewer carriers, 10x mobility
out = lambda_cubed_ratio(clean, 1650e-9)
print(f"kappa(3300 nm)/kappa(1650 nm) = {out.ratio:.2f} "
      f"(expect 8; regime ok: {out.regime_ok})")
