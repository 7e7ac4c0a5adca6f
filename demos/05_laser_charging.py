"""How fast does stray laser light charge a grounded conductive film?

A grounded transparent-oxide coating lets photoelectron charge bleed
away through its sheet resistance instead of accumulating. This demo
reproduces the pessimistic steady-state estimate and shows why the real
situation is far kinder (Gaussian clipping).
Run:  python demos/05_laser_charging.py
"""

from cavitycharge import (
    equilibrium_charge,
    film_resistance,
    gaussian_clipping_factor,
    photocurrent,
)
from cavitycharge.charging import capacitance_breakdown
from cavitycharge.quantities import CODATA
from cavitycharge.scenario import FilmSection, IlluminationSection

film = FilmSection(
    rho_ohm_m=1e-4,      # the annealed-film DC resistivity
    thickness_m=30e-9,
    capacitance_f=0.1e-12,
)
illum = IlluminationSection(
    power_w=0.2e-3, wavelength_m=369e-9, quantum_efficiency=1.0, waist_m=100e-6
)

# worst case: the full beam hits the film, every photon ejects an electron
flux = photocurrent(illum)
print(f"photoelectron rate (first principles): {flux.rate_per_s:.2e} 1/s")
print(f"photocurrent: {flux.current_a * 1e9:.1f} nA")

r = film_resistance(film)
print(f"\nsheet resistance {r:.0f} Ohm/sq; "
      f"grounded film ~ one square -> R = {r / 1e3:.2f} kOhm")

parts = capacitance_breakdown(125e-6, 200e-6)  # a 125 um mirror radius
print(f"capacitance: self {parts.self_f * 1e15:.1f} fF + pair "
      f"{parts.mirror_pair_f * 1e15:.1f} fF + electrodes "
      f"{parts.electrode_f * 1e15:.0f} fF ~ {parts.total_f * 1e12:.2f} pF")

# with the commonly quoted 4e11 1/s rate the film floats at ~130 e
steady = equilibrium_charge(r, film.capacitance_f, 4e11 * CODATA.e)
print(f"\nat 4e11 photoelectrons/s: V = {steady.voltage_v * 1e6:.0f} uV, "
      f"Q = {steady.charge_e:.0f} e, RC = {steady.rc_time_s * 1e9:.2f} ns")

steady_fp = equilibrium_charge(r, film.capacitance_f, flux.current_a)
print(f"at the raw first-principles rate: Q = {steady_fp.charge_e:.2e} e")

clip = gaussian_clipping_factor(beam_waist_m=100e-6, x_q_m=200e-6)
print(f"\nGaussian clipping for a centered 100 um waist: {clip:.2e}")
print(f"clipped-beam equilibrium charge: "
      f"{equilibrium_charge(r, film.capacitance_f, flux.current_a * clip).charge_e:.0f} e")
print("\nEither way the film discharges in under a nanosecond; stray charge"
      "\nstays at or below the ~100 e level the ion/Rydberg budgets tolerate.")
