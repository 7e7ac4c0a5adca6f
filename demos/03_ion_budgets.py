"""Stray-charge budgets for a trapped ion near coated mirrors.

A 171 amu ion at 500 kHz secular frequency in a 30 MHz Paul trap sits
between mirror surfaces 200 um away. How much stray charge on a mirror
can each application tolerate?  Run:  python demos/03_ion_budgets.py
"""

from cavitycharge import (
    ChargeScenario,
    GateParams,
    carrier_intensity_factor,
    equilibrium_position,
    gate_detuning_verdict,
    lamb_dicke_budget,
    max_charge_for_cooling,
    micromotion_amplitude,
    shifted_frequency,
    zero_point_spread,
)
from cavitycharge.electrostatics import field_at
from cavitycharge.ion_impact import charge_for_displacement, max_equal_charge_for_gate
from cavitycharge.scenario import TrapSection

trap = TrapSection(
    mass_amu=171,
    secular_hz=500e3,
    rf_hz=30e6,
    cooling_wavelength_m=369e-9,
    gate_wavelength_m=355e-9,
    cavity_wavelength_m=1650e-9,
)
X_Q = 200e-6

# one stray charge displaces the ion and feeds micromotion
s = ChargeScenario(q1_e=1400, q2_e=0, x_q_m=X_Q)
x_t = equilibrium_position(trap, s)
w_t = shifted_frequency(trap, s)
x_um = micromotion_amplitude(trap, x_t, w_t)
print(f"1400 e on one mirror: displacement {x_t * 1e6:.2f} um, "
      f"micromotion {x_um * 1e9:.1f} nm")
print(f"carrier intensity factor J0^2 = "
      f"{carrier_intensity_factor(x_um, trap.cooling_wavelength_m):.3f}\n")

# budget 1: keep at least half the Doppler cooling power
cooling = max_charge_for_cooling(trap, X_Q, intensity_floor=0.5)
print(f"cooling budget:    q1 < {cooling.q1_e:7.0f} e  "
      f"(E = {cooling.field_v_per_m:5.1f} V/m, x~ = {cooling.x_tilde_m * 1e6:.2f} um)")

# budget 2: stay within lambda/8 of the cavity antinode
q_coupling = charge_for_displacement(trap, X_Q, trap.cavity_wavelength_m / 8)
s_c = ChargeScenario(q_coupling, 0, X_Q)
print(f"coupling budget:   q1 < {q_coupling:7.0f} e  "
      f"(E = {field_at(s_c, trap.cavity_wavelength_m / 8):5.1f} V/m, "
      f"x~ = lambda_c/8 = {trap.cavity_wavelength_m / 8 * 1e9:.0f} nm)")

# budget 3: keep the gate laser phase modulation small, k x_um < 0.2
ld = lamb_dicke_budget(trap, X_Q, modulation_limit=0.2)
print(f"Lamb-Dicke budget: q1 < {ld.q1_max_e:7.0f} e  "
      f"(E = {ld.field_v_per_m:5.1f} V/m, x_um = {ld.x_micromotion_max_m * 1e9:.1f} nm)")
print(f"   zero-point spread for scale: "
      f"{zero_point_spread(trap) * 1e9:.1f} nm\n")

# budget 4: secular-frequency error against a 10 kHz two-qubit gate
gate = GateParams(rabi_hz=10e3)
verdict = gate_detuning_verdict(trap, ChargeScenario(630, 630, X_Q), gate)
print("equal charges 630 e + 630 e:")
print(f"  delta_x / omega_x  = {verdict.ratio_secular:.4f}")
print(f"  delta_x / Omega_2g = {verdict.ratio_rabi:.3f} "
      f"(threshold {gate.threshold_ratio}; within: {verdict.within_threshold})")
bound = max_equal_charge_for_gate(trap, X_Q, gate)
print(f"  the Rabi-referenced threshold actually allows q1 = q2 < {bound:.0f} e")
