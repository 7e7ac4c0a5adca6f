"""Stray-field limits for Rydberg-atom coherence and blockade gates.

The 70S Rydberg state polarizability (53.4 kHz per (V/m)^2) turns small
stray fields into large Stark shifts; this sets charge budgets for
Ramsey coherence and blockade-gate fidelity.
Run:  python demos/04_rydberg_budgets.py
"""

from cavitycharge import (
    blockade_infidelity,
    decoherence_time,
    dephasing,
    max_charge_for_infidelity,
    stark_shift,
)
from cavitycharge.electrostatics import single_charge_field
from cavitycharge.rydberg_impact import charge_for_coherence_time
from cavitycharge.scenario import RydbergSection

# 70S polarizability, Hz per (V/m)^2, and two-photon Rabi frequency 5 MHz
cfg = RydbergSection(alpha=53.4e3, rabi_hz=5e6)
X_Q = 200e-6

print(f"polarizability: {cfg.alpha / 1e3:.1f} kHz per (V/m)^2")
print("states: |g> = 5S1/2, |r> = 70S1/2\n")

# a single 54 e charge 200 um away
field = single_charge_field(54, X_Q)
print(f"54 e at 200 um -> E = {field:.2f} V/m")
print(f"  Stark shift   {stark_shift(cfg, field) / 1e3:.1f} kHz")
print(f"  dephasing after 1 us: {dephasing(cfg, field, 1e-6):.2f} rad")
print(f"  full decoherence at tau_pi = {decoherence_time(cfg, field) * 1e6:.2f} us\n")

# invert: how much charge is compatible with a 5 us coherence time?
coh = charge_for_coherence_time(cfg, tau_pi_s=5e-6, x_q_m=X_Q)
print(f"5 us coherence goal  -> q1 < {coh.q1_e:.0f} e ({coh.field_v_per_m:.2f} V/m)")

# blockade gate: 1% infidelity target
gate = max_charge_for_infidelity(cfg, target_infidelity=0.01, x_q_m=X_Q)
print(f"1% blockade target   -> q1 < {gate.q1_e:.0f} e ({gate.field_v_per_m:.2f} V/m)")

check = blockade_infidelity(cfg, stark_shift(cfg, gate.field_v_per_m))
print(f"  back-substituted infidelity: {check:.4f}")

print("\ncharge scaling (infidelity grows as q1^4):")
for q1 in (35, 70, 140, 280):
    infid = blockade_infidelity(cfg, stark_shift(cfg, single_charge_field(q1, X_Q)))
    print(f"  q1 = {q1:4d} e -> 1 - F = {infid:.2e}")
