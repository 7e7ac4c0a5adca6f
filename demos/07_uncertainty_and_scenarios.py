"""Uncertainty propagation engines and scenario files.

Shows the two propagation engines, linear and Gauss-Hermite cubature,
agreeing on a nonlinear chain, and a scenario document round-tripping
through the canonical serializer.
Run:  python demos/07_uncertainty_and_scenarios.py
"""

from cavitycharge import (
    UncertainQuantity,
    parse_scenario,
    propagate_cubature,
    propagate_linear,
    serialize_scenario,
)
from cavitycharge.reports import bundled_scenario

linewidth = UncertainQuantity(523e3, 9e3)
fsr = UncertainQuantity(7.410e9, 0.013e9)

linear = propagate_linear(lambda d, f: f / d, [linewidth, fsr])
cubature = propagate_cubature(lambda d, f: f / d, [linewidth, fsr])

print("finesse = FSR / linewidth")
print(f"  linear (finite differences): {linear}")
print(f"  cubature (8 x 8 nodes):      {cubature}")
print(f"  sigma ratio cubature/linear: {cubature.sigma / linear.sigma:.4f}\n")

# the bundled scenario binds every input of the reproduction report
scn = bundled_scenario()
print(f"bundled scenario {scn.name!r}")
print(f"  trap: {scn.trap.mass_amu:.0f} amu at {scn.trap.secular_hz / 1e3:.0f} kHz")
print(f"  charges: {scn.charges.q1_e:.0f} e + {scn.charges.q2_e:.0f} e at "
      f"{scn.charges.xq_m * 1e6:.0f} um")

text = serialize_scenario(scn)
assert parse_scenario(text) == scn
assert serialize_scenario(parse_scenario(text)) == text
print("\nserialize -> parse -> serialize is byte-identical; run")
print("  toolkit budget --scenario <file> --target cooling")
print("against any such file.")
