"""Mirror reflectivity and thin-film extinction from a finesse pair.

Walks the loss-extraction chain: symmetric-cavity finesse -> bare
reflectivity r0, mixed-cavity finesse -> modified reflectivity r1,
excess loss r0^2 - r1^2 -> film extinction coefficient kappa, with
propagated uncertainties. Run:  python demos/02_mirror_loss_extraction.py
"""

from cavitycharge import (
    UncertainQuantity,
    excess_reflection_loss,
    extinction_from_finesse,
    r0_from_symmetric_finesse,
    r1_from_asymmetric_finesse,
)

F00 = UncertainQuantity(23340, 60)        # both mirrors bare
THICKNESS = UncertainQuantity(30e-9, 2e-9)
WAVELENGTH = 1650e-9

r0 = r0_from_symmetric_finesse(F00)
print(f"bare mirror:      1 - r0 = {1 - r0.value:.4e} (+/- {r0.sigma:.1e})")

# the coated mirror, measured at three ages, plus the annealed bare mirror
series = [
    ("coated, 27 d", 14160, 250),
    ("coated, 69 d", 18400, 700),
    ("coated, 128 d", 19800, 180),
    ("annealed, 69 d", 20900, 300),
    ("annealed, 128 d", 22120, 130),
]

f01s = [UncertainQuantity(f01, sigma) for _, f01, sigma in series]
# kappa's sigma by Gauss-Hermite cubature over F00, F01 and h: no draws, no seed
kappas = [extinction_from_finesse(F00, fq, THICKNESS, WAVELENGTH) for fq in f01s]

print(f"\n{'configuration':16s} {'1 - r1':>10s} {'r0^2-r1^2':>11s} {'kappa':>20s}")
for (label, _, _), fq, kappa in zip(series, f01s, kappas):
    r1 = r1_from_asymmetric_finesse(fq, r0)
    loss = excess_reflection_loss(F00, fq)
    print(
        f"{label:16s} {1 - r1.value:10.3e} {loss.value:11.3e} "
        f"{kappa.value:12.3e} +/- {kappa.sigma:.0e}"
    )

print(
    "\nThe finesse recovered after annealing and months in air: the film's"
    "\nexcess absorption drops several-fold, down to the few-1e-5 level."
)
