"""Ring-down traces to finesse, end to end.

Synthesizes a handful of noisy decay traces at a known linewidth, fits
each one, pools the linewidths, and converts to finesse against a
measured free spectral range. Run:  python demos/01_ringdown_finesse.py
"""

import math

from cavitycharge import (
    UncertainQuantity,
    finesse,
    fit_ringdown,
    fsr_from_length,
    pool_linewidths,
    synthesize_trace,
)

TRUE_LINEWIDTH = 523e3               # Hz, ground truth for the synthetic traces
FSR = UncertainQuantity(7.410e9, 0.013e9)

tau = 1.0 / (2.0 * math.pi * TRUE_LINEWIDTH)
print(f"decay time constant tau = {tau * 1e9:.1f} ns")
print(f"FSR check from a 20.2 mm cavity: {fsr_from_length(20.2e-3) / 1e9:.4f} GHz\n")

# five traces, 1% additive noise, different seeds
fits = []
print("trace   linewidth (kHz)   v0")
for seed in range(5):
    trace = synthesize_trace(
        v0=1.0,
        linewidth_hz=TRUE_LINEWIDTH,
        duration_s=5 * tau,
        sample_rate_hz=10_000 / (5 * tau),
        noise_sigma=0.01,
        seed=seed,
    )
    fit = fit_ringdown(trace)
    fits.append(fit)
    print(
        f"  {seed}     {fit.linewidth.value / 1e3:8.2f} "
        f"+/- {fit.linewidth.sigma / 1e3:5.2f}    {fit.v0.value:.4f}"
    )

pooled = pool_linewidths(fits)
print(f"\npooled linewidth: {pooled.value / 1e3:.2f} +/- {pooled.sigma / 1e3:.2f} kHz")
print(f"truth:            {TRUE_LINEWIDTH / 1e3:.2f} kHz")

result = finesse(pooled, FSR)
print(f"\nfinesse = {result.value:.0f} +/- {result.sigma:.0f}")
print("(a 523 kHz linewidth against a 7.410 GHz FSR corresponds to ~14170)")
