"""The Monte Carlo that the tests check the Gauss-Hermite cubature against
(JCGM 101:2008 section 8), and the standard error of its sigma.

Not part of the package: no report row, command or library function draws
random numbers. Input k's draws are value + sigma * z_k, z_k the k-th row
of sample_count standard normals from numpy.random.default_rng(seed), so
calls with the same seed and sample_count share their normals (common
random numbers). f is called once, elementwise on all the draws.
"""

import math

import numpy as np

from cavitycharge.quantities import UncertainQuantity


def propagate_monte_carlo(f, inputs, sample_count=100_000, seed=0) -> UncertainQuantity:
    """The sample mean and standard deviation (ddof=1) of f over
    sample_count independent normal draws of each input."""
    rng = np.random.default_rng(seed)
    draws = [q.value + q.sigma * rng.standard_normal(sample_count) for q in inputs]
    samples = f(*draws)
    return UncertainQuantity(float(np.mean(samples)), float(np.std(samples, ddof=1)))


def sigma_standard_error(s, m4, n) -> float:
    """The standard error of a sample standard deviation s from n draws,
    m4 the sample's fourth central moment: s/2 sqrt(2/(n-1) + (m4/s^4 - 3)/n),
    the delta method on the variance's standard error, with the excess
    kurtosis m4/s^4 - 3 that a non-normal sample adds."""
    return 0.5 * s * math.sqrt(2.0 / (n - 1) + (m4 / s**4 - 3.0) / n)
