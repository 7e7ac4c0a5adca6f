"""Values with one-sigma uncertainties and propagation engines.

All measured inputs in this package are carried as an
:class:`UncertainQuantity`: a central value and a symmetric one-standard-
deviation uncertainty. Two propagation engines are provided:

* :func:`propagate_linear` -- first-order (delta-method) propagation with
  central finite-difference derivatives,
  sigma_y = sqrt(sum_i (df/dx_i * sigma_i)^2).
* :func:`propagate_monte_carlo` -- draw independent normal samples per
  input and report the sample mean and standard deviation of f.

Uncertainties are treated as symmetric Gaussian one-sigma throughout;
inputs are assumed uncorrelated. A quantity does no arithmetic of its own:
derived values come from the propagation engines.

:func:`finite_evaluation` is the finite-output gate of the report and
budget chains: every value they return is finite, and numerics that
overflow, divide by zero or end non-finite raise EvaluationError.

This module imports NumPy only inside the Monte-Carlo engine, so a caller
that never draws samples (a ``budget`` command) never loads it.
"""

from __future__ import annotations

import contextlib
import math
import sys
import warnings
from typing import Callable, NamedTuple, Sequence

from .errors import EvaluationError, ParameterError, ToolkitError

__all__ = [
    "UncertainQuantity",
    "Constants",
    "CODATA",
    "as_quantity",
    "finite_evaluation",
    "propagate_linear",
    "propagate_monte_carlo",
]


class CheckedRecord:
    """Base of a NamedTuple subclass whose __new__ checks the fields; _replace runs it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


_Quantity = NamedTuple("_Quantity", [("value", float), ("sigma", float)])


class UncertainQuantity(CheckedRecord, _Quantity):
    """A value with a symmetric one-sigma uncertainty."""

    __slots__ = ()

    def __new__(cls, value: float, sigma: float = 0.0):
        value, sigma = float(value), float(sigma)
        if not math.isfinite(value):
            raise ParameterError(f"value must be finite, got {value}")
        if not math.isfinite(sigma) or sigma < 0:
            raise ParameterError(f"sigma must be finite and >= 0, got {sigma}")
        return super().__new__(cls, value, sigma)

    def __str__(self) -> str:
        return f"{self.value:g} +/- {self.sigma:g}"


def as_quantity(x) -> UncertainQuantity:
    """Coerce a bare number into an exact UncertainQuantity."""
    if isinstance(x, UncertainQuantity):
        return x
    return UncertainQuantity(float(x), 0.0)


# shared with the derived fields hbar and k_e
_H = 6.62607015e-34
_EPS0 = 8.8541878188e-12


class Constants(NamedTuple):
    """CODATA 2022 values used throughout; immutable by construction.

    Every value is pinned to the 2022 adjustment (Mohr et al., Rev. Mod.
    Phys. 97, 025002 (2025)), named by ``edition``, so results do not depend
    on the installed libraries. k_e = 1/(4 pi eps0) is the Coulomb constant;
    s_q factors used by the electrostatics module are test_charge * k_e.
    """

    e: float = 1.602176634e-19            # elementary charge, C (exact)
    eps0: float = _EPS0                   # vacuum permittivity, F/m
    hbar: float = _H / (2 * math.pi)      # reduced Planck constant, J*s
    h: float = _H                         # Planck constant, J*s (exact)
    c: float = 299792458.0                # speed of light, m/s (exact)
    amu: float = 1.66053906892e-27        # atomic mass constant, kg
    k_e: float = 1.0 / (4.0 * math.pi * _EPS0)  # N*m^2/C^2
    m_e: float = 9.1093837139e-31         # electron mass, kg
    edition: str = "CODATA 2022"


CODATA = Constants()

#: Fewest Monte-Carlo draws propagate_monte_carlo accepts.
MIN_MC_SAMPLES = 1000

# Most draws f sees at once: its 64 KB temporaries stay below the
# allocator's mmap threshold, so freed memory is reused, not faulted in anew.
_MC_CHUNK = 8192

# finite-difference step rule: relative 1e-6 with an absolute floor
_FD_REL_STEP = 1e-6
_FD_ABS_STEP = 1e-12


def _check_finite(y: float, context: str) -> float:
    y = float(y)
    if not math.isfinite(y):
        raise EvaluationError(f"non-finite function value during {context}: {y}")
    return y


class finite_evaluation:
    """The finite-output gate: ``with finite_evaluation(label) as check:``.

    When NumPy is loaded, the block runs with its floating-point warnings
    off; a block that runs without NumPy computes on floats alone. An
    ArithmeticError it raises (overflow, division by zero) becomes an
    EvaluationError chained to it, and any ToolkitError gets the prefix
    "label: ". check returns value, a float or an UncertainQuantity, and
    raises EvaluationError naming it when the value is not finite (an
    UncertainQuantity's value and sigma are finite by construction).
    """

    def __init__(self, label: str):
        self.label = label
        numpy = sys.modules.get("numpy")
        self._errstate = numpy.errstate(all="ignore") if numpy else contextlib.nullcontext()

    def __enter__(self):
        self._errstate.__enter__()
        return _require_finite

    def __exit__(self, kind, exc, traceback):
        self._errstate.__exit__(kind, exc, traceback)
        if isinstance(exc, ArithmeticError):
            raise EvaluationError(
                f"{self.label}: {type(exc).__name__}: {exc}; an input value is "
                "outside the floating-point range of the formulas"
            ) from exc
        if isinstance(exc, ToolkitError):
            exc.args = (f"{self.label}: {exc}", *exc.args[1:])
        return False


def _require_finite(name: str, value):
    if not isinstance(value, UncertainQuantity) and not math.isfinite(value):
        raise EvaluationError(f"{name} = {float(value)!r} is not finite")
    return value


def propagate_linear(
    f: Callable[..., float],
    inputs: Sequence[UncertainQuantity],
) -> UncertainQuantity:
    """First-order uncertainty propagation through a scalar function.

    Derivatives are central finite differences with step
    max(1e-6*|x_i|, 1e-12). Valid when f is smooth at the input values and
    the sigmas are small against the local curvature scale.
    """
    values = [q.value for q in inputs]
    y0 = _check_finite(f(*values), "propagate_linear evaluation")
    var = 0.0
    for i, q in enumerate(inputs):
        if q.sigma == 0.0:
            continue
        step = max(_FD_REL_STEP * abs(values[i]), _FD_ABS_STEP)
        hi = list(values)
        lo = list(values)
        hi[i] += step
        lo[i] -= step
        deriv = (
            _check_finite(f(*hi), "propagate_linear stencil")
            - _check_finite(f(*lo), "propagate_linear stencil")
        ) / (2.0 * step)
        var += (deriv * q.sigma) ** 2
    return UncertainQuantity(y0, math.sqrt(var))


class _NormalsInfo(NamedTuple):
    hits: int
    misses: int
    normals_drawn: int


class _StandardNormals:
    """Read-only standard normals of default_rng(seed), one row per input.

    Row k is the stream rng.normal draws for input k, so q.value + q.sigma
    * z[k] equals rng.normal(q.value, q.sigma, sample_count) bit for bit.
    One seed and sample_count are kept, with their generator: a call that
    needs more rows copies the kept rows into a larger block and draws
    only the missing ones, which continue the same stream, so a 2-input
    and a 3-input call share their first two rows. A call with another
    seed or sample_count starts over.
    """

    def __init__(self) -> None:
        self.cache_clear()

    def cache_clear(self) -> None:
        self._key = None
        self._rng = None
        self._block = None  # set with _key on the next call
        self.hits = self.misses = self.normals_drawn = 0

    def cache_info(self) -> _NormalsInfo:
        """Calls served from the kept rows, calls that drew, normals drawn."""
        return _NormalsInfo(self.hits, self.misses, self.normals_drawn)

    def __call__(self, seed: int, sample_count: int, n_inputs: int):
        import numpy as np

        if self._key != (seed, sample_count):
            self._key = (seed, sample_count)
            self._rng = np.random.default_rng(seed)
            self._block = np.empty((0, sample_count))
        kept = len(self._block)
        if n_inputs > kept:
            block = np.empty((n_inputs, sample_count))
            block[:kept] = self._block
            self._rng.standard_normal(out=block[kept:])
            block.flags.writeable = False
            self._block = block
            self.misses += 1
            self.normals_drawn += (n_inputs - kept) * sample_count
        else:
            self.hits += 1
        return self._block[:n_inputs]


_standard_normals = _StandardNormals()


def propagate_monte_carlo(
    f: Callable[..., float],
    inputs: Sequence[UncertainQuantity],
    sample_count: int = 100_000,
    seed: int = 0,
) -> UncertainQuantity:
    """Monte-Carlo uncertainty propagation with an explicit seed.

    Draws independent normal samples for each input and returns the sample
    mean and standard deviation of f. seed must be an int >= 0, else
    ParameterError. Repeated calls with the same seed are bit-identical.

    f must be elementwise: sample j of its output may depend only on draw j
    of each input. It is called once per block of at most 8,192 draws
    (_MC_CHUNK), with one array of draws per input, and must return an
    array of the block's shape (n,), else ParameterError; an exception
    raised by f propagates unchanged. The blocks are written into one
    output array, so the result equals one call of f on all the draws.

    Calls with the same seed and sample_count share their standard normals
    (common random numbers): input k of every such call gets the same row.
    The rows of the last seed, 8 * sample_count bytes per row (2.4 MB for
    3 inputs at the default 1e5 draws), stay in memory until a call with
    another seed or sample_count.

    Non-finite samples are tolerated up to 1% of all sample_count draws
    (with a warning), counted over the whole output, not per block; beyond
    that an EvaluationError is raised.
    """
    import numpy as np

    if sample_count < MIN_MC_SAMPLES:
        raise ParameterError(f"sample_count must be >= {MIN_MC_SAMPLES}, got {sample_count}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be an int >= 0, got {seed!r}")
    z = _standard_normals(seed, sample_count, len(inputs))
    samples = np.empty(sample_count)
    for start in range(0, sample_count, _MC_CHUNK):
        part = slice(start, min(start + _MC_CHUNK, sample_count))
        draws = [q.value + q.sigma * z_k[part] for q, z_k in zip(inputs, z)]
        with np.errstate(all="ignore"):  # non-finite samples are counted below
            block = np.asarray(f(*draws), dtype=float)
        n = part.stop - start
        # checked per block: slice assignment would broadcast a scalar
        if block.shape != (n,):
            raise ParameterError(f"f returned shape {block.shape}, expected ({n},)")
        samples[part] = block
    finite = np.isfinite(samples)
    n_bad = int(sample_count - finite.sum())
    if n_bad > 0.01 * sample_count:
        raise EvaluationError(
            f"{n_bad}/{sample_count} Monte-Carlo samples were non-finite"
        )
    if n_bad:
        warnings.warn(
            f"discarded {n_bad}/{sample_count} non-finite Monte-Carlo samples",
            RuntimeWarning,
            stacklevel=2,
        )
        samples = samples[finite]
    # sample_count >= MIN_MC_SAMPLES and at most 1% discarded: never fewer than 2
    sigma = float(np.std(samples, ddof=1))
    return UncertainQuantity(float(np.mean(samples)), sigma)
