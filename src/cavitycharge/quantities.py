"""Values with one-sigma uncertainties and propagation engines.

All measured inputs in this package are carried as an
:class:`UncertainQuantity`: a central value and a symmetric one-standard-
deviation uncertainty. Two propagation engines are provided, each taking
f and its inputs (an UncertainQuantity, or a bare number for an exact
input):

* :func:`propagate_linear` -- first-order (delta-method) propagation with
  central finite-difference derivatives,
  sigma_y = sqrt(sum_i (df/dx_i * sigma_i)^2): f's value at the inputs'
  values and the sigma of its linearisation there.
* :func:`propagate_cubature` -- the mean and standard deviation of f over
  independent normal inputs by tensor-product Gauss-Hermite cubature, 8
  nodes per input: no draws, no seed, f called on floats and its values
  summed by math.fsum. The moments are those of the 8-node rule, exact
  for a polynomial of degree <= 15 in each input. Where the true moment
  is not finite, as for kappa ~ 1/h or F = FSR/linewidth over a normal
  h or linewidth (the pole has a positive probability), it is the
  moment of f within the nodes' span, value +/- 4.1445 sigma.
  _product_cubature gives the same rule's moments of a product of
  independent factors from each factor's own grid. The report's
  film-extinction sigmas and its finesse sigma use them;
  _positive_at_nodes is the domain rule of both.

Uncertainties are treated as symmetric Gaussian one-sigma throughout;
inputs are assumed uncorrelated. A quantity does no arithmetic of its own:
derived values come from the propagation engines.

:func:`checked` declares every record that checks its fields: its
constructor, _make and _replace all store the record's _checked().
_as_float is the library's one conversion of a number: a real number
that is not a bool (an int, a float, a Fraction, a NumPy integer or
float) becomes a Python float, an int or Fraction past the float range
+/-inf, and anything else None. :func:`positive` is the one check of a
positive argument, in the library's functions and records alike: that
float, finite and > 0, else ParameterError naming the argument and
showing the value given; :func:`nonnegative` (>= 0) and :func:`finite`
are its siblings. Each returns the float, and its caller computes with
it, so a NumPy float16 or float32 argument is computed in double
precision, as its float() would be. :func:`random_seed` checks a random
seed, an int >= 0.

:func:`finite_evaluation` is the finite-output gate of the report and
budget chains: every value they return is finite, and numerics that
overflow, divide by zero or end non-finite raise EvaluationError.

:func:`finesse` (FSR / linewidth, propagated linearly) and
:func:`fsr_from_length` live here, where both the ring-down fit and the
report reach them; ``ringdown`` re-exports them.

This module never imports NumPy.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from typing import Callable, NamedTuple, Sequence

from .errors import DomainError, EvaluationError, ParameterError, ToolkitError

__all__ = [
    "UncertainQuantity",
    "Constants",
    "CODATA",
    "as_quantity",
    "finite_evaluation",
    "finesse",
    "fsr_from_length",
    "propagate_cubature",
    "propagate_linear",
]


def _as_float(value):
    """value as a Python float when it is a real number that is not a bool,
    else None; an int or Fraction past the float range reads as +/-inf, as
    its text would."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def positive(name: str, value):
    """value as a float when it is a real number (not a bool), finite and
    > 0, or value itself when it is an UncertainQuantity whose value is;
    else ParameterError "<name> must be positive, got <the number!r>"."""
    if isinstance(value, UncertainQuantity):
        positive(name, value.value)
        return value
    if (number := _as_float(value)) is None or not 0.0 < number < math.inf:
        raise ParameterError(f"{name} must be positive, got {value!r}")
    return number


def nonnegative(name: str, value) -> float:
    """value as a float when it is a real number (not a bool), finite and
    >= 0; else ParameterError "<name> must be finite and >= 0, got <value!r>"."""
    if (number := _as_float(value)) is None or not 0.0 <= number < math.inf:
        raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")
    return number


def finite(name: str, value) -> float:
    """value as a float when it is a real number (not a bool) and finite;
    else ParameterError "<name> must be a finite real number, got <value!r>"."""
    if (number := _as_float(value)) is None or not -math.inf < number < math.inf:
        raise ParameterError(f"{name} must be a finite real number, got {value!r}")
    return number


def random_seed(value) -> int:
    """value as an int when it is an integer >= 0 (a NumPy integer too, not
    a bool); else ParameterError "seed must be an int >= 0, got <value!r>"."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= 0):
        raise ParameterError(f"seed must be an int >= 0, got {value!r}")
    return int(value)


def checked(cls):
    """The NamedTuple class cls, whose cls(...), cls._make and so _replace store
    record._checked(): the values as given, checked and converted, or a
    ToolkitError naming the first one refused."""
    unchecked = cls.__new__
    cls.__new__ = staticmethod(lambda c, *args, **kwargs: tuple.__new__(
        c, unchecked(c, *args, **kwargs)._checked()))
    cls._make = classmethod(lambda c, values: c(*values))
    return cls


@checked
class UncertainQuantity(NamedTuple):
    """A value with a symmetric one-sigma uncertainty."""

    value: float
    sigma: float = 0.0

    def _checked(self):
        return finite("value", self.value), nonnegative("sigma", self.sigma)

    def __str__(self) -> str:
        return f"{self.value:g} +/- {self.sigma:g}"


def as_quantity(x) -> UncertainQuantity:
    """Coerce a bare number into an exact UncertainQuantity."""
    return x if isinstance(x, UncertainQuantity) else UncertainQuantity(x)


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

# finite-difference step rule: relative 1e-6 with an absolute floor
_FD_REL_STEP = 1e-6
_FD_ABS_STEP = 1e-12


class finite_evaluation:
    """The finite-output gate: ``with finite_evaluation(label) as check:``.

    An ArithmeticError the block raises (overflow, division by zero)
    becomes an EvaluationError chained to it, and any ToolkitError gets the
    prefix "label: ". check returns value, a float or an UncertainQuantity,
    and raises EvaluationError naming it when the value is not finite (an
    UncertainQuantity's value and sigma are finite by construction). The
    gate touches no NumPy state: a block that computes with NumPy arrays
    sets their floating-point error handling itself.
    """

    def __init__(self, label: str):
        self.label = label

    def __enter__(self):
        return _require_finite

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, ArithmeticError):
            raise EvaluationError(f"{self.label}: {_outside_range(exc)}") from exc
        if isinstance(exc, ToolkitError):
            exc.args = (f"{self.label}: {exc}", *exc.args[1:])
        return False


def _outside_range(exc: ArithmeticError) -> str:
    """The text of the EvaluationError that an ArithmeticError becomes."""
    return (f"{type(exc).__name__}: {exc}; an input value is "
            "outside the floating-point range of the formulas")


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
    the sigmas are small against the local curvature scale. Each input is
    an UncertainQuantity or a bare number, an exact input. A value of f
    that is not finite, an ArithmeticError (overflow, division by zero)
    that f raises, or a variance sum that overflows, is an EvaluationError.
    """
    def at(name, point):
        try:
            # f's values as Python floats: a NumPy float's ** can differ by an ulp
            value = float(f(*point))
        except ArithmeticError as exc:
            raise EvaluationError(_outside_range(exc)) from exc
        return _require_finite(name, value)

    inputs = [as_quantity(q) for q in inputs]
    values = [q.value for q in inputs]
    y0 = at("f at the input values", values)
    var = 0.0
    for i, q in enumerate(inputs):
        if q.sigma == 0.0:
            continue
        step = max(_FD_REL_STEP * abs(values[i]), _FD_ABS_STEP)
        hi = list(values)
        lo = list(values)
        hi[i] += step
        lo[i] -= step
        deriv = (at("f at a finite-difference point", hi)
                 - at("f at a finite-difference point", lo)) / (2.0 * step)
        try:
            var += (deriv * q.sigma) ** 2
        except OverflowError as exc:
            raise EvaluationError(_outside_range(exc)) from exc
    if not math.isfinite(var):  # float * and + reach inf without raising
        raise EvaluationError(_outside_range(OverflowError("the variance sum is inf")))
    return UncertainQuantity(y0, math.sqrt(var))


def finesse(linewidth, fsr) -> UncertainQuantity:
    """Finesse = FSR / linewidth with linear uncertainty propagation."""
    lw = as_quantity(positive("linewidth", linewidth))
    nu = as_quantity(positive("FSR", fsr))
    return propagate_linear(lambda d, f: f / d, [lw, nu])


def fsr_from_length(d_m: float) -> float:
    """Free spectral range c/(2d) of a two-mirror cavity of length d."""
    return CODATA.c / (2.0 * positive("cavity length", d_m))


# The probabilists' Gauss-Hermite rule of 8 nodes (weight exp(-x^2/2)), its
# weights divided by their sum sqrt(2 pi): the expectation over one standard
# normal, exact for polynomials of degree <= 15. The nodes are the eigenvalues
# of the Jacobi matrix of the Hermite recurrence (Golub & Welsch, Math. Comp.
# 23, 221 (1969)), as numpy.polynomial.hermite_e.hermegauss(8) gives them.
_GH_NODES = (-4.1445471861258945, -2.8024858612875416, -1.636519042435108,
             -0.5390798113513751, 0.5390798113513751, 1.636519042435108,
             2.8024858612875416, 4.1445471861258945)
_GH_WEIGHTS = (0.00011261453837536762, 0.009635220120788256, 0.11723990766175904,
               0.3730122576790773, 0.3730122576790773, 0.11723990766175904,
               0.009635220120788256, 0.00011261453837536762)

#: Most nodes propagate_cubature evaluates f at: 8 per input with sigma > 0,
#: so six such inputs.
MAX_CUBATURE_NODES = 8**6


def propagate_cubature(f: Callable[..., float],
                       inputs: Sequence[UncertainQuantity]) -> UncertainQuantity:
    """Mean and standard deviation of f over independent normal inputs, by
    tensor-product Gauss-Hermite cubature.

    Each input is an UncertainQuantity or a bare number, an exact input. f
    takes one float per input and returns a real number. It is called
    once per node of the grid of value + sigma * node over every input's
    nodes: the 8 of _GH_NODES, or the value alone for an input with sigma
    = 0. A grid of more than MAX_CUBATURE_NODES nodes is a ParameterError,
    raised before f is called. The mean is the weighted sum of f's values
    and the variance the weighted sum of their squared deviations from it,
    each summed by math.fsum: correctly rounded, so the bits do not depend
    on the Python version (the built-in sum of floats is compensated from
    3.12 on).

    A value of f that is not finite, or a math domain error (ValueError)
    or ArithmeticError (overflow, division by zero) that f raises at a
    node, counts as a non-finite node: EvaluationError "f is not finite at
    <k>/<n> cubature nodes". A sum that overflows is an EvaluationError
    too; a value that is not a real number (a complex, an array) is a
    ParameterError. A ToolkitError that f raises propagates unchanged.
    """
    return _product_cubature([(f, [as_quantity(q) for q in inputs])])


def _product_cubature(factors) -> UncertainQuantity:
    """Mean and standard deviation of the product of independent factors,
    each (f, inputs) a function of its own inputs, by the tensor rule of
    propagate_cubature over all their inputs, from each factor's own grid.
    A factor (f, inputs, t) names a transform t of one float: t runs once
    on each node of each input axis, before the grid is formed, and f
    takes the transformed values, so f(t(x), t(y)) over an 8 x 8 grid
    costs 16 calls of t, not 128. A math error in t at an axis node makes
    every grid node that uses it non-finite, and f is not called there.

    Over the tensor grid the factors are independent, so the product's
    mean is the product of the factors' means, and its variance is
    Goodman's exact identity (J. Am. Stat. Assoc. 55, 708 (1960)),
    Var(XY) = vX vY + vX mY^2 + vY mX^2, folded over the factors: a
    product of 64- and 8-node factors costs 72 calls of f, not 512. The
    errors are propagate_cubature's: the node limit holds for each
    factor's grid, and the non-finite nodes are counted over the full
    grid, a node being non-finite where a factor is, or where the product
    of finite factor values overflows.
    """
    grids = [_at_nodes(*factor) for factor in factors]
    n = math.prod(len(values) for values, _ in grids)
    finite = [[v for v in values if math.isfinite(v)] for values, _ in grids]
    n_good = math.prod(map(len, finite))
    if len(finite) > 1 and n_good and not math.isfinite(
            math.prod(max(map(abs, values)) for values in finite)):
        n_good = sum(math.isfinite(math.prod(point)) for point in itertools.product(*finite))
    if n_good < n:
        raise EvaluationError(f"f is not finite at {n - n_good}/{n} cubature nodes")
    (mean, variance), *others = (_moments(*grid) for grid in grids)
    for m, v in others:
        mean, variance = mean * m, variance * v + variance * (m * m) + v * (mean * mean)
    for name, value in (("mean", mean), ("variance", variance)):
        if not math.isfinite(value):
            raise EvaluationError(f"the weighted {name} over {n} cubature nodes overflows")
    return UncertainQuantity(mean, math.sqrt(variance))


def _at_nodes(f, inputs, transform=None) -> tuple[list, tuple]:
    """f's values (NaN where it or the transform raised a math error) and
    the weights at the nodes of the tensor grid of inputs, in the same
    order."""
    axes = [[q.value + q.sigma * x for x in _GH_NODES] if q.sigma else [q.value] for q in inputs]
    if (n := math.prod(map(len, axes))) > MAX_CUBATURE_NODES:
        raise ParameterError(f"{n} cubature nodes exceed the limit of {MAX_CUBATURE_NODES}, "
                             "8 per input with sigma > 0")
    if transform is not None:  # once per axis node, NaN where it raised a math error
        axes = [[_value_at(transform, (x,)) for x in axis] for axis in axes]
    if any(map(math.isnan, itertools.chain(*axes))):  # no call of f where the transform failed
        values = [math.nan if any(map(math.isnan, point)) else _value_at(f, point)
                  for point in itertools.product(*axes)]
    else:
        try:
            values = list(itertools.starmap(f, itertools.product(*axes)))
        except ToolkitError:
            raise
        except (ArithmeticError, ValueError):  # a math domain error, an overflow: node by node
            values = [_value_at(f, point) for point in itertools.product(*axes)]
    if not set(map(type, values)) <= {float}:
        values = [_real(value) for value in values]
    spread = tuple(q.sigma > 0 for q in inputs)
    # a table of more than 8**5 nodes (over 1 MB) is built per call, not kept
    return values, (_tensor_weights.__wrapped__ if sum(spread) > 5 else _tensor_weights)(spread)


def _value_at(f, point) -> float:
    try:
        return f(*point)
    except ToolkitError:
        raise
    except (ArithmeticError, ValueError):
        return math.nan


def _real(value) -> float:
    if (number := _as_float(value)) is None:
        raise ParameterError(f"f returned {value!r} at a cubature node, not a real number")
    return number


@functools.lru_cache(maxsize=32)
def _tensor_weights(spread: tuple) -> tuple:
    """The node weights of the tensor grid, in itertools.product order, of
    inputs with (True) and without (False) a sigma: the product of each
    input's weight, 1 for an input without a sigma. Kept, as computing
    them costs about as much as summing them; _at_nodes calls the
    unkept function for a table of more than 8**5 nodes."""
    return tuple(math.prod(w) for w in itertools.product(
        *(_GH_WEIGHTS if s else (1.0,) for s in spread)))


def _moments(values, weights) -> tuple[float, float]:
    """The weighted mean of finite values and the weighted sum of their
    squared deviations from it, in two passes; inf for a sum that
    overflows."""
    mean = _fsum(map(operator.mul, weights, values))
    deviations = [v - mean for v in values]
    return mean, _fsum(map(operator.mul, weights, map(operator.mul, deviations, deviations)))


def _fsum(terms) -> float:
    try:
        return math.fsum(terms)
    except OverflowError:  # math.fsum's intermediate overflow
        return math.inf


def _positive_at_nodes(name: str, x) -> UncertainQuantity:
    """x as an UncertainQuantity when it is positive (else ParameterError,
    as in positive) and still > 0 at its lowest cubature node, value -
    4.1445 sigma; else DomainError naming it: a chain of 1/x or log x has
    no value there, so the cubature would sum values past its pole."""
    q = as_quantity(positive(name, x))
    lowest = q.value - q.sigma * _GH_NODES[-1]
    if lowest <= 0:
        raise DomainError(f"{name} = {q} is {lowest:g} <= 0 at its lowest cubature node, "
                          f"value - {_GH_NODES[-1]:.5g} sigma")
    return q
