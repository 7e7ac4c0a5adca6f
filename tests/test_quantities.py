import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from mc_oracle import propagate_monte_carlo, sigma_standard_error

from cavitycharge.cavity_optics import MirrorState
from cavitycharge.electrostatics import ChargeScenario
from cavitycharge.errors import DomainError, EvaluationError, ParameterError, ToolkitError
from cavitycharge.ion_impact import GateParams
from cavitycharge.quantities import (
    _GH_NODES,
    _GH_WEIGHTS,
    CODATA,
    MAX_CUBATURE_NODES,
    UncertainQuantity,
    _product_cubature,
    _tensor_weights,
    as_quantity,
    finesse,
    propagate_cubature,
    propagate_linear,
)
from cavitycharge.reports import build_report
from cavitycharge.ringdown import fit_ringdown, synthesize_trace

LINEWIDTH = UncertainQuantity(523e3, 9e3)
FSR = UncertainQuantity(7.410e9, 0.013e9)


def ratio(d, f):
    return f / d


def analytic_ratio_sigma(d, sd, f, sf):
    # independent oracle: exact partial derivatives of f/d
    return math.hypot(f / d**2 * sd, sf / d)


# -- records that check their fields -------------------------------------------


def _noisy_trace():
    return synthesize_trace(1.0, 5e3, 4e-4, 1e7, 0.005, 7)


@pytest.mark.parametrize("record, change, message", [
    (UncertainQuantity(1.0, 0.1), {"sigma": -0.1}, "sigma must be finite and >= 0"),
    (MirrorState(0.99, 1e-4), {"r": 1.0}, r"amplitude reflectivity must be in \(0,1\)"),
    (_noisy_trace(), {"times": np.arange(4000.0)[::-1]}, "strictly increasing"),
    (fit_ringdown(_noisy_trace()), {"linewidth": UncertainQuantity(0.0, 1.0)},
     "fitted linewidth must be positive"),
    (GateParams(1e4), {"rabi_hz": "1e4"}, "Rabi rate must be positive, got '1e4'"),
    (GateParams(1e4), {"rabi_hz": math.nan}, "Rabi rate must be positive, got nan"),
    (GateParams(1e4), {"threshold_ratio": math.inf}, "threshold ratio must be positive, got inf"),
    (ChargeScenario(1.0, 0.0, 2e-4), {"x_q_m": math.nan}, "x_Q must be positive, got nan"),
    (ChargeScenario(1.0, 0.0, 2e-4), {"x_q_m": -2e-4}, "x_Q must be positive, got -0.0002"),
    (GateParams(1e4), {"rabi_hz": True}, "Rabi rate must be positive, got True"),
    (GateParams(1e4), {"threshold_ratio": True}, "threshold ratio must be positive, got True"),
    (ChargeScenario(1.0, 0.0, 2e-4), {"x_q_m": True}, "x_Q must be positive, got True"),
    (ChargeScenario(1.0, 0.0, 2e-4), {"q1_e": "54"}, "charge q1_e must be a real number"),
    (UncertainQuantity(1.0, 0.1), {"value": "1.5"},
     "value must be a finite real number, got '1.5'"),
    (UncertainQuantity(1.0, 0.1), {"sigma": "0.1"}, "sigma must be finite and >= 0, got '0.1'"),
    (UncertainQuantity(1.0, 0.1), {"value": True}, "value must be a finite real number, got True"),
    (MirrorState(0.99, 1e-4), {"r": "0.5"},
     r"amplitude reflectivity must be in \(0,1\), got '0.5'"),
    (MirrorState(0.5, 0.1), {"T": "0.1"},
     r"transmission must be in \[0, 1-r\^2 = 7.500e-01\], got '0.1'"),
], ids=["UncertainQuantity", "MirrorState", "RingdownTrace", "RingdownFit", "GateParams-str",
        "GateParams-nan", "GateParams-threshold-inf", "ChargeScenario-nan",
        "ChargeScenario-negative", "GateParams-bool", "GateParams-threshold-bool",
        "ChargeScenario-bool", "ChargeScenario-str-charge", "UncertainQuantity-str",
        "UncertainQuantity-str-sigma", "UncertainQuantity-bool", "MirrorState-str",
        "MirrorState-str-T"])
def test_replace_runs_the_constructor_checks(record, change, message):
    with pytest.raises(ParameterError, match=message):
        type(record)(**{**record._asdict(), **change})
    with pytest.raises(ParameterError, match=message):
        record._replace(**change)


def test_trace_length_is_its_sample_count():
    trace = _noisy_trace()
    assert len(trace) == trace.times.size == 4000
    assert len(synthesize_trace(1.0, 5e3, 1e-4, 1e6)) == 100


def test_identity_propagation():
    q = propagate_linear(lambda x: x, [UncertainQuantity(5.0, 0.1)])
    assert q.value == pytest.approx(5.0, abs=0)
    assert q.sigma == pytest.approx(0.1, rel=1e-9)


def test_square_uses_analytic_derivative():
    q = propagate_linear(lambda x: x**2, [UncertainQuantity(2.0, 0.01)])
    assert q.value == 4.0
    assert q.sigma == pytest.approx(0.04, rel=1e-6)


def test_finesse_linear_propagation_matches_analytic():
    q = propagate_linear(ratio, [LINEWIDTH, FSR])
    expected_sigma = analytic_ratio_sigma(523e3, 9e3, 7.410e9, 0.013e9)
    assert q.value == pytest.approx(7.410e9 / 523e3, rel=1e-12)
    assert q.sigma == pytest.approx(expected_sigma, rel=1e-6)
    # consistent with the published 14160 +/- 250 at one sigma
    assert abs(q.value - 14160.0) < 250.0
    assert q.sigma == pytest.approx(245.0, abs=1.0)


def test_linear_variance_term_that_overflows_is_an_evaluation_error():
    # d finesse / d fsr = 1/linewidth, times a 1e160 Hz sigma, squares past the float range
    with pytest.raises(EvaluationError, match=r"^OverflowError: .*; an input value is outside "
                                              r"the floating-point range of the formulas$"):
        finesse(LINEWIDTH, UncertainQuantity(7e9, 1e160))


@pytest.mark.parametrize(
    "f, inputs",
    [
        (lambda x: 1e200 * x, [UncertainQuantity(1.0, 1e200)]),
        (lambda x, y: x + y, [UncertainQuantity(1.0, 1e154)] * 2),
    ],
    ids=["term-is-inf", "finite-terms-sum-to-inf"],
)
def test_linear_variance_sum_that_reaches_inf_without_raising_is_an_evaluation_error(f, inputs):
    # float * and + give inf where ** raises; either way the sum is out of range
    with pytest.raises(EvaluationError, match=r"^OverflowError: the variance sum is inf; an input "
                                              r"value is outside the floating-point range of the "
                                              r"formulas$"):
        propagate_linear(f, inputs)


def test_monte_carlo_agrees_with_linear_on_finesse():
    linear = propagate_linear(ratio, [LINEWIDTH, FSR])
    mc = propagate_monte_carlo(ratio, [LINEWIDTH, FSR], sample_count=100_000, seed=3)
    assert mc.value == pytest.approx(linear.value, rel=0.005)
    assert mc.sigma == pytest.approx(linear.sigma, rel=0.10)


def test_cubature_zero_sigma_inputs():
    q = propagate_cubature(lambda x, y: x * y, [UncertainQuantity(3.0), UncertainQuantity(4.0)])
    assert q.value == 12.0
    assert q.sigma == 0.0


def test_cubature_independent_sum_sigma():
    q = propagate_cubature(
        lambda x, y: x + y, [UncertainQuantity(1.0, 1.0), UncertainQuantity(1.0, 1.0)]
    )
    assert q.sigma == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_monte_carlo_determinism():
    inputs = [UncertainQuantity(2.0, 0.3), UncertainQuantity(5.0, 0.2)]
    a = propagate_monte_carlo(lambda x, y: x * y, inputs, 5000, seed=42)
    b = propagate_monte_carlo(lambda x, y: x * y, inputs, 5000, seed=42)
    c = propagate_monte_carlo(lambda x, y: x * y, inputs, 5000, seed=43)
    assert (a.value, a.sigma) == (b.value, b.sigma)
    assert a.value != c.value


def test_cubature_error_from_f_propagates_after_one_call():
    calls = []

    def f(x):
        calls.append(x)
        raise DomainError("outside the domain")

    with pytest.raises(DomainError, match="outside the domain"):
        propagate_cubature(f, [UncertainQuantity(1.0, 0.1)])
    assert len(calls) == 1


@pytest.mark.parametrize("engine", [propagate_linear, propagate_cubature])
def test_engines_take_a_bare_number_as_an_exact_input(engine):
    q = engine(lambda x, y: x * y, [3.0, UncertainQuantity(2.0, 0.1)])
    assert q.value == pytest.approx(6.0, rel=1e-15)
    assert q.sigma == pytest.approx(0.3, rel=1e-9)
    assert engine(math.sqrt, [4]) == (2.0, 0.0)


def _never_called(*x):
    raise RuntimeError("f was called")


@pytest.mark.parametrize("engine", [propagate_linear, propagate_cubature])
@pytest.mark.parametrize("bare", ["1.0", None, math.nan, True], ids=["str", "none", "nan", "bool"])
def test_engines_refuse_a_bare_input_that_is_not_a_finite_real_before_calling_f(engine, bare):
    with pytest.raises(ParameterError, match="^value must be a finite real number, got "):
        engine(_never_called, [UncertainQuantity(2.0, 0.1), bare])


@pytest.mark.parametrize("engine", [propagate_linear, propagate_cubature])
@pytest.mark.parametrize("error", [DomainError, ParameterError, EvaluationError])
def test_engines_pass_a_toolkit_error_from_f_unchanged(engine, error):
    raised = error("from f")

    def f(x, y):
        if (x, y) != (2.0, 5.0):  # a value at the input values only
            raise raised
        return x * y

    with pytest.raises(ToolkitError) as caught:
        engine(f, [UncertainQuantity(2.0, 0.1), UncertainQuantity(5.0, 0.2)])
    assert caught.value is raised and caught.value.args == ("from f",)


def test_cubature_refuses_more_nodes_than_its_limit_before_calling_f():
    def f(*x):
        raise RuntimeError("f was called")

    assert MAX_CUBATURE_NODES == 8**6
    for k, nodes in ((7, 2_097_152), (12, 68_719_476_736)):
        with pytest.raises(ParameterError, match=rf"^{nodes} cubature nodes exceed the limit "
                                                 r"of 262144, 8 per input with sigma > 0$"):
            propagate_cubature(f, [UncertainQuantity(1.0, 0.1)] * k)
    # six uncertain inputs and any number of exact ones are within it
    q = propagate_cubature(lambda *x: math.fsum(x), [UncertainQuantity(1.0, 0.5)] * 6 + [2.0] * 6)
    assert q.value == pytest.approx(18.0, rel=1e-15)
    assert q.sigma == pytest.approx(0.5 * math.sqrt(6.0), rel=1e-13)


def _elementwise(*draws):
    y = np.cos(draws[0])
    for x in draws[1:]:
        y = y * x + np.sqrt(np.abs(x))
    return y


@pytest.mark.parametrize("seed", [0, 7, 12345])
@pytest.mark.parametrize(
    "inputs",
    [
        [(2.0, 0.3)],
        [(523e3, 9e3), (7.41e9, 0.0)],
        [(22_000.0, 500.0), (-1.5, 2.0), (4e-8, 1e-9)],
    ],
)
def test_monte_carlo_draws_equal_rng_normal_per_input(seed, inputs):
    seen = []

    def f(*draws):
        seen.extend(np.array(d) for d in draws)
        return draws[0]

    quantities = [UncertainQuantity(v, s) for v, s in inputs]
    propagate_monte_carlo(f, quantities, 2000, seed=np.int64(seed))
    rng = np.random.default_rng(seed)
    for q, draw in zip(quantities, seen, strict=True):
        assert np.array_equal(draw, rng.normal(q.value, q.sigma, 2000))


def test_monte_carlo_f_writing_into_its_draws_changes_no_later_result():
    # each call draws afresh, so common random numbers survive an f that
    # overwrites the arrays it is given
    def overwrite(x):
        y = x.copy()
        x[:] = 0.0
        return y

    inputs = [UncertainQuantity(2.0, 0.3)]
    first = propagate_monte_carlo(overwrite, inputs, 2000, seed=5)
    assert propagate_monte_carlo(overwrite, inputs, 2000, seed=5) == first
    assert propagate_monte_carlo(lambda x: x, inputs, 2000, seed=5) == first


def test_report_rows_do_not_depend_on_earlier_cubature_calls():
    cold = build_report()
    propagate_cubature(lambda a, b, c: a * b / c, [LINEWIDTH, FSR, LINEWIDTH])
    after_three_inputs = build_report()
    propagate_cubature(ratio, [LINEWIDTH.value, FSR])
    after_an_exact_input = build_report()
    assert cold == after_three_inputs == after_an_exact_input


@pytest.mark.parametrize("n_inputs", [1, 3])
def test_monte_carlo_draws_one_row_of_normals_per_input(n_inputs, monkeypatch):
    inputs = [UncertainQuantity(2.0 + k, 0.1 * (k + 1)) for k in range(n_inputs)]
    expected = propagate_monte_carlo(_elementwise, inputs, 3000, seed=8)
    default_rng, drawn = np.random.default_rng, []

    class CountingGenerator:
        def __init__(self, seed):
            self._rng = default_rng(seed)

        def standard_normal(self, size):
            drawn.append(size)
            return self._rng.standard_normal(size)

    monkeypatch.setattr("numpy.random.default_rng", CountingGenerator)
    assert propagate_monte_carlo(_elementwise, inputs, 3000, seed=8) == expected
    assert drawn == [3000] * n_inputs


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_sigma_standard_error_is_the_spread_of_sigma_over_seeds(n):
    # exp(x), x ~ N(0, 0.5^2), has excess kurtosis 5.9: the normal-theory
    # s/sqrt(2(n-1)) alone is half the observed spread
    def sigma_and_standard_error(seed):
        kept = []
        mc = propagate_monte_carlo(lambda x: kept.append(np.exp(x)) or kept[0],
                                   [UncertainQuantity(0.0, 0.5)], n, seed)
        squares = (kept[0] - mc.value) ** 2
        return mc.sigma, sigma_standard_error(mc.sigma, float(np.mean(squares * squares)), n)

    sigmas, standard_errors = np.array([sigma_and_standard_error(seed) for seed in range(200)]).T
    assert np.mean(standard_errors) == pytest.approx(np.std(sigmas, ddof=1), rel=0.20)


def test_cubature_results_do_not_depend_on_earlier_calls():
    # the node weights of each pattern of exact and uncertain inputs are kept
    def result(spread):
        inputs = [q if s else q.value for q, s in zip([LINEWIDTH, FSR, LINEWIDTH], spread)]
        return propagate_cubature(lambda a, b, c: a * b / c, inputs)

    calls = [(1, 1, 0), (1, 1, 1), (0, 1, 1), (1, 1, 0), (1, 0, 1), (1, 1, 1), (0, 0, 1),
             (0, 0, 1), (1, 1, 0)]
    first = {}
    for call in calls:
        assert first.setdefault(call, result(call)) == result(call)
    _tensor_weights.cache_clear()
    assert {call: result(call) for call in first} == first
    assert first[1, 1, 0] != first[1, 0, 1]


@pytest.mark.parametrize("inner_inputs", [
    [LINEWIDTH, FSR],
    [UncertainQuantity(1.0, 0.1), UncertainQuantity(3.0, 0.5)],
    [LINEWIDTH, FSR.value],
], ids=["same-inputs", "other-inputs", "an-exact-input"])
def test_cubature_nested_in_f_gives_the_unnested_result(inner_inputs):
    alone = propagate_cubature(ratio, inner_inputs)

    def f(d, nu):
        return ratio(d, nu) * propagate_cubature(ratio, inner_inputs).sigma

    expected = propagate_cubature(lambda d, nu: ratio(d, nu) * alone.sigma, [LINEWIDTH, FSR])
    assert propagate_cubature(f, [LINEWIDTH, FSR]) == expected


def test_cubature_keeps_at_most_32_weight_tables():
    # 62 patterns of exact and uncertain inputs, 1 to 5 of them
    def result(spread):
        inputs = [UncertainQuantity(1.0 + k, 0.5) if s else 1.0 + k for k, s in enumerate(spread)]
        return propagate_cubature(lambda *x: math.fsum(x) + x[0] * x[-1], inputs)

    spreads = [s for k in range(1, 6) for s in itertools.product((False, True), repeat=k)]
    _tensor_weights.cache_clear()
    results = [result(s) for s in spreads]
    assert _tensor_weights.cache_info().currsize == 32
    assert [result(s) for s in spreads] == results


def test_cubature_keeps_no_weight_table_of_more_than_8_to_the_5_nodes():
    # a 6-input table of 8**6 weights is 8.4 MB as a tuple of floats
    _tensor_weights.cache_clear()
    tracemalloc.start()
    try:
        propagate_cubature(lambda *x: x[0], [UncertainQuantity(1.0 + k, 0.5) for k in range(6)])
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1_000_000


def test_linear_nonfinite_evaluation_errors():
    with pytest.raises(EvaluationError):
        propagate_linear(lambda x: math.nan, [UncertainQuantity(0.0, 0.1)])
    with pytest.raises(EvaluationError):
        # finite at the center, infinite on one stencil point
        propagate_linear(
            lambda x: 1.0 if x == 1.0 else math.inf, [UncertainQuantity(1.0, 0.1)]
        )


@pytest.mark.parametrize(
    "f,values,sigmas",
    [
        (lambda x, y: x * y, (3.0, 7.0), (0.02, 0.05)),
        (lambda x, y: x / y, (2.0, 9.0), (0.015, 0.07)),
        (lambda x: math.sqrt(x), (16.0,), (0.1,)),
        (lambda x, y: math.exp(x / 10) * y, (1.0, 4.0), (0.008, 0.03)),
    ],
)
def test_linear_and_cubature_sigma_agree_for_smooth_functions(f, values, sigmas):
    # relative sigmas below 1 percent: the two engines agree within 20%
    inputs = [UncertainQuantity(v, s) for v, s in zip(values, sigmas)]
    lin = propagate_linear(f, inputs)
    cubature = propagate_cubature(f, inputs)
    assert cubature.sigma == pytest.approx(lin.sigma, rel=0.20)


@pytest.mark.parametrize("f, inputs", [
    (lambda x: x * x, [UncertainQuantity(0.3, 1.0)]),
    (np.exp, [UncertainQuantity(0.0, 0.5)]),
    (lambda x, y: x * y, [UncertainQuantity(1.0, 1.0), UncertainQuantity(2.0, 1.5)]),
    (np.sin, [UncertainQuantity(1.0, 0.8)]),
], ids=["square", "exp", "product", "sin"])
def test_cubature_agrees_with_monte_carlo_where_linear_does_not(f, inputs):
    # relative sigmas near 1: linear propagation misses the mean or the
    # sigma by more than 10%, and the cubature is within 2 standard errors
    # of a 1e5-draw Monte Carlo in both
    n = 100_000
    cubature, linear = propagate_cubature(f, inputs), propagate_linear(f, inputs)
    mc = propagate_monte_carlo(f, inputs, n, seed=0)
    m4 = propagate_monte_carlo(lambda *x: (f(*x) - mc.value) ** 4, inputs, n, seed=0).value
    assert abs(cubature.value - mc.value) <= 2.0 * mc.sigma / math.sqrt(n)
    assert abs(cubature.sigma - mc.sigma) <= 2.0 * sigma_standard_error(mc.sigma, m4, n)
    assert (abs(linear.value / cubature.value - 1.0) > 0.10
            or abs(linear.sigma / cubature.sigma - 1.0) > 0.10)


def test_validation():
    with pytest.raises(ParameterError):
        UncertainQuantity(1.0, -0.1)
    with pytest.raises(ParameterError):
        UncertainQuantity(math.nan, 0.0)


def test_records_store_valid_numbers_as_before():
    q = UncertainQuantity(np.float64(1.5), 1)
    assert q == (1.5, 1.0) and type(q.value) is float and type(q.sigma) is float
    assert MirrorState(0.5, 0.1) == (0.5, 0.1)


def test_constants_are_frozen_and_consistent():
    assert CODATA.k_e == pytest.approx(1.0 / (4.0 * math.pi * CODATA.eps0), rel=1e-14)
    assert CODATA.h == pytest.approx(2.0 * math.pi * CODATA.hbar, rel=1e-14)
    with pytest.raises(Exception):
        CODATA.e = 1.0


# -- Gauss-Hermite cubature ----------------------------------------------------


def test_cubature_rule_is_hermegauss_normalised_to_weight_one():
    from numpy.polynomial.hermite_e import hermegauss

    nodes, weights = hermegauss(8)
    assert _GH_NODES == tuple(nodes.tolist())
    assert _GH_WEIGHTS == tuple((weights / weights.sum()).tolist())


@pytest.mark.parametrize("k", range(16))
def test_cubature_rule_integrates_the_normal_moments_up_to_degree_15(k):
    # E[Z^k] of a standard normal: 0 for odd k, (k - 1)!! for even k
    exact = 0.0 if k % 2 else float(math.prod(range(k - 1, 0, -2)))
    moment = math.fsum(w * x**k for x, w in zip(_GH_NODES, _GH_WEIGHTS))
    assert moment == pytest.approx(exact, rel=1e-13, abs=1e-13)


def test_cubature_gives_exact_moments_of_a_polynomial():
    # x y over independent normals: mean 6, variance 3^2 0.2^2 + 2^2 0.1^2 + 0.1^2 0.2^2
    q = propagate_cubature(lambda x, y: x * y,
                           [UncertainQuantity(3.0, 0.1), UncertainQuantity(2.0, 0.2)])
    assert q.value == pytest.approx(6.0, rel=1e-14)
    assert q.sigma == pytest.approx(math.sqrt(0.36 + 0.04 + 0.0004), rel=1e-13)


def _normal_moment(mu, sigma, n):
    # E[X^n] of X ~ N(mu, sigma^2), exactly: sum over even j of
    # C(n, j) mu^(n-j) sigma^j (j - 1)!!
    return sum(math.comb(n, j) * mu ** (n - j) * sigma**j * math.prod(range(j - 1, 0, -2))
               for j in range(0, n + 1, 2))


@pytest.mark.parametrize("k", range(1, 8))
def test_cubature_gives_the_exact_moments_of_a_power_of_a_normal(k):
    # X^k has a variance of degree 2k <= 14 in X, within the rule's 15
    mu, sigma = Fraction(3, 2), Fraction(2, 5)
    mean = _normal_moment(mu, sigma, k)
    variance = _normal_moment(mu, sigma, 2 * k) - mean * mean
    q = propagate_cubature(lambda x: x**k, [UncertainQuantity(float(mu), float(sigma))])
    assert q.value == pytest.approx(float(mean), rel=1e-13)
    assert q.sigma == pytest.approx(math.sqrt(variance), rel=1e-12)


def test_cubature_evaluates_an_exact_input_at_its_value_alone():
    calls = []

    def f(x, y, z):
        calls.append((x, y, z))
        assert type(x) is type(y) is type(z) is float and y == 4.0
        return x + y + z

    inputs = [UncertainQuantity(1.0, 0.5), UncertainQuantity(4.0), UncertainQuantity(2.0, 1.0)]
    q = propagate_cubature(f, inputs)
    assert len(calls) == 64
    assert q.value == pytest.approx(7.0, rel=1e-15)
    assert q.sigma == pytest.approx(math.hypot(0.5, 1.0), rel=1e-14)


def _raise_parameter_error(x):
    raise ParameterError("from f")


@pytest.mark.parametrize("f, error, message", [
    # math.sqrt raises a math domain error at the 4 nodes below the value 0
    (math.sqrt, EvaluationError, r"^f is not finite at 4/8 cubature nodes$"),
    (lambda x: math.inf if x > 0 else x, EvaluationError,
     r"^f is not finite at 4/8 cubature nodes$"),
    # a ZeroDivisionError at the lowest node, an OverflowError at the highest
    (lambda x: 1.0 / (x - _GH_NODES[0]), EvaluationError,
     r"^f is not finite at 1/8 cubature nodes$"),
    (lambda x: math.exp(200.0 * x), EvaluationError, r"^f is not finite at 1/8 cubature nodes$"),
    (lambda x: complex(x, 1.0), ParameterError,
     r"^f returned \(-4\.14\d*\+1j\) at a cubature node, not a real number$"),
    (lambda x: x * 1e306, EvaluationError,
     r"^the weighted variance over 8 cubature nodes overflows$"),
    (_raise_parameter_error, ParameterError, "^from f$"),
], ids=["non-finite", "inf", "zero-division", "math-overflow", "non-real", "overflow",
        "toolkit-error"])
def test_cubature_refuses_what_it_cannot_sum(f, error, message):
    with pytest.raises(error, match=message):
        propagate_cubature(f, [UncertainQuantity(0.0, 1.0)])


def test_product_cubature_counts_the_nodes_of_the_full_grid():
    # the first factor is finite at its 8 nodes and the second not at 1 of its 8:
    # 8 of the 64 product nodes; two finite values whose product overflows count too
    x = [UncertainQuantity(1.0, 0.1)]
    y = [UncertainQuantity(0.0, 1.0)]
    with pytest.raises(EvaluationError, match=r"^f is not finite at 8/64 cubature nodes$"):
        _product_cubature([(lambda a: 1.0 / a, x), (lambda b: 1.0 / (b + _GH_NODES[0]), y)])
    with pytest.raises(EvaluationError, match=r"^f is not finite at 1/64 cubature nodes$"):
        _product_cubature([(lambda a: a * 1e200 if a > 1.4 else 1.0, x),
                           (lambda b: b * 1e200 if b > 4 else 1.0, y)])


def test_product_cubature_transforms_each_axis_node_once():
    # f(t(x), t(y), t(z)) over 8 x 8 nodes and an exact z: 17 calls of t, and
    # the bits of t inside f
    calls = []

    def t(x):
        calls.append(x)
        return math.exp(x)

    inputs = [UncertainQuantity(0.1, 0.2), UncertainQuantity(0.3, 0.1), 2.0]
    transformed = _product_cubature([(lambda a, b, c: a * b / c, [*map(as_quantity, inputs)], t)])
    assert len(calls) == 17
    assert transformed == propagate_cubature(
        lambda x, y, z: math.exp(x) * math.exp(y) / math.exp(z), inputs)


@pytest.mark.parametrize("t, bad", [
    # y's nodes are 0 +/- 4.14: above 4 one node, below 0 four, at -4.14 one
    (lambda y: y if y < 4 else math.exp(1000.0), 1),
    (math.sqrt, 4),
    (lambda y: 1.0 / (y - _GH_NODES[0]), 1),
], ids=["overflow", "math-domain", "zero-division"])
def test_a_math_error_in_a_transform_makes_the_nodes_that_use_it_non_finite(t, bad):
    # x's 8 nodes are in (0.5, 1.5), where each t is finite; f is called at
    # no node whose transformed y is missing
    seen = []

    def f(a, b):
        seen.append(b)
        return a + b

    inputs = [UncertainQuantity(1.0, 0.1), UncertainQuantity(0.0, 1.0)]
    with pytest.raises(EvaluationError, match=rf"^f is not finite at {8 * bad}/64 cubature nodes$"):
        _product_cubature([(f, inputs, t)])
    assert len(seen) == 64 - 8 * bad and all(map(math.isfinite, seen))


def test_a_toolkit_error_in_a_transform_propagates():
    with pytest.raises(ParameterError, match="^from f$"):
        _product_cubature([(lambda a: a, [UncertainQuantity(0.0, 1.0)], _raise_parameter_error)])


def test_product_cubature_is_the_tensor_rule_of_the_product():
    # x y z over independent normals, as the factors (x y) and z and as one function
    inputs = [UncertainQuantity(3.0, 0.1), UncertainQuantity(2.0, 0.2),
              UncertainQuantity(5.0, 0.5)]
    whole = propagate_cubature(lambda x, y, z: x * y * z, inputs)
    factored = _product_cubature([(lambda x, y: x * y, inputs[:2]), (lambda z: z, inputs[2:])])
    assert factored.value == pytest.approx(whole.value, rel=1e-15)
    assert factored.sigma == pytest.approx(whole.sigma, rel=1e-14)


_X, _Y, _Z = (UncertainQuantity(3.0, 0.4), UncertainQuantity(1.0, 0.5),
              UncertainQuantity(5.0, 0.5))


@pytest.mark.parametrize("factors", [
    [(lambda x: x * x, [_X]), (np.exp, [_Y]), (lambda z: 1.0 / z, [_Z])],
    [(lambda x, y: x * x * np.exp(y), [_X, _Y]), (lambda z: 1.0 / z, [_Z])],
    [(lambda x: x * x, [_X]), (lambda y, z: np.exp(y) / z, [_Y, _Z])],
    [(lambda x, z: x * x / z, [_X, _Z]), (np.exp, [_Y])],
    [(lambda x: x * x, [_X]), (np.exp, [_Y]), (lambda z: 1.0 / z, [_Z]),
     (lambda c: c, [UncertainQuantity(2.0)])],
], ids=["x|y|z", "xy|z", "x|yz", "xz|y", "x|y|z|exact"])
def test_product_cubature_folds_any_split_into_factors(factors):
    # x^2 e^y / z, as a product of factors each over its own inputs, against
    # the tensor rule over all of them at once
    inputs = [q for _, factor_inputs in factors for q in factor_inputs]
    arity = [len(factor_inputs) for _, factor_inputs in factors]

    def whole(*x):
        value, start = 1.0, 0
        for (f, _), n in zip(factors, arity):
            value, start = value * f(*x[start:start + n]), start + n
        return value

    factored = _product_cubature(factors)
    expected = propagate_cubature(whole, inputs)
    assert factored.value == pytest.approx(expected.value, rel=1e-14)
    assert factored.sigma == pytest.approx(expected.sigma, rel=1e-13)
