import math
import re
import tracemalloc

import numpy as np
import pytest

from cavitycharge.cavity_optics import MirrorState
from cavitycharge.electrostatics import ChargeScenario
from cavitycharge.errors import DomainError, EvaluationError, ParameterError
from cavitycharge.ion_impact import GateParams
from cavitycharge.quantities import (
    _GH_NODES,
    _GH_WEIGHTS,
    CODATA,
    UncertainQuantity,
    _cubature,
    _product_cubature,
    propagate_linear,
    propagate_monte_carlo,
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


def test_monte_carlo_agrees_with_linear_on_finesse():
    linear = propagate_linear(ratio, [LINEWIDTH, FSR])
    mc = propagate_monte_carlo(ratio, [LINEWIDTH, FSR], sample_count=100_000, seed=3)
    assert mc.value == pytest.approx(linear.value, rel=0.005)
    assert mc.sigma == pytest.approx(linear.sigma, rel=0.10)


def test_monte_carlo_zero_sigma_inputs():
    mc = propagate_monte_carlo(
        lambda x, y: x * y,
        [UncertainQuantity(3.0), UncertainQuantity(4.0)],
        sample_count=2000,
        seed=0,
    )
    assert mc.value == 12.0
    assert mc.sigma == 0.0


def test_monte_carlo_independent_sum_sigma():
    mc = propagate_monte_carlo(
        lambda x, y: x + y,
        [UncertainQuantity(1.0, 1.0), UncertainQuantity(1.0, 1.0)],
        sample_count=100_000,
        seed=1,
    )
    assert mc.sigma == pytest.approx(math.sqrt(2.0), rel=0.05)


def test_monte_carlo_determinism():
    inputs = [UncertainQuantity(2.0, 0.3), UncertainQuantity(5.0, 0.2)]
    a = propagate_monte_carlo(lambda x, y: x * y, inputs, 5000, seed=42)
    b = propagate_monte_carlo(lambda x, y: x * y, inputs, 5000, seed=42)
    c = propagate_monte_carlo(lambda x, y: x * y, inputs, 5000, seed=43)
    assert (a.value, a.sigma) == (b.value, b.sigma)
    assert a.value != c.value


def test_monte_carlo_rejects_tiny_sample_count():
    with pytest.raises(ParameterError):
        propagate_monte_carlo(lambda x: x, [UncertainQuantity(1.0, 0.1)], 10, seed=0)


@pytest.mark.parametrize("sample_count", [1000.5, "5000", True])
def test_monte_carlo_sample_count_is_an_int(sample_count):
    message = f"^sample_count must be an int >= 1000, got {re.escape(repr(sample_count))}$"
    with pytest.raises(ParameterError, match=message):
        propagate_monte_carlo(lambda x: x, [UncertainQuantity(1.0, 0.1)], sample_count)


def test_monte_carlo_nonfinite_fraction_errors():
    # half the draws of x land below zero -> sqrt produces NaN for >1%
    with pytest.raises(EvaluationError):
        propagate_monte_carlo(
            np.sqrt, [UncertainQuantity(0.0, 1.0)], sample_count=2000, seed=0
        )


def test_monte_carlo_error_from_f_propagates_after_one_call():
    calls = []

    def f(x):
        calls.append(x.shape)
        raise DomainError("outside the domain")

    with pytest.raises(DomainError, match="outside the domain"):
        propagate_monte_carlo(f, [UncertainQuantity(1.0, 0.1)], 1000, seed=0)
    assert calls == [(1000,)]


def test_monte_carlo_rejects_f_that_is_not_elementwise():
    with pytest.raises(ParameterError, match=r"shape \(\), expected \(1000,\)"):
        propagate_monte_carlo(lambda x: 2.0, [UncertainQuantity(1.0, 0.1)], 1000, seed=0)


def _elementwise(*draws):
    y = np.cos(draws[0])
    for x in draws[1:]:
        y = y * x + np.sqrt(np.abs(x))
    return y


@pytest.mark.parametrize("sample_count", [1000, 8192, 8193, 100_000])
@pytest.mark.parametrize(
    "inputs",
    [
        [(2.0, 0.3)],
        [(523e3, 9e3), (7.41e9, 0.013e9)],
        [(22_000.0, 500.0), (-1.5, 2.0), (4e-8, 1e-9)],
    ],
)
def test_monte_carlo_blocks_equal_one_call_on_all_draws(sample_count, inputs):
    sizes = []

    def f(*draws):
        sizes.append(draws[0].size)
        return _elementwise(*draws)

    quantities = [UncertainQuantity(v, s) for v, s in inputs]
    mc = propagate_monte_carlo(f, quantities, sample_count, seed=4)
    z = np.random.default_rng(4).standard_normal((len(inputs), sample_count))
    y = _elementwise(*(q.value + q.sigma * z[i] for i, q in enumerate(quantities)))
    assert (mc.value, mc.sigma) == (float(np.mean(y)), float(np.std(y, ddof=1)))
    assert sum(sizes) == sample_count


def _nan_in_first_block(n_nan):
    calls = []

    def f(x):
        calls.append(x.size)
        y = x.copy()
        if len(calls) == 1:
            y[:n_nan] = np.nan
        return y

    return f


def test_monte_carlo_nonfinite_policy_counts_over_the_whole_output():
    # 1,100 NaNs, 13% of the first 8,192 draws, are 1.1% of all draws
    with pytest.raises(EvaluationError, match="1100/100000"):
        propagate_monte_carlo(_nan_in_first_block(1100), [UncertainQuantity(1.0, 0.1)], 100_000)
    # 900 NaNs, 11% of those draws, are 0.9% of all draws: a warning only
    with pytest.warns(RuntimeWarning, match="discarded 900/100000"):
        mc = propagate_monte_carlo(_nan_in_first_block(900), [UncertainQuantity(1.0, 0.1)], 100_000)
    assert math.isfinite(mc.value) and math.isfinite(mc.sigma)


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


def test_report_rows_do_not_depend_on_earlier_monte_carlo_calls():
    cold = build_report(seed=5)
    propagate_monte_carlo(lambda a, b, c: a * b / c, [LINEWIDTH, FSR, LINEWIDTH], 100_000, seed=6)
    after_other_seed = build_report(seed=5)
    propagate_monte_carlo(ratio, [LINEWIDTH, FSR], 100_000, seed=5)
    after_two_inputs = build_report(seed=5)
    assert cold == after_other_seed == after_two_inputs


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


def test_monte_carlo_results_do_not_depend_on_earlier_calls():
    def results(seed, sample_count):
        return (
            propagate_monte_carlo(ratio, [LINEWIDTH, FSR], sample_count, seed=seed),
            propagate_monte_carlo(lambda a, b, c: a * b / c, [LINEWIDTH, FSR, LINEWIDTH],
                                  sample_count, seed=seed),
        )

    calls = [(3, 2000), (3, 100_000), (4, 100_000), (3, 2000), (4, 2000), (4, 100_000),
             (5, 100_000), (5, 100_000), (3, 2000)]
    first = {}
    for call in calls:
        assert first.setdefault(call, results(*call)) == results(*call)
    # a later call with the same seed and draw count repeats the first bit for bit;
    # another seed draws other normals
    assert first[3, 2000][0] != first[4, 2000][0]


def test_monte_carlo_f_writing_into_its_draws_changes_no_later_result():
    inputs =[UncertainQuantity(2.0, 0.3), UncertainQuantity(5.0, 0.2)]
    before = propagate_monte_carlo(lambda x, y: x * y, inputs, 5000, seed=42)

    def vandal(x, y):
        x[:] = 0.0
        y *= 3.0
        return x + y

    propagate_monte_carlo(vandal, inputs, 5000, seed=42)
    after = propagate_monte_carlo(lambda x, y: x * y, inputs, 5000, seed=42)
    assert (after.value, after.sigma) == (before.value, before.sigma)


@pytest.mark.parametrize(
    "seed",
    [
        None,
        -1,
        np.int64(-3),
        1.0,
        "0",
        np.random.default_rng(0),
        np.random.SeedSequence(0),
        True,
    ],
    ids=["none", "negative-int", "negative-np-integer", "float", "str", "generator",
         "seed-sequence", "bool"],
)
def test_monte_carlo_rejects_seed_that_is_not_a_nonnegative_int(seed):
    calls = []
    with pytest.raises(ParameterError, match="seed must be an int >= 0"):
        propagate_monte_carlo(calls.append, [UncertainQuantity(1.0, 0.1)], 1000, seed=seed)
    assert calls == []


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
        (lambda x: np.sqrt(x), (16.0,), (0.1,)),
        (lambda x, y: np.exp(x / 10) * y, (1.0, 4.0), (0.008, 0.03)),
    ],
)
def test_linear_and_mc_sigma_agree_for_smooth_functions(f, values, sigmas):
    # relative sigmas below 1 percent: the two engines agree within 20%
    inputs = [UncertainQuantity(v, s) for v, s in zip(values, sigmas)]
    lin = propagate_linear(f, inputs)
    mc = propagate_monte_carlo(f, inputs, sample_count=50_000, seed=11)
    assert mc.sigma == pytest.approx(lin.sigma, rel=0.20)


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


@pytest.mark.parametrize("inner_seed,inner_count", [(9, 20_000), (10, 20_000), (9, 3000)],
                         ids=["same-seed-and-count", "other-seed", "other-count"])
def test_monte_carlo_nested_in_f_shares_no_array_with_its_caller(inner_seed, inner_count):
    # the inner call runs between the outer's draws and its summary
    def inner():
        return propagate_monte_carlo(ratio, [LINEWIDTH, FSR], inner_count, seed=inner_seed)

    def product(x, y):
        return x * y

    inputs = [UncertainQuantity(2.0, 0.3), UncertainQuantity(5.0, 0.2)]
    alone = propagate_monte_carlo(product, inputs, 20_000, seed=9), inner()
    inner_results = []

    def product_calling_inner(x, y):
        inner_results.append(inner())
        return product(x, y)

    outer = propagate_monte_carlo(product_calling_inner, inputs, 20_000, seed=9)
    assert outer == alone[0]
    assert inner_results == [alone[1]]


def test_monte_carlo_keeps_no_memory_between_calls():
    inputs = [UncertainQuantity(2.0, 0.3), UncertainQuantity(5.0, 0.2)]
    propagate_monte_carlo(lambda x, y: x * y, inputs, 1000, seed=1)  # loads numpy.random
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        propagate_monte_carlo(lambda x, y: x * y, inputs, 1_000_000, seed=2)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the call's draws and samples are 8,000,000 bytes each
    assert kept <= 64 * 1024


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
    q = _cubature(lambda x, y: x * y, [UncertainQuantity(3.0, 0.1), UncertainQuantity(2.0, 0.2)])
    assert q.value == pytest.approx(6.0, rel=1e-14)
    assert q.sigma == pytest.approx(math.sqrt(0.36 + 0.04 + 0.0004), rel=1e-13)


def test_cubature_evaluates_an_exact_input_at_its_value_alone():
    calls = []

    def f(x, y, z):
        calls.append((x, y, z))
        assert type(x) is type(y) is type(z) is float and y == 4.0
        return x + y + z

    inputs = [UncertainQuantity(1.0, 0.5), UncertainQuantity(4.0), UncertainQuantity(2.0, 1.0)]
    q = _cubature(f, inputs)
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
        _cubature(f, [UncertainQuantity(0.0, 1.0)])


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


def test_product_cubature_is_the_tensor_rule_of_the_product():
    # x y z over independent normals, as the factors (x y) and z and as one function
    inputs = [UncertainQuantity(3.0, 0.1), UncertainQuantity(2.0, 0.2),
              UncertainQuantity(5.0, 0.5)]
    whole = _cubature(lambda x, y, z: x * y * z, inputs)
    factored = _product_cubature([(lambda x, y: x * y, inputs[:2]), (lambda z: z, inputs[2:])])
    assert factored.value == pytest.approx(whole.value, rel=1e-15)
    assert factored.sigma == pytest.approx(whole.sigma, rel=1e-14)
