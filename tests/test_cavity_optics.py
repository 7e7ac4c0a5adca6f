import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavitycharge.cavity_optics import (
    MirrorState,
    NegativeExtinctionWarning,
    excess_reflection_loss,
    extinction_from_finesse,
    extinction_from_reflectivities,
    r0_from_symmetric_finesse,
    r1_from_asymmetric_finesse,
    resonant_response,
)
from cavitycharge.errors import ConsistencyError, EvaluationError, ParameterError, ToolkitError
from cavitycharge.quantities import UncertainQuantity, propagate_linear, propagate_monte_carlo

mpmath.mp.dps = 50

F00 = 23340.0
WAVELENGTH = 1650e-9
THICKNESS = 30e-9

#: finesse measured against the bare cavity and the printed extinction
#: (value, sigma) at each age of the modified mirror
FINESSE_TABLE = {
    "coated_27d": (14160.0, 250.0),
    "coated_69d": (18400.0, 700.0),
    "coated_128d": (19800.0, 180.0),
    "annealed_69d": (20900.0, 300.0),
    "annealed_128d": (22120.0, 130.0),
}


def mp_r0(f):
    f = mpmath.mpf(f)
    return (mpmath.sqrt(4 * f**2 + mpmath.pi**2) - mpmath.pi) / (2 * f)


def mp_r1(f01, r0):
    return mp_r0(f01) ** 2 / r0


def finesse_of(r_i, r_j):
    """F_ij = pi sqrt(r_i r_j) / (1 - r_i r_j), at extended precision."""
    product = mpmath.mpf(r_i) * mpmath.mpf(r_j)
    return float(mpmath.pi * mpmath.sqrt(product) / (1 - product))


def first_order_kappa(f00, f01, thickness_m, wavelength_m):
    """Small-loss expansion kappa ~ (lambda/(4h)) (1/F01 - 1/F00)."""
    return (wavelength_m / (4.0 * thickness_m)) * (1.0 / f01 - 1.0 / f00)


def mp_kappa(f00, f01, h, lam):
    r0 = mp_r0(f00)
    r1 = mp_r1(f01, r0)
    return -(mpmath.mpf(lam) / (8 * mpmath.pi * mpmath.mpf(h))) * mpmath.log(
        1 - r0**2 + r1**2
    )


# -- reflectivity inversions -------------------------------------------------


def test_r0_against_extended_precision():
    r0 = r0_from_symmetric_finesse(F00).value
    assert abs(r0 - float(mp_r0(F00))) < 1e-9
    assert 1.0 - r0 == pytest.approx(6.730e-5, rel=1e-3)


def test_r0_asymptotics_and_monotonicity():
    assert 1.0 - r0_from_symmetric_finesse(1e8).value < 2e-8
    grid = np.logspace(2, 6, 25)
    r_values = [r0_from_symmetric_finesse(f).value for f in grid]
    assert np.all(np.diff(r_values) > 0)
    assert all(0 < r < 1 for r in r_values)


@pytest.mark.parametrize("f", np.logspace(2, 6, 17))
def test_r0_round_trip_identity(f):
    # composition r0(finesse(r, r)) is the identity on reflectivities
    r = r0_from_symmetric_finesse(f).value
    r_back = r0_from_symmetric_finesse(finesse_of(r, r)).value
    assert r_back == pytest.approx(r, rel=1e-12)


def test_finesse_recovered_from_inverted_reflectivity():
    r0 = r0_from_symmetric_finesse(F00).value
    assert finesse_of(r0, r0) == pytest.approx(F00, rel=1e-12)


def test_r1_against_extended_precision():
    r0 = r0_from_symmetric_finesse(F00)
    r1 = r1_from_asymmetric_finesse(14160.0, r0).value
    assert abs(r1 - float(mp_r1(14160.0, mp_r0(F00)))) < 1e-9
    assert 1.0 - r1 == pytest.approx(1.5457e-4, rel=1e-3)


def test_r1_inverse_identity():
    r0 = r0_from_symmetric_finesse(F00).value
    for f01 in (14160.0, 18400.0, 22120.0):
        r1 = r1_from_asymmetric_finesse(f01, r0).value
        assert finesse_of(r0, r1) == pytest.approx(f01, rel=1e-12)


def test_r1_unchanged_mirror():
    r0 = r0_from_symmetric_finesse(F00)
    r1 = r1_from_asymmetric_finesse(F00, r0)
    assert r1.value == pytest.approx(r0.value, rel=1e-12)


def test_r1_consistency_error():
    # a huge mixed finesse is incompatible with a lossy bare mirror
    with pytest.raises(ConsistencyError):
        r1_from_asymmetric_finesse(1e9, 0.9)


# -- extinction chain --------------------------------------------------------


def test_extinction_values_match_table():
    printed = {
        "coated_27d": (38e-5, 3e-5),
        "coated_69d": (16e-5, 3e-5),
        "annealed_69d": (6.7e-5, 1.1e-5),
        "annealed_128d": (3.2e-5, 0.4e-5),
    }
    h = UncertainQuantity(THICKNESS, 2e-9)
    for key, (ref, ref_sigma) in printed.items():
        f01, f01_sigma = FINESSE_TABLE[key]
        kappa = extinction_from_finesse(
            UncertainQuantity(F00, 60.0), UncertainQuantity(f01, f01_sigma), h, WAVELENGTH
        )
        oracle = float(mp_kappa(F00, f01, THICKNESS, WAVELENGTH))
        assert kappa.value == pytest.approx(oracle, rel=1e-10)
        assert abs(kappa.value - ref) < ref_sigma


def test_extinction_documented_outlier():
    # the 128-day coated row: the finesse pair implies ~1.05e-4, far from
    # the printed 8.0(7)e-5, while its r0^2-r1^2 does match the printed text
    f01, f01_sigma = FINESSE_TABLE["coated_128d"]
    kappa = extinction_from_finesse(
        UncertainQuantity(F00, 60.0),
        UncertainQuantity(f01, f01_sigma),
        UncertainQuantity(THICKNESS, 2e-9),
        WAVELENGTH,
    )
    assert kappa.value == pytest.approx(1.053e-4, rel=2e-3)
    assert abs(kappa.value - 8.0e-5) > 3 * 0.7e-5
    refl = excess_reflection_loss(UncertainQuantity(F00, 60.0), UncertainQuantity(f01, f01_sigma))
    assert refl.value == pytest.approx(4.8e-5, rel=0.02)


def test_extinction_uncertainty_scale():
    kappa = extinction_from_finesse(
        UncertainQuantity(F00, 60.0),
        UncertainQuantity(14160.0, 250.0),
        UncertainQuantity(THICKNESS, 2e-9),
        WAVELENGTH,
        seed=0,
    )
    assert 2.5e-5 < kappa.sigma < 3.6e-5  # quoted +/- 3e-5


def test_extinction_monte_carlo_vs_linear_sigma():
    f00 = UncertainQuantity(F00, 60.0)
    f01 = UncertainQuantity(14160.0, 250.0)
    h = UncertainQuantity(THICKNESS, 2e-9)
    mc = extinction_from_finesse(f00, f01, h, WAVELENGTH, seed=1)

    def chain(a, b, hh):
        r0 = (math.sqrt(4 * a**2 + math.pi**2) - math.pi) / (2 * a)
        r1 = ((math.sqrt(4 * b**2 + math.pi**2) - math.pi) / (2 * b)) ** 2 / r0
        return extinction_from_reflectivities(r0, r1, hh, WAVELENGTH)

    linear = propagate_linear(chain, [f00, f01, h])
    assert mc.sigma == pytest.approx(linear.sigma, rel=0.20)


def test_extinction_sigma_is_the_std_of_direct_draws():
    # reference: draws of F00, F01 and h, in that order, from one generator
    inputs = (
        UncertainQuantity(F00, 60.0),
        UncertainQuantity(14160.0, 250.0),
        UncertainQuantity(THICKNESS, 2e-9),
    )
    rng = np.random.default_rng(5)
    f00, f01, h = (rng.normal(q.value, q.sigma, 20_000) for q in inputs)

    def r0(f):
        return (np.sqrt(4.0 * f**2 + np.pi**2) - np.pi) / (2.0 * f)

    r1 = r0(f01) ** 2 / r0(f00)
    draws = -(WAVELENGTH / (8.0 * np.pi * h)) * np.log(1.0 - r0(f00) ** 2 + r1**2)
    kappa = extinction_from_finesse(*inputs, WAVELENGTH, mc_samples=20_000, seed=5)
    assert kappa.sigma == pytest.approx(float(np.std(draws, ddof=1)), rel=1e-9)


def _kappa_draws(wavelength_m):
    """The per-draw extinction as one generic Monte-Carlo function."""
    def r0(f):
        return 1.0 - 2.0 * math.pi / (2.0 * f + math.pi + np.sqrt(4.0 * f**2 + math.pi**2))

    def kappa(f00_s, f01_s, h_s):
        r0_s = r0(f00_s)
        r1_s = r0(f01_s) ** 2 / r0_s
        k = -(wavelength_m / (8.0 * math.pi * h_s)) * np.log(1.0 - r0_s**2 + r1_s**2)
        return np.where((f00_s > 0) & (f01_s > 0) & (h_s > 0), k, np.nan)
    return kappa


@pytest.mark.parametrize("mc_samples", [1000, 8193, 100_000])
@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_extinction_series_equals_its_single_calls_bit_for_bit(seed, mc_samples):
    f00 = UncertainQuantity(F00, 60.0)
    h = UncertainQuantity(THICKNESS, 2e-9)
    # the whole table plus one finesse above F00, whose kappa is negative
    f01s = [UncertainQuantity(*FINESSE_TABLE[key]) for key in FINESSE_TABLE]
    f01s.insert(2, UncertainQuantity(F00 + 500.0, 200.0))
    with pytest.warns(NegativeExtinctionWarning) as caught:
        series = extinction_from_finesse(f00, f01s, h, WAVELENGTH, mc_samples, seed)
    assert len(caught) == 1
    assert isinstance(series, list) and len(series) == len(f01s)
    for f01, kappa in zip(f01s, series):
        with warnings.catch_warnings(record=True) as single_caught:
            warnings.simplefilter("always")
            single = extinction_from_finesse(f00, f01, h, WAVELENGTH, mc_samples, seed)
        assert len(single_caught) == (f01.value > F00)
        assert (kappa.value, kappa.sigma) == (single.value, single.sigma)
        # the generic engine on the same draws gives the same sigma
        generic = propagate_monte_carlo(_kappa_draws(WAVELENGTH), [f00, f01, h], mc_samples, seed)
        assert kappa.sigma == generic.sigma
    assert series[2].value < 0 < series[0].value


def _outcome(call):
    """(call()'s result, or the type and message of the ToolkitError it
    raised, and the category and message of each warning it gave)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except ToolkitError as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


_finesse = st.floats(1e2, 1e5)
# a relative sigma up to 0.45 puts up to ~1.3% of the draws at or below 0,
# either side of the 1% limit on non-finite samples
_rel_sigma = st.sampled_from([0.0, 1e-3, 0.02, 0.1, 0.3, 0.4, 0.45])


@settings(max_examples=120)
@given(f00=st.tuples(_finesse, _rel_sigma), f01s=st.lists(st.tuples(_finesse, _rel_sigma),
       min_size=1, max_size=5), h_rel=_rel_sigma, seed=st.integers(0, 2**32),
       mc_samples=st.sampled_from([1000, 1001, 8191, 8192, 8193, 20_000, 100_000]))
def test_extinction_sigmas_are_the_generic_engine_on_the_same_draws(
        f00, f01s, h_rel, seed, mc_samples):
    f00 = UncertainQuantity(f00[0], f00[0] * f00[1])
    f01s = [UncertainQuantity(value, value * rel) for value, rel in f01s]
    h = UncertainQuantity(THICKNESS, THICKNESS * h_rel)
    series, caught = _outcome(
        lambda: extinction_from_finesse(f00, f01s, h, WAVELENGTH, mc_samples, seed))
    # the central values warn first, once per F01 above F00
    negative = sum(f01.value > f00.value for f01 in f01s)
    assert [category for category, _ in caught[:negative]] == [NegativeExtinctionWarning] * negative
    # the reference: each F01 through the generic engine, up to the first failure
    expected, sigmas = [], []
    for f01 in f01s:
        generic, generic_caught = _outcome(lambda: propagate_monte_carlo(
            _kappa_draws(WAVELENGTH), [f00, f01, h], mc_samples, seed))
        expected += generic_caught
        if not isinstance(generic, UncertainQuantity):
            assert series == generic
            break
        sigmas.append(generic.sigma)
    else:
        assert [kappa.sigma for kappa in series] == sigmas
    assert caught[negative:] == expected


# -- bit identity with the plain operation order -----------------------------
# The Monte-Carlo kernels skip passes that compute nothing: _summary looks for
# non-finite samples only when their sum is not finite, _r0_of_draws forms 2F
# and (2F)^2 directly (scaling by 2 is exact), the kappa scale divides -lambda
# once, and propagate_monte_carlo writes each block's draws in place. The
# references below keep the plain order: isfinite first, F then f *= 2 and
# tmp *= 4, a divide then a negate, and value + sigma * z per block.

def _reference_normals(seed, mc_samples, n_inputs):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(mc_samples) for _ in range(n_inputs)]


def _reference_summary(samples):
    sample_count = len(samples)
    finite = np.isfinite(samples)
    n_bad = sample_count - np.count_nonzero(finite)
    if n_bad > 0.01 * sample_count:
        raise EvaluationError(f"{n_bad}/{sample_count} Monte-Carlo samples were non-finite")
    if n_bad:
        warnings.warn(f"discarded {n_bad}/{sample_count} non-finite Monte-Carlo samples",
                      RuntimeWarning)
        samples = samples[finite]
    n = len(samples)
    mean = np.add.reduce(samples) / n
    deviations = samples - mean
    deviations *= deviations
    return UncertainQuantity(float(mean), float(np.sqrt(np.add.reduce(deviations) / (n - 1))))


def _reference_r0_of_draws(q, z):
    f = q.sigma * z
    f += q.value
    bad = f <= 0
    tmp = np.square(f)
    tmp *= 4.0
    tmp += math.pi**2
    np.sqrt(tmp, out=tmp)
    f *= 2.0
    f += math.pi
    f += tmp
    return 1.0 - 2.0 * math.pi / f, bad


def _reference_kappa_sigmas(q00, q01s, h, wavelength_m, mc_samples, seed):
    """The sigma of each F01's kappa, up to the first that raises."""
    z00, z01, zh = _reference_normals(seed, mc_samples, 3)
    sigmas = []
    with np.errstate(all="ignore"):
        r0, bad0 = _reference_r0_of_draws(q00, z00)
        loss0 = 1.0 - np.square(r0)
        scale = h.sigma * zh
        scale += h.value
        bad0 |= scale <= 0
        scale *= 8.0 * math.pi
        scale = np.negative(wavelength_m / scale)
        scale[bad0] = np.nan
        for q01 in q01s:
            r, bad = _reference_r0_of_draws(q01, z01)
            samples = loss0 + (np.square(r) / r0) ** 2
            samples = scale * np.log(samples)
            samples[bad] = np.nan
            sigmas.append(_reference_summary(samples).sigma)
    return sigmas


def _reference_monte_carlo(f, inputs, sample_count, seed):
    z = _reference_normals(seed, sample_count, len(inputs))
    samples = np.empty(sample_count)
    for start in range(0, sample_count, 8192):
        part = slice(start, min(start + 8192, sample_count))
        with np.errstate(all="ignore"):
            samples[part] = f(*(q.value + q.sigma * z_k[part] for q, z_k in zip(inputs, z)))
    return _reference_summary(samples)


def _bits(outcome):
    """An _outcome with each number as its bits (NaN equals NaN)."""
    result, caught = outcome
    quantities = result if isinstance(result, list) else [result]
    if all(isinstance(q, UncertainQuantity) for q in quantities):
        result = [tuple(np.float64(x).tobytes() for x in q) for q in quantities]
    return result, caught


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)


def _log_uniform_quantity(low, high):
    # relative sigmas up to 0.6 put up to ~5% of the draws at or below 0,
    # either side of the 1% limit on non-finite samples
    return st.tuples(_log_uniform(low, high), _log_uniform(1e-6, 0.6)).map(
        lambda pair: UncertainQuantity(pair[0], pair[0] * pair[1]))


@settings(max_examples=200)
@given(f00=_log_uniform_quantity(1e2, 1e6),
       f01s=st.lists(_log_uniform_quantity(1e2, 1e6), min_size=1, max_size=5),
       h=_log_uniform_quantity(1e-9, 1e-5), wavelength_m=_log_uniform(1e-7, 1e-4),
       seed=st.integers(0, 2**32))
def test_monte_carlo_kernels_keep_the_plain_operation_order_bit_for_bit(
        f00, f01s, h, wavelength_m, seed):
    from cavitycharge.cavity_optics import _r0, _r1

    def reference():
        r0 = _r0(f00.value)
        central = [extinction_from_reflectivities(r0, _r1(f01.value, r0), h.value, wavelength_m)
                   for f01 in f01s]
        sigmas = _reference_kappa_sigmas(f00, f01s, h, wavelength_m, 2000, seed)
        return [UncertainQuantity(c, s) for c, s in zip(central, sigmas)]

    def without_negative_warnings(outcome):
        result, caught = outcome
        return result, [w for w in caught if w[0] is not NegativeExtinctionWarning]

    assert _bits(without_negative_warnings(_outcome(
        lambda: extinction_from_finesse(f00, f01s, h, wavelength_m, 2000, seed)))) \
        == _bits(_outcome(reference))
    for f01 in f01s:
        for f, inputs in ((_kappa_draws(wavelength_m), [f00, f01, h]),
                          (lambda d, f: f / d, [f00, f01])):
            assert _bits(_outcome(lambda: propagate_monte_carlo(f, inputs, 2000, seed))) \
                == _bits(_outcome(lambda: _reference_monte_carlo(f, inputs, 2000, seed)))


@pytest.mark.parametrize("case", ["nan", "inf", "overflowing sum", "finite"])
def test_summary_finds_the_non_finite_samples_its_sum_shows(case):
    from cavitycharge.quantities import _summary

    samples = 1.0 + _reference_normals(3, 2000, 1)[0]
    if case == "nan":
        samples[17] = np.nan
    elif case == "inf":
        samples[1999] = np.inf
    elif case == "overflowing sum":
        samples *= 1e305  # every sample finite, their sum not
        samples += 1e307
    expected = _outcome(lambda: _reference_summary(samples.copy()))
    if case == "overflowing sum":  # the plain order leaks NumPy's overflow warning
        assert np.isfinite(samples).all()
        expected = ((EvaluationError, "the sum of 2000 finite Monte-Carlo samples overflows"), [])
    assert _bits(_outcome(lambda: _summary(samples.copy(), np.empty(2000)))) == _bits(expected)
    if case in ("nan", "inf"):
        assert expected[1] == [(RuntimeWarning, "discarded 1/2000 non-finite Monte-Carlo samples")]


@pytest.mark.parametrize("call, overflowing", [
    (lambda: propagate_monte_carlo(lambda x: x * 1e305, [UncertainQuantity(10.0, 1.0)], 2000, 0),
     "sum"),
    (lambda: propagate_monte_carlo(lambda x: x * 1e200, [UncertainQuantity(10.0, 1.0)], 2000, 0),
     "sum of squared deviations"),
    # kappa's scale -lambda/(8 pi h) is ~1e292 m^-1 for a 1e-300 m film
    (lambda: extinction_from_finesse(UncertainQuantity(F00, 60.0), UncertainQuantity(14160.0, 250.0),
                                     UncertainQuantity(1e-300, 1e-301), WAVELENGTH, 2000, 0),
     "sum of squared deviations"),
], ids=["sum", "squared_deviations", "extinction"])
def test_finite_samples_whose_sums_overflow_are_an_evaluation_error(call, overflowing):
    message = f"the {overflowing} of 2000 finite Monte-Carlo samples overflows"
    assert _outcome(call) == ((EvaluationError, message), [])


@pytest.mark.parametrize("f01s", [
    [UncertainQuantity(*FINESSE_TABLE[key]) for key in FINESSE_TABLE],
    # about 0.4% of the draws of each are <= 0: discarded, and the rest compacted
    [UncertainQuantity(1000.0, 380.0)] * 5,
], ids=["table", "discarding"])
def test_a_warm_new_seed_series_allocates_less_than_one_full_length_array(f01s):
    f00 = UncertainQuantity(F00, 60.0)
    h = UncertainQuantity(THICKNESS, 2e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        extinction_from_finesse(f00, f01s, h, WAVELENGTH, 100_000, seed=1)  # keeps the arrays
        tracemalloc.start()
        try:
            extinction_from_finesse(f00, f01s, h, WAVELENGTH, 100_000, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 8 * 100_000, peak


def test_extinction_series_of_one_is_a_list_of_one():
    f00 = UncertainQuantity(F00, 60.0)
    f01 = UncertainQuantity(14160.0, 250.0)
    h = UncertainQuantity(THICKNESS, 2e-9)
    single = extinction_from_finesse(f00, f01, h, WAVELENGTH, mc_samples=2000)
    # an UncertainQuantity is a tuple, but only a list is a series
    assert isinstance(single, UncertainQuantity)
    assert extinction_from_finesse(f00, [f01], h, WAVELENGTH, mc_samples=2000) == [single]
    with pytest.raises(ParameterError, match="finesse F01 must be positive, got -1.0"):
        extinction_from_finesse(f00, [f01, UncertainQuantity(-1.0, 0.0)], h, WAVELENGTH)


def test_extinction_non_physical_draws_fall_under_the_one_percent_policy():
    from cavitycharge.errors import EvaluationError

    # F01 = 500 +/- 250: about 2% of the draws are non-positive
    with pytest.raises(EvaluationError, match="non-finite"):
        extinction_from_finesse(
            UncertainQuantity(F00, 60.0),
            UncertainQuantity(500.0, 250.0),
            UncertainQuantity(THICKNESS, 2e-9),
            WAVELENGTH,
            mc_samples=10_000,
        )


def test_extinction_domain_error_for_invalid_reflectivities():
    from cavitycharge.errors import DomainError

    with pytest.raises(DomainError):
        extinction_from_reflectivities(1.5, 0.1, THICKNESS, WAVELENGTH)


def test_extinction_no_excess_loss_is_zero():
    kappa = extinction_from_finesse(
        UncertainQuantity(F00, 0.0),
        UncertainQuantity(F00, 0.0),
        UncertainQuantity(THICKNESS, 0.0),
        WAVELENGTH,
        mc_samples=1000,
    )
    assert kappa.value == pytest.approx(0.0, abs=1e-18)


def test_extinction_negative_with_warning_when_finesse_improves():
    with pytest.warns(NegativeExtinctionWarning):
        kappa = extinction_from_finesse(
            UncertainQuantity(F00, 0.0),
            UncertainQuantity(F00 * 1.05, 0.0),
            UncertainQuantity(THICKNESS, 0.0),
            WAVELENGTH,
            mc_samples=1000,
        )
    assert kappa.value < 0


def exact_kappa(f00, f01):
    return extinction_from_finesse(
        UncertainQuantity(f00, 0.0),
        UncertainQuantity(f01, 0.0),
        UncertainQuantity(THICKNESS, 0.0),
        WAVELENGTH,
        mc_samples=1000,
    ).value


def test_first_order_expansion_identity():
    # kappa ~ (lambda/(4h)) (1/F01 - 1/F00): within 0.1% once both
    # finesses clear ~4e3; still within 0.3% down to 1e3
    for f00 in (4.5e3, 2.334e4, 3e5):
        for ratio in (0.9, 0.7, 0.95):
            f01 = ratio * f00
            approx = first_order_kappa(f00, f01, THICKNESS, WAVELENGTH)
            assert approx == pytest.approx(exact_kappa(f00, f01), rel=1e-3)
    assert first_order_kappa(2e3, 1.5e3, THICKNESS, WAVELENGTH) == pytest.approx(
        exact_kappa(2e3, 1.5e3), rel=3e-3
    )


def test_first_order_expansion_error_scales_inversely_with_finesse():
    deviations = []
    for scale in (1.0, 10.0, 100.0):
        f00, f01 = 2e3 * scale, 1.5e3 * scale
        approx = first_order_kappa(f00, f01, THICKNESS, WAVELENGTH)
        deviations.append(abs(approx / exact_kappa(f00, f01) - 1.0))
    assert deviations[0] == pytest.approx(10.0 * deviations[1], rel=0.15)
    assert deviations[1] == pytest.approx(10.0 * deviations[2], rel=0.15)


def test_extinction_strictly_decreasing_in_f01():
    grid = np.linspace(14000.0, 23000.0, 12)
    values = [
        extinction_from_finesse(
            UncertainQuantity(F00, 0.0),
            UncertainQuantity(f, 0.0),
            UncertainQuantity(THICKNESS, 0.0),
            WAVELENGTH,
            mc_samples=1000,
        ).value
        for f in grid
    ]
    assert np.all(np.diff(values) < 0)


def test_excess_reflection_loss_values():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warnings expected here
        v69 = excess_reflection_loss(F00, 18400.0)
        v128 = excess_reflection_loss(F00, 19800.0)
    assert v69.value == pytest.approx(7.2e-5, rel=0.03)
    assert v128.value == pytest.approx(4.8e-5, rel=0.03)
    assert excess_reflection_loss(F00, F00).value == pytest.approx(0.0, abs=1e-18)


# -- resonant response -------------------------------------------------------


def test_impedance_matched_cavity_transmits_fully():
    m = MirrorState(0.99, 1.0 - 0.99**2)
    out = resonant_response(m, m)
    assert out["transmission"] == pytest.approx(1.0, rel=1e-12)
    assert out["reflection_dip"] == pytest.approx(0.0, abs=1e-12)


def test_vendor_transmission_case():
    r0 = r0_from_symmetric_finesse(F00).value
    m = MirrorState(r0, 1.18e-4)
    out = resonant_response(m, m)
    # all of 1-r^2 minus the vendor T is loss; T_c = (T/(T+L))^2
    expected = (1.18e-4 / (1.0 - r0**2)) ** 2
    assert out["transmission"] == pytest.approx(expected, rel=1e-9)
    assert 0.0 < out["transmission"] < 1.0


def test_perfect_back_mirror_blocks_transmission():
    front = MirrorState(0.9, 0.05)
    back = MirrorState(1.0 - 1e-12, 0.0)
    out = resonant_response(front, back)
    assert out["transmission"] == pytest.approx(0.0, abs=1e-12)


def test_mirror_state_validation():
    with pytest.raises(ParameterError):
        MirrorState(1.5, 0.0)
    with pytest.raises(ParameterError):
        MirrorState(0.9, 0.5)  # T above the 1-r^2 budget
