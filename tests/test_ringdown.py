import math
import os
import re
import struct
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavitycharge import ringdown
from cavitycharge.errors import ParameterError
from cavitycharge.quantities import CODATA, UncertainQuantity
from cavitycharge.ringdown import (
    RingdownTrace,
    finesse,
    fit_ringdown,
    fsr_from_length,
    load_trace_csv,
    pool_linewidths,
    synthesize_trace,
)

TRUE_LINEWIDTH = 523e3
TAU = 1.0 / (2.0 * math.pi * TRUE_LINEWIDTH)


def make_trace(noise=0.0, seed=0, n=10_000, decay_times=5.0):
    duration = decay_times * TAU
    return synthesize_trace(1.0, TRUE_LINEWIDTH, duration, n / duration, noise, seed)


# -- synthesis ---------------------------------------------------------------


def test_noiseless_trace_matches_model_exactly():
    tr = make_trace()
    expected = 1.0 * np.exp(-2.0 * math.pi * TRUE_LINEWIDTH * tr.times)
    assert np.array_equal(tr.voltages, expected)


def test_first_sample_equals_v0():
    tr = synthesize_trace(2.5, 1e5, 1e-4, 1e6, 0.0, 0)
    assert tr.voltages[0] == 2.5
    assert tr.times[0] == 0.0


def test_seed_determinism():
    a = make_trace(noise=0.05, seed=9)
    b = make_trace(noise=0.05, seed=9)
    c = make_trace(noise=0.05, seed=10)
    assert np.array_equal(a.voltages, b.voltages)
    assert not np.array_equal(a.voltages, c.voltages)


def test_synthesis_validation():
    with pytest.raises(ParameterError):
        synthesize_trace(1.0, -1.0, 1e-4, 1e6, 0.0, 0)
    with pytest.raises(ParameterError):
        synthesize_trace(1.0, 1e5, -1e-4, 1e6, 0.0, 0)
    with pytest.raises(ParameterError):
        synthesize_trace(1.0, 1e5, 1e-6, 1e6, 0.0, 0)  # too few samples


def test_trace_invariants():
    with pytest.raises(ParameterError):
        RingdownTrace(np.array([0.0, 1.0]), np.array([1.0, 0.5]))  # too short
    t = np.linspace(0, 1, 20)
    t[5] = t[4]  # not strictly increasing
    with pytest.raises(ParameterError):
        RingdownTrace(t, np.ones(20))


def test_trace_rejects_non_finite_samples():
    t = np.arange(20) * 1e-9
    v = np.exp(-t / 5e-9)
    v[[7, 12]] = [np.nan, np.inf]
    with pytest.raises(ParameterError, match="2 non-finite samples, the first at index 7"):
        RingdownTrace(t, v)
    t[3] = -np.inf
    with pytest.raises(ParameterError, match="3 non-finite samples, the first at index 3"):
        RingdownTrace(t, v)


def test_trace_copies_and_leaves_the_callers_arrays_writeable():
    t = np.arange(20) * 1e-9
    v = np.exp(-t / 5e-9)
    tr = RingdownTrace(t, v)
    assert tr.times is not t and tr.voltages is not v
    t[0] = 1.0  # the caller's arrays stay theirs
    v[0] = 2.0
    assert tr.times[0] == 0.0 and tr.voltages[0] == 1.0
    for samples in tr:
        assert not samples.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            samples[0] = 3.0


# -- fitting -----------------------------------------------------------------


def test_noiseless_recovery_is_exact():
    fit = fit_ringdown(make_trace())
    assert fit.linewidth.value == pytest.approx(TRUE_LINEWIDTH, rel=1e-6)
    assert fit.v0.value == pytest.approx(1.0, rel=1e-6)
    assert fit.linewidth.sigma < 1e-3
    assert fit.residual_rms < 1e-12


def test_noisy_fits_track_truth_over_many_seeds():
    # 1% noise, 1e4 samples: every seeded fit lands within 2% and 3 sigma
    pulls = []
    for seed in range(100):
        fit = fit_ringdown(make_trace(noise=0.01, seed=seed))
        rel = (fit.linewidth.value - TRUE_LINEWIDTH) / TRUE_LINEWIDTH
        pulls.append((fit.linewidth.value - TRUE_LINEWIDTH) / fit.linewidth.sigma)
        assert abs(rel) < 0.02
        assert abs(pulls[-1]) < 3.0
    pulls = np.asarray(pulls)
    assert 0.7 < pulls.std(ddof=1) < 1.3


def _late_start_base():
    # at 100 kHz, 1 ms is ~628 decay times: V0 at t = 0 is ~1e272, still finite
    tau = 1.0 / (2.0 * math.pi * 1e5)
    return synthesize_trace(1.0, 1e5, 8 * tau, 256 / (8 * tau), 0.01, 2)


@pytest.mark.parametrize(
    "base, t0",
    [(make_trace, 3.7e-7), (_late_start_base, 1e-3)],
    ids=["523kHz-370ns", "100kHz-1ms"],
)
def test_fit_shift_invariance(base, t0):
    base = base()
    shifted = RingdownTrace(base.times + t0, base.voltages)
    f0 = fit_ringdown(base)
    f1 = fit_ringdown(shifted)
    assert f1.linewidth.value == pytest.approx(f0.linewidth.value, rel=1e-9)
    growth = math.exp(2.0 * math.pi * f0.linewidth.value * t0)
    assert f1.v0.value == pytest.approx(f0.v0.value * growth, rel=1e-6)
    assert math.isfinite(f1.v0.sigma)


def test_fit_amplitude_scale_invariance():
    base = make_trace(noise=0.005, seed=4)
    scaled = RingdownTrace(base.times, 7.0 * base.voltages)
    f0 = fit_ringdown(base)
    f1 = fit_ringdown(scaled)
    assert f1.linewidth.value == pytest.approx(f0.linewidth.value, rel=1e-9)
    assert f1.v0.value == pytest.approx(7.0 * f0.v0.value, rel=1e-9)


def test_fit_trace_starting_1ms_after_zero_is_parameter_error():
    # 1 ms is ~3300 decay times: V0 at t = 0 is not a finite float
    tr = synthesize_trace(1.0, TRUE_LINEWIDTH, 8 * TAU, 20_000 / (8 * TAU), 0.01, 3)
    tr = RingdownTrace(tr.times + 1e-3, tr.voltages)
    with pytest.raises(ParameterError, match="V0 at t = 0 overflows"):
        fit_ringdown(tr)


def test_fit_trace_with_1e_300_s_sample_spacing_is_parameter_error():
    # the centred times' sum of squares underflows to 0 in the log-linear seed
    k = np.arange(256)
    tr = RingdownTrace(k * 1e-300, np.exp(-k / 40.0))
    with pytest.raises(ParameterError, match="no resolvable spread"):
        fit_ringdown(tr)


@pytest.mark.parametrize("step_s", [1e-157, 1e-160, 1e-163])
def test_fit_trace_whose_covariance_overflows_names_the_covariance(step_s):
    # the linewidth entry of J^T J is ~1e-309 to 1e-321, so (J^T J)^-1 overflows;
    # V0 at t = 0 is 1.0 and fine
    k = np.arange(256)
    tr = RingdownTrace(k * step_s, np.exp(-k / 40.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=r"covariance s\^2 \(J\^T J\)\^-1 overflows"):
            fit_ringdown(tr)


@pytest.mark.parametrize("seed", [17, 18])
def test_the_fit_stops_on_a_step_below_the_tolerance(monkeypatch, seed):
    # seed 17's last step is below the tolerance, and halving it until the
    # SSR stopped rising at rounding level cost 18 more projections (23 in all);
    # seed 18's last step is above it, and halving it below the tolerance
    # until the SSR stopped rising cost 9 more (15 in all)
    duration = 8.0 * TAU
    trace = synthesize_trace(1.0, TRUE_LINEWIDTH, duration, 200_000 / duration, 0.01, seed)
    exp, projections = np.exp, []

    def counting_exp(x, *args, **kwargs):
        projections.extend([x.size] if np.size(x) == len(trace) else [])
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    fit = fit_ringdown(trace)
    assert fit.iterations == 5
    # the seed's projection, then one per iteration that takes its step
    assert len(projections) <= fit.iterations + 1, len(projections)


def test_fit_rejects_pure_noise():
    rng = np.random.default_rng(0)
    t = np.arange(1000) * 1e-9
    with pytest.raises(ParameterError):
        fit_ringdown(RingdownTrace(t, rng.normal(0.0, 1.0, 1000)))


def test_pooling_inverse_variance():
    fits = [fit_ringdown(make_trace(noise=0.02, seed=s, n=2000)) for s in range(6)]
    pooled = pool_linewidths(fits)
    sigmas = np.array([f.linewidth.sigma for f in fits])
    assert pooled.sigma == pytest.approx(1.0 / math.sqrt(np.sum(1.0 / sigmas**2)))
    assert pooled.sigma < sigmas.min()
    assert pooled.value == pytest.approx(TRUE_LINEWIDTH, rel=0.02)


# -- finesse and FSR ---------------------------------------------------------


def test_finesse_reproduces_reference_numbers():
    f = finesse(UncertainQuantity(523e3, 9e3), UncertainQuantity(7.410e9, 0.013e9))
    assert f.value == pytest.approx(14168.26, abs=0.5)
    assert f.sigma == pytest.approx(245.1, abs=0.5)
    assert abs(f.value - 14160.0) < 250.0


def test_finesse_trivial_cases():
    one = finesse(UncertainQuantity(5e5, 0), UncertainQuantity(5e5, 0))
    assert one.value == pytest.approx(1.0, rel=1e-12)
    assert one.sigma == 0.0
    with pytest.raises(ParameterError):
        finesse(UncertainQuantity(0.0, 0.0), UncertainQuantity(1e9, 0))


def test_fsr_from_length():
    fsr = fsr_from_length(20.2e-3)
    assert fsr == pytest.approx(7.4206e9, rel=1e-4)
    assert abs(fsr - 7.410e9) / 7.410e9 < 0.002
    assert fsr_from_length(CODATA.c / 2.0) == pytest.approx(1.0, rel=1e-12)
    assert fsr_from_length(0.02) == pytest.approx(2.0 * fsr_from_length(0.04), rel=1e-12)
    with pytest.raises(ParameterError):
        fsr_from_length(0.0)


# -- file ingestion ----------------------------------------------------------


def test_trace_csv_round_trip(tmp_path):
    tr = make_trace(noise=0.01, seed=5, n=64)
    path = tmp_path / "trace.csv"
    lines = ["# synthetic decay", "t_seconds,v_volts"]
    lines += [f"{float(t)!r},{float(v)!r}" for t, v in zip(tr.times, tr.voltages)]
    path.write_text("\n".join(lines) + "\n")
    loaded = load_trace_csv(path)
    assert np.array_equal(loaded.times, tr.times)
    assert np.array_equal(loaded.voltages, tr.voltages)
    # each column is one contiguous array of its own, not a view of the table
    for column in loaded:
        assert column.flags.c_contiguous and column.flags.owndata


def test_trace_csv_headerless(tmp_path):
    path = tmp_path / "plain.csv"
    rows = [f"{k * 1e-9},{math.exp(-k / 8)}" for k in range(32)]
    path.write_text("\n".join(rows))
    assert len(load_trace_csv(path)) == 32


def test_trace_csv_rejects_short_or_empty(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ParameterError):
        load_trace_csv(empty)
    short = tmp_path / "short.csv"
    short.write_text("t,v\n0,1\n1e-9,0.9\n")
    with pytest.raises(ParameterError):
        load_trace_csv(short)


# Loader contract: each case is a list of CSV lines (joined with "\n" unless
# the case sets its own text) and either the expected rows of (t, v) fields
# or ParameterError. Expected values are float() of each field, bit for bit.
_T = [repr(k * 1e-9) for k in range(20)]
_V = ["1.0000000000000002", "5e-324", "-0.0", ".5", "5.", "+1", "2.5E+3", "0.1",
      "1e308", "123456789012345678901234567890", "0.3", "-7.25e-12", "1", "2",
      "3", "4", "5", "6", "7", "8"]
_ROWS = list(zip(_T, _V))
_DATA = [f"{t},{v}" for t, v in _ROWS]

_LOADER_CASES = {
    "header": (["t_seconds,v_volts", *_DATA], _ROWS),
    "headerless": (_DATA, _ROWS),
    "comment_lines": (
        ["# scope export", "t,v", "#units: s,V", *_DATA[:7], "# mid", *_DATA[7:], "#end"],
        _ROWS,
    ),
    "indented_comment_lines": (
        ["   # lead", "t,v", *_DATA[:5], "\t# tab", "  #x", *_DATA[5:], "    # tail"],
        _ROWS,
    ),
    "blank_and_whitespace_lines": (
        ["", "   ", "t,v", "", *_DATA[:9], "\t \t", "", "  ", *_DATA[9:], "", " "],
        _ROWS,
    ),
    "crlf": ("\r\n".join(["t,v", *_DATA]) + "\r\n", _ROWS),
    # a UTF-8 byte-order mark, as some editors save it, is not part of a row
    "byte_order_mark_header": ("\ufeff" + "\n".join(["t,v", *_DATA]) + "\n", _ROWS),
    "byte_order_mark_headerless": ("\ufeff" + "\n".join(_DATA) + "\n", _ROWS),
    # the parse that skips the comment reads the file again from its start
    "byte_order_mark_comment_lines": (
        "\ufeff" + "\n".join([*_DATA[:3], "# mid", *_DATA[3:]]) + "\n", _ROWS
    ),
    "padded_fields": (
        [" t , v ", *[f"  {t} ,\t{v}  " for t, v in _ROWS]],
        _ROWS,
    ),
    "three_columns": (
        ["t,v,flag", *[f"{t},{v},{k if k % 2 else 'x'}" for k, (t, v) in enumerate(_ROWS)]],
        _ROWS,
    ),
    "one_column_row": (["t,v", *_DATA[:17], "5", *_DATA[17:]], ParameterError),
    "unparsable_row_after_data": (["t,v", *_DATA[:17], "2e-8,abc"], ParameterError),
    "second_header": (["t,v", "t,v", *_DATA], ParameterError),
    "trailing_comment_on_data_row": (
        ["t,v", *_DATA[:3], f"{_DATA[3]} # note", *_DATA[4:]],
        ParameterError,
    ),
    "empty_file": ("", ParameterError),
    "header_and_comments_only": (["# only", "t,v", "# nothing"], ParameterError),
    "fewer_than_16_samples": (["t,v", *_DATA[:15]], ParameterError),
    "nan_sample": (["t,v", *_DATA[:4], f"{_T[4]},nan", *_DATA[5:]], ParameterError),
}


def _load_piped(data: bytes):
    """load_trace_csv of data written to a pipe, read as /dev/fd/N."""
    read, write = os.pipe()
    writer = threading.Thread(target=lambda: (os.write(write, data), os.close(write)))
    writer.start()
    try:
        return load_trace_csv(f"/dev/fd/{read}")
    finally:
        writer.join()
        os.close(read)


@pytest.mark.parametrize("case", sorted(_LOADER_CASES))
def test_trace_csv_loader_contract(tmp_path, case):
    # from a file, and from a pipe: a stream shares the header probe and the
    # parser of a file's fallback, so it must load the same arrays or refuse alike
    lines, expected = _LOADER_CASES[case]
    text = lines if isinstance(lines, str) else "\n".join(lines) + "\n"
    path = tmp_path / f"{case}.csv"
    path.write_bytes(text.encode("utf-8"))
    loads = (lambda: load_trace_csv(path), lambda: _load_piped(path.read_bytes()))
    if expected is ParameterError:
        refusals = []
        for load in loads:
            with pytest.raises(ParameterError) as refused:
                load()
            refusals.append(str(refused.value).partition(": ")[2])  # after the path
        assert refusals[0] == refusals[1]
        return
    want_t = np.array([float(t) for t, _ in expected])
    want_v = np.array([float(v) for _, v in expected])
    for load in loads:
        trace = load()
        assert trace.times.tobytes() == want_t.tobytes()
        assert trace.voltages.tobytes() == want_v.tobytes()


def test_trace_csv_repeated_timestamps_is_parameter_error(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("t,v\n" + "".join(f"1e-9,{k}\n" for k in range(20)))
    with pytest.raises(ParameterError, match="strictly increasing"):
        load_trace_csv(path)


def test_trace_csv_not_utf8_is_parameter_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"t,v\n" + b"".join(b"%d,1\n" % k for k in range(20)) + b"9\xb5s,1\n")
    with pytest.raises(ParameterError, match="utf-8"):
        load_trace_csv(path)


def test_trace_csv_one_byte_over_the_size_cap_is_refused_before_reading(tmp_path):
    # sparse: the file takes no disk space, and the loader must not read it
    path = tmp_path / "huge.csv"
    path.write_text("t,v\n" + "".join(f"{k}e-9,{0.9**k!r}\n" for k in range(20)))
    os.truncate(path, ringdown.TRACE_MAX_BYTES + 1)
    message = f"{path}: {ringdown.TRACE_MAX_BYTES + 1} bytes, more than the " \
              f"{ringdown.TRACE_MAX_BYTES}-byte cap on a trace file"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        load_trace_csv(path)


def test_trace_csv_at_the_size_cap_is_read(tmp_path, monkeypatch):
    path = tmp_path / "trace.csv"
    path.write_text("t,v\n" + "".join(f"{k}e-9,{0.9**k!r}\n" for k in range(20)))
    monkeypatch.setattr(ringdown, "TRACE_MAX_BYTES", path.stat().st_size)
    assert len(load_trace_csv(path)) == 20
    with path.open("a") as fh:
        fh.write("\n")
    with pytest.raises(ParameterError, match="-byte cap on a trace file"):
        load_trace_csv(path)


def test_trace_csv_fallback_reads_the_file_it_opened(tmp_path, monkeypatch):
    # np.loadtxt(path) refuses the comment line, and the parse that skips it
    # reads the open file again from its start
    lines, expected = _LOADER_CASES["comment_lines"]
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines) + "\n")
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(args)
        return open(*args, **kwargs)

    monkeypatch.setattr(ringdown, "open", recording_open, raising=False)
    assert len(load_trace_csv(path)) == len(expected)
    assert opened == [(path,)]


def test_trace_csv_from_a_pipe_equals_the_file(tmp_path):
    # more than one 8 KB buffer, with a header, a comment and \r\n endings
    path = tmp_path / "trace.csv"
    path.write_bytes(("t,v\r\n# a comment\r\n" + "".join(
        f"{k}e-9,{0.999**k!r}\r\n" for k in range(2000))).encode())
    piped = _load_piped(path.read_bytes())
    expected = load_trace_csv(path)
    assert np.array_equal(piped.times, expected.times)
    assert np.array_equal(piped.voltages, expected.voltages)


# -- median without numpy.ma --------------------------------------------------

_MEDIAN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(
        lambda exponent, sign: sign * 10.0**exponent,
        st.floats(-300.0, 300.0),
        st.sampled_from([1.0, -1.0]),
    ),
)


@settings(max_examples=200)
@given(
    size=st.one_of(st.integers(1, 200), st.just(200_000)),
    pool=st.lists(_MEDIAN_VALUES, min_size=1, max_size=8),
    tie_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_median_equals_np_median_bit_for_bit(size, pool, tie_share, seed):
    # ties from a small pool (with +0.0 and -0.0), the rest log-uniform in
    # magnitude from 1e-300 to 1e300, either sign
    rng = np.random.default_rng(seed)
    spread = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300.0, 300.0, size)
    a = np.where(rng.random(size) < tie_share, rng.choice(np.array(pool), size), spread)
    before = a.copy()
    got, want = ringdown._median(a), float(np.median(a))
    assert struct.pack("<d", got) == struct.pack("<d", want)
    assert np.array_equal(a, before)
