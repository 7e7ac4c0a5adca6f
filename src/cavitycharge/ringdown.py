"""Cavity ring-down traces: synthesis, exponential fitting, finesse.

After the drive laser is extinguished, the power leaking from a two-mirror
cavity decays as

    V(t) = V0 * exp(-2 pi dnu t)

where dnu is the cavity linewidth (FWHM, in Hz). The decay time constant
relates as tau = 1/(2 pi dnu). Fitting that model to the photodetector
record gives the linewidth; together with the free spectral range
nu_FSR = c/(2 d) it yields the finesse F = nu_FSR / dnu.

fit_ringdown fits one trace. V0 enters linearly, so for a trial dnu its
amplitude has a closed form and damped Gauss-Newton iterations run on dnu
alone (variable projection; Golub & Pereyra, SIAM J. Numer. Anal. 10, 413
(1973)). The seed is the log-linear slope above the trace's noise floor.
A step is halved while it raises the SSR or makes it non-finite, and the
fit stops at the current iterate once the remaining step is below the
tolerance. Time is measured from the trace's first sample, so absolute
timestamps cannot overflow the decay factor, and V0 is mapped back to t = 0
at the end. Uncertainties come from s^2 (J^T J)^-1 over dnu and V0 at the
final iterate, with s^2 = SSR/(n - 2). Several traces are combined by
pool_linewidths, the inverse-variance mean of their separate fits.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import stat
from typing import NamedTuple, Sequence

import numpy as np

from .errors import FitError, ParameterError
# finesse and fsr_from_length live in quantities, which the report reaches without
# this module (and NumPy); they are re-exported here
from .quantities import (
    UncertainQuantity, checked, finesse, fsr_from_length, nonnegative, positive,
)

__all__ = [
    "RingdownTrace",
    "RingdownFit",
    "synthesize_trace",
    "fit_ringdown",
    "pool_linewidths",
    "finesse",
    "fsr_from_length",
    "load_trace_csv",
]

MIN_SAMPLES = 16
# the largest trace file load_trace_csv reads: 256 MiB, about 7.5M samples at
# the 34 bytes per row of a 200k-sample trace's 6.8 MB
TRACE_MAX_BYTES = 2**28

# fit control
_MAX_ITERATIONS = 100
_MAX_HALVINGS = 40  # of one Gauss-Newton step
_REL_TOL = 1e-10
_SEED_CLIP_FACTOR = 3.0   # drop samples below 3x noise floor before log seeding
_PEAK_TO_NOISE_MIN = 5.0


@checked
class RingdownTrace(NamedTuple):
    """Time-stamped photodetector samples of a cavity decay; len() is the
    sample count."""

    times: np.ndarray
    voltages: np.ndarray

    def _checked(self):
        # copies, contiguous: the caller's arrays stay writeable, and a strided
        # column could change the fit's dot-product rounding
        t, v = (np.array(samples, dtype=float) for samples in self)
        if t.ndim != 1 or t.shape != v.shape:
            raise ParameterError("times and voltages must be 1-d arrays of equal length")
        if t.size < MIN_SAMPLES:
            raise ParameterError(f"need at least {MIN_SAMPLES} samples, got {t.size}")
        bad = ~(np.isfinite(t) & np.isfinite(v))
        if bad.any():
            raise ParameterError(
                f"{np.count_nonzero(bad)} non-finite samples, the first at index "
                f"{int(np.argmax(bad))}"
            )
        if not np.all(np.diff(t) > 0):
            raise ParameterError("timestamps must be strictly increasing")
        t.flags.writeable = False
        v.flags.writeable = False
        return t, v

    def __len__(self) -> int:
        return int(self.times.size)


@checked
class RingdownFit(NamedTuple):
    """Result of an exponential ring-down fit; linewidth is the FWHM dnu, Hz."""

    v0: UncertainQuantity
    linewidth: UncertainQuantity
    residual_rms: float
    iterations: int = 0

    def _checked(self):
        positive("fitted linewidth", self.linewidth)
        return self


def synthesize_trace(
    v0: float,
    linewidth_hz: float,
    duration_s: float,
    sample_rate_hz: float,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> RingdownTrace:
    """Generate a synthetic ring-down trace with additive Gaussian noise.

    Deterministic for a fixed seed; the t=0 sample equals v0 exactly when
    noise_sigma is zero.
    """
    positive("linewidth", linewidth_hz)
    positive("duration", duration_s)
    positive("sample rate", sample_rate_hz)
    nonnegative("noise_sigma", noise_sigma)
    n = int(round(duration_s * sample_rate_hz))
    if n < MIN_SAMPLES:
        raise ParameterError(
            f"duration*sample_rate = {n} is below the {MIN_SAMPLES}-sample minimum"
        )
    t = np.arange(n) / sample_rate_hz
    v = v0 * np.exp(-2.0 * math.pi * linewidth_hz * t)
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        v = v + rng.normal(0.0, noise_sigma, size=n)
    return RingdownTrace(t, v)


def _median(a: np.ndarray) -> float:
    """np.median of a non-empty, finite 1-d array, bit for bit.

    The same partition as numpy's median (its kth includes the last
    index, as numpy's does) and the mean of the middle one or two values,
    so ties, signed zeros included, resolve as in np.median. It skips the
    NaN check, which imports numpy.ma; RingdownTrace admits only finite
    samples.
    """
    h = a.size // 2
    odd = a.size % 2
    part = np.partition(a, [h, -1] if odd else [h - 1, h, -1])
    return float(np.mean(part[h - 1 + odd : h + 1]))


def _seed_linewidth(v: np.ndarray, t_rel: np.ndarray) -> float:
    """Log-linear slope of the samples above the noise floor, as a linewidth.
    The floor is the median magnitude of the trailing tenth (at least 8 samples)."""
    floor = _median(np.abs(v[-max(8, v.size // 10):]))
    peak = float(np.max(v))
    if peak <= 0:
        raise ParameterError(f"the trace peak {peak!r} is not positive")
    if peak <= _PEAK_TO_NOISE_MIN * floor:
        raise ParameterError(
            f"peak/noise = {peak / floor:.2f} is below the minimum of {_PEAK_TO_NOISE_MIN}"
        )
    keep = v > _SEED_CLIP_FACTOR * floor
    if keep.sum() < 2:
        keep = v > 0
    if keep.sum() < 2:
        raise ParameterError("too few positive samples to seed the fit")
    t_sel = t_rel[keep]
    t_c = t_sel - t_sel.mean()  # least-squares slope of log V against t
    spread = float(t_c @ t_c)
    if not spread > 0:
        raise ParameterError(
            "the sample times above the noise floor have no resolvable spread "
            f"(sum of squared deviations {spread!r} s^2)"
        )
    lw = -float(t_c @ np.log(v[keep])) / spread / (2.0 * math.pi)
    if lw <= 0:
        lw = 1.0 / (2.0 * math.pi * (t_sel[-1] - t_sel[0]))
    if not math.isfinite(lw):
        raise ParameterError(f"seed linewidth {lw!r} Hz is not finite")
    return lw


def fit_ringdown(trace: RingdownTrace) -> RingdownFit:
    """Least-squares fit of V0*exp(-2 pi dnu t) to a trace.

    For a trial dnu the amplitude is a = (d.v)/(d.d), with
    d = exp(-2 pi dnu (t - t_ref)) and t_ref the first sample. a is V0 at
    t_ref; it is mapped back to t = 0 once dnu has converged.

    A step is halved while it raises the SSR or makes it non-finite, at most
    _MAX_HALVINGS times. Once the remaining step is below _REL_TOL relative,
    or the halvings run out, the current iterate is final, and the
    covariance reuses the J^T J and SSR its iteration computed.

    Raises ParameterError for a trace too noisy to seed or whose covariance
    or V0 at t = 0 overflows, and FitError on non-convergence or a
    non-positive fitted linewidth.
    """
    t_ref = float(trace.times[0])
    t_rel = trace.times - t_ref
    v = trace.voltages
    lw = _seed_linewidth(v, t_rel)
    x = -2.0 * math.pi * t_rel  # d = exp(dnu x), u = dd/d(dnu) = x d

    def project(lw: float):
        # non-finite values mark a rejected trial step through the SSR
        with np.errstate(all="ignore"):
            d = np.exp(lw * x)
            dd = d @ d
            a = (d @ v) / dd
            r = v - a * d
            return d, dd, a, r, float(r @ r)

    state = project(lw)
    for iterations in range(1, _MAX_ITERATIONS + 1):
        d, dd, a, r, ssr = state
        # r is orthogonal to d, so J.r loses the da/d(dnu) term
        u = x * d
        ud, uu = u @ d, u @ u
        da = (u @ v - 2.0 * a * ud) / dd
        jr = -float(a * (u @ r))
        jj = float(a**2 * uu + 2.0 * a * da * ud + da**2 * dd)
        if not jj > 0:
            raise FitError(f"singular normal equation: J.J = {jj}")
        step = -jr / jj
        tol = _REL_TOL * max(abs(lw), 1e-300)
        halvings = 0
        while abs(step) >= tol and halvings < _MAX_HALVINGS:
            trial = project(lw + step)
            if trial[-1] <= ssr and math.isfinite(trial[-1]):
                break
            step, halvings = 0.5 * step, halvings + 1
        else:
            break  # converged: the step is below the tolerance, or no halving helps
        lw, state = lw + step, trial
    else:
        raise FitError(f"no convergence after {_MAX_ITERATIONS} iterations")
    if lw <= 0:
        raise FitError(f"fitted linewidth is non-positive: {lw}")

    cross = a * ud  # J^T J at the final iterate, from its last iteration
    jtj = np.array([[a**2 * uu, cross], [cross, dd]])
    with np.errstate(over="ignore"):
        cov = ssr / (x.size - 2) * np.linalg.inv(jtj)
    if not np.all(np.isfinite(cov)):
        raise ParameterError(
            f"the fit covariance s^2 (J^T J)^-1 overflows: J^T J is too near "
            f"singular to invert (its linewidth entry is {jtj[0, 0]:.3g}; the "
            f"samples span {t_rel[-1]:g} s)"
        )
    # V0 = a g with g = exp(2 pi dnu t_ref). By the delta method its sigma is
    # g sqrt(w), w = k^2 var(dnu) + 2 k cov(dnu, a) + var(a) with
    # k = 2 pi t_ref a, so it overflows only where V0 (nearly) does.
    k = 2.0 * math.pi * t_ref * a
    w = k**2 * cov[0, 0] + 2.0 * k * cov[0, 1] + cov[1, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.exp(2.0 * math.pi * lw * t_ref)
        v0 = a * g
        sig = g * np.sqrt(max(w, 0.0))
    if not (np.isfinite(v0) and np.isfinite(sig)):
        raise ParameterError(
            f"V0 at t = 0 overflows, or its sigma does: a first sample is at "
            f"{t_ref:g} s, {2.0 * math.pi * lw * t_ref:.4g} decay times after t = 0"
        )
    return RingdownFit(
        UncertainQuantity(float(v0), float(sig)),
        UncertainQuantity(lw, math.sqrt(max(cov[0, 0], 0.0))),
        math.sqrt(ssr / x.size),
        iterations,
    )


def pool_linewidths(fits: Sequence[RingdownFit]) -> UncertainQuantity:
    """Inverse-variance weighted mean of per-trace linewidths."""
    if not fits:
        raise ParameterError("need at least one fit")
    values = np.array([f.linewidth.value for f in fits])
    sigmas = np.array([f.linewidth.sigma for f in fits])
    if np.any(sigmas <= 0):
        # degenerate (noise-free) fits: plain mean, no meaningful weighting
        return UncertainQuantity(float(np.mean(values)), 0.0)
    w = 1.0 / sigmas**2
    return UncertainQuantity(
        float(np.sum(w * values) / np.sum(w)),
        float(1.0 / math.sqrt(np.sum(w))),
    )


_CSV_COLUMNS = {
    "delimiter": ",", "comments": None, "usecols": (0, 1), "ndmin": 2, "encoding": "utf-8-sig"
}


def _is_row(line: str) -> bool:
    """False for the blank, whitespace-only and '#' lines a trace CSV skips."""
    text = line.strip()
    return bool(text) and not text.startswith("#")


def _loadtxt_rows(source, start: int):
    """The rows of the text source from line index start on, read again from
    its beginning, without the lines the grammar skips: np.loadtxt's C
    tokenizer skips empty lines only, so only a bad row raises."""
    source.seek(0)
    return np.loadtxt([ln for ln in itertools.islice(source, start, None) if _is_row(ln)],
                      **_CSV_COLUMNS)


def load_trace_csv(path) -> RingdownTrace:
    """Read a UTF-8 CSV trace of (t_seconds, v_volts) rows; a leading
    byte-order mark is dropped.

    Lines end in \\n, \\r\\n or \\r. Blank and whitespace-only lines are
    skipped, and so are lines whose first non-blank character is '#'. The
    first remaining line is a header, and is skipped, when its first two
    fields are not both numbers; every later line is a data row. A row has
    at least two comma-separated fields, the time and the voltage, read as
    float() reads them (without '_' digit separators); whitespace around a
    field and any further columns are ignored. Anything else after the data
    on a row, a '#' comment included, is an error.

    The path is opened once. Its text source is the open file if it is a
    regular file; any other input (a pipe, a FIFO, /dev/stdin) is read once,
    at most one byte past TRACE_MAX_BYTES, into memory. The header probe
    reads that source, and the parse that skips blank and '#' lines reads it
    again from its start. A regular file is first parsed by np.loadtxt from
    its path, which np.loadtxt reads in C and an open file line by line in
    Python: on a 200k-sample trace (2-vCPU VM, median of 15 alternating
    runs) the path took 132 ms, the open file 149 ms and memory 177 ms.

    Raises ParameterError, naming the file, for a file larger than
    TRACE_MAX_BYTES (before reading it; a stream after reading the cap and
    one byte), a malformed row, fewer than MIN_SAMPLES rows, or samples
    RingdownTrace rejects.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            status = os.fstat(fh.fileno())
            if stat.S_ISREG(status.st_mode):
                size, source = status.st_size, fh
            else:  # a second open would not see the bytes read here
                blob = fh.buffer.read(TRACE_MAX_BYTES + 1)
                size, source = len(blob), io.StringIO(blob.decode("utf-8-sig"), newline=None)
            if size > TRACE_MAX_BYTES:
                raise ParameterError(
                    f"{size} bytes, more than the {TRACE_MAX_BYTES}-byte cap on a trace file"
                )
            rows = ((k, line) for k, line in enumerate(source) if _is_row(line))
            start, line = next(rows, (-1, ""))
            fields = line.split(",")
            if start >= 0 and len(fields) < 2:
                raise ValueError("expected two comma-separated columns")
            try:
                float(fields[0]), float(fields[1])
            except ValueError:  # a header, or no line at all
                start, line = next(rows, (-1, ""))
            if start < 0:
                data = np.empty((0, 2))
            elif source is fh:
                try:
                    data = np.loadtxt(path, skiprows=start, **_CSV_COLUMNS)
                except ValueError:  # a blank or '#' line among the rows, or a bad row
                    data = _loadtxt_rows(source, start)
            else:
                data = _loadtxt_rows(source, start)
        if len(data) < MIN_SAMPLES:
            raise ParameterError(f"{len(data)} samples, need at least {MIN_SAMPLES}")
        t, v = data.T  # RingdownTrace copies each column once
        return RingdownTrace(t, v)
    except ValueError as exc:  # ParameterError included
        raise ParameterError(f"{path}: {exc}") from None
