"""Cavity ring-down traces: synthesis, exponential fitting, finesse.

After the drive laser is extinguished, the power leaking from a two-mirror
cavity decays as

    V(t) = V0 * exp(-2 pi dnu t)

where dnu is the cavity linewidth (FWHM, in Hz). The decay time constant
relates as tau = 1/(2 pi dnu). Fitting that model to the photodetector
record gives the linewidth; together with the free spectral range
nu_FSR = c/(2 d) it yields the finesse F = nu_FSR / dnu.

The fitter seeds itself with a log-linear regression of the samples above
the noise floor, then refines V0 and dnu with damped Gauss-Newton
iterations. Parameter uncertainties come from the fit covariance
s^2 (J^T J)^-1 with s^2 = SSR/(n-2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FitError, ParameterError
from .quantities import CODATA, UncertainQuantity, as_quantity, propagate_linear

__all__ = [
    "RingdownTrace",
    "RingdownFit",
    "synthesize_trace",
    "fit_ringdown",
    "fit_ringdown_ensemble",
    "pool_linewidths",
    "finesse",
    "fsr_from_length",
    "load_trace_csv",
]

MIN_SAMPLES = 16

# fit control
_MAX_ITERATIONS = 100
_REL_TOL = 1e-10
_SEED_CLIP_FACTOR = 3.0   # drop samples below 3x noise floor before log seeding
_PEAK_TO_NOISE_MIN = 5.0


@dataclass(frozen=True)
class RingdownTrace:
    """Time-stamped photodetector samples of a cavity decay."""

    times: np.ndarray
    voltages: np.ndarray
    sample_rate: float = 0.0
    trigger_time: float = 0.0

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.voltages, dtype=float)
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
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "voltages", v)

    def __len__(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True)
class RingdownFit:
    """Result of an exponential ring-down fit."""

    v0: UncertainQuantity
    linewidth: UncertainQuantity       # FWHM linewidth dnu, Hz
    residual_rms: float
    iterations: int = 0

    def __post_init__(self) -> None:
        if self.linewidth.value <= 0:
            raise ParameterError("fitted linewidth must be positive")

    @property
    def decay_time(self) -> float:
        """1/e decay time tau = 1/(2 pi dnu) in seconds."""
        return 1.0 / (2.0 * math.pi * self.linewidth.value)


def synthesize_trace(
    v0: float,
    linewidth_hz: float,
    duration_s: float,
    sample_rate_hz: float,
    noise_sigma: float = 0.0,
    seed: int = 0,
    trigger_time: float = 0.0,
) -> RingdownTrace:
    """Generate a synthetic ring-down trace with additive Gaussian noise.

    Deterministic for a fixed seed; the t=0 sample equals v0 exactly when
    noise_sigma is zero.
    """
    if linewidth_hz <= 0:
        raise ParameterError(f"linewidth must be positive, got {linewidth_hz}")
    if duration_s <= 0 or sample_rate_hz <= 0:
        raise ParameterError("duration and sample rate must be positive")
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
    return RingdownTrace(t + trigger_time, v, sample_rate_hz, trigger_time)


def _noise_floor(trace: RingdownTrace) -> float:
    """Median |V| over the trailing tenth of the record."""
    n_tail = max(8, len(trace) // 10)
    return float(np.median(np.abs(trace.voltages[-n_tail:])))


def _log_linear_seed(trace: RingdownTrace, floor: float) -> tuple[float, float]:
    v = trace.voltages
    keep = v > _SEED_CLIP_FACTOR * floor
    if keep.sum() < 2:
        keep = v > 0
    if keep.sum() < 2:
        raise ParameterError("too few positive samples to seed the fit")
    t_sel = trace.times[keep]
    slope, intercept = np.polyfit(t_sel, np.log(v[keep]), 1)
    v0 = math.exp(intercept)
    lw = -slope / (2.0 * math.pi)
    if lw <= 0:
        lw = 1.0 / (2.0 * math.pi * (t_sel[-1] - t_sel[0]))
    return v0, lw


def _model(t: np.ndarray, v0: float, lw: float) -> np.ndarray:
    return v0 * np.exp(-2.0 * math.pi * lw * t)


def fit_ringdown(trace: RingdownTrace) -> RingdownFit:
    """Least-squares fit of V0*exp(-2 pi dnu t) to a trace.

    Raises FitError (carrying the last iterate) on non-convergence or a
    negative fitted linewidth.
    """
    floor = _noise_floor(trace)
    peak = float(np.max(trace.voltages))
    if peak <= _PEAK_TO_NOISE_MIN * floor:
        raise ParameterError(
            f"peak/noise = {peak / floor if floor else math.inf:.2f} is below "
            f"the minimum of {_PEAK_TO_NOISE_MIN}"
        )
    t = trace.times
    v = trace.voltages
    v0, lw = _log_linear_seed(trace, floor)

    ssr = float(np.sum((v - _model(t, v0, lw)) ** 2))
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        decay = np.exp(-2.0 * math.pi * lw * t)
        j_v0 = decay
        j_lw = -2.0 * math.pi * t * v0 * decay
        r = v - v0 * decay
        jtj = np.array(
            [
                [np.dot(j_v0, j_v0), np.dot(j_v0, j_lw)],
                [np.dot(j_lw, j_v0), np.dot(j_lw, j_lw)],
            ]
        )
        jtr = np.array([np.dot(j_v0, r), np.dot(j_lw, r)])
        try:
            step = np.linalg.solve(jtj, jtr)
        except np.linalg.LinAlgError as exc:
            raise FitError(f"singular normal equations: {exc}", (v0, lw)) from exc

        # backtracking damping: halve the step while it increases the SSR
        scale = 1.0
        for _ in range(40):
            cand = (v0 + scale * step[0], lw + scale * step[1])
            cand_ssr = float(np.sum((v - _model(t, *cand)) ** 2))
            if cand_ssr <= ssr or not math.isfinite(cand_ssr):
                if math.isfinite(cand_ssr):
                    break
            scale *= 0.5
        else:
            cand = (v0, lw)
            cand_ssr = ssr
        rel_change = max(
            abs(scale * step[0]) / max(abs(v0), 1e-300),
            abs(scale * step[1]) / max(abs(lw), 1e-300),
        )
        v0, lw = cand
        ssr = cand_ssr
        if rel_change < _REL_TOL:
            converged = True
            break
    if not converged:
        raise FitError(
            f"no convergence after {_MAX_ITERATIONS} iterations", (v0, lw)
        )
    if lw <= 0:
        raise FitError(f"fitted linewidth is non-positive: {lw}", (v0, lw))

    decay = np.exp(-2.0 * math.pi * lw * t)
    jac = np.column_stack([decay, -2.0 * math.pi * t * v0 * decay])
    dof = max(len(trace) - 2, 1)
    s2 = ssr / dof
    cov = s2 * np.linalg.inv(jac.T @ jac)
    sig_v0, sig_lw = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return RingdownFit(
        v0=UncertainQuantity(v0, float(sig_v0)),
        linewidth=UncertainQuantity(lw, float(sig_lw), "Hz"),
        residual_rms=math.sqrt(ssr / len(trace)),
        iterations=iterations,
    )


def fit_ringdown_ensemble(
    traces: Sequence[RingdownTrace], share_v0: bool = False
) -> tuple[UncertainQuantity, list[UncertainQuantity], float]:
    """Joint fit of several traces with a shared linewidth.

    By default each trace keeps its own amplitude (per-trace V0); with
    share_v0=True a single V0 is fitted across all traces. Returns
    (linewidth, amplitudes, residual_rms).
    """
    if not traces:
        raise ParameterError("need at least one trace")
    seeds = [fit_ringdown(tr) for tr in traces]
    lw = float(np.mean([f.linewidth.value for f in seeds]))
    if share_v0:
        v0s = np.array([float(np.mean([f.v0.value for f in seeds]))])
    else:
        v0s = np.array([f.v0.value for f in seeds])

    def residual_and_jac(lw: float, v0s: np.ndarray):
        res, rows = [], []
        n_amp = v0s.size
        for k, tr in enumerate(traces):
            a = v0s[0] if share_v0 else v0s[k]
            decay = np.exp(-2.0 * math.pi * lw * tr.times)
            res.append(tr.voltages - a * decay)
            block = np.zeros((len(tr), 1 + n_amp))
            block[:, 0] = -2.0 * math.pi * tr.times * a * decay
            block[:, 1 + (0 if share_v0 else k)] = decay
            rows.append(block)
        return np.concatenate(res), np.vstack(rows)

    r, jac = residual_and_jac(lw, v0s)
    ssr = float(r @ r)
    for _ in range(_MAX_ITERATIONS):
        step, *_ = np.linalg.lstsq(jac, r, rcond=None)
        scale = 1.0
        for _ in range(40):
            lw_c = lw + scale * step[0]
            v0_c = v0s + scale * step[1:]
            r_c, jac_c = residual_and_jac(lw_c, v0_c)
            ssr_c = float(r_c @ r_c)
            if ssr_c <= ssr and math.isfinite(ssr_c):
                break
            scale *= 0.5
        rel = abs(scale * step[0]) / max(abs(lw), 1e-300)
        lw, v0s, r, jac, ssr = lw_c, v0_c, r_c, jac_c, ssr_c
        if rel < _REL_TOL:
            break
    else:
        raise FitError("ensemble fit did not converge", (lw, v0s))
    if lw <= 0:
        raise FitError(f"fitted linewidth is non-positive: {lw}", (lw, v0s))
    dof = max(r.size - (1 + v0s.size), 1)
    cov = (ssr / dof) * np.linalg.inv(jac.T @ jac)
    sig = np.sqrt(np.maximum(np.diag(cov), 0.0))
    linewidth = UncertainQuantity(lw, float(sig[0]), "Hz")
    amplitudes = [
        UncertainQuantity(float(a), float(s)) for a, s in zip(v0s, sig[1:])
    ]
    return linewidth, amplitudes, math.sqrt(ssr / r.size)


def pool_linewidths(fits: Sequence[RingdownFit]) -> UncertainQuantity:
    """Inverse-variance weighted mean of per-trace linewidths."""
    if not fits:
        raise ParameterError("need at least one fit")
    values = np.array([f.linewidth.value for f in fits])
    sigmas = np.array([f.linewidth.sigma for f in fits])
    if np.any(sigmas <= 0):
        # degenerate (noise-free) fits: plain mean, no meaningful weighting
        return UncertainQuantity(float(np.mean(values)), 0.0, "Hz")
    w = 1.0 / sigmas**2
    return UncertainQuantity(
        float(np.sum(w * values) / np.sum(w)),
        float(1.0 / math.sqrt(np.sum(w))),
        "Hz",
    )


def finesse(linewidth, fsr) -> UncertainQuantity:
    """Finesse = FSR / linewidth with linear uncertainty propagation."""
    lw = as_quantity(linewidth, "Hz")
    nu = as_quantity(fsr, "Hz")
    if lw.value <= 0:
        raise ParameterError(f"linewidth must be positive, got {lw.value}")
    if nu.value <= 0:
        raise ParameterError(f"FSR must be positive, got {nu.value}")
    return propagate_linear(lambda d, f: f / d, [lw, nu])


def fsr_from_length(d_m: float) -> float:
    """Free spectral range c/(2d) of a two-mirror cavity of length d."""
    if d_m <= 0:
        raise ParameterError(f"cavity length must be positive, got {d_m}")
    return CODATA.c / (2.0 * d_m)


_CSV_COLUMNS = {
    "delimiter": ",", "comments": None, "usecols": (0, 1), "ndmin": 2, "encoding": "utf-8"
}


def _is_row(line: str) -> bool:
    """False for the blank, whitespace-only and '#' lines a trace CSV skips."""
    text = line.strip()
    return bool(text) and not text.startswith("#")


def load_trace_csv(path) -> RingdownTrace:
    """Read a UTF-8 CSV trace of (t_seconds, v_volts) rows.

    Lines end in \\n, \\r\\n or \\r. Blank and whitespace-only lines are
    skipped, and so are lines whose first non-blank character is '#'. The
    first remaining line is a header, and is skipped, when its first two
    fields are not both numbers; every later line is a data row. A row has
    at least two comma-separated fields, the time and the voltage, read as
    float() reads them (without '_' digit separators); whitespace around a
    field and any further columns are ignored. Anything else after the data
    on a row, a '#' comment included, is an error.

    Raises ParameterError for a malformed row, fewer than MIN_SAMPLES rows,
    or samples RingdownTrace rejects.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            rows = ((k, line) for k, line in enumerate(fh) if _is_row(line))
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
        else:
            try:
                data = np.loadtxt(path, skiprows=start, **_CSV_COLUMNS)
            except ValueError:
                # The C tokenizer skips empty lines only. Parse again without
                # the other lines the grammar skips, so only a bad row raises.
                with open(path, encoding="utf-8") as fh:
                    lines = [ln for ln in itertools.islice(fh, start, None) if _is_row(ln)]
                data = np.loadtxt(lines, **_CSV_COLUMNS)
    except ValueError as exc:
        raise ParameterError(f"{path}: {exc}") from None
    if len(data) < MIN_SAMPLES:
        raise ParameterError(
            f"{path}: {len(data)} samples, need at least {MIN_SAMPLES}"
        )
    # contiguous columns: strided views could change the fit's dot-product rounding
    t, v = data.T.copy()
    dt = float(np.median(np.diff(t)))
    return RingdownTrace(t, v, 1.0 / dt if dt > 0 else 0.0, float(t[0]))
