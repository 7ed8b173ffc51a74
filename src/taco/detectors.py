"""Score procedures for descriptive time-series classes.

Each ``score_*`` function turns a min-max-normalized signal into one raw
real-valued score for a class family (trend, constancy, curvature, ...).
Scores are designed so a single threshold separates the paired classes:
e.g. strong positive trend -> Rising, strong negative -> Falling.

All procedures operate on the normalized values and report per-point means,
so scores are comparable across series lengths and invariant under positive
affine maps of the raw signal.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import Degenerate, InvalidArgument, TooShort
from .signal import (
    MIN_SERIES_LEN,
    NormalizedSeries,
    autocorrelation,
    median_filter,
    moving_average,
    polyfit,
    segment,
    signal_values,
)

#: Sentinel for "no period found": tiling cannot explain the signal at all,
#: so the periodicity gap is driven to +inf and the Aperiodic rule fires.
NO_PERIOD = math.inf


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass(frozen=True)
class DetectorParams:
    """Window sizes, segment counts and constants shared by the detectors.

    Window parameters are fractions of the series length so the defaults
    work for both raw 300-point windows and 2048-point resampled signals.
    The effective segment count adapts downward on short series so every
    procedure keeps at least 2 samples per segment down to the minimum
    series length.
    """

    k_segments: int = 10
    ma_window_frac: float = 0.02
    median_window_frac: float = 0.05
    spike_sigma: float = 3.0
    symmetry_pad_step_frac: float = 1.0 / 32.0
    step_kernel_fracs: tuple = (0.125, 0.25, 0.5)

    def __post_init__(self):
        k = self.k_segments
        if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 2:
            raise InvalidArgument(f"k_segments must be an integer >= 2, got {k!r}")
        sigma = self.spike_sigma
        if not _is_real(sigma) or not 0.0 < sigma <= sys.float_info.max:
            raise InvalidArgument(f"spike_sigma must be a finite number > 0, got {sigma!r}")
        fracs = self.step_kernel_fracs
        if not isinstance(fracs, (list, tuple)) or not fracs:
            raise InvalidArgument(f"step_kernel_fracs must be a non-empty list, got {fracs!r}")
        object.__setattr__(self, "step_kernel_fracs", tuple(fracs))
        named = [(name, getattr(self, name)) for name in
                 ("ma_window_frac", "median_window_frac", "symmetry_pad_step_frac")]
        for name, frac in named + [("step_kernel_fracs entries", f) for f in fracs]:
            if not _is_real(frac) or not 0.0 < frac <= 1.0:
                raise InvalidArgument(f"{name} must be a number in (0, 1], got {frac!r}")

    def effective_segments(self, n: int) -> int:
        """Segment count for an n-sample sequence, keeping >= 2 samples each."""
        return max(2, min(self.k_segments, n // 2))

    def ma_window(self, n: int) -> int:
        return min(n, max(3, int(round(self.ma_window_frac * n))))

    def median_window(self, n: int) -> int:
        w = min(n, max(3, int(round(self.median_window_frac * n))))
        if w % 2 == 0:
            w = w + 1 if w < n else w - 1
        return w

    def pad_step(self, n: int) -> int:
        return max(1, int(round(self.symmetry_pad_step_frac * n)))

    def kernel_lengths(self, n: int) -> list[int]:
        """Even step-kernel lengths derived from the configured fractions."""
        lengths = set()
        for frac in self.step_kernel_fracs:
            length = int(frac * n)
            length -= length % 2
            length = max(2, min(length, n - n % 2))
            lengths.add(length)
        return sorted(lengths)

    def to_json_dict(self) -> dict:
        return {
            "k_segments": self.k_segments,
            "ma_window_frac": self.ma_window_frac,
            "median_window_frac": self.median_window_frac,
            "spike_sigma": self.spike_sigma,
            "symmetry_pad_step_frac": self.symmetry_pad_step_frac,
            "step_kernel_fracs": list(self.step_kernel_fracs),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DetectorParams":
        if not isinstance(data, dict):
            raise InvalidArgument("detector parameters must be a JSON object")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise InvalidArgument(f"unknown detector parameters: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class ScoreVector:
    """One raw score per detector family.

    ``periodicity_gap`` may carry the +inf sentinel (:data:`NO_PERIOD`)
    when no candidate cycle exists; every other entry is finite.
    """

    trend: float
    constancy: float
    curvature: float
    curvature_sign: int
    linearity_mse: float
    smooth_mse: float
    noise_mse: float
    complexity: float
    spike_pos: float
    spike_neg: float
    periodicity_gap: float
    symmetry_err: float
    step_response: float
    amplitude_var: float

    def as_dict(self) -> dict:
        """Scores keyed by canonical name (used for serialization)."""
        return {name: getattr(self, name) for name in SCORE_NAMES}

    def rule_values(self) -> dict:
        """Scores visible to threshold rules.

        Adds ``curvature_signed`` (sign times gap) so Convex/Concave can be
        expressed as opposite-direction rules on one score.
        """
        values = self.as_dict()
        values["curvature_signed"] = self.curvature_sign * self.curvature
        return values


#: Canonical score names, in the order they appear in serialized records.
SCORE_NAMES = tuple(f.name for f in fields(ScoreVector))


#: Scores reported for a constant input: fits and tilings are bypassed, the
#: periodicity gap carries the no-period sentinel, everything else is zero.
DEGENERATE_SCORES = ScoreVector(
    trend=0.0,
    constancy=0.0,
    curvature=0.0,
    curvature_sign=0,
    linearity_mse=0.0,
    smooth_mse=0.0,
    noise_mse=0.0,
    complexity=0.0,
    spike_pos=0.0,
    spike_neg=0.0,
    periodicity_gap=NO_PERIOD,
    symmetry_err=0.0,
    step_response=0.0,
    amplitude_var=0.0,
)


def _mean_pairwise_w1(segs: np.ndarray) -> float:
    """Mean W1 distance over all unordered pairs of rows of a ``(k, m)`` view."""
    ranked = np.sort(segs, axis=1)
    i, j = np.triu_indices(len(ranked), 1)
    # Summed left to right, one pair at a time.
    return sum(np.abs(ranked[i] - ranked[j]).mean(axis=1).tolist()) / i.size


def _segments(v: np.ndarray, p: DetectorParams) -> np.ndarray:
    return segment(v, p.effective_segments(v.size))


def score_trend(s) -> float:
    """Pearson correlation between the values and the uniform timestamp grid.

    +1 for a perfect rise, -1 for a perfect fall, near 0 when there is no
    monotone drift.
    """
    v = signal_values(s)
    if np.ptp(v) == 0.0:
        raise Degenerate("score undefined on a constant signal")
    t = np.linspace(0.0, 1.0, v.size)
    return float(np.clip(np.corrcoef(t, v)[0, 1], -1.0, 1.0))


def score_constancy(s, p: DetectorParams) -> float:
    """Mean W1 distance between the value distributions of the segments.

    Near zero when every stretch of the signal looks the same
    (distribution-stationary), large when the level wanders.
    """
    return _mean_pairwise_w1(_segments(signal_values(s), p))


def _curvature(fit1: tuple, fit2: tuple) -> tuple[float, int]:
    (_, mse1), (coeffs2, mse2) = fit1, fit2
    return max(0.0, mse1 - mse2), int(np.sign(coeffs2[0]))


def score_curvature(s) -> tuple[float, int]:
    """Improvement of a quadratic fit over a linear fit, with its bend sign.

    Returns ``(gap, sign)`` where gap = linear mse - quadratic mse (>= 0 by
    model nesting) and sign is the sign of the fitted quadratic coefficient:
    +1 opens upward (convex), -1 downward (concave).
    """
    return _curvature(polyfit(s, 1), polyfit(s, 2))


def score_linearity(s) -> float:
    """Per-point mean squared error of the best straight-line fit."""
    _, mse = polyfit(s, 1)
    return mse


def score_smooth(s, p: DetectorParams) -> float:
    """MSE between the signal and its moving average.

    Small for slowly varying signals; jagged or noisy signals leave a large
    residual after averaging.
    """
    v = signal_values(s)
    smoothed = moving_average(v, p.ma_window(v.size))
    return float(np.mean((smoothed - v) ** 2))


def _noise(v: np.ndarray, filtered: np.ndarray, w: int) -> float:
    suppressed = median_filter(np.abs(v - filtered), w)
    return float(np.mean(suppressed ** 2))


def score_noise(s, p: DetectorParams) -> float:
    """Mean squared spike-suppressed residual around the median-filtered signal.

    The residual ``r = s - median_filter(s)`` isolates fast fluctuation; a
    second median filter on ``|r|`` suppresses isolated spikes so they are
    counted by the spike scores instead of here.
    """
    v = signal_values(s)
    w = p.median_window(v.size)
    return _noise(v, median_filter(v, w), w)


def score_complexity(s, p: DetectorParams) -> float:
    """Mean W1 distance between segments of the first difference.

    A signal whose local increments keep the same distribution everywhere
    (straight line, steady wave) scores low; erratic signals score high.
    """
    return _mean_pairwise_w1(_segments(np.diff(signal_values(s)), p))


def _spikes(segs: np.ndarray, filtered: np.ndarray,
            p: DetectorParams) -> tuple[float, float]:
    offset = p.spike_sigma * float(filtered.std())
    med = np.median(segs, axis=1)
    up = segs.max(axis=1) - (med + offset)
    down = (med - offset) - segs.min(axis=1)
    return float(up.max()), float(down.max())


def score_spikes(s, p: DetectorParams, direction: str) -> float:
    """Largest excursion of the signal beyond a per-segment spike threshold.

    The threshold for each segment is its median plus (``direction="up"``)
    or minus (``direction="down"``) ``spike_sigma`` times the standard
    deviation of the median-filtered signal.  Negative when nothing pokes
    past the thresholds.
    """
    if direction not in ("up", "down"):
        raise InvalidArgument(f"direction must be 'up' or 'down', got {direction!r}")
    v = signal_values(s)
    up, down = _spikes(_segments(v, p), median_filter(v, p.median_window(v.size)), p)
    return up if direction == "up" else down


def _find_cycle_lag(r: np.ndarray) -> int | None:
    """Smallest lag >= 2 with maximal autocorrelation among peak candidates.

    Candidates are local maxima of the autocorrelation whose second
    difference is negative.  Returns None when the autocorrelation has no
    such peak (monotone decay: no repeating structure).
    """
    if r.size < 4:
        return None
    inner = np.arange(2, r.size - 1)
    d2 = r[inner + 1] - 2.0 * r[inner] + r[inner - 1]
    is_peak = (r[inner] > r[inner - 1]) & (r[inner] >= r[inner + 1]) & (d2 < 0.0)
    candidates = inner[is_peak]
    if candidates.size == 0:
        return None
    return int(candidates[np.argmax(r[candidates])])


def _periodicity(v: np.ndarray, r: np.ndarray, e_linear: float) -> float:
    lag = _find_cycle_lag(r)
    if lag is None:
        return NO_PERIOD
    reps = -(-v.size // lag)
    reconstruction = np.tile(v[:lag], reps)[:v.size]
    return float(np.mean((reconstruction - v) ** 2)) - e_linear


def score_periodicity(s, p: DetectorParams) -> float:
    """Tiling error of the best candidate cycle minus the linear-fit error.

    The candidate cycle length comes from the first-rank autocorrelation
    peak; the signal's opening cycle is tiled across the full length and
    compared point-wise.  Negative means a repeating cycle explains the
    signal better than a straight line (periodic); positive means it does
    not; +inf (:data:`NO_PERIOD`) when no candidate cycle exists.
    """
    return _periodicity(signal_values(s), autocorrelation(s), score_linearity(s))


def score_symmetry(s, p: DetectorParams) -> float:
    """Minimum MSE between the signal and its reversal over a padding sweep.

    Edge-replication padding (front or back, widths 0..n/2 in steps of
    ``symmetry_pad_step_frac * n``) shifts the effective mirror axis, so a
    bump off to one side can still register as symmetric at some pad width.
    """
    v = signal_values(s)
    n = v.size
    step = p.pad_step(n)

    def mirror_mse(padded: np.ndarray) -> float:
        return float(np.mean((padded - padded[::-1]) ** 2))

    best = mirror_mse(v)
    for width in range(step, n // 2 + 1, step):
        front = np.concatenate([np.full(width, v[0]), v])
        back = np.concatenate([v, np.full(width, v[-1])])
        best = min(best, mirror_mse(front), mirror_mse(back))
    return best


def score_step(s, p: DetectorParams) -> float:
    """Largest absolute response to half-negative/half-positive step kernels.

    Each kernel averages the window's second half minus its first half, so
    the response is a difference of means in [-1, 1]; the maximum is taken
    over all kernel lengths and positions, and the absolute value makes
    falling edges count as steps too.
    """
    v = signal_values(s)
    n = v.size
    csum = np.concatenate([[0.0], np.cumsum(v)])
    best = 0.0
    for length in p.kernel_lengths(n):
        half = length // 2
        starts = np.arange(0, n - length + 1)
        first = (csum[starts + half] - csum[starts]) / half
        second = (csum[starts + length] - csum[starts + half]) / half
        best = max(best, float(np.max(np.abs(second - first))))
    return best


def _amplitude(segs: np.ndarray) -> float:
    return float(segs.var(axis=1).max())


def score_amplitude(s, p: DetectorParams) -> float:
    """Maximum per-segment population variance of the values."""
    return _amplitude(_segments(signal_values(s), p))


def score_all(s: NormalizedSeries, p: DetectorParams | None = None) -> ScoreVector:
    """Run every detector once and collect the scores.

    The work several families share (the two polynomial fits, the median
    filter, the segmentation and the autocorrelation) is done once per call.
    A constant input bypasses the fit- and correlation-based detectors and
    returns the documented sentinel vector.
    """
    if p is None:
        p = DetectorParams()
    v = signal_values(s)
    if v.size < MIN_SERIES_LEN:
        raise TooShort(
            f"signal has {v.size} samples, need at least {MIN_SERIES_LEN}")
    if np.ptp(v) == 0.0:
        return DEGENERATE_SCORES
    fit1 = polyfit(v, 1)
    w = p.median_window(v.size)
    filtered = median_filter(v, w)
    segs = _segments(v, p)
    curvature, curvature_sign = _curvature(fit1, polyfit(v, 2))
    spike_pos, spike_neg = _spikes(segs, filtered, p)
    return ScoreVector(
        trend=score_trend(v),
        constancy=_mean_pairwise_w1(segs),
        curvature=curvature,
        curvature_sign=curvature_sign,
        linearity_mse=fit1[1],
        smooth_mse=score_smooth(v, p),
        noise_mse=_noise(v, filtered, w),
        complexity=score_complexity(v, p),
        spike_pos=spike_pos,
        spike_neg=spike_neg,
        periodicity_gap=_periodicity(v, autocorrelation(v), fit1[1]),
        symmetry_err=score_symmetry(v, p),
        step_response=score_step(v, p),
        amplitude_var=_amplitude(segs),
    )
