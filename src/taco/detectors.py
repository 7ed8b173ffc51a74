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
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import Degenerate, InvalidArgument, TooShort
from .signal import (
    MIN_SERIES_LEN,
    autocorrelation,
    grid,
    median_filter,
    moving_average,
    polyfit,
    segment,
    signal_block,
    signal_values,
)

#: Sentinel for "no period found": tiling cannot explain the signal at all,
#: so the periodicity gap is driven to +inf and the Aperiodic rule fires.
NO_PERIOD = math.inf


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _shown(value) -> str:
    """``repr(value)`` for a refusal's message; an int too long for ``repr``
    (past the interpreter's integer string limit) is shown by its digit count,
    and any other value whose ``repr`` fails by its type."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):
            return f"a {type(value).__name__} too long to show"
        size = abs(value)
        digits = int((size.bit_length() - 1) * math.log10(2)) + 1
        digits += size >= 10 ** digits
        return f"an integer of {digits} digits"


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
            raise InvalidArgument(f"k_segments must be an integer >= 2, got {_shown(k)}")
        sigma = self.spike_sigma
        if not _is_real(sigma) or not 0.0 < sigma <= sys.float_info.max:
            raise InvalidArgument(f"spike_sigma must be a finite number > 0, got {_shown(sigma)}")
        fracs = self.step_kernel_fracs
        if not isinstance(fracs, (list, tuple)) or not fracs:
            raise InvalidArgument(
                f"step_kernel_fracs must be a non-empty list, got {_shown(fracs)}")
        object.__setattr__(self, "step_kernel_fracs", tuple(fracs))
        named = [(name, getattr(self, name)) for name in
                 ("ma_window_frac", "median_window_frac", "symmetry_pad_step_frac")]
        for name, frac in named + [("step_kernel_fracs entries", f) for f in fracs]:
            if not _is_real(frac) or not 0.0 < frac <= 1.0:
                raise InvalidArgument(f"{name} must be a number in (0, 1], got {_shown(frac)}")

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
        return sorted({max(2, min(int(frac * n) // 2 * 2, n - n % 2))
                       for frac in self.step_kernel_fracs})

    def to_json_dict(self) -> dict:
        return {**asdict(self), "step_kernel_fracs": list(self.step_kernel_fracs)}

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
DEGENERATE_SCORES = ScoreVector(**{**dict.fromkeys(SCORE_NAMES, 0.0), "curvature_sign": 0,
                                    "periodicity_gap": NO_PERIOD})


def _row(s) -> np.ndarray:
    return signal_values(s)[None]


def _mean_pairwise_w1(segs: np.ndarray) -> list:
    """Mean W1 distance over all pairs of segments, per row of a ``(B, k, m)`` block."""
    ranked = np.sort(segs, axis=-1)
    k = ranked.shape[1]
    # Pairs (a, b > a) in row-major order, summed left to right, one at a time.
    gaps = np.concatenate([np.abs(ranked[:, a:a + 1] - ranked[:, a + 1:]).mean(axis=-1)
                           for a in range(k - 1)], axis=1)
    return [sum(row) / (k * (k - 1) // 2) for row in gaps.tolist()]


def _segments(V: np.ndarray, p: DetectorParams) -> np.ndarray:
    return segment(V, p.effective_segments(V.shape[1]))


def _trend(V: np.ndarray) -> list:
    t = grid(V.shape[1])
    dt = t - t.mean()
    tt = float(np.dot(dt, dt))
    return [min(1.0, max(-1.0, float(np.dot(dt, dv)) / math.sqrt(tt * float(np.dot(dv, dv)))))
            for dv in V - V.mean(axis=1, keepdims=True)]


def score_trend(s) -> float:
    """Pearson correlation between the values and the uniform timestamp grid.

    +1 for a perfect rise, -1 for a perfect fall, near 0 when there is no
    monotone drift.
    """
    V = _row(s)
    if np.ptp(V) == 0.0:
        raise Degenerate("score undefined on a constant signal")
    return _trend(V)[0]


def score_constancy(s, p: DetectorParams) -> float:
    """Mean W1 distance between the value distributions of the segments.

    Near zero when every stretch of the signal looks the same
    (distribution-stationary), large when the level wanders.
    """
    return _mean_pairwise_w1(_segments(_row(s), p))[0]


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


def _smooth(V: np.ndarray, p: DetectorParams) -> list:
    smoothed = np.array([moving_average(v, p.ma_window(V.shape[1])) for v in V])
    return np.mean((smoothed - V) ** 2, axis=1).tolist()


def score_smooth(s, p: DetectorParams) -> float:
    """MSE between the signal and its moving average.

    Small for slowly varying signals; jagged or noisy signals leave a large
    residual after averaging.
    """
    return _smooth(_row(s), p)[0]


def _noise(V: np.ndarray, filtered: np.ndarray, w: int) -> list:
    suppressed = median_filter(np.abs(V - filtered), w)
    return np.mean(suppressed ** 2, axis=1).tolist()


def score_noise(s, p: DetectorParams) -> float:
    """Mean squared spike-suppressed residual around the median-filtered signal.

    The residual ``r = s - median_filter(s)`` isolates fast fluctuation; a
    second median filter on ``|r|`` suppresses isolated spikes so they are
    counted by the spike scores instead of here.
    """
    V = _row(s)
    w = p.median_window(V.shape[1])
    return _noise(V, median_filter(V, w), w)[0]


def score_complexity(s, p: DetectorParams) -> float:
    """Mean W1 distance between segments of the first difference.

    A signal whose local increments keep the same distribution everywhere
    (straight line, steady wave) scores low; erratic signals score high.
    """
    return _mean_pairwise_w1(_segments(np.diff(_row(s), axis=1), p))[0]


def _median(a: np.ndarray) -> np.ndarray:
    """``np.median(a, axis=-1)`` of finite values, bit for bit: numpy's own
    steps, the mean of the middle one or two values after a partition, less
    the NaN check, which loads ``numpy.ma`` in every process that scores."""
    half = a.shape[-1] // 2
    low = half - 1 + a.shape[-1] % 2
    return np.partition(a, (low, half), axis=-1)[..., low:half + 1].mean(axis=-1)


def _spikes(segs: np.ndarray, filtered: np.ndarray, p: DetectorParams) -> tuple[list, list]:
    offset = p.spike_sigma * filtered.std(axis=1, keepdims=True)
    med = _median(segs)
    up = segs.max(axis=-1) - (med + offset)
    down = (med - offset) - segs.min(axis=-1)
    return up.max(axis=1).tolist(), down.max(axis=1).tolist()


def score_spikes(s, p: DetectorParams, direction: str) -> float:
    """Largest excursion of the signal beyond a per-segment spike threshold.

    The threshold for each segment is its median plus (``direction="up"``)
    or minus (``direction="down"``) ``spike_sigma`` times the standard
    deviation of the median-filtered signal.  Negative when nothing pokes
    past the thresholds.
    """
    if direction not in ("up", "down"):
        raise InvalidArgument(f"direction must be 'up' or 'down', got {direction!r}")
    V = _row(s)
    up, down = _spikes(_segments(V, p), median_filter(V, p.median_window(V.shape[1])), p)
    return (up if direction == "up" else down)[0]


def _find_cycle_lag(r: np.ndarray) -> int | None:
    """Smallest lag >= 2 with maximal autocorrelation among peak candidates.

    Candidates are local maxima of the autocorrelation whose second
    difference is negative.  Returns None when the autocorrelation has no
    such peak (monotone decay: no repeating structure).
    """
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


def _cumsum(V: np.ndarray) -> np.ndarray:
    """Each row's running sums, after a leading zero."""
    return np.concatenate((np.zeros((len(V), 1)), np.cumsum(V, axis=1)), axis=1)


def _symmetry(V: np.ndarray, p: DetectorParams) -> list:
    n = V.shape[1]
    k = np.arange(0, n // 2 + 1, p.pad_step(n))
    spectrum = np.fft.rfft(V, 2 * n, axis=1)
    spectrum *= spectrum
    conv = np.fft.irfft(spectrum, 2 * n, axis=1)
    del spectrum  # freed early: each temporary holds every row of the block
    energy = np.array([[float(np.dot(v, v))] for v in V])
    head, tail = _cumsum(V)[:, k], _cumsum(V[:, ::-1])[:, k]
    first, last = V[:, :1], V[:, -1:]
    front = k * first ** 2 - conv[:, n - 1 - k] - 2.0 * first * tail
    back = k * last ** 2 - conv[:, n - 1 + k] - 2.0 * last * head
    sums = 2.0 * (energy + np.minimum(front, back))
    return np.min(np.maximum(sums, 0.0) / (n + k), axis=1).tolist()


def score_symmetry(s, p: DetectorParams) -> float:
    """Minimum MSE between the signal and its reversal over a padding sweep.

    Edge-replication padding (front or back, widths 0..n/2 in steps of
    ``symmetry_pad_step_frac * n``) shifts the effective mirror axis, so a
    bump off to one side can still register as symmetric at some pad width.

    All widths at once: ``k`` front copies of ``v[0]`` make the summed squared
    mirror difference ``2 (v.v + k v[0]**2 - c[n-1-k] - 2 v[0] S)``, with ``c``
    the self-convolution and ``S`` the last ``k`` values' sum; back mirrors it.
    """
    return _symmetry(_row(s), p)[0]


def _step(V: np.ndarray, p: DetectorParams) -> list:
    n = V.shape[1]
    csum = _cumsum(V)
    best = np.zeros(len(V))
    for length in p.kernel_lengths(n):
        half = length // 2
        m = n - length + 1  # kernel positions
        first = (csum[:, half:half + m] - csum[:, :m]) / half
        second = (csum[:, length:length + m] - csum[:, half:half + m]) / half
        best = np.maximum(best, np.max(np.abs(second - first), axis=1))
    return best.tolist()


def score_step(s, p: DetectorParams) -> float:
    """Largest absolute response to half-negative/half-positive step kernels.

    Each kernel averages the window's second half minus its first half, so
    the response is a difference of means in [-1, 1]; the maximum is taken
    over all kernel lengths and positions, and the absolute value makes
    falling edges count as steps too.
    """
    return _step(_row(s), p)[0]


def score_amplitude(s, p: DetectorParams) -> float:
    """Maximum per-segment population variance of the values."""
    return float(_segments(_row(s), p).var(axis=-1).max())


def score_all(s, p: DetectorParams | None = None):
    """Every detector's score for one signal (a :class:`ScoreVector`), or
    for each row of a ``(B, n)`` block (a list), in one pass over the block.

    Block steps are row-wise reductions, sorts, running sums and FFTs, and
    BLAS dot products, ``lstsq`` fits and convolutions run row by row, so a
    row's scores do not depend on the rows beside it.  A constant row gets
    the documented sentinel vector."""
    p = p or DetectorParams()
    X, one = signal_block(s)
    if X.shape[1] < MIN_SERIES_LEN:
        raise TooShort(f"signal has {X.shape[1]} samples, need at least {MIN_SERIES_LEN}")
    live = np.ptp(X, axis=1) != 0.0
    scored = iter(_score_rows(X if live.all() else X[live], p) if live.any() else ())
    scores = [next(scored) if alive else DEGENERATE_SCORES for alive in live]
    return scores[0] if one else scores


def _score_rows(V: np.ndarray, p: DetectorParams) -> list:
    """:func:`score_all` over a block of non-constant rows."""
    fits1 = [polyfit(v, 1) for v in V]
    w = p.median_window(V.shape[1])
    filtered = median_filter(V, w)
    segs = _segments(V, p)
    curvature, curvature_sign = zip(*(_curvature(fit, polyfit(v, 2))
                                      for v, fit in zip(V, fits1)))
    spike_pos, spike_neg = _spikes(segs, filtered, p)
    columns = dict(
        trend=_trend(V),
        constancy=_mean_pairwise_w1(segs),
        curvature=curvature,
        curvature_sign=curvature_sign,
        linearity_mse=[mse for _, mse in fits1],
        smooth_mse=_smooth(V, p),
        noise_mse=_noise(V, filtered, w),
        complexity=_mean_pairwise_w1(_segments(np.diff(V, axis=1), p)),
        spike_pos=spike_pos,
        spike_neg=spike_neg,
        periodicity_gap=[_periodicity(v, r, mse) for v, r, (_, mse)
                         in zip(V, autocorrelation(V), fits1)],
        symmetry_err=_symmetry(V, p),
        step_response=_step(V, p),
        amplitude_var=segs.var(axis=-1).max(axis=-1).tolist(),
    )
    return [ScoreVector(**dict(zip(columns, row))) for row in zip(*columns.values())]
