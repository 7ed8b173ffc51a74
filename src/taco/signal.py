"""Core signal types, preprocessing and shared numeric kernels.

All operations are pure functions of their inputs.  Signals live on an
implicit uniform timestamp grid over [0, 1] (``numpy.linspace(0, 1, n)``);
no explicit timestamps are ever carried around.  Error scores are always
per-point means so that one threshold works across series lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, InvalidArgument, InvalidSignal, TooShort

#: Minimum length accepted at detector entry points: every score procedure
#: needs at least 2 samples per segment at the smallest usable segmentation.
MIN_SERIES_LEN = 16


def signal_values(s) -> np.ndarray:
    """Coerce a Series/NormalizedSeries/array-like to a float64 1-D array."""
    if isinstance(s, (Series, NormalizedSeries)):
        return s.values
    out = np.asarray(s, dtype=float)
    if out.ndim != 1:
        out = out.reshape(-1)
    return out


@dataclass(frozen=True)
class Series:
    """A raw one-dimensional signal.

    Values must be finite and there must be at least ``MIN_SERIES_LEN`` of
    them; shorter or non-finite input raises at construction so detectors
    never see it.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1:
            raise InvalidSignal(f"expected a 1-D signal, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InvalidSignal("signal contains NaN or infinite samples")
        if v.size < MIN_SERIES_LEN:
            raise TooShort(
                f"signal has {v.size} samples, need at least {MIN_SERIES_LEN}")

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class NormalizedSeries:
    """A signal rescaled to the unit interval.

    Output of :func:`minmax_normalize`: the values span [0, 1] exactly,
    except that a constant source maps to all zeros.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if not np.all(np.isfinite(v)):
            raise InvalidSignal("normalized signal contains non-finite samples")
        if v.size and (v.min() < 0.0 or v.max() > 1.0):
            raise InvalidSignal("normalized signal has values outside [0, 1]")

    def __len__(self) -> int:
        return self.values.size


def minmax_normalize(s) -> NormalizedSeries:
    """Rescale a signal to [0, 1] via min-max scaling.

    A constant input cannot be rescaled; it maps to all zeros, on which the
    fits and correlations that are undefined on zero variance raise
    :class:`Degenerate`.
    """
    v = signal_values(s)
    if v.size == 0:
        raise InvalidSignal("cannot normalize an empty signal")
    if not np.all(np.isfinite(v)):
        raise InvalidSignal("signal contains NaN or infinite samples")
    lo = v.min()
    hi = v.max()
    if hi == lo:
        return NormalizedSeries(np.zeros_like(v))
    return NormalizedSeries((v - lo) / (hi - lo))


def resample_linear(s, target_len: int) -> np.ndarray:
    """Resample onto a uniform grid of ``target_len`` points by linear
    interpolation.  Endpoints are preserved exactly."""
    v = signal_values(s)
    if target_len < 2:
        raise InvalidArgument(f"target_len must be >= 2, got {target_len}")
    if v.size < 2:
        raise InvalidArgument("need at least 2 samples to resample")
    if v.size == target_len:
        return v.copy()
    src = np.linspace(0.0, 1.0, v.size)
    dst = np.linspace(0.0, 1.0, target_len)
    return np.interp(dst, src, v)


def segment(s, k: int) -> np.ndarray:
    """Split a signal into ``k`` equal-length contiguous slices.

    Returns a ``(k, m)`` view whose rows are the slices, so per-segment
    statistics are axis-1 reductions.  Slice length ``m`` is ``floor(n / k)``;
    remainder samples at the tail are dropped so every slice has the same
    size (which keeps the sorted-sample Wasserstein form exact).
    """
    v = signal_values(s)
    if k < 1:
        raise InvalidArgument(f"k must be positive, got {k}")
    m = v.size // k
    if m < 2:
        raise TooShort(
            f"{v.size} samples split into {k} segments leaves {m} per segment,"
            " need at least 2")
    return v[:k * m].reshape(k, m)


def polyfit(s: NormalizedSeries, degree: int) -> tuple[np.ndarray, float]:
    """Least-squares polynomial fit against the uniform grid on [0, 1].

    Returns ``(coefficients, mse)`` with coefficients in numpy order
    (highest power first) and ``mse`` the per-point mean squared residual.
    """
    if degree not in (1, 2):
        raise InvalidArgument(f"degree must be 1 or 2, got {degree}")
    v = signal_values(s)
    if v.size < degree + 1:
        raise TooShort(f"need more than {degree} samples for a degree-{degree} fit")
    if np.ptp(v) == 0.0:
        raise Degenerate("polynomial fit undefined on a constant signal")
    t = np.linspace(0.0, 1.0, v.size)
    coeffs = np.polyfit(t, v, degree)
    resid = np.polyval(coeffs, t) - v
    return coeffs, float(np.mean(resid * resid))


def median_filter(s, window: int) -> np.ndarray:
    """Sliding-window median with edge-replication padding.

    Output has the same length as the input.  The window must be odd so the
    filter is centered.
    """
    v = signal_values(s)
    if window < 1 or window % 2 == 0:
        raise InvalidArgument(f"window must be an odd positive integer, got {window}")
    if window > v.size:
        raise InvalidArgument(
            f"window {window} exceeds signal length {v.size}")
    half = window // 2
    padded = np.pad(v, half, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, window)
    return np.partition(windows, half, axis=1)[:, half]


def moving_average(s, window: int) -> np.ndarray:
    """Centered sliding mean with edge-replication padding, same length out."""
    v = signal_values(s)
    if window < 1:
        raise InvalidArgument(f"window must be positive, got {window}")
    if window > v.size:
        raise InvalidArgument(
            f"window {window} exceeds signal length {v.size}")
    left = (window - 1) // 2
    padded = np.pad(v, (left, window - 1 - left), mode="edge")
    kernel = np.full(window, 1.0 / window)
    return np.convolve(padded, kernel, mode="valid")


def autocorrelation(s: NormalizedSeries) -> np.ndarray:
    """Normalized autocorrelation of the mean-removed signal.

    Returns ``r[0..n//2]`` with ``r[0] == 1``.  Undefined (raises
    :class:`Degenerate`) when the signal has zero variance.  Computed by
    Wiener-Khinchin: the inverse FFT of the power spectrum, zero-padded to
    ``2n`` so no lag wraps around.
    """
    v = signal_values(s)
    x = v - v.mean()
    denom = float(np.dot(x, x))
    if denom <= 0.0:
        raise Degenerate("autocorrelation undefined on a constant signal")
    n = x.size
    spectrum = np.fft.rfft(x, 2 * n)
    power = spectrum.real ** 2 + spectrum.imag ** 2
    return np.fft.irfft(power, 2 * n)[:n // 2 + 1] / denom
