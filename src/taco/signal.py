"""Core signal types, preprocessing and shared numeric kernels.

All operations are pure functions of their inputs.  Signals live on an
implicit uniform timestamp grid over [0, 1] (:func:`grid`); no explicit
timestamps are ever carried around.  Error scores are always per-point means so that one threshold works across series lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import MIN_SERIES_LEN, Degenerate, InvalidArgument, InvalidSignal, TooShort

#: Largest scratch block, in bytes, that :func:`median_filter` copies windows
#: of ranks into at once; small enough to stay in cache and never page-fault.
MEDIAN_BLOCK_BYTES = 64 * 1024


@lru_cache(maxsize=8)
def grid(n: int) -> np.ndarray:
    """The uniform timestamp grid of ``n`` points, ``numpy.linspace(0, 1, n)``.
    Shared by every caller, so read-only."""
    t = np.linspace(0.0, 1.0, n)
    t.flags.writeable = False
    return t


def signal_values(s) -> np.ndarray:
    """Coerce a Series/NormalizedSeries/array-like to a float64 1-D array;
    any other shape, a block too, raises :class:`InvalidSignal`."""
    if isinstance(s, (Series, NormalizedSeries)):
        return s.values
    out = np.asarray(s, dtype=float)
    if out.ndim != 1:
        raise InvalidSignal(f"expected a 1-D signal, got shape {out.shape}")
    return out


def signal_block(s) -> tuple[np.ndarray, bool]:
    """``(X, one)``: a 2-D ``ndarray`` as the float64 ``(B, n)`` block it is, or
    any other signal, 1-D (see :func:`signal_values`), as a one-row block, ``one`` true."""
    if isinstance(s, np.ndarray) and s.ndim == 2:
        return s.astype(float, copy=False), False
    return signal_values(s)[None], True


@dataclass(frozen=True)
class Series:
    """A raw one-dimensional signal.

    Values must be finite and there must be at least ``MIN_SERIES_LEN`` of
    them; shorter or non-finite input raises at construction so detectors
    never see it.
    """

    values: np.ndarray

    def __post_init__(self):
        v = signal_values(self.values)
        object.__setattr__(self, "values", v)
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

    Output of :func:`minmax_normalize`: 1-D values (see :func:`signal_values`)
    that span [0, 1] exactly, except that a constant source maps to all zeros.
    """

    values: np.ndarray

    def __post_init__(self):
        v = signal_values(self.values)
        object.__setattr__(self, "values", v)
        if not np.all(np.isfinite(v)):
            raise InvalidSignal("normalized signal contains non-finite samples")
        if v.size and (v.min() < 0.0 or v.max() > 1.0):
            raise InvalidSignal("normalized signal has values outside [0, 1]")

    def __len__(self) -> int:
        return self.values.size


def minmax_normalize(s):
    """Rescale a signal to [0, 1] via min-max scaling (a :class:`NormalizedSeries`),
    or each row of a ``(B, n)`` block on its own in one pass (a ``(B, n)`` array).

    A constant input cannot be rescaled; it maps to all zeros, on which the
    fits and correlations that are undefined on zero variance raise
    :class:`Degenerate`.
    """
    X, one = signal_block(s)
    if X.shape[1] == 0:
        raise InvalidSignal("cannot normalize an empty signal")
    lo = X.min(axis=1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        span = X.max(axis=1, keepdims=True) - lo
    if not np.isfinite(span).all():  # NaN, infinity or a range past float64
        _finite_range(X[np.isfinite(span[:, 0]).argmin()])  # raises on the first bad row
    out = (X - lo) / np.where(span == 0.0, 1.0, span)  # a constant row is all 0 / 1
    return NormalizedSeries(out[0]) if one else out


def _finite_range(v: np.ndarray) -> tuple[float, float]:
    """``(min, max)`` of a non-empty signal whose span ``max - min`` is finite."""
    if not np.all(np.isfinite(v)):
        raise InvalidSignal("signal contains NaN or infinite samples")
    lo, hi = float(v.min()), float(v.max())
    if math.isinf(hi - lo):
        raise InvalidSignal(f"signal range [{lo!r}, {hi!r}] overflows float64")
    return lo, hi


def resample_linear(s, target_len: int) -> np.ndarray:
    """Resample onto a uniform grid of ``target_len`` points by linear
    interpolation.  Endpoints are preserved exactly."""
    v = signal_values(s)
    if target_len < 2:
        raise InvalidArgument(f"target_len must be >= 2, got {target_len}")
    if v.size < 2:
        raise InvalidArgument("need at least 2 samples to resample")
    lo, hi = _finite_range(v)
    out = np.interp(grid(target_len), grid(v.size), v)
    if not np.all(np.isfinite(out)):  # a slope past the float64 range
        raise InvalidSignal(f"signal range [{lo!r}, {hi!r}] overflows float64 when resampled")
    return out


def segment(s, k: int) -> np.ndarray:
    """Split a signal, or each row of a ``(B, n)`` block, into ``k``
    equal-length contiguous slices: a ``(k, m)`` view (``(B, k, m)`` for a
    block), so per-segment statistics are last-axis reductions.  Slice length
    ``m`` is ``floor(n / k)``; remainder samples at the tail are dropped so
    every slice has the same size (which keeps the sorted-sample Wasserstein
    form exact).
    """
    X, one = signal_block(s)
    if k < 1:
        raise InvalidArgument(f"k must be positive, got {k}")
    m = X.shape[1] // k
    if m < 2:
        raise TooShort(
            f"{X.shape[1]} samples split into {k} segments leaves {m} per segment,"
            " need at least 2")
    segs = X[:, :k * m].reshape(len(X), k, m)
    return segs[0] if one else segs


@lru_cache(maxsize=8)
def _fit_design(n: int, degree: int) -> tuple:
    """``(t, lhs, scale, rcond)`` exactly as ``np.polyfit(t, v, degree)`` builds
    them on every call: the grid, the column-scaled Vandermonde matrix, its
    column norms and the rank cutoff.  Shared by every caller, so read-only."""
    t = grid(n)
    lhs = np.vander(t, degree + 1)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    for a in (lhs, scale):
        a.flags.writeable = False
    return t, lhs, scale, n * np.finfo(float).eps


def polyfit(s: NormalizedSeries, degree: int) -> tuple[np.ndarray, float]:
    """Least-squares polynomial fit against the uniform grid on [0, 1].

    Returns ``(coefficients, mse)`` with coefficients in numpy order
    (highest power first) and ``mse`` the per-point mean squared residual.
    Bit for bit ``np.polyfit``, whose per-call design setup is cached.
    """
    if degree not in (1, 2):
        raise InvalidArgument(f"degree must be 1 or 2, got {degree}")
    v = signal_values(s)
    if v.size < degree + 1:
        raise TooShort(f"need more than {degree} samples for a degree-{degree} fit")
    if np.ptp(v) == 0.0:
        raise Degenerate("polynomial fit undefined on a constant signal")
    t, lhs, scale, rcond = _fit_design(v.size, degree)
    coeffs = np.linalg.lstsq(lhs, v, rcond)[0] / scale
    resid = np.polyval(coeffs, t) - v
    return coeffs, float(np.mean(resid * resid))


def median_filter(s, window: int) -> np.ndarray:
    """Sliding-window median with edge-replication padding, of one signal or
    of each row of a ``(B, n)`` block; the output has the input's shape.

    The window must be odd so the filter is centered.  Each row is filtered
    on its ranks (int16 unless n > 32767): windows of ranks are sorted in one
    reused buffer, at most ``MEDIAN_BLOCK_BYTES`` at a time, and each middle
    rank maps back to its value.  Each output is an element of its window,
    so the result is exact.
    """
    X, one = signal_block(s)
    n = X.shape[1]
    if window < 1 or window % 2 == 0:
        raise InvalidArgument(f"window must be an odd positive integer, got {window}")
    if window > n:
        raise InvalidArgument(f"window {window} exceeds signal length {n}")
    half = window // 2
    order = np.argsort(X, axis=1)
    dtype = np.int16 if n <= 32767 else np.int32
    ranks = np.empty(X.shape, dtype)
    np.put_along_axis(ranks, order, np.arange(n, dtype=dtype), axis=1)
    ranks = np.pad(ranks, ((0, 0), (half, half)), mode="edge")  # rows lie end to end
    width = ranks.shape[1]
    windows = np.lib.stride_tricks.sliding_window_view(ranks.reshape(-1), window)
    middle = np.empty(ranks.size, dtype)  # a window that spans two rows is never read
    rows = max(1, MEDIAN_BLOCK_BYTES // (ranks.itemsize * window))
    buffer = np.empty((rows, window), dtype)
    for start in range(0, len(windows), rows):
        block = buffer[:min(rows, len(windows) - start)]
        block[...] = windows[start:start + len(block)]
        block.sort(axis=1)
        middle[start:start + len(block)] = block[:, half]
    at = np.take_along_axis(order, middle.reshape(-1, width)[:, :n], axis=1)
    del order  # freed early: each temporary holds every row of the block
    out = np.take_along_axis(X, at, axis=1)
    return out[0] if one else out


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


def autocorrelation(s) -> np.ndarray:
    """Normalized autocorrelation ``r[0..n//2]`` (``r[0] == 1``) of the
    mean-removed signal, or of each row of a ``(B, n)`` block.  Undefined
    (raises :class:`Degenerate`) when a signal has zero variance.  Computed
    by Wiener-Khinchin: the inverse FFT of the power spectrum, zero-padded to
    ``2n`` so no lag wraps around.
    """
    X, one = signal_block(s)
    x = X - X.mean(axis=1, keepdims=True)
    denom = np.array([float(np.dot(row, row)) for row in x])
    if np.any(denom <= 0.0):
        raise Degenerate("autocorrelation undefined on a constant signal")
    n = x.shape[1]
    spectrum = np.fft.rfft(x, 2 * n, axis=1)
    power = spectrum.real ** 2
    power += spectrum.imag ** 2
    del x, spectrum  # freed early: each temporary holds every row of the block
    r = np.fft.irfft(power, 2 * n, axis=1)[:, :n // 2 + 1] / denom[:, None]
    return r[0] if one else r
