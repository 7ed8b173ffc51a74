"""Core signal operations against independent oracles and invariants."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

import taco.detectors as detectors
from taco.annotator import annotate
from taco.detectors import DetectorParams, _find_cycle_lag, score_all
from taco.errors import Degenerate, InvalidArgument, InvalidSignal, TooShort
from taco.evalkit import TrainIndex, nearnbr_caption
from taco.signal import (
    MEDIAN_BLOCK_BYTES,
    MIN_SERIES_LEN,
    NormalizedSeries,
    Series,
    autocorrelation,
    grid,
    median_filter,
    minmax_normalize,
    moving_average,
    polyfit,
    resample_linear,
    segment,
    _fit_design,
)


from oracles import (
    autocorrelation_oracle,
    linear_fit_mse_oracle,
    median_filter_oracle,
    quadratic_fit_mse_oracle,
)


# ---------------------------------------------------------------------------
# minmax_normalize
# ---------------------------------------------------------------------------

def test_normalize_affine_endpoints():
    out = minmax_normalize([2.0, 4.0, 6.0])
    assert out.values == pytest.approx([0.0, 0.5, 1.0])
    assert out.values.min() == 0.0 and out.values.max() == 1.0


def test_normalize_constant_is_degenerate():
    out = minmax_normalize([5.0, 5.0, 5.0, 5.0])
    assert len(out) == 4
    assert np.all(out.values == 0.0)


def test_normalize_idempotent():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.uniform(-10, 10, rng.integers(3, 100))
        once = minmax_normalize(v).values
        twice = minmax_normalize(once).values
        assert np.max(np.abs(once - twice)) < 1e-12


def test_normalize_affine_invariant():
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = rng.normal(size=rng.integers(3, 100))
        a = rng.uniform(0.1, 50.0)
        b = rng.uniform(-100.0, 100.0)
        base = minmax_normalize(v).values
        mapped = minmax_normalize(a * v + b).values
        assert np.max(np.abs(base - mapped)) < 1e-12


def test_normalize_rejects_non_finite():
    with pytest.raises(InvalidSignal):
        minmax_normalize([1.0, np.nan, 2.0])
    with pytest.raises(InvalidSignal):
        minmax_normalize([1.0, np.inf, 2.0])


def test_range_past_float64_is_named():
    # finite samples; pytest turns any numpy RuntimeWarning into an error
    wide = np.array([1e308, -1e308] * 8)
    for call in (lambda: minmax_normalize(wide), lambda: resample_linear(wide, 64)):
        with pytest.raises(InvalidSignal, match=r"range \[-1e\+308, 1e\+308\] overflows"):
            call()
    steep = np.zeros(300)
    steep[1] = 1e306  # the range fits, the slope 1e306 * 299 does not
    with pytest.raises(InvalidSignal, match=r"\[0.0, 1e\+306\] overflows float64 when resampled"):
        resample_linear(steep, 2048)


def test_block_normalize_matches_the_per_row_formula_bit_for_bit():
    rng = np.random.default_rng(26)
    scales = 10.0 ** np.linspace(-300.0, 300.0, 200)
    X = (rng.normal(size=(200, 64)) + rng.normal(size=(200, 1))) * scales[:, None]
    X = np.vstack([X, np.full((1, 64), 3.5)])
    expected = []
    for v in X:
        lo, hi = v.min(), v.max()
        expected.append(np.zeros_like(v) if hi == lo else (v - lo) / (hi - lo))
    out = minmax_normalize(X)
    assert out.shape == X.shape
    assert out.tobytes() == np.array(expected).tobytes()
    assert not out[-1].any()


@pytest.mark.parametrize("bad, message", [
    ([1.0, np.nan, 2.0, 3.0], "signal contains NaN or infinite samples"),
    ([1.0, np.inf, 2.0, 3.0], "signal contains NaN or infinite samples"),
    ([1e308, -1e308, 1e308, -1e308], "signal range [-1e+308, 1e+308] overflows float64"),
])
def test_block_normalize_names_a_bad_row_as_one_signal_does(bad, message):
    X = np.array([[0.0, 1.0, 2.0, 3.0], bad, [1e308, -1e308, 0.0, np.nan]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSignal) as block:
            minmax_normalize(X)
        with pytest.raises(InvalidSignal) as one:
            minmax_normalize(bad)
    assert str(block.value) == str(one.value) == message


def test_annotated_series_is_read_only():
    normalized = annotate(np.random.default_rng(27).normal(size=256)).normalized
    with pytest.raises(ValueError):
        normalized[0] = 0.5


# ---------------------------------------------------------------------------
# resample_linear
# ---------------------------------------------------------------------------

def test_resample_segment():
    assert resample_linear([0.0, 1.0], 5) == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


def test_resample_identity_grid():
    rng = np.random.default_rng(3)
    v = rng.normal(size=77)
    assert np.array_equal(resample_linear(v, 77), v)


@pytest.mark.parametrize("v", [
    np.array([-0.0, 0.0, -0.0, 1.0, -0.0]),
    np.array([5e-324, -5e-324, 2.2e-308, 0.0, -1e-310, 1e-300]),
    np.array([1e300, -1e300, 9.9e299, -0.0, 1e300, -1e300]),
    np.array([0.0, 1e308, -0.0, 1e-320]),  # range 1e308 fits, slope 3e308 does not
], ids=["signed-zeros", "subnormals", "near-1e300", "finite-range-overflowing-slope"])
def test_resample_to_own_length_keeps_every_bit(v):
    # np.interp on identical grids returns each sample as it is, with no
    # slope formed, so even a window whose slope would overflow comes back
    out = resample_linear(v, v.size)
    assert out is not v
    assert out.tobytes() == v.tobytes()


def test_resample_ramp_matches_closed_form():
    ramp = np.linspace(0.0, 1.0, 300)
    out = resample_linear(ramp, 2048)
    ideal = np.linspace(0.0, 1.0, 2048)
    assert np.max(np.abs(out - ideal)) < 1e-9


def test_resample_preserves_endpoints_and_monotonicity():
    rng = np.random.default_rng(4)
    for _ in range(30):
        v = np.sort(rng.normal(size=rng.integers(2, 60)))
        out = resample_linear(v, int(rng.integers(2, 300)))
        assert out[0] == v[0] and out[-1] == v[-1]
        assert np.all(np.diff(out) >= -1e-15)


def test_resample_rejects_small_target():
    with pytest.raises(InvalidArgument):
        resample_linear([0.0, 1.0, 2.0], 1)


# ---------------------------------------------------------------------------
# segment
# ---------------------------------------------------------------------------

def test_segment_drops_remainder():
    segs = segment(np.arange(2048.0), 10)
    assert len(segs) == 10
    assert all(len(g) == 204 for g in segs)
    assert segs[-1][-1] == 2039.0


def test_segment_exact_split():
    segs = segment(np.arange(16.0), 8)
    assert len(segs) == 8
    assert all(len(g) == 2 for g in segs)


def test_segment_too_short():
    with pytest.raises(TooShort):
        segment(np.arange(16.0), 9)


def test_segment_slices_are_ordered_and_disjoint():
    v = np.arange(103.0)
    segs = list(segment(v, 7))
    joined = np.concatenate(segs)
    assert np.array_equal(joined, v[:len(joined)])


# ---------------------------------------------------------------------------
# polyfit
# ---------------------------------------------------------------------------

def test_polyfit_exact_ramp():
    s = minmax_normalize(np.linspace(0.0, 1.0, 64))
    coeffs, mse = polyfit(s, 1)
    assert mse < 1e-28
    assert coeffs[0] == pytest.approx(1.0, abs=1e-9)


def test_polyfit_degenerate():
    with pytest.raises(Degenerate):
        polyfit(minmax_normalize(np.full(32, 3.0)), 1)


def test_polyfit_parabola_matches_normal_equations():
    t = np.linspace(0.0, 1.0, 2048)
    s = minmax_normalize((t - 0.5) ** 2)
    _, mse = polyfit(s, 1)
    assert mse == pytest.approx(linear_fit_mse_oracle(s.values), abs=1e-9)
    _, mse2 = polyfit(s, 2)
    assert mse2 == pytest.approx(quadratic_fit_mse_oracle(s.values), abs=1e-9)


@pytest.mark.parametrize("n", [16, 17, 300, 2048, 2049])
def test_polyfit_is_numpy_polyfit_bit_for_bit(n):
    t = np.linspace(0.0, 1.0, n)
    rng = np.random.default_rng(n)
    signals = [rng.uniform(size=n) for _ in range(20)] + [t, t[::-1], (t - 0.3) ** 2]
    for v in signals:
        for degree in (1, 2):
            coeffs, mse = polyfit(v, degree)
            expected = np.polyfit(t, v, degree)
            resid = np.polyval(expected, t) - v
            assert np.array_equal(coeffs, expected)
            assert np.array_equal(np.sign(coeffs), np.sign(expected))
            assert mse == float(np.mean(resid * resid))


def test_polyfit_design_cache_is_read_only():
    polyfit(np.linspace(0.0, 1.0, 64) ** 2, 2)
    for cached in _fit_design(64, 2)[:3]:
        with pytest.raises(ValueError):
            cached[0] = 1.0


def test_grid_is_linspace_and_read_only():
    # every caller shares the cached grid, so none may write to it
    for n in (2, 64, 2048):
        assert np.array_equal(grid(n), np.linspace(0.0, 1.0, n))
        with pytest.raises(ValueError):
            grid(n)[0] = 1.0


def test_polyfit_nesting():
    rng = np.random.default_rng(6)
    for _ in range(100):
        v = rng.uniform(size=int(rng.integers(8, 200)))
        s = NormalizedSeries(values=minmax_normalize(v).values)
        _, mse1 = polyfit(s, 1)
        _, mse2 = polyfit(s, 2)
        assert mse2 <= mse1 + 1e-12


# ---------------------------------------------------------------------------
# median_filter / moving_average
# ---------------------------------------------------------------------------

def test_median_filter_constant_unchanged():
    v = np.full(20, 0.4)
    assert np.array_equal(median_filter(v, 5), v)


def test_median_filter_removes_impulse():
    v = np.zeros(32)
    v[10] = 1.0
    assert np.all(median_filter(v, 5) == 0.0)


def test_median_filter_matches_oracle():
    v = np.array([0, 0, 1, 0, 0, 1, 1, 1], dtype=float)
    assert median_filter(v, 3).tolist() == median_filter_oracle(v, 3)
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = rng.uniform(size=int(rng.integers(5, 60)))
        w = int(rng.choice([3, 5, 7]))
        assert median_filter(v, w).tolist() == pytest.approx(
            median_filter_oracle(v, w), abs=1e-15)


@pytest.mark.parametrize("n", [
    MIN_SERIES_LEN, MIN_SERIES_LEN + 1, MIN_SERIES_LEN + 2, MIN_SERIES_LEN + 3, 2048])
def test_median_filter_matches_oracle_at_detector_window(n):
    w = DetectorParams().median_window(n)
    rng = np.random.default_rng(n)
    for v in (rng.uniform(size=n), np.round(rng.uniform(size=n) * 3)):
        assert median_filter(v, w).tolist() == median_filter_oracle(v, w)


def _uniform_and_tied(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=n), np.round(rng.uniform(size=n) * 3)


def _ranked_rows(window):
    """Windows of int16 ranks the median filter sorts at a time."""
    return MEDIAN_BLOCK_BYTES // (2 * window)


@pytest.mark.parametrize("window", [1, 3, 103])
def test_median_filter_matches_oracle_across_block_edges(window):
    # the filter works through blocks of ``rows`` windows of ranks
    rows = _ranked_rows(window)
    edges = [n for n in (rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows, 2 * rows + 1)
             if n >= window]
    for n in edges + [5000]:
        for v in _uniform_and_tied(n, n + window):
            assert median_filter(v, window).tolist() == median_filter_oracle(v, window)


@pytest.mark.parametrize("n", [3, 17, 103, 641])
def test_median_filter_window_spanning_signal_matches_oracle(n):
    for v in _uniform_and_tied(n, n):
        assert median_filter(v, n).tolist() == median_filter_oracle(v, n)


def test_median_filter_memory_is_bounded():
    # the whole (2048, 103) window matrix would be about 1.7 MB, and 13.5 MB
    # for a block of 8 such rows; the filter keeps a few arrays the size of
    # its input beside one MEDIAN_BLOCK_BYTES buffer
    rng = np.random.default_rng(12)
    for v, bound in ((rng.uniform(size=2048), 256 * 1024),
                     (rng.uniform(size=(8, 2048)), 1024 * 1024)):
        median_filter(v, 103)
        tracemalloc.start()
        try:
            median_filter(v, 103)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, v.shape


def _assert_rows_match_oracle(block, window):
    out = median_filter(block, window)
    assert out.shape == block.shape
    for row, filtered in zip(block, out):
        assert filtered.tolist() == median_filter_oracle(row, window)


@pytest.mark.parametrize("n, window", [(16, 3), (17, 17), (300, 15), (2048, 103), (641, 641)])
def test_median_filter_block_rows_match_oracle(n, window):
    # rows of uniform, tied and constant values side by side; window == n
    # makes every window span its whole (padded) row
    rng = np.random.default_rng(n + window)
    block = np.array([rng.uniform(size=n), np.round(rng.uniform(size=n) * 3),
                      np.full(n, 0.25), np.round(rng.uniform(size=n)), rng.uniform(size=n)])
    _assert_rows_match_oracle(block, window)
    for row, filtered in zip(block, median_filter(block, window)):
        assert np.array_equal(median_filter(row, window), filtered)


@pytest.mark.parametrize("window", [3, 103])
def test_median_filter_block_matches_oracle_across_block_edges(window):
    # the block's padded rows lie end to end in one run of windows: buffer
    # edges fall at row starts, just before and just after them
    rows = _ranked_rows(window)
    for width in (rows - 1, rows, rows + 1, rows // 2):
        n = width - 2 * (window // 2)
        if n >= window:
            rng = np.random.default_rng(width)
            tied = np.round(rng.uniform(size=(3, n)) * 3)
            _assert_rows_match_oracle(np.vstack([rng.uniform(size=(3, n)), tied]), window)


@pytest.mark.parametrize("n", [32767, 32768, 40001])
def test_median_filter_long_rows_match_oracle(n):
    # ranks are int16 up to n = 32767 and int32 past it
    rng = np.random.default_rng(n)
    block = np.array([rng.uniform(size=n), np.round(rng.uniform(size=n) * 50)])
    _assert_rows_match_oracle(block, 5)


def test_median_filter_rejects_even_window():
    with pytest.raises(InvalidArgument):
        median_filter(np.zeros(16), 4)


def test_moving_average_constant_and_ramp():
    v = np.full(30, 2.5)
    assert moving_average(v, 7) == pytest.approx(v)
    ramp = np.linspace(0.0, 1.0, 101)
    out = moving_average(ramp, 9)
    assert out[10:-10] == pytest.approx(ramp[10:-10], abs=1e-12)


def test_moving_average_reduces_noise_variance():
    rng = np.random.default_rng(8)
    v = rng.uniform(size=4096)
    assert moving_average(v, 11).var() < v.var()


def test_moving_average_rejects_oversized_window():
    with pytest.raises(InvalidArgument):
        moving_average(np.zeros(8), 9)


def test_filters_preserve_value_range():
    rng = np.random.default_rng(9)
    for _ in range(40):
        v = rng.normal(size=int(rng.integers(8, 100)))
        for out in (median_filter(v, 5), moving_average(v, 6)):
            assert out.min() >= v.min() - 1e-12
            assert out.max() <= v.max() + 1e-12


@pytest.mark.parametrize("n", [1, 2, 16, 2048])
def test_filters_window_one_return_equal_copy(n):
    v = np.random.default_rng(n).normal(size=n)
    for out in (median_filter(v, 1), moving_average(v, 1)):
        assert np.array_equal(out, v)
        assert not np.shares_memory(out, v)


# ---------------------------------------------------------------------------
# autocorrelation
# ---------------------------------------------------------------------------

def test_autocorrelation_unit_at_zero_lag():
    rng = np.random.default_rng(10)
    s = minmax_normalize(rng.uniform(size=256))
    r = autocorrelation(s)
    assert r[0] == pytest.approx(1.0, abs=1e-12)
    assert len(r) == 256 // 2 + 1


def test_autocorrelation_sine_period_peak():
    period = 64
    v = 0.5 + 0.5 * np.sin(2 * np.pi * np.arange(2048) / period)
    r = autocorrelation(minmax_normalize(v))
    assert r[period] > 0.95


def test_autocorrelation_matches_oracle_and_cycle_lag():
    rng = np.random.default_rng(11)
    for n in (16, 17, 64, 300, 2048, 2049):
        t = np.linspace(0.0, 1.0, n)
        for v in (rng.uniform(size=n),
                  np.sin(2 * np.pi * rng.uniform(1, 12) * t) + 0.1 * rng.normal(size=n),
                  np.cumsum(rng.normal(size=n)),
                  np.tile([0.0, 0.0, 1.0, 1.0], n)[:n]):
            s = minmax_normalize(v)
            r = autocorrelation(s)
            expected = autocorrelation_oracle(s.values)
            assert r.shape == expected.shape
            assert np.max(np.abs(r - expected)) < 1e-12
            assert _find_cycle_lag(r) == _find_cycle_lag(expected)


def test_autocorrelation_degenerate():
    with pytest.raises(Degenerate):
        autocorrelation(minmax_normalize(np.full(64, 1.5)))


# ---------------------------------------------------------------------------
# Series construction
# ---------------------------------------------------------------------------

BLOCK = np.tile(np.linspace(0.0, 1.0, 300), (2, 1))
PARAMS = DetectorParams()
ONE_D_ONLY = {
    "resample_linear": lambda s: resample_linear(s, 512),
    "polyfit": lambda s: polyfit(s, 1),
    "moving_average": lambda s: moving_average(s, 3),
    **{f"score_{name}": lambda s, name=name: getattr(detectors, f"score_{name}")(s)
       for name in ("trend", "curvature", "linearity")},
    **{f"score_{name}": lambda s, name=name: getattr(detectors, f"score_{name}")(s, PARAMS)
       for name in ("constancy", "smooth", "noise", "complexity", "periodicity",
                    "symmetry", "step", "amplitude")},
    "score_spikes": lambda s: detectors.score_spikes(s, PARAMS, "up"),
    "nearnbr_caption": lambda s: nearnbr_caption(
        s, TrainIndex(ids=["a"], matrix=np.zeros((1, BLOCK.size)), captions=["c"])),
    "NormalizedSeries": lambda s: NormalizedSeries(values=s),
    "Series": lambda s: Series(values=s),
}
BLOCK_KERNELS = {
    "score_all": score_all,
    "minmax_normalize": minmax_normalize,
    "median_filter": lambda s: median_filter(s, 3),
}


@pytest.mark.parametrize("call, signal", [
    *[pytest.param(call, BLOCK, id=f"{name}-block") for name, call in ONE_D_ONLY.items()],
    *[pytest.param(call, bad, id=f"{name}-{kind}") for name, call in BLOCK_KERNELS.items()
      for kind, bad in (("list-2d", BLOCK.tolist()), ("array-3d", BLOCK[None]))],
])
def test_a_signal_is_1d_and_a_block_a_2d_ndarray(call, signal):
    # one rule refuses the shape; nothing flattens it into one long signal
    shape = np.shape(signal)
    message = re.escape(f"expected a 1-D signal, got shape {shape}")
    with pytest.raises(InvalidSignal, match=message):
        call(signal)


def test_series_rejects_short_and_non_finite():
    with pytest.raises(TooShort):
        Series(values=np.zeros(MIN_SERIES_LEN - 1))
    with pytest.raises(InvalidSignal):
        Series(values=np.array([np.nan] + [0.0] * 31))
    Series(values=np.zeros(MIN_SERIES_LEN))
