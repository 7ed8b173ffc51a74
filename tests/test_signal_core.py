"""Core signal operations against independent oracles and invariants."""

import numpy as np
import pytest

from taco.detectors import DetectorParams, _find_cycle_lag
from taco.errors import Degenerate, InvalidArgument, InvalidSignal, TooShort
from taco.signal import (
    MIN_SERIES_LEN,
    NormalizedSeries,
    Series,
    autocorrelation,
    median_filter,
    minmax_normalize,
    moving_average,
    polyfit,
    resample_linear,
    segment,
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


# ---------------------------------------------------------------------------
# resample_linear
# ---------------------------------------------------------------------------

def test_resample_segment():
    assert resample_linear([0.0, 1.0], 5) == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


def test_resample_identity_grid():
    rng = np.random.default_rng(3)
    v = rng.normal(size=77)
    assert np.array_equal(resample_linear(v, 77), v)


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

def test_series_rejects_short_and_non_finite():
    with pytest.raises(TooShort):
        Series(values=np.zeros(MIN_SERIES_LEN - 1))
    with pytest.raises(InvalidSignal):
        Series(values=np.array([np.nan] + [0.0] * 31))
    Series(values=np.zeros(MIN_SERIES_LEN))
