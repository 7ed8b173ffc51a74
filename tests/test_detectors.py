"""Score procedures against analytic fixtures and independent oracles."""

import dataclasses
import math

import numpy as np
import pytest

from taco.annotator import assign_classes, default_config
from taco.detectors import (
    DEGENERATE_SCORES,
    NO_PERIOD,
    DetectorParams,
    ScoreVector,
    _median,
    score_all,
    score_amplitude,
    score_constancy,
    score_complexity,
    score_curvature,
    score_linearity,
    score_noise,
    score_periodicity,
    score_smooth,
    score_spikes,
    score_step,
    score_symmetry,
    score_trend,
)
from taco.errors import Degenerate, InvalidArgument, TooShort
from taco.signal import NormalizedSeries, minmax_normalize, segment

from oracles import (
    linear_fit_mse_oracle,
    mean_pairwise_w1_oracle,
    pearson_oracle,
    step_response_oracle,
    symmetry_oracle,
)

PARAMS = DetectorParams()


def grid(n):
    return np.linspace(0.0, 1.0, n)


def norm(values):
    return minmax_normalize(np.asarray(values, dtype=float))


def ramp(n=2048):
    return norm(grid(n))


def sine(cycles, n=2048, phase=0.0):
    return norm(0.5 + 0.5 * np.sin(2 * np.pi * cycles * grid(n) + phase))


def heaviside(n=2048):
    v = np.zeros(n)
    v[n // 2:] = 1.0
    return norm(v)


# ---------------------------------------------------------------------------
# trend
# ---------------------------------------------------------------------------

def test_trend_ramp():
    assert score_trend(norm([0.0, 0.25, 0.5, 0.75, 1.0])) == pytest.approx(1.0, abs=1e-12)


def test_trend_reversed_ramp():
    assert score_trend(norm([1.0, 0.75, 0.5, 0.25, 0.0])) == pytest.approx(-1.0, abs=1e-12)


def test_trend_full_cycle_no_drift():
    # a symmetric full cycle has no net trend
    s = norm(0.5 + 0.5 * np.cos(2 * np.pi * grid(2048)))
    got = score_trend(s)
    assert abs(got) < 0.05
    assert got == pytest.approx(pearson_oracle(grid(2048), s.values), abs=1e-12)


def test_trend_reversal_antisymmetry():
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = norm(rng.uniform(size=200))
        assert score_trend(s) == pytest.approx(
            -score_trend(norm(s.values[::-1])), abs=1e-12)


def test_trend_degenerate():
    with pytest.raises(Degenerate):
        score_trend(norm(np.full(64, 2.0)))


# ---------------------------------------------------------------------------
# constancy
# ---------------------------------------------------------------------------

def test_constancy_constant_is_zero():
    assert score_constancy(norm(np.full(64, 3.0)), PARAMS) == 0.0


def test_constancy_midpoint_step():
    v = heaviside(64)
    assert score_constancy(v, DetectorParams(k_segments=2)) == 1.0


def test_constancy_ramp_halves():
    # odd length: the two halves differ by exactly half the range
    s = ramp(2049)
    assert score_constancy(s, DetectorParams(k_segments=2)) == pytest.approx(0.5, abs=1e-6)


def test_constancy_matches_oracle():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(16, 65))
        s = norm(rng.uniform(size=n))
        k = PARAMS.effective_segments(n)
        assert score_constancy(s, PARAMS) == pytest.approx(
            mean_pairwise_w1_oracle(s.values, k), abs=1e-10)


# ---------------------------------------------------------------------------
# curvature / linearity
# ---------------------------------------------------------------------------

def test_curvature_parabola_signs():
    t = grid(512)
    gap_up, sign_up = score_curvature(norm((t - 0.5) ** 2))
    gap_dn, sign_dn = score_curvature(norm(-((t - 0.5) ** 2)))
    assert sign_up == 1 and sign_dn == -1
    assert gap_up > 0.005 and gap_dn > 0.005


def test_curvature_ramp_gap_vanishes():
    gap, _ = score_curvature(ramp())
    assert gap < 1e-10


def test_curvature_gap_never_negative():
    rng = np.random.default_rng(13)
    for _ in range(100):
        gap, _ = score_curvature(norm(rng.uniform(size=int(rng.integers(8, 128)))))
        assert gap >= 0.0


def test_linearity_ramp_zero():
    assert score_linearity(ramp()) < 1e-20


def test_linearity_matches_oracle():
    s3 = sine(3)
    assert score_linearity(s3) == pytest.approx(linear_fit_mse_oracle(s3.values), abs=1e-9)
    par = norm((grid(2048) - 0.5) ** 2)
    assert score_linearity(par) == pytest.approx(linear_fit_mse_oracle(par.values), abs=1e-9)


# ---------------------------------------------------------------------------
# smooth / noise
# ---------------------------------------------------------------------------

def test_smooth_constant_zero():
    assert score_smooth(norm(np.full(2048, 1.0)), PARAMS) == 0.0


def test_smooth_half_sine_tiny():
    s = norm(np.sin(np.pi * grid(2048)))
    assert score_smooth(s, PARAMS) < 1e-4


def test_smooth_white_noise_residual_variance():
    # residual variance identity: var * (1 - 1/window), window 41 at n=2048
    rng = np.random.default_rng(42)
    s = norm(rng.uniform(size=2048))
    expected = (1.0 / 12.0) * (1.0 - 1.0 / 41.0)
    assert score_smooth(s, PARAMS) == pytest.approx(expected, rel=0.2)


def test_noise_constant_zero():
    assert score_noise(norm(np.full(2048, 0.3)), PARAMS) == 0.0


def test_noise_rejects_isolated_spike():
    v = np.zeros(2048)
    v[1000] = 1.0
    assert score_noise(norm(v), PARAMS) < 0.1 * 1.0 ** 2


def test_noise_white_noise_fires():
    rng = np.random.default_rng(43)
    s = norm(rng.uniform(size=2048))
    assert score_noise(s, PARAMS) > 0.01


def test_noise_monotone_in_noise_level():
    rng = np.random.default_rng(44)
    t = grid(1024)
    base = np.sin(np.pi * t)
    wins = 0
    for _ in range(200):
        e = rng.uniform(-1.0, 1.0, 1024)
        lo = score_noise(norm(base + 0.05 * e), PARAMS)
        hi = score_noise(norm(base + 0.15 * e), PARAMS)
        wins += hi >= lo
    assert wins >= 190


# ---------------------------------------------------------------------------
# complexity
# ---------------------------------------------------------------------------

def test_complexity_ramp_zero():
    assert score_complexity(ramp(), PARAMS) < 1e-12


def test_complexity_sine_matches_oracle():
    s = sine(4)
    d = np.diff(s.values)
    expected = mean_pairwise_w1_oracle(d, PARAMS.effective_segments(d.size))
    assert score_complexity(s, PARAMS) == pytest.approx(expected, abs=1e-12)


def test_complexity_noise_above_sine():
    rng = np.random.default_rng(45)
    noisy = norm(rng.uniform(size=2048))
    assert score_complexity(noisy, PARAMS) > score_complexity(sine(4), PARAMS)


def test_complexity_matches_oracle_random():
    rng = np.random.default_rng(46)
    for _ in range(100):
        n = int(rng.integers(16, 65))
        s = norm(rng.uniform(size=n))
        d = np.diff(s.values)
        k = PARAMS.effective_segments(d.size)
        assert score_complexity(s, PARAMS) == pytest.approx(
            mean_pairwise_w1_oracle(d, k), abs=1e-10)


# ---------------------------------------------------------------------------
# spikes
# ---------------------------------------------------------------------------

def test_spike_up_isolated():
    v = np.full(2048, 0.5)
    v[1000] = 1.0
    s = NormalizedSeries(values=v)
    assert score_spikes(s, PARAMS, "up") == pytest.approx(0.5, abs=1e-9)


def test_spike_constant_no_excursion():
    s = NormalizedSeries(values=np.full(2048, 0.5))
    assert score_spikes(s, PARAMS, "up") <= 0.0


def test_spike_down_isolated():
    v = np.full(2048, 0.5)
    v[1000] = 0.0
    s = NormalizedSeries(values=v)
    assert score_spikes(s, PARAMS, "down") == pytest.approx(0.5, abs=1e-9)


def test_spike_rejects_bad_direction():
    with pytest.raises(InvalidArgument):
        score_spikes(ramp(), PARAMS, "sideways")


@pytest.mark.parametrize("length", [2, 3, 4, 7, 8, 127, 128, 204, 205])
def test_segment_median_equals_np_median_bit_for_bit(length):
    rng = np.random.default_rng(length)
    a = rng.random((3, 10, length)) * 10.0 ** rng.integers(-8, 9, (3, 10, 1))
    a[0, 0] = 0.25  # a segment of ties
    a[1, 1] = np.round(a[1, 1] * 4) / 4  # a segment of a few repeated values
    a[2, 2] = -0.0  # numpy takes the median of a -0.0 segment as +0.0
    assert _median(a).tobytes() == np.median(a, axis=-1).tobytes()
    # the strided segment views that the spike score takes its medians of
    segs = segment(rng.random((4, 10 * length + 3)), 10)
    assert _median(segs).tobytes() == np.median(segs, axis=-1).tobytes()


# ---------------------------------------------------------------------------
# periodicity
# ---------------------------------------------------------------------------

def test_periodicity_sine_negative_gap():
    s = sine(4)
    gap = score_periodicity(s, PARAMS)
    assert gap < 0.0
    e_linear = score_linearity(s)
    e_periodic = gap + e_linear
    assert e_periodic < 0.01 * e_linear


def test_periodicity_ramp_positive():
    assert score_periodicity(ramp(), PARAMS) > 0.0


def test_periodicity_constant_degenerate():
    with pytest.raises(Degenerate):
        score_periodicity(norm(np.full(64, 1.0)), PARAMS)


# ---------------------------------------------------------------------------
# symmetry
# ---------------------------------------------------------------------------

def test_symmetry_triangle_palindrome():
    half = grid(1024)
    v = np.concatenate([half, half[::-1]])
    assert score_symmetry(norm(v), PARAMS) == pytest.approx(0.0, abs=1e-12)


def test_symmetry_off_center_bump_recovered_by_padding():
    t = grid(2048)
    bump = np.exp(-0.5 * ((t - 0.25) / 0.05) ** 2)
    assert score_symmetry(norm(bump), PARAMS) < 1e-3


def test_symmetry_ramp_cannot_be_repaired():
    assert score_symmetry(ramp(), PARAMS) > 0.05


@pytest.mark.parametrize("n", [16, 17, 64, 301, 2048])
def test_symmetry_matches_oracle(n):
    # step 1 (frac 1/n) scores every pad width; flat edges make the padding
    # value repeat a run of the signal
    rng = np.random.default_rng(n)
    t = grid(n)
    signals = [rng.uniform(size=n), np.cumsum(rng.normal(size=n)),
               np.clip(3.0 * t - 1.0, 0.0, 1.0), np.clip(4.0 * t - 0.5, 0.0, 1.0) ** 2,
               np.exp(-0.5 * ((t - 0.3) / 0.05) ** 2)]
    for frac in (1.0, 1.0 / n, PARAMS.symmetry_pad_step_frac):
        p = DetectorParams(symmetry_pad_step_frac=frac)
        for v in signals:
            s = norm(v)
            expected = symmetry_oracle(s.values, p.pad_step(n))
            assert abs(score_symmetry(s, p) - expected) < 1e-12


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------

def test_step_heaviside_exact():
    assert score_step(heaviside(), PARAMS) == pytest.approx(1.0, abs=1e-9)


def test_step_constant_zero():
    assert score_step(norm(np.full(2048, 2.0)), PARAMS) == 0.0


def test_step_ramp_quarter():
    # n = 2049 makes the ramp dyadic: response is exactly h/(n-1) = 1/4
    assert score_step(ramp(2049), PARAMS) == pytest.approx(0.25, abs=1e-6)


def test_step_matches_sweep_oracle():
    rng = np.random.default_rng(47)
    for _ in range(10):
        s = norm(rng.uniform(size=128))
        lengths = PARAMS.kernel_lengths(128)
        assert score_step(s, PARAMS) == pytest.approx(
            step_response_oracle(s.values, lengths), abs=1e-12)


# ---------------------------------------------------------------------------
# amplitude
# ---------------------------------------------------------------------------

def test_amplitude_constant_zero():
    assert score_amplitude(norm(np.full(2048, 4.2)), PARAMS) == 0.0


def test_amplitude_balanced_square_wave():
    v = np.tile([0.0, 0.0, 1.0, 1.0], 512)
    assert score_amplitude(norm(v), PARAMS) == pytest.approx(0.25, abs=1e-9)


def test_amplitude_ramp_segment_variance():
    s = ramp(2048)
    # variance of 204 equally spaced points with step 1/2047
    d = 1.0 / 2047.0
    m = 204
    exact = d * d * (m * m - 1) / 12.0
    got = score_amplitude(s, PARAMS)
    assert got == pytest.approx(exact, rel=1e-12)
    assert got == pytest.approx(0.01 / 12.0, rel=0.02)


# ---------------------------------------------------------------------------
# score_all and cross-cutting invariants
# ---------------------------------------------------------------------------

def test_score_all_ramp_composite():
    scores = score_all(ramp(2049), PARAMS)
    assert scores.trend == pytest.approx(1.0, abs=1e-12)
    assert scores.linearity_mse < 1e-20
    assert scores.step_response == pytest.approx(0.25, abs=1e-6)
    assert scores != DEGENERATE_SCORES


def test_score_all_degenerate_sentinels():
    scores = score_all(norm(np.full(64, 7.0)), PARAMS)
    assert scores == DEGENERATE_SCORES
    assert scores.trend == 0.0 and scores.curvature_sign == 0
    assert scores.constancy == 0.0
    assert scores.amplitude_var == 0.0
    assert scores.periodicity_gap == NO_PERIOD


def _mixed_corpus():
    yield np.random.default_rng(48).uniform(size=512)
    rng = np.random.default_rng(51)
    for n in (16, 17, 64, 300, 2048, 2049):
        t = grid(n)
        yield rng.normal(size=n)
        yield np.sin(2 * np.pi * rng.uniform(1, 12) * t) + 0.1 * rng.normal(size=n)
        yield np.cumsum(rng.normal(size=n))
        yield (t > rng.uniform(0.2, 0.8)) + 0.01 * rng.normal(size=n)
        spiky = 0.05 * rng.normal(size=n)
        spiky[rng.integers(0, n, 3)] += rng.choice([-1.0, 1.0], 3)
        yield spiky
        yield (t - 0.5) ** 2
        yield np.round(rng.uniform(size=n) * 3)


def test_score_all_equals_individual_calls():
    cfg = default_config()
    for values in _mixed_corpus():
        s = norm(values)
        scores = score_all(s, PARAMS)
        gap, sign = score_curvature(s)
        individual = ScoreVector(
            trend=score_trend(s),
            constancy=score_constancy(s, PARAMS),
            curvature=gap,
            curvature_sign=sign,
            linearity_mse=score_linearity(s),
            smooth_mse=score_smooth(s, PARAMS),
            noise_mse=score_noise(s, PARAMS),
            complexity=score_complexity(s, PARAMS),
            spike_pos=score_spikes(s, PARAMS, "up"),
            spike_neg=score_spikes(s, PARAMS, "down"),
            periodicity_gap=score_periodicity(s, PARAMS),
            symmetry_err=score_symmetry(s, PARAMS),
            step_response=score_step(s, PARAMS),
            amplitude_var=score_amplitude(s, PARAMS),
        )
        assert scores == individual, values.size
        assert assign_classes(scores, cfg) == assign_classes(individual, cfg)


def _bits(scores: ScoreVector) -> str:
    """Every score's exact bits, the sign of zero included."""
    return repr(dataclasses.astuple(scores))


@pytest.mark.parametrize("n", [64, 2048])
def test_score_all_block_row_equals_the_row_alone(n):
    # a row's scores must not depend on the rows beside it: the row at each
    # position of a block of 8 random neighbours, then in blocks of 1 to 8
    rng = np.random.default_rng(n)
    t = grid(n)
    signals = [rng.normal(size=n), np.sin(2 * np.pi * 5.5 * t) + 0.1 * rng.normal(size=n),
               (t > 0.4) + 0.01 * rng.normal(size=n), np.round(rng.uniform(size=n) * 3),
               (t - 0.5) ** 2, np.full(n, 2.0)]
    for values in signals:
        alone = score_all(norm(values), PARAMS)
        row = norm(values).values
        for size in range(1, 9):
            for position in (range(8) if size == 8 else [size - 1]):
                block = np.array([norm(np.cumsum(rng.normal(size=n))).values
                                  if rng.uniform() < 0.9 else np.zeros(n)
                                  for _ in range(size)])
                block[position] = row
                scored = score_all(block, PARAMS)
                assert len(scored) == size
                assert _bits(scored[position]) == _bits(alone), (size, position)


def test_score_all_block_of_rows_and_of_none():
    assert score_all(np.zeros((0, 64)), PARAMS) == []
    with pytest.raises(TooShort):
        score_all(np.ones((3, 15)), PARAMS)


def test_reversal_invariant_scores():
    # segment-based scores are reversal-invariant when k divides n exactly
    rng = np.random.default_rng(49)
    for _ in range(20):
        s = norm(rng.uniform(size=2000))
        rev = norm(s.values[::-1])
        assert score_constancy(s, PARAMS) == pytest.approx(
            score_constancy(rev, PARAMS), abs=1e-9)
        assert score_symmetry(s, PARAMS) == pytest.approx(
            score_symmetry(rev, PARAMS), abs=1e-9)
        assert score_amplitude(s, PARAMS) == pytest.approx(
            score_amplitude(rev, PARAMS), abs=1e-9)
        assert score_step(s, PARAMS) == pytest.approx(
            score_step(rev, PARAMS), abs=1e-9)


def test_affine_invariance_of_scores():
    rng = np.random.default_rng(50)
    for _ in range(10):
        v = rng.normal(size=512)
        a = rng.uniform(0.1, 20.0)
        b = rng.uniform(-50.0, 50.0)
        s1 = score_all(minmax_normalize(v), PARAMS)
        s2 = score_all(minmax_normalize(a * v + b), PARAMS)
        for name, x1 in s1.as_dict().items():
            x2 = getattr(s2, name)
            if math.isinf(x1):
                assert math.isinf(x2)
            else:
                assert x2 == pytest.approx(x1, abs=1e-9), name
