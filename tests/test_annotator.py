"""Class assignment, config validation and annotation-level invariants."""

import hashlib
import json
import math
import sys

import numpy as np
import pytest

from taco.annotator import (
    CONSTANT_EXCLUDES,
    DEFAULT_RULES,
    EXCLUSIVITY_GROUPS,
    Annotation,
    ClassRule,
    ThresholdConfig,
    TimeSeriesClass,
    annotate,
    assign_classes,
    config_digest,
    default_config,
    load_config,
)
from taco.detectors import DEGENERATE_SCORES, DetectorParams, ScoreVector, _find_cycle_lag
from taco.errors import InvalidConfig, TooShort
from taco.signal import Series, autocorrelation, minmax_normalize
from taco.synth import generate, sample_spec

CFG = default_config()
PARAMS = DetectorParams()


def make_scores(**overrides):
    base = dict(
        trend=0.0, constancy=1.0, curvature=0.0, curvature_sign=0,
        linearity_mse=0.005, smooth_mse=0.001, noise_mse=0.0, complexity=0.02,
        spike_pos=0.0, spike_neg=0.0, periodicity_gap=0.0, symmetry_err=0.01,
        step_response=0.2, amplitude_var=0.02,
    )
    base.update(overrides)
    return ScoreVector(**base)


# ---------------------------------------------------------------------------
# assign_classes
# ---------------------------------------------------------------------------

def test_rising_rule_fires_exclusively():
    classes = assign_classes(make_scores(trend=0.95), CFG)
    assert TimeSeriesClass.RISING in classes
    assert TimeSeriesClass.FALLING not in classes


def test_gap_band_assigns_neither():
    classes = assign_classes(make_scores(trend=0.5), CFG)
    assert TimeSeriesClass.RISING not in classes
    assert TimeSeriesClass.FALLING not in classes


def test_degenerate_sentinel_bypass_set():
    classes = assign_classes(DEGENERATE_SCORES, CFG)
    assert classes == {
        TimeSeriesClass.CONSTANT, TimeSeriesClass.LINEAR, TimeSeriesClass.SMOOTH,
        TimeSeriesClass.SIMPLE, TimeSeriesClass.APERIODIC, TimeSeriesClass.SYMMETRY,
        TimeSeriesClass.NOSTEP, TimeSeriesClass.LOW_AMPLITUDE,
    }


def test_constant_dominance_suppresses_trend_classes():
    scores = make_scores(trend=0.95, constancy=0.001, periodicity_gap=-0.1)
    classes = assign_classes(scores, CFG)
    assert TimeSeriesClass.CONSTANT in classes
    assert not classes & CONSTANT_EXCLUDES


def test_exclusivity_on_random_score_vectors():
    rng = np.random.default_rng(60)
    for _ in range(2000):
        scores = make_scores(
            trend=float(rng.uniform(-1.5, 1.5)),
            constancy=float(rng.uniform(0, 1)),
            curvature=float(rng.uniform(0, 0.2)),
            curvature_sign=int(rng.integers(-1, 2)),
            linearity_mse=float(rng.uniform(0, 0.2)),
            smooth_mse=float(rng.uniform(0, 0.05)),
            noise_mse=float(rng.uniform(0, 0.05)),
            complexity=float(rng.uniform(0, 0.2)),
            spike_pos=float(rng.uniform(-1, 1)),
            spike_neg=float(rng.uniform(-1, 1)),
            periodicity_gap=float(rng.uniform(-0.5, 0.5)),
            symmetry_err=float(rng.uniform(0, 0.5)),
            step_response=float(rng.uniform(0, 1)),
            amplitude_var=float(rng.uniform(0, 0.3)),
        )
        classes = assign_classes(scores, CFG)
        for first, second in EXCLUSIVITY_GROUPS:
            assert not (first in classes and second in classes)
        if TimeSeriesClass.CONSTANT in classes:
            assert not classes & CONSTANT_EXCLUDES


# ---------------------------------------------------------------------------
# config loading and validation
# ---------------------------------------------------------------------------

def test_default_config_valid_and_complete():
    cfg = default_config()
    assert set(cfg.rules) == set(TimeSeriesClass)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(default_config().to_json_dict()))
    cfg = load_config(path)
    assert cfg.rules == DEFAULT_RULES


def test_load_config_empty_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(InvalidConfig):
        load_config(path)


def test_load_config_missing_class(tmp_path):
    data = default_config().to_json_dict()
    del data["Rising"]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidConfig, match="Rising"):
        load_config(path)


def test_load_config_unknown_class_and_keys(tmp_path):
    data = default_config().to_json_dict()
    data["Wobbly"] = {"score": "trend", "direction": "greater", "cutoff": 0}
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidConfig, match="Wobbly"):
        load_config(path)

    data = default_config().to_json_dict()
    data["Rising"]["flavor"] = "spicy"
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidConfig, match="flavor"):
        load_config(path)


def test_double_fire_config_rejected():
    rules = dict(DEFAULT_RULES)
    rules[TimeSeriesClass.RISING] = ClassRule("trend", "greater", -1.0)
    rules[TimeSeriesClass.FALLING] = ClassRule("trend", "greater", -1.0)
    with pytest.raises(InvalidConfig, match="Rising"):
        ThresholdConfig(rules=rules)


def test_overlapping_cutoffs_rejected():
    rules = dict(DEFAULT_RULES)
    rules[TimeSeriesClass.LINEAR] = ClassRule("linearity_mse", "less", 0.05)
    rules[TimeSeriesClass.NONLINEAR] = ClassRule("linearity_mse", "greater", 0.01)
    with pytest.raises(InvalidConfig):
        ThresholdConfig(rules=rules)


def test_pair_on_different_scores_rejected():
    rules = dict(DEFAULT_RULES)
    rules[TimeSeriesClass.RISING] = ClassRule("trend", "greater", 0.8)
    rules[TimeSeriesClass.FALLING] = ClassRule("constancy", "less", -0.8)
    with pytest.raises(InvalidConfig):
        ThresholdConfig(rules=rules)


def test_rule_rejects_unknown_score():
    with pytest.raises(InvalidConfig):
        ClassRule("vibes", "greater", 0.0)


@pytest.mark.parametrize("cutoff", ["abc", None, 10**400, True, math.inf, math.nan],
                         ids=["string", "null", "past-float", "bool", "inf", "nan"])
def test_rule_refuses_a_cutoff_that_is_not_a_finite_number(cutoff):
    with pytest.raises(InvalidConfig, match="^cutoff must be a finite number, got "):
        ClassRule("trend", "greater", cutoff)


def test_integer_cutoffs_give_the_digest_of_their_floats(tmp_path):
    # a rule stores its cutoff as a float, so a config file that writes 1
    # for 1.0 hashes as the same config written with floats
    data = default_config().to_json_dict()
    data["Rising"]["cutoff"], data["Falling"]["cutoff"] = 1, -1
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(data))
    cfg = load_config(path)
    assert type(cfg.rules[TimeSeriesClass.RISING].cutoff) is float
    floats = dict(DEFAULT_RULES)
    floats[TimeSeriesClass.RISING] = ClassRule("trend", "greater", 1.0)
    floats[TimeSeriesClass.FALLING] = ClassRule("trend", "less", -1.0)
    assert config_digest(PARAMS, cfg) == config_digest(PARAMS, ThresholdConfig(rules=floats))


# ---------------------------------------------------------------------------
# annotate end-to-end
# ---------------------------------------------------------------------------

def test_annotate_sine_is_periodic():
    t = np.linspace(0.0, 1.0, 2048)
    ann = annotate(Series(values=np.sin(2 * np.pi * 4 * t)), PARAMS, CFG)
    assert TimeSeriesClass.PERIODIC in ann.classes


def test_annotate_heaviside_is_step():
    v = np.zeros(2048)
    v[1024:] = 1.0
    ann = annotate(Series(values=v), PARAMS, CFG)
    assert TimeSeriesClass.STEP in ann.classes


def test_annotate_too_short():
    with pytest.raises(TooShort):
        annotate(np.zeros(8), PARAMS, CFG)


def test_annotate_ramp_golden_set():
    ann = annotate(Series(values=np.linspace(0.0, 1.0, 2048)), PARAMS, CFG)
    golden = {
        TimeSeriesClass.RISING, TimeSeriesClass.LINEAR, TimeSeriesClass.SMOOTH,
        TimeSeriesClass.SIMPLE, TimeSeriesClass.APERIODIC,
        TimeSeriesClass.ASYMMETRY, TimeSeriesClass.LOW_AMPLITUDE,
    }
    assert set(ann.classes) == golden
    assert {TimeSeriesClass.RISING, TimeSeriesClass.LINEAR, TimeSeriesClass.SMOOTH,
            TimeSeriesClass.SIMPLE, TimeSeriesClass.LOW_AMPLITUDE} <= set(ann.classes)


def test_annotate_deterministic():
    rng = np.random.default_rng(61)
    v = rng.uniform(size=512)
    a1 = annotate(Series(values=v), PARAMS, CFG)
    a2 = annotate(Series(values=v), PARAMS, CFG)
    assert a1 == a2


def test_annotation_keeps_the_series_it_scored():
    v = np.random.default_rng(63).normal(size=512)
    annotation = annotate(v, PARAMS, CFG)
    assert annotation.normalized.tobytes() == minmax_normalize(v).values.tobytes()


def test_annotate_affine_invariance_of_classes():
    rng = np.random.default_rng(62)
    for _ in range(50):
        v = rng.normal(size=512)
        base = annotate(Series(values=v), PARAMS, CFG).classes
        a = rng.uniform(0.5, 10.0)
        b = rng.uniform(-5.0, 5.0)
        mapped = annotate(Series(values=a * v + b), PARAMS, CFG).classes
        assert mapped == base


def test_annotate_reversal_duality():
    rng = np.random.default_rng(63)
    t = np.linspace(0.0, 1.0, 512)
    for _ in range(50):
        v = t + 0.05 * rng.uniform(-1, 1, 512)
        fwd = annotate(Series(values=v), PARAMS, CFG).classes
        bwd = annotate(Series(values=v[::-1]), PARAMS, CFG).classes
        assert TimeSeriesClass.RISING in fwd
        assert TimeSeriesClass.FALLING in bwd


#: The class each negation-paired class becomes when a signal is negated.
NEGATED = {
    TimeSeriesClass.RISING: TimeSeriesClass.FALLING,
    TimeSeriesClass.FALLING: TimeSeriesClass.RISING,
    TimeSeriesClass.CONVEX: TimeSeriesClass.CONCAVE,
    TimeSeriesClass.CONCAVE: TimeSeriesClass.CONVEX,
    TimeSeriesClass.SPIKY: TimeSeriesClass.DROPOUT,
    TimeSeriesClass.DROPOUT: TimeSeriesClass.SPIKY,
}


def _seed1_signals(indices) -> np.ndarray:
    """Forward signals ``i`` of master seed 1, one per row, as ``synth`` draws them."""
    return np.array([generate(sample_spec(np.random.SeedSequence(entropy=(1, i)))).values
                     for i in indices])


def test_negation_mirrors_the_paired_classes():
    X = _seed1_signals(range(300))
    for start in range(0, len(X), 50):  # 50 rows a block keeps the scratch memory small
        block = X[start:start + 50]
        pairs = zip(annotate(block, PARAMS, CFG), annotate(-block, PARAMS, CFG))
        mismatched = [start + i for i, (ann, neg) in enumerate(pairs)
                      if neg.classes != {NEGATED.get(c, c) for c in ann.classes}]
        assert mismatched == []


def test_near_tie_signals_keep_their_cycle_lags_and_curvature_sign():
    # Scores that sit on a near-tie: under 1e-3x - 5, which moves the
    # normalised values of signal 22 by at most 4.4e-13, its cycle lag went
    # from 925 to 1005 and signal 202's from 690 to 659, and signal 177's
    # curvature_sign flipped from 1 to -1.  A kernel change that moves the
    # autocorrelation's or the quadratic fit's last bits fails here.
    a22, a202, a177 = annotate(_seed1_signals([22, 202, 177]), PARAMS, CFG)
    assert [_find_cycle_lag(autocorrelation(a.normalized)) for a in (a22, a202)] == [925, 690]
    assert a177.scores.curvature_sign == 1
    assert [a.class_names() for a in (a22, a202, a177)] == [
        ["Rising", "Nonlinear", "Simple", "Aperiodic", "Asymmetry", "Step", "HighAmplitude"],
        ["Rising", "Nonlinear", "Simple", "Aperiodic", "Asymmetry"],
        ["Falling", "Linear", "Smooth", "Simple", "Aperiodic", "Asymmetry", "LowAmplitude"],
    ]


def test_annotation_carries_digest_and_names():
    ann = annotate(Series(values=np.linspace(0, 1, 64)), PARAMS, CFG)
    assert isinstance(ann, Annotation)
    names = ann.class_names()
    assert names == sorted(names, key=lambda n: [c.value for c in TimeSeriesClass].index(n))


def test_config_digest_changes_with_rules():
    other = dict(DEFAULT_RULES)
    other[TimeSeriesClass.RISING] = ClassRule("trend", "greater", 0.9)
    assert config_digest(PARAMS, CFG) != config_digest(PARAMS, ThresholdConfig(rules=other))


@pytest.mark.parametrize("blocked", [(), ("_sha2",), ("_sha2", "_sha256")],
                         ids=["builtin", "no-sha2", "hashlib-fallback"])
def test_config_digest_matches_hashlib_on_every_import_branch(blocked, monkeypatch):
    # the built-in SHA-256 module (_sha2 on 3.12+, _sha256 before) and the
    # hashlib fallback give the same digest, so no record changes with the
    # interpreter build
    for name in blocked:
        monkeypatch.setitem(sys.modules, name, None)
    rules = dict(DEFAULT_RULES)
    rules[TimeSeriesClass.SPIKY] = ClassRule("spike_pos", "greater", 0.25)
    params = DetectorParams(k_segments=6, spike_sigma=2.5, step_kernel_fracs=(0.2, 0.4))
    for p, cfg in ((PARAMS, CFG), (params, ThresholdConfig(rules=rules))):
        payload = json.dumps({"params": p.to_json_dict(), "thresholds": cfg.to_json_dict()},
                             sort_keys=True, separators=(",", ":"))
        assert config_digest(p, cfg) == hashlib.sha256(payload.encode()).hexdigest()[:16]
    # the default digest, as the README's record shows it
    assert config_digest(PARAMS, CFG) == "f8f6afad68e930cb"


def test_score_vector_json_sentinel_is_representable():
    # the +inf no-period sentinel must survive the documented JSON mapping
    values = DEGENERATE_SCORES.as_dict()
    assert math.isinf(values["periodicity_gap"])
