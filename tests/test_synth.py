"""Forward-approach generation: shapes, overlays, determinism, sampling."""

import numpy as np
import pytest

from taco.detectors import DetectorParams, score_smooth
from taco.errors import InvalidArgument, InvalidSpec
from taco.signal import minmax_normalize
from taco.synth import (
    OVERLAY_NAMES,
    SHAPE_NAMES,
    SPIKE_EDGE_MARGIN,
    SynthSpec,
    _spike_positions,
    forward_caption,
    generate,
    sample_spec,
)


def test_constant_flat():
    rec = generate(SynthSpec("Constant", length=256))
    assert np.all(rec.values == rec.values[0])
    assert rec.forward_classes == ["Constant"]


def test_sinusoidal_closed_form():
    spec = SynthSpec("Sinusoidal", {"periods": 4, "phase": 0.0}, length=2048)
    rec = generate(spec)
    t = np.linspace(0.0, 1.0, 2048)
    expected = 0.5 + 0.5 * np.sin(2 * np.pi * 4 * t)
    assert np.max(np.abs(rec.values - expected)) < 1e-9


def test_seed_determinism():
    spec = SynthSpec("LinearIncrease", overlays={"Noisy": {"magnitude": 0.05}}, seed=7)
    a = generate(spec)
    b = generate(spec)
    assert a.values.tobytes() == b.values.tobytes()
    assert a.caption == b.caption


def test_different_seeds_differ():
    base = dict(base_shape="Constant", overlays={"Noisy": {"magnitude": 0.1}})
    a = generate(SynthSpec(**base, seed=1))
    b = generate(SynthSpec(**base, seed=2))
    assert not np.array_equal(a.values, b.values)


def test_unknown_shape_rejected():
    with pytest.raises(InvalidSpec):
        generate(SynthSpec("Helix"))


def test_unknown_overlay_rejected():
    with pytest.raises(InvalidSpec):
        generate(SynthSpec("Constant", overlays={"Glitter": {}}))


def test_invalid_period_count_rejected():
    with pytest.raises(InvalidSpec):
        generate(SynthSpec("Square", {"periods": 0}))


def test_noise_magnitude_bounds():
    with pytest.raises(InvalidSpec):
        generate(SynthSpec("Constant", overlays={"Noisy": {"magnitude": 0.9}}))


def test_spikes_avoid_edges():
    spec = SynthSpec("Constant",
                     overlays={"PosSpiky": {"amplitude": 1.0, "count": 5}},
                     length=1000, seed=3)
    values = generate(spec).values
    spiked = np.nonzero(values != values[0])[0]
    assert spiked.size == 5
    assert spiked.min() >= 20 and spiked.max() < 980


@pytest.mark.parametrize("n", [2, 3, 16, 300, 2048])
def test_spike_positions_draw_as_from_the_candidate_array(n):
    # choice on the count of candidates picks the indices that choice on the
    # candidate array picks, and leaves the generator in the same state
    margin = max(1, int(round(SPIKE_EDGE_MARGIN * n)))
    for count in range(8):
        for seed in range(20):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            candidates = np.arange(margin, n - margin)
            expected = np.sort(ref.choice(candidates, size=min(count, candidates.size),
                                          replace=False))
            got = _spike_positions(rng, n, count)
            assert got.dtype == expected.dtype and got.tolist() == expected.tolist()
            assert rng.random() == ref.random()


def test_posneg_spikes_go_both_ways():
    spec = SynthSpec("Constant",
                     overlays={"PosNegSpiky": {"amplitude": 0.5, "count": 4}},
                     seed=11)
    values = generate(spec).values
    assert (values > values.min() + 0.9).sum() >= 1
    assert (values < values.max() - 0.9).sum() >= 1


@pytest.mark.parametrize("name, signs", [
    ("PosSpiky", [1, 1, 1, 1]),
    ("NegSpiky", [-1, -1, -1, -1]),
    ("PosNegSpiky", [1, -1, 1, -1]),
])
def test_spike_overlay_sign_patterns(name, signs):
    # spikes in position order carry the overlay's sign pattern, cycled
    spec = SynthSpec("Constant", overlays={name: {"amplitude": 0.25, "count": 4}},
                     length=500, seed=5)
    offsets = generate(spec).values - 0.5
    spiked = np.flatnonzero(offsets)
    assert offsets[spiked].tolist() == [0.25 * s for s in signs]


def test_steppy_quantizes_to_levels():
    spec = SynthSpec("LinearIncrease", overlays={"Steppy": {"count": 2}})
    values = generate(spec).values
    assert set(np.unique(values)) <= {0.0, 0.5, 1.0}


# ---------------------------------------------------------------------------
# forward captions
# ---------------------------------------------------------------------------

def test_forward_caption_sigmoid():
    assert forward_caption(SynthSpec("Sigmoid")) == "The signal follows a sigmoid curve."


def test_forward_caption_constant():
    assert forward_caption(SynthSpec("Constant")) == "The signal is constant."


def test_forward_caption_overlay_appended():
    spec = SynthSpec("LinearIncrease", overlays={"Noisy": {"magnitude": 0.1}})
    got = forward_caption(spec)
    assert got.startswith("The signal increases linearly.")
    assert "noise" in got


def test_forward_classes_include_overlays():
    spec = SynthSpec("Gaussian", overlays={"Steppy": {"count": 2},
                                           "Noisy": {"magnitude": 0.1}})
    assert generate(spec).forward_classes == ["Gaussian", "Noisy", "Steppy"]


# ---------------------------------------------------------------------------
# sample_spec
# ---------------------------------------------------------------------------

def test_sample_spec_deterministic():
    assert sample_spec(123) == sample_spec(123)


def test_sample_spec_respects_constraints():
    for seed in range(20):
        assert sample_spec(seed, constraints={"Sigmoid"}).base_shape == "Sigmoid"


def test_sample_spec_empty_constraints():
    with pytest.raises(InvalidArgument):
        sample_spec(0, constraints=set())


def test_sample_spec_unknown_constraint():
    with pytest.raises(InvalidSpec):
        sample_spec(0, constraints={"Spiral"})


def test_sample_spec_covers_every_shape():
    seen = {sample_spec(seed).base_shape for seed in range(1000)}
    assert seen == set(SHAPE_NAMES)


#: ``sample_spec(seed)`` for one seed per base shape: (base shape, shape
#: params, overlays, generator seed).  Every synthetic dataset depends on
#: this stream, so the draw order and method of every knob are fixed.
PINNED_SPECS = {
    23: ("Constant", {},
         {"Smooth": {"window_frac": 0.014548322005253174},
          "NegSpiky": {"amplitude": 0.409009318542868, "count": 4}},
         4341438180207744286),
    34: ("LinearIncrease", {},
         {"Smooth": {"window_frac": 0.03604245191446741}},
         4805311286309309219),
    11: ("LinearDecrease", {},
         {"Steppy": {"count": 1},
          "PosSpiky": {"amplitude": 0.7641055114801847, "count": 3},
          "NegSpiky": {"amplitude": 0.7741642266458875, "count": 1}},
         3403360859201049159),
    14: ("Concave", {"center": 0.4304733334171283},
         {},
         4308871221313643316),
    38: ("Convex", {"center": 0.3748679295325388},
         {"PosSpiky": {"amplitude": 0.7175451615069537, "count": 3}},
         4469512386881694235),
    105: ("ExpGrowth", {"steepness": 4.974379326443774},
          {"Noisy": {"magnitude": 0.2780169537963895},
           "Steppy": {"count": 3}},
          2631996087388884829),
    21: ("ExpDecay", {"steepness": 3.817541088712904},
         {"Smooth": {"window_frac": 0.035228576634956175},
          "NegSpiky": {"amplitude": 0.7791332226829212, "count": 4}},
         1818781966585499162),
    24: ("InvExpGrowth", {"steepness": 3.2155319469174315},
         {"PosNegSpiky": {"amplitude": 0.6712376353432813, "count": 2}},
         7566552486738508620),
    6: ("InvExpDecay", {"steepness": 3.0298126094400155},
        {},
        6271133543343943739),
    1: ("Sigmoid", {"steepness": 19.25695544488903, "center": 0.3932478838158901},
        {},
        254187954446631216),
    16: ("InvSigmoid", {"steepness": 11.461162182352783, "center": 0.37822214763845735},
         {"Steppy": {"count": 3},
          "PosNegSpiky": {"amplitude": 0.7012104814329521, "count": 1}},
         6415998164843139753),
    19: ("Cubic", {"center": 0.5851738689633408},
         {"Noisy": {"magnitude": 0.07702187185513701}},
         8451834470027323439),
    12: ("NegCubic", {"center": 0.5893505885718848},
         {"Noisy": {"magnitude": 0.1306811346881484},
          "Steppy": {"count": 2},
          "NegSpiky": {"amplitude": 0.7481546868523402, "count": 2},
          "PosNegSpiky": {"amplitude": 0.5707330808593971, "count": 5}},
         985529052932871145),
    5: ("Gaussian", {"center": 0.6539703948682469, "width": 0.17883139026053552},
        {"Noisy": {"magnitude": 0.0742688160717454},
         "PosSpiky": {"amplitude": 0.324378855363584, "count": 5}},
        2162974836438629302),
    4: ("InvGaussian", {"center": 0.5056637764071807, "width": 0.29406092642692605},
        {"Noisy": {"magnitude": 0.32331012439776335},
         "PosSpiky": {"amplitude": 0.7358176370938282, "count": 5}},
        4400964469065254490),
    10: ("Sinusoidal", {"periods": 8, "phase": 1.304903297657757},
         {"Smooth": {"window_frac": 0.030512184657462596},
          "Steppy": {"count": 2}},
         7612352449845629098),
    2: ("Square", {"periods": 3},
        {"Noisy": {"magnitude": 0.41640158326742616},
         "Smooth": {"window_frac": 0.03400402103862616},
         "PosSpiky": {"amplitude": 0.3275733136665341, "count": 3}},
        1384080083157576384),
    0: ("Sawtooth", {"periods": 6},
        {"Noisy": {"magnitude": 0.06843808577128761},
         "Smooth": {"window_frac": 0.0425308095680109}},
        8624520845998120949),
    7: ("ReverseSawtooth", {"periods": 6},
        {"Steppy": {"count": 1},
         "NegSpiky": {"amplitude": 0.7106142091913832, "count": 2}},
        4315938159125732496),
    39: ("Triangle", {"periods": 3},
         {"Smooth": {"window_frac": 0.022255462736866363},
          "NegSpiky": {"amplitude": 0.41458193334963306, "count": 4}},
         7052501897564580411),
}


@pytest.mark.parametrize("seed", sorted(PINNED_SPECS))
def test_sample_spec_stream_is_pinned(seed):
    spec = sample_spec(seed)
    got = (spec.base_shape, spec.shape_params, spec.overlays, spec.seed)
    assert repr(got) == repr(PINNED_SPECS[seed])  # repr also tells 3 from 3.0


def test_sampled_specs_generate():
    for seed in range(50):
        spec = sample_spec(seed, length=256)
        rec = generate(spec)
        assert rec.values.size == 256
        assert np.all(np.isfinite(rec.values))
        assert rec.forward_classes[0] == spec.base_shape
        assert set(rec.forward_classes[1:]) <= set(OVERLAY_NAMES)


# ---------------------------------------------------------------------------
# clean shapes stay smooth (discontinuous wave families excepted)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [s for s in SHAPE_NAMES
                                   if s not in ("Square", "Sawtooth", "ReverseSawtooth")])
def test_clean_shapes_pass_smooth_threshold(shape):
    params = DetectorParams()
    rng = np.random.default_rng(sum(map(ord, shape)))
    for trial in range(5):
        spec = sample_spec(int(rng.integers(0, 2 ** 31)), constraints={shape})
        spec = SynthSpec(spec.base_shape, spec.shape_params, {}, spec.length, spec.seed)
        normalized = minmax_normalize(generate(spec).values)
        if np.ptp(normalized.values) == 0.0:
            continue
        assert score_smooth(normalized, params) < 5e-4, spec
