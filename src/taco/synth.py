"""Synthetic labeled signals: named function shapes plus optional overlays.

Every base shape is a closed-form expression on the uniform grid over [0, 1]
with a unit value scale, so overlay magnitudes mean the same thing for every
shape.  Overlays are applied on top in a fixed order (noise, smoothing,
quantized steps, spikes) using a generator seeded from the spec, so a spec
fully determines its output.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import InvalidArgument, InvalidSpec
from .signal import grid, moving_average

DEFAULT_LENGTH = 2048

#: Fraction of samples at each edge where spikes are never placed, so the
#: detectors' edge padding cannot swallow them.
SPIKE_EDGE_MARGIN = 0.02

@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic signal.

    ``shape_params`` hold the named knobs of the base shape (period count,
    center, width, steepness); ``overlays`` maps overlay name to its own
    parameter dict.  The seed drives every random choice inside
    :func:`generate`.
    """

    base_shape: str
    shape_params: dict = field(default_factory=dict)
    overlays: dict = field(default_factory=dict)
    length: int = DEFAULT_LENGTH
    seed: int = 0


@dataclass(frozen=True)
class SynthRecord:
    """A generated signal with its shape/overlay names and forward caption."""

    values: np.ndarray
    forward_classes: list
    caption: str


def _shape_constant(t, params):
    return np.full_like(t, 0.5)


def _shape_linear_increase(t, params):
    return t.copy()


def _shape_convex(t, params):
    c = params.get("center", 0.5)
    return (t - c) ** 2 / max(c * c, (1.0 - c) ** 2)


def _shape_exp_growth(t, params):
    k = params.get("steepness", 3.0)
    return (np.exp(k * t) - 1.0) / (math.exp(k) - 1.0)


def _shape_exp_decay(t, params):
    k = params.get("steepness", 3.0)
    return (np.exp(-k * t) - math.exp(-k)) / (1.0 - math.exp(-k))


def _shape_inv_exp_growth(t, params):
    k = params.get("steepness", 3.0)
    return (1.0 - np.exp(-k * t)) / (1.0 - math.exp(-k))


def _shape_inv_exp_decay(t, params):
    k = params.get("steepness", 3.0)
    return (math.exp(k) - np.exp(k * t)) / (math.exp(k) - 1.0)


def _shape_sigmoid(t, params):
    k = params.get("steepness", 10.0)
    c = params.get("center", 0.5)
    raw = 1.0 / (1.0 + np.exp(-k * (t - c)))
    lo = 1.0 / (1.0 + math.exp(k * c))
    hi = 1.0 / (1.0 + math.exp(-k * (1.0 - c)))
    return (raw - lo) / (hi - lo)


def _shape_cubic(t, params):
    c = params.get("center", 0.5)
    return ((t - c) ** 3 + c ** 3) / ((1.0 - c) ** 3 + c ** 3)


def _shape_gaussian(t, params):
    c = params.get("center", 0.5)
    w = params.get("width", 0.15)
    return np.exp(-0.5 * ((t - c) / w) ** 2)


def _shape_sinusoidal(t, params):
    p = params.get("periods", 4)
    phase = params.get("phase", 0.0)
    return 0.5 + 0.5 * np.sin(2.0 * np.pi * p * t + phase)


def _shape_square(t, params):
    p = params.get("periods", 4)
    return np.where(np.mod(p * t, 1.0) < 0.5, 1.0, 0.0)


def _shape_sawtooth(t, params):
    p = params.get("periods", 4)
    return np.mod(p * t, 1.0)


def _shape_triangle(t, params):
    p = params.get("periods", 2)
    return 1.0 - np.abs(1.0 - 2.0 * np.mod(p * t, 1.0))


def _inverted(base):
    return lambda t, params: 1.0 - base(t, params)


def _spike_positions(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    margin = max(1, int(round(SPIKE_EDGE_MARGIN * n)))
    room = n - 2 * margin
    return np.sort(margin + rng.choice(room, size=min(count, room), replace=False))


def _overlay_noisy(values, params, rng):
    magnitude = float(params.get("magnitude", 0.2))
    if not 0.0 <= magnitude <= 0.5:
        raise InvalidSpec(f"noise magnitude must be in [0, 0.5], got {magnitude}")
    return values + rng.uniform(-magnitude, magnitude, values.size)


def _overlay_smooth(values, params, rng):
    window = max(3, int(round(float(params.get("window_frac", 0.02)) * values.size)))
    return moving_average(values, min(window, values.size))


def _overlay_steppy(values, params, rng):
    count = int(params.get("count", 2))
    if count < 1:
        raise InvalidSpec(f"step count must be >= 1, got {count}")
    return np.round(values * count) / count


def _overlay_spikes(values, params, rng, signs):
    """Add ``count`` spikes of ``amplitude``; the k-th spike's sign is
    ``signs[k % len(signs)]``."""
    amplitude = float(params.get("amplitude", 0.5))
    count = int(params.get("count", 3))
    if count < 1:
        raise InvalidSpec(f"spike count must be >= 1, got {count}")
    out = values.copy()
    positions = _spike_positions(rng, values.size, count)
    out[positions] += np.resize(signs, positions.size) * amplitude
    return out


#: A base shape: its evaluator on the [0, 1] grid, its forward caption and
#: its sampled knobs as ``name -> (lo, hi)`` in draw order.  An overlay has
#: the same three, its function taking ``(values, params, rng)``.
_Shape = namedtuple("_Shape", "evaluate caption knobs")
_Overlay = namedtuple("_Overlay", "apply caption knobs")

# Knob ranges shared by a family of shapes or of overlays.
_CONVEX_KNOBS = {"center": (0.25, 0.75)}
_EXP_KNOBS = {"steepness": (2.0, 5.0)}
_SIGMOID_KNOBS = {"steepness": (5.0, 20.0), "center": (0.35, 0.65)}
_CUBIC_KNOBS = {"center": (0.4, 0.6)}
_GAUSSIAN_KNOBS = {"center": (0.25, 0.75), "width": (0.05, 0.3)}
_WAVE_KNOBS = {"periods": (1, 8)}
_SPIKE_KNOBS = {"amplitude": (0.3, 0.8), "count": (1, 5)}

#: Base shapes in canonical order.  A shape with a ``periods`` knob is
#: periodic.
_SHAPES = {
    "Constant": _Shape(_shape_constant, "The signal is constant.", {}),
    "LinearIncrease": _Shape(_shape_linear_increase, "The signal increases linearly.", {}),
    "LinearDecrease": _Shape(
        _inverted(_shape_linear_increase), "The signal decreases linearly.", {}),
    "Concave": _Shape(_inverted(_shape_convex), "The signal has a concave shape.", _CONVEX_KNOBS),
    "Convex": _Shape(_shape_convex, "The signal has a convex shape.", _CONVEX_KNOBS),
    "ExpGrowth": _Shape(_shape_exp_growth, "The signal grows exponentially.", _EXP_KNOBS),
    "ExpDecay": _Shape(_shape_exp_decay, "The signal decays exponentially.", _EXP_KNOBS),
    "InvExpGrowth": _Shape(
        _shape_inv_exp_growth,
        "The signal follows an inverted exponential growth curve.", _EXP_KNOBS),
    "InvExpDecay": _Shape(
        _shape_inv_exp_decay,
        "The signal follows an inverted exponential decay curve.", _EXP_KNOBS),
    "Sigmoid": _Shape(_shape_sigmoid, "The signal follows a sigmoid curve.", _SIGMOID_KNOBS),
    "InvSigmoid": _Shape(
        _inverted(_shape_sigmoid),
        "The signal follows an inverted sigmoid curve.", _SIGMOID_KNOBS),
    "Cubic": _Shape(_shape_cubic, "The signal follows a cubic curve.", _CUBIC_KNOBS),
    "NegCubic": _Shape(
        _inverted(_shape_cubic), "The signal follows a negative cubic curve.", _CUBIC_KNOBS),
    "Gaussian": _Shape(
        _shape_gaussian, "The signal follows a Gaussian curve.", _GAUSSIAN_KNOBS),
    "InvGaussian": _Shape(
        _inverted(_shape_gaussian),
        "The signal follows an inverted Gaussian curve.", _GAUSSIAN_KNOBS),
    "Sinusoidal": _Shape(
        _shape_sinusoidal, "The signal follows a sinusoidal wave.",
        _WAVE_KNOBS | {"phase": (0.0, 2.0 * math.pi)}),
    "Square": _Shape(_shape_square, "The signal follows a square wave.", _WAVE_KNOBS),
    "Sawtooth": _Shape(_shape_sawtooth, "The signal follows a sawtooth wave.", _WAVE_KNOBS),
    "ReverseSawtooth": _Shape(
        _inverted(_shape_sawtooth), "The signal follows a reverse sawtooth wave.", _WAVE_KNOBS),
    "Triangle": _Shape(
        _shape_triangle, "The signal follows a triangle wave.", {"periods": (1, 4)}),
}

#: Overlays in canonical (application and caption) order.
_OVERLAYS = {
    "Noisy": _Overlay(_overlay_noisy, "The signal contains a lot of noise.",
                      {"magnitude": (0.05, 0.5)}),
    "Smooth": _Overlay(_overlay_smooth, "The signal has a smooth shape.",
                       {"window_frac": (0.01, 0.05)}),
    "Steppy": _Overlay(_overlay_steppy, "The signal changes in step-like increments.",
                       {"count": (1, 4)}),
    "PosSpiky": _Overlay(partial(_overlay_spikes, signs=(1.0,)),
                         "The signal contains sudden positive spikes.", _SPIKE_KNOBS),
    "NegSpiky": _Overlay(partial(_overlay_spikes, signs=(-1.0,)),
                         "The signal contains sudden negative spikes.", _SPIKE_KNOBS),
    "PosNegSpiky": _Overlay(
        partial(_overlay_spikes, signs=(1.0, -1.0)),
        "The signal contains sudden positive and negative spikes.", _SPIKE_KNOBS),
}

#: Shape and overlay names, each in canonical order.
SHAPE_NAMES = tuple(_SHAPES)
OVERLAY_NAMES = tuple(_OVERLAYS)



def _validate_spec(spec: SynthSpec) -> None:
    if spec.base_shape not in _SHAPES:
        raise InvalidSpec(f"unknown base shape: {spec.base_shape!r}")
    for name in spec.overlays:
        if name not in _OVERLAYS:
            raise InvalidSpec(f"unknown overlay: {name!r}")
    if "periods" in _SHAPES[spec.base_shape].knobs:
        if spec.shape_params.get("periods", 1) < 1:
            raise InvalidSpec("period count must be >= 1 for periodic shapes")
    if spec.length < 2:
        raise InvalidSpec(f"length must be >= 2, got {spec.length}")


def forward_caption(spec: SynthSpec) -> str:
    """Caption derived from the shape and overlay names, canonical order."""
    _validate_spec(spec)
    return _caption(forward_class_names(spec))


def _caption(names: list[str]) -> str:
    base, *overlays = names
    return " ".join([_SHAPES[base].caption] + [_OVERLAYS[n].caption for n in overlays])


def forward_class_names(spec: SynthSpec) -> list[str]:
    return [spec.base_shape] + [n for n in OVERLAY_NAMES if n in spec.overlays]


def generate(spec: SynthSpec) -> SynthRecord:
    """Evaluate a spec into a signal, fully determined by the spec itself."""
    _validate_spec(spec)
    t = grid(spec.length)
    values = np.asarray(_SHAPES[spec.base_shape].evaluate(t, spec.shape_params), dtype=float)
    rng = np.random.default_rng(spec.seed)
    for name, overlay in _OVERLAYS.items():
        if name in spec.overlays:
            values = overlay.apply(values, spec.overlays[name], rng)
    names = forward_class_names(spec)
    return SynthRecord(values=values, forward_classes=names, caption=_caption(names))


#: Probability that each overlay is present in a sampled spec.
OVERLAY_PROBABILITY = 0.3


def _sample_params(rng: np.random.Generator, ranges: dict) -> dict:
    """One draw per knob, in the order given: an integer in [lo, hi] for
    integer bounds, else uniform on [lo, hi)."""
    return {
        name: int(rng.integers(lo, hi + 1)) if isinstance(lo, int)
        else float(rng.uniform(lo, hi))
        for name, (lo, hi) in ranges.items()
    }


def sample_spec(rng_seed: int, constraints=None,
                length: int = DEFAULT_LENGTH) -> SynthSpec:
    """Sample a random spec: uniform shape choice, knobs from the catalogue's
    ranges, each overlay included with probability :data:`OVERLAY_PROBABILITY`."""
    if constraints is not None:
        shapes = sorted(set(constraints))
        if not shapes:
            raise InvalidArgument("constraint set must not be empty")
        for shape in shapes:
            if shape not in _SHAPES:
                raise InvalidSpec(f"unknown base shape in constraints: {shape!r}")
    else:
        shapes = list(SHAPE_NAMES)
    rng = np.random.default_rng(rng_seed)
    # the draw rng.choice(shapes) makes; numpy's choice on an array can drop
    # a KeyboardInterrupt raised while it runs, which loses a Ctrl-C
    base = shapes[int(rng.integers(len(shapes)))]
    shape_params = _sample_params(rng, _SHAPES[base].knobs)
    overlays = {}
    for name, overlay in _OVERLAYS.items():
        if rng.random() < OVERLAY_PROBABILITY:
            overlays[name] = _sample_params(rng, overlay.knobs)
    seed = int(rng.integers(0, 2 ** 63 - 1))
    return SynthSpec(
        base_shape=base,
        shape_params=shape_params,
        overlays=overlays,
        length=length,
        seed=seed,
    )
