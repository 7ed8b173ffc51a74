"""Library refusals that no command reaches, each raised with its message,
and the edge results that need no guard of their own."""

import re

import numpy as np
import pytest

from taco.annotator import DEFAULT_RULES, ClassRule, ThresholdConfig
from taco.captioner import _extract_completion
from taco.detectors import DetectorParams, _find_cycle_lag
from taco.errors import (InvalidArgument, InvalidConfig, InvalidSignal, InvalidSpec,
                         ProtocolError, TooShort)
from taco.evalkit import _lcs_length, corpus_bleu
from taco.pipeline import IngestSpec
from taco.signal import (NormalizedSeries, median_filter, minmax_normalize, moving_average,
                         polyfit, resample_linear, segment)
from taco.synth import SynthSpec, generate

RAMP = np.linspace(0.0, 1.0, 32)


def _synth(**spec):
    return lambda: generate(SynthSpec("LinearIncrease", **spec))


@pytest.mark.parametrize("call, error, message", [
    (lambda: NormalizedSeries(np.array([0.0, np.nan, 1.0])), InvalidSignal,
     "normalized signal contains non-finite samples"),
    (lambda: NormalizedSeries(np.array([0.0, 1.5])), InvalidSignal,
     "normalized signal has values outside [0, 1]"),
    (lambda: minmax_normalize([]), InvalidSignal, "cannot normalize an empty signal"),
    (lambda: resample_linear([1.0], 8), InvalidArgument, "need at least 2 samples to resample"),
    (lambda: segment(RAMP, 0), InvalidArgument, "k must be positive, got 0"),
    (lambda: polyfit(RAMP, 3), InvalidArgument, "degree must be 1 or 2, got 3"),
    (lambda: polyfit(np.array([0.0, 1.0]), 2), TooShort,
     "need more than 2 samples for a degree-2 fit"),
    (lambda: median_filter(RAMP, 33), InvalidArgument, "window 33 exceeds signal length 32"),
    (lambda: moving_average(RAMP, 0), InvalidArgument, "window must be positive, got 0"),
    (_synth(overlays={"Steppy": {"count": 0}}), InvalidSpec, "step count must be >= 1, got 0"),
    (_synth(overlays={"PosSpiky": {"count": 0}}), InvalidSpec,
     "spike count must be >= 1, got 0"),
    (_synth(length=1), InvalidSpec, "length must be >= 2, got 1"),
    (lambda: IngestSpec(inputs=("a.csv",), stride=0), InvalidArgument,
     "stride must be positive, got 0"),
    (lambda: ThresholdConfig(rules=DEFAULT_RULES | {"Wobbly": ClassRule("trend", "greater", 0)}),
     InvalidConfig, "config contains unknown classes: ['Wobbly']"),
    (lambda: corpus_bleu([(["a", "b"], [])], 4), InvalidArgument,
     "every candidate needs at least one reference"),
    (lambda: _extract_completion({"choices": [{}]}), ProtocolError,
     "completion entry has neither message.content nor text"),
    # ints too long for repr: the message gives their digit count
    (lambda: ClassRule("trend", "greater", 10**5000), InvalidConfig,
     "cutoff must be a finite number, got an integer of 5001 digits"),
    (lambda: DetectorParams(k_segments=-10**5000), InvalidArgument,
     "k_segments must be an integer >= 2, got an integer of 5001 digits"),
    (lambda: DetectorParams(spike_sigma=10**5000), InvalidArgument,
     "spike_sigma must be a finite number > 0, got an integer of 5001 digits"),
    (lambda: DetectorParams(step_kernel_fracs=[10**5000 - 1]), InvalidArgument,
     "step_kernel_fracs entries must be a number in (0, 1], got an integer of 5000 digits"),
    (lambda: DetectorParams(step_kernel_fracs={10**5000}), InvalidArgument,
     "step_kernel_fracs must be a non-empty list, got a set too long to show"),
], ids=["normalized-nan", "normalized-outside-unit", "normalize-empty", "resample-one-sample",
        "segment-zero", "polyfit-degree-3", "polyfit-two-samples-degree-2",
        "median-window-past-length", "moving-average-zero", "steppy-count-zero",
        "pos-spiky-count-zero", "synth-length-one", "ingest-stride-zero",
        "config-non-class-key", "bleu-no-references", "completion-entry-empty",
        "cutoff-huge-int", "k-segments-huge-int", "spike-sigma-huge-int",
        "kernel-frac-huge-int", "kernel-fracs-set-of-huge-int"])
def test_library_refuses_with_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("size", range(4))
def test_an_autocorrelation_too_short_for_a_peak_has_no_cycle(size):
    assert _find_cycle_lag(np.linspace(1.0, 0.0, size)) is None


@pytest.mark.parametrize("a, b", [([], []), ([], ["x"]), (["x"], [])])
def test_lcs_with_an_empty_side_is_zero(a, b):
    assert _lcs_length(a, b) == 0
