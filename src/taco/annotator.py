"""Assigning descriptive time-series classes from detector scores.

A :class:`ThresholdConfig` holds one rule per class (score name, comparison
direction, cutoff).  Paired classes (Rising/Falling, Linear/Nonlinear, ...)
are mutually exclusive; the config validator proves at load time that no
pair can fire together.  Cutoff pairs deliberately leave a gap band in which
neither class of a pair is assigned, so only confident classes make it into
captions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .captioner import CLASS_ORDER, TimeSeriesClass, sorted_classes
from .detectors import SCORE_NAMES, DetectorParams, ScoreVector, _is_real, _shown, score_all
from .errors import InvalidConfig
from .records import load_json
from .signal import minmax_normalize, signal_block


#: Pairs of which at most one class may be assigned.
EXCLUSIVITY_GROUPS = (
    (TimeSeriesClass.RISING, TimeSeriesClass.FALLING),
    (TimeSeriesClass.CONVEX, TimeSeriesClass.CONCAVE),
    (TimeSeriesClass.LINEAR, TimeSeriesClass.NONLINEAR),
    (TimeSeriesClass.SIMPLE, TimeSeriesClass.COMPLEX),
    (TimeSeriesClass.PERIODIC, TimeSeriesClass.APERIODIC),
    (TimeSeriesClass.SYMMETRY, TimeSeriesClass.ASYMMETRY),
    (TimeSeriesClass.STEP, TimeSeriesClass.NOSTEP),
    (TimeSeriesClass.HIGH_AMPLITUDE, TimeSeriesClass.LOW_AMPLITUDE),
)

#: Classes a Constant assignment suppresses: a flat signal trivially fits a
#: line but must not be called rising or periodic.
CONSTANT_EXCLUDES = frozenset({
    TimeSeriesClass.RISING,
    TimeSeriesClass.FALLING,
    TimeSeriesClass.CONVEX,
    TimeSeriesClass.CONCAVE,
    TimeSeriesClass.NONLINEAR,
    TimeSeriesClass.PERIODIC,
})

#: Score names a rule may reference: the detector outputs plus the signed
#: curvature alias (sign times gap) used by the Convex/Concave pair.
RULE_SCORE_NAMES = frozenset(SCORE_NAMES) | {"curvature_signed"}


@dataclass(frozen=True)
class ClassRule:
    """Fire the class when ``score <direction> cutoff``; the cutoff, any
    finite real number but a bool, is stored as a float."""

    score: str
    direction: str  # "greater" | "less"
    cutoff: float

    def __post_init__(self):
        if not isinstance(self.score, str) or self.score not in RULE_SCORE_NAMES:
            raise InvalidConfig(f"unknown score {_shown(self.score)}")
        if self.direction not in ("greater", "less"):
            raise InvalidConfig(
                f"direction must be 'greater' or 'less', got {_shown(self.direction)}")
        try:
            # float() alone would also take True and "0.9"
            cutoff = float(self.cutoff) if _is_real(self.cutoff) else math.nan
        except OverflowError:  # an integer past the float range
            cutoff = math.inf
        if not math.isfinite(cutoff):
            raise InvalidConfig(f"cutoff must be a finite number, got {_shown(self.cutoff)}")
        object.__setattr__(self, "cutoff", cutoff)

    def fires(self, scores: dict) -> bool:
        value = scores[self.score]
        if self.direction == "greater":
            return value > self.cutoff
        return value < self.cutoff


#: Default decision rules.  Cutoffs are tuned so clean synthetic signals of
#: each class land comfortably on the right side; override via a config file
#: for other data distributions.
DEFAULT_RULES = {
    TimeSeriesClass.RISING: ClassRule("trend", "greater", 0.8),
    TimeSeriesClass.FALLING: ClassRule("trend", "less", -0.8),
    TimeSeriesClass.CONSTANT: ClassRule("constancy", "less", 0.02),
    TimeSeriesClass.CONVEX: ClassRule("curvature_signed", "greater", 0.005),
    TimeSeriesClass.CONCAVE: ClassRule("curvature_signed", "less", -0.005),
    TimeSeriesClass.LINEAR: ClassRule("linearity_mse", "less", 0.002),
    TimeSeriesClass.NONLINEAR: ClassRule("linearity_mse", "greater", 0.01),
    TimeSeriesClass.SMOOTH: ClassRule("smooth_mse", "less", 5e-4),
    TimeSeriesClass.NOISY: ClassRule("noise_mse", "greater", 5e-3),
    TimeSeriesClass.SIMPLE: ClassRule("complexity", "less", 0.01),
    TimeSeriesClass.COMPLEX: ClassRule("complexity", "greater", 0.05),
    TimeSeriesClass.SPIKY: ClassRule("spike_pos", "greater", 0.1),
    TimeSeriesClass.DROPOUT: ClassRule("spike_neg", "greater", 0.1),
    TimeSeriesClass.PERIODIC: ClassRule("periodicity_gap", "less", -0.005),
    TimeSeriesClass.APERIODIC: ClassRule("periodicity_gap", "greater", 0.005),
    TimeSeriesClass.SYMMETRY: ClassRule("symmetry_err", "less", 0.005),
    TimeSeriesClass.ASYMMETRY: ClassRule("symmetry_err", "greater", 0.02),
    TimeSeriesClass.STEP: ClassRule("step_response", "greater", 0.4),
    TimeSeriesClass.NOSTEP: ClassRule("step_response", "less", 0.1),
    TimeSeriesClass.HIGH_AMPLITUDE: ClassRule("amplitude_var", "greater", 0.05),
    TimeSeriesClass.LOW_AMPLITUDE: ClassRule("amplitude_var", "less", 0.01),
}


def _rules_can_overlap(a: ClassRule, b: ClassRule) -> bool:
    """Whether some score value satisfies both rules.

    Rules on different scores cannot be proven exclusive; they count as
    overlapping so exclusivity stays verifiable by construction.
    """
    if a.score != b.score:
        return True
    if a.direction == b.direction:
        return True
    greater, less = (a, b) if a.direction == "greater" else (b, a)
    return less.cutoff > greater.cutoff


@dataclass(frozen=True)
class ThresholdConfig:
    """A complete rule set: exactly one rule per class, exclusivity proven."""

    rules: dict

    def __post_init__(self):
        missing = [c.value for c in TimeSeriesClass if c not in self.rules]
        if missing:
            raise InvalidConfig(f"config missing rules for classes: {missing}")
        extra = [c for c in self.rules if not isinstance(c, TimeSeriesClass)]
        if extra:
            raise InvalidConfig(f"config contains unknown classes: {extra}")
        for first, second in EXCLUSIVITY_GROUPS:
            if _rules_can_overlap(self.rules[first], self.rules[second]):
                raise InvalidConfig(
                    f"rules for {first.value} and {second.value} can fire together")

    def to_json_dict(self) -> dict:
        return {
            cls.value: {
                "score": rule.score,
                "direction": rule.direction,
                "cutoff": rule.cutoff,
            }
            for cls, rule in sorted(self.rules.items(), key=lambda kv: CLASS_ORDER[kv[0]])
        }


def default_config() -> ThresholdConfig:
    return ThresholdConfig(rules=dict(DEFAULT_RULES))


def load_config(path: str | Path | None = None) -> ThresholdConfig:
    """Load a threshold config from JSON, or the embedded defaults.

    The file must map every class name to ``{score, direction, cutoff}``;
    unknown class names or rule keys are rejected.
    """
    if path is None:
        return default_config()
    data = load_json(path, InvalidConfig)
    if not isinstance(data, dict):
        raise InvalidConfig("config must be a JSON object mapping class to rule")
    rules = {}
    for name, body in data.items():
        cls = TimeSeriesClass.from_name(name)
        if not isinstance(body, dict):
            raise InvalidConfig(f"rule for {name} must be an object")
        unknown = set(body) - {"score", "direction", "cutoff"}
        if unknown:
            raise InvalidConfig(f"rule for {name} has unknown keys: {sorted(unknown)}")
        missing = sorted({"score", "direction", "cutoff"} - set(body))
        if missing:
            raise InvalidConfig(f"rule for {name} missing key {missing[0]!r}")
        try:
            rules[cls] = ClassRule(**body)
        except InvalidConfig as exc:
            raise InvalidConfig(f"rule for {name}: {exc}") from None
    return ThresholdConfig(rules=rules)


def assign_classes(scores: ScoreVector, cfg: ThresholdConfig) -> set[TimeSeriesClass]:
    """Apply every class rule to a score vector.

    Exclusivity of the paired classes holds by config construction; on top of
    that, a Constant assignment suppresses the trend/curvature/periodicity
    classes a flat signal should never carry.
    """
    values = scores.rule_values()
    assigned = {cls for cls, rule in cfg.rules.items() if rule.fires(values)}
    if TimeSeriesClass.CONSTANT in assigned:
        assigned -= CONSTANT_EXCLUDES
    return assigned


def config_digest(params: DetectorParams, cfg: ThresholdConfig) -> str:
    """Stable short hash of detector params plus threshold rules."""
    # The interpreter's built-in SHA-256, not hashlib's: importing hashlib
    # loads _hashlib and with it OpenSSL's libcrypto, 3.6 MB of resident set
    # for one hash per run.  It is the same algorithm, so the same digest;
    # hashlib is the fallback for builds without the built-in module.
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    payload = json.dumps(
        {"params": params.to_json_dict(), "thresholds": cfg.to_json_dict()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Annotation:
    """Classes assigned to one series, with the scores that produced them
    and the min-max normalised series they were taken on, a read-only row view."""

    classes: frozenset
    scores: ScoreVector
    normalized: np.ndarray = field(compare=False, repr=False)

    def class_names(self) -> list[str]:
        return [c.value for c in sorted_classes(self.classes)]


def annotate(s, p: DetectorParams | None = None, cfg: ThresholdConfig | None = None):
    """Normalize, score and classify one raw series, or each row of a
    ``(B, n)`` block, which gives a list of annotations, one per row.

    The block is min-max normalised by one :func:`minmax_normalize` call,
    made read-only and scored by one :func:`score_all` call.
    """
    if cfg is None:
        cfg = default_config()
    rows, one = signal_block(s)
    normalized = minmax_normalize(rows)
    normalized.flags.writeable = False
    annotations = [Annotation(classes=frozenset(assign_classes(vector, cfg)), scores=vector,
                              normalized=row)
                   for vector, row in zip(score_all(normalized, p), normalized)]
    return annotations[0] if one else annotations
