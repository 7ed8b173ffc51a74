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
from .detectors import SCORE_NAMES, DetectorParams, ScoreVector, _is_real, score_all
from .errors import InvalidConfig
from .records import load_json
from .signal import NormalizedSeries, Series, minmax_normalize, signal_block


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
    """Fire the class when ``score <direction> cutoff``."""

    score: str
    direction: str  # "greater" | "less"
    cutoff: float

    def __post_init__(self):
        if not isinstance(self.score, str) or self.score not in RULE_SCORE_NAMES:
            raise InvalidConfig(f"rule references unknown score {self.score!r}")
        if self.direction not in ("greater", "less"):
            raise InvalidConfig(
                f"rule direction must be 'greater' or 'less', got {self.direction!r}")
        if not math.isfinite(self.cutoff):
            raise InvalidConfig("rule cutoff must be finite")

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
            # a JSON number only: float() alone would also take true and "0.9"
            cutoff = float(body["cutoff"]) if _is_real(body["cutoff"]) else None
        except OverflowError:  # an integer past the float range
            cutoff = None
        if cutoff is None:
            raise InvalidConfig(
                f"rule for {name} has a non-numeric cutoff {body['cutoff']!r}")
        rules[cls] = ClassRule(score=body["score"], direction=body["direction"], cutoff=cutoff)
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


def class_names(classes) -> list[str]:
    return [c.value for c in sorted_classes(classes)]


def config_digest(params: DetectorParams, cfg: ThresholdConfig) -> str:
    """Stable short hash of detector params plus threshold rules."""
    import hashlib  # here, so that starting the CLI does not load it
    payload = json.dumps(
        {"params": params.to_json_dict(), "thresholds": cfg.to_json_dict()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Annotation:
    """Classes assigned to one series, with the scores that produced them
    and the min-max normalised series those scores were taken on."""

    classes: frozenset
    scores: ScoreVector
    normalized: NormalizedSeries = field(compare=False, repr=False)

    def class_names(self) -> list[str]:
        return class_names(self.classes)


def annotate(s, p: DetectorParams | None = None, cfg: ThresholdConfig | None = None):
    """Normalize, score and classify one raw series, or each row of a
    ``(B, n)`` block, which gives a list of annotations, one per row.

    Each row is min-max normalised on its own, and the rows are scored by
    one :func:`score_all` call.
    """
    if p is None:
        p = DetectorParams()
    if cfg is None:
        cfg = default_config()
    if not isinstance(s, Series) and not (isinstance(s, np.ndarray) and s.ndim == 2):
        s = Series(values=s)
    rows, one = signal_block(s)
    normalized = [minmax_normalize(row) for row in rows]
    scores = score_all(np.array([series.values for series in normalized]).reshape(rows.shape), p)
    annotations = [Annotation(classes=frozenset(assign_classes(vector, cfg)), scores=vector,
                              normalized=series)
                   for vector, series in zip(scores, normalized)]
    return annotations[0] if one else annotations
