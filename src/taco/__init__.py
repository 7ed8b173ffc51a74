"""Descriptive time-series classes, captions, synthetic signals and a
reproducible caption-dataset pipeline."""

__version__ = "0.1.0"

import os

# taco runs in parallel through its --jobs worker processes, so a BLAS thread
# pool in each process only adds a thread that spins beside it.  OpenBLAS and
# MKL read these variables when numpy loads, so this runs before any import
# that loads numpy; a user who sets any of them keeps every one as set.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(var in os.environ for var in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

from .annotator import (
    Annotation,
    ThresholdConfig,
    TimeSeriesClass,
    annotate,
    assign_classes,
    default_config,
    load_config,
)
from .captioner import BASE_CAPTIONS, base_caption, rephrase
from .detectors import DetectorParams, ScoreVector, score_all
from .errors import TacoError
from .pipeline import (
    DatasetRecord,
    IngestSpec,
    build_dataset,
    build_forward_dataset,
    read_jsonl,
    write_jsonl,
)
from .signal import NormalizedSeries, Series, minmax_normalize, resample_linear
from .synth import SynthSpec, forward_caption, generate, sample_spec

__all__ = [
    "__version__",
    "Annotation",
    "BASE_CAPTIONS",
    "DatasetRecord",
    "DetectorParams",
    "IngestSpec",
    "NormalizedSeries",
    "ScoreVector",
    "Series",
    "SynthSpec",
    "TacoError",
    "ThresholdConfig",
    "TimeSeriesClass",
    "annotate",
    "assign_classes",
    "base_caption",
    "build_dataset",
    "build_forward_dataset",
    "default_config",
    "forward_caption",
    "generate",
    "load_config",
    "minmax_normalize",
    "read_jsonl",
    "rephrase",
    "resample_linear",
    "sample_spec",
    "score_all",
    "write_jsonl",
]
