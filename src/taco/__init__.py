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

#: Each public name, by the module that defines it.  ``__getattr__`` imports
#: that module on the name's first use, so ``import taco`` loads no numpy.
_EXPORTS = {name: module for module, names in {
    "annotator": "Annotation ThresholdConfig annotate assign_classes default_config load_config",
    "captioner": "BASE_CAPTIONS TimeSeriesClass base_caption rephrase",
    "detectors": "DetectorParams ScoreVector score_all",
    "errors": "TacoError",
    "pipeline": "IngestSpec build_dataset build_forward_dataset",
    "records": "DatasetRecord read_jsonl write_jsonl",
    "signal": "NormalizedSeries Series minmax_normalize resample_linear",
    "synth": "SynthSpec forward_caption generate sample_spec",
}.items() for name in names.split()}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value
