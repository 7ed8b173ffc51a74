"""Traced run: per-layer metrics from spans around taco's public calls.

The run imports taco from the checkout and calls each module's public
functions in-process on the same seeded inputs the workloads use.  Every
timed call is a span (name, start, end, parent) kept in memory and written
to ``bench/work/results`` when the run ends.  The run has three phases, each
under its own root span:

``plain``
    The three workloads in-process (``build_dataset`` with 1 and 2 jobs,
    ``build_forward_dataset`` + ``write_jsonl``, ``load_index`` +
    ``nearnbr_caption`` per query + ``evaluate_corpus``), with spans only
    around the calls the benchmark makes.  Its outputs are checked like the
    CLI workloads' outputs.
``traced``
    The same pass, with the program's internal calls wrapped: the module
    attribute each caller looks a function up by is replaced by a wrapper
    that opens a span, so spans nest the way the program calls
    (``annotate`` > ``score_all`` > ``score_noise`` > ``median_filter``).
    Self times and call counts come from here, and the traced total over
    the plain total is the tracing overhead.
``standalone``
    Each public function called on its own over a sample of windows, specs,
    records and caption pairs, in whole rounds until ``--seconds`` have
    passed; per-call medians come from here.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import inputs

#: (module, attribute, span name): where callers look each function up.
PATCHES = (
    ("pipeline", "ingest_csv", "pipeline.ingest"),
    ("pipeline", "resample_linear", "signal.resample"),
    ("pipeline", "minmax_normalize", "signal.normalize"),
    ("pipeline", "annotate", "annotator.annotate"),
    ("pipeline", "config_digest", "annotator.config_digest"),
    ("pipeline", "base_caption", "captioner.base_caption"),
    ("pipeline", "sample_spec", "synth.sample_spec"),
    ("pipeline", "generate", "synth.generate"),
    ("pipeline", "DatasetRecord.to_json_dict", "pipeline.to_json"),
    ("annotator", "minmax_normalize", "signal.normalize"),
    ("annotator", "score_all", "detectors.score_all"),
    ("annotator", "assign_classes", "annotator.assign"),
    ("annotator", "config_digest", "annotator.config_digest"),
    ("detectors", "score_trend", "detectors.trend"),
    ("detectors", "score_constancy", "detectors.constancy"),
    ("detectors", "score_curvature", "detectors.curvature"),
    ("detectors", "score_linearity", "detectors.linearity"),
    ("detectors", "score_smooth", "detectors.smooth"),
    ("detectors", "score_noise", "detectors.noise"),
    ("detectors", "score_complexity", "detectors.complexity"),
    ("detectors", "score_spikes", "detectors.spikes"),
    ("detectors", "score_periodicity", "detectors.periodicity"),
    ("detectors", "score_symmetry", "detectors.symmetry"),
    ("detectors", "score_step", "detectors.step"),
    ("detectors", "score_amplitude", "detectors.amplitude"),
    ("detectors", "polyfit", "signal.polyfit"),
    ("detectors", "median_filter", "signal.median_filter"),
    ("detectors", "moving_average", "signal.moving_average"),
    ("detectors", "autocorrelation", "signal.autocorrelation"),
    ("detectors", "segment", "signal.segment"),
    ("synth", "moving_average", "signal.moving_average"),
    ("evalkit", "read_jsonl", "pipeline.read_jsonl"),
    ("evalkit", "corpus_bleu", "evalkit.corpus_bleu"),
    ("evalkit", "rouge_l", "evalkit.rouge_l"),
)

LAYERS = ("signal", "detectors", "annotator", "captioner", "synth", "pipeline", "evalkit")

#: The twelve detector families; ``spikes`` is one up and one down call.
FAMILIES = ("trend", "constancy", "curvature", "linearity", "smooth", "noise",
            "complexity", "spikes", "periodicity", "symmetry", "step", "amplitude")

#: Standalone sample sizes per round.
SAMPLE_WINDOWS_PER_COLUMN = 6
SAMPLE_SPECS = 48
SAMPLE_RECORDS = 48
IMPORT_LAUNCHES = 5


class Tracer:
    """Spans as ``[name, start, end, parent, root]`` rows, kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self.spans[self._stack[0]][0] if self._stack else name
        self.spans.append([name, time.perf_counter(), None, parent, root])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def call(self, name: str, fn, *args, **kwargs):
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                return iter(self.call(name, lambda: list(fn(*args, **kwargs))))
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        return wrapper

    # -- derived figures

    def durations(self, root: str, name: str) -> list:
        return [end - start for n, start, end, _, r in self.spans if n == name and r == root]

    def total(self, root: str) -> float:
        return next(end - start for n, start, end, parent, _ in self.spans
                    if n == root and parent is None)

    def self_times(self, root: str) -> dict:
        """Per layer: span durations minus the time their children cover."""
        own = {}
        for sid, (_, start, end, parent, r) in enumerate(self.spans):
            if r == root:
                own[sid] = own.get(sid, 0.0) + end - start
                if parent is not None:
                    own[parent] = own.get(parent, 0.0) - (end - start)
        out = dict.fromkeys(LAYERS, 0.0)
        for sid, secs in own.items():
            layer = self.spans[sid][0].split(".")[0]
            if layer in out:
                out[layer] += secs
        return out

    def count_under(self, root: str, name: str, ancestor: str) -> tuple[int, int]:
        """(spans called ``name`` below an ``ancestor`` span, ancestors with
        at least one such descendant)."""
        hits = {}
        for n, _, _, parent, r in self.spans:
            if n != name or r != root:
                continue
            while parent is not None and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent is not None:
                hits[parent] = hits.get(parent, 0) + 1
        return sum(hits.values()), len(hits)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"id": i, "name": n, "start_s": round(s - t0, 9), "end_s": round(e - t0, 9),
                 "parent": p} for i, (n, s, e, p, _) in enumerate(self.spans)]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


@contextlib.contextmanager
def patched(tracer: Tracer, taco):
    """Install the PATCHES wrappers; restore the originals on exit."""
    undo = []
    try:
        for module, attr, name in PATCHES:
            owner = getattr(taco, module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if hasattr(owner, leaf):
                original = getattr(owner, leaf)
                setattr(owner, leaf, tracer.wrap(name, original))
                undo.append((owner, leaf, original))
        yield
    finally:
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)


def import_taco(src: Path):
    """The taco package from the checkout's ``src``, with every module loaded."""
    sys.path.insert(0, str(src))
    import taco.annotator
    import taco.captioner
    import taco.detectors
    import taco.evalkit
    import taco.pipeline
    import taco.signal
    import taco.synth
    if not Path(taco.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"taco imported from {taco.__file__}, not from {src}")
    return taco


def _workload_pass(tr: Tracer, taco, root: str, out: Path, backward, retrieval,
                   seed: int, synth_count: int, jobs2: bool) -> dict:
    """The three workloads in-process; returns output paths and counts."""
    pipe, ev = taco.pipeline, taco.evalkit
    out.mkdir(parents=True, exist_ok=True)
    paths = {k: out / f"{root}-{k}" for k in
             ("dataset.jsonl", "dataset.jsonl.skipped.jsonl", "forward.jsonl",
              "predictions.jsonl", "report.json")}
    with tr.span(root):
        spec = pipe.IngestSpec(inputs=(str(backward.path),))
        records, skips = tr.call("pipeline.build_dataset", pipe.build_dataset, spec, jobs=1)
        tr.call("pipeline.write_jsonl", pipe.write_jsonl, records, paths["dataset.jsonl"])
        tr.call("pipeline.write_jsonl", pipe.write_jsonl, skips,
                paths["dataset.jsonl.skipped.jsonl"])
        same_with_jobs2 = True
        if jobs2:
            same_with_jobs2 = (records, skips) == tr.call(
                "pipeline.build_dataset_jobs2", pipe.build_dataset, spec, jobs=2)

        forward, _ = tr.call("pipeline.build_forward", pipe.build_forward_dataset,
                             n=synth_count, master_seed=seed)
        write_span = len(tr.spans)
        tr.call("pipeline.write_jsonl", pipe.write_jsonl, forward, paths["forward.jsonl"])
        _, start, end, *_ = tr.spans[write_span]
        forward_write_s = end - start

        index = tr.call("evalkit.load_index", ev.load_index, retrieval.index_path)
        queries = tr.call("pipeline.read_jsonl", pipe.read_jsonl, retrieval.queries_path)
        rows = []
        for query in queries:
            caption, neighbor, mse = tr.call("evalkit.nearnbr", ev.nearnbr_caption,
                                             query.values, index)
            rows.append({"id": query.id, "caption_base": caption,
                         "neighbor_id": neighbor, "mse": mse})
        tr.call("pipeline.write_jsonl", pipe.write_jsonl, rows, paths["predictions.jsonl"])
        report = tr.call("evalkit.evaluate_corpus", ev.evaluate_corpus,
                         paths["predictions.jsonl"], retrieval.queries_path)
        paths["report.json"].write_text(ev.report_to_json(report) + "\n", encoding="utf-8")
    return {"paths": paths, "records": len(records), "skips": len(skips),
            "forward": forward, "forward_write_s": forward_write_s, "queries": len(queries),
            "same_with_jobs2": same_with_jobs2}


def _standalone_round(tr: Tracer, taco, backward, samples, specs, forward,
                      captions) -> None:
    sig, det, ann = taco.signal, taco.detectors, taco.annotator
    p, cfg = det.DetectorParams(), ann.default_config()
    tr.call("pipeline.ingest", lambda: list(taco.pipeline.ingest_csv(
        taco.pipeline.IngestSpec(inputs=(str(backward.path),)))))
    for raw in samples:
        resampled = tr.call("signal.resample", sig.resample_linear, raw, inputs.TARGET_LEN)
        norm = tr.call("signal.normalize", sig.minmax_normalize, resampled)
        n = norm.values.size
        scores = tr.call("detectors.score_all", det.score_all, norm, p)
        for family in FAMILIES:
            fn = getattr(det, f"score_{family}")
            if family == "spikes":
                tr.call("detectors.spikes", lambda: (fn(norm, p, "up"), fn(norm, p, "down")))
            elif family in ("trend", "curvature", "linearity"):
                tr.call(f"detectors.{family}", fn, norm)
            else:
                tr.call(f"detectors.{family}", fn, norm, p)
        tr.call("signal.median_filter", sig.median_filter, norm.values, p.median_window(n))
        tr.call("signal.autocorrelation", sig.autocorrelation, norm)
        tr.call("signal.polyfit", sig.polyfit, norm, 1)
        tr.call("signal.moving_average", sig.moving_average, norm.values, p.ma_window(n))
        annotation = tr.call("annotator.annotate", ann.annotate,
                             sig.Series(values=resampled), p, cfg)
        tr.call("annotator.assign", ann.assign_classes, scores, cfg)
        tr.call("annotator.config_digest", ann.config_digest, p, cfg)
        tr.call("captioner.base_caption", taco.captioner.base_caption, annotation.classes)
    for child_seed in specs:
        spec = tr.call("synth.sample_spec", taco.synth.sample_spec, child_seed)
        tr.call("synth.generate", taco.synth.generate, spec)
    for record in forward:
        tr.call("pipeline.to_json", lambda: json.dumps(record.to_json_dict(), allow_nan=False))
    tok = taco.evalkit.tokenize
    pairs = [(tok(cand), [tok(ref)]) for cand, ref in captions]
    tr.call("evalkit.corpus_bleu", taco.evalkit.corpus_bleu, pairs, 4)
    for cand, ref in captions[:SAMPLE_RECORDS]:
        tr.call("evalkit.rouge_l", taco.evalkit.rouge_l, cand, ref)


def _import_seconds(env: dict) -> float:
    probe = "import time; t = time.perf_counter(); import taco.cli; print(time.perf_counter() - t)"
    runs = [float(subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                 capture_output=True, text=True).stdout)
            for _ in range(IMPORT_LAUNCHES)]
    return statistics.median(runs)


def traced_run(src: Path, work: Path, env: dict, size_name: str, seed: int,
               seconds: float, spans_path: Path, speed) -> dict:
    """``speed`` scales a pass's time to reference speed (``run.Speed``); the
    machine's speed drifts more between two passes than tracing costs."""
    started = time.monotonic()
    taco = import_taco(src)
    size = inputs.SIZES[size_name]
    backward = inputs.backward_input(work, size_name, seed)
    retrieval = inputs.retrieval_input(work, size_name, seed)
    out = work / "out" / "trace"
    tr = Tracer()

    plain = _workload_pass(tr, taco, "plain", out, backward, retrieval, seed,
                           size.synth_count, jobs2=True)
    plain["scale"] = speed.scale()
    with patched(tr, taco):
        traced = _workload_pass(tr, taco, "traced", out, backward, retrieval, seed,
                                size.synth_count, jobs2=False)
    traced["scale"] = speed.scale()

    # Checks: the plain pass like the CLI outputs, the traced pass byte for byte.
    pp, tp = plain["paths"], traced["paths"]
    rules = taco.annotator.default_config().to_json_dict()
    verdicts = [
        checks.check_backward(backward, pp["dataset.jsonl"],
                              pp["dataset.jsonl.skipped.jsonl"], rules),
        checks.check_forward(pp["forward.jsonl"], size.synth_count, inputs.TARGET_LEN),
        checks.check_retrieval(retrieval, pp["predictions.jsonl"], pp["report.json"]),
    ]
    attempted = len(backward.tags()) + size.synth_count + len(retrieval.query_ids)
    failed = sum(len(v.failed) for v in verdicts)
    problems = [v.summary() for v in verdicts if v.failed]
    if checks.digest(pp.values()) != checks.digest(tp.values()):
        failed, problems = attempted, problems + ["traced outputs differ from plain outputs"]
    if not plain["same_with_jobs2"]:
        failed, problems = attempted, problems + ["build_dataset differs with jobs=2"]

    samples = [backward.window(tag) for column in inputs.COLUMNS
               for tag in [t for t in backward.tags()
                           if f"#{column}#" in t and t not in backward.nan_windows
                           and t not in backward.constant_windows][:SAMPLE_WINDOWS_PER_COLUMN]]
    specs = [np.random.SeedSequence(entropy=(seed, i)) for i in range(SAMPLE_SPECS)]
    captions = list(zip(retrieval.index_captions, retrieval.query_captions))
    with tr.span("standalone"):
        while True:
            _standalone_round(tr, taco, backward, samples, specs,
                              plain["forward"][:SAMPLE_RECORDS], captions)
            if time.monotonic() - started >= seconds:
                break
    cli_import = _import_seconds(env)
    tr.dump(spans_path)
    metrics = _metrics(tr, plain, traced, cli_import)
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics}


def _metrics(tr: Tracer, plain: dict, traced: dict, cli_import: float) -> dict:
    med = lambda root, name: statistics.median(tr.durations(root, name))  # noqa: E731
    out = {"cli.import_s": (cli_import, "s"),
           "pipeline.ingest_s": (med("standalone", "pipeline.ingest"), "s")}
    for name in ("resample", "normalize", "median_filter", "autocorrelation", "polyfit",
                 "moving_average"):
        out[f"signal.{name}_ms"] = (1e3 * med("standalone", f"signal.{name}"), "ms")
    score_all = med("standalone", "detectors.score_all")
    out["detectors.score_all_ms"] = (1e3 * score_all, "ms")
    family_sum = 0.0
    for family in FAMILIES:
        secs = med("standalone", f"detectors.{family}")
        family_sum += secs
        out[f"detectors.{family}_ms"] = (1e3 * secs, "ms")
    out["detectors.family_sum_ratio"] = (family_sum / score_all, "ratio")
    out["annotator.annotate_ms"] = (1e3 * med("standalone", "annotator.annotate"), "ms")
    out["annotator.assign_us"] = (1e6 * med("standalone", "annotator.assign"), "us")
    out["annotator.config_digest_us"] = (1e6 * med("standalone", "annotator.config_digest"), "us")
    out["captioner.base_caption_us"] = (1e6 * med("standalone", "captioner.base_caption"), "us")

    build1 = med("plain", "pipeline.build_dataset")
    build2 = med("plain", "pipeline.build_dataset_jobs2")
    out["pipeline.build_dataset_s"] = (build1, "s")
    out["pipeline.build_dataset_jobs2_s"] = (build2, "s")
    out["pipeline.parallel_speedup"] = (build1 / build2, "ratio")
    out["synth.sample_spec_us"] = (1e6 * med("standalone", "synth.sample_spec"), "us")
    out["synth.generate_ms"] = (1e3 * med("standalone", "synth.generate"), "ms")
    out["pipeline.build_forward_s"] = (med("plain", "pipeline.build_forward"), "s")

    forward_n = len(plain["forward"])
    forward_path = plain["paths"]["forward.jsonl"]
    out["pipeline.to_json_ms"] = (1e3 * med("standalone", "pipeline.to_json"), "ms")
    out["pipeline.write_ms"] = (1e3 * plain["forward_write_s"] / forward_n, "ms")
    out["pipeline.record_kb"] = (forward_path.stat().st_size / forward_n / 1024, "KiB")
    out["pipeline.records"] = (plain["records"], "count")
    out["pipeline.skips"] = (plain["skips"], "count")
    out["pipeline.read_ms"] = (1e3 * med("plain", "pipeline.read_jsonl") / plain["queries"], "ms")
    out["evalkit.load_index_s"] = (med("plain", "evalkit.load_index"), "s")
    out["evalkit.nearnbr_ms"] = (1e3 * med("plain", "evalkit.nearnbr"), "ms")
    out["evalkit.evaluate_corpus_s"] = (med("plain", "evalkit.evaluate_corpus"), "s")
    out["evalkit.corpus_bleu_ms"] = (1e3 * med("standalone", "evalkit.corpus_bleu"), "ms")
    out["evalkit.rouge_l_us"] = (1e6 * med("standalone", "evalkit.rouge_l"), "us")

    for layer, secs in tr.self_times("traced").items():
        out[f"{layer}.self_s"] = (secs, "s")
    calls, windows = tr.count_under("traced", "signal.median_filter", "detectors.score_all")
    out["signal.median_filter_calls"] = (calls, "count")
    out["detectors.scored_windows"] = (windows, "count")
    out["signal.median_filter_per_window"] = (calls / windows, "ratio")
    # Plain vs traced pass at reference speed, both without the jobs-2 build.
    plain_total = (tr.total("plain") - build2) * plain["scale"]
    out["trace.overhead_ratio"] = (tr.total("traced") * traced["scale"] / plain_total, "ratio")
    out["trace.spans"] = (len(tr.spans), "count")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}
