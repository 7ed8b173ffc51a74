#!/usr/bin/env python3
"""Benchmark of the taco CLI: four end-to-end workloads and a traced run.

Run from the root of a checkout::

    python3 bench/run.py --workload backward --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --smoke            # every workload + the traced run, small

With ``--trace 0`` each timed operation is one fresh ``taco`` process,
started after the previous one ended (a closed loop of one client), in whole
rounds until ``--seconds`` of rounds have passed; the end-to-end metrics are
medians over the rounds.  With ``--trace 1`` the per-layer metrics come from
an in-process run with spans (see ``layers.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"

WORKLOADS = ("backward", "backward_jobs2", "forward", "retrieval")

#: Interpreter launches per run for ``setup_s`` (median), by input size.
SETUP_LAUNCHES = {"full": 9, "smoke": 3}

#: Timings are scaled to a reference machine speed.  The machine's speed
#: drifts by up to 1.8x over minutes and every process drifts with it (see
#: README.md), so each timing is multiplied by REF / (mean of the two
#: calibration passes taken just before and just after it).  Rounds are
#: calibrated by :func:`compute_pass`, interpreter launches by
#: :func:`launch_pass`; the REF values are their typical durations here.
COMPUTE_REF_S = 0.36
LAUNCH_REF_S = 0.33

#: How the taco console script starts, plus a report of the process's own
#: peak RSS at exit.  ``wait4``'s ru_maxrss cannot be used for this: it
#: includes the RSS of the spawning benchmark process, carried over at exec.
TACO_MAIN = """import atexit, sys
def _peak_rss():
    with open("/proc/self/status") as status:
        kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    print("bench-peak-rss-kib", kib, file=sys.stderr)
atexit.register(_peak_rss)
from taco.cli import main
sys.exit(main())"""
SETUP_PROBE = "import time, taco.cli; print(time.monotonic())"
LAUNCH_PROBE = "import time, json, numpy, requests; print(time.monotonic())"


ENV = {**os.environ, "PYTHONPATH": str(SRC)}


class Proc:
    """One child process, run to its end and measured."""

    def __init__(self, argv: list, log: Path):
        with open(log, "wb") as sink:
            start = time.perf_counter()
            pid = os.posix_spawn(sys.executable, [sys.executable, *argv], ENV,
                                 file_actions=[(os.POSIX_SPAWN_DUP2, sink.fileno(), 1),
                                               (os.POSIX_SPAWN_DUP2, sink.fileno(), 2)])
            _, status, usage = os.wait4(pid, 0)
            self.wall_s = time.perf_counter() - start
        # wait4 reports the child's own CPU time plus that of the children
        # it reaped (pool workers).
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.code = os.waitstatus_to_exitcode(status)
        self.log = log

    def peak_rss_mb(self) -> float:
        """The VmHWM line TACO_MAIN prints at exit, in MiB."""
        lines = self.log.read_text(errors="replace").splitlines()
        kib = next(line.split()[1] for line in reversed(lines)
                   if line.startswith("bench-peak-rss-kib "))
        return int(kib) / 1024


def launch_seconds(code: str, log: Path) -> float:
    """Interpreter launch until ``code`` has printed ``time.monotonic()``."""
    start = time.monotonic()
    proc = Proc(["-c", code], log)
    if proc.code != 0:
        raise RuntimeError(f"launch failed:\n{log.read_text()[-2000:]}")
    return float(log.read_text().split()[-1]) - start


_CAL_RNG = np.random.default_rng(20240916)
_CAL_SIGNAL = _CAL_RNG.random(2048)
_CAL_FLOATS = _CAL_RNG.random(50_000).tolist()


def compute_pass() -> float:
    """Time one pass of a fixed computation that does not touch taco: a
    sliding median, float/text conversion and a Python loop, the three kinds
    of work the workloads spend their time in."""
    start = time.perf_counter()
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(_CAL_SIGNAL, 51, mode="edge"), 103)
    for _ in range(3):
        for _ in range(10):
            np.median(windows, axis=1)
        json.loads(json.dumps(_CAL_FLOATS))
        total = 0
        for i in range(100_000):
            total += i * i % 7
    return time.perf_counter() - start


def launch_pass(log: Path) -> float:
    """Time one interpreter launch that imports taco's dependencies, not taco."""
    return launch_seconds(LAUNCH_PROBE, log)


class Speed:
    """Calibration passes interleaved with the measurements."""

    def __init__(self, probe, ref_s: float):
        self.probe, self.ref_s = probe, ref_s
        self.passes = [probe()]

    def scale(self) -> float:
        """Factor to reference speed for the measurement just taken: it sits
        between the previous pass and a new one."""
        self.passes.append(self.probe())
        return self.ref_s / ((self.passes[-2] + self.passes[-1]) / 2)


# -------------------------------------------------------------- workloads


class Backward:
    """``taco dataset --jobs N`` on the seeded CSV; an operation is a window."""

    def __init__(self, size: str, seed: int, jobs: int, out: Path):
        self.data = inputs.backward_input(WORK, size, seed)
        self.jobs = jobs
        self.out = out / "dataset.jsonl"
        self.skip_log = out / "dataset.jsonl.skipped.jsonl"
        self.outputs = [self.out, self.skip_log]
        self.ops = len(self.data.tags())
        self.reference = None
        if jobs > 1:
            self.reference = self._jobs1_reference(size, seed)

    def commands(self) -> list:
        return [["dataset", "--input", str(self.data.path), "--out", str(self.out),
                 "--jobs", str(self.jobs)]]

    def records(self) -> int:
        return self.ops - len(self.data.nan_windows)

    def _jobs1_reference(self, size: str, seed: int) -> str:
        """Digest of the ``--jobs 1`` output for this input and this source
        tree, built once and cached."""
        key = checks.digest(sorted((SRC / "taco").glob("*.py")))[:12]
        ref = inputs.input_dir(WORK, size, seed) / f"jobs1-{key}"
        files = [ref / "dataset.jsonl", ref / "dataset.jsonl.skipped.jsonl"]
        if not files[0].exists():
            tmp = ref.with_name(ref.name + f".tmp{os.getpid()}")
            tmp.mkdir(parents=True, exist_ok=True)
            proc = Proc(["-c", TACO_MAIN, "dataset", "--input", str(self.data.path),
                         "--out", str(tmp / "dataset.jsonl"), "--jobs", "1"], tmp / "log")
            if proc.code != 0:
                raise RuntimeError(f"jobs-1 reference build failed:\n{proc.log.read_text()}")
            shutil.rmtree(ref, ignore_errors=True)
            os.replace(tmp, ref)
        return checks.digest(files)

    def check(self) -> checks.Verdict:
        verdict = checks.check_backward(self.data, self.out, self.skip_log, taco_rules())
        if self.reference is not None and checks.digest(self.outputs) != self.reference:
            for tag in self.data.tags():
                verdict.fail(tag, "output differs from the --jobs 1 output")
        return verdict


class Forward:
    """``taco synth --count N``; an operation is a record."""

    def __init__(self, size: str, seed: int, out: Path):
        self.seed = seed
        self.ops = inputs.SIZES[size].synth_count
        self.out = out / "synth.jsonl"
        self.outputs = [self.out]

    def commands(self) -> list:
        return [["synth", "--count", str(self.ops), "--seed", str(self.seed),
                 "--out", str(self.out)]]

    def records(self) -> int:
        return self.ops

    def check(self) -> checks.Verdict:
        return checks.check_forward(self.out, self.ops, inputs.TARGET_LEN)


class Retrieval:
    """``taco nearnbr`` then ``taco eval``; an operation is a query."""

    def __init__(self, size: str, seed: int, out: Path):
        self.data = inputs.retrieval_input(WORK, size, seed)
        self.ops = len(self.data.query_ids)
        self.predictions = out / "predictions.jsonl"
        self.report = out / "report.json"
        self.outputs = [self.predictions, self.report]

    def commands(self) -> list:
        return [["nearnbr", "--index", str(self.data.index_path),
                 "--queries", str(self.data.queries_path), "--out", str(self.predictions)],
                ["eval", "--candidates", str(self.predictions),
                 "--references", str(self.data.queries_path), "--out", str(self.report)]]

    def records(self) -> int:
        return self.ops

    def check(self) -> checks.Verdict:
        return checks.check_retrieval(self.data, self.predictions, self.report)


def make_workload(name: str, size: str, seed: int, out: Path):
    if name == "backward":
        return Backward(size, seed, 1, out)
    if name == "backward_jobs2":
        return Backward(size, seed, 2, out)
    if name == "forward":
        return Forward(size, seed, out)
    return Retrieval(size, seed, out)


@functools.cache
def taco_rules() -> dict:
    """The default threshold table, imported from the checkout."""
    sys.path.insert(0, str(SRC))
    from taco.annotator import default_config
    return default_config().to_json_dict()


def measure(name: str, size: str, seed: int, seconds: float) -> dict:
    out = WORK / "out" / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workload = make_workload(name, size, seed, out)

    launch_seconds(SETUP_PROBE, out / "warmup.log")  # fills the page cache, writes bytecode
    launches = Speed(lambda: launch_pass(out / "launch.log"), LAUNCH_REF_S)
    setup = []  # (measured, scale)
    for _ in range(SETUP_LAUNCHES[size]):
        setup.append((launch_seconds(SETUP_PROBE, out / "setup.log"), launches.scale()))

    speed = Speed(compute_pass, COMPUTE_REF_S)

    rounds, attempted, failed, problems = [], 0, 0, []
    verdicts = {}  # output digest -> failed-operation count
    measured = 0.0
    while attempted == 0 or measured < seconds:
        for path in workload.outputs:
            path.unlink(missing_ok=True)
        procs = []
        for argv in workload.commands():
            procs.append(Proc(["-c", TACO_MAIN, *argv], out / f"cmd{len(procs)}.log"))
            if procs[-1].code != 0:
                break
        scale = speed.scale()
        measured += sum(p.wall_s for p in procs)
        attempted += workload.ops
        if procs[-1].code != 0:
            failed += workload.ops
            problems.append(f"exit {procs[-1].code}: {procs[-1].log.read_text()[-1000:]}")
            continue
        rounds.append((procs, scale))
        digest = checks.digest(workload.outputs)
        if digest not in verdicts:
            verdict = workload.check()
            verdicts[digest] = len(verdict.failed)
            if verdict.failed:
                problems.append(verdict.summary())
        failed += verdicts[digest]

    walls = [(sum(p.wall_s for p in procs), scale) for procs, scale in rounds]
    cpus = [(sum(p.cpu_s for p in procs), scale) for procs, scale in rounds]
    series = {"setup_s": setup, "wall_s": walls, "cpu_s": cpus}
    metrics = {name: (statistics.median(v * f for v, f in pairs), "s")
               for name, pairs in series.items() if pairs}
    if rounds:
        metrics["records_per_s"] = (workload.records() / metrics["wall_s"][0], "1/s")
        metrics["peak_rss_mb"] = (
            statistics.median(max(p.peak_rss_mb() for p in procs) for procs, _ in rounds), "MB")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "measured": {name: [v for v, _ in pairs] for name, pairs in series.items()},
            "calibration_s": {"launch": launches.passes, "compute": speed.passes},
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_one(name: str, size: str, seed: int, seconds: float, trace: bool) -> dict:
    results = WORK / "results"
    if trace:
        import layers
        result = layers.traced_run(SRC, WORK, ENV, size, seed, seconds,
                                   results / f"spans-{name}-s{seed}.json",
                                   Speed(compute_pass, COMPUTE_REF_S))
    else:
        result = measure(name, size, seed, seconds)
    for problem in result.pop("problems"):
        print(f"{name}: {problem}", file=sys.stderr)
    result = {"correct": result["failed"] == 0, **result}
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-s{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=_seed, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload and the traced run on tiny inputs")
    args = parser.parse_args(argv)
    if not (SRC / "taco" / "cli.py").is_file():
        print(f"error: no taco sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        ok = True
        for name in WORKLOADS:
            result = run_one(name, "smoke", args.seed, 0.0, False)
            ok &= result["correct"]
            print(name, json.dumps(result))
        result = run_one("smoke", "smoke", args.seed, 0.0, True)
        ok &= result["correct"]
        print("trace", json.dumps(result))
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = run_one(args.workload, "full", args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
