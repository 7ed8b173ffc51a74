"""Property tests over the CLI exit contract.

``cli.main`` runs on generated argv and generated input files: raw bytes as
well as text, CSV headers and cells, ``--params`` and ``--config`` JSON of
random types, and JSONL lines with wrong types, non-finite tokens, deep
nesting or truncation.  The first test draws argv and every file; the
others fix argv and draw one kind of file, so that more runs get past the
flags to the readers' own checks.  Whatever the input, the run must

- exit 0, 1 or 2, without raising (``--help`` and ``--version`` end in
  argparse's ``SystemExit(0)``, which is exit 0);
- on a non-zero exit, leave exactly one ``error:`` line on stderr, or the
  usage text;
- on a non-zero exit, leave no ``--out`` file;
- fail as it would with a writable ``--out`` when ``--out`` cannot be
  written, or, where it would succeed, exit 2.

``--rephrase`` is never generated and ``TACO_LLM_ENDPOINT`` is cleared, so
no run reaches the network; ``--jobs`` is fixed at 1, and window, target and
synth lengths stay small, so each run takes milliseconds.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from taco.annotator import TimeSeriesClass, default_config
from taco.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main

_WORD = st.text(max_size=6)
#: True about nine times in ten.
_MOSTLY = st.sampled_from([True] * 9 + [False])
_NUMBER = st.floats(min_value=-1e3, max_value=1e3)

# ---------------------------------------------------------------------------
# files: each is raw bytes or the UTF-8 text of its format, mostly well formed
# ---------------------------------------------------------------------------

_ODD_CELL = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " ", "nan", "inf", "-inf", "1e999", "1e308", "abc", '"1"', '"',
                     "1,2", "\x00"]),
    _WORD,
)
_CELL = _NUMBER.map(repr)


@st.composite
def _csv_text(draw) -> str:
    """A header and up to 40 rows.  In a file with odd cells, about one cell
    in ten is odd, about one row in ten is short or long, and one file in
    ten holds a field too long for csv."""
    header = draw(st.lists(st.sampled_from(["a", "b", "v", "", "a b"]) | _WORD,
                           min_size=1, max_size=3))
    odd = draw(st.booleans())
    rows = [header]
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        width = len(header) + (draw(st.sampled_from([0] * 9 + [-1, 1])) if odd else 0)
        rows.append([draw(_ODD_CELL if odd and not draw(_MOSTLY) else _CELL)
                     for _ in range(width)])
    if odd and not draw(_MOSTLY):  # a field past csv's length limit
        rows.insert(draw(st.integers(min_value=1, max_value=len(rows))), ["1" * 131073])
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(",".join(row) + ending for row in rows)


#: What may stand where a number belongs: integers past the float range,
#: non-finite floats and other types.
_NOT_A_NUMBER = st.sampled_from([10**400, -10**400, float("nan"), float("inf"), None, True,
                                 "1", "", [], {}])
_JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-10**20, max_value=10**20),
    st.floats(allow_nan=True, allow_infinity=True), _WORD, _NOT_A_NUMBER,
)
_JSON = st.recursive(
    _JSON_SCALAR,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_WORD, inner, max_size=3),
    max_leaves=8,
)


def _encode(value) -> str:
    """JSON text; NaN and infinities become the tokens taco must refuse."""
    return json.dumps(value, allow_nan=True)


_FRACTION = st.floats(min_value=0.01, max_value=1.0)
#: A valid value for each detector parameter.
_PARAM_VALUES = {
    "k_segments": st.integers(min_value=2, max_value=12),
    "ma_window_frac": _FRACTION,
    "median_window_frac": _FRACTION,
    "spike_sigma": st.floats(min_value=0.5, max_value=6.0),
    "symmetry_pad_step_frac": _FRACTION,
    "step_kernel_fracs": st.lists(_FRACTION, min_size=1, max_size=3),
}


@st.composite
def _params(draw):
    """Some detector parameters, each valid three times in four and else
    not a number, or JSON of any type."""
    if not draw(_MOSTLY):
        return draw(_JSON)
    return {name: draw(valid if draw(st.sampled_from([True] * 3 + [False])) else
                       _NOT_A_NUMBER)
            for name, valid in _PARAM_VALUES.items() if draw(st.booleans())}


_RULE_KEYS = st.sampled_from(["score", "direction", "cutoff", "extra"])


@st.composite
def _config(draw) -> dict:
    """The default config with one or two rules changed, or JSON of any type."""
    if not draw(_MOSTLY):
        return draw(_JSON)
    body = default_config().to_json_dict()
    for name in draw(st.lists(st.sampled_from(sorted(body)), min_size=1, max_size=2,
                              unique=True)):
        change = draw(st.sampled_from(["cutoff", "drop rule", "set key", "drop key",
                                       "replace"]))
        if change == "cutoff":
            body[name]["cutoff"] = draw(_NOT_A_NUMBER)
        elif change == "drop rule":
            del body[name]
        elif change == "set key":
            body[name][draw(_RULE_KEYS)] = draw(st.one_of(_NUMBER, _NOT_A_NUMBER, _JSON))
        elif change == "drop key":
            body[name].pop(draw(_RULE_KEYS), None)
        else:
            body[name] = draw(_JSON)
    if not draw(_MOSTLY):
        body[draw(_WORD)] = draw(_JSON)
    return body


_CLASS_NAMES = [member.value for member in TimeSeriesClass]
_CLASS_LIST = st.lists(st.sampled_from(_CLASS_NAMES + ["Square", "Wobbly"]), max_size=3)
_VALUES = st.lists(_NUMBER, min_size=16, max_size=16) | st.tuples(
    st.lists(_NUMBER, min_size=15, max_size=15), st.integers(0, 15), _NOT_A_NUMBER,
).map(lambda parts: parts[0][:parts[1]] + [parts[2]] + parts[0][parts[1]:])

#: Each record field: a well-formed value (nine times in ten), or a value
#: of any type.
_FIELDS = {
    "source": st.sampled_from(["", "synth", "in.csv#a#0"]),
    "classes": _CLASS_LIST,
    "scores": st.dictionaries(st.sampled_from(["trend", "noise_mse"]), _NUMBER, max_size=2),
    "caption_base": st.sampled_from(["", "The signal has a rising trend.", "x y z"]),
    "caption_rephrased": st.none() | _WORD,
    "config_digest": st.sampled_from(["", "90b4d6e2edd4f1b4"]),
    "values": _VALUES,
}


#: A line that is not a record: JSON of any type, or arrays nested past
#: the decoder's recursion limit.
_ODD_LINE = st.sampled_from(["[" * 100000 + "]" * 100000]) | _JSON.map(_encode)


@st.composite
def _jsonl_text(draw) -> str:
    """Up to four records, each field present nine times in ten; one line
    in ten is not a record, and the text may be cut short."""
    lines = []
    for i in range(draw(st.integers(min_value=0, max_value=4))):
        record = {"id": f"r{i}" if draw(_MOSTLY) else draw(_JSON)}
        for name, value in _FIELDS.items():
            if draw(_MOSTLY):
                record[name] = draw(value if draw(_MOSTLY) else _JSON)
        lines.append(_encode(record) if draw(_MOSTLY) else draw(_ODD_LINE))
    text = "".join(line + "\n" for line in lines)
    if text and not draw(_MOSTLY):
        text = text[:draw(st.integers(min_value=0, max_value=len(text) - 1))]
    return text


def _content(text):
    """UTF-8 text of the format, or raw bytes one time in ten."""
    return _MOSTLY.flatmap(lambda well_formed: text.map(lambda t: t.encode("utf-8"))
                           if well_formed else st.binary(max_size=64))


_FILES = st.fixed_dictionaries({
    "in.csv": _content(_csv_text()),
    "params.json": _content(_params().map(_encode)),
    "config.json": _content(_config().map(_encode)),
    "a.jsonl": _content(_jsonl_text()),
    "b.jsonl": _content(_jsonl_text()),
})

# ---------------------------------------------------------------------------
# argv
# ---------------------------------------------------------------------------

#: File names argv may hold; each becomes a path in the run's directory.
#: Those after ``_PATHS`` are only ever written.
_NAMES = ("in.csv", "params.json", "config.json", "a.jsonl", "b.jsonl", "missing.csv",
          ".", "out.jsonl", "skips.jsonl", "missing/skips.jsonl", "missing/out.jsonl")
_PATHS = _NAMES[:-3]
_ANY_PATH = st.sampled_from(_PATHS)


def _path(usual: str):
    """``usual`` about half the time, else any file name."""
    return st.sampled_from([usual] * 6 + list(_PATHS))


_LEN = _MOSTLY.flatmap(lambda valid: st.sampled_from(["16", "20", "32"] if valid else
                                                    ["15", "0", "-1", "x"]))
_SWITCH = st.just(None)
_SETTINGS = {"--config": _path("config.json"), "--params": _path("params.json")}
_INGEST = {"--input": _path("in.csv"), "--window": _LEN, "--target-len": _LEN}
_COLUMN = st.sampled_from(["a", "b", "v"]) | _WORD
_STRIDE = st.sampled_from(["1", "7", "16", "0"])

#: Per subcommand: the flags it is given (each is left out one time in
#: ten), and the flags it may also get, with their values; a None value is
#: a switch.  ``--jobs`` is fixed at 1.
_COMMANDS = {
    "dataset": (_INGEST | _SETTINGS, {
        "--column": _COLUMN, "--stride": _STRIDE, "--jobs": st.just("1"),
        "--no-values": _SWITCH,
        "--skip-log": st.sampled_from(["skips.jsonl", "out.jsonl", "missing/skips.jsonl"])}),
    "nearnbr": ({"--index": _path("a.jsonl"), "--queries": _path("b.jsonl")}, {}),
    "annotate": (_INGEST | _SETTINGS, {"--column": _COLUMN, "--stride": _STRIDE}),
    "eval": ({"--candidates": _path("a.jsonl"), "--references": _path("b.jsonl")}, {}),
    "caption": ({"--input": _path("a.jsonl")},
                {"--classes": st.lists(st.sampled_from(_CLASS_NAMES) | _WORD, max_size=3)
                 .map(",".join), "--input": _ANY_PATH, "--jobs": st.just("1")}),
    "synth": (_SETTINGS | {"--count": st.sampled_from(["1", "2", "3", "0", "x"]),
                           "--length": st.sampled_from(["16", "24", "8", "1"])},
              {"--seed": st.sampled_from(["0", "7", "-1"]),
               "--shapes": st.lists(st.sampled_from(["Sinusoid", "Square"]) | _WORD,
                                    max_size=2).map(",".join),
               "--annotate-also": _SWITCH, "--no-values": _SWITCH}),
}


@st.composite
def _argv(draw) -> list:
    command = draw(st.sampled_from(list(_COMMANDS)) if draw(_MOSTLY) else _WORD)
    if command not in _COMMANDS:
        return [command] + draw(st.lists(_WORD, max_size=2))
    given_flags, other_flags = _COMMANDS[command]
    flags = [flag for flag in given_flags if draw(_MOSTLY)]
    if other_flags:
        flags += draw(st.lists(st.sampled_from(sorted(other_flags)), max_size=3))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        value = draw((given_flags | other_flags)[flag])
        argv += [flag] if value is None else [flag, value]
    if draw(st.booleans()):
        argv += ["--out", "out.jsonl"]
    if not draw(_MOSTLY):
        argv.append(draw(_WORD))
    return argv


@pytest.fixture(autouse=True, scope="module")
def _no_endpoint():
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("TACO_LLM_ENDPOINT", raising=False)
        yield


#: Shared by every test here: fixed examples, and no time limit per example.
_SETTINGS_KW = dict(derandomize=True, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def _run(files: dict, argv: list):
    """Write ``files`` to a fresh directory and run ``argv``, each file name
    in it made a path in that directory.  Returns the exit code, stderr and
    whether ``out.jsonl`` exists after the run; the code is None when
    argparse ended the run with ``SystemExit(0)``, as ``--help`` and
    ``--version`` do."""
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        for name, body in files.items():
            (work / name).write_bytes(body)
        argv = [str(work / a) if a in _NAMES else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 0 and not err.getvalue(), argv
                code = None
        return code, err.getvalue(), (work / "out.jsonl").exists()


def _check_contract(files: dict, argv: list) -> None:
    """Run ``argv`` on ``files`` and check the exit contract."""
    code, err, out_exists = _run(files, argv)
    if code is None:
        return
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA), (argv, err)
    if code != EXIT_OK:
        one_line = err.startswith("error: ") and err.count("\n") == 1
        usage = err.startswith("usage: ") and sum(
            line.startswith("error: ") for line in err.splitlines()) <= 1
        assert one_line or usage, (argv, err)
        assert not out_exists, (argv, err)


@settings(max_examples=200, **_SETTINGS_KW)
@given(files=_FILES, argv=_argv())
def test_cli_keeps_exit_contract(files, argv):
    _check_contract(files, argv)


@settings(max_examples=150, **_SETTINGS_KW)
@given(files=_FILES, argv=_argv())
@example(files={}, argv=["caption", "--classes", "Rising"])  # rarely drawn
def test_unwritable_out_changes_no_failure(files, argv):
    # every flag and settings check runs before --out is opened; out.jsonl
    # is renamed everywhere in argv, so --skip-log still collides with --out
    code, err, _ = _run(files, argv + ["--out", "out.jsonl"])
    if code is None:
        return
    unwritable = [{"out.jsonl": "missing/out.jsonl"}.get(a, a) for a in argv]
    unwritable_code, unwritable_err, _ = _run(files, unwritable + ["--out", "missing/out.jsonl"])
    assert unwritable_code == (EXIT_DATA if code == EXIT_OK else code), (
        argv, err, unwritable_err)


#: A clean two-column CSV, so that runs reach the detectors.
_CLEAN_CSV = ("a,b\n" + "".join(f"{i % 7}.5,{i * i}\n" for i in range(40))).encode()


@settings(max_examples=150, **_SETTINGS_KW)
@given(config=_content(_config().map(_encode)), params=_content(_params().map(_encode)),
       command=st.sampled_from(["dataset", "annotate", "synth"]),
       flags=st.sampled_from([["--config"], ["--params"], ["--config", "--params"]]))
def test_settings_files_keep_exit_contract(config, params, command, flags):
    argv = ([command, "--count", "2", "--length", "32", "--annotate-also"]
            if command == "synth" else
            [command, "--input", "in.csv", "--window", "16", "--target-len", "16"])
    for flag in flags:
        argv += [flag, f"{flag[2:]}.json"]
    _check_contract({"in.csv": _CLEAN_CSV, "config.json": config, "params.json": params},
                    argv + ["--out", "out.jsonl"])


@settings(max_examples=100, **_SETTINGS_KW)
@given(table=_content(_csv_text()), command=st.sampled_from(["dataset", "annotate"]),
       column=st.sampled_from([[], ["--column", "a"]]))
def test_csv_reader_keeps_exit_contract(table, command, column):
    _check_contract({"in.csv": table}, [command, "--input", "in.csv", "--window", "16",
                                        "--target-len", "16", *column, "--out", "out.jsonl"])


@settings(max_examples=150, **_SETTINGS_KW)
@given(first=_content(_jsonl_text()), second=_content(_jsonl_text()),
       argv=st.sampled_from([["nearnbr", "--index", "a.jsonl", "--queries", "b.jsonl"],
                             ["nearnbr", "--index", "b.jsonl", "--queries", "a.jsonl"],
                             ["eval", "--candidates", "a.jsonl", "--references", "b.jsonl"],
                             ["caption", "--input", "a.jsonl"]]))
def test_jsonl_readers_keep_exit_contract(first, second, argv):
    _check_contract({"a.jsonl": first, "b.jsonl": second}, argv + ["--out", "out.jsonl"])
